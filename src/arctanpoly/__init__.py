"""Exact polynomial families from the higher derivatives of arctan.

The n-th derivative of arctan(x) equals P_{n-1}(x)/(1+x^2)^n for an integer
polynomial family P, whose normalized companion families beta and alpha tie
together Chebyshev, Fibonacci, Lucas and matching polynomials, a
Bernoulli-weighted Hessenberg companion matrix with cotangent eigenvalues,
and two series expansions of arctan.  Everything is built over exact
rational arithmetic and cross-validated by independent constructions.
"""

from .calculus import (
    PoleError,
    RootRecord,
    RootSet,
    arctan_nth_derivative,
    artanh_nth_derivative,
    chebyshev_derivative_form,
    finite_difference_derivative,
    ode_residual,
    roots,
)
from .chebyshev import (
    ChebyshevKind,
    ZeroParameterError,
    alpha_from_chebyshev,
    beta_from_chebyshev,
    chebyshev,
    tridiag_det,
    trig_spot_check,
)
from .connections import (
    FibonacciMethod,
    GraphFamily,
    GraphKind,
    MatchingMethod,
    SizeLimitError,
    TanRatio,
    fibonacci_poly,
    lucas_poly,
    matching_poly,
    tan_multiple,
)
from .exact import GaussianInt, bernoulli, bernoulli_table, gaussian_pow, parse_rational
from .families import (
    BuildMethod,
    CrossValidationReport,
    SequenceKind,
    UnsupportedPairError,
    build,
    build_sequence,
    cross_validate,
    verify_egf,
    verify_ogf,
)
from .hessenberg import RationalMatrix, bracket, build_H, charpoly, eigen_check
from .poly import Polynomial
from .series import (
    SeriesKind,
    SeriesReport,
    SeriesRow,
    compare_series,
    partial_sum,
    pi_approx,
    series_term,
)

__version__ = "0.1.0"

__all__ = [
    "BuildMethod",
    "ChebyshevKind",
    "CrossValidationReport",
    "FibonacciMethod",
    "GaussianInt",
    "GraphFamily",
    "GraphKind",
    "MatchingMethod",
    "PoleError",
    "Polynomial",
    "RationalMatrix",
    "RootRecord",
    "RootSet",
    "SequenceKind",
    "SeriesKind",
    "SeriesReport",
    "SeriesRow",
    "SizeLimitError",
    "TanRatio",
    "UnsupportedPairError",
    "ZeroParameterError",
    "alpha_from_chebyshev",
    "arctan_nth_derivative",
    "artanh_nth_derivative",
    "bernoulli",
    "bernoulli_table",
    "beta_from_chebyshev",
    "bracket",
    "build",
    "build_H",
    "build_sequence",
    "charpoly",
    "chebyshev",
    "chebyshev_derivative_form",
    "compare_series",
    "cross_validate",
    "eigen_check",
    "fibonacci_poly",
    "finite_difference_derivative",
    "gaussian_pow",
    "lucas_poly",
    "matching_poly",
    "ode_residual",
    "parse_rational",
    "partial_sum",
    "pi_approx",
    "roots",
    "series_term",
    "tan_multiple",
    "tridiag_det",
    "trig_spot_check",
    "verify_egf",
    "verify_ogf",
]
