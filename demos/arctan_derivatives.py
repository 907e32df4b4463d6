"""High-order derivatives of arctan and artanh, by three independent routes.

Exact rational values come from the paper's explicit formula for the
polynomial family P, d^n/dx^n arctan(x) = P_{n-1}(x) / (1+x^2)^n with
P_{n-1}(x) = (-1)^(n-1) (n-1)! Im((x+i)^n), taken at x = p/q as one
Gaussian-integer power,

    d^n/dx^n arctan(p/q) = (n-1)! Im((-p+iq)^n) q^n / (p^2+q^2)^n,

cross-checked against a Chebyshev closed form evaluated in 128-bit floats
and against central finite differences of mpmath's arctan.
"""
from fractions import Fraction

from arctanpoly import (
    arctan_nth_derivative,
    artanh_nth_derivative,
    chebyshev_derivative_form,
    finite_difference_derivative,
)
from arctanpoly.exact import format_rational

print("=" * 72)
print("EXACT ARCTAN DERIVATIVES vs TWO NUMERIC ORACLES")
print("=" * 72)
print(f"\n  {'n':>2s} {'x':>4s} {'exact':>22s} {'chebyshev-form':>22s} {'finite-diff':>22s}")
for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
    for n in (1, 2, 3, 5):
        exact = arctan_nth_derivative(n, x)
        cheb = chebyshev_derivative_form(n, x)
        fd = finite_difference_derivative(n, x)
        print(
            f"  {n:>2d} {str(x):>4s} {format_rational(exact):>22s} "
            f"{float(cheb):>22.12f} {float(fd):>22.12f}"
        )

print("""
The Taylor expansion of arctan at 0 has coefficients (-1)^k/(2k+1) on
x^(2k+1), so odd-order derivatives at 0 are (-1)^k (2k)! and even ones
vanish:""")
for n in range(1, 10):
    print(f"  d^{n} arctan(0) = {format_rational(arctan_nth_derivative(n, Fraction(0)))}")

print()
print("=" * 72)
print("ARTANH DERIVATIVES FROM THE BINOMIAL CLOSED FORM")
print("=" * 72)
print("""
  d^n/dx^n artanh(x) = (n-1)!/(2(1-x^2)^n) * ((x+1)^n - (x-1)^n),
defined away from the poles x = +-1:""")
for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 4)):
    values = [format_rational(artanh_nth_derivative(n, x)) for n in range(1, 6)]
    print(f"  x={str(x):>5s}: n=1..5 -> {', '.join(values)}")
