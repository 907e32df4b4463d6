"""Tour of the beta/alpha polynomial families and their many constructions.

Builds the first members by every supported algorithm, shows that all
routes agree coefficient-for-coefficient, and checks both generating
functions, truncated exactly, against members built by another route.
"""
from fractions import Fraction

from arctanpoly import (
    BuildMethod,
    SequenceKind,
    build,
    cross_validate,
    verify_egf,
    verify_ogf,
)
from arctanpoly.families import SUPPORTED_METHODS

print("=" * 72)
print("FAMILY TABLES")
print("=" * 72)
for kind in (SequenceKind.BETA, SequenceKind.ALPHA, SequenceKind.P, SequenceKind.MONIC_PI):
    print(f"\n  {kind.value}_n for n = 0..5:")
    for n in range(6):
        print(f"    n={n}:  {build(kind, n).pretty()}")

print()
print("=" * 72)
print("EVERY CONSTRUCTION GIVES THE SAME POLYNOMIALS")
print("=" * 72)
print("""
The same beta member can be built by a three-term recurrence, an explicit
binomial sum, powers of x+i, or a terminating hypergeometric sum; alpha also
by a Bernoulli-weighted monic recurrence, and P by the paper's derivative
recurrence. The explicit sum takes each binomial directly from math.comb;
the hypergeometric sum steps from term to term by the integer 2F1 term ratio.
""")
n_show = 7
for method in BuildMethod:
    if method not in SUPPORTED_METHODS[SequenceKind.BETA]:
        continue
    p = build(SequenceKind.BETA, n_show, method)
    print(f"  beta_{n_show} via {method.value:<22s} {p.pretty()}")

print()
for kind in SequenceKind:
    report = cross_validate(kind, 60)
    print(f"  cross-validate {kind.value:<5s} up to n=60: {report.summary()}")

print()
print("=" * 72)
print("GENERATING FUNCTIONS, CHECKED AGAINST BUILT MEMBERS")
print("=" * 72)
print("""
Ordinary:     sum beta_n(x) z^n  = 1/(1 - 2xz + (1+x^2) z^2)
              sum alpha_n(x) z^n = (1 - xz)/(1 - 2xz + (1+x^2) z^2)
Exponential:  sum beta_n(x) z^n/n!  = (cos z + x sin z) e^(xz)
              sum alpha_n(x) z^n/n! = cos(z) e^(xz)

Expanding the rational OGF is the three-term recurrence itself, so it is
checked against the explicit binomial sums; the EGF product is a binomial
convolution, so it is checked against the recurrence.
""")
for x in (Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(3)):
    for kind in (SequenceKind.BETA, SequenceKind.ALPHA):
        ogf = verify_ogf(kind, x, 40)
        egf = verify_egf(kind, x, 40)
        print(f"  x={str(x):>5s} {kind.value:<5s}: ogf to order 40: {ogf},  egf: {egf}")

print()
print("  first values beta_n(1):", [int(build(SequenceKind.BETA, n).evaluate(1)) for n in range(9)])
print("  (the pattern 2^((n+1)/2) sin((n+1)pi/4): 1, 2, 2, 0, -4, -8, -8, 0, 16)")
