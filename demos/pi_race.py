"""Two series for arctan racing to pi, with exact partial sums.

Both expansions share the shell (1+x^2)^(n+1); the classical one carries
factorial-ratio coefficients on odd powers, the second one carries the
beta polynomials.  At x = 1 their terms decay like 2^-n and 2^-(n/2), so
the classical route wins on terms while both stay exact all the way.
"""
from fractions import Fraction

from arctanpoly import SeriesKind, compare_series, partial_sum, pi_approx
from arctanpoly.exact import format_rational

print("=" * 72)
print("PI FROM 4*arctan(1)")
print("=" * 72)
for kind in SeriesKind:
    for tol in (1e-1, 1e-6, 1e-10):
        value, terms = pi_approx(kind, tol)
        print(f"  {kind.value:<15s} tol={tol:>7.0e}: {float(value):.12f} after {terms:>3d} terms")

print()
print("=" * 72)
print("PARTIAL-SUM TABLES AT x = 1 (exact rationals)")
print("=" * 72)
for kind in SeriesKind:
    report = partial_sum(kind, Fraction(1), 10)
    print(f"\n  {kind.value}: target arctan(1) = {report.target!r}")
    for row in report.rows:
        print(
            f"    n={row.n}: term={format_rational(row.term):>12s} "
            f"sum={format_rational(row.partial_sum):>18s} |error|={row.abs_error:.3e}"
        )

print()
print("=" * 72)
print("TERMS NEEDED TO REACH 1e-8, SIDE BY SIDE")
print("=" * 72)
for x in (Fraction(1), Fraction(1, 2), Fraction(1, 5)):
    rows = compare_series(x, 1e-8)
    summary = ", ".join(
        f"{row.kind.value}: {row.terms_to_tolerance} terms (err {row.final_error:.1e})"
        for row in rows
    )
    print(f"  x={str(x):>4s}: {summary}")

print("""
Note the beta-expansion error does not shrink at literally every step: its
terms change sign in blocks (period 8 at x = 1), so partial sums overshoot
inside each block while the error envelope q^n, q = |x|/sqrt(1+x^2),
decays geometrically.""")
report = partial_sum(SeriesKind.BETA_EXPANSION, Fraction(1), 16)
errors = [row.abs_error for row in report.rows]
rises = [n + 1 for n in range(len(errors) - 1) if errors[n + 1] > errors[n]]
print(f"  error rises at n = {rises} while trending to 0: final {errors[-1]:.2e}")
