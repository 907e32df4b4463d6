"""Cotangent root ladders and the Bernoulli-weighted companion matrix.

beta_n vanishes exactly at cot(k*pi/(n+1)) and alpha_n at
cot((2k-1)*pi/(2n)).  The monic normalization pi_n = beta_n/(n+1) also
arises as the characteristic polynomial of a Hessenberg matrix whose
columns stack Bernoulli-weighted bracket coefficients, so those cot nodes
are literally eigenvalues.
"""
import mpmath

from arctanpoly import (
    BuildMethod,
    SequenceKind,
    bracket,
    build,
    build_H,
    charpoly,
    eigen_check,
    roots,
)

print("=" * 72)
print("ROOT LADDERS WITH SIMPLE-ROOT CERTIFICATES")
print("=" * 72)
for kind in (SequenceKind.BETA, SequenceKind.ALPHA):
    n = 6
    print(f"\n  {kind.value}_{n} = {build(kind, n).pretty()}")
    for record in roots(kind, n).roots:
        print(
            f"    k={record.index}: {record.closed_form:>14s} = "
            f"{mpmath.nstr(record.value, 15):>20s}  "
            f"slope-scaled residual {record.check.residual / max(1.0, record.check.slope):.1e}"
        )

print()
print("=" * 72)
print("BRACKET COEFFICIENTS AND THE COMPANION MATRIX")
print("=" * 72)
print("""
The monic sequence satisfies pi_{n+1} = x pi_n - sum_j [n over j] pi_{n-j}
with [n over j] = 2^(j+1)/(j+1) C(n,j) |B_{j+1}|; odd Bernoulli numbers
beyond the first vanish, so every even offset drops out:""")
for n in range(1, 7):
    row = ", ".join(str(bracket(n, j)) for j in range(n + 1))
    print(f"  [{n} over 0..{n}] = {row}")

n = 5
matrix = build_H(n)
print(f"\n  H_{n} (json): {matrix.json()}")
cp = charpoly(matrix)
print(f"  charpoly(H_{n}) = {cp.pretty()}")
# pi_n from the three-term recurrence, which uses no matrix and no bracket;
# charpoly (Berkowitz) does not read the matrix's shape, so it shares no
# step with either pi route
monic = build(SequenceKind.MONIC_PI, n, BuildMethod.RECURRENCE)
print(f"  beta_{n}/6      = {monic.pretty()}")
print(f"  equal: {cp == monic}")

print("\n  eigenvalues are the cot nodes (certified):")
for n in range(1, 9):
    print(f"    n={n}: eigen_check -> {eigen_check(n)}")
