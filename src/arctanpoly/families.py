"""Builders for the polynomial families attached to the derivatives of arctan.

Four families are materialized, all with exact coefficients:

* beta_n  = Im((x+i)**(n+1)), degree n, leading coefficient n+1;
* alpha_n = Re((x+i)**n), the companion family, monic for n >= 1;
* P_n     = (-1)**n * n! * Im((x+i)**(n+1)) = n! * beta_n(-x), the numerator
  of the n-th arctan derivative once divided by (1+x^2)**(n+1);
* pi_n    = beta_n / (n+1), the monic normalization whose zeros are
  cot(k*pi/(n+1)).

Each family is built by every route that computes something different: beta
by the three-term recurrence, explicit binomial sums, complex powers and
terminating hypergeometric sums; alpha by those four and the
Bernoulli-weighted monic recurrence, where its recurrence route is the
interchange relation alpha_n = beta_n - x beta_{n-1} (the imaginary part of
(x+i)^(n+1) = (x+i)(x+i)^n) on beta's recurrence members; P by n! times the
signed beta row ("explicit") and the paper's derivative recurrence
P_{n+1} = (1+x^2) P_n' - 2(n+1) x P_n; pi by the quotient beta_n/(n+1) of
beta's recurrence members and the monic Bernoulli recurrence.
``cross_validate`` compares each route, coefficient by coefficient, with the
family's first route in ``BuildMethod`` order (the recurrence, or for P the
explicit row); equality is transitive, so this is the evidence of comparing
every pair.  Two
constructions only rescale a route here and are left out: the P recurrence
divided by (-1)^(n+1) (n+1)! is beta_{n+1} = 2x beta_n - (1+x^2) beta_n' /
(n+1), and the complex power of P is (-1)^n n! times beta's.  For beta and
alpha the explicit sums take each binomial from ``math.comb`` and the
hypergeometric sums step by the integer form of the 2F1 term ratio, so the
two binomial routes share no arithmetic.  beta_n and alpha_n carry
coefficients only on x^(n-2k), k = 0..n//2: the three-term recurrence steps
on these half forms, the lists of the n//2 + 1 coefficients, and the
recurrence and binomial routes lay each member out as its full coefficient
list once, when it is built (``poly._spread``).  alpha's and pi's recurrence
routes keep no prefix: alpha's member n is one subtraction of beta's cached
members n and n-1 (stepping alpha's seeds would give these same differences,
as the step is linear and free of n), and pi's divides member n by n+1, so
the recurrence is stepped once and a session holds one prefix.  The
generating functions are checked against members built by a route other
than the one each restates: the rational OGF (whose denominator is the
three-term recurrence) against the explicit sums, the EGF (a binomial
convolution) against the recurrence.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count, islice
from math import comb, factorial, gcd, lcm
from operator import add, neg, sub
from typing import Callable, Iterator

from .exact import bernoulli, format_rational
from .poly import Polynomial, _canon, _radd_scaled, _row_product, _spread, _trim


class SequenceKind(Enum):
    BETA = "beta"
    ALPHA = "alpha"
    P = "p"
    MONIC_PI = "pi"


class BuildMethod(Enum):
    RECURRENCE = "recurrence"
    EXPLICIT = "explicit"
    COMPLEX_POWER = "complex-power"
    MONIC_BERNOULLI = "monic-bernoulli"
    HYPERGEOMETRIC = "hypergeometric"
    DERIVATIVE_RECURRENCE = "derivative-recurrence"


# The routes of every library caller that does not compare routes.  beta reads
# its cached recurrence prefix, alpha reads it through the interchange
# relation and pi as the quotient beta_n/(n+1), so the three share one prefix.
DEFAULT_METHOD: dict[SequenceKind, BuildMethod] = {
    SequenceKind.BETA: BuildMethod.RECURRENCE,
    SequenceKind.ALPHA: BuildMethod.RECURRENCE,
    SequenceKind.P: BuildMethod.EXPLICIT,
    SequenceKind.MONIC_PI: BuildMethod.RECURRENCE,
}

# The route for one member built alone, as the one-shot ``poly`` command
# does.  For beta and alpha the 2F1 term ratio gives member n in O(n) exact
# steps and keeps no prefix, while the recurrence steps through and stores
# every member before it (alpha's and pi's recurrence routes read beta's
# stored members).  DEFAULT_METHOD stays on this cached prefix
# because growing library sessions reuse it.  pi has no O(n) route, so both
# tables give it the quotient of beta's recurrence member, quadratic where
# the Bernoulli route is cubic.
SINGLE_MEMBER_METHOD: dict[SequenceKind, BuildMethod] = {
    SequenceKind.BETA: BuildMethod.HYPERGEOMETRIC,
    SequenceKind.ALPHA: BuildMethod.HYPERGEOMETRIC,
    SequenceKind.P: BuildMethod.EXPLICIT,
    SequenceKind.MONIC_PI: BuildMethod.RECURRENCE,
}


# Largest member the Bernoulli-weighted monic routes build.  Step n sums
# about n/2 earlier members with rational weights, so the prefix to n costs
# about n^3 bigint operations: at 400, alpha takes about 0.4 s and pi about
# 0.5 s of CPU on a shared 2-vCPU host, and ``verify --suite cross --max-n
# 400`` about 1.2 s as a process, while alpha at 1200 runs for minutes.  The
# three-term recurrence builds the same members in quadratic time.
MAX_MONIC_BERNOULLI_DEGREE = 400


class UnsupportedPairError(ValueError):
    """Raised when a (kind, method) combination has no defined construction."""


# ---------------------------------------------------------------------------
# raw coefficient-list helpers (ascending degree, ints preferred)
# ---------------------------------------------------------------------------

def _wrap(raw: list) -> Polynomial:
    return Polynomial._raw(_trim([_canon(c) for c in raw]))


def _three_term_step(cur: list, prev: list) -> list:
    # next = 2x*cur - (1+x^2)*prev on the half forms of members n and n-1:
    # entry k of next is 2 cur[k] - prev[k-1] - prev[k].  Zero-padded, the
    # three rows all have len(prev) + 1 entries, the length of next's form.
    # The order of the two subtractions is the full-list step's, so each
    # coefficient gets the same int allocation (CPython sizes a difference
    # by its larger operand) and the prefix cache stays as large as before.
    pad = [0] * (len(prev) + 1 - len(cur))
    return list(map(sub, map(sub, [*map(add, cur, cur), *pad], [0, *prev]), [*prev, 0]))


# ---------------------------------------------------------------------------
# per-n builders
# ---------------------------------------------------------------------------

# The two binomial routes put (-1)^k C(top, m+2k) on x^(n-2k), k = 0..n//2,
# and compute it independently: the explicit sum by math.comb per
# coefficient, the hypergeometric sum by its term ratio.

def _binomial_row(n: int, top: int, m: int) -> list:
    return _spread([(-1) ** k * comb(top, m + 2 * k) for k in range(n // 2 + 1)], n)


def _signed_row(n: int, top: int, m: int, scale: int = 1) -> list:
    """The binomial row times ``scale``, each term from the one before it.

    This is (n+1) x^n 2F1(a, b; 3/2; -1/x^2) = beta_n (top = n+1, m = 1) or
    x^n 2F1(a, b; 1/2; -1/x^2) = alpha_n (top = n, m = 0), a = -n/2,
    b = (1-n)/2; the sum terminates at k = n//2, and term k lands on x^(n-2k).
    A step is the term ratio (a+k)(b+k)/((c+k)(k+1)) in its integer form
    C(top, m+2) = C(top, m) (top-m)(top-m-1) / ((m+1)(m+2)), one multiply and
    one exact division by small ints.
    """
    row = []
    b = scale * comb(top, m)
    for _ in range(n // 2):
        row.append(b)
        b = b * (top - m) * (top - m - 1) // ((m + 1) * (m + 2))
        m += 2
    row.append(b)
    row[1::2] = map(neg, row[1::2])
    return _spread(row, n)


def _p_explicit(n: int) -> list:
    # P_n = (-1)^n n! beta_n coefficientwise, i.e. n! beta_n(-x)
    return _signed_row(n, n + 1, 1, (-1) ** n * factorial(n))


def bracket(n: int, j: int) -> Fraction:
    """Bracket coefficient [n over j] of the monic recurrence of pi_n, exact."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    if j == 0:
        return Fraction(0)
    # 2^(j+1) C(n, j) |B_(j+1)| / (j+1), reduced once
    b = bernoulli(j + 1)
    return Fraction(2 ** (j + 1) * comb(n, j) * abs(b.numerator), (j + 1) * b.denominator)


def _weights(n: int, alpha: bool) -> list[tuple[int, int]]:
    """The weights of step n of a monic Bernoulli route, for odd j = 1, 3, ...
    <= n, as reduced (numerator, denominator) pairs.

    pi's weight is bracket(n, j) = 2^(j+1) C(n, j) |B_(j+1)| / ((j+1) den),
    with den the denominator of B_(j+1); alpha's is (2^(j+1) - 1) times it.
    C(n, j) steps by its term ratio, and one gcd against the small
    (j+1) den reduces each pair, which is the pair ``Fraction`` would hold.
    The even j carry B_(odd >= 3) = 0 and have no weight.  ``bernoulli`` is
    read through this module, so rebinding it here reaches the routes.
    """
    rows = []
    c = n  # C(n, j)
    for j in range(1, n + 1, 2):
        b = bernoulli(j + 1)
        p = 1 << (j + 1)
        num = p * c * abs(b.numerator)
        if alpha:
            num *= p - 1
        den = (j + 1) * b.denominator
        g = gcd(num, den)
        rows.append((num // g, den // g))
        c = c * (n - j) * (n - j - 1) // ((j + 1) * (j + 2))
    return rows


def _pi_weights(n: int) -> list[tuple[int, int]]:
    return _weights(n, False)


def _alpha_weights(n: int) -> list[tuple[int, int]]:
    return _weights(n, True)


def _alpha_interchange(n: int) -> list:
    """alpha_n = beta_n - x beta_(n-1), from beta's recurrence prefix.

    The imaginary part of (x+i)^(n+1) = (x+i)(x+i)^n is beta_n = x beta_(n-1)
    + alpha_n.  The route is named, so beta's default cannot move alpha's.
    """
    betas = build_sequence(SequenceKind.BETA, n, BuildMethod.RECURRENCE)
    prev = betas[n - 1].coefficients if n else ()
    return list(map(sub, betas[n].coefficients, (0, *prev)))


def _pi_quotient(n: int) -> list:
    """pi_n = beta_n/(n+1), from beta's recurrence prefix.

    The route is named, so beta's default cannot move pi's.
    """
    beta = build_sequence(SequenceKind.BETA, n, BuildMethod.RECURRENCE)[n]
    return [_canon(Fraction(c, n + 1)) if c else 0 for c in beta.coefficients]


# Single members of the routes that keep no prefix of their own, as
# coefficient lists that are already canonical: each entry is an int, or for
# pi a Fraction whose denominator is not 1, and the leading one is nonzero
# (for the interchange, (n+1) - n = 1; for pi, 1), so each list is laid out
# as it is.
_MEMBERS: dict[tuple[SequenceKind, BuildMethod], Callable[[int], list]] = {
    # direct binomials, one math.comb call per coefficient
    (SequenceKind.BETA, BuildMethod.EXPLICIT): lambda n: _binomial_row(n, n + 1, 1),
    (SequenceKind.ALPHA, BuildMethod.EXPLICIT): lambda n: _binomial_row(n, n, 0),
    # term ratio: P has no second binomial route to cross-check, and
    # `poly --kind p` builds it alone at n in the thousands, where math.comb
    # per coefficient costs several times as much
    (SequenceKind.P, BuildMethod.EXPLICIT): _p_explicit,
    # the 2F1 term ratio, in integers
    (SequenceKind.BETA, BuildMethod.HYPERGEOMETRIC): lambda n: _signed_row(n, n + 1, 1),
    (SequenceKind.ALPHA, BuildMethod.HYPERGEOMETRIC): lambda n: _signed_row(n, n, 0),
    # alpha from beta's cached members n and n-1, pi from member n
    (SequenceKind.ALPHA, BuildMethod.RECURRENCE): _alpha_interchange,
    (SequenceKind.MONIC_PI, BuildMethod.RECURRENCE): _pi_quotient,
}


# ---------------------------------------------------------------------------
# stepped routes: generators of members 0, 1, 2, ...
# ---------------------------------------------------------------------------

# Each stepped route is a generator; its local variables hold the working
# forms its next step reads, and a step runs only when the next member is
# asked for.

def _complex_power(part: str, shift: int):
    """Raw coefficient lists of the ``part`` ("re" or "im") of (x + i)**(n + shift)."""
    re, im = ([1], []) if shift == 0 else ([0, 1], [1])
    while True:
        yield re if part == "re" else im
        re, im = (
            _radd_scaled([0] + re, im, -1),  # x*re - im
            _radd_scaled([0] + im, re, 1),  # x*im + re
        )


def _three_term(prev: list, cur: list):
    """Members of the three-term recurrence from the half forms of members 0
    and 1.  All-int forms are canonical already, and the leading coefficient
    of a member is nonzero, so the spread form needs no trim."""
    yield Polynomial._raw(prev)
    for n in count(1):
        yield Polynomial._raw(_spread(cur, n))
        prev, cur = cur, _three_term_step(cur, prev)


def _p_derivative():
    """Members of the derivative recurrence P_{n+1} = (1+x^2) P_n' - 2(n+1) x P_n
    from P_0 = 1."""
    cur = [1]
    for n in count():
        yield _wrap(cur)
        d = [i * cur[i] for i in range(1, len(cur))]
        nxt = _radd_scaled(list(d), [0, 0] + d, 1)
        cur = _radd_scaled(nxt, [0] + cur, -2 * (n + 1))


def _monic_bernoulli(weights: Callable[[int], list[tuple[int, int]]]):
    """Members of the monic recurrence p_{n+1} = x p_n - sum_j w(n, j) p_{n-j}.

    ``weights(n)`` gives w(n, j) for the odd j <= n as reduced (numerator,
    denominator) pairs; the even offsets carry B_{odd>=3} = 0 and have none.
    Members are kept fraction-free, as (half form, denominator).  p_n has the
    parity of n, so x p_n and, with j odd, p_{n-j} have the parity of
    p_{n+1}: entry k of x p_n is entry k of p_{n+1}'s half form, and entry k
    of p_{n-j} lands on entry k + (j+1)/2.  A step scales every term to the lcm of its denominators,
    accumulates in ints and divides the content gcd out once.  Step n adds
    about n/2 members of about n/4 entries each, so the prefix to n costs
    about n^3/24 bigint products; full coefficient lists would walk as many
    zero entries besides.
    """
    forms = [([1], 1)]
    for n in count():
        cur, cur_den = forms[n]
        yield _wrap(_spread(cur if cur_den == 1 else [Fraction(v, cur_den) for v in cur], n))
        terms = []
        den = cur_den
        for j, (num, w_den) in enumerate(weights(n)):
            nums, nums_den = forms[n - 2 * j - 1]
            term_den = w_den * nums_den
            terms.append((num, term_den, nums, j + 1))
            den = lcm(den, term_den)
        scale = den // cur_den
        # p_{n+1} has (n+1)//2 + 1 entries: one more than x p_n for odd n
        out = [scale * v for v in cur] + [0] * (n % 2)
        for num, term_den, nums, offset in terms:
            factor = num * (den // term_den)
            for i, v in enumerate(nums, offset):
                out[i] -= factor * v
        g = gcd(den, *out)
        if g != 1:
            out = [v // g for v in out]
            den //= g
        forms.append((out, den))


# The stepped routes, each as (generator, *args) so that two routes compare
# by value.  The complex powers yield raw lists and keep no prefix: stepping
# to member n costs about as much as the whole prefix, and verify reads each
# of them once.
_POWER_ROUTES: dict[tuple[SequenceKind, BuildMethod], tuple] = {
    (SequenceKind.BETA, BuildMethod.COMPLEX_POWER): (_complex_power, "im", 1),
    (SequenceKind.ALPHA, BuildMethod.COMPLEX_POWER): (_complex_power, "re", 0),
}

# These yield polynomials into the prefix cache.
_ROUTES: dict[tuple[SequenceKind, BuildMethod], tuple] = {
    (SequenceKind.BETA, BuildMethod.RECURRENCE): (_three_term, [1], [2]),
    (SequenceKind.MONIC_PI, BuildMethod.MONIC_BERNOULLI): (_monic_bernoulli, _pi_weights),
    (SequenceKind.ALPHA, BuildMethod.MONIC_BERNOULLI): (_monic_bernoulli, _alpha_weights),
    (SequenceKind.P, BuildMethod.DERIVATIVE_RECURRENCE): (_p_derivative,),
}


# The supported (kind, method) pairs are exactly the keys of the three tables.
SUPPORTED_METHODS: dict[SequenceKind, frozenset[BuildMethod]] = {
    kind: frozenset(m for k, m in (*_MEMBERS, *_POWER_ROUTES, *_ROUTES) if k is kind)
    for kind in SequenceKind
}


# Prefix caches of _ROUTES, each (members, generator).  A cache only grows:
# under the lock, build_sequence draws the next members from the generator
# and appends each finished polynomial, so readers outside the lock can
# slice a shared list safely.  A generator that raised is finished, so its
# entry is dropped and the next request starts the route again.
_prefix_cache: dict[tuple[SequenceKind, BuildMethod], tuple[list[Polynomial], Iterator]] = {}
_prefix_lock = threading.Lock()


def _check_pair(kind: SequenceKind, method: BuildMethod, n: int) -> None:
    if method not in SUPPORTED_METHODS[kind]:
        raise UnsupportedPairError(f"no {method.value} construction for kind {kind.value}")
    if method is BuildMethod.MONIC_BERNOULLI and n > MAX_MONIC_BERNOULLI_DEGREE:
        raise ValueError(
            f"the {method.value} route builds n up to MAX_MONIC_BERNOULLI_DEGREE = "
            f"{MAX_MONIC_BERNOULLI_DEGREE}, got {n}; the {BuildMethod.RECURRENCE.value} "
            f"route builds the same members"
        )


def _power_members(key: tuple[SequenceKind, BuildMethod], start: int, stop: int) -> Iterator:
    """Raw members start..stop-1 of a complex-power route."""
    generator, *args = _POWER_ROUTES[key]
    return islice(generator(*args), start, stop)


def build_sequence(
    kind: SequenceKind, n_max: int, method: BuildMethod | None = None
) -> list[Polynomial]:
    """Members 0..n_max of the family, all built by the same method.

    Raises ValueError before any step when the method is ``MONIC_BERNOULLI``
    and n_max exceeds MAX_MONIC_BERNOULLI_DEGREE.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    method = method or DEFAULT_METHOD[kind]
    _check_pair(kind, method, n_max)
    key = (kind, method)
    if key in _MEMBERS:
        return [Polynomial._raw(_MEMBERS[key](n)) for n in range(n_max + 1)]
    if key in _POWER_ROUTES:
        return [_wrap(raw) for raw in _power_members(key, 0, n_max + 1)]
    entry = _prefix_cache.get(key)
    if entry is None or len(entry[0]) <= n_max:
        with _prefix_lock:
            if key not in _prefix_cache:
                generator, *args = _ROUTES[key]
                _prefix_cache[key] = ([], generator(*args))
            entry = members, steps = _prefix_cache[key]
            try:
                # another thread may have grown the prefix since the check
                members.extend(islice(steps, max(n_max + 1 - len(members), 0)))
            except BaseException:
                del _prefix_cache[key]
                raise
    return entry[0][: n_max + 1]


def build(kind: SequenceKind, n: int, method: BuildMethod | None = None) -> Polynomial:
    """Exact member n of the family by the requested construction.

    The binomial routes build member n alone and the complex powers step to
    it without keeping the members before it; the recurrence-style methods
    read member n from the shared prefix cache, which steps forward from its
    last cached member when n is new, and alpha's and pi's recurrence
    routes read beta's recurrence prefix the same way.  Without
    a method this uses ``DEFAULT_METHOD``, the cached routes a growing
    session reuses; every library caller that does not compare routes leaves
    the method out, so this table alone decides its route.
    ``SINGLE_MEMBER_METHOD`` names the fastest route for one member built
    alone.  The ``MONIC_BERNOULLI`` routes, which no default uses, refuse n
    above MAX_MONIC_BERNOULLI_DEGREE with a ValueError.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    method = method or DEFAULT_METHOD[kind]
    _check_pair(kind, method, n)
    key = (kind, method)
    if key in _MEMBERS:
        return Polynomial._raw(_MEMBERS[key](n))
    if key in _POWER_ROUTES:
        return _wrap(next(_power_members(key, n, n + 1)))
    return build_sequence(kind, n, method)[n]


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

CrossRow = tuple[int, BuildMethod, BuildMethod, bool, str]


@dataclass
class CrossValidationReport:
    """Equality results of every supported method against the family's
    first method, which serves as the reference route.

    Each row is (n, reference, method, equal, detail); the detail of a
    failing row names the first coefficient on which its pair differs, and
    is empty when the pair agrees.
    """

    kind: SequenceKind
    n_max: int
    rows: list[CrossRow]

    @property
    def passed(self) -> bool:
        return all(row[3] for row in self.rows)

    @property
    def failure(self) -> CrossRow | None:
        return next((row for row in self.rows if not row[3]), None)

    def summary(self) -> str:
        if self.passed:
            return (
                f"{self.kind.value}: {len(self.rows)} route checks up to "
                f"n={self.n_max}, all equal"
            )
        n, ma, mb, _, detail = self.failure
        return (
            f"{self.kind.value}: MISMATCH at n={n} between {ma.value} and {mb.value}: "
            f"{detail}"
        )


def _first_difference(label_a: str, a: Polynomial, label_b: str, b: Polynomial) -> str:
    k = 0
    while a.coefficient(k) == b.coefficient(k):
        k += 1
    return (
        f"first difference at x^{k}: {label_a} gives {format_rational(a.coefficient(k))}, "
        f"{label_b} gives {format_rational(b.coefficient(k))}"
    )


def cross_validate(kind: SequenceKind, n_max: int) -> CrossValidationReport:
    """Compare every supported method with the first one, for members 0..n_max.

    Equality is transitive, so comparing each route with one reference
    route is the same evidence as comparing every pair.  Every pair is
    compared, so a mismatch hides no later row; it is reported rather than
    raised.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    methods = [m for m in BuildMethod if m in SUPPORTED_METHODS[kind]]
    sequences = {m: build_sequence(kind, n_max, m) for m in methods}
    ma, *others = methods
    rows: list[CrossRow] = []
    for n in range(n_max + 1):
        a = sequences[ma][n]
        for mb in others:
            b = sequences[mb][n]
            equal = a == b
            detail = "" if equal else _first_difference(ma.value, a, mb.value, b)
            rows.append((n, ma, mb, equal, detail))
    return CrossValidationReport(kind, n_max, rows)


# ---------------------------------------------------------------------------
# generating-function verification by series truncation
# ---------------------------------------------------------------------------

def _values_at(kind: SequenceKind, x: Fraction, order: int, method: BuildMethod) -> list:
    """member_n(x) for n < order, from the members ``method`` builds."""
    if kind not in (SequenceKind.BETA, SequenceKind.ALPHA):
        raise ValueError("generating functions are defined for the beta and alpha families")
    return [p.evaluate(x) for p in build_sequence(kind, order - 1, method)]


def verify_ogf(kind: SequenceKind, x: Fraction, order: int) -> bool:
    """Check the closed rational generating function against built members:
    den(z) * sum_k member_k(x) z^k == num(z) mod z^order, with

    beta:  num = 1          alpha: num = 1 - xz,     den = 1 - 2xz + (1+x^2) z^2.

    Expanding num/den is the three-term recurrence itself, so the members
    come from the explicit binomial sums instead.
    """
    if order < 1:
        raise ValueError("order must be positive")
    values = _values_at(kind, x, order, BuildMethod.EXPLICIT)
    den = [1, -2 * x, 1 + x * x]
    num = [1] if kind is SequenceKind.BETA else [1, -x]
    return _row_product(values, den)[:order] == (num + [0] * order)[:order]


def verify_egf(kind: SequenceKind, x: Fraction, order: int) -> bool:
    """Multiply truncated exact Taylor series per the closed forms

    beta:  (cos z + x sin z) e^{xz}        alpha: cos(z) e^{xz}

    and compare n! times the z^n coefficient with member_n(x), n < order,
    built by the three-term recurrence.
    """
    if order < 1:
        raise ValueError("order must be positive")
    inv_fact = [Fraction(1)]
    for k in range(1, order):
        inv_fact.append(inv_fact[-1] / k)
    cos_z = [((-1) ** (k // 2)) * inv_fact[k] if k % 2 == 0 else Fraction(0) for k in range(order)]
    sin_z = [((-1) ** (k // 2)) * inv_fact[k] if k % 2 == 1 else Fraction(0) for k in range(order)]
    exp_xz = [x**k * inv_fact[k] for k in range(order)]
    trig = cos_z if kind is SequenceKind.ALPHA else [c + x * s for c, s in zip(cos_z, sin_z)]
    prod = _row_product(trig, exp_xz)
    values = _values_at(kind, x, order, BuildMethod.RECURRENCE)
    fact = 1
    for n in range(order):
        if n:
            fact *= n
        if prod[n] * fact != values[n]:
            return False
    return True
