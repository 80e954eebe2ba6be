"""Exact evaluation of the Kalmar function K(n) over arbitrary-precision ints.

K(n) counts ordered factorizations n = x_1 x_2 ... x_r with every x_i >= 2,
summed over all r, with K(1) = 1.  It depends only on the prime signature of
n (the multiset of exponents), which is the sole input type here: a tuple of
positive integers sorted non-increasing, () standing for n = 1.

Three independent methods are provided and must agree everywhere:

  * kalmar_macmahon   - MacMahon's closed formula (the workhorse),
  * kalmar_recursive  - the divisor recursion K(n) = sum_{d|n, d>=2} K(n/d),
  * kalmar_series_bounds - exact rational bracketing of the Dirichlet-series
    expansion K(n) = (1/2) sum_r tau_r(n)/2^r.

MacMahon's formula is one weighted sum of the vector tau*_m, m <= Omega, with
weights from a two-term recurrence; kalmar_macmahon is the single-query
kernel.  The champion census never sums: a head h carries the vector
V[k] = K(h+1^k) (h with k extra exponents 1 on fresh primes), and
kalmar_powers, the rising-factorial shift, gives the vectors of its
children h+e from V in one short pass each.  Only the census root's vector
is seeded by kalmar_macmahon.

Everything in this module is exact; no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, product, repeat
from operator import add, floordiv, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import KalmarError, PreconditionError, ResourceLimitError
from .primes import _TRIAL_BOUND, factorize, is_prime

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Signature",
    "canonical_signature",
    "signature_of",
    "tau_r",
    "tau_star_column",
    "kalmar_powers",
    "kalmar_macmahon",
    "kalmar_recursive",
    "kalmar_series_bounds",
    "kalmar_series_exact",
    "kp_multinomial",
    "signatures_with_omega",
    "eulerian_row",
    "eulerian_checksum",
]

Signature = tuple[int, ...]


def canonical_signature(exponents: Iterable[int]) -> Signature:
    """Sorted non-increasing tuple of positive exponents; zeros are dropped."""
    sig = tuple(sorted((int(e) for e in exponents if e != 0), reverse=True))
    if sig and sig[-1] < 1:
        raise PreconditionError(f"signature entries must be >= 1, got {sig}")
    return sig


def signature_of(n: int) -> Signature:
    """Prime signature of a positive integer.  factorize returns a cofactor
    above _TRIAL_BOUND**2 that it cannot split as one part, so such a part
    that is not prime raises ResourceLimitError; every smaller part is prime."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    parts = factorize(n)
    for p, _ in parts:
        if p > _TRIAL_BOUND**2 and not is_prime(p):
            raise ResourceLimitError(f"cannot factor {n}: the cofactor {p} is not prime")
    return canonical_signature(e for _, e in parts)


def tau_star_column(a: int, length: int) -> list[int]:
    """[C(a+m-1, a) for m = 1..length]: tau*_m of one prime power p^a."""
    col = [1] * length
    for m in range(1, length):
        col[m] = col[m - 1] * (a + m) // m
    return col


# holds every Omega <= 154 that the census root seed asks for up to MAX_BOUND
@lru_cache(maxsize=256)
def _weights(om: int) -> tuple[int, ...]:
    """(w[1], ..., w[om]) with w[m] = sum_{j=m}^{om} (-1)^(j-m) C(j, m)."""
    w, c = [1] * om, om + 1               # c = C(om+1, m+1), stepped down
    for m in range(om - 1, 0, -1):
        w[m - 1] = 2 * w[m] + (c if (om - m) % 2 == 0 else -c)
        c = c * (m + 1) // (om + 1 - m)
    return tuple(w)


def kalmar_powers(ks: Sequence[int], rooms: Sequence[int]) -> list[list[int]]:
    """The vectors [K(h+e+1^j) for j <= rooms[e-2]] of the children h+e,
    e = 2, 3, ..., len(rooms) + 1, from ks[k] = K(h+1^k) of a head h.

    Proof.  K(n) = sum_{m>=0} tau_m(n) / 2^(m+1), where tau_m(n) counts the
    ordered m-tuples of factors >= 1 with product n, and tau_m is
    multiplicative with tau_m(p^a) = C(m+a-1, a).  Let
    L(f) = sum_{m>=0} tau_m(h) f(m) / 2^(m+1) for a polynomial f, a linear
    map.  A fresh prime multiplies tau_m by m, so ks[k] = L(m^k) (with
    0^0 = 1: tau_0(h) = [h = 1]).  So the shift (S V)[k] = V[k+1]
    multiplies f by m, and S + c multiplies it by m + c.  A new prime power
    p^e multiplies tau_m by C(m+e-1, e) = m(m+1)...(m+e-1) / e!, so
    K(h+e+1^j) = (S(S+1)...(S+e-1) ks)[j] / e!, an exact division.  The
    siblings share one running product: U_1 = S ks, U_e = (S+e-1) U_{e-1},
    one pass U[k+1] + (e-1) U[k] each.  U_e[j] reads ks up to index e + j,
    so ks needs max(e + rooms[e-2]) + 1 entries; fewer raise
    PreconditionError.
    """
    need = max(map(add, rooms, range(2, len(rooms) + 2)), default=0) + 1
    if need > len(ks) or min(rooms, default=0) < 0:
        raise PreconditionError(f"need rooms >= 0 and {need} K values, got "
                                f"rooms {list(rooms)} and {len(ks)} values")
    out = []
    u = ks[1:need]                                      # S ks
    f = 1                                               # e!
    for e, r in enumerate(rooms, 2):
        u = list(map(add, u[1:], map(mul, u, repeat(e - 1))))   # (S + e-1) U
        f *= e
        out.append(list(map(floordiv, u[:r + 1], repeat(f))))
    return out


def kalmar_macmahon(sig: Iterable[int]) -> int:
    """Exact K(n) by MacMahon's formula grouped by m, with tau*_m =
    prod_h C(a_h+m-1, a_h) the ordered m-tuples of factors >= 1 with product n:
    K = sum_{m<=Om} tau*_m w[m],  w[m] = sum_{j=m}^{Om} (-1)^(j-m) C(j, m).
    C(j, m) = C(j+1, m+1) - C(j, m+1) gives w[Om] = 1 and
    w[m] = 2 w[m+1] + (-1)^(Om-m) C(Om+1, m+1): O(Om) terms, cached per Om.
    Raises ResourceLimitError before any work when Om > MACMAHON_MAX_OMEGA."""
    sig = canonical_signature(sig)
    refuse_macmahon(sig)
    om = sum(sig)
    taus = [1] * om
    for a in set(sig):
        col, c = tau_star_column(a, om), sig.count(a)
        taus = list(map(mul, taus, col if c == 1 else [x ** c for x in col]))
    return sum(map(mul, taus, _weights(om))) if om else 1


# cap on Omega for kalmar_macmahon: a cold (1,)*4000 takes ~2 s, (1,)*8000 ~15 s
MACMAHON_MAX_OMEGA = 4096
# cap on Omega for kalmar_series_exact: (1,)*933 takes ~0.8 s, the witness at Omega 933 ~0.5 s
SERIES_MAX_OMEGA = 1000

_MEMO: dict[Signature, int] = {(): 1}
# cap on recursive_steps(sig), a few microseconds a step; Omega <= 12 needs <= 10235
RECURSIVE_MAX_STEPS = 1_000_000
# cap on the entries of _MEMO
RECURSIVE_MAX_MEMO = 4_000_000


# The up-front refusals of the three methods, one per cap; each takes a
# canonical signature.  kalmar k --check runs all three before any method.
def refuse_macmahon(sig: Signature) -> None:
    if (om := sum(sig)) > MACMAHON_MAX_OMEGA:
        raise ResourceLimitError(f"Omega = {om} exceeds cap {MACMAHON_MAX_OMEGA}")


def refuse_recursive(sig: Signature) -> None:
    if sig not in _MEMO and (steps := recursive_steps(sig)) > RECURSIVE_MAX_STEPS:
        raise ResourceLimitError(
            f"divisor recursion needs {steps} steps, cap {RECURSIVE_MAX_STEPS}")


def refuse_series(sig: Signature) -> None:
    if (om := sum(sig)) > SERIES_MAX_OMEGA:
        raise ResourceLimitError(f"Omega = {om} exceeds cap {SERIES_MAX_OMEGA}")


def recursive_steps(sig: Signature) -> int:
    """Inner-loop steps of kalmar_recursive(sig) from an empty memo: memo entry
    b (non-increasing, zero-padded, b <= sig) takes prod (b_i + 1) of them."""
    g = [1]                       # g[v]: steps of the tails that start at v
    for a in reversed(sig):
        pre = list(accumulate(g))
        g = [(v + 1) * pre[min(v, len(pre) - 1)] for v in range(a + 1)]
    return sum(g) - 1                         # () is memoized from the start


def kalmar_recursive(sig: Iterable[int]) -> int:
    """Exact K(n) by the divisor recursion, memoized on canonical signatures.

    Divisors of the signature are exponent sub-vectors, re-canonicalized; the
    memo key collapses the divisor lattice by permutation symmetry.  Raises
    ResourceLimitError before any work when recursive_steps(sig) exceeds
    RECURSIVE_MAX_STEPS, and when the memo would pass RECURSIVE_MAX_MEMO.
    """
    sig = canonical_signature(sig)
    refuse_recursive(sig)
    return _krec(sig)


def _krec(sig: Signature) -> int:
    got = _MEMO.get(sig)
    if got is not None:
        return got
    if len(_MEMO) >= RECURSIVE_MAX_MEMO:
        raise ResourceLimitError(f"recursion memo exceeded {RECURSIVE_MAX_MEMO} entries")
    total = 0
    for sub in product(*(range(a + 1) for a in sig)):
        if sum(sub) == sum(sig):          # sub == sig: the divisor d = 1
            continue
        total += _krec(canonical_signature(sub))
    _MEMO[sig] = total
    return total


def tau_r(sig: Iterable[int], r: int) -> int:
    """Number of ordered r-tuples of factors >= 1 with product n.

    Multiplicative: tau_r(p^a) = C(a+r-1, a).  tau_0 = [n == 1], tau_1 = 1.
    """
    if r < 0:
        raise PreconditionError("r must be >= 0")
    out = 1
    for a in canonical_signature(sig):
        out *= math.comb(a + r - 1, a)
    return out


def _series_brackets(sig: Signature, R: int) -> Iterator[tuple[Fraction, Fraction]]:
    """Exact brackets of K(n) from (1/2) sum_{r<=R} tau_r(n)/2^r and a tail
    bound, at the cut-offs R, 2R, 4R, ...  The partial sum is one integer,
    sum_{r<=R} tau_r 2^(R-r), extended in place when R doubles; tau_r is
    prod_a C(a+r-1, a)^c over the distinct exponents a of multiplicity c,
    each binomial stepped in r.  The tail: tau_r(n) <= r^Om since
    C(a+r-1, a) = prod_{j<=a} (r-1+j)/j <= r^a, and for r > R the terms
    r^Om/2^r decay at ratio at most q = ((R+2)/(R+1))^Om / 2, so the tail
    is a geometric series once q < 1."""
    from fractions import Fraction      # kept off the import path of every query
    om = sum(sig)
    mult = [(a, sig.count(a)) for a in set(sig)]
    binoms = [1] * len(mult)            # C(a+r-1, a) at r = 1
    total = 0 if sig else 1             # tau_0 = [n == 1]
    r = 0
    while True:
        if (q := Fraction(R + 2, R + 1) ** om / 2) >= 1:
            raise PreconditionError(f"R = {R} too small: tail ratio {q} >= 1")
        for r in range(r + 1, R + 1):
            total = 2 * total + math.prod(b ** c for (_, c), b in zip(mult, binoms))
            binoms = [b * (a + r) // r for (a, _), b in zip(mult, binoms)]
        lower = Fraction(total, 1 << (R + 1))
        yield lower, lower + Fraction((R + 1) ** om, 1 << (R + 1)) / (1 - q) / 2
        R *= 2


def kalmar_series_bounds(sig: Iterable[int], R: int) -> tuple[Fraction, Fraction]:
    """The series bracket of K(n) at the cut-off R (see _series_brackets)."""
    sig = canonical_signature(sig)
    if R < (om := sum(sig)):
        raise PreconditionError(f"need R >= Omega(sig) = {om}, got {R}")
    return next(_series_brackets(sig, R))


def kalmar_series_exact(sig: Iterable[int]) -> int:
    """K(n) pinned by doubling the series cut-off until the bracket holds a
    single integer; independent of the other two methods.  Raises
    ResourceLimitError before any work when Om > SERIES_MAX_OMEGA."""
    sig = canonical_signature(sig)
    refuse_series(sig)
    for lo, hi in _series_brackets(sig, max(2 * sum(sig) + 16, 64)):
        if math.ceil(lo) == math.floor(hi):
            return math.floor(hi)


def kp_multinomial(sig: Iterable[int]) -> int:
    """Ordered factorizations into primes: the multinomial Om! / prod a_i!."""
    sig = canonical_signature(sig)
    return math.factorial(sum(sig)) // math.prod(math.factorial(a) for a in sig)


def signatures_with_omega(om: int, max_part: int | None = None):
    """All canonical signatures with Omega == om (integer partitions)."""
    if om == 0:
        yield ()
        return
    if max_part is None:
        max_part = om
    for first in range(min(om, max_part), 0, -1):
        for rest in signatures_with_omega(om - first, first):
            yield (first,) + rest


def eulerian_row(n: int) -> list[int]:
    """Row n of the Eulerian triangle: A(n, k) for k = 0..n-1."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    row = [1]
    for m in range(2, n + 1):     # A(m,k) = (k+1) A(m-1,k) + (m-k) A(m-1,k-1)
        row = [(k + 1) * x + (m - k) * y
               for k, (x, y) in enumerate(zip(row + [0], [0] + row))]
    return row


def eulerian_checksum(n: int) -> tuple[int, int]:
    """Check sum_k A(n,k) 2^k == K(q_1 q_2 ... q_n) for n distinct primes.

    Returns (lhs, rhs); raises if they differ (they never should).
    """
    if not 1 <= n <= 200:
        raise PreconditionError("n must be in 1..200")
    lhs = sum(a << k for k, a in enumerate(eulerian_row(n)))
    rhs = kalmar_macmahon((1,) * n)
    if lhs != rhs:
        raise KalmarError(f"Eulerian identity failed at n={n}: {lhs} != {rhs}")
    return lhs, rhs
