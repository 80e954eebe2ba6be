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
weights from a two-term recurrence.  kalmar_tail evaluates a head h and its
whole 1-tail h+1^j (h with j extra exponents 1) in one packed sum: slot j of
the result, B bits wide, is K(h+1^j).  The slots cannot carry into each other
because K(n) <= n^2 and every n is below the bound that sets B.  The champion
search passes tau* of each head in; kalmar_macmahon is the tail-free case.

Everything in this module is exact; no floating point anywhere.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, product
from operator import mul
from typing import TYPE_CHECKING, Iterable, Sequence

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
    "kalmar_tail",
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


@lru_cache(maxsize=256)        # holds every Omega <= 88 of the X20 census
def _weights(om: int) -> tuple[int, ...]:
    """(w[1], ..., w[om]) with w[m] = sum_{j=m}^{om} (-1)^(j-m) C(j, m)."""
    w, c = [1] * om, om + 1               # c = C(om+1, m+1), stepped down
    for m in range(om - 1, 0, -1):
        w[m - 1] = 2 * w[m] + (c if (om - m) % 2 == 0 else -c)
        c = c * (m + 1) // (om + 1 - m)
    return tuple(w)


@lru_cache(maxsize=64)
def _tail_powers(tail: int, bits: int) -> tuple[int, ...]:
    """(Z[1], ..., Z[bits/2 - 1]) with Z[m] = sum_{j<=tail} m^j 2^(bits j)."""
    return tuple(sum(m ** j << bits * j for j in range(tail + 1))
                 for m in range(1, bits // 2))


def kalmar_tail(taus: Sequence[int], om: int, tail: int = 0,
                bound: int = 1) -> list[int]:
    """[K(h), K(h+1), ..., K(h+1^tail)] for a head h with Omega(h) = om,
    where h+1^j is h with j extra exponents 1 on fresh primes.

    taus holds tau*_1..tau*_L of h for some L >= om + tail.  MacMahon's
    K = sum_{m<=W} tau*_m w_W[m] holds for every W >= Omega, since the
    higher differences vanish, and tau*_m(h+1^j) = tau*_m(h) m^j.  So with
    W = om + tail and Z[m] = sum_{j<=tail} m^j 2^(Bj), one sum
    S = sum_m tau*_m(h) w_W[m] Z[m] holds K(h+1^j) in its slot j, bits
    Bj..Bj+B-1; tail = 0 is the single dot product of kalmar_macmahon.

    Every h+1^j must be <= bound, and B = 2 bound.bit_length().  The slots
    then decode exactly, because 0 < K(n) <= n^2 <= bound^2 < 2^B.  Proof of
    K(n) <= n^2, by induction: K(1) = 1, and for n >= 2
    K(n) = sum_{d|n, d<n} K(d) <= sum_{e|n, e>=2} (n/e)^2 <= n^2 (zeta(2) - 1).
    K(1) = 1 is the one case with tau*_0 != 0, so a root (om = 0) gets
    slot 0 set to 1.
    """
    width = om + tail
    if len(taus) < width:
        raise PreconditionError(f"need {width} tau* values, got {len(taus)}")
    w = _weights(width)
    if not tail:
        return [sum(map(mul, taus, w)) if om else 1]
    if width >= bound.bit_length():
        raise PreconditionError(f"no n <= {bound} has Omega = {width}")
    bits = 2 * bound.bit_length()
    s = sum(map(mul, map(mul, taus, w), _tail_powers(tail, bits)))
    mask = (1 << bits) - 1
    out = [(s >> bits * j) & mask for j in range(tail + 1)]
    if not om:
        out[0] = 1
    return out


def kalmar_macmahon(sig: Iterable[int]) -> int:
    """Exact K(n) by MacMahon's formula grouped by m, with tau*_m =
    prod_h C(a_h+m-1, a_h) the ordered m-tuples of factors >= 1 with product n:
    K = sum_{m<=Om} tau*_m w[m],  w[m] = sum_{j=m}^{Om} (-1)^(j-m) C(j, m).
    C(j, m) = C(j+1, m+1) - C(j, m+1) gives w[Om] = 1 and
    w[m] = 2 w[m+1] + (-1)^(Om-m) C(Om+1, m+1): O(Om) terms, cached per Om.
    Raises ResourceLimitError before any work when Om > MACMAHON_MAX_OMEGA."""
    sig = canonical_signature(sig)
    om = sum(sig)
    if om > MACMAHON_MAX_OMEGA:
        raise ResourceLimitError(f"Omega = {om} exceeds cap {MACMAHON_MAX_OMEGA}")
    taus = [1] * om
    for a in set(sig):
        col, c = tau_star_column(a, om), sig.count(a)
        taus = list(map(mul, taus, col if c == 1 else [x ** c for x in col]))
    return kalmar_tail(taus, om)[0]


# cap on Omega for kalmar_macmahon: a cold (1,)*4000 takes ~2 s, (1,)*8000 ~15 s
MACMAHON_MAX_OMEGA = 4096

_MEMO: dict[Signature, int] = {(): 1}
# cap on recursive_steps(sig), a few microseconds a step; Omega <= 12 needs <= 10235
RECURSIVE_MAX_STEPS = 1_000_000
# cap on the entries of _MEMO
RECURSIVE_MAX_MEMO = 4_000_000


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
    if sig not in _MEMO and (steps := recursive_steps(sig)) > RECURSIVE_MAX_STEPS:
        raise ResourceLimitError(
            f"divisor recursion needs {steps} steps, cap {RECURSIVE_MAX_STEPS}")
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


def kalmar_series_bounds(sig: Iterable[int], R: int) -> tuple[Fraction, Fraction]:
    """Exact rational bracket of K(n) from the truncated series
    (1/2) sum_{r<=R} tau_r(n)/2^r.

    Tail bound: tau_r(n) <= r^Om since C(a+r-1, a) = prod_{j<=a} (r-1+j)/j
    <= r^a, and for r > R the terms r^Om/2^r decay at ratio at most
    q = ((R+2)/(R+1))^Om / 2, so the tail is a geometric series once q < 1.
    """
    from fractions import Fraction      # kept off the import path of every query
    sig = canonical_signature(sig)
    om = sum(sig)
    if R < om:
        raise PreconditionError(f"need R >= Omega(sig) = {om}, got {R}")
    q = Fraction(R + 2, R + 1) ** om / 2
    if q >= 1:
        raise PreconditionError(f"R = {R} too small: tail ratio {q} >= 1")
    # one integer sum over the common denominator 2^(R+1): a single gcd
    lower = Fraction(sum(tau_r(sig, r) << (R - r) for r in range(R + 1)), 1 << (R + 1))
    first_omitted = Fraction((R + 1) ** om, 2 ** (R + 1))
    tail = first_omitted / (1 - q) / 2
    return lower, lower + tail


def kalmar_series_exact(sig: Iterable[int]) -> int:
    """K(n) pinned by tightening the series bracket until it holds a single
    integer; independent of the other two methods."""
    sig = canonical_signature(sig)
    om = sum(sig)
    r = max(2 * om + 16, 64)
    while True:
        lo, hi = kalmar_series_bounds(sig, r)
        if math.ceil(lo) == math.floor(hi):
            return math.floor(hi)
        r *= 2


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
