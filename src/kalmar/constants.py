"""Riemann zeta on the real axis and the analytic constants it induces.

The central objects: rho, the root > 1 of zeta(s) = 2; its finite-Euler-product
analogues rho_k with zeta_k(rho_k) = 2; the scale a = 1/L'(rho) where
L'(s) = sum_p log p / (p^s - 1); and the champion-model constants

    beta_i = a / (p_i^rho - 1),   b = sum beta_i,
    T0 = sum_p p^(-rho),          B0 = sqrt(2 a / T0),
    delta = (1 + 1/rho) / 2,      mu = delta - 1/rho,
    kappa_max = rho * a**(1/rho).

zeta and zeta' are evaluated by Euler-Maclaurin summation; no remainder
bound is computed (the first omitted term is far below float rounding on
1 < s <= 4, see zeta).  The infinite prime sums are evaluated through zeta:
L'(rho) = -zeta'(rho)/zeta(rho) exactly, and sum_p p^(-s) by the Moebius /
log-zeta series, which is far more accurate than any practical sieve
truncation.  A sieve + integral-tail evaluation is kept as an independent
cross-check (see prime_sum_check).
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import add
from typing import NamedTuple

from .errors import ConvergenceError, DomainError
from .primes import first_primes, iter_primes

__all__ = [
    "ConstantsTable",
    "TruncatedConstants",
    "zeta",
    "zeta_truncated",
    "solve_rho",
    "lagrange_scale",
    "prime_zeta",
    "model_constants",
    "truncated_constants",
    "prime_sum_check",
    "rho_gap_coefficient",
]

INFINITE = "infinite"
LOG2 = math.log(2.0)

# B_2, B_4, ..., B_24; int / int is correctly rounded, as float(Fraction) is
_BERNOULLI = [
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
    43867 / 798, -174611 / 330, 854513 / 138, -236364091 / 2730,
]
_B2J = [b / math.factorial(2 * (j + 1)) for j, b in enumerate(_BERNOULLI)]


def _zeta_em(s: float) -> tuple[float, float]:
    """Euler-Maclaurin value and derivative of zeta at real s > 1."""
    n = 64                               # terms summed directly
    val = 1.0
    der = 0.0
    for m in range(2, n):
        t = m ** -s
        val += t
        der -= math.log(m) * t
    ln_n = math.log(n)
    n_pow = n ** -s                      # N^(-s)
    tail = n * n_pow / (s - 1.0)         # N^(1-s)/(s-1)
    val += tail + 0.5 * n_pow
    der += -ln_n * tail - tail / (s - 1.0) - 0.5 * ln_n * n_pow
    # correction terms B_2j/(2j)! * (s)_(2j-1) * N^(-s-2j+1)
    poch = s                             # rising factorial s(s+1)...(s+2j-2)
    hsum = 1.0 / s                       # sum of 1/(s+i) over the same factors
    npow = n_pow / n                     # N^(-s-2j+1) at j=1
    for j, coef in enumerate(_B2J):
        term = coef * poch * npow
        val += term
        der += term * (hsum - ln_n)
        m = 2 * j + 1
        poch *= (s + m) * (s + m + 1)
        hsum += 1.0 / (s + m) + 1.0 / (s + m + 1)
        npow /= n * n
    return val, der


def zeta(s: float) -> float:
    """zeta(s) for real s > 1 by Euler-Maclaurin summation with 64 terms;
    the remainder is far below float rounding on 1 < s <= 4.  The value
    only: solve_rho and lagrange_scale read zeta and zeta' together from
    _zeta_em, which computes both in one pass.
    """
    if s <= 1.0:
        raise DomainError(f"zeta evaluated at s={s}; need s > 1")
    # remainder of the j-sum is below the first omitted term; N=64 leaves it
    # around 1e-40 on (1,4], so float rounding dominates
    return _zeta_em(s)[0]


def zeta_truncated(s: float, k: int) -> float:
    """Euler product over the first k primes: prod (1 - p^(-s))^(-1), s > 0."""
    if s <= 0.0:
        raise DomainError(f"zeta_truncated needs s > 0, got {s}")
    if k < 1:
        raise DomainError("k must be >= 1")
    out = 1.0
    for p in first_primes(k):
        out /= 1.0 - math.exp(-s * math.log(p))
    return out


def _lk_prime(s: float, logs: list[float]) -> float:
    """L_k'(s) = sum over the first k primes of log p / (p^s - 1); logs holds
    their log p.  A left fold: from Python 3.12, sum() of floats compensates."""
    out = 0.0
    for lp in logs:
        out += lp / (math.exp(s * lp) - 1.0)
    return out


# The climb took at most 8 steps on every c, rho and rho_k measured; the
# cap only turns a function that breaks the preconditions into an error.
_NEWTON_MAX_STEPS = 64


def _newton_left(fg, x0: float) -> float:
    """Root of a decreasing convex f by Newton's method from x0 left of it;
    fg(x) returns (f(x), f'(x)).

    From any point with f >= 0 a Newton step moves right and, by convexity,
    lands at or left of the root, so the iterates climb to it without a
    bracket.  The climb stops at the first step that no longer moves right:
    the root is reached to rounding.  Raises ConvergenceError when f(x0) < 0
    or when the step cap is reached.
    """
    x, (fx, dx) = x0, fg(x0)
    if not fx >= 0.0:
        raise ConvergenceError(f"Newton start {x0} is not left of the root: f = {fx}")
    for _ in range(_NEWTON_MAX_STEPS):
        nxt = x - fx / dx
        if not nxt > x:
            return x
        x, (fx, dx) = nxt, fg(nxt)
    raise ConvergenceError(f"Newton did not settle in {_NEWTON_MAX_STEPS} steps from {x0}")


@lru_cache(maxsize=None)
def solve_rho(k: int | str = INFINITE) -> float:
    """The unique root of zeta_k(s) = 2 (or zeta(s) = 2 for k='infinite').

    Newton on log zeta_k(s) - log 2, which decreases and is convex in s,
    from s = 1, where zeta_k(1) = prod p/(p-1) >= 2 (equality at k = 1, so
    rho_1 = 1 exactly); for zeta itself from s = 1.5, where zeta ~ 2.61.
    The climb stops when a step no longer moves right (see _newton_left).
    """
    if k == INFINITE:
        def fg(s):
            val, der = _zeta_em(s)
            return math.log(val) - LOG2, der / val
        return _newton_left(fg, 1.5)
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"k must be a positive integer or 'infinite', got {k!r}")
    logs = [math.log(p) for p in first_primes(k)]
    # log zeta_k(s) = -sum log(1 - p^(-s)); its derivative is -L_k'(s)
    return _newton_left(
        lambda s: (-math.fsum(math.log1p(-math.exp(-s * lp)) for lp in logs) - LOG2,
                   -_lk_prime(s, logs)),
        1.0,
    )


@lru_cache(maxsize=None)
def lagrange_scale(k: int | str = INFINITE) -> float:
    """a_k = 1/L_k'(rho_k); for k='infinite', a = 1/L'(rho).

    The infinite sum is not truncated: L'(s) = sum_p log p/(p^s - 1) equals
    -zeta'(s)/zeta(s), so a = -2/zeta'(rho) since zeta(rho) = 2.
    """
    if k == INFINITE:
        rho = solve_rho(INFINITE)
        return -2.0 / _zeta_em(rho)[1]
    return 1.0 / _lk_prime(solve_rho(k), [math.log(p) for p in first_primes(k)])


def _moebius(n: int) -> int:
    m = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            m = -m
        d += 1
    if n > 1:
        m = -m
    return m


def prime_zeta(s: float) -> float:
    """sum over primes of p^(-s), s > 1, via sum_d mu(d)/d * log zeta(d s)."""
    if s <= 1.0:
        raise DomainError(f"prime_zeta needs s > 1, got {s}")
    if s >= 30.0:
        return reduce(add, (p ** -s for p in (2, 3, 5, 7, 11, 13)), 0.0)   # left fold, see _lk_prime
    out = 0.0
    d = 1
    while d * s < 60.0:
        mu = _moebius(d)
        if mu:
            out += mu / d * math.log(zeta(d * s))
        d += 1
    return out


def rho_gap_coefficient() -> float:
    """2/((-zeta'(rho)) (rho - 1)) = a/(rho - 1), the rate constant of rho - rho_k."""
    return lagrange_scale(INFINITE) / (solve_rho(INFINITE) - 1.0)


class ConstantsTable(NamedTuple):
    rho: float          # root of zeta(s) = 2
    a: float            # 1/L'(rho)
    b: float            # sum of beta_i
    T0: float           # sum_p p^(-rho)
    B0: float           # sqrt(2 a / T0)
    delta: float        # (1 + 1/rho)/2
    mu: float           # delta - 1/rho
    kappa_max: float    # rho * a**(1/rho)
    precision: float    # stated absolute error of the entries above; tested
                        # against mpmath, not proven

    def beta_profile(self, k: int) -> tuple[float, ...]:
        """(beta_1, ..., beta_k) with beta_i = a / (p_i^rho - 1)."""
        return tuple(self.a / (p ** self.rho - 1.0) for p in first_primes(k))


class TruncatedConstants(NamedTuple):
    k: int
    rho_k: float
    a_k: float


@lru_cache(maxsize=None)
def model_constants() -> ConstantsTable:
    """Evaluate the full constants table.

    b = a * sum_p 1/(p^rho - 1) = a * sum_{m>=1} prime_zeta(m rho); the series
    terminates once prime_zeta(m rho) ~ 2^(-m rho) drops below 1e-17.
    """
    rho = solve_rho(INFINITE)
    a = lagrange_scale(INFINITE)
    t0 = prime_zeta(rho)
    s = 0.0
    m = 1
    while True:
        term = prime_zeta(m * rho)
        s += term
        if term < 1e-17:
            break
        m += 1
    b = a * s
    delta = 0.5 * (1.0 + 1.0 / rho)
    return ConstantsTable(
        rho=rho,
        a=a,
        b=b,
        T0=t0,
        B0=math.sqrt(2.0 * a / t0),
        delta=delta,
        mu=delta - 1.0 / rho,
        kappa_max=rho * a ** (1.0 / rho),
        precision=1e-10,
    )


def truncated_constants(k: int) -> TruncatedConstants:
    return TruncatedConstants(k=k, rho_k=solve_rho(k), a_k=lagrange_scale(k))


def prime_sum_check(sieve_bound: int) -> dict[str, tuple[float, float]]:
    """Independent sieve evaluation of the three infinite prime sums.

    Sums primes up to sieve_bound and adds a prime-number-theorem integral
    tail (two-term expansion).  Returns {name: (value, tail_error_estimate)}
    for inv_a = sum log p/(p^rho - 1), b_sum = sum 1/(p^rho - 1), T0.
    The tail estimate's own uncertainty is of order tail/( (rho-1) log P ).
    """
    primes = iter_primes(sieve_bound)     # streamed; over capacity raises here
    rho = solve_rho(INFINITE)
    inv_a = 0.0
    b_sum = 0.0
    t0 = 0.0
    for p in primes:
        lp = math.log(p)
        q = math.exp(rho * lp)
        inv_a += lp / (q - 1.0)
        b_sum += 1.0 / (q - 1.0)
        t0 += 1.0 / q
    big_p = float(sieve_bound)
    log_big_p = math.log(big_p)
    # density of primes ~ dt/log t; for inv_a the log p weight cancels it
    base = big_p ** (1.0 - rho) / (rho - 1.0)
    cor = 1.0 / ((rho - 1.0) * log_big_p)   # second term of the 1/log t expansion
    inv_a_tail = base
    weighted_tail = base / log_big_p * (1.0 - cor)
    return {
        "inv_a": (inv_a + inv_a_tail, inv_a_tail * cor),
        "b_sum": (b_sum + weighted_tail, weighted_tail * cor),
        "T0": (t0 + weighted_tail, weighted_tail * cor),
    }
