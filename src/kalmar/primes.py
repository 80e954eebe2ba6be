"""Primes for the whole package from one segmented sieve over the odd numbers.

sieve_primes() lists its output, iter_primes() streams it in O(sqrt(limit))
memory, and first_primes() and primes_up_to() read a shared list that grows
by sieving past its end into a new list: a list handed out never changes.
"""

from __future__ import annotations

import bisect
import math
from itertools import chain, compress
from typing import Iterator

from .errors import ResourceLimitError

# Hard ceiling for the sieve; raising it is a config decision, not a bug fix.
MAX_SIEVE = 200_000_000
_SEGMENT = 1 << 14              # odd numbers per segment, 2^15 integers
_TRIAL_BOUND = 1_000_000        # largest trial divisor of factorize

_primes: list[int] = []
_sieved_to: int = 0


def _segments(lo: int, limit: int) -> Iterator[list[int]]:
    """The primes in (lo, limit], one list per segment of _SEGMENT odd
    numbers, struck out by the odd primes up to isqrt(limit)."""
    if limit < 2 or limit <= lo:
        return
    if lo < 2:
        yield [2]
    base = sieve_primes(math.isqrt(limit))[1:]
    for start in range(max(lo + 1, 3) | 1, limit + 1, 2 * _SEGMENT):
        size = min(_SEGMENT, (limit - start) // 2 + 1)
        seg = bytearray(b"\x01") * size           # seg[i] stands for start + 2i
        hi = start + 2 * size - 2
        for p in base:
            if p * p > hi:
                break
            # p q with q odd is the first odd multiple of p at or above p^2 and start
            i = (p * max(p, -(-start // p) | 1) - start) // 2
            seg[i::p] = bytes(len(range(i, size, p)))
        yield list(compress(range(start, hi + 1, 2), seg))


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit in increasing order."""
    return list(chain.from_iterable(_segments(0, limit)))


def iter_primes(limit: int) -> Iterator[int]:
    """All primes <= limit in increasing order, streamed; the capacity check
    runs at the call, before anything is allocated."""
    _check_capacity(limit)
    return chain.from_iterable(_segments(0, limit))


def _check_capacity(limit: int) -> None:
    if limit > MAX_SIEVE:
        raise ResourceLimitError(f"sieve bound {limit} exceeds configured capacity {MAX_SIEVE}")


def _ensure_sieved(limit: int) -> None:
    """Sieve (_sieved_to, limit] onto a copy of the shared list."""
    global _primes, _sieved_to
    if limit <= _sieved_to:
        return
    _check_capacity(limit)
    _primes = [*_primes, *chain.from_iterable(_segments(_sieved_to, limit))]
    _sieved_to = limit


def primes_up_to(limit: int) -> list[int]:
    """Sorted list of all primes <= limit (shared cache; do not mutate)."""
    _ensure_sieved(limit)
    return _primes if limit == _sieved_to else _primes[: bisect.bisect_right(_primes, limit)]


def first_primes(k: int) -> list[int]:
    """The first k primes."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if len(_primes) < k:
        # p_k < k (ln k + ln ln k) for k >= 6 (Rosser 1941), + 1 for rounding; p_5 = 11
        _ensure_sieved(11 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 1)
    return _primes[:k]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24; same bases are a strong
    probable-prime test beyond that (used only to annotate factorizations)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n by trial division up to _TRIAL_BOUND.

    A remainder above _TRIAL_BOUND**2 that is not a probable prime is returned
    as a single composite pseudo-factor; callers that need certainty should
    check is_prime on the parts.
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: list[tuple[int, int]] = []
    for p in primes_up_to(min(_TRIAL_BOUND, math.isqrt(n) + 1)):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return out
