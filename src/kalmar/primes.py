"""Prime sieve shared by the whole package.

A single growable Eratosthenes sieve backs first_primes() and primes_up_to();
it is built once per bound and thereafter read-only, so concurrent readers
are safe.
"""

from __future__ import annotations

import bisect
import math
from itertools import compress
from typing import Iterator

from .errors import ResourceLimitError

# Hard ceiling for the sieve; raising it is a config decision, not a bug fix.
MAX_SIEVE = 200_000_000
_SEGMENT = 1 << 18              # numbers per segment of iter_primes
_TRIAL_BOUND = 1_000_000        # largest trial divisor of factorize

_primes: list[int] = []
_sieved_to: int = 0


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit by a bytearray Eratosthenes sieve."""
    if limit < 2:
        return []
    bs = bytearray(b"\x01") * (limit + 1)
    bs[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if bs[p]:
            start = p * p
            bs[start :: p] = b"\x00" * ((limit - start) // p + 1)
    return [i for i, v in enumerate(bs) if v]


def iter_primes(limit: int) -> Iterator[int]:
    """All primes <= limit in increasing order by a segmented sieve, in
    O(sqrt(limit)) memory; the shared prime list is left alone.  The
    capacity check runs at the call, before anything is allocated."""
    _check_capacity(limit)
    return _segmented(limit)


def _check_capacity(limit: int) -> None:
    if limit > MAX_SIEVE:
        raise ResourceLimitError(
            f"sieve bound {limit} exceeds configured capacity {MAX_SIEVE}"
        )


def _segmented(limit: int) -> Iterator[int]:
    base = sieve_primes(math.isqrt(limit))
    yield from base
    for lo in range(math.isqrt(limit) + 1, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)
        seg = bytearray(b"\x01") * (hi - lo)
        for p in base:
            if p * p >= hi:
                break
            start = max(p * p, -(-lo // p) * p) - lo
            seg[start::p] = bytes((hi - lo - 1 - start) // p + 1)
        yield from compress(range(lo, hi), seg)


def _ensure_sieved(limit: int) -> None:
    global _primes, _sieved_to
    if limit <= _sieved_to:
        return
    _check_capacity(limit)
    _primes = sieve_primes(limit)
    _sieved_to = limit


def primes_up_to(limit: int) -> list[int]:
    """Sorted list of all primes <= limit (shared cache; do not mutate)."""
    _ensure_sieved(limit)
    if limit == _sieved_to:
        return _primes
    return _primes[: bisect.bisect_right(_primes, limit)]


def first_primes(k: int) -> list[int]:
    """The first k primes."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if len(_primes) < k:
        # p_k < k (log k + log log k) for k >= 6
        bound = 100 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 10
        while True:
            _ensure_sieved(bound)
            if len(_primes) >= k:
                break
            bound = min(bound * 2, MAX_SIEVE)
            if bound == _sieved_to:
                raise ResourceLimitError(f"cannot reach {k} primes within sieve capacity")
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
