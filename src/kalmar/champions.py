"""Enumeration of K-champion numbers.

Every champion N (each M < N has K(M) < K(N)) is of the form
N = 2^a1 3^a2 ... p_k^ak with a1 >= a2 >= ... >= ak >= 1, so the search
space up to a bound X is the finite set of such candidates.  They are
generated by depth-first backtracking over the prime index, K is attached
exactly, the list is sorted by N, and champions are the strict running
maxima of K.  N = 1 (empty signature, K = 1) is champion rank 1.

Candidate lists can be persisted as one 'signature;N;K' line per candidate
under a header that pins the bound and package version.  The file is replaced
atomically; a stale or unparsable cache is rejected on load.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator

from . import __version__
from .constants import ConstantsTable
from .errors import DomainError, ResourceLimitError
from .exact import kalmar_macmahon, tau_star_column
from .primes import first_primes

__all__ = [
    "Candidate",
    "ChampionRecord",
    "CensusResult",
    "ChampionDiagnostics",
    "LawReport",
    "enumerate_candidates",
    "champions_from_candidates",
    "find_champions",
    "census",
    "champion_stats",
    "verify_champion_laws",
    "save_candidates",
    "load_candidates",
]


@dataclass(frozen=True, slots=True)
class Candidate:
    signature: tuple[int, ...]
    value: int          # N = 2^a1 3^a2 ... p_k^ak
    k_value: int        # K(N)


@dataclass(frozen=True)
class ChampionRecord:
    rank: int
    candidate: Candidate
    omega: int                          # distinct prime factors
    big_omega: int                      # prime factors with multiplicity
    last_exponent: int | None           # a_k; None for N = 1
    p_profile: tuple[tuple[int, int], ...]  # (j, P_j): largest prime with P_j^j | N


def _admissible_primes(x: int) -> list[int]:
    """Primes usable in a candidate <= x: stop once the primorial passes x."""
    ps: list[int] = []
    prod = 1
    k = 1
    while True:
        p = first_primes(k)[-1]
        prod *= p
        if prod > x:
            return ps
        ps.append(p)
        k += 1


def enumerate_candidates(x: int, max_candidates: int = 20_000_000) -> Iterator[Candidate]:
    """All N <= x of champion form, each once, with exact K; not in N-order.

    Each node carries tau*_m = prod_h C(a_h+m-1, a_h) for m = 1..L, where L
    is the largest Omega in its subtree, Omega(node) + max{w : N p_next^w <= x};
    a child multiplies it by the column C(e+m-1, e) of its new exponent e.
    """
    if x < 1:
        raise DomainError("the bound must be >= 1")
    count = 0
    cols: dict[int, list[int]] = {}

    def emit(sig: tuple[int, ...], value: int, taus: list[int]) -> Candidate:
        nonlocal count
        count += 1
        if count > max_candidates:
            raise ResourceLimitError(f"more than {max_candidates} candidates")
        return Candidate(sig, value, kalmar_macmahon(sig, taus))

    top = x.bit_length() - 1                  # max{w : 2^w <= x}
    root = [1] * top
    yield emit((), 1, root)
    primes = _admissible_primes(x)

    def rec(idx: int, value: int, prefix: tuple[int, ...], prev_exp: int,
            taus: list[int]) -> Iterator[Candidate]:
        p = primes[idx]
        q = primes[idx + 1] if idx + 1 < len(primes) else 0
        om = sum(prefix)
        v = value * p
        e = 1
        while e <= prev_exp and v <= x:
            sig = prefix + (e,)
            length = om + e
            t = v * q
            while q and t <= x:
                length += 1
                t *= q
            col = cols.get(e)
            if col is None:
                col = cols[e] = tau_star_column(e, top)
            child = list(map(mul, taus, col[:length]))
            yield emit(sig, v, child)
            if q:
                yield from rec(idx + 1, v, sig, e, child)
            v *= p
            e += 1

    if primes:
        yield from rec(0, 1, (), x.bit_length(), root)


def _record(rank: int, cand: Candidate, primes: list[int]) -> ChampionRecord:
    sig = cand.signature
    profile = tuple(
        (j, primes[sum(1 for a in sig if a >= j) - 1])
        for j in range(1, sig[0] + 1)
    ) if sig else ()
    return ChampionRecord(
        rank=rank,
        candidate=cand,
        omega=len(sig),
        big_omega=sum(sig),
        last_exponent=sig[-1] if sig else None,
        p_profile=profile,
    )


def champions_from_candidates(candidates: Iterable[Candidate]) -> list[ChampionRecord]:
    """Sort by N, keep strict record-setters of K, assign ranks."""
    ordered = sorted(candidates, key=lambda c: c.value)
    if not ordered:
        return []
    primes = first_primes(max((len(c.signature) for c in ordered), default=1) or 1)
    out: list[ChampionRecord] = []
    best = -1
    for cand in ordered:
        if cand.k_value > best:
            best = cand.k_value
            out.append(_record(len(out) + 1, cand, primes))
    return out


def find_champions(x: int, max_candidates: int = 20_000_000) -> list[ChampionRecord]:
    return champions_from_candidates(enumerate_candidates(x, max_candidates))


@dataclass(frozen=True)
class CensusResult:
    bound: int
    candidate_count: int
    champion_count: int
    alpha_gt1_count: int                     # champions (N > 1) with a_k > 1
    largest_alpha_gt1: ChampionRecord | None


def census(x: int, candidates: Iterable[Candidate] | None = None,
           max_candidates: int = 20_000_000) -> CensusResult:
    """Counts over candidates and champions up to x."""
    cands = list(candidates) if candidates is not None \
        else list(enumerate_candidates(x, max_candidates))
    champs = champions_from_candidates(cands)
    gt1 = [r for r in champs if r.last_exponent is not None and r.last_exponent > 1]
    return CensusResult(
        bound=x,
        candidate_count=len(cands),
        champion_count=len(champs),
        alpha_gt1_count=len(gt1),
        largest_alpha_gt1=gt1[-1] if gt1 else None,
    )


@dataclass(frozen=True)
class ChampionDiagnostics:
    rank: int
    log_n: float
    omega_residual: float | None            # (Omega - b log N) / (log N)^delta
    exponent_residuals: tuple[float, ...]   # (a_i - beta_i log N) log p_i / (log N)^delta
    p_profile_ratios: tuple[tuple[int, float], ...]  # P_j / (a log N / j)^(1/rho)
    omega_ratio: float | None               # omega log log N / (rho a^(1/rho) (log N)^(1/rho))


def champion_stats(rec: ChampionRecord, tab: ConstantsTable) -> ChampionDiagnostics:
    """Finite-N residuals of the champion asymptotics; diagnostics only."""
    sig = rec.candidate.signature
    if not sig:
        return ChampionDiagnostics(rec.rank, 0.0, None, (), (), None)
    log_n = math.log(rec.candidate.value)
    scale = log_n ** tab.delta
    primes = first_primes(len(sig))
    exp_resid = tuple(
        (a - tab.a / (p ** tab.rho - 1.0) * log_n) * math.log(p) / scale
        for a, p in zip(sig, primes)
    )
    p_ratios = tuple(
        (j, pj / (tab.a * log_n / j) ** (1.0 / tab.rho))
        for j, pj in rec.p_profile
    )
    omega_ratio = None
    if log_n > 1.0:
        omega_ratio = (rec.omega * math.log(log_n)
                       / (tab.kappa_max * log_n ** (1.0 / tab.rho)))
    return ChampionDiagnostics(
        rank=rec.rank,
        log_n=log_n,
        omega_residual=(rec.big_omega - tab.b * log_n) / scale,
        exponent_residuals=exp_resid,
        p_profile_ratios=p_ratios,
        omega_ratio=omega_ratio,
    )


@dataclass(frozen=True)
class LawReport:
    ok: bool
    violations: tuple[str, ...]


def verify_champion_laws(records: list[ChampionRecord]) -> LawReport:
    """Check N_{i+1} <= 2 N_i, strictly increasing K, non-increasing signatures.

    The doubling law comes from K(2n) > K(n), valid for n >= 2 only, so the
    pair (1, 4) at the head of the list is exempt.
    """
    bad: list[str] = []
    for rec in records:
        sig = rec.candidate.signature
        if any(sig[i] < sig[i + 1] for i in range(len(sig) - 1)):
            bad.append(f"rank {rec.rank}: signature {sig} not non-increasing")
    for prev, cur in zip(records, records[1:]):
        if prev.candidate.value >= 2 and cur.candidate.value > 2 * prev.candidate.value:
            bad.append(f"ranks {prev.rank},{cur.rank}: "
                       f"N ratio {cur.candidate.value / prev.candidate.value:.4f} > 2")
        if cur.candidate.k_value <= prev.candidate.k_value:
            bad.append(f"ranks {prev.rank},{cur.rank}: K did not increase")
    return LawReport(ok=not bad, violations=tuple(bad))


# --- persistence -----------------------------------------------------------

def _header(x: int, count: int) -> str:
    return f"# kalmar-candidates X={x} version={__version__} count={count}"


def save_candidates(path: str, x: int, candidates: list[Candidate]) -> None:
    """Write the cache to a temporary file beside path, then rename it into
    place, so a reader sees the old file or the whole new one."""
    ordered = sorted(candidates, key=lambda c: c.value)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(_header(x, len(ordered)) + "\n")
            for c in ordered:
                sig = ",".join(str(a) for a in c.signature)
                fh.write(f"{sig};{c.value};{c.k_value}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_candidates(path: str, x: int) -> list[Candidate] | None:
    """Sorted candidate list from a cache file, or None if it is missing,
    stale (other bound or version) or fails to parse in any way."""
    expect_prefix = f"# kalmar-candidates X={x} version={__version__} count="
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline().strip()
            if not header.startswith(expect_prefix):
                return None
            count = int(header[len(expect_prefix):])
            out = []
            for line in fh:                 # line by line: the file is not held whole
                sig_s, value_s, k_s = line.rstrip("\n").split(";")
                sig = tuple(int(a) for a in sig_s.split(",")) if sig_s else ()
                out.append(Candidate(sig, int(value_s), int(k_s)))
    except (OSError, ValueError):
        return None
    return out if len(out) == count else None
