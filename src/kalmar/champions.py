"""Enumeration of K-champion numbers.

Every champion N (each M < N has K(M) < K(N)) is of the form
N = 2^a1 3^a2 ... p_k^ak with a1 >= a2 >= ... >= ak >= 1, so the search
space up to a bound X is the finite set of such candidates.  They are
generated depth-first over the prime index, and K is attached exactly.
Every candidate is a head (N = 1, or last exponent >= 2) followed by j >= 0
exponents 1 on the next primes, its 1-tail; one packed sum gives K for a
head and its whole 1-tail (exact.kalmar_tail, whose slots are 2 bits(X)
wide because K(n) <= n^2).  Champions are the strict running maxima of K
in N-order.  N = 1 (empty signature, K = 1) is champion rank 1.  A
Candidate keeps its signature as bytes, one exponent per byte, so a held
list of them costs about 190 bytes per candidate at X20 (244 with tuple
signatures).  Only a caller that holds the list sees this; the census
below streams and is within a megabyte either way.

The enumeration is one walk over the first-level subtrees (all candidates
with the same a1).  From x = FORK_MIN_BOUND on, an optional forked worker
walks every other one and sends each back whole over a pipe, and the walk
yields it in its place: the stream, its order included, is the same with
or without the worker.  The bounds kalmar verify enumerates stay serial.

The census is one streaming pass: it counts the candidates and keeps only
those whose K exceeds every K seen at a smaller bit length, which every
record does; it never holds the whole candidate list.  The census can be
persisted as one 'signature;N;K' line per record under a header that
pins the bound, the package version, the candidate count and a digest of the
body.  The file is replaced atomically; on load every record is rechecked,
and a stale, unparsable or failing cache loads as a miss.
"""

from __future__ import annotations

import errno
import marshal
import math
import os
import sys
from operator import mul
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple

from . import __version__
from .errors import DomainError, ResourceLimitError
from .exact import kalmar_macmahon, kalmar_tail, tau_star_column
from .primes import first_primes

if TYPE_CHECKING:
    from .constants import ConstantsTable

__all__ = [
    "Candidate",
    "ChampionRecord",
    "CensusResult",
    "ChampionDiagnostics",
    "LawReport",
    "enumerate_candidates",
    "champions_from_candidates",
    "find_champions",
    "candidate_census",
    "census",
    "census_from_records",
    "champion_stats",
    "verify_champion_laws",
    "save_candidates",
    "load_candidates",
]


class Candidate:
    """A champion-form N with its signature and exact K(N).

    A plain slots class, not a NamedTuple: the census holds one per
    candidate, and a tuple of three costs 16 bytes more than three slots.
    The signature is stored as bytes, one exponent per byte: 33 bytes plus
    one per prime, where a tuple costs 40 plus eight per prime, and bytes
    are not tracked by the garbage collector.  A signature with an exponent
    of 256 or more stays a tuple.  .signature always reads as a tuple, and
    equality, hashing and repr are over (signature, value, k_value).
    """

    __slots__ = ("_sig", "value", "k_value")

    def __init__(self, signature: tuple[int, ...] | bytes, value: int, k_value: int) -> None:
        try:
            self._sig = bytes(signature)     # a bytes argument is returned as is
        except ValueError:                   # an exponent >= 256
            self._sig = tuple(signature)
        self.value = value          # N = 2^a1 3^a2 ... p_k^ak
        self.k_value = k_value      # K(N)

    @property
    def signature(self) -> tuple[int, ...]:
        return tuple(self._sig)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.signature, self.value, self.k_value) == \
            (other.signature, other.value, other.k_value)

    def __hash__(self) -> int:
        return hash((self.signature, self.value, self.k_value))

    def __repr__(self) -> str:
        return (f"Candidate(signature={self.signature!r}, value={self.value!r}, "
                f"k_value={self.k_value!r})")


class ChampionRecord(NamedTuple):
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


# cap on the candidates of one enumeration; the worker counts its share too
MAX_CANDIDATES = 20_000_000

# The smallest bound at which enumerate_candidates forks a worker.  Below it
# the fork and the frames cost about what the worker's half of the walk
# saves: on a 2-vCPU host, medians of 30 alternating in-process walks were
# 9.6 ms serial against 10.4 ms forked at 10^10 (1 962 candidates), and
# 19.8 against 16.4 ms at 10^11 (2 958).
FORK_MIN_BOUND = 10**11


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def enumerate_candidates(x: int) -> Iterator[Candidate]:
    """All N <= x of champion form, each once, with exact K; not in N-order.

    The order is depth-first pre-order over the prime index.  A node whose
    last exponent is 1 has no child but its own extension by 1, so every
    candidate is h+1^j, j >= 0, for a head h: the root or a node whose last
    exponent is >= 2.  Only heads are walked, from an explicit stack: a head
    yields itself and its 1-tail, with K from one packed sum (kalmar_tail),
    and then its children h+e, e >= 2, follow.  A head carries
    tau*_m = prod_h C(a_h+m-1, a_h) for m = 1..L, where L is the largest
    Omega in its subtree, Omega(head) + max{w : N p_next^w <= x}; a child
    multiplies it by the column C(e+m-1, e) of its new exponent e.

    One loop yields the root's block, then each first-level subtree (the
    candidates with the same a_1) in turn.  From x = FORK_MIN_BOUND on, a
    worker may walk every other one (a_1 = 3, 5, 7, ...; see _fork), and
    the loop takes those whole from it: the items and their order are the
    same either way.  Past MAX_CANDIDATES candidates it raises
    ResourceLimitError.
    """
    if x < 1:
        raise DomainError("the bound must be >= 1")
    primes = _admissible_primes(x)
    top = x.bit_length() - 1                  # max{w : 2^w <= x}
    kind = bytes if top < 256 else tuple      # no exponent reaches 256 below 2^256
    ones = [kind((1,) * j) for j in range(len(primes) + 1)]
    cols: dict[int, list[int]] = {}

    def expand(head):
        """(signatures, N, K) of a head and its 1-tail, and its child heads."""
        value, sig, om, taus, length = head
        idx = len(sig)                        # primes[idx] is the next prime
        if sig:
            e = sig[-1]
            col = cols.get(e)
            if col is None:
                col = cols[e] = tau_star_column(e, top)
            taus = list(map(mul, taus, col[:length]))
        values = [value]
        for p in primes[idx:]:
            if values[-1] * p > x:
                break
            values.append(values[-1] * p)
        ks = kalmar_tail(taus, om, len(values) - 1, x)
        sigs = [sig + t for t in ones[:len(values)]]
        heads = []
        if idx == len(primes):
            return sigs, values, ks, heads
        p = primes[idx]
        q = primes[idx + 1] if idx + 1 < len(primes) else 0
        v = value * p * p
        e = 2
        while e <= (sig[-1] if sig else top) and v <= x:
            length = om + e
            t = v * q
            while q and t <= x:
                length += 1
                t *= q
            heads.append((v, sig + kind((e,)), om + e, taus, length))
            v *= p
            e += 1
        return sigs, values, ks, heads

    def subtree(head):
        """(signatures, N, K) per head below and at head, in DFS pre-order."""
        stack = [head]
        while stack:
            sigs, values, ks, heads = expand(stack.pop())
            yield sigs, values, ks
            stack.extend(reversed(heads))

    # a head: N, signature, Omega, its parent's tau*, its L
    *block, heads = expand((1, kind(), 0, [1] * top, top))
    count = 0
    worker = _fork(heads, subtree) if x >= FORK_MIN_BOUND else None
    try:
        for i in range(-1, len(heads)):
            if i < 0:
                blocks = [block]
            elif worker and i % 2:
                blocks = [_receive(worker[1])]
            else:
                blocks = subtree(heads[i])
            for sigs, values, ks in blocks:
                count += len(values)
                if count > MAX_CANDIDATES:
                    raise ResourceLimitError(f"more than {MAX_CANDIDATES} candidates")
                yield from map(Candidate, sigs, values, ks)
    finally:
        if worker:
            import signal           # only this path needs it; not at import
            pid, reader = worker
            reader.close()
            os.kill(pid, signal.SIGKILL)    # harmless on a worker that has ended
            os.waitpid(pid, 0)


def _fork(heads: list, subtree) -> tuple[int, BinaryIO] | None:
    """A worker that walks subtree(h) for h in heads[1::2], as (its pid, a
    reader of its frames); None where there is no os.fork, the process may
    run on one CPU only or runs more than one thread, or os.fork fails."""
    threading = sys.modules.get("threading")
    if not (hasattr(os, "fork") and _cpus() >= 2
            and (threading is None or threading.active_count() == 1)):
        return None
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:                 # no process to spare
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        _work(r, w, heads[1::2], subtree)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _work(r: int, w: int, heads: list, subtree) -> None:
    """The forked worker: one frame per subtree to w, then os._exit.  It
    never returns into the caller's frames, runs no atexit handler and
    flushes no inherited buffer.  Its frames are length-prefixed marshal
    dumps: (signatures, N, K) lists for a whole subtree, or (exception
    name, message) when it fails, which the caller raises again."""
    code = 1
    out = None
    try:
        os.close(r)                 # so a write fails once the caller has gone
        out = os.fdopen(w, "wb")
        count = 0
        for head in heads:
            sigs, values, ks = [], [], []
            for s, v, k in subtree(head):
                count += len(v)
                if count > MAX_CANDIDATES:
                    raise ResourceLimitError(f"more than {MAX_CANDIDATES} candidates")
                sigs += s
                values += v
                ks += k
            _send(out, (sigs, values, ks))
        code = 0
    except BaseException as exc:    # any failure, sent for the caller to raise
        try:
            _send(out, (type(exc).__name__, str(exc)))
        except OSError:             # the caller has gone
            pass
    finally:
        os._exit(code)


def _send(out: BinaryIO, obj) -> None:
    data = marshal.dumps(obj)
    out.write(len(data).to_bytes(8, "little"))
    out.write(data)
    out.flush()


def _receive(reader: BinaryIO) -> tuple:
    """The next frame from the worker; an error frame is raised here."""
    size = int.from_bytes(reader.read(8), "little")
    data = reader.read(size)
    if not size or len(data) < size:
        raise RuntimeError("the candidate worker ended without sending a subtree")
    frame = marshal.loads(data)
    if len(frame) == 2:
        name, message = frame
        if name == ResourceLimitError.__name__:
            raise ResourceLimitError(message)
        raise RuntimeError(f"the candidate worker failed: {name}: {message}")
    return frame


def _record(rank: int, cand: Candidate, primes: list[int]) -> ChampionRecord:
    sig = cand.signature
    profile = []                # (j, P_j), P_j the last prime with exponent >= j
    i = len(sig)
    for j in range(1, sig[0] + 1 if sig else 1):
        while sig[i - 1] < j:   # sig is non-increasing
            i -= 1
        profile.append((j, primes[i - 1]))
    return ChampionRecord(
        rank=rank,
        candidate=cand,
        omega=len(sig),
        big_omega=sum(sig),
        last_exponent=sig[-1] if sig else None,
        p_profile=tuple(profile),
    )


def candidate_census(candidates: Iterable[Candidate]) -> tuple[int, list[ChampionRecord]]:
    """One pass over the candidates: their count and the ranked K-records.

    A record beats every smaller N, so it beats every K at a smaller bit
    length.  floor[b] is the largest K seen so far below bit length b, and
    a candidate is kept only if its K exceeds its floor.  Floors only rise,
    so no record is dropped; when the kept list doubles it is filtered again
    against the current floors.  At the end the final floors filter it once
    more, and the rest are sorted by N and scanned.  The input is consumed
    once and never held whole.
    """
    floor = [-1]            # the last slot covers every longer bit length
    kept: list[Candidate] = []
    limit = 4096            # refilter when kept passes this
    count = 0
    for count, c in enumerate(candidates, 1):
        k = c.k_value
        b = c.value.bit_length()
        if b + 1 >= len(floor):
            floor += [floor[-1]] * (b + 2 - len(floor))
        if k <= floor[b]:
            continue
        kept.append(c)
        j = b + 1                           # floor is non-decreasing in b
        while j < len(floor) and floor[j] < k:
            floor[j] = k
            j += 1
        if len(kept) > limit:
            kept = [c for c in kept if c.k_value > floor[c.value.bit_length()]]
            limit = max(4096, 2 * len(kept))
    ordered = sorted((c for c in kept if c.k_value > floor[c.value.bit_length()]),
                     key=lambda c: c.value)
    if not ordered:
        return count, []
    primes = first_primes(max(len(c.signature) for c in ordered) or 1)
    out: list[ChampionRecord] = []
    best_k = -1
    for cand in ordered:
        if cand.k_value > best_k:
            best_k = cand.k_value
            out.append(_record(len(out) + 1, cand, primes))
    return count, out


def champions_from_candidates(candidates: Iterable[Candidate]) -> list[ChampionRecord]:
    """Strict record-setters of K in N-order, ranked (see candidate_census)."""
    return candidate_census(candidates)[1]


def find_champions(x: int) -> list[ChampionRecord]:
    return champions_from_candidates(enumerate_candidates(x))


class CensusResult(NamedTuple):
    bound: int
    candidate_count: int
    champion_count: int
    alpha_gt1_count: int                     # champions (N > 1) with a_k > 1
    largest_alpha_gt1: ChampionRecord | None


def census_from_records(x: int, candidate_count: int,
                        records: list[ChampionRecord]) -> CensusResult:
    """The census counts up to x from the candidate count and the records."""
    gt1 = [r for r in records if r.last_exponent is not None and r.last_exponent > 1]
    return CensusResult(
        bound=x,
        candidate_count=candidate_count,
        champion_count=len(records),
        alpha_gt1_count=len(gt1),
        largest_alpha_gt1=gt1[-1] if gt1 else None,
    )


def census(x: int, candidates: Iterable[Candidate] | None = None) -> CensusResult:
    """Counts over candidates and champions up to x, in one streaming pass."""
    if candidates is None:
        candidates = enumerate_candidates(x)
    return census_from_records(x, *candidate_census(candidates))


class ChampionDiagnostics(NamedTuple):
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
        (a - beta * log_n) * math.log(p) / scale
        for a, p, beta in zip(sig, primes, tab.beta_profile(len(sig)))
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


class LawReport(NamedTuple):
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

_MAGIC = "# kalmar-census"


def _digest(body: str) -> str:
    """CRC-32 of the body: it catches a damaged or truncated file, and the
    recheck on load catches a wrong record.  hashlib would load OpenSSL,
    3.6 MB of RSS in a process that otherwise peaks near 16 MB."""
    import zlib                 # only a cache read or write pays for it
    return f"{zlib.crc32(body.encode('ascii')):08x}"


def save_candidates(path: str, x: int, candidate_count: int,
                    records: list[ChampionRecord]) -> None:
    """Write the census at x: a header with the bound, the package version,
    the candidate count and the CRC-32 of the body, then one 'signature;N;K'
    line per record.  The file goes to a temporary name beside path and is
    renamed into place, so a reader sees the old file or the whole new one.
    A directory at path is refused before anything is written."""
    if os.path.isdir(path):     # else the rename fails only after the whole write
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    body = "".join(f"{','.join(map(str, r.candidate.signature))};"
                   f"{r.candidate.value};{r.candidate.k_value}\n" for r in records)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"{_MAGIC} X={x} version={__version__} "
                     f"count={candidate_count} crc32={_digest(body)}\n")
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_candidates(path: str, x: int) -> tuple[int, list[ChampionRecord]] | None:
    """(candidate count, records) from a census cache, or None if the file is
    missing, stale (other bound, version or format) or fails any check: the
    digest, the parse, or the recheck of every record.  The recheck rebuilds
    N from the signature and K with kalmar_macmahon, and asks that the
    records start at N = 1 and rise strictly in N and K up to x.  It also
    asks for the doubling law (verify_champion_laws), which a deleted record
    breaks whenever the gap it leaves exceeds 2x: N_{i+1} <= 2 N_i for
    N_i >= 2, and the next record 2 N_last (or 4 after N = 1) lies above x."""
    prefix = f"{_MAGIC} X={x} version={__version__} count="
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline()
            if not header.startswith(prefix):
                return None
            count_s, sep, digest = header[len(prefix):].rstrip("\n").partition(" crc32=")
            count = int(count_s)
            body = fh.read()
        if not sep or _digest(body) != digest:
            return None
        rows = []
        for line in body.splitlines():
            sig_s, value_s, k_s = line.split(";")
            sig = tuple(int(a) for a in sig_s.split(",")) if sig_s else ()
            rows.append((sig, int(value_s), int(k_s)))
    except (OSError, ValueError):
        return None
    if not rows or rows[0] != ((), 1, 1) or count < len(rows):
        return None
    primes = _admissible_primes(x)
    records: list[ChampionRecord] = []
    prev_n = 0
    for sig, n, k in rows:
        if not (prev_n < n <= x and len(sig) <= len(primes)
                and min(sig, default=1) >= 1
                and sum(sig) < n.bit_length()       # 2^Omega <= N
                and n == math.prod(map(pow, primes, sig))
                and k == kalmar_macmahon(sig)):
            return None
        prev_n = n
        records.append(_record(len(records) + 1, Candidate(sig, n, k), primes))
    # the next record, 2 N_last or 4, must lie above x, and the laws must hold
    if max(2 * prev_n, 4) <= x or not verify_champion_laws(records).ok:
        return None
    return count, records
