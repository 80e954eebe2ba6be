"""Enumeration of K-champion numbers.

Every champion N (each M < N has K(M) < K(N)) is of the form
N = 2^a1 3^a2 ... p_k^ak with a1 >= a2 >= ... >= ak >= 1, so the search
space up to a bound X is the finite set of such candidates.  They are
generated depth-first over the prime index, and K is attached exactly.
Every candidate is a head (N = 1, or last exponent >= 2) followed by j >= 0
exponents 1 on the next primes, its 1-tail.  A head carries K(h+1^k) for
every k with N p_next^k <= X, so its 1-tail's K needs no sum, and hands each
child its own such vector by the rising-factorial shift
(exact.kalmar_powers); only the root's comes from MacMahon's sum.  A child
with room for fewer than two more primes has no child of its own, so it is
never walked as a head: its one or two candidates go into one block with
those of its like siblings.  Champions
are the strict running maxima of K in N-order, and a ChampionRecord is its
rank and its candidate.  N = 1 (empty signature, K = 1) is champion rank 1.
Bounds above MAX_BOUND are refused before any work.  A Candidate holds N and
K only and derives its signature from N on each read, so a held list costs
about 125 bytes per candidate at 10^12; the census below streams and never
holds it.

The enumeration is one walk over the first-level subtrees (all candidates
with the same a1), then the block of the root's childless children.  From
x = FORK_MIN_BOUND on, an optional forked worker walks every other one of
these items and sends each back whole over a pipe, and the walk
yields it in its place: the stream, its order included, is the same with
or without the worker.  The bounds kalmar verify enumerates stay serial.

The census is one streaming pass: it counts the candidates and keeps only
those whose K exceeds every K seen at a smaller bit length, which every
record does; it never holds the whole candidate list.  The census can be
persisted as one 'signature;N;K' line per record under a header that
pins the bound, the package version, the candidate count and a digest of the
count and the body.  The file is replaced atomically; on load every record
is rechecked, and a stale, unparsable or failing cache loads as a miss.
"""

from __future__ import annotations

import errno
import marshal
import math
import os
import sys
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, NamedTuple

from . import __version__
from .errors import DomainError, ResourceLimitError
from .exact import kalmar_macmahon, kalmar_powers
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
    """A champion-form N = 2^a1 3^a2 ... p_k^ak with its exact K(N).

    A plain two-slot class, not a NamedTuple: the census holds one per
    candidate, and a tuple of two costs 8 bytes more.  N determines the
    signature, so it is not stored: .signature divides N by 2, 3, 5, ... on
    each read, up to the first prime that does not divide what is left.
    Equality, hashing and repr are over (value, k_value).
    """

    __slots__ = ("value", "k_value")

    def __init__(self, value: int, k_value: int) -> None:
        self.value = value          # N
        self.k_value = k_value      # K(N)

    @property
    def signature(self) -> tuple[int, ...]:
        n, sig = self.value, []
        for p in first_primes(n.bit_length()):  # N has fewer prime factors than bits
            a = 0
            while not n % p:
                n //= p
                a += 1
            if not a:
                break
            sig.append(a)
        return tuple(sig)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.k_value) == (other.value, other.k_value)

    def __hash__(self) -> int:
        return hash((self.value, self.k_value))

    def __repr__(self) -> str:
        return f"Candidate(value={self.value!r}, k_value={self.k_value!r})"


class ChampionRecord(NamedTuple):
    """A champion: its rank and its candidate.  omega, Omega, a_k and P_1
    come from candidate.signature where they are read."""
    rank: int
    candidate: Candidate


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


# The largest bound enumerate_candidates accepts: X30, the 30-prime primorial
# (18 895 821 candidates).  Below it every exponent is at most 154.
MAX_BOUND = 31610054640417607788145206291543662493274686990

# The smallest bound at which enumerate_candidates forks a worker.  Below it
# the worker saves at most a millisecond or two, less than the spread of one
# process start, for the cost of a second process: on a 2-vCPU host with
# Python 3.11.7, medians of 30 alternating in-process walks were 6.4 ms
# serial against 6.1 ms forked at 10^9 (1 274 candidates), 10.3 against
# 8.9 ms at 10^10 (1 962), 15.0 against 12.0 ms at 10^11 (2 958) and 17.1
# against 14.7 ms at 10^12 (4 357).
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
    yields itself and its 1-tail, and then its children h+e, e >= 2,
    follow.  A head carries ks[k] = K(h+1^k) for k <= R, where
    R = max{w : N p_next^w <= x}, so its 1-tail's K is a prefix of ks with
    no sum at all.  The root's ks is seeded by kalmar_macmahon, and every
    child's comes from its parent's by exact.kalmar_powers, one short pass
    per child.

    A child h+e with room r = max{w : N p^e q^w <= x} < 2, q the prime
    after p, has no child (h+e+2 needs N p^e q^2 <= x), and its 1-tail is
    N p^e alone or with N p^e q.  Rooms do not grow with e, so these
    children are the trailing siblings: their (N, K) pairs go into one
    block that follows the other siblings' subtrees, in the order the walk
    would have reached them, or into the head's own block when no sibling
    is a head.  Only heads with room >= 2 are expanded.

    One loop yields the root's block, then each first-level item in turn:
    the subtrees (the candidates with the same a_1) and, last, the block of
    the root's childless children.  From x = FORK_MIN_BOUND on, a worker
    may walk every other item (a_1 = 3, 5, 7, ...; see _fork), sending a
    block as an ordinary (N, K) frame, and the loop takes those whole from
    it: the items and their order are the same either way.
    x > MAX_BOUND raises ResourceLimitError up front.
    """
    if x < 1:
        raise DomainError("the bound must be >= 1")
    if x > MAX_BOUND:
        raise ResourceLimitError(f"bound {x} exceeds cap {MAX_BOUND}, the 30-prime primorial")
    primes = _admissible_primes(x)
    top = x.bit_length() - 1                  # max{w : 2^w <= x}

    def expand(head):
        """(N, K) of a head and its 1-tail, and the items that follow it:
        its child heads, then one block of (N, K) of its childless
        children.  With no child head, that block joins the head's own."""
        value, idx, cap, ks = head
        values = [value]
        for p in primes[idx:]:
            if values[-1] * p > x:
                break
            values.append(values[-1] * p)
        if idx == len(primes):
            return values, ks[:len(values)], []
        p = primes[idx]
        q = primes[idx + 1] if idx + 1 < len(primes) else 0
        v = value * p * p
        e = 2
        kids, rooms = [], []
        while e <= cap and v <= x:
            r = 0                             # max{w : v q^w <= x}
            t = v * q
            while q and t <= x:
                r += 1
                t *= q
            kids.append(v)
            rooms.append(r)
            v *= p
            e += 1
        items, leaf_values, leaf_ks = [], [], []
        for e, v, vec in zip(range(2, cap + 1), kids, kalmar_powers(ks, rooms)):
            if len(vec) > 2:                  # room >= 2: h+e has the child h+e+2
                items.append((v, idx + 1, e, vec))
            else:                             # its 1-tail is v, or v and v q
                leaf_values += (v, v * q)[:len(vec)]
                leaf_ks += vec
        ks = ks[:len(values)]
        if not items:
            return values + leaf_values, ks + leaf_ks, []
        if leaf_values:
            items.append((leaf_values, leaf_ks))
        return values, ks, items

    def subtree(item):
        """(N, K) blocks of item, a head or a block, in DFS pre-order."""
        stack = [item]
        while stack:
            item = stack.pop()
            if len(item) == 2:                # a block of childless children
                yield item
                continue
            values, ks, items = expand(item)
            yield values, ks
            stack.extend(reversed(items))

    # a head: N, next prime's index, cap on its exponent, [K(head+1^k) for
    # k <= max{w : N p_next^w <= x}]
    root = [kalmar_macmahon((1,) * k) for k in range(top + 1)]
    *block, items = expand((1, 0, top, root))
    worker = _fork(items, subtree) if x >= FORK_MIN_BOUND else None
    try:
        for i in range(-1, len(items)):
            if i < 0:
                blocks = [block]
            elif worker and i % 2:
                blocks = [_receive(worker[1])]
            else:
                blocks = subtree(items[i])
            for values, ks in blocks:
                yield from map(Candidate, values, ks)
    finally:
        if worker:
            import signal           # only this path needs it; not at import
            pid, reader = worker
            reader.close()
            os.kill(pid, signal.SIGKILL)    # harmless on a worker that has ended
            os.waitpid(pid, 0)


def _fork(items: list, subtree) -> tuple[int, BinaryIO] | None:
    """A worker that walks subtree(i) for i in items[1::2], as (its pid, a
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
        _work(r, w, items[1::2], subtree)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _work(r: int, w: int, items: list, subtree) -> None:
    """The forked worker: one frame per item to w, then os._exit.  It
    never returns into the caller's frames, runs no atexit handler and
    flushes no inherited buffer.  Its frames are length-prefixed marshal
    dumps: (N, K) lists for a whole item, or (exception name, message)
    when it fails, which the caller raises as RuntimeError."""
    code = 1
    out = None
    try:
        os.close(r)                 # so a write fails once the caller has gone
        out = os.fdopen(w, "wb")
        for item in items:
            values, ks = [], []
            for v, k in subtree(item):
                values += v
                ks += k
            _send(out, (values, ks))
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
    if isinstance(frame[0], str):       # (exception name, message)
        raise RuntimeError("the candidate worker failed: {}: {}".format(*frame))
    return frame


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
    out: list[ChampionRecord] = []
    best_k = -1
    for cand in ordered:
        if cand.k_value > best_k:
            best_k = cand.k_value
            out.append(ChampionRecord(len(out) + 1, cand))
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
    gt1 = [r for r in records if r.candidate.signature[-1:] > (1,)]     # a_k > 1
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
    omega_residual: float | None            # (Omega - b log N) / (log N)^delta
    p1_ratio: float | None                  # P_1 / (a log N)^(1/rho)
    omega_ratio: float | None               # omega log log N / (rho a^(1/rho) (log N)^(1/rho))


def champion_stats(rec: ChampionRecord, tab: ConstantsTable) -> ChampionDiagnostics:
    """Finite-N residuals of the champion asymptotics at one record, as
    `champions --stats` prints them: the Omega residual, the ratio of P_1,
    the largest prime factor, and the omega ratio; None at N = 1."""
    if rec.candidate.value == 1:
        return ChampionDiagnostics(rec.rank, None, None, None)
    sig = rec.candidate.signature
    log_n = math.log(rec.candidate.value)
    omega_ratio = None
    if log_n > 1.0:
        omega_ratio = (len(sig) * math.log(log_n)
                       / (tab.kappa_max * log_n ** (1.0 / tab.rho)))
    return ChampionDiagnostics(
        rank=rec.rank,
        omega_residual=(sum(sig) - tab.b * log_n) / log_n ** tab.delta,
        p1_ratio=first_primes(len(sig))[-1] / (tab.a * log_n) ** (1.0 / tab.rho),
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


def _digest(count: str, body: str) -> str:
    """CRC-32 of the candidate count and the body: it catches a damaged or
    truncated file, and the recheck on load catches a wrong record.  hashlib
    would load OpenSSL, 3.6 MB of RSS in a process that otherwise peaks near
    16 MB."""
    import zlib                 # only a cache read or write pays for it
    return "%08x" % zlib.crc32(f"{count}\n{body}".encode("ascii"))


def save_candidates(path: str, x: int, candidate_count: int,
                    records: list[ChampionRecord]) -> None:
    """Write the census at x: a header with the bound, the package version,
    the candidate count and the CRC-32 of the count and the body, then one
    'signature;N;K' line per record.  The file goes to a temporary name
    beside path and is renamed into place, so a reader sees the old file or
    the whole new one.  A directory at path is refused before anything is
    written."""
    if os.path.isdir(path):     # else the rename fails only after the whole write
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    body = "".join(f"{','.join(map(str, r.candidate.signature))};"
                   f"{r.candidate.value};{r.candidate.k_value}\n" for r in records)
    count = str(candidate_count)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"{_MAGIC} X={x} version={__version__} "
                     f"count={count} crc32={_digest(count, body)}\n")
            fh.write(body)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_candidates(path: str, x: int) -> tuple[int, list[ChampionRecord]] | None:
    """(candidate count, records) from a census cache, or None if x exceeds
    MAX_BOUND (no cache gets around the cap), the file is missing, stale
    (other bound, version or format) or fails any check: the digest, the
    parse, or the recheck of every record.  The recheck rebuilds N from the
    signature and K with kalmar_macmahon, and asks that the records start
    at N = 1 and rise strictly in N and K up to x.  It also asks for the
    doubling law (verify_champion_laws), which a deleted record breaks
    whenever the gap it leaves exceeds 2x: N_{i+1} <= 2 N_i for N_i >= 2,
    and the next record 2 N_last (or 4 after N = 1) lies above x."""
    prefix = f"{_MAGIC} X={x} version={__version__} count="
    try:
        with open(path, encoding="ascii") as fh:
            header = fh.readline()
            if x > MAX_BOUND or not header.startswith(prefix):
                return None
            count_s, sep, digest = header[len(prefix):].rstrip("\n").partition(" crc32=")
            count = int(count_s)
            body = fh.read()
        if not sep or _digest(count_s, body) != digest:
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
        records.append(ChampionRecord(len(records) + 1, Candidate(n, k)))
    # the next record, 2 N_last or 4, must lie above x, and the laws must hold
    if max(2 * prev_n, 4) <= x or not verify_champion_laws(records).ok:
        return None
    return count, records
