"""Champion enumeration, census, stats, laws, and the census cache."""

import gc
import hashlib
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import pytest

from kalmar import champions as ch
from kalmar import constants as cn
from kalmar import exact as ex
from kalmar import verify as vf
from kalmar.errors import DomainError, ResourceLimitError
from kalmar.primes import factorize, first_primes


def test_candidates_x12():
    cands = list(ch.enumerate_candidates(12))
    assert sorted(c.value for c in cands) == [1, 2, 4, 6, 8, 12]
    by_value = {c.value: c for c in cands}
    assert by_value[1].signature == () and by_value[1].k_value == 1
    assert by_value[12].signature == (2, 1) and by_value[12].k_value == 8


def test_candidates_x1():
    cands = list(ch.enumerate_candidates(1))
    assert len(cands) == 1 and cands[0].value == 1


def test_candidates_errors(monkeypatch):
    with pytest.raises(DomainError):
        list(ch.enumerate_candidates(0))
    monkeypatch.setattr(ch, "MAX_BOUND", 10**5)
    with pytest.raises(ResourceLimitError):
        list(ch.enumerate_candidates(10**6))


def test_candidate_values_match_signatures():
    primes = [2, 3, 5, 7, 11]
    for c in ch.enumerate_candidates(30000):
        v = 1
        for p, a in zip(primes, c.signature):
            v *= p**a
        assert v == c.value
        assert c.k_value == ex.kalmar_macmahon(c.signature)


def test_carried_taus_match_standalone_kernel():
    cands = list(ch.enumerate_candidates(10**12))
    assert len(cands) == 4357
    for c in cands:
        assert c.k_value == ex.kalmar_macmahon(c.signature), c.signature


def test_candidates_match_recursion():
    for c in ch.enumerate_candidates(10**5):
        assert c.k_value == ex.kalmar_recursive(c.signature), c.signature


def force_path(monkeypatch, forked):
    """Make enumerate_candidates fork its worker at every bound, or never;
    returns the list of forks it makes."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(ch, "FORK_MIN_BOUND", 1 if forked else math.inf)
    monkeypatch.setattr(ch, "_cpus", lambda: 2 if forked else 1)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_candidate_stream_pinned(monkeypatch):
    # the (signature, N, K) stream in DFS order, as the per-candidate kernel
    # produced it before heads and 1-tails were evaluated together, on the
    # serial path and with the forked worker
    for forked in (False, True):
        forks = force_path(monkeypatch, forked)
        h = hashlib.sha256()
        count = 0
        for c in ch.enumerate_candidates(10**18):
            h.update(f"{','.join(map(str, c.signature))};{c.value};{c.k_value}\n".encode())
            count += 1
        assert count == 32749
        assert h.hexdigest() == "d055ce92a1ff7d681a23d782a93fb9e7380069d1a4911c4c5855916d05adc44d"
        assert len(forks) == forked
        assert_no_child()


def test_forked_stream_equals_serial(monkeypatch):
    # perfbench/spans.py opens one span per resume of a generator function
    assert inspect.isgeneratorfunction(ch.enumerate_candidates)
    x = math.prod(first_primes(16))
    streams = []
    for forked in (False, True):
        forks = force_path(monkeypatch, forked)
        streams.append(list(ch.enumerate_candidates(x)))
        assert len(forks) == forked
    assert streams[0] == streams[1]
    assert_no_child()

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)    # the caller walks it all
    assert list(ch.enumerate_candidates(x)) == streams[0]
    assert_no_child()


def test_fork_selection(monkeypatch):
    # the worker is forked only from x >= FORK_MIN_BOUND, on two or more
    # CPUs, in a process that runs one thread; every bound that kalmar
    # verify enumerates, 10^5 at most, stays serial
    assert ch.FORK_MIN_BOUND > 10**5
    forks = force_path(monkeypatch, True)
    x = 10**12
    monkeypatch.setattr(ch, "FORK_MIN_BOUND", x + 1)
    assert len(list(ch.enumerate_candidates(x))) == 4357 and forks == []
    monkeypatch.setattr(ch, "FORK_MIN_BOUND", x)
    assert len(list(ch.enumerate_candidates(x))) == 4357 and len(forks) == 1
    monkeypatch.setattr(ch, "_cpus", lambda: 1)
    assert len(list(ch.enumerate_candidates(x))) == 4357 and len(forks) == 1
    monkeypatch.setattr(ch, "_cpus", lambda: 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(list(ch.enumerate_candidates(x))) == 4357 and len(forks) == 1
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert_no_child()


def test_forked_worker_lifecycle(monkeypatch):
    forks = force_path(monkeypatch, True)
    x = 10**18
    gen = ch.enumerate_candidates(x)
    list(itertools.islice(gen, 40))             # the root's block, then the fork
    assert len(forks) == 1
    gen.close()
    assert_no_child()

    def consume():
        for i, _ in enumerate(ch.enumerate_candidates(x)):
            if i == 5000:
                raise KeyError("consumer")

    with pytest.raises(KeyError):
        consume()
    assert_no_child()

    # a kernel that fails only in the worker: an error frame, raised here
    parent, powers = os.getpid(), ex.kalmar_powers

    def failing_powers(*args):
        if os.getpid() != parent:
            raise ArithmeticError("worker kernel")
        return powers(*args)

    monkeypatch.setattr(ch, "kalmar_powers", failing_powers)
    with pytest.raises(RuntimeError, match="ArithmeticError: worker kernel"):
        list(ch.enumerate_candidates(x))
    assert_no_child()

    def dying_powers(*args):                    # no frame at all
        if os.getpid() != parent:
            os._exit(3)
        return powers(*args)

    monkeypatch.setattr(ch, "kalmar_powers", dying_powers)
    with pytest.raises(RuntimeError, match="ended without sending"):
        list(ch.enumerate_candidates(x))
    assert len(forks) == 4
    assert_no_child()


def test_forked_worker_limits(monkeypatch):
    # a bound above the cap is refused before the fork: no worker, no child
    forks = force_path(monkeypatch, True)
    monkeypatch.setattr(ch, "MAX_BOUND", 10**18 - 1)
    with pytest.raises(ResourceLimitError):
        list(ch.enumerate_candidates(10**18))
    assert forks == []
    assert_no_child()


def test_worker_frames_hold_n_and_k(monkeypatch):
    # each frame the worker sends is one subtree as two lists, N and K,
    # with no signature: the caller builds Candidate(N, K) from them
    forks = force_path(monkeypatch, True)
    frames = []
    receive = ch._receive

    def spy(reader):
        frames.append(receive(reader))
        return frames[-1]

    monkeypatch.setattr(ch, "_receive", spy)
    cands = list(ch.enumerate_candidates(10**12))
    assert len(forks) == 1 and frames
    for frame in frames:
        assert type(frame) is tuple and len(frame) == 2
        values, ks = frame
        assert type(values) is list and type(ks) is list and len(values) == len(ks)
        assert all(type(v) is int for v in values + ks)
    pairs = {(c.value, c.k_value) for c in cands}
    assert {p for values, ks in frames for p in zip(values, ks)} < pairs
    assert_no_child()


def test_every_small_bound_against_recursion():
    def champion_form(n):
        fac = factorize(n)
        return ([p for p, _ in fac] == [2, 3, 5, 7, 11][:len(fac)]
                and all(a >= b for (_, a), (_, b) in zip(fac, fac[1:])))

    for x in range(1, 301):
        cands = list(ch.enumerate_candidates(x))
        assert sorted(c.value for c in cands) == [n for n in range(1, x + 1) if champion_form(n)]
        for c in cands:
            assert c.k_value == ex.kalmar_recursive(c.signature), (x, c)


def plain_records(cands):
    out, best = [], -1
    for c in sorted(cands, key=lambda c: c.value):
        if c.k_value > best:
            best = c.k_value
            out.append(c)
    return out


def test_record_prefilter_matches_full_scan():
    def check(cands):
        recs = ch.champions_from_candidates(cands)
        assert [r.candidate for r in recs] == plain_records(cands)
        assert [r.rank for r in recs] == list(range(1, len(recs) + 1))

    cands = list(ch.enumerate_candidates(10**9))
    rng = random.Random(10)
    for _ in range(3):
        rng.shuffle(cands)
        check(cands)
    gen = [r.candidate for r in ch.champions_from_candidates(ch.enumerate_candidates(10**9))]
    assert gen == plain_records(cands)
    check([])
    C = ch.Candidate
    # equal K on both sides of the 7 | 8 and 15 | 16 bit-length edges
    edges = [C(7, 5), C(8, 5), C(6, 3), C(9, 6), C(15, 6),
             C(16, 6), C(17, 7), C(1, 1), C(31, 7), C(32, 8)]
    check(edges)
    check(edges[::-1])
    for _ in range(200):
        values = rng.sample(range(1, 300), rng.randint(1, 40))
        check([C(v, rng.randint(1, 6)) for v in values])


def test_streaming_census_matches_list():
    # the one-pass census against the whole list, sorted and scanned; at
    # 10^18 and above the kept list passes its first limit and is refiltered
    for x in (10**12, 10**18, math.prod(first_primes(16))):
        cands = list(ch.enumerate_candidates(x))
        want = plain_records(cands)
        count, recs = ch.candidate_census(ch.enumerate_candidates(x))
        assert count == len(cands)
        assert [r.candidate for r in recs] == want
        assert recs == ch.champions_from_candidates(cands)
        assert ch.census(x) == ch.census(x, candidates=cands)
        gt1 = [c for c in want if c.signature and c.signature[-1] > 1]
        cen = ch.census(x)
        assert cen.champion_count == len(want) and cen.alpha_gt1_count == len(gt1)
        assert cen.largest_alpha_gt1.candidate == gt1[-1]
        for order in (lambda c: c.k_value, lambda c: -c.value):
            assert [r.candidate for r in ch.champions_from_candidates(
                iter(sorted(cands, key=order)))] == want


def test_streaming_census_memory():
    # the stream holds the records' survivors, not every candidate
    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    x = 10**18
    stream = peak(lambda: ch.census(x))
    listed = peak(lambda: ch.census(x, candidates=list(ch.enumerate_candidates(x))))
    assert stream * 3 < listed, (stream, listed)


def test_candidate_list_memory():
    # a held candidate list costs under 140 B per candidate: the object, N
    # and K, about 125 B
    x = 10**12
    list(ch.enumerate_candidates(x))    # warm the kernel's caches
    gc.collect()                        # and empty the tuple free lists
    tracemalloc.start()
    try:
        cands = list(ch.enumerate_candidates(x))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(cands) == 4357
    assert held / len(cands) <= 140, held / len(cands)


def test_champions_x12():
    cen = ch.census(12)
    assert cen.champion_count == 5
    values = [r.candidate.value for r in ch.find_champions(12)]
    assert values == [1, 4, 6, 8, 12]


def test_champions_first_rows():
    champs = ch.find_champions(34560)
    assert len(champs) == 40
    head = [(r.candidate.value, r.candidate.k_value) for r in champs[:5]]
    assert head == [(1, 1), (4, 2), (6, 3), (8, 4), (12, 8)]
    last = champs[-1]
    assert last.candidate.value == 34560
    assert last.candidate.k_value == 622592
    assert last.candidate.signature == (8, 3, 1)
    assert champs[4].candidate.value / champs[3].candidate.value == 1.5


def test_champion_record_fields():
    # a record is its rank and its candidate; the rest comes from the signature
    assert ch.ChampionRecord._fields == ("rank", "candidate")
    champs = ch.find_champions(34560)
    rec = champs[-1]
    assert rec.rank == 40
    assert rec.candidate.signature == (8, 3, 1)
    assert first_primes(len(rec.candidate.signature))[-1] == 5         # P_1
    assert champs[0].candidate.signature == ()


def test_champion_laws():
    champs = ch.find_champions(34560)
    rep = ch.verify_champion_laws(champs)
    assert rep.ok, rep.violations
    assert ch.verify_champion_laws(champs[:1]).ok


def test_champion_stats():
    tab = cn.model_constants()
    champs = ch.find_champions(34560)
    st = ch.champion_stats(champs[-1], tab)
    assert st.rank == 40
    assert st.omega_residual is not None
    assert st.p1_ratio == 5 / (tab.a * math.log(34560)) ** (1.0 / tab.rho)
    empty = ch.champion_stats(champs[0], tab)
    assert empty == (1, None, None, None)


def test_stats_facts_against_factorization():
    # omega, Omega and P_1 as --stats derives them from the signature equal
    # those of an independent trial-division factorization of N
    tab = cn.model_constants()
    recs = ch.find_champions(10**12)
    assert len(recs) > 100
    for rec in recs[1:]:
        n = rec.candidate.value
        sig = rec.candidate.signature
        parts = factorize(n)
        assert len(sig) == len(parts)
        assert sum(sig) == sum(e for _, e in parts)
        p1 = first_primes(len(sig))[-1]
        assert p1 == max(p for p, _ in parts)
        assert ch.champion_stats(rec, tab).p1_ratio == \
            p1 / (tab.a * math.log(n)) ** (1.0 / tab.rho)


def test_small_oracle():
    res = vf.check_champion_small_oracle(2000)
    assert res.ok, res.detail


def test_determinism():
    a = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(5000)]
    b = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(5000)]
    assert a == b


def test_census_monotone(monkeypatch):
    monkeypatch.setattr(vf, "CENSUS_XS", (10, 1000, 10_000))
    res = vf.check_census_monotone()
    assert res.ok, res.detail


def test_census_alpha_gt1():
    cen = ch.census(34560)
    gt1 = [r for r in ch.find_champions(34560)
           if r.candidate.signature and r.candidate.signature[-1] > 1]
    assert cen.alpha_gt1_count == len(gt1) == 14
    assert cen.largest_alpha_gt1.candidate.value == max(r.candidate.value for r in gt1)


def test_candidate_layout():
    # two slots and no __dict__: the census holds one per candidate
    class TwoSlots:
        __slots__ = ("a", "b")

    c = ch.Candidate(12, 8)
    assert not hasattr(c, "__dict__")
    assert sys.getsizeof(c) <= sys.getsizeof(TwoSlots())
    twin = ch.Candidate(12, 8)
    assert c == twin and c is not twin and hash(c) == hash(twin)
    assert hash(c) == hash((12, 8))
    assert c != ch.Candidate(12, 9) and c != ch.Candidate(18, 8)
    assert c != (12, 8)                         # not a tuple
    assert len({c, twin, ch.Candidate(1, 1)}) == 2
    assert repr(c) == "Candidate(value=12, k_value=8)"


def test_candidate_signature_from_value(monkeypatch):
    # .signature is derived from N on each read: a non-increasing tuple of
    # exponents on 2, 3, 5, ... whose product is N, and the serial stream's
    # signatures are those of a plain recursive walk, in its pre-order
    x = math.prod(first_primes(16))
    primes = first_primes(16)

    def walk(sig, n):
        yield sig
        p = primes[len(sig)] if len(sig) < len(primes) else x + 1
        for e in range(1, (sig[-1] if sig else x.bit_length()) + 1):
            if n * p**e > x:
                break
            yield from walk(sig + (e,), n * p**e)

    force_path(monkeypatch, False)
    sigs = []
    for c in ch.enumerate_candidates(x):
        sig = c.signature
        assert type(sig) is tuple and list(sig) == sorted(sig, reverse=True)
        assert min(sig, default=1) >= 1
        assert math.prod(map(pow, primes, sig)) == c.value
        sigs.append(sig)
    assert sigs == list(walk((), 1))
    assert ch.Candidate(1, 1).signature == ()
    assert ch.Candidate(2**255 * 27, 1).signature == (255, 3)
    assert next(ch.enumerate_candidates(1)).signature == ()
    # 2^300 lies above the cap: refused before any candidate
    with pytest.raises(ResourceLimitError, match="cap"):
        next(ch.enumerate_candidates(2**300))


def test_bound_cap(monkeypatch, tmp_path):
    # the cap is X30; X30 itself is walked, X30 + 1 is refused before any
    # K, prime list or fork, and the CLI exits 2 at once with no cache file
    assert ch.MAX_BOUND == math.prod(first_primes(30))
    gen = ch.enumerate_candidates(ch.MAX_BOUND)
    first = next(gen)
    assert first.value == 1 and first.signature == () and first.k_value == 1
    gen.close()
    assert_no_child()
    over = ch.MAX_BOUND + 1

    def fail(*args):
        raise AssertionError("work done above the cap")

    with monkeypatch.context() as m:
        m.setattr(ch, "kalmar_powers", fail)
        m.setattr(ch, "kalmar_macmahon", fail)          # the root seed
        m.setattr(ch, "_fork", fail)
        m.setattr(ch, "_admissible_primes", fail)
        with pytest.raises(ResourceLimitError, match="cap"):
            next(ch.enumerate_candidates(over))
    cache = tmp_path / "over.cache"
    for extra in ((), ("--cache", str(cache))):
        t0 = time.monotonic()
        cp = subprocess.run([sys.executable, "-m", "kalmar", "champions", "--x", str(over),
                             "--census", *extra], capture_output=True, text=True, timeout=60)
        assert time.monotonic() - t0 < 1, extra
        assert cp.returncode == 2 and cp.stdout == "", cp.stderr
        assert cp.stderr.startswith(f"resource error: bound {over} exceeds cap")
    assert not cache.exists()
    assert_no_child()
    # a valid cache for a bound above the cap loads as a miss
    path = str(tmp_path / "x12.cache")
    ch.save_candidates(path, 12, *ch.candidate_census(ch.enumerate_candidates(12)))
    assert ch.load_candidates(path, 12) is not None
    monkeypatch.setattr(ch, "MAX_BOUND", 11)
    assert ch.load_candidates(path, 12) is None


def read_cache(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        return header, fh.read().splitlines()


def write_cache(path, header, body, redigest=True):
    """Write a header and body lines; with redigest, the header's digest is
    made to match the body, so only the parse or the recheck can reject it."""
    text = "".join(line + "\n" for line in body)
    if redigest:
        head, _, _ = header.rpartition(" crc32=")
        count = head.rpartition(" count=")[2]
        data = (count + "\n" + text).encode()
        header = f"{head} crc32={zlib.crc32(data):08x}"
    with open(path, "w") as fh:
        fh.write(header + "\n" + text)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "census.txt")
    count, recs = ch.candidate_census(ch.enumerate_candidates(34560))
    ch.save_candidates(path, 34560, count, recs)
    assert ch.load_candidates(path, 34560) == (120, recs)
    header, body = read_cache(path)
    assert header.startswith(f"# kalmar-census X=34560 version={ch.__version__} count=120 crc32=")
    assert len(body) == 40 and body[0] == ";1;1" and body[-1] == "8,3,1;34560;622592"
    assert ch.load_candidates(path, 34561) is None        # stale bound
    assert ch.load_candidates(str(tmp_path / "nope.txt"), 34560) is None
    write_cache(path, header.replace("version=", "version=0.0."), body)
    assert ch.load_candidates(path, 34560) is None         # stale version


def test_cache_directory_refused_before_writing(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(ch, "open", lambda *a, **kw: opened.append(a), raising=False)
    count, recs = ch.candidate_census(ch.enumerate_candidates(100))
    with pytest.raises(IsADirectoryError) as err:
        ch.save_candidates(str(tmp_path), 100, count, recs)
    assert err.value.filename == str(tmp_path)
    assert opened == [] and list(tmp_path.iterdir()) == []


def test_corrupt_cache_is_stale(tmp_path):
    path = str(tmp_path / "census.txt")
    count, recs = ch.candidate_census(ch.enumerate_candidates(34560))
    ch.save_candidates(path, 34560, count, recs)
    assert os.listdir(tmp_path) == ["census.txt"]         # no temp file left
    header, body = read_cache(path)
    write_cache(path, header, body)
    assert ch.load_candidates(path, 34560) == (count, recs)   # the helper is faithful
    for garbled in ("garbage", "1;2", "x;4;2", "1;4;2;7", ""):
        write_cache(path, header, body[:5] + [garbled] + body[6:])
        assert ch.load_candidates(path, 34560) is None, garbled
    write_cache(path, header.replace("count=", "count=x"), body)
    assert ch.load_candidates(path, 34560) is None
    write_cache(path, header.replace("count=120", "count=39"), body)
    assert ch.load_candidates(path, 34560) is None        # fewer candidates than records
    write_cache(path, header, body[:-1], redigest=False)  # truncated: one line short
    assert ch.load_candidates(path, 34560) is None
    write_cache(path, header, body[:5] + [body[6], body[5]] + body[7:])
    assert ch.load_candidates(path, 34560) is None        # out of order


def test_cache_recheck(tmp_path):
    path = str(tmp_path / "census.txt")
    count, recs = ch.candidate_census(ch.enumerate_candidates(34560))
    ch.save_candidates(path, 34560, count, recs)
    header, body = read_cache(path)
    assert body[8] == "3,2;72;76"
    write_cache(path, header, body[:8] + ["3,2;72;77"] + body[9:])
    assert ch.load_candidates(path, 34560) is None        # one K changed
    write_cache(path, header, body, redigest=False)
    assert ch.load_candidates(path, 34560) == (count, recs)
    bad_digest = header[:-1] + ("0" if header[-1] != "0" else "1")
    write_cache(path, bad_digest, body, redigest=False)
    assert ch.load_candidates(path, 34560) is None        # digest mismatch
    write_cache(path, header.replace("count=120", "count=296"), body, redigest=False)
    assert ch.load_candidates(path, 34560) is None        # the digest covers the count
    for line in ("2,3;72;76", "3,2;73;76", "3,2,0;72;76", "200;72;76"):
        write_cache(path, header, body[:8] + [line] + body[9:])
        assert ch.load_candidates(path, 34560) is None, line   # N off its signature
    write_cache(path, header, body + ["9,3,1;69120;1540096"])
    assert ch.load_candidates(path, 34560) is None        # N above the bound
    # a cache in the old format, one line per candidate, is stale
    old = [f"# kalmar-candidates X=34560 version={ch.__version__} count=120"]
    old += [f"{','.join(map(str, c.signature))};{c.value};{c.k_value}"
            for c in sorted(ch.enumerate_candidates(34560), key=lambda c: c.value)]
    with open(path, "w") as fh:
        fh.write("\n".join(old) + "\n")
    assert ch.load_candidates(path, 34560) is None


def test_cache_missing_record(tmp_path):
    # the doubling law N_{i+1} <= 2 N_i (N_i >= 2) catches a deleted record
    # whenever the gap it leaves is wider than 2x, and 2 N_last > x catches
    # records missing from the end
    x = 10**12
    path = str(tmp_path / "census.txt")
    count, recs = ch.candidate_census(ch.enumerate_candidates(x))
    ch.save_candidates(path, x, count, recs)
    header, body = read_cache(path)
    assert [line.split(";")[1] for line in body[:8]] == ["1", "4", "6", "8", "12", "24", "36", "48"]
    for i in (4, 5):                                      # N = 12 (24/8 > 2), N = 24 (36/12 > 2)
        write_cache(path, header, body[:i] + body[i + 1:])
        assert ch.load_candidates(path, x) is None, body[i]
    write_cache(path, header, body[:3] + body[4:])        # N = 8: 6 -> 12 is no gap over 2x
    assert ch.load_candidates(path, x) is not None
    half = [line for line in body if 2 * int(line.split(";")[1]) <= x]
    write_cache(path, header, half)                       # every record above x/2 deleted
    assert ch.load_candidates(path, x) is None
    write_cache(path, header, body[:1])                   # N = 1 alone, but 4 <= x
    assert ch.load_candidates(path, x) is None
    small = ch.candidate_census(ch.enumerate_candidates(3))
    assert len(small[1]) == 1                             # N = 1 alone is the census at 3
    ch.save_candidates(path, 3, *small)
    assert ch.load_candidates(path, 3) == small
    write_cache(path, header, body)
    assert ch.load_candidates(path, x) == (count, recs)
