"""Champion enumeration, census, stats, laws, and the census cache."""

import gc
import hashlib
import inspect
import itertools
import math
import os
import random
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
    monkeypatch.setattr(ch, "MAX_CANDIDATES", 10)
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
    parent, tail = os.getpid(), ex.kalmar_tail

    def failing_tail(*args):
        if os.getpid() != parent:
            raise ArithmeticError("worker kernel")
        return tail(*args)

    monkeypatch.setattr(ch, "kalmar_tail", failing_tail)
    with pytest.raises(RuntimeError, match="ArithmeticError: worker kernel"):
        list(ch.enumerate_candidates(x))
    assert_no_child()

    def dying_tail(*args):                      # no frame at all
        if os.getpid() != parent:
            os._exit(3)
        return tail(*args)

    monkeypatch.setattr(ch, "kalmar_tail", dying_tail)
    with pytest.raises(RuntimeError, match="ended without sending"):
        list(ch.enumerate_candidates(x))
    assert len(forks) == 4
    assert_no_child()


def ended_child_status(timeout):
    """Exit status of a child that has ended, left unreaped; None on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        info = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        if info is not None:
            return info.si_status
        time.sleep(0.01)
    return None


def test_forked_worker_limits(monkeypatch):
    forks = force_path(monkeypatch, True)
    monkeypatch.setattr(ch, "MAX_CANDIDATES", 30_000)
    with pytest.raises(ResourceLimitError):
        list(ch.enumerate_candidates(10**18))
    assert len(forks) == 1
    assert_no_child()
    # the worker stops once its own count passes the cap: the caller is
    # still in its first subtree (31 candidates counted) when the worker,
    # past 100 in the a_1 = 3 subtree, has ended with status 1
    monkeypatch.setattr(ch, "MAX_CANDIDATES", 100)
    gen = ch.enumerate_candidates(10**18)
    next(itertools.islice(gen, 16, None))       # the root's block has 16
    assert len(forks) == 2
    assert ended_child_status(30) == 1
    with pytest.raises(ResourceLimitError):
        list(gen)
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
    edges = [C((), 7, 5), C((), 8, 5), C((), 6, 3), C((), 9, 6), C((), 15, 6),
             C((), 16, 6), C((), 17, 7), C((), 1, 1), C((), 31, 7), C((), 32, 8)]
    check(edges)
    check(edges[::-1])
    for _ in range(200):
        values = rng.sample(range(1, 300), rng.randint(1, 40))
        check([C((), v, rng.randint(1, 6)) for v in values])


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
    # a held candidate list costs under 200 B per candidate: the object, a
    # bytes signature, N and K (about 211 B with tuple signatures)
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
    assert held / len(cands) <= 200, held / len(cands)


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
    champs = ch.find_champions(34560)
    rec = champs[-1]
    assert rec.rank == 40
    assert rec.omega == 3 and rec.big_omega == 12 and rec.last_exponent == 1
    profile = dict(rec.p_profile)
    assert profile[1] == 5 and profile[2] == 3 and profile[3] == 3
    assert all(profile[j] == 2 for j in range(4, 9))
    first = champs[0]
    assert first.last_exponent is None and first.p_profile == ()


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
    assert len(st.exponent_residuals) == 3
    assert dict(st.p_profile_ratios)[1] > 0
    empty = ch.champion_stats(champs[0], tab)
    assert empty.omega_residual is None and empty.exponent_residuals == ()


def test_small_oracle():
    res = vf.check_champion_small_oracle(2000)
    assert res.ok, res.detail


def test_determinism():
    a = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(5000)]
    b = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(5000)]
    assert a == b


def test_census_monotone():
    res = vf.check_census_monotone((10, 1000, 10_000))
    assert res.ok, res.detail


def test_census_alpha_gt1():
    cen = ch.census(34560)
    gt1 = [r for r in ch.find_champions(34560)
           if r.last_exponent is not None and r.last_exponent > 1]
    assert cen.alpha_gt1_count == len(gt1)
    assert cen.largest_alpha_gt1.candidate.value == max(r.candidate.value for r in gt1)


def test_candidate_layout():
    # three slots and no __dict__: the census holds one per candidate
    class ThreeSlots:
        __slots__ = ("a", "b", "c")

    c = ch.Candidate((2, 1), 12, 8)
    assert not hasattr(c, "__dict__")
    assert sys.getsizeof(c) <= sys.getsizeof(ThreeSlots())
    twin = ch.Candidate((2, 1), 12, 8)
    assert c == twin and c is not twin and hash(c) == hash(twin)
    assert hash(c) == hash(((2, 1), 12, 8))
    assert c != ch.Candidate((2, 1), 12, 9) and c != ch.Candidate((3,), 12, 8)
    assert c != ((2, 1), 12, 8)                 # not a tuple
    assert len({c, twin, ch.Candidate((), 1, 1)}) == 2
    assert repr(c) == "Candidate(signature=(2, 1), value=12, k_value=8)"


def test_candidate_signature_storage():
    # bytes or tuple in, the same candidate out; .signature is always a tuple
    # (the K values here are not checked)
    for sig, n, k in (((2, 1), 12, 8), ((), 1, 1), ((255, 3), 2**255 * 27, 1)):
        a, b = ch.Candidate(sig, n, k), ch.Candidate(bytes(sig), n, k)
        assert a == b and hash(a) == hash(b) == hash((sig, n, k))
        assert type(a.signature) is tuple and a.signature == b.signature == sig
    big = ch.Candidate((300,), 2**300, 2**299)  # an exponent that fits no byte
    assert big.signature == (300,) and type(big.signature) is tuple
    assert big == ch.Candidate([300], 2**300, 2**299)
    assert ch.Candidate((), 1, 1).signature == ()
    assert next(ch.enumerate_candidates(1)).signature == ()
    # above 2^256 the root's heads reach exponent 300 and are built without
    # error; the first 100 candidates (the root's 1-tail, then the (2,)
    # subtree, all exponents < 256) re-multiply and have exact K
    for c in itertools.islice(ch.enumerate_candidates(2**300), 100):
        assert c.value == math.prod(map(pow, first_primes(len(c.signature) or 1), c.signature))
        assert c.k_value == ex.kalmar_macmahon(c.signature)


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
        header = f"{head} crc32={zlib.crc32(text.encode()):08x}"
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
