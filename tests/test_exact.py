"""Exact K against brute-force enumeration and the unreorganized formula."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from kalmar import exact as ex
from kalmar import verify as vf
from kalmar.errors import PreconditionError, ResourceLimitError
from kalmar.primes import first_primes


def brute_ordered_factorizations(n: int) -> int:
    """Count n = x_1 x_2 ... x_r with all x_i >= 2 by direct recursion."""
    if n == 1:
        return 1

    def rec(m: int) -> int:
        count = 1                      # the single-factor writing (m)
        for d in range(2, m):
            if m % d == 0:
                count += rec(m // d)
        return count

    return rec(n)


def macmahon_double_sum(sig) -> int:
    """The formula as a literal double sum, no grouping."""
    om = sum(sig)
    if om == 0:
        return 1
    total = 0
    for j in range(1, om + 1):
        for i in range(j):
            term = (-1) ** i * math.comb(j, i)
            for a in sig:
                term *= math.comb(a + j - i - 1, a)
            total += term
    return total


def tau_by_divisor_recursion(n: int, r: int) -> int:
    """tau_r(n) = sum_{d|n} tau_{r-1}(d), ground truth on raw integers."""
    if r == 0:
        return 1 if n == 1 else 0
    if r == 1:
        return 1
    return sum(tau_by_divisor_recursion(d, r - 1)
               for d in range(1, n + 1) if n % d == 0)


def test_signature_helpers():
    assert ex.signature_of(12) == (2, 1)
    assert ex.signature_of(1) == ()
    assert ex.canonical_signature([1, 3, 2, 0]) == (3, 2, 1)
    with pytest.raises(PreconditionError):
        ex.canonical_signature([2, -1])


def test_macmahon_examples():
    assert ex.kalmar_macmahon((2, 1)) == 8
    assert ex.kalmar_macmahon(()) == 1
    for alpha in range(1, 30):
        assert ex.kalmar_macmahon((alpha,)) == 2 ** (alpha - 1)


def test_recursive_examples():
    assert ex.kalmar_recursive((1, 1)) == 3
    assert ex.kalmar_recursive((3, 1)) == 20
    assert ex.kalmar_recursive((3, 2, 1)) == 604


def test_recursive_capacity(monkeypatch):
    monkeypatch.setattr(ex, "RECURSIVE_MAX_MEMO", len(ex._MEMO))
    with pytest.raises(ResourceLimitError):
        ex.kalmar_recursive((30, 29, 28, 27, 26, 25))


def test_recursive_memo_capacity(monkeypatch):
    # within the step cap, so only the memo cap can stop it
    assert ex.recursive_steps((9, 9, 9, 9)) <= ex.RECURSIVE_MAX_STEPS
    monkeypatch.setattr(ex, "RECURSIVE_MAX_MEMO", len(ex._MEMO))
    with pytest.raises(ResourceLimitError, match="memo"):
        ex.kalmar_recursive((9, 9, 9, 9))


def test_recursive_work_guard():
    def counted_steps(sig):
        seen, steps = set(), 0

        def walk(s):
            nonlocal steps
            if s in seen or not s:
                return
            seen.add(s)
            for sub in itertools.product(*(range(a + 1) for a in s)):
                steps += 1
                walk(ex.canonical_signature(sub))
        walk(sig)
        return steps

    for sig in ((), (1,), (2, 1), (3, 2, 1), (1, 1, 1, 1), (5, 3, 3, 1), (4, 4, 2, 2, 1)):
        assert ex.recursive_steps(sig) == counted_steps(sig), sig
    assert max(ex.recursive_steps(sig) for om in range(13)
               for sig in ex.signatures_with_omega(om)) <= ex.RECURSIVE_MAX_STEPS
    big = (40, 25, 17, 12, 9, 8, 6, 5, 4, 3, 3, 2, 2, 2, 1)
    with pytest.raises(ResourceLimitError, match="steps"):
        ex.kalmar_recursive(big)
    assert big not in ex._MEMO


def test_methods_agree_small_omega():
    for om in range(10):
        for sig in ex.signatures_with_omega(om):
            k = ex.kalmar_macmahon(sig)
            assert k == ex.kalmar_recursive(sig)
            assert k == macmahon_double_sum(sig)
            lo, hi = ex.kalmar_series_bounds(sig, max(64, 3 * om))
            assert lo <= k <= hi


def test_against_brute_force():
    for n in range(1, 201):
        assert ex.kalmar_macmahon(ex.signature_of(n)) == brute_ordered_factorizations(n)


def test_signature_only_dependence():
    # 2^3 * 3 and 2 * 3^3 share the signature (3, 1)
    assert ex.signature_of(24) == ex.signature_of(54) == (3, 1)
    assert ex.kalmar_macmahon(ex.signature_of(24)) == ex.kalmar_macmahon(ex.signature_of(54))


def test_tau_r():
    assert ex.tau_r((2, 1), 2) == 6          # d(12)
    assert ex.tau_r((7, 3), 1) == 1
    assert ex.tau_r((), 0) == 1
    assert ex.tau_r((1,), 0) == 0
    for n in (1, 2, 6, 12, 30, 36, 49):
        sig = ex.signature_of(n)
        for r in range(5):
            assert ex.tau_r(sig, r) == tau_by_divisor_recursion(n, r), (n, r)
    with pytest.raises(PreconditionError):
        ex.tau_r((1,), -1)


def test_series_bounds():
    lo, hi = ex.kalmar_series_bounds((2, 1), 60)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo <= 8 <= hi and hi - lo < 1
    lo, hi = ex.kalmar_series_bounds((), 1)
    assert lo <= 1 <= hi
    lo, hi = ex.kalmar_series_bounds((1,), 40)
    assert lo <= 1 <= hi
    with pytest.raises(PreconditionError):
        ex.kalmar_series_bounds((2, 1), 2)       # R < Omega
    with pytest.raises(PreconditionError):
        ex.kalmar_series_bounds((8, 8, 8), 24)   # tail ratio >= 1


def test_series_bracket_against_tau_r():
    # the stepped integer partial sum gives the bracket summed term by term
    # over the public tau_r, repeated exponents included
    for sig, R in (((), 0), ((), 5), ((1,), 40), ((2, 1), 60), ((3, 3, 1), 64),
                   ((2, 2, 2, 2), 100), ((5, 5, 2, 2, 2), 200), ((1,) * 12, 129)):
        om = sum(sig)
        lower = sum(Fraction(ex.tau_r(sig, r), 2 ** (r + 1)) for r in range(R + 1))
        q = Fraction(R + 2, R + 1) ** om / 2
        upper = lower + Fraction((R + 1) ** om, 2 ** (R + 1)) / (1 - q) / 2
        got = ex.kalmar_series_bounds(sig, R)
        assert got == (lower, upper) and all(type(v) is Fraction for v in got), (sig, R)


def test_series_exact():
    for sig in ((), (1,), (2, 1), (3, 2, 1), (8, 3, 1)):
        assert ex.kalmar_series_exact(sig) == ex.kalmar_macmahon(sig)


def test_weight_recurrence():
    for om in range(1, 61):
        explicit = tuple(sum((-1) ** (j - m) * math.comb(j, m) for j in range(m, om + 1))
                         for m in range(1, om + 1))
        assert ex._weights(om) == explicit, om


def test_tau_star_column_and_taus():
    for a in range(6):
        assert ex.tau_star_column(a, 9) == [math.comb(a + m - 1, a) for m in range(1, 10)]
    assert ex.tau_star_column(3, 0) == []
    sig = (3, 2, 2)
    ks = [ex.kalmar_macmahon(sig + (1,) * k) for k in range(6)]
    assert ex.kalmar_powers(ks, [1]) == [[ex.kalmar_macmahon(sig + (2,)),
                                          ex.kalmar_macmahon(sig + (2, 1))]]
    with pytest.raises(PreconditionError):
        ex.kalmar_powers(ks[:3], [1])              # h+2+1 reads K(h+1^3)
    with pytest.raises(PreconditionError):
        ex.kalmar_powers(ks[:5], [0, 2])           # only h+3+1^2 overruns: K(h+1^5)


def census_heads(rng, count):
    """The root and random census-shaped heads: a_1 up to 88 as at X20, up
    to 12 parts, each with R up to 26 and child rooms up to 24."""
    for i in range(count):
        head: tuple[int, ...] = ()
        if i:
            a = rng.randint(2, 88)
            head = (a,)
            while len(head) < 12 and rng.random() < 0.6:
                a = rng.randint(2, a)
                head += (a,)
        top = rng.randint(2, 26)
        rooms = [rng.randint(0, min(24, top - e)) for e in range(2, rng.randint(3, top + 1))]
        if i % 2:
            rooms[-1] = top - len(rooms) - 1     # the last child reads ks[top]
        yield head, top, rooms


def test_powers_match_macmahon():
    # every entry of every child vector against MacMahon's sum
    rng = random.Random(26)
    for head, top, rooms in census_heads(rng, 40):
        ks = [ex.kalmar_macmahon(head + (1,) * k) for k in range(top + 1)]
        got = ex.kalmar_powers(ks, rooms)
        assert len(got) == len(rooms)
        for e, (r, vec) in enumerate(zip(rooms, got), 2):
            assert vec == [ex.kalmar_macmahon(head + (e,) + (1,) * j)
                           for j in range(r + 1)], (head, e)
    with pytest.raises(PreconditionError):
        ex.kalmar_powers([1, 1, 3], [-1])            # a room below 0
    with pytest.raises(PreconditionError):
        ex.kalmar_powers([1, 1, 3, 13, 75, 541], [1, 2, 1, -1])   # a later one


def test_powers_closed_forms():
    # from the root, K(1^k) seeds K(p^e) = 2^(e-1) and K(p^e q) = (e+2) 2^(e-1)
    root = [ex.kalmar_macmahon((1,) * k) for k in range(62)]
    assert root[:6] == [1, 1, 3, 13, 75, 541]        # the ordered Bell numbers
    kids = ex.kalmar_powers(root, [1] * 59)
    for e, (pe, peq) in enumerate(kids, 2):
        assert (pe, peq) == (2 ** (e - 1), (e + 2) * 2 ** (e - 1)), e
    assert ex.kalmar_powers(root, []) == []


def test_macmahon_work_guard():
    cap = ex.MACMAHON_MAX_OMEGA
    assert ex.kalmar_macmahon((1,) * 4 + (cap - 4,)) > 0
    for sig in ((cap + 1,), (1,) * (cap + 1), (10**6,)):
        with pytest.raises(ResourceLimitError, match="cap"):
            ex.kalmar_macmahon(sig)


def test_macmahon_large_omega_against_series():
    from kalmar.optimize import witness_m
    rng = random.Random(2007)
    sigs = [witness_m(1000.0).m_signature]          # Omega = 933
    for om in (rng.randint(200, 933), rng.randint(200, 400)):
        parts = []
        while om:
            parts.append(rng.randint(1, min(om, 120)))
            om -= parts[-1]
        sigs.append(ex.canonical_signature(parts))
    assert sum(sigs[0]) == 933
    for sig in sigs:
        assert ex.kalmar_macmahon(sig) == ex.kalmar_series_exact(sig), sig


def test_kp_multinomial():
    assert ex.kp_multinomial((2, 1)) == 3
    assert ex.kp_multinomial((7,)) == 1
    assert ex.kp_multinomial((1, 1, 1)) == 6
    for om in range(9):
        for sig in ex.signatures_with_omega(om):
            assert ex.kp_multinomial(sig) <= ex.kalmar_macmahon(sig)


def brute_eulerian(n: int) -> list[int]:
    from itertools import permutations
    row = [0] * n
    for perm in permutations(range(n)):
        row[sum(1 for i in range(n - 1) if perm[i] < perm[i + 1])] += 1
    return row


def test_eulerian_rows():
    assert ex.eulerian_row(1) == [1]
    assert ex.eulerian_row(2) == [1, 1]
    assert ex.eulerian_row(3) == [1, 4, 1]
    for n in range(1, 8):
        assert ex.eulerian_row(n) == brute_eulerian(n)


def test_eulerian_checksum():
    assert ex.eulerian_checksum(1) == (1, 1)
    assert ex.eulerian_checksum(2) == (3, 3)
    assert ex.eulerian_checksum(3) == (13, 13)
    ex.eulerian_checksum(200)
    with pytest.raises(PreconditionError):
        ex.eulerian_checksum(201)
    with pytest.raises(PreconditionError):
        ex.eulerian_checksum(0)


def test_doubling_small():
    for n in range(2, 2001):
        kn = ex.kalmar_macmahon(ex.signature_of(n))
        k2n = ex.kalmar_macmahon(ex.signature_of(2 * n))
        assert k2n > kn, n


def test_supermultiplicativity_small():
    for n in range(2, 60):
        for m in range(n, 60):
            knm = ex.kalmar_macmahon(ex.signature_of(n * m))
            assert knm >= 2 * ex.kalmar_macmahon(ex.signature_of(n)) \
                * ex.kalmar_macmahon(ex.signature_of(m)), (n, m)


def test_product_signature_codes():
    # verify's supermultiplicative check gets sig(n m) as code(n a) + code(m/a)
    codes = vf._sig_codes(200)
    for n in range(2, 201):
        got = [vf._code_sig(code) for code in vf._product_codes(n, codes)]
        assert got == [ex.signature_of(n * m) for m in range(n, 201)], n
    assert vf._code_sig(vf._sig_code((9, 3, 3, 1))) == (9, 3, 3, 1)
    assert vf._sig_code(()) == 0 and vf._code_sig(0) == ()


def test_power_bound_small():
    rho = 1.7286472389981836
    for n in range(2, 2001):
        k = ex.kalmar_macmahon(ex.signature_of(n))
        assert 2 * k <= n**rho, n
