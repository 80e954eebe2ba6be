"""Constants module against independent oracles (mpmath, sieve sums)."""

import bisect
import math

import mpmath
import pytest

from kalmar import constants as cn
from kalmar import evans as ev
from kalmar import primes
from kalmar import verify as vf
from kalmar.errors import ConvergenceError, DomainError, ResourceLimitError
from kalmar.primes import first_primes, is_prime, iter_primes, sieve_primes

mpmath.mp.dps = 30


def test_nth_prime_values():
    assert first_primes(1)[-1] == 2
    assert first_primes(3)[-1] == 5
    assert first_primes(1000)[-1] == 7919


def test_nth_prime_capacity():
    with pytest.raises(ResourceLimitError):
        first_primes(10**9)  # p_k bound ~2.4e10 exceeds the cap before sieving


def test_sieve_against_trial_division():
    assert sieve_primes(100) == [n for n in range(2, 101) if is_prime(n)]


def test_sieve_views_against_is_prime():
    # Miller-Rabin shares no code with the sieve; the limits sit at every
    # bound up to 200, around segment edges and around squares of odd primes
    seg = 2 * primes._SEGMENT                  # integers per segment
    limits = [*range(201),
              *(k * seg + d for k in (1, 2, 3) for d in range(-1, 4)),
              *(p * p + d for p in (3, 5, 7, 11, 101, 181, 307) for d in (-1, 0, 1))]
    want = [n for n in range(max(limits) + 1) if is_prime(n)]
    for b in limits:
        upto = want[: bisect.bisect_right(want, b)]
        assert sieve_primes(b) == upto, b
        assert list(iter_primes(b)) == upto, b
    assert max(limits) > 3 * seg                 # the last range spans four segments


def test_prime_cache_growth(monkeypatch):
    monkeypatch.setattr(primes, "_primes", [])  # start from an empty cache
    monkeypatch.setattr(primes, "_sieved_to", 0)
    ref = sieve_primes(120_000)                 # p_10000 = 104729

    def upto(b):
        return ref[: bisect.bisect_right(ref, b)]

    # each bound extends the cache; 1009 and 1013 are the first primes past
    # an even end (1008) and an odd one (1011)
    grow = (1, 2, 3, 4, 9, 10, 1000, 1008, 1010, 1011, 1013, 32_771, 32_772, 70_000)
    held = [primes.primes_up_to(b) for b in grow]
    for k in (1, 5, 6, 7, 100, 2000, 10_000, 50, 3, 0):    # growing, then shrinking
        assert first_primes(k) == ref[:k], k
    for b in (120_000, 1013, 5, 0):
        assert primes.primes_up_to(b) == upto(b), b
    for b, got in zip(grow, held):              # lists handed out never change
        assert got == upto(b), b


def test_zeta_closed_forms():
    assert abs(cn.zeta(2.0) - math.pi**2 / 6) < 1e-14
    assert abs(cn.zeta(4.0) - math.pi**4 / 90) < 1e-14


def test_zeta_matches_mpmath():
    for i in range(60):
        s = 1.05 + i * 0.05
        ref = mpmath.zeta(s)
        refd = mpmath.zeta(s, derivative=1)
        v, d = cn._zeta_em(s)
        assert abs(v - float(ref)) < 1e-13, s
        assert abs(d - float(refd)) < 1e-11, s


def test_zeta_domain():
    with pytest.raises(DomainError):
        cn.zeta(1.0)
    with pytest.raises(DomainError):
        cn.zeta(0.3)


def test_zeta_truncated_values():
    assert abs(cn.zeta_truncated(1.0, 1) - 2.0) < 1e-14
    assert abs(cn.zeta_truncated(2.0, 1) - 4.0 / 3.0) < 1e-14
    assert abs(cn.zeta_truncated(60.0, 5) - 1.0) < 1e-15
    with pytest.raises(DomainError):
        cn.zeta_truncated(0.0, 3)
    with pytest.raises(DomainError):
        cn.zeta_truncated(2.0, 0)


def test_zeta_truncated_monotonicity():
    for k in (1, 3, 7):
        assert cn.zeta_truncated(1.4, k) > cn.zeta_truncated(1.6, k)
    for s in (1.2, 2.5):
        assert cn.zeta_truncated(s, 4) < cn.zeta_truncated(s, 9) < cn.zeta(s)


def test_solve_rho():
    assert cn.solve_rho(1) == 1.0       # zeta_1(1) = 2: Newton starts on the root
    assert abs(cn.solve_rho(10) - 1.69972) < 1e-5
    rho = cn.solve_rho("infinite")
    assert abs(rho - 1.728647238998) < 1e-12
    assert abs(cn.zeta(rho) - 2.0) < 1e-12
    assert abs(cn.zeta_truncated(cn.solve_rho(25), 25) - 2.0) < 1e-12
    with pytest.raises(DomainError):
        cn.solve_rho(0)


def test_newton_left_preconditions():
    assert cn._newton_left(lambda s: (1.0 - s, -1.0), 0.0) == 1.0
    with pytest.raises(ConvergenceError, match="not left of the root"):
        cn._newton_left(lambda s: (1.0 - s, -1.0), 2.0)
    # exp(-s) is decreasing and convex with no root: every step moves right
    with pytest.raises(ConvergenceError, match="did not settle"):
        cn._newton_left(lambda s: (math.exp(-s), -math.exp(-s)), 0.0)


# float.hex of the roots, bit for bit: a change to f, to L_k' or to the
# summation order of either shows here
_ROOTS_HEX = {
    # k: (rho_k, a_k)
    1: ("0x1.0000000000000p+0", "0x1.71547652b82fep+0"),
    2: ("0x1.6f6e7334fe351p+0", "0x1.71802615be7c0p+0"),
    3: ("0x1.90e76c976056bp+0", "0x1.5ce50c53e37dfp+0"),
    10: ("0x1.b3210a8441f82p+0", "0x1.31440e2637a4ap+0"),
    100: ("0x1.ba0140796d36dp+0", "0x1.1ce02e6d4ac08p+0"),
    1000: ("0x1.ba7aaa292147dp+0", "0x1.1a1a39f788930p+0"),
    cn.INFINITE: ("0x1.ba88a01dd1619p+0", "0x1.199ae95371cefp+0"),
}


def test_roots_bitwise():
    for k, (rho_hex, a_hex) in _ROOTS_HEX.items():
        assert (cn.solve_rho(k).hex(), cn.lagrange_scale(k).hex()) == (rho_hex, a_hex), k
    assert ev.solve_c([1.0, 2.0]).hex() == "0x1.c7e0f66afed07p+1"
    assert ev.solve_c([0.5, 3.25, 1e-3]).hex() == "0x1.09394854da7eap+2"
    assert ev.solve_c([0.1 * (i + 1) for i in range(20)]).hex() == "0x1.d9ef26c9ac138p+4"


def test_lagrange_scale():
    assert abs(cn.lagrange_scale(1) - 1.44269) < 1e-5
    assert abs(cn.lagrange_scale(100) - 1.11279) < 1e-5
    a = cn.lagrange_scale("infinite")
    assert abs(a - 1.100020011) < 1e-9
    # identity route vs mpmath: a = -2 / zeta'(rho)
    rho = mpmath.findroot(lambda s: mpmath.zeta(s) - 2, mpmath.mpf("1.73"))
    assert abs(a - float(-2 / mpmath.zeta(rho, derivative=1))) < 1e-12


def test_scale_agrees_with_sieve_sum():
    a = cn.lagrange_scale()
    chk = cn.prime_sum_check(10**6)
    value, err = chk["inv_a"]
    assert abs(value - 1.0 / a) < 3 * err + 1e-9


def test_sieve_sums_stream_bit_identical():
    # the same floats as summing over the whole prime list, tail included
    bound = 10**6
    rho = cn.solve_rho(cn.INFINITE)
    inv_a = b_sum = t0 = 0.0
    for p in sieve_primes(bound):
        q = math.exp(rho * math.log(p))
        inv_a += math.log(p) / (q - 1.0)
        b_sum += 1.0 / (q - 1.0)
        t0 += 1.0 / q
    lp = math.log(float(bound))
    base = float(bound) ** (1.0 - rho) / (rho - 1.0)
    cor = 1.0 / ((rho - 1.0) * lp)
    weighted = base / lp * (1.0 - cor)
    assert cn.prime_sum_check(bound) == {
        "inv_a": (inv_a + base, base * cor),
        "b_sum": (b_sum + weighted, weighted * cor),
        "T0": (t0 + weighted, weighted * cor),
    }
    assert list(iter_primes(bound)) == sieve_primes(bound)   # spans 31 segments
    for small in (0, 1, 2, 3, 4, 10, 97, 10007):
        assert list(iter_primes(small)) == sieve_primes(small)
    with pytest.raises(ResourceLimitError, match="capacity"):
        cn.prime_sum_check(10**9)


def test_model_constants_against_mpmath():
    tab = cn.model_constants()
    rho = mpmath.findroot(lambda s: mpmath.zeta(s) - 2, mpmath.mpf("1.73"))
    t0_ref = float(mpmath.primezeta(rho))
    b_ref = float(-2 / mpmath.zeta(rho, derivative=1)
                  * mpmath.nsum(lambda m: mpmath.primezeta(m * rho), [1, mpmath.inf]))
    assert abs(tab.T0 - t0_ref) < 1e-10
    assert abs(tab.b - b_ref) < 1e-10
    assert abs(tab.B0 - math.sqrt(2 * tab.a / tab.T0)) < 1e-14
    assert abs(tab.delta - 0.5 * (1 + 1 / tab.rho)) < 1e-15
    assert abs(tab.mu - (tab.delta - 1 / tab.rho)) < 1e-15
    assert 0 < tab.mu < tab.delta < 1
    assert abs(tab.kappa_max - tab.rho * tab.a ** (1 / tab.rho)) < 1e-14


def test_beta_accessor():
    tab = cn.model_constants()
    assert abs(tab.beta_profile(1)[-1] - tab.a / (2**tab.rho - 1)) < 1e-15
    assert abs(tab.beta_profile(3)[-1] - tab.a / (5**tab.rho - 1)) < 1e-15
    prof = tab.beta_profile(50)
    assert len(prof) == 50 and all(x > y for x, y in zip(prof, prof[1:]))
    assert sum(prof) < tab.b


def test_prime_zeta_matches_mpmath():
    for s in (1.3, 1.7286472389981836, 2.0, 3.5, 10.0, 31.0):
        assert abs(cn.prime_zeta(s) - float(mpmath.primezeta(s))) < 1e-13, s


def _gaps(k):
    """rho - rho_k, a_k - a and their scaled forms, which tend (slowly) to
    a/(rho-1) and 1: (rho - rho_k) k^(rho-1) (log k)^rho and
    (a_k - a) (rho-1) (k log k)^(rho-1) / a^2."""
    rho, a = cn.solve_rho(), cn.lagrange_scale()
    rho_gap = rho - cn.solve_rho(k)
    a_gap = cn.lagrange_scale(k) - a
    lk = math.log(k)
    return (rho_gap, a_gap, rho_gap * k ** (rho - 1.0) * lk ** rho,
            a_gap * (rho - 1.0) * (k * lk) ** (rho - 1.0) / (a * a))


def test_gap_report():
    assert abs(cn.solve_rho(2) - 1.43527) < 1e-5
    assert abs(_gaps(1000)[0] - 0.00021) < 1e-5
    assert abs(_gaps(100)[1] - 0.01277) < 1e-5
    for k in (2, 100, 1000):
        rho_gap, a_gap, rho_gap_scaled, a_gap_scaled = _gaps(k)
        assert rho_gap > 0 and a_gap > 0
        assert rho_gap_scaled > 0 and a_gap_scaled > 0


def test_gap_scaled_columns_drift_toward_limits():
    # rho column tends to a/(rho-1), the a column to 1; slow, trend only
    rows = [_gaps(k) for k in (50, 200, 800)]
    target = cn.rho_gap_coefficient()
    d = [abs(r[2] - target) for r in rows]
    assert d[0] > d[-1]
    da = [abs(r[3] - 1.0) for r in rows]
    assert da[0] > da[-1]


def test_monotone_invariant_small():
    res = vf.check_constants_monotone(60)
    assert res.ok, res.detail


def test_root_residuals():
    for k in (1, 2, 17, 300):
        assert abs(cn.zeta_truncated(cn.solve_rho(k), k) - 2.0) <= 1e-11


def test_rho_gap_coefficient_value():
    assert abs(cn.rho_gap_coefficient() - 1.509) < 1e-3


def test_first_primes_prefix_stability():
    assert first_primes(5) == [2, 3, 5, 7, 11]
    assert first_primes(8)[:5] == [2, 3, 5, 7, 11]
