"""Analytic kernel: closed forms, derivative checks, estimate invariants."""

import math
import random

import pytest

from kalmar import constants as cn
from kalmar import evans as ev
from kalmar import exact as ex
from kalmar import verify as vf
from kalmar.errors import DomainError, ResourceLimitError

R2 = math.sqrt(2.0)


def test_solve_c_closed_forms():
    assert ev.solve_c([5.0]) == 5.0
    assert abs(ev.solve_c([1.0, 1.0]) - (1 + R2)) < 1e-14
    assert ev.solve_c([0.0, 0.0]) == 0.0
    assert ev.solve_c([]) == 0.0
    assert abs(ev.solve_c([2.0, 0.0, 1.0, 0.0]) - ev.solve_c([2.0, 1.0])) < 1e-15
    for bad in ([1.0, -0.5], [math.nan, 1.0], [math.inf, 1.0]):
        with pytest.raises(DomainError):
            ev.solve_c(bad)
    big = [8e307, 5e307]                # t + x_j would overflow; c stays finite
    c = ev.solve_c(big)
    assert abs(math.fsum(math.log1p(v / c) for v in big) - math.log(2)) < 1e-15
    assert 0.5 <= ev.t_of(big) <= 1.0   # and so do T and the gradients
    for i in (0, 1):
        assert 0.0 <= ev.grad_c(big, i) <= 2.0
        assert 0.0 < ev.grad_f(big, i) < math.inf
    # the form is homogeneous of degree -1 in x, and finite near the limit
    form = ev.hessian_form(big, [1.0, -1.0])
    assert abs(form / (1e-307 * ev.hessian_form([8.0, 5.0], [1.0, -1.0])) - 1.0) < 1e-12


def test_evans_point():
    pt = ev.evans_point([2.0, 0.0, 1.0])         # zeros kept, c and T unchanged
    assert pt.x == (2.0, 0.0, 1.0)
    assert (pt.c, pt.t) == (ev.solve_c([2.0, 1.0]), ev.t_of([2.0, 1.0]))
    assert pt.grad_c(1) == 1.0 / pt.t
    pt = ev.evans_point([0.0, 0.0])
    assert pt.c == 0.0 and pt.f() == 0.0 == ev.f_of([0.0, 0.0])
    for call in (lambda: pt.nonzero("T"), lambda: ev.t_of([0.0, 0.0]),
                 lambda: pt.grad_c(0), lambda: ev.grad_c([0.0, 0.0], 0),
                 lambda: pt.grad_f(1), lambda: ev.grad_f([0.0, 0.0], 1),
                 lambda: pt.hessian_form([1.0, 1.0]),
                 lambda: ev.hessian_form([0.0, 0.0], [1.0, 1.0]),
                 lambda: pt.estimate(), lambda: ev.evans_estimate([0.0, 0.0]),
                 lambda: ev.hessian_form([], [])):
        with pytest.raises(DomainError):
            call()


def test_checks_solve_once_per_point(monkeypatch):
    solved = []
    solve = ev._solve_checked               # behind both solve_c and evans_point
    monkeypatch.setattr(ev, "_solve_checked", lambda x: solved.append(x) or solve(x))
    for check in (lambda: vf.check_gradients(points=20), lambda: vf.check_lipschitz(pairs=50)):
        solved.clear()
        assert check().ok
        assert solved and len(solved) == len(set(solved))


def test_c_bracket_and_scaling():
    rng = random.Random(5)
    for _ in range(300):
        x = [rng.uniform(0.01, 5.0) for _ in range(rng.randint(1, 15))]
        om = sum(x)
        c = ev.solve_c(x)
        assert om - 1e-9 <= c <= om / math.log(2) + 1e-9
        lam = rng.uniform(0.2, 20.0)
        assert abs(ev.solve_c([lam * v for v in x]) - lam * c) <= 1e-12 * lam * c


def test_t_of():
    assert ev.t_of([3.0]) == 0.5
    assert abs(ev.t_of([1.0, 1.0]) - 2 / (2 + R2)) < 1e-14
    with pytest.raises(DomainError):
        ev.t_of([0.0, 0.0])


def test_t_range_random():
    rng = random.Random(6)
    for _ in range(500):
        x = [rng.uniform(0.001, 8.0) for _ in range(rng.randint(1, 20))]
        assert 0.5 <= ev.t_of(x) <= 1.0 + 1e-12


def test_grad_c():
    assert abs(ev.grad_c([4.0], 0) - 1.0) < 1e-14
    t = 2 / (2 + R2)
    assert abs(ev.grad_c([1.0, 1.0], 0) - (1 / t) * (1 + R2) / (2 + R2)) < 1e-13
    rng = random.Random(7)
    for _ in range(300):
        x = [rng.uniform(0.01, 5.0) for _ in range(rng.randint(1, 10))]
        g = ev.grad_c(x, rng.randrange(len(x)))
        assert -1e-12 <= g <= 2.0 + 1e-12


def test_f_of():
    assert abs(ev.f_of([3.0]) - 3 * math.log(2)) < 1e-14
    assert abs(ev.f_of([1.0, 1.0]) - 2 * math.log(2 + R2)) < 1e-14
    assert ev.f_of([0.0, 0.0]) == 0.0
    assert ev.f_of([]) == 0.0
    assert abs(ev.f_of([1.0, 1.0, 0.0]) - ev.f_of([1.0, 1.0])) < 1e-15


def test_grad_f():
    assert abs(ev.grad_f([7.0], 0) - math.log(2)) < 1e-14
    assert abs(ev.grad_f([1.0, 1.0], 0) - math.log(2 + R2)) < 1e-14
    with pytest.raises(DomainError):
        ev.grad_f([1.0, 0.0], 1)


def test_gradients_match_finite_differences(monkeypatch):
    monkeypatch.setattr(vf, "GRADIENTS_SEED", 99)
    res = vf.check_gradients(120)
    assert res.ok, res.detail


def test_hessian_form():
    assert ev.hessian_form([1.0, 1.0], [0.0, 0.0]) == 0.0
    c = 1 + R2
    assert abs(ev.hessian_form([1.0, 1.0], [1.0, -1.0]) - (-2 * c / (c + 1))) < 1e-13
    with pytest.raises(DomainError):
        ev.hessian_form([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        ev.hessian_form([1.0, 1.0], [1.0])
    rng = random.Random(8)
    for _ in range(1500):
        n = rng.randint(1, 8)
        x = [rng.uniform(1e-3, 1.0) for _ in range(n)]
        h = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        assert ev.hessian_form(x, h) <= 1e-12


def test_hessian_matches_finite_differences():
    # directional second derivative of F vs the closed quadratic form
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(2, 6)
        x = [rng.uniform(0.5, 3.0) for _ in range(n)]
        h = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        eps = 1e-4
        xp = [v + eps * d for v, d in zip(x, h)]
        xm = [v - eps * d for v, d in zip(x, h)]
        fd = (ev.f_of(xp) - 2 * ev.f_of(x) + ev.f_of(xm)) / eps**2
        assert abs(fd - ev.hessian_form(x, h)) < 1e-4 * max(1.0, abs(fd))


def test_stirling():
    def stirling(x):
        return math.exp(ev.log_stirling_s(x))

    assert abs(stirling(1.0) - math.e) < 1e-14
    assert abs(stirling(2.0) - math.e**2 / 2) < 1e-13
    assert stirling(0.0) == 1.0
    with pytest.raises(DomainError):
        stirling(-0.1)
    for j in range(1, 40):
        lhs = stirling(j + 1.0) / stirling(float(j))
        rhs = math.e * (j / (j + 1)) ** j
        assert abs(lhs - rhs) < 1e-12 * rhs
    for i in range(1, 200):
        x = 1.0 + i * 0.5
        s = stirling(x)
        assert math.sqrt(2 * math.pi * x) <= s <= math.e * math.sqrt(x)


def test_lipschitz_bounds(monkeypatch):
    monkeypatch.setattr(vf, "LIPSCHITZ_SEED", 123)
    res = vf.check_lipschitz(1500)
    assert res.ok, res.detail


def test_prefix_truncation_monotone():
    rng = random.Random(10)
    for _ in range(200):
        x = [rng.uniform(0.01, 3.0) for _ in range(rng.randint(2, 12))]
        full = ev.solve_c(x)
        prev = 0.0
        for k in range(1, len(x) + 1):
            ck = ev.solve_c(x[:k])
            assert prev <= ck <= full + 1e-12
            prev = ck


def test_evans_estimate_at_single_one():
    est = ev.evans_estimate([1.0])
    assert abs(est.estimate - math.sqrt(2 * math.pi) / math.e) < 1e-14
    assert abs(1 / est.estimate - 1.0844375514192277) < 1e-12


def test_evans_estimate_prime_power():
    for r in (1, 2, 5, 12):
        est = ev.evans_estimate([float(r)])
        assert abs(est.b - 2 * math.sqrt(r)) < 1e-12
        assert est.t == 0.5


def test_evans_estimate_zero_entries_benign():
    a = ev.evans_estimate([2.0, 1.0])
    b = ev.evans_estimate([2.0, 0.0, 1.0])
    assert abs(a.log_estimate - b.log_estimate) < 1e-12
    with pytest.raises(DomainError):
        ev.evans_estimate([0.0, 0.0])


def test_estimate_ratio_for_66():
    est = ev.evans_estimate([1.0, 1.0])
    ratio = 3 / est.estimate
    assert 1.0 <= ratio <= 1.0845


def test_log_a_matches_direct_product_form():
    rng = random.Random(11)
    for _ in range(100):
        x = [rng.uniform(0.05, 6.0) for _ in range(rng.randint(1, 10))]
        est = ev.evans_estimate(x)           # internal cross-check would raise
        om = sum(x)
        c = est.c
        direct = -1.5 * math.log(2) - om + sum(
            v * math.log(c + v) - math.lgamma(v + 1) for v in x)
        assert abs(direct - est.log_a) <= 1e-10 * max(1.0, abs(est.log_a))


def test_ratio_scan(monkeypatch):
    rows = ev.ratio_scan(8)
    assert rows[0].argmin == (1,) and rows[0].argmax == (1,)
    assert rows[3].argmin == (4,) and rows[3].argmax == (1, 1, 1, 1)
    for r in rows:
        assert 1.0 < r.min_ratio <= r.max_ratio < 1.09
    monkeypatch.setattr(ev, "RATIO_SCAN_MAX_OMEGA", 20)
    with pytest.raises(ResourceLimitError):
        ev.ratio_scan(30)
    with pytest.raises(DomainError):
        ev.ratio_scan(0)


def test_ratio_scan_refuses_before_any_k(monkeypatch):
    # omega_max = 49 passes the cap of 48 (sum_{r<=49} p(r) = 1 091 744
    # signatures, above 10^6); the refusal comes before the scan, so no K is computed
    def fail(sig):
        raise AssertionError(f"K computed for {sig}")

    monkeypatch.setattr(ev, "kalmar_macmahon", fail)
    with pytest.raises(ResourceLimitError):
        ev.ratio_scan(49)


def test_c_of_beta_profile_approaches_a():
    # the profile beta_i = a/(p_i^rho - 1) satisfies c(beta) = a in the limit
    tab = cn.model_constants()
    prev = 0.0
    for k in (100, 1000, 20000):
        ck = ev.solve_c(tab.beta_profile(k))
        assert prev < ck < tab.a
        prev = ck
    assert abs(prev - tab.a) < 2e-3
    t = ev.t_of(tab.beta_profile(20000))
    assert abs(t - tab.T0) < 2e-3


def test_estimate_tracks_exact_k_at_scale():
    # ratio K / estimate drifts toward 1 from above on squarefree signatures
    for r in (6, 10, 14):
        sig = (1,) * r
        est = ev.evans_estimate([float(a) for a in sig])
        ratio = math.exp(math.log(ex.kalmar_macmahon(sig)) - est.log_estimate)
        assert 1.0 < ratio < 1.05


def test_sandwich_closed_forms():
    # K(p^a) = 2^(a-1) sits at C4' = sqrt(pi)/2 times the upper unit for every
    # a; K(p) = 1 sits at C3' = e/2 times the lower unit
    for a in range(1, 61):
        k = ex.kalmar_macmahon((a,))
        assert k == 2 ** (a - 1)
        _, hi_u = ev.sandwich_units((a,))
        assert math.exp(math.log(k) - hi_u) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-12), a
    lo_u, _ = ev.sandwich_units((1,))
    assert math.exp(-lo_u) == pytest.approx(math.e / 2, rel=1e-12)


def test_sandwich_check_can_fail(monkeypatch):
    # check_sandwich counts violations against the closed forms, not against
    # constants refitted on its own points, so raised lower units must show
    units = ev.sandwich_units
    monkeypatch.setattr(ev, "sandwich_units", lambda sig: (units(sig)[0] + 0.5, units(sig)[1]))
    res = vf.check_sandwich(10_000)
    assert not res.ok and "violations=0" not in res.detail, res.detail
