"""Closed-form optimum, deficit bound, divisor search, witness construction."""

import math
from fractions import Fraction

import pytest

from kalmar import constants as cn
from kalmar import evans as ev
from kalmar import exact as ex
from kalmar import optimize as op
from kalmar import verify as vf
from kalmar.errors import DomainError, PreconditionError, ResourceLimitError
from kalmar.primes import first_primes


def test_optimum_k1():
    p = op.optimum(1, 1.0)
    assert abs(p.x_star[0] - 1 / math.log(2)) < 1e-12
    assert abs(p.f_star - 1.0) < 1e-12
    assert abs(p.rho_k - 1.0) < 1e-12


def test_optimum_reference_values():
    assert abs(op.optimum(10, 100.0).f_star - 169.972) < 1e-3
    assert abs(op.optimum(2, 10.0).c_star - 14.4336) < 1e-3


def test_optimum_identities_grid():
    res = vf.check_optimum_grid()      # optimum() raises beyond 1e-8 relative
    assert res.ok, res.detail


def test_optimum_gradient_condition():
    p = op.optimum(5, 42.0)
    c = ev.solve_c(p.x_star)
    for x, prime in zip(p.x_star, first_primes(5)):
        lhs = math.log((c + x) / x)
        assert abs(lhs - p.rho_k * math.log(prime)) < 1e-8 * lhs


def test_optimum_domain():
    with pytest.raises(DomainError):
        op.optimum(0, 1.0)
    for budget in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            op.optimum(3, budget)
    with pytest.raises(DomainError):
        op.deficit_check([3.0, 2.0, 1.0], 3, math.inf)


def test_deficit_at_optimum():
    p = op.optimum(4, 20.0)
    rep = op.deficit_check(list(p.x_star), 4, 20.0)
    assert rep.deficit < 1e-15
    assert abs(rep.slack) < 1e-8


def test_deficit_interior_point():
    p = op.optimum(5, 30.0)
    alpha = list(p.x_star)
    alpha[-1] *= 0.5
    rep = op.deficit_check(alpha, 5, 30.0)
    assert rep.f_alpha < rep.bound
    assert rep.slack > 0
    assert rep.bound <= rep.bound_weak       # squared-sum form is stronger


def test_deficit_random_harness(monkeypatch):
    monkeypatch.setattr(vf, "DEFICIT_SEED", 4)
    res = vf.check_deficit(800)
    assert res.ok, res.detail


def test_deficit_preconditions():
    with pytest.raises(PreconditionError):
        op.deficit_check([100.0, 100.0], 2, 1.0)     # far outside the domain
    with pytest.raises(PreconditionError):
        op.deficit_check([1.0, 1.0, 1.0], 2, 50.0)   # too many coordinates


def test_choose_k():
    assert op.choose_k(100.0, 1.5) == 4
    # the floor formula gives 0 here, which is raised to 2
    assert op.choose_k(2.8, 0.05) == 2
    assert int(0.05 * 2.8 ** (1 / 1.7286472389981836) / math.log(2.8)) < 2
    with pytest.raises(DomainError):
        op.choose_k(100.0, 1.9)
    with pytest.raises(DomainError):
        op.choose_k(100.0, 0.0)
    with pytest.raises(DomainError):
        op.choose_k(2.0, 1.5)                        # log n must exceed e
    with pytest.raises(DomainError):
        op.choose_k(math.inf, 1.5)
    raw = 1.5 * 1e6 ** (1 / 1.7286472389981836) / math.log(1e6)
    assert op.choose_k(1e6, 1.5) == int(raw)


def test_largest_divisor_examples():
    assert op.largest_divisor_leq(2, 5) == 3
    assert op.largest_divisor_leq(3, 29) == 15
    assert op.largest_divisor_leq(1, 1) == 1
    assert op.largest_divisor_leq(3, 30) == 30
    assert op.largest_divisor_leq(3, Fraction(59, 2)) == 15
    assert op.largest_divisor_leq(3, 29.999) == 15


def test_largest_divisor_exhaustive(monkeypatch):
    monkeypatch.setattr(vf, "DIVISOR_K_MAX", 10)
    res = vf.check_divisor_search()
    assert res.ok, res.detail


def test_divisor_search_names_first_failure(monkeypatch):
    # the first seeded bound above 1 is 3, at k = 1
    monkeypatch.setattr(op, "largest_divisor_leq", lambda k, bound: 1)
    assert vf.check_divisor_search() == ("divisor_search", False, "k=1 bound=3")


def test_largest_divisor_errors():
    with pytest.raises(DomainError):
        op.largest_divisor_leq(0, 5)
    with pytest.raises(DomainError):
        op.largest_divisor_leq(3, 0.5)
    with pytest.raises(ResourceLimitError, match="cap 40"):
        op.largest_divisor_leq(50, 10**10)
    with pytest.raises(ResourceLimitError, match="cap 40"):    # one cap, not 64
        op.largest_divisor_leq(65, 10)


def test_witness_refuses_k_before_optimum(monkeypatch):
    # log n = 1e12 gives k = 474 830: refused before the optimum over all k
    # primes is built, with the divisor search's message
    def fail(*args):
        raise AssertionError("optimum built above the divisor cap")

    monkeypatch.setattr(op, "optimum", fail)
    with pytest.raises(ResourceLimitError, match="k = 474830 exceeds the divisor-search cap 40"):
        op.witness_m(1e12)


def test_witness_exact_regime():
    w = op.witness_m(50.0)
    assert w.exact
    assert 1.0 <= w.ratio_n_over_m < 2.0
    assert all(int(x) <= e <= int(x) + 1 for x, e in zip(w.x_star, w.exponents))
    assert abs(w.log_k_lower - math.log(ex.kalmar_macmahon(w.m_signature))) < 1e-12


def test_witness_bound_regime():
    w = op.witness_m(300.0)
    assert not w.exact
    assert 1.0 <= w.ratio_n_over_m < 2.0
    assert sum(w.m_signature) > 60
    # the reported bound stays below the universal ceiling rho log n
    assert w.log_k_lower < 1.7286472389981836 * 300.0


def test_witness_monotone_growth():
    prev = 0.0
    for ln in (50.0, 100.0, 200.0, 400.0):
        w = op.witness_m(ln)
        assert w.log_k_lower > prev
        prev = w.log_k_lower


def test_witness_sweep_invariants(monkeypatch):
    monkeypatch.setattr(vf, "WITNESS_LOG_NS", tuple(range(50, 501, 50)))
    res = vf.check_witness_sweep()
    assert res.ok, res.detail


def test_witness_defect_normalization(monkeypatch):
    # D = (rho log n - log K(m)) log log n / (log n)^(1/rho), by hand, for
    # the witness at log n = 50, whose K(m) is exact
    log_n = 50.0
    w = op.witness_m(log_n)
    assert w.exact
    log_k = math.log(ex.kalmar_macmahon(w.m_signature))
    rho = cn.solve_rho()
    d = (rho * log_n - log_k) * math.log(log_n) / log_n ** (1.0 / rho)
    monkeypatch.setattr(vf, "WITNESS_LOG_NS", (50,))
    res = vf.check_witness_sweep()
    assert res.ok, res.detail
    assert res.detail.endswith(f"C6' <= {d:.3f}"), (res.detail, d)
    assert 5.0 < d < 6.0
