"""Constrained maximization of F over the domain sum x_i log p_i <= A.

The maximum is closed-form: with rho_k and a_k the truncated root and scale,

    x_i* = a_k A / (p_i^rho_k - 1),     c(x*) = a_k A,    F(x*) = rho_k A,

the budget constraint is tight and dF/dx_i(x*) = rho_k log p_i.  optimum()
builds the point and verifies all of these numerically.  deficit_check()
evaluates the quadratic penalty that any other point of the domain pays,
and witness_m() carries out the rounding construction that turns the
optimum into an actual integer m with n/2 < m <= n and a value for log K(m):
exact up to WITNESS_EXACT_OMEGA, beyond it the lower sandwich unit with
C3' = 1 (evans.sandwich_units), which is fitted, not proven.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple, Sequence

from .constants import lagrange_scale, model_constants, solve_rho
from .errors import ConvergenceError, DomainError, PreconditionError, ResourceLimitError
from .evans import evans_point, f_of, sandwich_units
from .exact import canonical_signature, kalmar_macmahon
from .primes import first_primes

__all__ = [
    "OptimumPoint",
    "optimum",
    "DeficitReport",
    "deficit_check",
    "choose_k",
    "largest_divisor_leq",
    "WitnessResult",
    "witness_m",
]

KAPPA = 1.5                 # the default kappa of choose_k, witness_m and --kappa
DIVISOR_MAX_K = 40          # largest_divisor_leq: two halves of 2^20 products
WITNESS_EXACT_OMEGA = 60    # witness_m: exact K(m) up to this Omega(m)


class OptimumPoint(NamedTuple):
    k: int
    budget: float           # A; log n when derived from an integer
    rho_k: float
    a_k: float
    x_star: tuple[float, ...]
    c_star: float           # a_k * A
    f_star: float           # rho_k * A


def optimum(k: int, budget: float) -> OptimumPoint:
    """The maximizer of F on {sum x_i log p_i <= A} over the first k primes.

    The closed form is verified on the spot: budget residual, then c and F
    residuals and the gradient condition at one evans_point, all to 1e-8
    relative.  A failure indicates a numerical defect upstream.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if not 0.0 < budget < math.inf:
        raise DomainError(f"the budget A must be positive and finite, got {budget}")
    rho_k = solve_rho(k)
    a_k = lagrange_scale(k)
    primes = first_primes(k)
    logs = [math.log(p) for p in primes]
    x_star = tuple(a_k * budget / (math.exp(rho_k * lp) - 1.0) for lp in logs)
    c_star = a_k * budget
    f_star = rho_k * budget

    budget_resid = abs(math.fsum(x * lp for x, lp in zip(x_star, logs)) - budget)
    pt = evans_point(x_star)
    c_num, f_num = pt.c, pt.f()
    grad_resid = max(abs(pt.grad_f(i) - rho_k * lp) / (rho_k * lp)
                     for i, lp in enumerate(logs))
    checks = (
        budget_resid / budget,
        abs(c_num - c_star) / c_star,
        abs(f_num - f_star) / f_star,
        grad_resid,
    )
    if max(checks) > 1e-8:
        raise ConvergenceError(f"optimum residuals too large: {checks}")
    return OptimumPoint(k=k, budget=budget, rho_k=rho_k, a_k=a_k,
                        x_star=x_star, c_star=c_star, f_star=f_star)


class DeficitReport(NamedTuple):
    f_alpha: float
    f_star: float
    deficit: float          # (sum_{i<k} |a_i - x_i*| log p_i)^2 / (4 A log p_k)
    deficit_weak: float     # sum_{i<k} (a_i - x_i*)^2 log^2 p_i / (4 A log p_k)
    bound: float            # f_star - deficit
    bound_weak: float       # f_star - deficit_weak
    slack: float            # bound - f_alpha  (>= 0 up to rounding)
    slack_weak: float


def deficit_check(alpha: Sequence[float], k: int, budget: float) -> DeficitReport:
    """How far below F(x*) a point alpha of the domain must sit.

    Both penalty forms are reported; the squared-sum form is the stronger
    one.  The sums deliberately stop at index k-1: the last coordinate is
    absorbed by the constraint.
    """
    opt = optimum(k, budget)
    alpha = [float(v) for v in alpha]
    if len(alpha) > k:
        raise PreconditionError(f"alpha has {len(alpha)} entries, k = {k}")
    alpha += [0.0] * (k - len(alpha))
    if any(v < 0.0 for v in alpha):
        raise PreconditionError("alpha entries must be >= 0")
    logs = [math.log(p) for p in first_primes(k)]
    used = math.fsum(a * lp for a, lp in zip(alpha, logs))
    if used > budget * (1.0 + 1e-12) + 1e-12:
        raise PreconditionError(f"alpha uses {used} > budget {budget}")
    f_alpha = f_of(alpha)
    # the sums are taken at scale 2^-e, e the budget's binary exponent; a
    # power of two rounds nothing, so the results are those of the unscaled
    # sums, and no square overflows for budgets near the float limit
    e = math.frexp(budget)[1]
    dev = [math.ldexp(abs(a - x) * lp, -e)
           for a, x, lp in zip(alpha[: k - 1], opt.x_star, logs)]
    denom = 4.0 * math.ldexp(budget, -e) * logs[-1]
    s = math.fsum(dev)
    deficit = math.ldexp(s * s / denom, e)
    deficit_weak = math.ldexp(math.fsum(d * d for d in dev) / denom, e)
    return DeficitReport(
        f_alpha=f_alpha,
        f_star=opt.f_star,
        deficit=deficit,
        deficit_weak=deficit_weak,
        bound=opt.f_star - deficit,
        bound_weak=opt.f_star - deficit_weak,
        slack=opt.f_star - deficit - f_alpha,
        slack_weak=opt.f_star - deficit_weak - f_alpha,
    )


def choose_k(log_n: float, kappa: float = KAPPA) -> int:
    """k = floor(kappa (log n)^(1/rho) / log log n), raised to 2 if smaller.

    kappa must stay below kappa_max = rho a^(1/rho); above it the last
    optimum coordinate x_k* eventually drops under 1 and the witness
    construction breaks down.
    """
    tab = model_constants()
    if not math.e < log_n < math.inf:
        raise DomainError(f"need finite log n > e so that log log n > 1, got {log_n}")
    if not 0.0 < kappa < tab.kappa_max:
        raise DomainError(f"kappa must lie in (0, {tab.kappa_max:.6f}), got {kappa}")
    return max(int(kappa * log_n ** (1.0 / tab.rho) / math.log(log_n)), 2)


def _check_divisor_k(k: int) -> None:
    if k > DIVISOR_MAX_K:
        raise ResourceLimitError(f"k = {k} exceeds the divisor-search cap {DIVISOR_MAX_K}")


def largest_divisor_leq(k: int, bound) -> int:
    """Largest divisor of p_1 p_2 ... p_k that is <= bound.

    Meet in the middle over the 2^k squarefree divisors: subset products of
    two prime halves, one side sorted, the other binary-searched.  bound may
    be an int, Fraction or float; comparisons are exact (floats are taken at
    their binary value).  k above DIVISOR_MAX_K raises ResourceLimitError.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    _check_divisor_k(k)
    num, den = bound.as_integer_ratio()      # exact, den > 0
    if num < den:
        raise DomainError("bound must be >= 1")
    primes = first_primes(k)
    half = k // 2

    def subset_products(ps):
        out = [1]
        for p in ps:
            out += [v * p for v in out]
        return out

    left = subset_products(primes[:half])
    right = sorted(subset_products(primes[half:]))
    best = 1
    for a in left:
        cap = num // (den * a)          # largest integer <= bound / a
        if cap < 1:
            continue
        i = bisect_right(right, cap)
        if i and a * right[i - 1] > best:
            best = a * right[i - 1]
    return best


class WitnessResult(NamedTuple):
    n_log: float
    k: int
    kappa: float
    x_star: tuple[float, ...]
    exponents: tuple[int, ...]      # per prime p_1 .. p_k
    m_signature: tuple[int, ...]    # canonical form of the exponents
    ratio_n_over_m: float           # in [1, 2)
    log_k_lower: float              # exact, or the fitted unit: not a proof
    exact: bool                     # True when log_k_lower is exact log K(m)


def witness_m(log_n: float, kappa: float = KAPPA) -> WitnessResult:
    """Round the optimum to an integer witness m with 1 <= n/m < 2.

    m0 = prod p_i^floor(x_i*); d is the largest divisor of p_1...p_k below
    n/m0, and m = m0 d, so each exponent is floor(x_i*) or floor(x_i*) + 1.
    log K(m) is computed exactly while Omega(m) <= WITNESS_EXACT_OMEGA and
    otherwise replaced by the lower sandwich unit
    F(alpha) - k - (1/2) sum log alpha_i (evans.sandwich_units): the bound
    log C3' + unit with C3', which is fitted on small n, taken as 1, so an
    estimate and not a proven bound.  k above DIVISOR_MAX_K raises
    ResourceLimitError before the optimum over k primes is built.
    """
    k = choose_k(log_n, kappa)
    _check_divisor_k(k)
    x_star = optimum(k, log_n).x_star
    primes = first_primes(k)
    logs = [math.log(p) for p in primes]
    if x_star[-1] <= 1.0:
        raise PreconditionError(
            f"x_k* = {x_star[-1]:.4f} <= 1 at log n = {log_n}; "
            "raise log_n or lower kappa"
        )
    floors = [int(x) for x in x_star]
    m0_log = math.fsum(f * lp for f, lp in zip(floors, logs))
    # log(n/m0) < log p_1...p_k <= 157.1 for k <= DIVISOR_MAX_K: exp stays finite
    d = largest_divisor_leq(k, math.exp(log_n - m0_log))
    exps = tuple(f + (1 if d % p == 0 else 0) for f, p in zip(floors, primes))
    m_log = math.fsum(e * lp for e, lp in zip(exps, logs))
    ratio = math.exp(log_n - m_log)
    if not 1.0 - 1e-9 <= ratio < 2.0 * (1.0 + 1e-9):
        raise ConvergenceError(f"witness ratio n/m = {ratio} escaped [1, 2)")
    sig = canonical_signature(exps)
    exact = sum(sig) <= WITNESS_EXACT_OMEGA
    if exact:
        log_k_lower = float(math.log(kalmar_macmahon(sig)))
    else:
        log_k_lower = sandwich_units(exps)[0]
    return WitnessResult(
        n_log=log_n, k=k, kappa=kappa, x_star=x_star, exponents=exps,
        m_signature=sig, ratio_n_over_m=ratio, log_k_lower=log_k_lower,
        exact=exact,
    )
