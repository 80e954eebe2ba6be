"""The analytic machinery behind the asymptotic estimate of K(n).

For a vector x of non-negative reals (the prime-signature relaxed to reals):

    c(x)  - unique c > 0 with prod (1 + x_j/c) = 2; c(0) = 0 by convention
    T(x)  = sum x_i / (c + x_i), always in [1/2, 1]
    F(x)  = sum x_j log(1 + c(x)/x_j), concave, with 0 log 0 = 0
    A(x)  = (1/(2 sqrt 2)) e^(-Omega) prod (c + x_i)^(x_i) / Gamma(x_i + 1)
          = (1/(2 sqrt 2)) exp(F(x)) prod 1/s(x_j)
    B(x)  = sqrt(2 c(x) / T(x))
    s(x)  = Gamma(x+1) / (x^x e^(-x)), the Stirling correction

and the Evans estimate K(n) ~ sqrt(pi) A B for n with signature x.  A and the
estimate are carried as logarithms (F exceeds 700 at champion scale).

Appending zeros changes none of c, T, F; solve_c drops zero entries and A
is assembled through the exp(F)/s form, where s(0) = 1.  evans_point(x)
solves for c once and computes T once; the accessors t_of, grad_c, f_of,
grad_f, hessian_form and evans_estimate each read one such point.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .constants import LOG2, _newton_left
from .errors import ConvergenceError, DomainError, KalmarError, ResourceLimitError
from .exact import kalmar_macmahon, signatures_with_omega

__all__ = [
    "solve_c",
    "EvansPoint",
    "evans_point",
    "t_of",
    "grad_c",
    "f_of",
    "sandwich_units",
    "grad_f",
    "hessian_form",
    "log_stirling_s",
    "EvansEstimate",
    "evans_estimate",
    "RatioRow",
    "ratio_scan",
]

_LOG_2SQRT2 = 1.5 * LOG2


def _checked(x: Iterable[float]) -> tuple[float, ...]:
    x = tuple(map(float, x))
    if not all(0.0 <= v < math.inf for v in x):
        raise DomainError(f"vector entries must be finite and >= 0, got {x}")
    return x


def solve_c(x: Sequence[float]) -> float:
    """Unique c > 0 with prod (1 + x_j/c) = 2; returns 0.0 for the zero vector.

    Newton on H(t) = sum log(1 + x_j/t) - log 2, which decreases and is
    convex in t, from t = Omega, where H >= 0 because c >= Omega.  The
    climb stops when a step no longer moves right (constants._newton_left).
    """
    return _solve_checked(_checked(x))


def _solve_checked(x: tuple[float, ...]) -> float:
    """solve_c on a vector that _checked has already converted and scanned."""
    pos = [v for v in x if v > 0.0]
    if not pos:
        return 0.0
    if len(pos) == 1:
        return pos[0]
    # v/(t+v) written as 1/(1 + t/v) so that t + v cannot overflow near the float limit
    return _newton_left(
        lambda t: (math.fsum(math.log1p(v / t) for v in pos) - LOG2,
                   -math.fsum(1.0 / (1.0 + t / v) for v in pos) / t),
        math.fsum(pos),
    )


def log_stirling_s(x: float) -> float:
    """log of the Stirling correction s(x) = Gamma(x+1)/(x^x e^(-x)), which
    lies between sqrt(2 pi x) and e sqrt(x) for x >= 1; s(0) = 1 by the
    Gamma limit."""
    if x < 0.0:
        raise DomainError("s(x) needs x >= 0")
    if x == 0.0:
        return 0.0
    return math.lgamma(x + 1.0) - x * math.log(x) + x


class EvansEstimate(NamedTuple):
    c: float
    t: float              # T(x)
    f: float              # F(x)
    log_a: float          # log A(x)
    b: float              # B(x)
    log_estimate: float   # log(sqrt(pi) A B)

    @property
    def estimate(self) -> float:
        v = self.log_estimate
        return math.exp(v) if v < 709.0 else math.inf


class EvansPoint(NamedTuple):
    """The model at one vector x: c(x) and T(x), each computed once.

    Zero entries are kept in x.  On the zero vector c = 0 and T is nan; every
    accessor that needs T or divides by c raises DomainError there.  The
    ratios x_i/(c + x_i) and c/(c + x_i) are written as 1/(1 + c/x_i) and
    1/(1 + x_i/c) so that c + x_i cannot overflow near the float limit.
    """

    x: tuple[float, ...]
    c: float
    t: float              # T(x) = sum x_i/(c + x_i), in [1/2, 1]

    def nonzero(self, what: str) -> EvansPoint:
        if self.c == 0.0:
            raise DomainError(f"{what} is undefined on the zero vector")
        return self

    def grad_c(self, i: int) -> float:
        c = self.nonzero("gradient of c").c
        return 1.0 / (1.0 + self.x[i] / c) / self.t

    def f(self) -> float:
        c = self.c
        return math.fsum(v * math.log1p(c / v) for v in self.x if v > 0.0)

    def grad_f(self, i: int) -> float:
        if self.x[i] == 0.0:
            raise DomainError("dF/dx_i diverges at x_i = 0")
        return math.log1p(self.c / self.x[i])

    def hessian_form(self, h: Sequence[float]) -> float:
        x, c = self.x, self.c
        if not x or 0.0 in x:
            raise DomainError("Hessian form needs strictly positive entries")
        if len(h) != len(x):
            raise DomainError("h must have the same length as x")
        # c (sum h_i/(c+x_i))^2 / T - sum c h_i^2/(x_i (c+x_i)), with every
        # c+x_i written as c (1 + x_i/c) so that nothing overflows near the
        # float limit
        cross = math.fsum(hi / (1.0 + v / c) for hi, v in zip(h, x))
        diag = math.fsum(hi * hi / (v * (1.0 + v / c)) for hi, v in zip(h, x))
        return (cross / c) * (cross / self.t) - diag

    def estimate(self) -> EvansEstimate:
        """c, T, F, log A, B and the estimate sqrt(pi) A B at this point.

        A is computed through exp(F) * prod 1/s(x_j); on strictly positive
        input it is cross-checked against the defining product form to 1e-10
        relative.
        """
        c, t = self.nonzero("the estimate").c, self.t
        pos = [v for v in self.x if v > 0.0]
        om = math.fsum(pos)
        f = self.f()
        log_a = -_LOG_2SQRT2 + f - math.fsum(log_stirling_s(v) for v in pos)
        if len(pos) == len(self.x):
            direct = -_LOG_2SQRT2 - om + math.fsum(
                v * math.log(c + v) - math.lgamma(v + 1.0) for v in pos
            )
            if abs(direct - log_a) > 1e-10 * max(1.0, abs(log_a)):
                raise ConvergenceError(
                    f"log A disagreement: {log_a} (Stirling form) vs {direct} (direct)"
                )
        b = math.sqrt(2.0 * c / t)
        est = EvansEstimate(
            c=c, t=t, f=f, log_a=log_a, b=b,
            log_estimate=0.5 * math.log(math.pi) + log_a + math.log(b),
        )
        eps = 1e-9 * max(1.0, om)
        if not (om - eps <= c <= om / LOG2 + eps):
            raise ConvergenceError(f"c = {c} escaped [Omega, Omega/log 2]")
        if not (0.5 - 1e-12 <= t <= 1.0 + 1e-12):
            raise ConvergenceError(f"T = {t} escaped [1/2, 1]")
        if not (math.sqrt(2 * c) * (1 - 1e-12) <= b <= 2 * math.sqrt(c) * (1 + 1e-12)):
            raise ConvergenceError(f"B = {b} escaped [sqrt(2c), 2 sqrt(c)]")
        return est


def evans_point(x: Sequence[float]) -> EvansPoint:
    """Check x once, solve for c once and compute T once."""
    x = _checked(x)
    c = _solve_checked(x)
    if c == 0.0:
        return EvansPoint(x, 0.0, math.nan)
    return EvansPoint(x, c, math.fsum(1.0 / (1.0 + c / v) for v in x if v > 0.0))


def t_of(x: Sequence[float]) -> float:
    """T(x) = sum x_i/(c + x_i), in [1/2, 1]."""
    return evans_point(x).nonzero("T").t


def grad_c(x: Sequence[float], i: int) -> float:
    """dc/dx_i = (1/T) c/(c + x_i), 0-based coordinate; lies in [0, 2]."""
    return evans_point(x).grad_c(i)


def f_of(x: Sequence[float]) -> float:
    """F(x) = sum x_j log(1 + c(x)/x_j) with the 0 log 0 = 0 convention."""
    return evans_point(x).f()


def sandwich_units(sig: Sequence[int]) -> tuple[float, float]:
    """(log lower unit, log upper unit) around log K for the exponents sig:
    F - k - (1/2) sum log a_i and F - (k/2) log pi, k = len(sig).  Shifted by
    verify.LOG_C3 and LOG_C4 they bracket log K where measured; not proven."""
    f = f_of([float(a) for a in sig])
    k = len(sig)
    return (f - k - 0.5 * math.fsum(math.log(a) for a in sig),
            f - 0.5 * k * math.log(math.pi))


def grad_f(x: Sequence[float], i: int) -> float:
    """dF/dx_i = log((c + x_i)/x_i), 0-based; domain error at x_i = 0."""
    return evans_point(x).grad_f(i)


def hessian_form(x: Sequence[float], h: Sequence[float]) -> float:
    """Quadratic form of the second derivatives of F at x applied to h:

        (c/T) (sum h_i/(c+x_i))^2 - sum c h_i^2 / (x_i (c+x_i))

    Non-positive everywhere (F is concave).  Requires all x_i > 0.
    """
    return evans_point(x).hessian_form(h)


def evans_estimate(x: Sequence[float]) -> EvansEstimate:
    """Assemble c, T, F, log A, B and the estimate sqrt(pi) A B at x
    (EvansPoint.estimate)."""
    return evans_point(x).estimate()


class RatioRow(NamedTuple):
    omega: int
    min_ratio: float
    argmin: tuple[int, ...]
    max_ratio: float
    argmax: tuple[int, ...]


# the largest omega_max ratio_scan accepts: it visits every signature of each
# weight r <= omega_max, sum_{r<=48} p(r) = 918 219 of them, within a budget of
# 10^6 signatures that r = 49 (1 091 744) would pass
RATIO_SCAN_MAX_OMEGA = 48


def ratio_scan(omega_max: int) -> list[RatioRow]:
    """Extremes of K / (sqrt(pi) A B) over all signatures of each weight r.

    Verifies that the minimum sits at (r) and the maximum at (1, ..., 1)
    for every r <= omega_max, raising if the pattern ever breaks.
    """
    if omega_max < 1:
        raise DomainError("omega_max must be >= 1")
    if omega_max > RATIO_SCAN_MAX_OMEGA:
        raise ResourceLimitError(
            f"omega_max = {omega_max} exceeds cap {RATIO_SCAN_MAX_OMEGA}")
    rows = []
    for r in range(1, omega_max + 1):
        best = worst = None
        for sig in signatures_with_omega(r):
            ratio = math.exp(math.log(kalmar_macmahon(sig))
                             - evans_estimate(sig).log_estimate)
            if best is None or ratio < best[0]:
                best = (ratio, sig)
            if worst is None or ratio > worst[0]:
                worst = (ratio, sig)
        if best[1] != (r,):
            raise KalmarError(f"ratio minimum at omega={r} is {best[1]}, expected ({r},)")
        if worst[1] != (1,) * r:
            raise KalmarError(f"ratio maximum at omega={r} is {worst[1]}, expected (1,)*{r}")
        rows.append(RatioRow(r, best[0], best[1], worst[0], worst[1]))
    return rows
