"""Executable invariant suite.

Every check re-derives a documented property from scratch (brute force,
finite differences, exhaustive small cases) and compares it against the
production path.  The CLI subcommand `verify` runs the whole list; the
acceptance tests call the same functions with their contract sizes.  Each
check takes only its size: seeds and fixed inputs are module constants.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

from . import champions as ch
from . import constants as cn
from . import evans as ev
from . import exact as ex
from . import optimize as op
from .primes import first_primes

__all__ = ["CheckResult", "full_suite"]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _sig_codes(n_max: int) -> list[int]:
    """codes[n] = _sig_code(signature of n) for 1 <= n <= n_max, from a
    smallest-prime-factor sieve: with p = spf(n) and p^e exactly dividing n,
    codes[n] = codes[n / p^e] + _sig_code((e,)).  codes[0] is 0 and unused."""
    spf = list(range(n_max + 1))
    for i in range(2, math.isqrt(n_max) + 1):
        if spf[i] == i:
            for j in range(i * i, n_max + 1, i):
                if spf[j] == j:
                    spf[j] = i
    codes = [0] * (n_max + 1)
    for n in range(2, n_max + 1):
        p = spf[n]
        m, e = n // p, 1
        while m % p == 0:
            m, e = m // p, e + 1
        codes[n] = codes[m] + (1 << 8 * e)
    return codes


# --------------------------------------------------------------------------
# constants

def check_constants_monotone(k_max: int) -> CheckResult:
    """rho_k strictly increasing below rho for all k, a_k strictly decreasing
    above a from k = 2 on (a_1 < a_2 is real: the k = 1 root sits at 1), and
    the root residual |zeta_k(rho_k) - 2| <= 1e-11 for every k."""
    rho = cn.solve_rho()
    a = cn.lagrange_scale()
    prev_r, prev_a = -1.0, float("inf")
    worst_resid = 0.0
    for k in range(1, k_max + 1):
        rk = cn.solve_rho(k)
        ak = cn.lagrange_scale(k)
        worst_resid = max(worst_resid, abs(cn.zeta_truncated(rk, k) - 2.0))
        if not prev_r < rk < rho:
            return CheckResult("constants_monotone", False, f"rho order broken at k={k}")
        if not (a < ak and (k < 3 or ak < prev_a)):
            return CheckResult("constants_monotone", False, f"a order broken at k={k}")
        prev_r, prev_a = rk, ak
    ok = worst_resid <= 1e-11
    return CheckResult("constants_monotone", ok,
                       f"k <= {k_max}, worst root residual {worst_resid:.2e}")


_TRUNCATED_TABLE = {
    # k: (rho_k, a_k) as printed, truncated to 5-7 decimals
    1: (1.00000, 1.44269),
    2: (1.43527, 1.44336),
    3: (1.56603, 1.36287),
    10: (1.69972, 1.19244),
    100: (1.72658, 1.11279),
    1000: (1.72843, 1.10196),
}
# Seeds and fixed inputs: `verify` and `verify --fast` set only the sizes.
SCALING_SEED, LIPSCHITZ_SEED, GRADIENTS_SEED = 2024, 2025, 2026
HESSIAN_SEED, VALUE_RANGES_SEED, DEFICIT_SEED = 2027, 2028, 2029
WITNESS_LOG_NS = tuple(range(50, 1001, 50))
DIVISOR_K_MAX = 12
CHAMPION_LAWS_X = 34560
CENSUS_XS = (10, 100, 1000, 10_000)
# The closed-form sandwich bracket: log C3' = log(e/2), log C4' = log(sqrt(pi)/2)
LOG_C3, LOG_C4 = math.log(math.e / 2), math.log(math.sqrt(math.pi) / 2)


def check_truncated_table() -> CheckResult:
    """The twelve reference rho_k / a_k values to their printed decimals."""
    worst = 0.0
    for k, (r_ref, a_ref) in _TRUNCATED_TABLE.items():
        worst = max(worst, abs(cn.solve_rho(k) - r_ref), abs(cn.lagrange_scale(k) - a_ref))
    ok = worst < 1e-5
    return CheckResult("truncated_table", ok, f"worst deviation {worst:.2e}")


# --------------------------------------------------------------------------
# exact K

def check_triple_oracle(omega_max: int) -> CheckResult:
    """MacMahon == recursion, series bracket containment, K_P <= K, for every
    signature with Omega <= omega_max."""
    n_sigs = 0
    for om in range(omega_max + 1):
        for sig in ex.signatures_with_omega(om):
            n_sigs += 1
            k1 = ex.kalmar_macmahon(sig)
            k2 = ex.kalmar_recursive(sig)
            lo, hi = ex.kalmar_series_bounds(sig, max(64, 3 * om))
            if k1 != k2:
                return CheckResult("triple_oracle", False, f"{sig}: {k1} != {k2}")
            if not lo <= k1 <= hi:
                return CheckResult("triple_oracle", False, f"{sig}: series bracket miss")
            if ex.kp_multinomial(sig) > k1:
                return CheckResult("triple_oracle", False, f"{sig}: K_P > K")
    return CheckResult("triple_oracle", True, f"{n_sigs} signatures, three methods agree")


def check_eulerian(n_max: int) -> CheckResult:
    for n in list(range(1, n_max + 1)) + [200]:
        ex.eulerian_checksum(n)         # raises on mismatch
    return CheckResult("eulerian_identity", True, f"n <= {n_max} and n = 200")


def _defect(rho: float, log_n: float, log_k: float) -> float:
    """D(n) = (rho log n - log K(n)) log log n / (log n)^(1/rho), from log n
    and log K(n): the defect envelope of growth_laws and witness_sweep."""
    return (rho * log_n - log_k) * math.log(log_n) / log_n ** (1 / rho)


def check_growth_laws(n_max: int) -> CheckResult:
    """K(2n) > K(n), 2 K(n) <= n^rho, log K(n) <= rho log n, all n in range;
    also reports the positive envelope of rho log n - log K(n): the minimum
    over 16 <= n <= n_max of D(n) = (rho log n - log K(n)) log log n /
    (log n)^(1/rho), printed as "c5' >= ...".  It is a sampled minimum, not
    a proven constant C5 of the upper bound for all n."""
    rho = cn.solve_rho()
    codes = _sig_codes(2 * n_max)
    ktab = {code: ex.kalmar_macmahon(_code_sig(code)) for code in set(codes)}
    env_min = float("inf")
    for n in range(2, n_max + 1):
        kn = ktab[codes[n]]
        if ktab[codes[2 * n]] <= kn:
            return CheckResult("growth_laws", False, f"K(2n) <= K(n) at n={n}")
        logk = math.log(kn)
        if logk > rho * math.log(n) - math.log(2.0):
            return CheckResult("growth_laws", False, f"2K(n) > n^rho at n={n}")
        if n >= 16:
            env_min = min(env_min, _defect(rho, math.log(n), logk))
    ok = env_min > 0.0
    return CheckResult("growth_laws", ok,
                       f"n <= {n_max}; defect envelope c5' >= {env_min:.4f}")


def _sig_code(sig) -> int:
    """A signature as one integer whose byte e counts the exponents equal to
    e.  Exact while fewer than 256 primes share an exponent; then the code
    of a product of coprime factors is the sum of their codes."""
    return sum(1 << 8 * e for e in sig)


def _code_sig(code: int) -> tuple[int, ...]:
    """The signature that _sig_code maps to code."""
    sig: list[int] = []
    for e in range(code.bit_length() // 8, 0, -1):
        sig += [e] * (code >> 8 * e & 255)
    return tuple(sig)


def _product_codes(n: int, codes: list[int]) -> Iterator[int]:
    """Signature codes of n m for n <= m < len(codes).  With a the part of m
    on n's primes, n m = (n a)(m/a) and m/a is coprime to n a, so the code
    is code(n a) + codes[m/a]: one factorization per distinct a, a few per n."""
    head = {1: codes[n]}
    for m in range(n, len(codes)):
        r = m
        g = math.gcd(m, n)
        while g > 1:
            r //= g
            g = math.gcd(r, g)
        a = m // r
        code = head.get(a)
        if code is None:
            code = head[a] = _sig_code(ex.signature_of(n * a))
        yield code + codes[r]


def check_supermultiplicative(n_max: int) -> CheckResult:
    """K(n n') >= 2 K(n) K(n') for 2 <= n <= n' <= n_max."""
    codes = _sig_codes(n_max)
    ktab = {code: ex.kalmar_macmahon(_code_sig(code)) for code in set(codes)}
    k_of = [ktab[code] for code in codes]
    for n in range(2, n_max + 1):
        kn2 = 2 * k_of[n]
        for m, code in enumerate(_product_codes(n, codes), n):
            knm = ktab.get(code)
            if knm is None:
                knm = ktab[code] = ex.kalmar_macmahon(_code_sig(code))
            if knm < kn2 * k_of[m]:
                return CheckResult("supermultiplicative", False, f"fails at ({n},{m})")
    return CheckResult("supermultiplicative", True, f"all pairs 2 <= n <= n' <= {n_max}")


# --------------------------------------------------------------------------
# analysis kernel

def _random_vector(rng: random.Random) -> list[float]:
    return [rng.uniform(1e-3, 4.0) for _ in range(rng.randint(1, 20))]


def check_scaling(samples: int) -> CheckResult:
    """c(lambda x) = lambda c(x) to 1e-12 relative."""
    rng = random.Random(SCALING_SEED)
    worst = 0.0
    for _ in range(samples):
        x = _random_vector(rng)
        lam = rng.uniform(0.1, 50.0)
        c = ev.solve_c(x)
        worst = max(worst, abs(ev.solve_c([lam * v for v in x]) - lam * c) / (lam * c))
    return CheckResult("c_scaling", worst <= 1e-12, f"worst relative {worst:.2e}")


def check_lipschitz(pairs: int) -> CheckResult:
    """|c(x')-c(x)| <= 2||x'-x|| and |T(x')-T(x)| <= 3||x'-x||/max(Om,Om')."""
    rng = random.Random(LIPSCHITZ_SEED)
    for _ in range(pairs):
        n = rng.randint(1, 20)
        x = [rng.uniform(0.0, 4.0) for _ in range(n)]
        y = [max(0.0, v + rng.uniform(-0.5, 0.5)) for v in x]
        if not any(x) or not any(y):
            continue
        dist = math.fsum(abs(u - v) for u, v in zip(x, y))
        px, py = ev.evans_point(x), ev.evans_point(y)
        if abs(py.c - px.c) > 2.0 * dist + 1e-12:
            return CheckResult("lipschitz", False, f"c bound fails: {x} {y}")
        om = max(math.fsum(x), math.fsum(y))
        if abs(py.t - px.t) > 3.0 * dist / om + 1e-12:
            return CheckResult("lipschitz", False, f"T bound fails: {x} {y}")
    return CheckResult("lipschitz", True, f"{pairs} random pairs, lengths <= 20")


def check_gradients(points: int) -> CheckResult:
    """grad_c and grad_f vs central differences, step 1e-6 max(1, x_i),
    to 1e-6 relative on every coordinate."""
    rng = random.Random(GRADIENTS_SEED)
    worst = 0.0
    for _ in range(points):
        n = rng.randint(1, 8)
        x = [rng.uniform(0.05, 4.0) for _ in range(n)]
        px = ev.evans_point(x)
        for i in range(n):
            h = 1e-6 * max(1.0, x[i])
            xp, xm = list(x), list(x)
            xp[i] += h
            xm[i] -= h
            pp, pm = ev.evans_point(xp), ev.evans_point(xm)
            fd_c = (pp.c - pm.c) / (2 * h)
            fd_f = (pp.f() - pm.f()) / (2 * h)
            gc, gf = px.grad_c(i), px.grad_f(i)
            worst = max(worst, abs(fd_c - gc) / abs(gc), abs(fd_f - gf) / abs(gf))
    return CheckResult("gradients", worst <= 1e-6,
                       f"{points} points, worst relative {worst:.2e}")


def check_hessian(pairs: int) -> CheckResult:
    """Quadratic form of F'' is <= 1e-12 on random (x, h)."""
    rng = random.Random(HESSIAN_SEED)
    worst = -float("inf")
    for _ in range(pairs):
        n = rng.randint(1, 8)
        x = [rng.uniform(1e-3, 1.0) for _ in range(n)]
        h = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        worst = max(worst, ev.hessian_form(x, h))
    return CheckResult("hessian_concavity", worst <= 1e-12, f"max form value {worst:.2e}")


def check_value_ranges(samples: int) -> CheckResult:
    """Omega <= c <= Omega/log 2, T in [1/2,1], B in [sqrt(2c), 2 sqrt(c)],
    grad_c in [0,2]; prefix values c(x_1..x_k) increase to c(x)."""
    rng = random.Random(VALUE_RANGES_SEED)
    for _ in range(samples):
        x = _random_vector(rng)
        pt = ev.evans_point(x)
        est = pt.estimate()             # raises if any range is violated
        i = rng.randrange(len(x))
        g = pt.grad_c(i)
        if not -1e-12 <= g <= 2.0 + 1e-12:
            return CheckResult("value_ranges", False, f"grad_c = {g} at {x}")
        prev = 0.0
        for ck in [ev.solve_c(x[:k]) for k in range(1, len(x))] + [pt.c]:
            if ck < prev - 1e-12 or ck > est.c + 1e-9:
                return CheckResult("value_ranges", False, f"prefix c not monotone at {x}")
            prev = ck
    return CheckResult("value_ranges", True, f"{samples} random vectors")


def check_ratio_extremes(omega_max: int) -> CheckResult:
    rows = ev.ratio_scan(omega_max)     # raises if an extreme moves
    r1 = rows[0].min_ratio
    ok = abs(r1 - math.e / math.sqrt(2 * math.pi)) < 1e-12 and abs(r1 - 1.084437552) < 1e-8
    return CheckResult("ratio_extremes", ok,
                       f"r <= {omega_max}; ratio at (1) = {r1:.10f}")


def check_sandwich(n_max: int) -> CheckResult:
    """The closed-form bracket (e/2) e^F/(e^k sqrt(prod a)) <= K <=
    (sqrt(pi)/2) e^F/pi^(k/2), to 1e-9 in log K, over every signature below
    n_max.  Also prints the fitted C3' and C4', the extremes of K over the two
    units: e/2 only at (1,), sqrt(pi)/2 at every prime power (K(p^a) = 2^(a-1)).
    The closed forms were read off these signatures, so this test is in
    sample; check_witness_sweep tests the same bracket at the witnesses."""
    points = [(math.log(c.k_value), *ev.sandwich_units(c.signature))
              for c in ch.enumerate_candidates(n_max) if c.value > 1]
    c3 = min((math.exp(logk - lo_u) for logk, lo_u, _ in points), default=float("inf"))
    c4 = max((math.exp(logk - hi_u) for logk, _, hi_u in points), default=0.0)
    violations = sum(not LOG_C3 + lo_u - 1e-9 <= logk <= LOG_C4 + hi_u + 1e-9
                     for logk, lo_u, hi_u in points)
    return CheckResult("sandwich", violations == 0 and bool(points),
                       f"{len(points)} signatures <= {n_max}; fitted "
                       f"C3'={c3:.6f}, C4'={c4:.6f}, violations={violations}")


# --------------------------------------------------------------------------
# optimizer

def check_optimum_grid() -> CheckResult:
    """Closed-form optimum identities at 1e-8 relative on the contract grid."""
    for k in (1, 2, 3, 10, 100, 1000):
        for a in (1.0, 10.0, 1e3, 1e6):
            op.optimum(k, a)            # raises beyond 1e-8
    return CheckResult("optimum_identities", True, "k in {1,2,3,10,100,1000} x A in {1,10,1e3,1e6}")


def check_deficit(samples: int) -> CheckResult:
    rng = random.Random(DEFICIT_SEED)
    worst = float("inf")
    for _ in range(samples):
        k = rng.randint(2, 20)
        a = rng.uniform(5.0, 100.0)
        logs = [math.log(p) for p in first_primes(k)]
        raw = [rng.uniform(0.01, 1.0) for _ in range(k)]
        scale = rng.uniform(0.1, 1.0) * a / math.fsum(r * l for r, l in zip(raw, logs))
        rep = op.deficit_check([r * scale for r in raw], k, a)
        worst = min(worst, rep.slack, rep.slack_weak)
    return CheckResult("deficit_bound", worst >= -1e-9,
                       f"{samples} random domain points, min slack {worst:.3e}")


def check_witness_sweep() -> CheckResult:
    """Witness construction at each log n of WITNESS_LOG_NS: ratio in [1,2),
    floor property, bounded defect envelope D (see _defect).  Where K(m) is
    exact (in this sweep, at log n = 50 only) it must sit, with no slack,
    inside check_sandwich's closed-form bracket: its one test out of sample."""
    rho = cn.solve_rho()
    env_max = 0.0
    for ln in WITNESS_LOG_NS:
        w = op.witness_m(float(ln))
        if not all(int(x) <= e <= int(x) + 1 for x, e in zip(w.x_star, w.exponents)):
            return CheckResult("witness_sweep", False, f"floor property fails at {ln}")
        if not 1.0 - 1e-9 <= w.ratio_n_over_m < 2.0 + 1e-9:
            return CheckResult("witness_sweep", False, f"ratio {w.ratio_n_over_m} at {ln}")
        if w.exact:
            lo_u, hi_u = ev.sandwich_units(w.exponents)
            if not LOG_C3 + lo_u <= w.log_k_lower <= LOG_C4 + hi_u:
                return CheckResult("witness_sweep", False,
                                   f"exact K(m) escapes the sandwich bracket at {ln}")
        env_max = max(env_max, _defect(rho, ln, w.log_k_lower))
    return CheckResult("witness_sweep", True,
                       f"log n in {WITNESS_LOG_NS[0]}..{WITNESS_LOG_NS[-1]}; "
                       f"defect envelope C6' <= {env_max:.3f}")


def check_divisor_search() -> CheckResult:
    """Meet-in-the-middle vs exhaustive subset products, and the chain law
    d_{i+1} <= 2 d_i on the sorted divisors, for k <= DIVISOR_K_MAX."""
    rng = random.Random(2030)
    for k in range(1, DIVISOR_K_MAX + 1):
        ps = first_primes(k)
        divs = [1]
        for p in ps:
            divs += [d * p for d in divs]
        divs.sort()
        if any(divs[i + 1] > 2 * divs[i] for i in range(len(divs) - 1)):
            return CheckResult("divisor_search", False, f"chain law fails at k={k}")
        for _ in range(40):
            bound = rng.randint(1, divs[-1] + 3)
            want = max(d for d in divs if d <= bound)
            if op.largest_divisor_leq(k, bound) != want:
                return CheckResult("divisor_search", False, f"k={k} bound={bound}")
    return CheckResult("divisor_search", True, f"k <= {DIVISOR_K_MAX} vs exhaustive enumeration")


# --------------------------------------------------------------------------
# champions

def check_champion_small_oracle(x: int) -> CheckResult:
    """Champions from the structured enumeration equal champions from brute
    force K(n) over every n <= x (via the divisor recursion)."""
    codes = _sig_codes(x)
    brute: list[tuple[int, int]] = []
    best = -1
    for n in range(1, x + 1):
        kn = ex.kalmar_recursive(_code_sig(codes[n]))
        if kn > best:
            best = kn
            brute.append((n, kn))
    mine = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(x)]
    ok = mine == brute
    return CheckResult("champion_small_oracle", ok,
                       f"x = {x}: {len(mine)} champions" if ok
                       else f"mismatch: {mine[:5]} vs {brute[:5]}")


def check_champion_laws() -> CheckResult:
    records = ch.find_champions(CHAMPION_LAWS_X)
    rep = ch.verify_champion_laws(records)
    again = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(CHAMPION_LAWS_X)]
    deterministic = again == [(r.candidate.value, r.candidate.k_value) for r in records]
    ok = rep.ok and deterministic
    return CheckResult("champion_laws", ok,
                       f"{len(records)} records at x={CHAMPION_LAWS_X}; " +
                       ("all laws hold" if rep.ok else "; ".join(rep.violations[:3])))


def check_census_monotone() -> CheckResult:
    """Q(X) non-decreasing and prefix-consistent across the bounds CENSUS_XS."""
    prev: list[tuple[int, int]] = []
    for x in CENSUS_XS:
        cur = [(r.candidate.value, r.candidate.k_value) for r in ch.find_champions(x)]
        if cur[: len(prev)] != prev or len(cur) < len(prev):
            return CheckResult("census_monotone", False, f"prefix breaks at x={x}")
        prev = cur
    return CheckResult("census_monotone", True, f"nested bounds {CENSUS_XS}")


# --------------------------------------------------------------------------

def full_suite(fast: bool = False) -> list[CheckResult]:
    """Run every invariant check; fast mode shrinks the random harnesses."""
    f = 10 if fast else 1
    return [
        check_constants_monotone(1000 // f),
        check_truncated_table(),
        check_triple_oracle(10 if fast else 12),
        check_eulerian(40 if fast else 120),
        check_growth_laws(100_000 // f),
        check_supermultiplicative(2000 if not fast else 500),
        check_scaling(1000 // f),
        check_lipschitz(10_000 // f),
        check_gradients(1000 // f),
        check_hessian(10_000 // f),
        check_value_ranges(2000 // f),
        check_ratio_extremes(10 if fast else 12),
        check_sandwich(100_000 // f),
        check_optimum_grid(),
        check_deficit(10_000 // f),
        check_witness_sweep(),
        check_divisor_search(),
        check_champion_small_oracle(10_000 // f),
        check_champion_laws(),
        check_census_monotone(),
    ]
