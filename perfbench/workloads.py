"""Seeded inputs for the oneshot workload and the output checks of every
workload.  The checks recompute what they can without the kalmar code path
that produced the output: K from the Dirichlet series, roots of the Euler
product from their own bisection, candidate counts from their own search.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

# The paper's census at X_20 (the 20-prime primorial).
CENSUS_EXPECTED = {"candidates": 340886, "champions": 761, "alpha_gt1": 111,
                   "largest_alpha_gt1_rank": 390}

# rho, the root of zeta(s) = 2, as published to 16 digits.
RHO = 1.7286472389981836

# Oneshot mix: 100 queries, one after another, each in a fresh interpreter.
LIGHT_KINDS = ("k-n", "k-check", "approx", "optimum", "deficit", "witness", "constants-k")
LIGHT_COUNT = 78
DEEP_COUNT = 12                  # cold K at Omega in 200..800, log-uniform
DEEP_OMEGA = (200, 800)
CENSUS_BOUNDS = 3                # cached census at bounds 10^16..10^18
CENSUS_REPEATS = 3               # the first query per bound writes the cache
SIEVE_BOUND = 20_000_000
CACHE_DIR = "{cache}"


def small_primes(k: int) -> list[int]:
    """The first k primes by trial division (k is at most a few thousand)."""
    out: list[int] = []
    n = 2
    while len(out) < k:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def series_k(sig) -> int:
    """K(n) from K = (1/2) sum_r tau_r(n)/2^r, with tau_r = prod C(a+r-1, a).

    The same series, tail bound and doubling schedule of the cut-off R as
    ``kalmar_series_exact``, but the partial sum is one integer,
    sum tau_r 2^(R-r), extended in place when R doubles, and the binomials
    are stepped in r; Omega = 800 costs a fraction of a second, not seconds.
    """
    om = sum(sig)
    r_max = max(2 * om + 16, 64)
    total = 1 if om == 0 else 0          # tau_0 = [n == 1]
    binoms = [1] * len(sig)              # C(a+r-1, a) at r = 1
    r = 0
    while True:
        for r in range(r + 1, r_max + 1):
            if r > 1:
                binoms = [b * (a + r - 1) // (r - 1) for a, b in zip(sig, binoms)]
            total = 2 * total + math.prod(binoms)
        lo = Fraction(total, 1 << (r_max + 1))
        q = Fraction(r_max + 2, r_max + 1) ** om / 2
        if q < 1:
            tail = Fraction((r_max + 1) ** om, 1 << (r_max + 1)) / (1 - q) / 2
            if math.ceil(lo) == math.floor(lo + tail):
                return math.ceil(lo)
        r_max *= 2


@functools.lru_cache(maxsize=None)
def rho_k(k: int) -> float:
    """Root of prod_{p <= p_k} (1 - p^-s)^-1 = 2 by bisection."""
    logs = [math.log(p) for p in small_primes(k)]

    def euler(s: float) -> float:
        return math.prod(1.0 / (1.0 - math.exp(-s * lp)) for lp in logs)

    lo, hi = 0.5, 4.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if euler(mid) > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=None)
def candidate_count(x: int) -> int:
    """Numbers <= x of the form 2^a1 3^a2 ... with a1 >= a2 >= ... >= 1."""
    primes = small_primes(40)

    def rec(idx: int, value: int, prev: int) -> int:
        n, v, e = 0, value * primes[idx], 1
        while e <= prev and v <= x:
            n += 1 + rec(idx + 1, v, e)
            v *= primes[idx]
            e += 1
        return n
    return 1 + rec(0, 1, x.bit_length())


def _signature(rng: random.Random, omega: int, max_parts: int) -> tuple[int, ...]:
    parts = rng.randint(1, min(max_parts, omega))
    cuts = sorted(rng.sample(range(1, omega), parts - 1))
    return tuple(sorted((b - a for a, b in zip([0, *cuts], [*cuts, omega])), reverse=True))


def _csv(sig) -> str:
    return ",".join(str(a) for a in sig)


def _light(kind: str, rng: random.Random) -> dict:
    if kind == "k-n":
        sig = _signature(rng, rng.randint(1, 12), 6)
        n = math.prod(p ** a for p, a in zip(small_primes(len(sig)), sig))
        return {"argv": ["k", "--n", str(n)], "sig": sig}
    if kind == "k-check":
        sig = _signature(rng, rng.randint(1, 12), 6)
        return {"argv": ["k", "--signature", _csv(sig), "--check"], "sig": sig}
    if kind == "approx":
        sig = _signature(rng, rng.randint(1, 12), 6)
        return {"argv": ["approx", "--signature", _csv(sig)], "sig": sig}
    if kind == "optimum":
        k, budget = rng.randint(2, 20), rng.randint(20, 500)
        return {"argv": ["optimum", "--k", str(k), "--A", str(budget)], "k": k, "A": budget}
    if kind == "deficit":
        sig = _signature(rng, rng.randint(2, 12), 6)
        used = sum(a * math.log(p) for a, p in zip(sig, small_primes(len(sig))))
        budget = round(used * rng.uniform(1.05, 3.0), 3)
        return {"argv": ["deficit", "--signature", _csv(sig), "--A", str(budget)],
                "sig": sig, "A": budget}
    if kind == "witness":
        log_n = rng.randint(50, 1000)
        return {"argv": ["witness", "--log-n", str(log_n)], "log_n": log_n}
    k = rng.randint(1, 1000)
    return {"argv": ["constants", "--k", str(k)], "k": k}


def oneshot_queries(seed: int) -> list[dict]:
    """The seeded query stream.  Deep-K weights and census bounds are drawn
    one per equal stratum, so every seed asks for about the same work.
    CACHE_DIR in an argv stands for the run's private cache directory."""
    rng = random.Random(seed)
    queries = []
    for i in range(LIGHT_COUNT):
        kind = LIGHT_KINDS[i % len(LIGHT_KINDS)]
        queries.append({"cls": "light", "kind": kind, **_light(kind, rng)})
    lo, hi = DEEP_OMEGA
    for i in range(DEEP_COUNT):     # log-uniform: cold K cost grows like Omega^3
        omega = int(lo * (hi / lo) ** ((i + rng.random()) / DEEP_COUNT))
        sig = _signature(rng, omega, 6)
        queries.append({"cls": "deep", "kind": "k-deep", "sig": sig,
                        "argv": ["k", "--signature", _csv(sig)]})
    for i in range(CENSUS_BOUNDS):
        x = int(10 ** (16 + 2 * (i + rng.random()) / CENSUS_BOUNDS))
        for _ in range(CENSUS_REPEATS):
            queries.append({"cls": "census", "kind": "census", "x": x,
                            "argv": ["champions", "--x", str(x), "--census", "--cache",
                                     f"{CACHE_DIR}/x{x}.cache"]})
    queries.append({"cls": "sieve", "kind": "sieve",
                    "argv": ["constants", "--sieve-bound", str(SIEVE_BOUND)]})
    rng.shuffle(queries)
    for q in queries:
        if "sig" in q:
            q["sig"] = list(q["sig"])
    return queries


def _pairs(stdout: str) -> dict[str, str]:
    """The 'name  value' table the CLI prints, header row dropped."""
    rows = [line.split(None, 1) for line in stdout.splitlines()[1:] if line.strip()]
    return {r[0]: r[1].strip() for r in rows}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_query(q: dict, stdout: str, first_census: dict[int, str]) -> str | None:
    """None when the output is right, else what is wrong with it.
    ``first_census`` maps a bound to the output of its first (cache-miss)
    query; later queries of the bound must repeat it byte for byte."""
    kind = q["kind"]
    if kind in ("k-n", "k-check", "k-deep"):
        want = series_k(q["sig"])
        return None if stdout == f"{want}\n" else f"K = {stdout.strip()!r}, series gives {want}"
    v = _pairs(stdout)
    if kind == "approx":
        k = int(v["K"])
        if k != series_k(q["sig"]):
            return f"K = {k}, series gives {series_k(q['sig'])}"
        log_ratio = math.log(k) - float(v["log_estimate"])
        if abs(math.log(float(v["ratio"])) - log_ratio) > 1e-9 * max(1.0, math.log(k)):
            return "ratio is not K / estimate"
        return None
    if kind == "optimum":
        k, budget = q["k"], q["A"]
        xs = [float(t) for t in v["x_star"].strip("[]").split(",")]
        used = sum(x * math.log(p) for x, p in zip(xs, small_primes(k)))
        rk = rho_k(k)
        if len(xs) != k or not _close(used, budget, 1e-9):
            return f"x_star spends {used}, budget {budget}"
        if not (_close(float(v["rho_k"]), rk, 1e-10) and _close(float(v["F_star"]), rk * budget, 1e-10)):
            return f"rho_k {v['rho_k']} / F_star {v['F_star']}, bisection gives {rk}"
        return None
    if kind == "deficit":
        f_star, f_alpha = float(v["F_star"]), float(v["F_alpha"])
        deficit, bound, slack = float(v["deficit"]), float(v["bound"]), float(v["slack"])
        if not _close(f_star, rho_k(len(q["sig"])) * q["A"], 1e-10):
            return f"F_star {f_star} is not rho_k A"
        if not (_close(bound, f_star - deficit, 1e-10) and abs(slack - (bound - f_alpha)) <= 1e-9 * f_star):
            return "bound or slack inconsistent"
        return None if slack >= -1e-9 * f_star and deficit >= 0.0 else f"deficit bound violated: slack {slack}"
    if kind == "witness":
        exps = [int(t) for t in v["exponents"].strip("[]").split(",")]
        sig = [int(t) for t in v["signature"].strip("[]").split(",")]
        ratio = float(v["ratio_n_over_m"])
        m_log = sum(e * math.log(p) for e, p in zip(exps, small_primes(len(exps))))
        if not (1.0 <= ratio < 2.0 and _close(m_log + math.log(ratio), q["log_n"], 1e-10)):
            return f"n/m = {ratio} with log m = {m_log}"
        if sorted((e for e in exps if e), reverse=True) != sig or int(v["Omega_m"]) != sum(sig):
            return "signature or Omega_m does not match the exponents"
        if v["exact"] == "true" and not _close(float(v["log_K_lower"]), math.log(series_k(sig)), 1e-10):
            return "exact log K differs from the series"
        return None
    if kind == "constants-k":
        k = q["k"]
        rk = float(v[f"rho_{k}"])
        if not _close(rk, rho_k(k), 1e-10):
            return f"rho_{k} = {rk}, bisection gives {rho_k(k)}"
        return _check_model_constants(v)
    if kind == "sieve":
        bad = _check_model_constants(v)
        if bad:
            return bad
        a, b, t0 = float(v["a"]), float(v["b"]), float(v["T0"])
        for name, want in (("inv_a", 1.0 / a), ("b_sum", b / a), ("T0", t0)):
            got, err = float(v[f"sieve_{name}"]), float(v[f"sieve_{name}_tail_err"])
            if abs(got - want) > 10.0 * err + 1e-10:
                return f"sieve {name} = {got}, constants give {want}"
        return None
    if kind == "census":
        x = q["x"]
        if first_census.setdefault(x, stdout) != stdout:
            return "cache-hit output differs from the cache-miss output"
        if v["X"] != str(x) or int(v["candidates"]) != candidate_count(x):
            return f"candidates {v['candidates']}, search gives {candidate_count(x)}"
        return None
    return f"no check for {kind}"


def _check_model_constants(v: dict[str, str]) -> str | None:
    rho = float(v["rho"])
    return None if _close(rho, RHO, 1e-10) else f"rho = {rho}, published {RHO}"
