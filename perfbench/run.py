"""Benchmark of the kalmar workbench: end-to-end and per-layer cost.

    python3 perfbench/run.py --workload census|verify|oneshot --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is loaded from its src/.
Every workload runs in fresh child interpreters, one operation at a time
(a closed loop with one client), and repeats its whole unit of work while
another repetition still fits in --seconds (at least once).  Outputs are
checked after the timed phase.  Human-readable lines go first; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the unit runs once untraced and once traced and the metrics are
the per-layer ones.  The exit status is 0 only when every check passed.
Generated inputs, results and spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
QUERY_TIMEOUT_S = 60

END_TO_END = {            # name: unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}

VERIFY_CHECKS = (
    "constants_monotone", "truncated_table", "scale_gap_envelope", "triple_oracle",
    "eulerian", "growth_laws", "supermultiplicative", "scaling", "lipschitz",
    "gradients", "hessian", "value_ranges", "ratio_extremes", "sandwich",
    "optimum_grid", "deficit", "witness_sweep", "divisor_search",
    "champion_small_oracle", "champion_laws", "census_monotone",
)
CLI_SUBCOMMANDS = ("k", "approx", "optimum", "deficit", "witness", "constants", "champions")
MODULES = ("primes", "exact", "constants", "evans", "optimize", "champions", "verify", "cli")


def _calls_self(*spans: str) -> list[str]:
    return [f"{s}.{m}" for s in spans for m in ("calls", "self_s")]


PER_LAYER = [
    *_calls_self("exact.kalmar_macmahon"),
    "exact.kalmar_macmahon.omega_sum", "exact.kalmar_macmahon.max_call_s",
    "exact.kalmar_macmahon.self_share",
    *_calls_self("exact.kalmar_recursive"), "exact.kalmar_series_bounds.self_s",
    "champions.enumerate_candidates.self_s", "champions.candidates",
    "champions.champions_from_candidates.self_s", "champions.census.self_s",
    *_calls_self("champions.load_candidates", "champions.save_candidates"),
    "champions.cache_hit_ratio",
    *_calls_self("constants.solve_rho"), "constants.solve_rho.total_s",
    "constants.zeta_truncated.calls",
    *_calls_self("constants.zeta", "constants.lagrange_scale"),
    "constants.prime_sum_check.self_s", "primes.sieve_primes.self_s",
    *_calls_self("primes.first_primes"),
    *_calls_self(*(f"evans.{f}" for f in ("solve_c", "t_of", "grad_c", "f_of", "grad_f",
                                         "hessian_form", "evans_estimate"))),
    *_calls_self(*(f"optimize.{f}" for f in ("optimum", "deficit_check", "witness_m",
                                            "largest_divisor_leq"))),
    *(f"verify.{c}.wall_s" for c in VERIFY_CHECKS),
    "cli.dispatch.self_s",
    *(f"cli.{c}.latency_p50_s" for c in CLI_SUBCOMMANDS),
    *(f"layer.{m}.self_s" for m in MODULES),
    "trace.overhead_frac",
]


COUNTERS = ("exact.kalmar_macmahon.omega_sum", "champions.candidates")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "_share")):
        return "ratio"
    return "count"


# --- statistics --------------------------------------------------------------

def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p % of the
    samples at or below it."""
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(n: int, ladder=(50, 75, 90, 95, 99, 99.9)) -> float | None:
    """The highest percentile on the ladder that has at least ten of n
    samples beyond it, or None when even the median has fewer."""
    fit = [p for p in ladder if n - _rank(p, n) >= 10]
    return fit[-1] if fit else None


# --- child processes ---------------------------------------------------------

def child_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("KALMAR_CACHE", "KALMAR_SIEVE_BOUND", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, float, str, str]:
    """(exit status, wall seconds, stdout, stderr); a timed-out child is
    killed and reported with status -9."""
    t = time.perf_counter()
    try:
        cp = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                            text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        return -9, time.perf_counter() - t, out, "timed out"
    return cp.returncode, time.perf_counter() - t, cp.stdout, cp.stderr


SETUP_ARGV = ["-c", "import kalmar.cli"]


def measure_setup(env: dict) -> list[float]:
    """Fresh interpreter start plus ``import kalmar.cli``, bytecode cached."""
    return [run_child(SETUP_ARGV, env, CHILD_TIMEOUT_S)[1] for _ in range(SETUP_SAMPLES)]


def read_layers(path: str, into: dict) -> None:
    """Add one traced child's layers.json to the running totals."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    for name, a in data["spans"].items():
        b = into["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0})
        for k in ("calls", "self_s", "total_s"):
            b[k] += a[k]
        b["max_s"] = max(b["max_s"], a["max_s"])
    for k, v in data["counters"].items():
        into["counters"][k] = into["counters"].get(k, 0) + v


class Run:
    """What one invocation measured: per-repetition walls, per-operation
    latencies, operations attempted and failed, and in a traced run the
    layer totals and the traced wall."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.layers = {"spans": {}, "counters": {}}
        self.traced_wall = 0.0
        self.by_subcommand: dict[str, list[float]] = {}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _repeat(unit, seconds: float, traced: bool) -> None:
    """Run ``unit(traced)`` once, and again while another fits in seconds."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        unit(traced)
        if traced:
            return
        now = time.perf_counter()
        if now + (now - t) - start > seconds:
            return


# --- workloads ---------------------------------------------------------------

CHILD = os.path.join(HERE, "child.py")


def _one_child_workload(run: Run, env: dict, out: str, seconds: float, traced: bool,
                        args: list[str], check, op_latencies) -> None:
    """A unit of work that is one child process: ``child.py KIND TRACE_DIR
    ARGS``.  ``check(res)`` checks its JSON result; ``op_latencies(res)``
    gives the latencies of its operations."""
    def one(trace_dir: str) -> dict | None:
        code, _, stdout, stderr = run_child([CHILD, args[0], trace_dir, *args[1:]], env,
                                            CHILD_TIMEOUT_S)
        if code != 0:
            run.check(False, f"{args[0]} child exited {code}: {stderr.strip()[-400:]}")
            return None
        res = json.loads(stdout)
        check(res)
        return res

    def unit(trace: bool) -> None:
        res = one("-")
        if res is None:
            return
        run.walls.append(res["wall_s"])
        run.latencies += op_latencies(res)
        if trace:
            res = one(out)
            if res is not None:
                run.traced_wall = res["wall_s"]
                read_layers(os.path.join(out, "layers.json"), run.layers)

    _repeat(unit, seconds, traced)


def census_workload(run: Run, env: dict, out: str, seed: int, seconds: float, traced: bool) -> None:
    """The paper's census at X_20 in one process, no cache; one operation."""
    primes = workloads.small_primes(20)

    def check(res: dict) -> None:
        for key, want in workloads.CENSUS_EXPECTED.items():
            run.check(res[key] == want, f"{key} = {res[key]}, published {want}")
        run.check(res["laws_ok"], "verify_champion_laws failed")
        for sig, value, k in res["sample"]:
            n = math.prod(p ** a for p, a in zip(primes, sig))
            run.check(str(n) == value and int(k) == workloads.series_k(sig),
                      f"candidate {sig}: N = {value}, K = {k}")

    _one_child_workload(run, env, out, seconds, traced, ["census", str(seed)], check,
                        lambda res: [res["wall_s"]])


def verify_workload(run: Run, env: dict, out: str, seed: int, seconds: float, traced: bool) -> None:
    """The fast invariant suite in one process; each of its 21 checks is an
    operation.  The suite has no inputs to seed."""
    def check(res: dict) -> None:
        for name, ok, detail in res["checks"]:
            run.check(ok, f"{name}: {detail}")

    _one_child_workload(run, env, out, seconds, traced, ["verify"], check,
                        lambda res: res["check_s"])


def oneshot_workload(run: Run, env: dict, out: str, seed: int, seconds: float, traced: bool) -> None:
    """100 seeded CLI queries, each in a fresh interpreter, in turn; each
    query is an operation."""
    queries = workloads.oneshot_queries(seed)
    with open(os.path.join(out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "queries": queries}, fh, indent=1)
    reps = 0

    def query(q: dict, cache: str, trace_dir: str) -> tuple[int, float, str, str]:
        argv = [a.replace(workloads.CACHE_DIR, cache) for a in q["argv"]]
        return run_child([CHILD, "cli", trace_dir, "--", *argv], env, QUERY_TIMEOUT_S)

    def unit(trace: bool) -> None:
        nonlocal reps
        reps += 1
        cache = os.path.join(out, f"cache-{reps}")
        os.makedirs(cache)
        os.makedirs(cache + "-traced")
        results, traced_total = [], 0.0
        for i, q in enumerate(queries):
            results.append(query(q, cache, "-"))
            if trace:
                tdir = os.path.join(out, "trace", f"q{i:03d}")
                os.makedirs(tdir)
                code, secs, stdout, _ = query(q, cache + "-traced", tdir)
                traced_total += secs
                run.check(code == 0 and stdout == results[-1][2],
                          f"{q['argv']}: traced stdout differs from untraced")
                if code == 0:
                    read_layers(os.path.join(tdir, "layers.json"), run.layers)
        first_census: dict[int, str] = {}
        for q, (code, secs, stdout, stderr) in zip(queries, results):
            run.latencies.append(secs)
            run.by_subcommand.setdefault(q["argv"][0], []).append(secs)
            bad = f"exit {code}: {stderr.strip()[-300:]}" if code != 0 \
                else workloads.check_query(q, stdout, first_census)
            run.check(bad is None, f"{q['argv']}: {bad}")
        run.walls.append(sum(r[1] for r in results))
        run.traced_wall = traced_total

    _repeat(unit, seconds, traced)


WORKLOADS = {"census": census_workload, "verify": verify_workload, "oneshot": oneshot_workload}


# --- metrics -----------------------------------------------------------------

def end_to_end_metrics(run: Run, setup: list[float], peak_rss_mb: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(run.walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "latency_p50_s": percentile(run.latencies, 50),
        "latency_p90_s": percentile(run.latencies, 90),
    }


def layer_metrics(run: Run) -> dict[str, float]:
    spans, counters = run.layers["spans"], run.layers["counters"]
    untraced = sum(run.walls)

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in COUNTERS:
            value = counters.get(name, 0)
        elif name == "champions.cache_hit_ratio":
            loads = span("champions.load_candidates", "calls")
            value = counters.get("champions.load_candidates.hits", 0) / loads if loads else 0.0
        elif name == "exact.kalmar_macmahon.self_share":
            value = span(base, "self_s") / run.traced_wall if run.traced_wall else 0.0
        elif name == "trace.overhead_frac":
            value = run.traced_wall / untraced - 1.0 if untraced else 0.0
        elif name.startswith("layer."):
            prefix = base[len("layer."):] + "."
            value = sum(a["self_s"] for n, a in spans.items() if n.startswith(prefix))
        elif field == "latency_p50_s":
            lat = run.by_subcommand.get(base[len("cli."):])
            value = statistics.median(lat) if lat else 0.0
        elif field == "max_call_s":
            value = span(base, "max_s")
        elif field == "wall_s":
            value = span(base, "total_s")
        else:
            value = span(base, field)
        out[name] = value
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kalmar", "cli.py")):
        print("error: run from a checkout root holding src/kalmar", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    out = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    env = child_env(root)
    if run_child(SETUP_ARGV, env, CHILD_TIMEOUT_S)[0] != 0:   # also compiles the bytecode
        print("error: cannot import kalmar.cli from src/", file=sys.stderr)
        return 2
    # Set-up is sampled before and after the workload, so that a change of
    # host speed during the run shifts the median less.
    setup = measure_setup(env)
    run = Run()
    WORKLOADS[args.workload](run, env, out, args.seed, args.seconds, traced)
    setup += measure_setup(env)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if not run.walls:               # every child failed; the result says so
        run.walls = run.latencies = [0.0]

    if traced:
        metrics = layer_metrics(run)
        units = {n: layer_unit(n) for n in PER_LAYER}
    else:
        metrics = end_to_end_metrics(run, setup, peak_rss_mb)
        units = END_TO_END
    failed = len(run.failures)
    n_lat = len(run.latencies)
    tail = tail_percentile(n_lat)
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(run.walls)}  "
          f"{'traced' if traced else 'untraced'}")
    print(f"operations {run.attempted}  failed {failed}  "
          f"fail_frac {failed / run.attempted:.4g}")
    print(f"latency samples {n_lat}; highest percentile with 10 beyond: "
          f"{'none' if tail is None else f'p{tail:g}'}")
    for what in run.failures[:20]:
        print(f"FAILED {what}")
    for name, value in metrics.items():
        print(f"{name:<45} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "seed": args.seed, "walls": run.walls,
                   "latencies": run.latencies, "setup": setup,
                   "failures": run.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
