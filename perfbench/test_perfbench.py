"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run        # noqa: E402
import spans      # noqa: E402
import workloads  # noqa: E402


# --- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (19, None), (20, 50), (21, 50), (40, 75), (99, 75), (100, 90),
    (199, 90), (200, 95), (999, 95), (1000, 99), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert run.tail_percentile(n) == want
    if want is not None:
        assert n - run._rank(want, n) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 90) == 90
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert run.percentile(values, 50) == 50
    assert run.percentile([7.0], 90) == 7.0


# --- self time ---------------------------------------------------------------

def _self(spans_):
    parent = [p for p, _, _ in spans_]
    start = [s for _, s, _ in spans_]
    end = [e for _, _, e in spans_]
    return spans.self_times(parent, start, end)


def test_self_time_nested_children_count_once():
    # A [0,10] > B [1,5] > C [2,3]: A loses B's 4 s, not C's as well.
    assert _self([(-1, 0.0, 10.0), (0, 1.0, 5.0), (1, 2.0, 3.0)]) == [6.0, 3.0, 1.0]


def test_self_time_back_to_back_children():
    # A [0,10] with B [1,4] and C [4,7] touching at 4.
    assert _self([(-1, 0.0, 10.0), (0, 1.0, 4.0), (0, 4.0, 7.0)]) == [4.0, 3.0, 3.0]


def test_self_time_overlap_and_input_order():
    # Hand-made overlapping children [3,6] and [1,5], listed out of order,
    # cover [1,6] once; a child running past its parent is clipped.
    got = _self([(-1, 0.0, 10.0), (0, 3.0, 6.0), (0, 1.0, 5.0), (-1, 20.0, 22.0), (3, 21.0, 30.0)])
    assert got[0] == 5.0 and got[3] == 1.0


def test_tracer_records_calls_generators_and_notes(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    tracer = spans.Tracer()

    leaf = tracer.wrap("m.leaf", lambda x: x, note=lambda args, r: tracer.count("m.sum", args[0]))

    def gen_fn(n):
        for i in range(n):
            yield leaf(i)
    gen = tracer.wrap("m.gen", gen_fn, note=lambda args, item: tracer.count("m.items"))
    assert list(gen(3)) == [0, 1, 2]

    summary = tracer.summary()
    assert summary["spans"]["m.gen"]["calls"] == 1           # one call, four resumes
    assert summary["spans"]["m.leaf"]["calls"] == 3
    assert summary["counters"] == {"m.sum": 3, "m.items": 3}
    assert list(tracer.parent).count(-1) == 4
    # each resume spans 3 ticks around a 1-tick leaf; the last finds the end
    assert summary["spans"]["m.gen"]["self_s"] == 3 * 2 + 1
    assert summary["spans"]["m.leaf"]["self_s"] == 3


def test_install_wraps_cross_layer_attributes(tmp_path):
    from kalmar import champions, exact
    orig = exact.kalmar_macmahon
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        assert champions.kalmar_macmahon is exact.kalmar_macmahon is not orig
        assert len(list(champions.enumerate_candidates(10_000))) == 83
    finally:
        uninstall()
    assert champions.kalmar_macmahon is orig and exact.kalmar_macmahon is orig
    summary = tracer.summary()
    assert summary["spans"]["exact.kalmar_macmahon"]["calls"] == 83
    assert summary["counters"]["champions.candidates"] == 83
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(tracer.start) + 1
    assert json.loads(lines[0])["name"] == "champions.enumerate_candidates"


# --- metrics named in BENCHMARK.json ------------------------------------------

def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _synthetic_run():
    r = run.Run()
    r.walls, r.latencies, r.traced_wall = [2.0], [0.5, 1.5], 2.2
    r.by_subcommand = {"k": [0.1, 0.2]}
    r.layers = {"spans": {"exact.kalmar_macmahon": {"calls": 4, "self_s": 1.0, "total_s": 1.0,
                                                    "max_s": 0.5}},
                "counters": {"exact.kalmar_macmahon.omega_sum": 10}}
    return r


def test_every_end_to_end_metric_is_emitted():
    spec = _spec()
    metrics = run.end_to_end_metrics(_synthetic_run(), [0.1, 0.2, 0.3], 50.0)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_every_per_layer_metric_is_emitted():
    spec = _spec()
    metrics = run.layer_metrics(_synthetic_run())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
    assert metrics["exact.kalmar_macmahon.self_share"] == 1.0 / 2.2
    assert metrics["exact.kalmar_macmahon.omega_sum"] == 10
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)
    assert metrics["layer.exact.self_s"] == 1.0


# --- inputs and oracles --------------------------------------------------------

def test_oneshot_inputs_follow_the_seed():
    a, b = workloads.oneshot_queries(7), workloads.oneshot_queries(7)
    assert a == b and a != workloads.oneshot_queries(8)
    kinds = [q["cls"] for q in a]
    assert (len(a), kinds.count("deep"), kinds.count("census"), kinds.count("sieve")) == (100, 12, 9, 1)
    assert all(200 <= sum(q["sig"]) <= 800 for q in a if q["cls"] == "deep")
    assert all(sum(q["sig"]) <= 12 for q in a if "--check" in q["argv"])


def test_series_oracle_matches_kalmar_series_exact():
    from kalmar.exact import kalmar_macmahon, kalmar_series_exact, signatures_with_omega
    for om in range(11):
        for sig in signatures_with_omega(om):
            assert workloads.series_k(sig) == kalmar_series_exact(sig)
    assert workloads.series_k((40, 30, 3, 1)) == kalmar_macmahon((40, 30, 3, 1))


def test_independent_counts_and_roots():
    assert workloads.candidate_count(10_000) == 83
    assert workloads.rho_k(1) == pytest.approx(1.0, abs=1e-12)   # 1/(1 - 2^-s) = 2
    assert workloads.rho_k(1000) < workloads.RHO
