"""Child process: runs one workload operation in a fresh interpreter.

    python3 perfbench/child.py census TRACE_DIR SEED
    python3 perfbench/child.py verify TRACE_DIR
    python3 perfbench/child.py cli TRACE_DIR -- ARGV...

TRACE_DIR is "-" for an untraced run; otherwise the tracer is installed
before the operation starts and spans.jsonl and layers.json are written there
when it ends.  census and verify print one JSON result line on stdout; cli
leaves stdout to ``kalmar.cli.dispatch`` and exits with its status.  The
package is found through PYTHONPATH, which the parent points at src/.
"""

from __future__ import annotations

import os
import sys
import time

# Only the cli path matters for import cost: it imports nothing of the
# benchmark's own unless traced, so an untraced query costs what
# ``python -m kalmar`` does.

# The paper's census: X_20 is the 20-prime primorial.
X20 = 557940830126698960967415390
CENSUS_SAMPLE = 64


def _trace(trace_dir: str):
    """(tracer, uninstall), or (None, no-op) for an untraced run."""
    if trace_dir == "-":
        return None, lambda: None
    import spans
    tracer = spans.Tracer()
    return tracer, spans.install(tracer)


def _finish(tracer, trace_dir: str) -> None:
    if tracer is None:
        return
    import json
    tracer.write_jsonl(os.path.join(trace_dir, "spans.jsonl"))
    with open(os.path.join(trace_dir, "layers.json"), "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)


def run_census(seed: int, untrace) -> dict:
    import random
    from kalmar import champions as ch
    from kalmar import constants as cn
    t0 = time.perf_counter()
    cands = list(ch.enumerate_candidates(X20))
    cen = ch.census(X20, candidates=cands)
    records = ch.champions_from_candidates(cands)
    tab = cn.model_constants()
    for rec in records:
        ch.champion_stats(rec, tab)
    wall = time.perf_counter() - t0
    untrace()                       # the checks below are not traced
    laws = ch.verify_champion_laws(records)
    picks = random.Random(seed).sample(range(len(cands)), CENSUS_SAMPLE)
    return {
        "wall_s": wall,
        "candidates": cen.candidate_count,
        "champions": cen.champion_count,
        "alpha_gt1": cen.alpha_gt1_count,
        "largest_alpha_gt1_rank": cen.largest_alpha_gt1.rank,
        "laws_ok": laws.ok,
        "sample": [[list(cands[i].signature), str(cands[i].value), str(cands[i].k_value)]
                   for i in picks],
    }


def run_verify(tracer) -> dict:
    from kalmar import verify as vf
    # Untraced, only the 21 check boundaries are timed; full_suite reaches
    # the checks through the module's globals.
    times: dict[str, float] = {}
    if tracer is None:
        for attr in [a for a in vars(vf) if a.startswith("check_")]:
            setattr(vf, attr, _timed(getattr(vf, attr), times))
    t0 = time.perf_counter()
    results = vf.full_suite(fast=True)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "checks": [[r.name, r.ok, r.detail] for r in results],
        "check_s": list(times.values()),
    }


def _timed(fn, times: dict):
    def timed(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[fn.__name__] = time.perf_counter() - t
    return timed


def main(argv: list[str]) -> int:
    kind, trace_dir = argv[0], argv[1]
    if kind == "cli":
        import kalmar.cli
        tracer, _ = _trace(trace_dir)
        status = kalmar.cli.dispatch(argv[3:])
        sys.stdout.flush()
        _finish(tracer, trace_dir)
        return status
    tracer, untrace = _trace(trace_dir)
    if kind == "census":
        out = run_census(int(argv[2]), untrace)
    elif kind == "verify":
        out = run_verify(tracer)
    else:
        raise SystemExit(f"unknown kind {kind!r}")
    _finish(tracer, trace_dir)
    import json
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
