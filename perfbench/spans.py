"""In-memory span tracer for the kalmar package, installed from outside it.

The tracer replaces a layer's public functions by wrappers at every module
attribute that holds them, so calls from other layers (``champions`` calling
``kalmar_macmahon``, ``constants`` calling ``first_primes``) and calls within
a layer through its own globals are both recorded.  Each wrapped call records
a span (name, start, end, parent) and bumps a per-name call count.  Spans live
in flat arrays while the workload runs and are written out as JSONL when it
ends.  A generator function gets one span per resume, so its self time is the
time spent producing items, not the time its consumer holds it open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

# Wrapped functions per layer.  Layers are the package's modules; "check_*"
# and "_cmd_*" expand to every function of that prefix in the module.
LAYERS = {
    "primes": ("sieve_primes", "first_primes"),
    "exact": ("kalmar_macmahon", "kalmar_recursive", "kalmar_series_bounds",
              "kalmar_series_exact"),
    "constants": ("zeta", "zeta_truncated", "solve_rho", "lagrange_scale",
                  "model_constants", "truncated_constants", "prime_sum_check"),
    "evans": ("solve_c", "t_of", "grad_c", "f_of", "grad_f", "hessian_form",
              "evans_estimate"),
    "optimize": ("optimum", "deficit_check", "witness_m", "largest_divisor_leq"),
    "champions": ("enumerate_candidates", "champions_from_candidates", "census",
                  "champion_stats", "verify_champion_laws", "load_candidates",
                  "save_candidates"),
    "verify": ("check_*",),
    "cli": ("dispatch", "_cmd_*"),
}


def span_name(module: str, func: str) -> str:
    """Trace name of a wrapped function: verify checks and CLI subcommands
    are named as their users know them (``verify.sandwich``, ``cli.k``)."""
    if module == "verify" and func.startswith("check_"):
        func = func[len("check_"):]
    elif module == "cli" and func.startswith("_cmd_"):
        func = func[len("_cmd_"):].replace("_", "-")
    return f"{module}.{func}"


class Tracer:
    """Spans as parallel arrays indexed by span id; parent -1 is the root."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self.t0 = time.perf_counter()

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, note=None):
        """Wrapper recording one span per call; ``note(args, result)`` may
        add counters after the call returns."""
        nid = self._name_id(name)
        calls, stack = self.calls, self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                while True:
                    i = len(start)
                    name_of.append(nid)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(i)
                    start.append(clock())
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end[i] = clock()
                        stack.pop()
                    if note is not None:
                        note(args, item)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                note(args, result)
            return result
        return wrapper

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in start order, times in seconds since
        the tracer started; the last line holds the call counts and counters."""
        t0, names = self.t0, self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f'{{"id":{i},"parent":{self.parent[i]},'
                         f'"name":"{names[self.name_of[i]]}",'
                         f'"start":{self.start[i] - t0:.9f},"end":{self.end[i] - t0:.9f}}}\n')
            fh.write(json.dumps({"calls": self.calls, "counters": self.counters}) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, self_s, total_s and max_s; plus counters."""
        selfs = self_times(self.parent, self.start, self.end)
        agg: dict[str, dict] = {
            name: {"calls": n, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0}
            for name, n in self.calls.items()}
        names = self.names
        for i, s in enumerate(selfs):
            a = agg[names[self.name_of[i]]]
            dur = self.end[i] - self.start[i]
            a["self_s"] += s
            a["total_s"] += dur
            if dur > a["max_s"]:
                a["max_s"] = dur
        return {"spans": agg, "counters": dict(self.counters)}


def self_times(parent, start, end) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    that the union of its direct children covers.  Children may be nested
    inside each other's interval only through their own children, touch
    back to back, or (in hand-made input) overlap; overlap counts once."""
    n = len(start)
    covered = [0.0] * n
    cover_end = [float("-inf")] * n
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], cover_end[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > cover_end[p]:
            cover_end[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def install(tracer: Tracer):
    """Wrap every function named in LAYERS wherever a kalmar module holds it;
    returns a function that puts the originals back."""
    importlib.import_module("kalmar.cli")      # imports every layer
    modules = [m for name, m in sorted(sys.modules.items())
               if (name == "kalmar" or name.startswith("kalmar.")) and m is not None]
    notes = {     # every caller passes K a tuple, so summing it is safe
        "exact.kalmar_macmahon":
            lambda args, k: tracer.count("exact.kalmar_macmahon.omega_sum", sum(args[0])),
        "champions.load_candidates":
            lambda args, cands: tracer.count("champions.load_candidates.hits", cands is not None),
        "champions.enumerate_candidates":
            lambda args, cand: tracer.count("champions.candidates"),
    }
    replaced = []
    for layer, funcs in LAYERS.items():
        mod = sys.modules[f"kalmar.{layer}"]
        targets = []
        for f in funcs:
            if f.endswith("*"):
                targets += sorted(a for a in vars(mod) if a.startswith(f[:-1])
                                  and inspect.isfunction(getattr(mod, a)))
            else:
                targets.append(f)
        for f in targets:
            orig = getattr(mod, f)
            name = span_name(layer, f)
            wrapped = tracer.wrap(name, orig, notes.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapped)
                        replaced.append((m, attr, orig))

    def uninstall() -> None:
        for m, attr, orig in replaced:
            setattr(m, attr, orig)
    return uninstall
