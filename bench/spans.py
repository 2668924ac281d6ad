"""Per-layer tracing of diffnet by wrapping its module-level functions.

Every public function of a traced module is replaced, in the namespace of
every ``diffnet`` module that binds it, by a wrapper that records a span
(id, parent id, name, start, end). Calls between functions of one module
go through that module's globals, so they are caught too. Spans stay in
memory; self time (duration minus the direct children's durations) is
computed from them afterwards.

Layer metrics name groups of functions, not single symbols, and a group
the code no longer has is reported as absent rather than failing, so the
traced run survives refactors. Module totals cover every public function
found, whatever it is called.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import itertools
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = (
    "cli",
    "problem_io",
    "verdict",
    "assembly",
    "subsystem",
    "topology",
    "numerics",
)

#: metric prefix -> (module, function name patterns); patterns rather than
#: names, so that merged or renamed functions keep being counted
FUNCTION_GROUPS = {
    "numerics.numerical_rank": ("numerics", ("numerical_rank",)),
    "numerics.eigenvalues": ("numerics", ("eigenvalues",)),
    "verdict.certify_monte_carlo": ("verdict", ("certify_monte_carlo",)),
    "verdict.analyze": ("verdict", ("analyze", "analyze_simo", "analyze_mimo")),
    "assembly.sample_weights": ("assembly", ("sample_weights",)),
    "assembly.assemble": ("assembly", ("assemble*",)),
    "problem_io.load_problem": ("problem_io", ("load_problem", "parse_problem")),
    "problem_io.dump_json": ("problem_io", ("dump_json",)),
    "topology.incidence_matrices": ("topology", ("incidence_matrices",)),
    "subsystem.fixed_modes": ("subsystem", ("fixed_modes",)),
}


def _rank_work(counters, args, kwargs, result):
    matrix = args[0] if args else kwargs.get("matrix")
    shape = getattr(matrix, "shape", None)
    if shape is not None and len(shape) == 2:
        m, n = shape
        counters["numerics.rank_work"] += m * n * min(m, n)


def _a_sys_bytes(counters, args, kwargs, result):
    a_sys = getattr(result, "a_sys", None)
    counters["assembly.a_sys_bytes"] += getattr(a_sys, "nbytes", 0)


def _bytes_in(counters, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    if isinstance(path, (str, os.PathLike)):
        counters["problem_io.bytes_in"] += os.path.getsize(path)


def _bytes_out(counters, args, kwargs, result):
    if isinstance(result, str):
        counters["problem_io.bytes_out"] += len(result.encode("utf-8"))


def _trials(counters, args, kwargs, result):
    per_trial = getattr(result, "per_trial", ())
    counters["verdict.trials"] += len(per_trial)
    counters["verdict.trials_ok"] += sum(1 for t in per_trial if getattr(t, "controllable", False))
    counters["verdict.deficient_checks"] += sum(
        getattr(t, "deficient_count", 0) or 0 for t in per_trial
    )


#: counters read at a function's boundary from its arguments and result,
#: keyed by "module.function" pattern
COUNTERS = {
    "numerics.numerical_rank": _rank_work,
    "assembly.assemble*": _a_sys_bytes,
    "problem_io.load_problem": _bytes_in,
    "problem_io.dump_json": _bytes_out,
    "verdict.certify_monte_carlo": _trials,
}


def _in_group(qual: str, module: str, patterns) -> bool:
    mod, _, name = qual.partition(".")
    return mod == module and any(fnmatch.fnmatchcase(name, p) for p in patterns)


class Tracer:
    """Installs span-recording wrappers into the loaded diffnet modules and removes them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, parent_id, name, start, end)
        self.counters: dict[str, float] = defaultdict(float)
        self.functions: dict[str, object] = {}  # "module.function" -> original
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple] | None = None

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._find_patches()
        for mod, attr, _original, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _wrapper in self._patches or ():
            setattr(mod, attr, original)

    def _find_patches(self) -> list[tuple]:
        """(module, attribute, original, wrapper) for every binding to wrap."""
        prefix = "diffnet."
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(prefix + short)
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                qual = f"{short}.{attr}"
                self.functions[qual] = obj
                wrappers[id(obj)] = (obj, self._wrap(obj, qual))
        patches = []
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "diffnet" or name.startswith(prefix)):
                continue
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patches.append((mod, attr, obj, hit[1]))
        return patches

    def _wrap(self, fn, qual: str):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        counter = next(
            (fn for pattern, fn in COUNTERS.items() if fnmatch.fnmatchcase(qual, pattern)), None
        )
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, qual, start, end))
            if counter is not None:
                counter(counters, args, kwargs, result)
            return result

        return traced

    def absent_groups(self) -> list[str]:
        """Function groups none of whose candidates exist in the code."""
        return [
            group
            for group, (module, patterns) in FUNCTION_GROUPS.items()
            if not any(_in_group(qual, module, patterns) for qual in self.functions)
        ]


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Name -> (calls, total self seconds) over a list of spans."""
    child_time: dict[int, float] = defaultdict(float)
    for _span_id, parent, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for span_id, _parent, name, start, end in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time[span_id])
    return out


def root_wall(spans) -> float:
    """Summed duration of the spans no other span encloses."""
    return sum(end - start for _id, parent, _name, start, end in spans if parent is None)


def layer_metrics(tracer: Tracer, problems: int) -> dict[str, float]:
    """Per-problem self times, call counts and counters of the traced run."""
    per = 1.0 / max(problems, 1)
    times = self_times(tracer.spans)
    out: dict[str, float] = {}
    for module in TRACED_MODULES:
        rows = [v for k, v in times.items() if k.split(".", 1)[0] == module]
        out[f"{module}.self_s"] = sum(s for _, s in rows) * per
        out[f"{module}.calls"] = sum(c for c, _ in rows) * per
    for group, (module, patterns) in FUNCTION_GROUPS.items():
        rows = [v for k, v in times.items() if _in_group(k, module, patterns)]
        out[f"{group}.self_s"] = sum(s for _, s in rows) * per
        out[f"{group}.calls"] = sum(c for c, _ in rows) * per
    c = tracer.counters
    for name in (
        "numerics.rank_work",
        "assembly.a_sys_bytes",
        "problem_io.bytes_in",
        "problem_io.bytes_out",
        "verdict.trials",
        "verdict.deficient_checks",
    ):
        out[name] = c.get(name, 0.0) * per
    trials = c.get("verdict.trials", 0.0)
    out["verdict.trial_ok_frac"] = c.get("verdict.trials_ok", 0.0) / trials if trials else 0.0
    return out
