#!/usr/bin/env python3
"""Benchmark of the diffnet command line, end to end and layer by layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload certify-sweep --seed 1 --seconds 30 --trace 0

One client runs a closed loop: it calls ``diffnet.cli.main(argv)`` in this
process on one generated problem at a time, with ``--out`` pointing into
``bench/_work``. Problems come from ``--seed``; diffnet only sees the
generated files. The loop runs every distinct round of problems once, then
whole rounds until ``--seconds`` have passed. Afterwards every report is
checked against what the problem's construction implies.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` calls every
problem twice, plain and with every public diffnet function wrapped (see
spans.py), in alternating order, and reports the per-layer metrics plus the
tracing overhead. The last line of standard output is one JSON object; the lines
above it are a readable table. See README.md for the workloads and for
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads for this process and the set-up probes, at most nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 20
TAIL_BEYOND = 10
FAILURE_EXAMPLES = 3

_SETUP_CHILD = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import diffnet.cli
t2 = time.perf_counter()
print(json.dumps({"numpy": t1 - t0, "diffnet": t2 - t1, "done": t2}))
"""


def parse_args(argv=None):
    from problems import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class SetupProbes:
    """Fresh interpreters importing diffnet.cli: spawn-to-imported wall time.

    The probes are taken at evenly spaced moments of the timed run, between
    two calls, so that they see the same machine speed as the calls do.
    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    the child's timestamp at the end of the import is comparable with the
    parent's timestamp taken just before the spawn. One extra probe runs
    first, untimed, so byte-code caches are written before measuring.
    """

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_PROBES
        self.env = child_env()
        self.rows: list[tuple] = []  # (total, numpy, diffnet) seconds
        self.spent = 0.0  # wall time the probes took, left out of the run's
        self._spawn()  # the untimed warm-up probe: neither kept nor counted
        self.rows.clear()
        self.spent = 0.0

    def _spawn(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD],
            env=self.env,
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=60,
            check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        self.rows.append((row["done"] - start, row["numpy"], row["diffnet"]))
        self.spent += time.perf_counter() - start

    def take_due(self, elapsed: float) -> None:
        """Take the probes scheduled up to ``elapsed`` seconds of the run."""
        while len(self.rows) < SETUP_PROBES and elapsed >= len(self.rows) * self.interval:
            self._spawn()

    def medians(self) -> dict:
        while len(self.rows) < SETUP_PROBES:
            self._spawn()
        total, numpy_s, diffnet_s = zip(*self.rows)
        return {
            "setup_s": statistics.median(total),
            "setup.numpy_import_s": statistics.median(numpy_s),
            "setup.diffnet_import_s": statistics.median(diffnet_s),
        }


def environment(numpy) -> dict:
    """nproc, numpy, BLAS and the BLAS thread count actually in effect."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_in_effect": _blas_threads(numpy),
    }


def _blas_threads(numpy):
    import ctypes
    import glob

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


class Loop:
    """Closed-loop client: one CLI call at a time, timed from argv to report.

    Problems come in rounds, each a full spread of the workload's sizes,
    generated before the run. A run does every distinct round at least once
    and then whole rounds; round r repeats distinct round r modulo their
    number, and a repeated call must write the same report bytes.
    """

    def __init__(self, cli, rounds: list, report_dir: Path):
        self.cli = cli
        self.rounds = rounds
        self.report_dir = report_dir
        self.digests: dict[str, str] = {}
        self.unstable: set[str] = set()
        self.traced_spans: list[tuple] = []  # (item, first span, end span)

    def report_path(self, item) -> Path:
        return self.report_dir / f"{item.name}.json"

    def call(self, item):
        """(seconds, exit code or None, error text)."""
        out = self.report_path(item)
        if out.exists():
            out.unlink()
        argv = item.argv + ["--out", str(out)]
        err = io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad usage
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an uncaught exception is a failed call
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if out.exists():
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            if self.digests.setdefault(item.name, digest) != digest:
                self.unstable.add(item.name)
        return seconds, code, error or err.getvalue().strip()

    def run(self, seconds: float, probes: SetupProbes, tracer=None) -> tuple[list, list, float]:
        """(untraced, traced) records of (item, seconds, exit code, error),
        and the wall time of the run without the set-up probes.

        Whole rounds run until ``seconds`` have passed, the set-up probes
        taken in between. With a tracer, each item is called once without
        and once with it installed, the two in alternating order, so the
        pairs measure the tracing overhead.
        """
        plain, traced = [], []
        start = time.perf_counter()

        def elapsed() -> float:
            return time.perf_counter() - start - probes.spent

        index = 0
        while index < len(self.rounds) or elapsed() < seconds:
            for item in self.rounds[index % len(self.rounds)]:
                probes.take_due(elapsed())
                if tracer is None:
                    plain.append((item, *self.call(item)))
                    continue
                for with_trace in (False, True) if len(plain) % 2 else (True, False):
                    if not with_trace:
                        plain.append((item, *self.call(item)))
                        continue
                    first = len(tracer.spans)
                    tracer.install()
                    try:
                        traced.append((item, *self.call(item)))
                    finally:
                        tracer.uninstall()
                    self.traced_spans.append((item, first, len(tracer.spans)))
            index += 1
        return plain, traced, elapsed()


def interleave(items: list) -> list:
    """Reorder a round so that problems of similar size run far apart in time.

    The machine's speed drifts over seconds. Calls of similar size run back
    to back would all sample it at one moment, and the median call time
    would follow that moment rather than the run. Ranked by size, the item
    of rank r runs at the place of r times the golden ratio, modulo 1.
    """
    ranked = sorted(items, key=lambda it: (it.states, it.name))
    golden = (5**0.5 - 1) / 2
    return [ranked[r] for r in sorted(range(len(ranked)), key=lambda r: r * golden % 1.0)]


def tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def check_outputs(loop: Loop, records) -> dict[str, str]:
    """Item name -> what is wrong with its report, for every item run."""
    from problems import check_report

    wrong = {}
    for item in {rec[0].name: rec[0] for rec in records}.values():
        if item.name in loop.unstable:
            wrong[item.name] = "report bytes differ between repeats of the same call"
            continue
        path = loop.report_path(item)
        if not path.exists():
            continue  # the call failed; its exit code already counts
        problem = check_report(item, path.read_bytes())
        if problem:
            wrong[item.name] = problem
    return wrong


def tally(records, wrong: dict[str, str]):
    """(failed calls, exit-code histogram of failures, examples)."""
    failed, histogram, examples = 0, {}, []
    for item, _took, code, error in records:
        bad_code = code != item.exit_code
        if not bad_code and item.name not in wrong:
            continue
        failed += 1
        key = f"exit {code}" if bad_code and code is not None else (
            "exception" if bad_code else "wrong report")
        histogram[key] = histogram.get(key, 0) + 1
        if len(examples) < FAILURE_EXAMPLES:
            why = wrong.get(item.name) or error or f"expected exit {item.exit_code}"
            examples.append(f"{item.name}: {key}: {why[:200]}")
    return failed, histogram, examples


def largest_problem_line(tracer, traced_spans) -> str:
    """Mean per-module self time of the traced calls on the largest problem."""
    from spans import TRACED_MODULES, root_wall, self_times

    biggest = max(item.states for item, _first, _end in traced_spans)
    picked = [(item, tracer.spans[a:b]) for item, a, b in traced_spans if item.states == biggest]
    calls = len(picked)
    per_module = dict.fromkeys(TRACED_MODULES, 0.0)
    wall = 0.0
    for _item, spans in picked:
        wall += root_wall(spans)
        for name, (_calls, seconds) in self_times(spans).items():
            per_module[name.split(".", 1)[0]] += seconds
    parts = ", ".join(
        f"{m} {s / calls:.4g}" for m, s in sorted(per_module.items(), key=lambda kv: -kv[1])
    )
    return (f"largest problems ({biggest} states, {calls} traced calls): "
            f"{wall / calls:.4g} s per call; self s per call: {parts}")


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "diffnet" / "cli.py").is_file():
        print(f"error: no diffnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import diffnet.cli as cli
    except ImportError as exc:
        print(f"error: cannot import diffnet: {exc}", file=sys.stderr)
        return 2
    import problems
    from spans import Tracer, layer_metrics, root_wall

    end_to_end, per_layer = load_spec()

    env = environment(numpy)

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = WORK / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "problems").mkdir(parents=True)
    (run_dir / "reports").mkdir()

    generate = problems.GENERATORS[args.workload]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rounds = [
            interleave(generate(args.seed, index, str(run_dir / "problems"), example=cli.main))
            for index in range(problems.DISTINCT_ROUNDS[args.workload])
        ]

    loop = Loop(cli, rounds, run_dir / "reports")
    loop.call(rounds[0][0])  # warm-up on the smallest: first-call costs are not a problem's time

    probes = SetupProbes(args.seconds)
    tracer = Tracer() if args.trace else None
    plain, traced, run_s = loop.run(args.seconds, probes, tracer)
    setup = probes.medians()
    all_records = plain + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong = check_outputs(loop, all_records)
    failed, histogram, examples = tally(all_records, wrong)
    attempted = len(all_records)
    manifest = json.dumps(loop.digests, sort_keys=True)
    manifest_sha = hashlib.sha256(manifest.encode()).hexdigest()
    (WORK / f"{tag}.digests.json").write_text(manifest + "\n", encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    samples = [r[1] for r in all_records]
    rows = []  # (name, value, unit, samples, note)
    if args.trace:
        plain_s = sum(r[1] for r in plain)
        traced_s = sum(r[1] for r in traced)
        layers = layer_metrics(tracer, len(traced))
        absent = tracer.absent_groups()
        layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
        layers["trace.absent_functions"] = float(len(absent))
        layers["fail_frac"] = failed / attempted
        layers["setup.numpy_import_s"] = setup["setup.numpy_import_s"]
        layers["setup.diffnet_import_s"] = setup["setup.diffnet_import_s"]
        for name, unit in per_layer:
            group = name.rsplit(".", 1)[0]
            note = "absent from the code" if group in absent else ""
            if name.startswith("setup."):
                n = SETUP_PROBES
            elif name == "fail_frac":
                n = attempted
            else:
                n = len(traced)
            rows.append((name, layers[name], unit, n, note))
        coverage = root_wall(tracer.spans) / traced_s
        extra = [
            f"traced: {len(traced)} calls, {traced_s:.3f} s; untraced: {plain_s:.3f} s; "
            f"root spans cover {coverage:.4f} of the traced call time",
            largest_problem_line(tracer, loop.traced_spans),
        ]
    else:
        tail_s, tail_pct = tail(samples)
        metrics = {
            "setup_s": (setup["setup_s"], SETUP_PROBES, "fresh interpreters, median"),
            "problem_s_p50": (statistics.median(samples), len(samples), ""),
            "problem_s_tail": (
                tail_s, len(samples), f"p{tail_pct:.1f}, {TAIL_BEYOND} samples beyond it"),
            "problems_per_s": (len(samples) / run_s, len(samples), "calls over the run's wall time"),
            "peak_rss_mb": (peak_rss_mb, 1, "ru_maxrss of the workload process"),
        }
        for name, unit in end_to_end:
            value, n, note = metrics[name]
            rows.append((name, value, unit, n, note))
        rows.append(("fail_frac", failed / attempted, "ratio", attempted, "per-layer, shown here too"))
        extra = []

    print(f"diffnet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={fmt(args.seconds)} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    distinct = sum(len(r) for r in rounds)
    print(f"calls: {attempted} over {distinct} distinct problems; "
          f"failed: {failed} {json.dumps(histogram, sort_keys=True)}")
    for line in examples:
        print(f"  failure: {line}")
    for name, problem in sorted(wrong.items()):
        print(f"  wrong output: {name}: {problem}")
    print(f"reports: {len(loop.digests)} distinct, manifest sha256 {manifest_sha}")
    for line in extra:
        print(line)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, n, note in rows:
        print(f"  {name:<{width}}  {fmt(value):>12}  {unit:<14} n={n:<6} {note}".rstrip())

    reported = {name for name, _unit in (per_layer if args.trace else end_to_end)}
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _n, _note in rows
            if name in reported
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def load_spec():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


if __name__ == "__main__":
    sys.exit(main())
