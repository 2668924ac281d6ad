"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import diffnet.cli as cli  # noqa: E402
import diffnet.numerics  # noqa: E402
import diffnet.subsystem  # noqa: E402
import problems  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@pytest.fixture
def small_sizes(monkeypatch):
    monkeypatch.setattr(problems, "CHAIN_SIZES", (5, 8))
    monkeypatch.setattr(problems, "CERTIFY_NET_SIZES", (8,))
    monkeypatch.setattr(problems, "LUMP_SIZES", (6,))
    monkeypatch.setattr(problems, "ANALYZE_SIZES", (12, 30))


def generate(workload, seed, directory, round_index=0):
    directory.mkdir(parents=True, exist_ok=True)
    return problems.GENERATORS[workload](seed, round_index, str(directory), example=quiet_main)


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_generators_are_deterministic_for_a_seed(workload, tmp_path, small_sizes):
    first = generate(workload, 7, tmp_path / "a")
    again = generate(workload, 7, tmp_path / "b")
    other = generate(workload, 8, tmp_path / "c")
    assert file_bytes(tmp_path / "a") == file_bytes(tmp_path / "b")
    assert file_bytes(tmp_path / "a") != file_bytes(tmp_path / "c")
    assert [(i.name, i.exit_code, i.check) for i in first] == [
        (i.name, i.exit_code, i.check) for i in again
    ]
    assert [i.name for i in first] == [i.name for i in other]


@pytest.mark.parametrize("workload", problems.WORKLOADS)
def test_expected_outcomes_match_diffnet_on_small_instances(workload, tmp_path, small_sizes):
    items = generate(workload, 3, tmp_path / "problems")
    for item in items:
        out = tmp_path / f"{item.name}.report"
        code = quiet_main(item.argv + ["--out", str(out)])
        assert code == item.exit_code, item.name
        assert problems.check_report(item, out.read_bytes()) is None, item.name


def test_certify_rounds_draw_fresh_problems_of_the_same_sizes(tmp_path, small_sizes):
    first = generate("certify-sweep", 1, tmp_path / "a", 0)
    second = generate("certify-sweep", 1, tmp_path / "b", 1)
    assert [(i.states, i.argv[2:]) for i in first] == [(i.states, i.argv[2:]) for i in second]
    assert {i.name for i in first}.isdisjoint(i.name for i in second)
    assert all(
        (tmp_path / "a" / p.name).read_bytes() != (tmp_path / "b" / p.name.replace("r0-", "r1-")).read_bytes()
        for p in (tmp_path / "a").iterdir()
    )


def test_analyze_many_covers_every_verdict(tmp_path, small_sizes):
    items = generate("analyze-many", 5, tmp_path)
    verdicts = {i.expect["verdict"] for i in items if i.check == "verdict"}
    assert verdicts == {problems.CONTROLLABLE, problems.NOT_CONTROLLABLE, problems.INCONCLUSIVE}
    assert any(i.expect["unreachable"] for i in items if i.check == "graph")


def test_checks_reject_a_wrong_verdict_and_a_wrong_matrix(tmp_path, small_sizes):
    items = generate("lump-dense", 4, tmp_path / "problems")
    item = items[0]
    out = tmp_path / "lump.report"
    assert quiet_main(item.argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_bytes())
    doc["a_sys"][0][0] += 1e-6
    assert "state matrix" in problems.check_report(item, json.dumps(doc).encode())

    verdict_item = problems.Item(
        "x", ["analyze"], 0, "verdict",
        {"verdict": problems.CONTROLLABLE, "unreachable": []}, 2,
    )
    report = {"analysis": {"verdict": problems.INCONCLUSIVE, "conditions": []}}
    assert "verdict" in problems.check_report(verdict_item, json.dumps(report).encode())


def test_an_unreachable_witness_cannot_go_unchecked():
    item = problems.Item(
        "x", ["analyze"], 1, "verdict",
        {"verdict": problems.NOT_CONTROLLABLE, "unreachable": [3]}, 2,
    )
    report = {"analysis": {"verdict": problems.NOT_CONTROLLABLE, "conditions": []}}
    assert "globally_input_reachable" in problems.check_report(item, json.dumps(report).encode())
    report["analysis"]["conditions"] = [
        {"name": "globally_input_reachable", "witness": {"unreachable_vertices": [3]}}
    ]
    assert problems.check_report(item, json.dumps(report).encode()) is None


def test_lumped_pair_matches_a_hand_built_two_vertex_network():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[1.0, 0.0]])
    w = np.array([[2.0]])
    a_sys, b_sys = problems.lumped_pair(a, b, c, 2, [1], [(1, 2, "undirected", w)])
    coupling = b @ w @ c
    expected = np.block([[a - coupling, coupling], [coupling, a - coupling]])
    assert np.array_equal(a_sys, expected)
    assert np.array_equal(b_sys, np.block([[b, np.zeros((2, 1))], [np.zeros((2, 2))]]))


def test_traced_self_times_add_up_to_the_traced_wall_time(tmp_path, small_sizes):
    items = generate("certify-sweep", 2, tmp_path / "problems")
    tracer = spans.Tracer()
    wall = 0.0
    tracer.install()
    try:
        for item in items:
            start = time.perf_counter()
            quiet_main(item.argv + ["--out", str(tmp_path / "r.json")])
            wall += time.perf_counter() - start
    finally:
        tracer.uninstall()
    times = spans.self_times(tracer.spans)
    total_self = sum(s for _, s in times.values())
    roots = spans.root_wall(tracer.spans)
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert 0.9 * wall <= roots <= wall
    metrics = spans.layer_metrics(tracer, len(items))
    assert metrics["numerics.numerical_rank.calls"] > 0
    # chain 5 plain, chain 8 grounded (two certifications), one network
    assert metrics["verdict.trials"] == pytest.approx((5 + 10 + 5) / 3)
    assert max(
        (metrics[f"{m}.self_s"], m) for m in spans.TRACED_MODULES
    )[1] == "numerics"


def test_tracer_catches_calls_inside_a_module_and_restores_it():
    original = diffnet.numerics.numerical_rank
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert diffnet.numerics.numerical_rank is not original
        assert diffnet.subsystem.numerical_rank is not original
        diffnet.numerics.pbh_controllable(np.eye(2), np.ones((2, 1)))
    finally:
        tracer.uninstall()
    assert diffnet.numerics.numerical_rank is original
    assert diffnet.subsystem.numerical_rank is original
    parents = {sid: name for sid, _p, name, _s, _e in tracer.spans}
    ranks = [p for _sid, p, name, _s, _e in tracer.spans if name == "numerics.numerical_rank"]
    assert ranks and all(parents[p] == "numerics.pbh_eigen_checks" for p in ranks)


def test_a_missing_function_group_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.FUNCTION_GROUPS, "numerics.staircase", ("numerics", ("staircase",)))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent_groups() == ["numerics.staircase"]
    metrics = spans.layer_metrics(tracer, 1)
    assert metrics["numerics.staircase.self_s"] == 0.0


def test_interleave_runs_similar_sizes_far_apart():
    items = [problems.Item(f"p{i}", [], 0, "graph", {}, i) for i in range(21)]
    order = [it.states for it in run.interleave(items)]
    assert sorted(order) == list(range(21)) and order[0] == 0
    place = {size: k for k, size in enumerate(order)}
    assert min(abs(place[i + 1] - place[i]) for i in range(20)) >= 5


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_run_prints_every_metric_of_its_mode(capsys):
    assert run.main(["--workload", "analyze-many", "--seed", "1", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    _end_to_end, per_layer = run.load_spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {name for name, _ in per_layer}
    assert result["correct"] and result["failed"] == 0


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lump-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
