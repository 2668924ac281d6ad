"""End-to-end command-line behavior: exit codes, schemas, reproducibility."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    count_calls,
    edges_with_defects,
    outcome,
    random_graph,
    random_model,
    reference_graph_check,
    reference_graph_members,
    reference_parse_edges,
    reference_parse_weights,
)
import diffnet.topology
import diffnet.verdict
from diffnet import cli, problem_io
from diffnet.cli import main
from diffnet.errors import ConsistencyError, ProblemFileError
from diffnet.problem_io import (
    PROBLEM_SCHEMA,
    REPORT_SCHEMA,
    dump_json,
)
from diffnet.topology import DIRECTED, UNDIRECTED, Edge, NetworkGraph, spanning_forest
from diffnet.verdict import CertificationReport, TrialResult


GOLDEN = Path(__file__).parent / "golden"


def chain_problem(n=3, driven=(1,), c=None, weights=None, options=None, extra=None):
    doc = {
        "subsystem": {
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "B": [[0.0], [1.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]] if c is None else c,
        },
        "graph": {
            "N": n,
            "edges": [{"u": i, "v": i + 1} for i in range(1, n)],
        },
        "driven": list(driven),
    }
    if weights is not None:
        doc["weights"] = weights
    if options is not None:
        doc["options"] = options
    if extra is not None:
        doc.update(extra)
    return doc


@pytest.fixture
def problem_file(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodes:
    @pytest.mark.parametrize("command", ["analyze", "graph"])
    def test_vertex_count_beyond_int64_is_refused_at_once(self, tmp_path, command):
        """A vertex count must fit the int64 edge columns. Checked in a child
        process capped at 2 GB of address space: a loop over range(N) would
        run out of memory there instead of running the machine out."""
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(chain_problem(extra={"graph": {"N": 10**30, "edges": []}})))
        child = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from diffnet.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(sys.argv[1:])\n"
            "print(code, time.perf_counter() - start)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, command, str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        code, seconds = proc.stdout.split()
        assert int(code) == 64, proc.stderr
        assert float(seconds) < 1.0
        assert "64-bit" in proc.stderr

    def test_controllable_chain_exits_zero(self, problem_file, capsys):
        code, out, _ = run(capsys, ["analyze", problem_file(chain_problem())])
        assert code == 0
        assert json.loads(out)["analysis"]["verdict"] == "STRUCTURALLY_CONTROLLABLE"

    def test_not_controllable_exits_one(self, problem_file, capsys):
        doc = chain_problem(c=[[0.0, 1.0]])
        code, out, _ = run(capsys, ["analyze", problem_file(doc)])
        assert code == 1
        assert json.loads(out)["analysis"]["verdict"].startswith("NOT_")

    def test_nobody_driven_exits_one(self, problem_file, capsys):
        code, _, _ = run(capsys, ["analyze", problem_file(chain_problem(driven=()))])
        assert code == 1

    def test_inconclusive_exits_two(self, problem_file, capsys):
        doc = chain_problem(n=2)
        doc["subsystem"] = {
            "A": [[1.0, 0.0], [0.0, 2.0]],
            "B": [[1.0, 0.5], [0.0, 0.0]],
            "C": [[1.0, 0.0], [1.0, 0.0]],
        }
        code, out, _ = run(capsys, ["analyze", problem_file(doc)])
        assert code == 2
        assert json.loads(out)["analysis"]["verdict"] == "INCONCLUSIVE"

    def test_certify_agreement_exits_zero(self, problem_file, capsys):
        code, out, _ = run(
            capsys, ["certify", problem_file(chain_problem()), "--trials", "3"]
        )
        assert code == 0
        cert = json.loads(out)["analysis"]["certification"]
        assert cert["agree_with_verdict"] is True

    def test_certify_keeps_the_not_verdict_exit(self, problem_file, capsys):
        # agreement decides between the verdict code and 3, never promotes to 0
        doc = chain_problem(c=[[0.0, 1.0]])
        code, out, _ = run(
            capsys, ["certify", problem_file(doc), "--trials", "3"]
        )
        assert code == 1
        cert = json.loads(out)["analysis"]["certification"]
        assert cert["agree_with_verdict"] is True

    def test_certify_keeps_the_inconclusive_exit(self, problem_file, capsys):
        doc = chain_problem(n=2)
        doc["subsystem"] = {
            "A": [[1.0, 0.0], [0.0, 2.0]],
            "B": [[1.0, 0.5], [0.0, 0.0]],
            "C": [[1.0, 0.0], [1.0, 0.0]],
        }
        code, _, _ = run(capsys, ["certify", problem_file(doc), "--trials", "2"])
        assert code == 2

    def test_certify_disagreement_exits_three(self, problem_file, capsys, monkeypatch):
        fake = CertificationReport(
            trials=1,
            per_trial=(TrialResult(0, False, 3),),
            any_controllable=False,
            compared_verdict="STRUCTURALLY_CONTROLLABLE",
            agree_with_verdict=False,
        )
        monkeypatch.setattr(
            "diffnet.cli.certify_monte_carlo", lambda *a, **k: fake
        )
        code, out, _ = run(capsys, ["certify", problem_file(chain_problem())])
        assert code == 3
        assert json.loads(out)["analysis"]["certification"]["agree_with_verdict"] is False

    def test_malformed_json_exits_sixtyfour(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"subsystem": ')
        code, _, err = run(capsys, ["analyze", str(path)])
        assert code == 64
        assert "malformed JSON" in err

    def test_missing_file_exits_sixtyfour(self, capsys, tmp_path):
        code, _, err = run(capsys, ["analyze", str(tmp_path / "absent.json")])
        assert code == 64
        assert "cannot read" in err

    def test_unknown_member_exits_sixtyfour(self, problem_file, capsys):
        doc = chain_problem(extra={"plot": True})
        code, _, err = run(capsys, ["analyze", problem_file(doc)])
        assert code == 64
        assert "unknown top-level members" in err

    def test_unexpected_exception_exits_seventy(self, problem_file, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("diffnet.cli.cmd_analyze", broken)
        code, out, err = run(capsys, ["analyze", problem_file(chain_problem())])
        assert code == 70
        assert out == ""
        assert "diffnet: unexpected error: RuntimeError: boom" in err

    def test_bad_usage_exits_sixtyfour(self, problem_file):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "whatever.json", "--trials", "0"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 64
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_bad_tolerance_flag_exits_sixtyfour(self, problem_file):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.json", "--tol", "2.0"])
        assert exc.value.code == 64

    def test_bad_env_seed_exits_sixtyfour(self, problem_file, capsys, monkeypatch):
        monkeypatch.setenv("DIFFNET_SEED", "not-a-number")
        path = problem_file(chain_problem())  # no weights: lump samples them
        for command in ("certify", "lump"):
            code, _, err = run(capsys, [command, path])
            assert code == 64, command
            assert "DIFFNET_SEED" in err

    def test_analyze_reads_no_seed(self, problem_file, capsys, monkeypatch):
        path = problem_file(chain_problem())
        plain = run(capsys, ["analyze", path])
        monkeypatch.setenv("DIFFNET_SEED", "not-a-number")
        assert run(capsys, ["analyze", path]) == plain
        assert plain[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--seed", "1"])
        assert exc.value.code == 64
        bad = problem_file(chain_problem(options={"seed": "abc"}), name="bad.json")
        assert run(capsys, ["analyze", bad])[0] == 64

    def test_unwritable_output_exits_seventyfour(self, problem_file, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "report.json"
        code, _, err = run(
            capsys, ["analyze", problem_file(chain_problem()), "--out", str(target)]
        )
        assert code == 74
        assert "write failed" in err

    def test_failed_rename_leaves_no_temporary_file(self, problem_file, capsys, tmp_path):
        target = tmp_path / "existing-directory"
        target.mkdir()
        problem = problem_file(chain_problem())
        code, _, err = run(capsys, ["lump", problem, "--out", str(target)])
        assert code == 74
        assert "write failed" in err
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == ["existing-directory", "problem.json"]

    def test_internal_check_failure_exits_seventy(self, problem_file, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConsistencyError("redundant routes disagree")

        monkeypatch.setattr("diffnet.cli.analyze", boom)
        code, _, err = run(capsys, ["analyze", problem_file(chain_problem())])
        assert code == 70
        assert "internal check failed" in err


class TestReportDocuments:
    def test_schema_and_provenance_members(self, problem_file, capsys):
        _, out, _ = run(capsys, ["analyze", problem_file(chain_problem())])
        doc = json.loads(out)
        assert doc["$schema"] == REPORT_SCHEMA
        assert doc["tool"]["name"] == "diffnet"
        assert doc["tool"]["version"]
        assert len(doc["input"]["sha256"]) == 64
        assert set(doc["analysis"]) == {
            "verdict",
            "theorem_used",
            "conditions",
            "notes",
            "certification",
        }
        assert set(doc["options"]) == {"eig_match_tol", "rank_rel_tol"}

    def test_witnesses_serialize_as_real_imag_pairs(self, problem_file, capsys):
        doc = chain_problem(c=[[0.0, 1.0]])
        _, out, _ = run(capsys, ["analyze", problem_file(doc)])
        conditions = json.loads(out)["analysis"]["conditions"]
        (obs,) = [c for c in conditions if c["name"] == "subsystem_observable"]
        eig = obs["witness"]["deficient_eigenvalues"][0]
        assert set(eig) == {"re", "im"}

    def test_out_flag_writes_the_same_document(self, problem_file, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            ["analyze", problem_file(chain_problem()), "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["$schema"] == REPORT_SCHEMA

    def test_certify_respects_options_then_flag(self, problem_file, capsys):
        doc = chain_problem(options={"trials": 2, "seed": 9})
        path = problem_file(doc)
        _, out, _ = run(capsys, ["certify", path])
        assert json.loads(out)["analysis"]["certification"]["trials"] == 2
        _, out, _ = run(capsys, ["certify", path, "--trials", "4"])
        assert json.loads(out)["analysis"]["certification"]["trials"] == 4


class TestTextFormat:
    def test_analyze_text_lists_conditions(self, problem_file, capsys):
        doc = chain_problem(c=[[0.0, 1.0]])
        code, out, _ = run(
            capsys, ["analyze", problem_file(doc), "--format", "text"]
        )
        assert code == 1
        assert "verdict: NOT_STRUCTURALLY_CONTROLLABLE" in out
        assert "[pass] subsystem_controllable" in out
        assert "[FAIL] subsystem_observable" in out

    def test_certify_text_reports_trials(self, problem_file, capsys):
        _, out, _ = run(
            capsys,
            ["certify", problem_file(chain_problem()), "--trials", "2", "--format", "text"],
        )
        assert "certification: 2/2 trials controllable" in out
        assert "agrees with verdict: yes" in out


    def test_text_is_rendered_for_text_format_only(
        self, problem_file, capsys, monkeypatch, tmp_path
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("text rendering built for a JSON report")

        monkeypatch.setattr(cli, "_analysis_text", refuse)
        monkeypatch.setattr(cli, "_graph_text", refuse)
        monkeypatch.setattr(np, "printoptions", refuse)
        path = problem_file(chain_problem())
        for argv in (["analyze"], ["certify", "--trials", "1"], ["graph"], ["lump"]):
            out = tmp_path / "report.json"
            assert main([argv[0], path, *argv[1:], "--out", str(out)]) == 0
            assert json.loads(out.read_text())["$schema"]
        assert main(["graph", path, "--format", "text"]) == 70


class TestLump:
    def test_byte_identical_across_runs(self, problem_file, capsys):
        path = problem_file(chain_problem())
        _, first, _ = run(capsys, ["lump", path, "--seed", "6"])
        _, second, _ = run(capsys, ["lump", path, "--seed", "6"])
        _, third, _ = run(capsys, ["lump", path, "--seed", "7"])
        assert first == second
        assert first != third
        doc = json.loads(first)
        assert doc["sampled"] is True and doc["seed"] == 6

    def test_provided_weights_pass_through(self, problem_file, capsys):
        weights = {"edges": [{"u": 1, "v": 2, "W": [[2.0, 0.5]]}]}
        path = problem_file(chain_problem(n=2, weights=weights))
        code, out, _ = run(capsys, ["lump", path])
        assert code == 0
        doc = json.loads(out)
        assert doc["sampled"] is False and doc["seed"] is None
        expected = [
            [0.0, 1.0, 0.0, 0.0],
            [-2.0, -0.5, 2.0, 0.5],
            [0.0, 0.0, 0.0, 1.0],
            [2.0, 0.5, -2.0, -0.5],
        ]
        assert np.allclose(doc["a_sys"], expected)
        assert doc["weights"]["edges"][0]["W"] == [[2.0, 0.5]]

    def test_edgeless_graph_lumps_with_sampled_and_file_weights(self, problem_file, capsys):
        for weights in (None, {"edges": []}):
            path = problem_file(chain_problem(n=1, weights=weights))
            code, out, _ = run(capsys, ["lump", path])
            assert code == 0
            doc = json.loads(out)
            assert doc["sampled"] is (weights is None)
            assert doc["a_sys"] == [[0.0, 1.0], [0.0, 0.0]]
            assert doc["weights"] == {"edges": []}

    def test_grounding_adds_exactly_the_wall_coupling(self, problem_file, capsys):
        weights = {"edges": [{"u": 1, "v": 2, "W": [[1.0, 1.0]]}]}
        options = {"wall": {"stiffness_over_mass": 3.0, "damping_over_mass": 0.25}}
        path = problem_file(chain_problem(n=2, weights=weights, options=options))
        _, plain, _ = run(capsys, ["lump", path])
        _, grounded, _ = run(capsys, ["lump", path, "--ground-first-mass"])
        delta = np.array(json.loads(grounded)["a_sys"]) - np.array(
            json.loads(plain)["a_sys"]
        )
        expected = np.zeros((4, 4))
        expected[1, 0] = -3.0
        expected[1, 1] = -0.25
        assert np.allclose(delta, expected)
        assert json.loads(grounded)["grounded"] is True

    def test_overflowing_weights_are_refused(self, problem_file, capsys, tmp_path):
        # the two edges meet at vertex 2, whose diagonal block alone overflows
        huge = [[1e308, 1e308]]
        weights = {"edges": [{"u": 1, "v": 2, "W": huge}, {"u": 2, "v": 3, "W": huge}]}
        target = tmp_path / "lump.json"
        code, out, err = run(
            capsys, ["lump", problem_file(chain_problem(weights=weights)), "--out", str(target)]
        )
        assert code == 64
        assert out == ""
        assert err.startswith("diffnet: error:") and "overflows the float range" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json"]

    def test_weights_member_matches_the_encoder(self):
        gen = np.random.default_rng(17)
        special = [0.0, -0.0, 5e-324, -1e-310, 1e300, -1e300, 0.1 + 0.2, 1 / 3, 2.0**53]
        cases = [
            (NetworkGraph(1), (1, 2)),
            (NetworkGraph(3, (Edge(3, 1), Edge(2, 3, DIRECTED))), (2, 3)),
        ]
        for _ in range(40):
            g = random_graph(gen, int(gen.integers(2, 20)), edge_prob=0.3)
            cases.append((g, tuple(int(k) for k in gen.integers(1, 4, size=2))))
        for g, shape in cases:
            values = gen.normal(size=(g.num_edges, *shape)) * 10.0 ** gen.integers(
                -20, 20, size=(g.num_edges, *shape)
            )
            picked = gen.random(values.shape) < 0.3
            values[picked] = gen.choice(special, size=int(picked.sum()))
            assert problem_io.weights_member(g, values).text == problem_io._ENCODER.encode(
                problem_io.weights_to_json(g, values)
            )

    def test_grounding_without_wall_options_fails(self, problem_file, capsys):
        path = problem_file(chain_problem(n=2))
        code, _, err = run(capsys, ["lump", path, "--ground-first-mass"])
        assert code == 64
        assert "wall" in err

    @pytest.mark.parametrize("weights", [None, {"edges": [{"u": 1, "v": 2, "W": [[1.0, 0.5]]}]}])
    def test_missing_wall_is_refused_before_any_assembly(
        self, problem_file, capsys, monkeypatch, weights
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("assembled before the wall was checked")

        monkeypatch.setattr(cli, "assemble_lumped", refuse)
        monkeypatch.setattr(cli, "sample_weights", refuse)
        path = problem_file(chain_problem(n=2, weights=weights))
        code, out, err = run(capsys, ["lump", path, "--ground-first-mass"])
        assert code == 64
        assert out == ""
        assert err == (
            'diffnet: error: --ground-first-mass needs options "wall" with '
            "stiffness_over_mass and damping_over_mass\n"
        )


def sliced_reports(tmp_path):
    """(argv, format) of reports longer than one write slice and not a
    whole number of slices: the ``lump`` of a 100-mass chain (json) and
    the ``graph`` text of a 1,000-vertex, 1,498-edge problem."""
    chain = tmp_path / "chain.json"
    assert main(["example", "--N", "100", "--out", str(chain)]) == 0
    edges = [{"u": i, "v": i + 1} for i in range(1, 1000)]
    edges += [{"u": i, "v": i + 2, "kind": DIRECTED} for i in range(1, 999, 2)]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(chain_problem(extra={"graph": {"N": 1000, "edges": edges}})))
    return {
        "json": ["lump", str(chain), "--seed", "3"],
        "text": ["graph", str(wide), "--format", "text"],
    }


class TestSlicedWrites:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = sliced_reports(tmp_path)[fmt]
        target = tmp_path / "report.out"
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, argv + ["--out", str(target)]) == (0, "", "")
        data = target.read_bytes()
        assert len(data) > problem_io._WRITE_SLICE and len(data) % problem_io._WRITE_SLICE
        assert data == out.encode("utf-8")
        if fmt == "json":  # the canonical form of the document itself
            assert dump_json(json.loads(data)).encode("utf-8") == data

    def test_failure_inside_the_write_leaves_the_old_report(
        self, capsys, tmp_path, monkeypatch
    ):
        argv = sliced_reports(tmp_path)["json"]
        target = tmp_path / "report.json"
        target.write_bytes(b"earlier report\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        writes = []

        class FailingFile:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(len(data))
                if len(writes) == 2:
                    raise MemoryError("no room for the second slice")
                return self.fh.write(data)

        def failing_open(path, mode="r", *rest):  # the problem file reads as usual
            fh = open(path, mode, *rest)
            return FailingFile(fh) if "w" in mode else fh

        monkeypatch.setattr(problem_io, "open", failing_open, raising=False)
        code, out, err = run(capsys, argv + ["--out", str(target)])
        assert code == 70
        assert out == "" and "MemoryError" in err
        assert writes == [problem_io._WRITE_SLICE] * 2
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert target.read_bytes() == b"earlier report\n"


class TestGroundedCertification:
    def test_both_modes_reported(self, problem_file, capsys):
        options = {"wall": {"stiffness_over_mass": 1.0, "damping_over_mass": 0.5}}
        path = problem_file(chain_problem(options=options))
        code, out, _ = run(
            capsys, ["certify", path, "--trials", "2", "--ground-first-mass"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["analysis"]["certification"]["trials"] == 2
        grounded = doc["grounded_certification"]
        assert grounded["trials"] == 2
        assert all(t["controllable"] for t in grounded["per_trial"])
        assert doc["options"]["ground_first_mass"] is True

    def test_each_trial_is_drawn_and_assembled_once(
        self, problem_file, capsys, monkeypatch
    ):
        """The grounded trials reuse the plain trials' draws and assembly."""
        options = {"wall": {"stiffness_over_mass": 1.0, "damping_over_mass": 0.5}}
        path = problem_file(chain_problem(n=4, options=options))
        draws, stacks = [], []
        sample = diffnet.verdict.sample_weights
        assemble = diffnet.verdict.assemble_lumped

        def drawing(*args, **kwargs):
            draws.append(args)
            return sample(*args, **kwargs)

        def assembling(model, graph, blocks, **kwargs):
            stacks.append(len(blocks))
            return assemble(model, graph, blocks, **kwargs)

        monkeypatch.setattr(diffnet.verdict, "sample_weights", drawing)
        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", assembling)
        code, out, _ = run(
            capsys, ["certify", path, "--trials", "3", "--ground-first-mass"]
        )
        assert code == 0
        assert len(draws) == 3 and stacks == [3]
        doc = json.loads(out)
        plain = doc["analysis"]["certification"]["per_trial"]
        grounded = doc["grounded_certification"]["per_trial"]
        assert [t["stream_id"] for t in grounded] == [t["stream_id"] for t in plain]

    def test_missing_wall_is_refused_before_any_draw(
        self, problem_file, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("assembled before the wall was checked")

        monkeypatch.setattr(diffnet.verdict, "assemble_lumped", refuse)
        path = problem_file(chain_problem())
        code, out, err = run(capsys, ["certify", path, "--ground-first-mass"])
        assert code == 64
        assert out == ""
        assert "wall" in err

    def test_text_format_shows_grounded_block(self, problem_file, capsys):
        options = {"wall": {"stiffness_over_mass": 1.0, "damping_over_mass": 0.5}}
        path = problem_file(chain_problem(options=options))
        _, out, _ = run(
            capsys,
            [
                "certify",
                path,
                "--trials",
                "2",
                "--ground-first-mass",
                "--format",
                "text",
            ],
        )
        assert "certification: 2/2" in out
        assert "grounded certification: 2/2" in out


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [None, float("nan"), "2.5"])
    def test_bad_wall_member_exits_sixtyfour(self, problem_file, capsys, bad):
        options = {"wall": {"stiffness_over_mass": bad, "damping_over_mass": 0.5}}
        path = problem_file(chain_problem(options=options))
        code, out, err = run(capsys, ["certify", path, "--ground-first-mass"])
        assert code == 64
        assert "stiffness_over_mass" in err
        assert out == ""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_eig_match_tol_exits_sixtyfour(self, problem_file, capsys, bad):
        path = problem_file(chain_problem(options={"eig_match_tol": bad}))
        code, out, err = run(capsys, ["analyze", path])
        assert code == 64
        assert "eig_match_tol" in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mass", "nan"],
            ["--springs", "1", "inf", "1"],
            ["--dampers", "1", "1", "nan"],
        ],
    )
    def test_example_rejects_non_finite_constants(self, capsys, tmp_path, flags):
        target = tmp_path / "chain.json"
        code, _, err = run(capsys, ["example", "--N", "3", *flags, "--out", str(target)])
        assert code == 64
        assert "finite" in err
        assert not target.exists()


class TestSeedPrecedence:
    def test_env_seed_applies_when_nothing_else_given(
        self, problem_file, capsys, monkeypatch
    ):
        path = problem_file(chain_problem())
        monkeypatch.setenv("DIFFNET_SEED", "11")
        _, env_out, _ = run(capsys, ["lump", path])
        monkeypatch.delenv("DIFFNET_SEED")
        _, flag_out, _ = run(capsys, ["lump", path, "--seed", "11"])
        assert env_out == flag_out

    def test_flag_beats_env_and_options(self, problem_file, capsys, monkeypatch):
        path = problem_file(chain_problem(options={"seed": 3}))
        monkeypatch.setenv("DIFFNET_SEED", "4")
        _, out, _ = run(capsys, ["lump", path, "--seed", "5"])
        assert json.loads(out)["seed"] == 5

    def test_options_beat_env(self, problem_file, capsys, monkeypatch):
        path = problem_file(chain_problem(options={"seed": 3}))
        monkeypatch.setenv("DIFFNET_SEED", "4")
        _, out, _ = run(capsys, ["lump", path])
        assert json.loads(out)["seed"] == 3


class TestExampleCommand:
    def test_generated_file_analyzes_clean(self, capsys, tmp_path):
        target = tmp_path / "chain.json"
        code, _, _ = run(
            capsys, ["example", "--N", "4", "--seed", "2", "--out", str(target)]
        )
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["$schema"] == PROBLEM_SCHEMA
        assert doc["graph"]["N"] == 4
        assert len(doc["weights"]["edges"]) == 3
        assert all("kind" not in row for row in doc["weights"]["edges"])
        assert set(doc["options"]["wall"]) == {
            "stiffness_over_mass",
            "damping_over_mass",
        }
        code, _, _ = run(capsys, ["analyze", str(target)])
        assert code == 0
        code, _, _ = run(capsys, ["certify", str(target), "--ground-first-mass"])
        assert code == 0

    def test_explicit_constants_scale_by_mass(self, capsys, tmp_path):
        target = tmp_path / "chain.json"
        run(
            capsys,
            [
                "example",
                "--N", "2",
                "--mass", "2.0",
                "--springs", "1.0", "3.0",
                "--dampers", "0.5", "1.0",
                "--out", str(target),
            ],
        )
        doc = json.loads(target.read_text())
        assert doc["weights"]["edges"][0]["W"] == [[1.5, 0.5]]
        assert doc["options"]["wall"] == {
            "stiffness_over_mass": 0.5,
            "damping_over_mass": 0.25,
        }
        # force enters through B scaled by 1/mass
        assert doc["subsystem"]["B"] == [[0.0], [0.5]]

    def test_wrong_constant_count_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["example", "--N", "3", "--springs", "1.0", "--out", str(tmp_path / "x")],
        )
        assert code == 64
        assert "--springs" in err

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(capsys, ["example", "pendulum"])
        assert code == 64
        assert "mass-spring" in err

    def test_stdout_is_valid_problem_json(self, capsys):
        code, out, _ = run(capsys, ["example", "--N", "2", "--seed", "1"])
        assert code == 0
        assert json.loads(out)["$schema"] == PROBLEM_SCHEMA


class TestLongChainCertification:
    """Generated chains long enough that a per-eigenvalue rank test fails."""

    @pytest.mark.parametrize("grounded", [False, True], ids=["plain", "grounded"])
    @pytest.mark.parametrize("num_masses", [20, 50, 100])
    def test_certify_agrees_with_verdict(self, capsys, tmp_path, num_masses, grounded):
        target = tmp_path / "chain.json"
        code, _, _ = run(
            capsys,
            ["example", "--N", str(num_masses), "--seed", "1", "--out", str(target)],
        )
        assert code == 0
        argv = ["certify", str(target)] + (["--ground-first-mass"] if grounded else [])
        code, out, _ = run(capsys, argv)
        doc = json.loads(out)
        cert = doc["analysis"]["certification"]
        assert cert["agree_with_verdict"] is True
        assert all(t["deficient_count"] == 0 for t in cert["per_trial"])
        if grounded:
            assert doc["grounded_certification"]["agree_with_verdict"] is True
        assert code == 0


class TestIsolatedVertexCertification:
    """Vertex 2 has no edge and no input, so its 3 states lie outside the
    controllable subspace of every draw. The eigenvalues of that block lie
    near those of the controllable part, which a rotation staircase took
    for 3 more controllable states in every trial."""

    DOC = {
        "$schema": "diffnet-problem/v1",
        "driven": [7],
        "graph": {
            "N": 7,
            "edges": [
                {"kind": "undirected", "u": 1, "v": 4},
                {"kind": "undirected", "u": 3, "v": 5},
                {"kind": "directed", "u": 1, "v": 5},
                {"kind": "undirected", "u": 4, "v": 6},
                {"kind": "undirected", "u": 6, "v": 7},
            ],
        },
        "options": {"seed": 440},
        "subsystem": {
            "A": [[3.0, 4.0, 1.0], [2.0, -1.0, -2.0], [1.0, -1.0, 2.0]],
            "B": [[0.0], [3.0], [0.0]],
            "C": [[0.0, 2.0, 1.0]],
        },
    }

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    def test_every_trial_counts_the_cut_off_states(self, problem_file, capsys, seed):
        argv = ["certify", problem_file(self.DOC)]
        argv += [] if seed is None else ["--seed", str(seed)]
        code, out, _ = run(capsys, argv)
        analysis = json.loads(out)["analysis"]
        assert analysis["verdict"] == "NOT_STRUCTURALLY_CONTROLLABLE"
        cert = analysis["certification"]
        assert [t["deficient_count"] for t in cert["per_trial"]] == [3] * 5
        assert cert["agree_with_verdict"] is True
        assert code == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
class TestDefectiveNodePair:
    """A has the double eigenvalue -1 in one Jordan block and (A, b) has
    Kalman rank 1 of 2, so no network of these nodes is controllable. PBH
    at the computed eigenvalues -1 +- ~1e-8 finds full rank."""

    DOC = {
        "$schema": "diffnet-problem/v1",
        "driven": [1],
        "graph": {"N": 2, "edges": [{"kind": "undirected", "u": 1, "v": 2}]},
        "subsystem": {
            "A": [[0.0, 1.0], [-1.0, -2.0]],
            "B": [[-1.0], [1.0]],
            "C": [[0.0, 1.0]],
        },
    }

    def test_analyze_finds_the_node_pair_uncontrollable(self, problem_file, capsys):
        code, out, _ = run(capsys, ["analyze", problem_file(self.DOC)])
        conditions = json.loads(out)["analysis"]["conditions"]
        holds = {c["name"]: c["holds"] for c in conditions}
        assert holds["subsystem_controllable"] is False
        assert code == 1


class TestDecimalNearMiss:
    """As written, A b = 0.4 b, so (A, b) has Kalman rank 1 of 2 and no
    network of these nodes is controllable. Over the doubles the decimals
    miss that by about 1e-16, so a test exact on the doubles would pass the
    pair. The verdict must stay NOT_CONTROLLABLE on the failing node pair."""

    DOC = {
        "$schema": "diffnet-problem/v1",
        "driven": [1],
        "graph": {"N": 2, "edges": [{"kind": "undirected", "u": 1, "v": 2}]},
        "subsystem": {
            "A": [[0.1, 0.1], [0.3, 0.3]],
            "B": [[1.0], [3.0]],
            "C": [[1.0, 0.0]],
        },
    }

    def test_analyze_finds_the_node_pair_uncontrollable(self, problem_file, capsys):
        code, out, _ = run(capsys, ["analyze", problem_file(self.DOC)])
        conditions = json.loads(out)["analysis"]["conditions"]
        holds = {c["name"]: c["holds"] for c in conditions}
        assert holds["subsystem_controllable"] is False
        assert code == 1


class TestGraphCommand:
    def test_text_report(self, problem_file, capsys):
        doc = chain_problem(n=3)
        doc["graph"]["edges"].append({"u": 3, "v": 1, "kind": "directed"})
        code, out, _ = run(
            capsys, ["graph", problem_file(doc), "--format", "text"]
        )
        assert code == 0
        assert "globally input-reachable: yes" in out
        assert "root 1" in out
        assert "2 <- 1" in out
        assert "{1, 2} undirected: oriented 1 -> 2" in out
        assert "(3 -> 1) directed: oriented 3 -> 1; injection +1 at 1 only" in out

    def test_json_report(self, problem_file, capsys):
        doc = chain_problem(n=4, driven=(2,))
        doc["graph"]["edges"].pop()  # drop {3, 4}: vertex 4 becomes unreachable
        _, out, _ = run(capsys, ["graph", problem_file(doc)])
        payload = json.loads(out)
        assert payload["$schema"] == "diffnet-graph/v1"
        assert payload["globally_input_reachable"] is False
        assert payload["unreachable"] == [4]
        assert payload["forest"]["roots"] == [2]
        assert payload["forest"]["parents"]["1"] == 2

    def test_edge_members_match_the_encoder(self):
        gen = np.random.default_rng(12)
        graphs = [
            NetworkGraph(1),
            NetworkGraph(12, driven=(3,)),  # no edges, eleven vertices unreachable
            NetworkGraph(3, (Edge(3, 1), Edge(2, 3, DIRECTED)), driven=(2,)),
        ]
        # ids that cross 9 -> 10 and 99 -> 100
        sizes = [int(gen.integers(2, 30)) for _ in range(60)] + [11, 40, 101, 130] * 3
        for n in sizes:
            g = random_graph(gen, n, edge_prob=min(0.3, 4.0 / n))
            # undirected edges listed in either order, 0 to 3 driven vertices
            flip = gen.random(g.num_edges) < 0.5
            edges = tuple(
                Edge(e.v, e.u) if e.kind == UNDIRECTED and f else e
                for e, f in zip(g.edges, flip)
            )
            driven = gen.choice(np.arange(1, n + 1), size=int(gen.integers(0, 4))).tolist()
            graphs.append(NetworkGraph(n, edges, driven))
            # the same graph from a problem file's columns
            entries = [{"u": e.u, "v": e.v, "kind": e.kind} for e in edges]
            graphs.append(
                problem_io._parse_graph({"graph": {"N": n, "edges": entries}, "driven": driven})
            )
        seen = set()
        for g in graphs:
            edges, orientation = problem_io.graph_members(g)
            assert (edges.text, orientation.text) == reference_graph_members(g)
            assert edges.text == problem_io._ENCODER.encode(
                [{"u": e.u, "v": e.v, "kind": e.kind} for e in g.edges]
            )
            assert orientation.text == problem_io._ENCODER.encode(
                [
                    {
                        "u": e.u,
                        "v": e.v,
                        "kind": e.kind,
                        "oriented": list(e.oriented()),
                        "injection_case": (
                            f"injection +1 at {e.oriented()[1]}, -1 at {e.oriented()[0]}"
                            if e.kind == UNDIRECTED
                            else f"injection +1 at {e.oriented()[1]} only"
                        ),
                    }
                    for e in g.edges
                ]
            )
            shape = tuple(int(k) for k in gen.integers(1, 3, size=2))
            weights = gen.normal(size=(g.num_edges, *shape))
            assert problem_io.weights_member(g, weights).text == problem_io._ENCODER.encode(
                problem_io.weights_to_json(g, weights)
            )
            seen.add(("no edges", g.num_edges == 0))
            seen.add(("mixed kinds", 0 < g.directed.sum() < g.num_edges))
            seen.add(("unreachable", bool(spanning_forest(g).unreachable)))
            seen.add(("ids past 99", g.num_edges > 0 and int(g.u.max()) >= 100))
        assert {k for k, hit in seen if hit} == {
            "no edges", "mixed kinds", "unreachable", "ids past 99"
        }

    def test_report_writers_build_no_edge(self, problem_file):
        doc = chain_problem(n=12, driven=(3,))
        doc["graph"]["edges"][4]["kind"] = "directed"
        graph = problem_io.load_problem(problem_file(doc))[0].graph
        problem_io.graph_members(graph)
        problem_io.weights_member(graph, np.ones((graph.num_edges, 1, 2)))
        assert "edges" not in vars(graph)  # built on first read only
        want = [(e["u"], e["v"], e.get("kind", UNDIRECTED)) for e in doc["graph"]["edges"]]
        assert graph.edges == tuple(want) and {*map(type, graph.edges)} == {Edge}

    def test_dump_json_writes_pre_encoded_members_unchanged(self):
        doc = {"b": problem_io.PreEncoded('[{"z":1}]'), "a": [1]}
        assert dump_json(doc) == '{"a":[1],"b":[{"z":1}]}\n'
        with pytest.raises(TypeError):
            dump_json({"a": [problem_io.PreEncoded("1")]})


class TestProblemParsing:
    def parse(self, doc):
        from diffnet.problem_io import parse_problem

        return parse_problem(json.dumps(doc))

    def expect_error(self, doc, fragment):
        from diffnet.errors import ProblemFileError
        from diffnet.problem_io import parse_problem

        with pytest.raises(ProblemFileError, match=fragment):
            parse_problem(json.dumps(doc))

    def test_minimal_document(self):
        problem = self.parse(chain_problem())
        assert problem.graph.num_vertices == 3
        assert problem.weights is None
        assert problem.options == {}
        assert problem.graph.driven == (1,)

    def test_parsed_edges_are_edge_tuples(self):
        doc = chain_problem(n=4)
        doc["graph"]["edges"].append({"u": 4, "v": 1, "kind": "directed"})
        edges = self.parse(doc).graph.edges
        assert {type(e) for e in edges} == {Edge}
        assert [(e.u, e.v, e.kind) for e in edges] == [
            (1, 2, UNDIRECTED),
            (2, 3, UNDIRECTED),
            (3, 4, UNDIRECTED),
            (4, 1, DIRECTED),
        ]
        assert edges[-1].key() == (DIRECTED, 4, 1)

    def test_weight_order_is_free_for_undirected_edges(self):
        weights = {"edges": [{"u": 2, "v": 1, "W": [[1.0, 2.0]]}]}
        problem = self.parse(chain_problem(n=2, weights=weights))
        assert np.array_equal(problem.weights, [[[1.0, 2.0]]])

    def test_antiparallel_directed_edges_match_by_direction(self):
        doc = chain_problem(n=2)
        doc["graph"]["edges"] = [
            {"u": 1, "v": 2, "kind": "directed"},
            {"u": 2, "v": 1, "kind": "directed"},
        ]
        doc["weights"] = {
            "edges": [
                {"u": 1, "v": 2, "W": [[1.0, 0.0]]},
                {"u": 2, "v": 1, "W": [[0.0, 2.0]]},
            ]
        }
        problem = self.parse(doc)
        assert np.array_equal(problem.weights, [[[1.0, 0.0]], [[0.0, 2.0]]])

    def test_weights_match_undirected_reversed_and_directed_as_given(self):
        doc = chain_problem(n=3)
        doc["graph"]["edges"] = [
            {"u": 1, "v": 2},
            {"u": 2, "v": 3, "kind": "directed"},
        ]
        doc["weights"] = {
            "edges": [
                {"u": 2, "v": 1, "W": [[1.0, 2.0]]},
                {"u": 2, "v": 3, "W": [[3.0, 4.0]]},
            ]
        }
        problem = self.parse(doc)
        assert np.array_equal(problem.weights, [[[1.0, 2.0]], [[3.0, 4.0]]])
        doc["weights"]["edges"][1].update(u=3, v=2)
        self.expect_error(doc, "references no edge between 3 and 2")

    def test_matrix_weights_for_multi_input_models(self):
        doc = chain_problem(n=2)
        doc["subsystem"] = {
            "A": [[0.0, 1.0], [-1.0, 0.0]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
            "C": [[1.0, 0.0], [0.0, 1.0]],
        }
        doc["weights"] = {"edges": [{"u": 1, "v": 2, "W": [[1.0, 2.0], [3.0, 4.0]]}]}
        problem = self.parse(doc)
        assert isinstance(problem.weights, np.ndarray)
        assert problem.weights.dtype == np.float64
        assert np.array_equal(problem.weights, [[[1.0, 2.0], [3.0, 4.0]]])

    def test_weight_rejections(self):
        base = chain_problem(n=2)
        self.expect_error(
            {**base, "weights": {"edges": [{"u": 1, "v": 2, "W": [[1.0]]}]}},
            "shape",
        )
        self.expect_error(
            {
                **base,
                "weights": {
                    "edges": [
                        {"u": 1, "v": 2, "W": [[1.0, 1.0]]},
                        {"u": 2, "v": 1, "W": [[1.0, 1.0]]},
                    ]
                },
            },
            "duplicate",
        )
        self.expect_error(
            {
                **base,
                "weights": {
                    "edges": [
                        {"u": 1, "v": 2, "W": [[1.0, 1.0]]},
                        {"u": 1, "v": 3, "W": [[1.0, 1.0]]},
                    ]
                },
            },
            "no edge",
        )
        three = chain_problem(n=3)
        self.expect_error(
            {**three, "weights": {"edges": [{"u": 1, "v": 2, "W": [[1.0, 1.0]]}]}},
            "every edge",
        )
        self.expect_error(
            {**base, "weights": {"edges": [{"u": 1, "v": 2, "W": [[1.0, 1.0]], "x": 1}]}},
            "unknown members",
        )

    EDGE_ERRORS = (
        "must be a JSON object",
        "unknown members",
        "needs both",
        "kind must be",
        "must be an integer",
        "references a vertex outside",
        "self-loop",
        "duplicate edge",
        "already carry",
    )
    WEIGHT_ERRORS = (
        "must be a JSON object",
        "unknown members",
        "needs",
        "must be an integer",
        "references no edge",
        "duplicate weight",
        "not a numeric array",
        "non-finite",
        "non-empty 1-D or 2-D",
        "has shape",
        "must cover every edge",
    )

    def test_edge_parsing_matches_the_per_entry_reference(self):
        gen = np.random.default_rng(44)
        seen = set()
        for _ in range(1500):
            n = int(gen.integers(2, 7))
            entries = [
                {"u": e.u, "v": e.v, "kind": e.kind}
                if e.kind != UNDIRECTED or gen.random() < 0.3
                else {"u": e.u, "v": e.v}
                for e in edges_with_defects(gen, n)
            ]
            if entries and gen.random() < 0.4:
                i = int(gen.integers(0, len(entries)))
                entries[i] = [
                    {k: x for k, x in entries[i].items() if k != "u"},
                    {k: x for k, x in entries[i].items() if k != "v"},
                    {**entries[i], "w": 1.0},
                    {**entries[i], "u": str(entries[i]["u"])},
                    {**entries[i], "kind": ["directed"]},
                    [entries[i]["u"], entries[i]["v"]],
                    None,
                ][int(gen.integers(0, 7))]

            def reference():
                edges = reference_parse_edges(entries)
                try:
                    reference_graph_check(n, edges)
                except ValueError as exc:
                    raise ProblemFileError(f"invalid graph: {exc}") from None
                return n, tuple(edges)

            doc = {"graph": {"N": n, "edges": entries}, "driven": []}
            got = outcome(problem_io._parse_graph, doc)
            want = outcome(reference)
            if want[0] == "ok":
                assert got[0] == "ok", got
                assert (got[1].num_vertices, got[1].edges) == want[1]
                seen.add("ok")
            else:
                assert got == want
                seen.update(f for f in self.EDGE_ERRORS if f in want[1])
        assert seen == {"ok", *self.EDGE_ERRORS}

    def test_weight_parsing_matches_the_per_entry_reference(self):
        gen = np.random.default_rng(45)
        seen = set()
        for _ in range(800):
            p, r = int(gen.integers(1, 3)), int(gen.integers(1, 3))
            graph = random_graph(gen, int(gen.integers(2, 6)), edge_prob=0.7)
            model = random_model(gen, 2, r, num_inputs=p)
            entries = []
            for e in graph.edges:
                u, v = (e.v, e.u) if e.kind == UNDIRECTED and gen.random() < 0.5 else e[:2]
                block = gen.normal(size=(p, r))
                w = block[0].tolist() if p == 1 and gen.random() < 0.3 else block.tolist()
                entries.append({"u": u, "v": v, "W": w})
            order = gen.permutation(len(entries))
            entries = [entries[i] for i in order]
            for _ in range(int(gen.integers(0, 3))):
                if not entries:
                    break
                i = int(gen.integers(0, len(entries)))
                e = entries[i]
                if not isinstance(e, dict) or set(e) != {"u", "v", "W"}:
                    continue  # already made bad
                bad = [
                    {"u": e["u"], "v": e["v"]},
                    {**e, "x": 1},
                    {**e, "u": float(e["u"])},
                    {**e, "u": e["v"], "v": e["u"]},
                    {**e, "v": 99},
                    {**e, "W": [[1.0] * (r + 1)] * p},
                    {**e, "W": [[float("nan")] * r] * p},
                    {**e, "W": [[1.0] * r, [2.0]]},
                    {**e, "W": None},
                    {**e, "W": [[[1.0] * r] * p]},
                    [e["u"], e["v"]],
                ][int(gen.integers(0, 11))]
                if gen.random() < 0.3:
                    entries.insert(i, e)  # a duplicate weight
                elif gen.random() < 0.2:
                    del entries[i]  # an edge left without weight
                else:
                    entries[i] = bad
            doc = {"weights": {"edges": entries}}
            got = outcome(problem_io._parse_weights, doc, graph, model)
            want = outcome(reference_parse_weights, entries, graph, (p, r))
            if want[0] == "ok":
                assert got[0] == "ok", got
                assert got[1].shape == want[1].shape == (graph.num_edges, p, r)
                assert np.array_equal(got[1].view(np.uint64), want[1].view(np.uint64))
                seen.add("ok")
            else:
                assert got == want
                seen.update(f for f in self.WEIGHT_ERRORS if f in want[1])
        assert seen == {"ok", *self.WEIGHT_ERRORS}

    def test_graph_rejections(self):
        self.expect_error(
            chain_problem(extra={"graph": {"N": 2, "edges": [{"u": 1, "v": 2, "kind": "both"}]}}),
            "kind",
        )
        self.expect_error(
            chain_problem(extra={"graph": {"N": 2, "edges": [{"u": 1, "v": 5}]}}),
            "invalid graph",
        )
        self.expect_error(
            chain_problem(extra={"graph": {"N": 2, "loops": True}}),
            "unknown members",
        )
        self.expect_error(chain_problem(extra={"graph": {"edges": []}}), '"N"')

    def test_subsystem_rejections(self):
        doc = chain_problem()
        del doc["subsystem"]["C"]
        self.expect_error(doc, "missing members")
        doc = chain_problem(c=[[0.0, 0.0]])
        self.expect_error(doc, "invalid subsystem")
        doc = chain_problem(extra={"subsystem": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0]], "D": [[1.0]]}})
        self.expect_error(doc, "unknown members")

    def test_driven_rejections(self):
        self.expect_error(chain_problem(extra={"driven": 1}), "list")
        self.expect_error(chain_problem(driven=(7,)), "invalid driven")
        self.expect_error(chain_problem(driven=(0,)), "invalid driven")

    @pytest.mark.parametrize(
        "doc, line",
        [
            (
                chain_problem(driven=(7, 1, 5)),
                "invalid driven set: driven vertices [5, 7] exceed the vertex count 3",
            ),
            (
                chain_problem(driven=(1, 0)),
                "invalid driven set: driven vertex ids must be positive",
            ),
            (chain_problem(driven=(1, True)), '"driven" entry must be an integer, got True'),
            (chain_problem(driven=(1.5,)), '"driven" entry must be an integer, got 1.5'),
            (chain_problem(extra={"driven": {"1": 1}}), '"driven" must be a list of vertex ids'),
            (
                chain_problem(extra={"graph": {"N": 2, "edges": [{"u": 1, "v": 1}]}}),
                "invalid graph: self-loop at vertex 1 is not allowed",
            ),
            (
                chain_problem(extra={"graph": {"N": 0, "edges": []}}, driven=()),
                "invalid graph: graph needs a positive vertex count, got 0",
            ),
            # the edges are checked before the driven ids
            (
                chain_problem(driven=(9,), extra={"graph": {"N": 2, "edges": [{"u": 1, "v": 3}]}}),
                "invalid graph: edge (1, 3) references a vertex outside 1..2",
            ),
        ],
    )
    def test_graph_and_driven_refusals_are_told_apart(self, problem_file, capsys, doc, line):
        code, out, err = run(capsys, ["analyze", problem_file(doc)])
        assert (code, out, err) == (64, "", f"diffnet: error: {line}\n")

    def test_driven_ids_are_checked_once_per_certify_run(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "chain.json"
        run(capsys, ["example", "--N", "6", "--seed", "3", "--out", str(target)])
        checks = count_calls(monkeypatch, diffnet.topology, "_driven_ids")
        code, _, _ = run(capsys, ["certify", str(target), "--ground-first-mass"])
        assert code == 0
        assert len(checks) == 1

    def test_ids_are_read_with_no_call_per_entry(self, problem_file, monkeypatch):
        # 1,000 driven ids and 1,500 edges: a path, then (i, i + 2) edges
        edges = [{"u": i, "v": i + 1} for i in range(1, 1000)]
        edges += [{"u": i, "v": i + 2, "kind": "directed"} for i in range(1, 502)]
        doc = chain_problem(driven=range(1, 1001), extra={"graph": {"N": 1000, "edges": edges}})
        path = problem_file(doc)
        calls = count_calls(monkeypatch, problem_io, "_int_field")
        graph = problem_io.load_problem(path)[0].graph
        assert graph.num_edges == 1500 and len(graph.driven) == 1000
        assert len(calls) == 1  # graph "N" alone

    def test_option_rejections(self):
        self.expect_error(
            chain_problem(options={"plot": True}), "unknown members"
        )
        self.expect_error(
            chain_problem(options={"trials": 0}), "at least 1"
        )
        self.expect_error(
            chain_problem(options={"seed": "abc"}), "integer"
        )
        self.expect_error(
            chain_problem(options={"rank_rel_tol": "tight"}), "number"
        )
        self.expect_error(
            chain_problem(options={"rank_rel_tol": 10**400}), "finite"
        )
        self.expect_error(
            chain_problem(options={"wall": {"stiffness_over_mass": 1.0}}),
            "wall",
        )

    def test_options_parsed_with_types(self):
        problem = self.parse(
            chain_problem(
                options={
                    "seed": 7,
                    "trials": 2,
                    "rank_rel_tol": 1e-8,
                    "eig_match_tol": 1e-6,
                    "wall": {"stiffness_over_mass": 1, "damping_over_mass": 2},
                }
            )
        )
        assert problem.options["seed"] == 7
        assert problem.options["wall"] == {
            "stiffness_over_mass": 1.0,
            "damping_over_mass": 2.0,
        }

    def test_non_finite_matrix_rejected(self):
        doc = chain_problem()
        doc["subsystem"]["A"] = [[0.0, 1.0], [0.0, None]]
        self.expect_error(doc, "numeric|non-finite")
        doc["subsystem"]["A"] = [[0.0, 1.0], [0.0, 10**400]]
        self.expect_error(doc, "numeric|non-finite")


def fresh_process(argv, env=None) -> int:
    """Exit code of ``python -m diffnet *argv`` in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "diffnet", *argv],
        capture_output=True,
        env=None if env is None else {**os.environ, **env},
        timeout=120,
    )
    return proc.returncode


@pytest.fixture
def unbuilt_parser():
    """No shared parser at the start or the end of the test."""
    cli._shared_parser.cache_clear()
    yield
    cli._shared_parser.cache_clear()


class TestParserReuse:
    """``main`` builds its parser on the first call and reuses it; no call
    leaves state behind that a later one would see."""

    def test_parser_is_built_once_over_many_calls(
        self, problem_file, capsys, monkeypatch, unbuilt_parser
    ):
        builds = count_calls(monkeypatch, cli, "build_parser")
        path = problem_file(chain_problem())
        for argv in (["analyze", path], ["graph", path], ["lump", path], ["analyze", path]):
            assert run(capsys, argv)[0] == 0
        assert len(builds) == 1

    def test_import_builds_no_parser(self, tmp_path):
        child = (
            "import argparse, sys\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import diffnet.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    diffnet.cli.main(['example', '--N', '2', '--out', sys.argv[1]])\n"
            "    counts.append(len(built))\n"
            "print(*counts)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "example.json")],
            capture_output=True,
            text=True,
            timeout=120,
        )
        after_import, after_first, after_second = map(int, proc.stdout.split())
        assert after_import == 0, proc.stderr
        assert after_first > 0 and after_second == after_first

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys, tmp_path):
        path = str(GOLDEN / "example.json")
        flagged = [
            "certify", path, "--trials", "2", "--ground-first-mass",
            "--format", "text", "--seed", "5",
        ]
        plain = ["certify", path]
        for argv in (flagged, plain):
            warm, cold = tmp_path / "warm", tmp_path / "cold"
            assert main([*argv, "--out", str(warm)]) == 0
            assert fresh_process([*argv, "--out", str(cold)]) == 0
            assert warm.read_bytes() == cold.read_bytes(), argv
        doc = json.loads(warm.read_bytes())
        assert doc["options"]["trials"] == 5 and doc["options"]["seed"] == 1
        assert not doc["options"]["ground_first_mass"]
        assert "grounded_certification" not in doc

    def test_usage_error_leaves_nothing_behind(self, problem_file, capsys, tmp_path):
        path = problem_file(chain_problem())
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--tol", "2"])
        assert exc.value.code == 64
        warm, cold = tmp_path / "warm", tmp_path / "cold"
        assert main(["analyze", path, "--out", str(warm)]) == 0
        assert fresh_process(["analyze", path, "--out", str(cold)]) == 0
        assert warm.read_bytes() == cold.read_bytes()

    def test_seed_from_the_environment_is_read_per_call(
        self, problem_file, monkeypatch, tmp_path
    ):
        path = problem_file(chain_problem())
        reports = []
        for seed in ("7", "8"):
            monkeypatch.setenv("DIFFNET_SEED", seed)
            warm, cold = tmp_path / f"warm{seed}", tmp_path / f"cold{seed}"
            assert main(["lump", path, "--out", str(warm)]) == 0
            assert fresh_process(["lump", path, "--out", str(cold)], {"DIFFNET_SEED": seed}) == 0
            assert warm.read_bytes() == cold.read_bytes()
            reports.append(warm.read_bytes())
        assert reports[0] != reports[1]

    def test_rebound_command_takes_effect(self, problem_file, capsys, monkeypatch):
        path = problem_file(chain_problem())
        assert run(capsys, ["graph", path])[0] == 0
        monkeypatch.setattr(cli, "cmd_graph", lambda args: 42)
        assert run(capsys, ["graph", path])[0] == 42

    def test_help_matches_a_fresh_parser(self, capsys, monkeypatch, unbuilt_parser):
        def help_text(parse, argv):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        monkeypatch.setenv("COLUMNS", "200")
        help_text(main, ["--help"])  # builds the shared parser at another width
        commands = ([], ["analyze"], ["certify"], ["lump"], ["example"], ["graph"])
        texts = set()
        for columns in ("60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            for command in commands:
                argv = [*command, "--help"]
                shared = help_text(main, argv)
                assert shared == help_text(cli.build_parser().parse_args, argv), argv
                texts.add(shared)
        assert len(texts) == 2 * len(commands)


class TestPackaging:
    def test_module_entry_point_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diffnet", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("diffnet ")

    def test_dump_json_is_canonical(self):
        doc = {"b": 1, "a": {"z": [1, 2], "y": None}}
        first = dump_json(doc)
        second = dump_json({"a": {"y": None, "z": [1, 2]}, "b": 1})
        assert first == second
        assert first.endswith("\n")
        assert '"a":{"y":null,"z":[1,2]}' in first

    def test_public_names_resolve(self):
        import diffnet
        import diffnet.assembly
        import diffnet.errors
        import diffnet.numerics
        import diffnet.problem_io
        import diffnet.subsystem
        import diffnet.topology
        import diffnet.verdict

        assert sorted(diffnet.__all__) == [
            "AnalysisReport",
            "CertificationReport",
            "ConsistencyError",
            "DEFAULT_TOL",
            "DiffnetError",
            "Edge",
            "LumpedSystem",
            "MassSpringChain",
            "ModelValidationError",
            "NetworkGraph",
            "NumericError",
            "Problem",
            "ProblemFileError",
            "RandomSource",
            "SubsystemModel",
            "ToleranceConfig",
            "Verdict",
            "analyze",
            "assemble_lumped",
            "certify_monte_carlo",
            "fixed_modes",
            "grounding_shift",
            "incidence_matrices",
            "load_problem",
            "mass_spring_chain",
            "parse_problem",
            "sample_weights",
            "spanning_forest",
        ]
        for name in diffnet.__all__:
            assert hasattr(diffnet, name), name
        deleted = {
            diffnet.verdict: (
                "analyze_simo",
                "analyze_mimo",
                "generic_rank",
                "reduce_scalar_weight",
                "analyze_scalar_constrained",
                "laplacian_leader_controllability",
                "AuxConditionDetail",
                "aux_condition_check",
                "RankCheckDetail",
                "rank_condition_check",
            ),
            diffnet.topology: (
                "DrivenSet",
                "AuxDigraph",
                "aux_digraph",
                "all_cycles_input_reachable",
                "input_reachable_set",
                "is_globally_input_reachable",
            ),
            diffnet.assembly: (
                "matrix_laplacian",
                "FactorizationReport",
                "factorized_assembly_check",
                "MatrixWeights",
                "check_weights",
                "_edge_blocks",
                "assemble_lumped_stack",
            ),
            diffnet.subsystem: (
                "FixedModeReport",
                "DEFAULT_FEEDBACK_DRAWS",
                "validate_model",
                "require_valid",
                "check_controllable",
                "check_observable",
            ),
            diffnet.numerics: (
                "kron",
                "generic_rank",
                "DEFAULT_GENERIC_RANK_TRIALS",
                "matched_eigenvalues",
                "spectra_match",
            ),
            diffnet.errors: ("PremiseError",),
            diffnet.problem_io: ("analysis_from_json",),
        }
        for module, names in deleted.items():
            for name in names:
                assert not hasattr(module, name), (module.__name__, name)
                assert not hasattr(diffnet, name), name
        assert not hasattr(diffnet.NetworkGraph, "edge_keys")
        assert not hasattr(diffnet.NetworkGraph, "validate_for")
        assert "driven_template" not in {
            f.name for f in dataclasses.fields(diffnet.MassSpringChain)
        }
        assert "driven" not in {f.name for f in dataclasses.fields(diffnet.Problem)}
        for fn in (
            diffnet.analyze,
            diffnet.certify_monte_carlo,
            diffnet.assemble_lumped,
            diffnet.spanning_forest,
        ):
            assert "driven" not in inspect.signature(fn).parameters, fn
        assert list(inspect.signature(diffnet.fixed_modes).parameters) == ["model", "tol"]
        assert "rng" not in inspect.signature(diffnet.analyze).parameters
        assert not hasattr(diffnet.topology.SpanningForest, "ok")
        for fn in (
            diffnet.certify_monte_carlo,
            diffnet.sample_weights,
            diffnet.numerics.sample_away_from_zero,
        ):
            params = inspect.signature(fn).parameters
            assert "weight_scale" not in params and "scale" not in params, fn
        fields = {f.name for f in dataclasses.fields(diffnet.topology.IncidenceRealization)}
        assert "oriented" not in fields
        assert [f.name for f in dataclasses.fields(diffnet.LumpedSystem)] == [
            "a_sys",
            "b_sys",
        ]
        assert "mass" not in {f.name for f in dataclasses.fields(diffnet.MassSpringChain)}

    def test_dump_json_encodes_arrays_as_their_lists(self):
        gen = np.random.default_rng(6)
        special = np.array(
            [
                [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310],
                [1e300, -1e300, 1e-300, -1e-300, 0.1 + 0.2, 1 / 3],
                [1.0, -3.0, 2.0**53, 1e16, 123456789.0, -0.5],
            ]
        )
        scattered = gen.normal(size=(7, 9)) * 10.0 ** gen.integers(-30, 30, size=(7, 9))
        scattered[gen.random((7, 9)) < 0.3] = 0.0
        scattered[gen.random((7, 9)) < 0.3] = -0.0
        zero_rows = np.zeros((4, 5))
        zero_rows[1] = [0.5, 0.0, -0.0, 0.0, -2.0]
        first_column, last_column = np.zeros((5, 6)), np.zeros((5, 6))
        first_column[:, 0] = last_column[:, -1] = [1.5, -0.0, -1e-5, 0.0, 3.0]
        long_runs = np.zeros((1, 500))
        long_runs[0, [0, 137, 138, 499]] = [-0.25, 7.0, -0.0, 1e22]
        block_sparse = np.zeros((64, 64))
        for i in range(0, 64, 4):  # diagonal and a few off-diagonal 4 x 4 blocks
            block_sparse[i : i + 4, i : i + 4] = gen.normal(size=(4, 4))
            j = int(gen.integers(0, 16)) * 4
            block_sparse[i : i + 4, j : j + 4] = gen.normal(size=(4, 4))
        block_sparse[gen.random((64, 64)) < 0.4] *= -0.0  # runs of -0.0
        arrays = [
            special,
            special.T,
            scattered,
            special[:1],
            special[:, :1],
            np.zeros((1, 1)),
            np.full((1, 1), -0.0),
            np.zeros((3, 7)),
            zero_rows,
            first_column,
            last_column,
            long_runs,
            block_sparse,
            block_sparse[::-1, ::3],
        ]

        def document(matrix):
            return {
                "z": matrix,
                "a": {"n": [1, {"k": 2.5}], "\u00e9": "x", "m": [[0.1, -0.0]]},
                "b": None,
                "\u00e9": matrix,
            }

        for arr in arrays:
            expected = json.dumps(
                document(arr.tolist()), sort_keys=True, separators=(",", ":")
            )
            assert dump_json(document(arr)) == expected + "\n", arr

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_dump_json_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            dump_json({"a": [1.0, bad]})
        with pytest.raises(ValueError):
            dump_json({"a": None, "m": np.array([[1.0, 0.0], [-0.0, bad]])})
