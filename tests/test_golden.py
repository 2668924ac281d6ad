"""Report contract: fixed-seed CLI runs reproduce the committed bytes exactly.

The files under ``golden/`` are the canonical output of

    diffnet example --N 5 --seed 1
    diffnet analyze example.json
    diffnet certify example.json --trials 3
    diffnet certify example.json --trials 3 --ground-first-mass
    diffnet lump example.json

A mass-spring chain assembles with exact float arithmetic (one nonzero
product per entry), so these bytes do not depend on the BLAS in use.
``analyze`` draws nothing, so its reports hold no seed: their ``options``
are the two tolerances, and their bytes depend on the problem file alone.
The seed in ``example.json`` reaches the ``certify`` and ``lump`` reports.

The example chain is CONTROLLABLE and its trial 0 is controllable, so
both ``certify`` reports hold that one trial; ``options.trials`` still
records the 3 asked for.

Two hand-written problems pin the other analyzer paths:

    diffnet analyze fixed_mode.json        (p = r = 2, a fixed mode at 2)
    diffnet analyze directed_cutoff.json   (single input, vertex 4 cut off)
    diffnet graph directed_cutoff.json

and pin the text rendering of the last two:

    diffnet analyze directed_cutoff.json --format text
    diffnet graph directed_cutoff.json --format text

Their certificates are pinned too. Neither verdict is CONTROLLABLE, so
every trial asked for runs:

    diffnet certify fixed_mode.json --trials 3        (exit 2)
    diffnet certify directed_cutoff.json --trials 3   (exit 1)

The fixed-mode node has an upper-triangular A with integer diagonal, so the
eigenvalue in its witness is exact whatever LAPACK computes it.

One more pins the lumped pair of a multi-input network:

    diffnet lump mimo.json                 (p = r = 2, file weights)

Its node has negative entries in A and B, and its graph has one directed
edge and one antiparallel pair. Every entry is a short binary fraction, so
each product and sum is exact. The report writes every structural zero of
the block-sparse pair as 0.0, never as -0.0.

Every command runs three times: twice in this process, where the first call
may build the command-line parser and the second must reuse it, and once in
a fresh interpreter through ``python -m diffnet``. All three write the
golden bytes.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import count_calls
from diffnet import cli

GOLDEN = Path(__file__).parent / "golden"
EXAMPLE = GOLDEN / "example.json"


def check_golden(tmp_path, monkeypatch, argv, golden, code=0):
    """Run ``diffnet *argv --out FILE`` warm, warm again and cold; each run
    must exit ``code`` and write the bytes of ``golden``."""
    expected = (GOLDEN / golden).read_bytes()
    builds = count_calls(monkeypatch, cli, "build_parser")
    for run in ("first", "second"):
        before = len(builds)
        out = tmp_path / f"{run}-{golden}"
        assert cli.main([*argv, "--out", str(out)]) == code
        assert out.read_bytes() == expected, run
    assert len(builds) == before, "the second call built a parser"
    out = tmp_path / f"fresh-{golden}"
    proc = subprocess.run(
        [sys.executable, "-m", "diffnet", *argv, "--out", str(out)],
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert out.read_bytes() == expected, "fresh interpreter"


def test_example_file_is_byte_identical(tmp_path, monkeypatch):
    check_golden(tmp_path, monkeypatch, ["example", "--N", "5", "--seed", "1"], EXAMPLE.name)


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("analyze.json", ["analyze"]),
        ("certify.json", ["certify", "--trials", "3"]),
        ("certify_grounded.json", ["certify", "--trials", "3", "--ground-first-mass"]),
        ("lump.json", ["lump"]),
    ],
)
def test_report_is_byte_identical(tmp_path, monkeypatch, golden, argv):
    check_golden(tmp_path, monkeypatch, [argv[0], str(EXAMPLE), *argv[1:]], golden)


@pytest.mark.parametrize(
    "problem, golden, command, code",
    [
        ("fixed_mode.json", "fixed_mode_analyze.json", "analyze", 2),
        ("directed_cutoff.json", "directed_cutoff_analyze.json", "analyze", 1),
        ("directed_cutoff.json", "directed_cutoff_graph.json", "graph", 0),
    ],
)
def test_analyzer_path_is_byte_identical(
    tmp_path, monkeypatch, problem, golden, command, code
):
    check_golden(tmp_path, monkeypatch, [command, str(GOLDEN / problem)], golden, code)


@pytest.mark.parametrize(
    "problem, golden, code",
    [
        ("fixed_mode.json", "certify_fixed_mode.json", 2),
        ("directed_cutoff.json", "certify_cutoff.json", 1),
    ],
)
def test_certificate_of_every_trial_is_byte_identical(
    tmp_path, monkeypatch, problem, golden, code
):
    argv = ["certify", str(GOLDEN / problem), "--trials", "3"]
    check_golden(tmp_path, monkeypatch, argv, golden, code)


@pytest.mark.parametrize("command, code", [("analyze", 1), ("graph", 0)])
def test_text_report_is_byte_identical(tmp_path, monkeypatch, command, code):
    argv = [command, str(GOLDEN / "directed_cutoff.json"), "--format", "text"]
    check_golden(tmp_path, monkeypatch, argv, f"directed_cutoff_{command}.txt", code)


def test_mimo_lump_is_byte_identical(tmp_path, monkeypatch):
    check_golden(tmp_path, monkeypatch, ["lump", str(GOLDEN / "mimo.json")], "lump_mimo.json")
