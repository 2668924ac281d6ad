"""Report contract: fixed-seed CLI runs reproduce the committed bytes exactly.

The files under ``golden/`` are the canonical output of

    diffnet example --N 5 --seed 1
    diffnet analyze example.json
    diffnet certify example.json --trials 3
    diffnet certify example.json --trials 3 --ground-first-mass
    diffnet lump example.json

A mass-spring chain assembles with exact float arithmetic (one nonzero
product per entry), so these bytes do not depend on the BLAS in use.

Two hand-written problems pin the other analyzer paths:

    diffnet analyze fixed_mode.json        (p = r = 2, a fixed mode at 2)
    diffnet analyze directed_cutoff.json   (single input, vertex 4 cut off)
    diffnet graph directed_cutoff.json

and pin the text rendering of the last two:

    diffnet analyze directed_cutoff.json --format text
    diffnet graph directed_cutoff.json --format text

The fixed-mode node has an upper-triangular A with integer diagonal, so the
eigenvalue in its witness is exact whatever LAPACK computes it.

One more pins the lumped pair of a multi-input network:

    diffnet lump mimo.json                 (p = r = 2, file weights)

Its node has negative entries in A and B, and its graph has one directed
edge and one antiparallel pair. Every entry is a short binary fraction, so
each product and sum is exact. The report writes every structural zero of
the block-sparse pair as 0.0, never as -0.0.
"""

from pathlib import Path

import pytest

from diffnet.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXAMPLE = GOLDEN / "example.json"


def test_example_file_is_byte_identical(tmp_path):
    out = tmp_path / "example.json"
    assert main(["example", "--N", "5", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_bytes() == EXAMPLE.read_bytes()


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("analyze.json", ["analyze"]),
        ("certify.json", ["certify", "--trials", "3"]),
        ("certify_grounded.json", ["certify", "--trials", "3", "--ground-first-mass"]),
        ("lump.json", ["lump"]),
    ],
)
def test_report_is_byte_identical(tmp_path, golden, argv):
    out = tmp_path / golden
    assert main([argv[0], str(EXAMPLE), *argv[1:], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "problem, golden, command, code",
    [
        ("fixed_mode.json", "fixed_mode_analyze.json", "analyze", 2),
        ("directed_cutoff.json", "directed_cutoff_analyze.json", "analyze", 1),
        ("directed_cutoff.json", "directed_cutoff_graph.json", "graph", 0),
    ],
)
def test_analyzer_path_is_byte_identical(tmp_path, problem, golden, command, code):
    out = tmp_path / golden
    assert main([command, str(GOLDEN / problem), "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("command, code", [("analyze", 1), ("graph", 0)])
def test_text_report_is_byte_identical(tmp_path, command, code):
    golden = f"directed_cutoff_{command}.txt"
    out = tmp_path / golden
    argv = [command, str(GOLDEN / "directed_cutoff.json"), "--format", "text"]
    assert main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_mimo_lump_is_byte_identical(tmp_path):
    out = tmp_path / "lump_mimo.json"
    assert main(["lump", str(GOLDEN / "mimo.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "lump_mimo.json").read_bytes()
