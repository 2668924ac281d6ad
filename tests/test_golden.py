"""Report contract: fixed-seed CLI runs reproduce the committed bytes exactly.

The files under ``golden/`` are the canonical output of

    diffnet example --N 5 --seed 1
    diffnet analyze example.json
    diffnet certify example.json --trials 3
    diffnet certify example.json --trials 3 --ground-first-mass
    diffnet lump example.json

A mass-spring chain assembles with exact float arithmetic (one nonzero
product per entry), so these bytes do not depend on the BLAS in use.
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
