"""The README's Library use example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "README should hold exactly one python block"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" True")  # the certificate agrees with the verdict
    assert lines[1:] == [
        "('output row 1 is identically zero',)",
        "[1 2] [2 3] [0 1] [1 2] [False  True]",
        "(Edge(u=1, v=2, kind='undirected'), Edge(u=2, v=3, kind='directed'))",
        "(1, 3)",
        "driven vertices [4] exceed the vertex count 3",
    ]
