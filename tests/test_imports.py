"""Every name a ``diffnet`` module imports is used in it, every
function and class the package defines is used or exported by it, and
only ``numerics`` imports numpy's private linear-algebra kernels.

A name is used when it is read anywhere in the module, annotations
included, or listed in the module's ``__all__``. Code that only tests
call belongs in ``tests/``. Found with ``ast``, so no linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diffnet"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never uses, sorted."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_the_guard_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import dataclasses\nimport os.path\nfrom math import inf, pi as half\n"
        "__all__ = ['inf']\n"
        "def f(x: os.PathLike) -> None:\n    return half\n"
    )
    assert unused_imports(source) == ["dataclasses"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_definitions(sources: list[str]) -> list[str]:
    """The top-level functions and classes of ``sources``, the modules of
    one package, that no module reads by name (as a name or an attribute)
    and no ``__all__`` lists, sorted. A ``cmd_*`` function is read by
    name: ``cli.main`` looks the command up in the module's globals."""
    trees = [ast.parse(source) for source in sources]
    defined, used = set(), set()
    for tree in trees:
        defined.update(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
    return sorted(name for name in defined - used if not name.startswith("cmd_"))


def test_the_guard_finds_an_unreferenced_definition():
    sources = [
        "__all__ = ['public']\ndef public(): pass\ndef cmd_run(): pass\n"
        "def helper(): pass\nclass Kept: pass\nclass Dropped:\n    def used(self): pass\n",
        "import other\nother.helper()\nx: Kept = other.used\n",
    ]
    assert unreferenced_definitions(sources) == ["Dropped"]
    assert unreferenced_definitions(sources[:1]) == ["Dropped", "Kept", "helper"]


def test_every_definition_is_used_or_exported():
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    assert unreferenced_definitions(sources) == []


PRIVATE_KERNELS = "numpy.linalg._umath_linalg"


def private_kernel_imports(source: str) -> list[str]:
    """The import statements of ``source`` that reach numpy's private
    linear-algebra kernels, ``numpy.linalg._umath_linalg``, in any form,
    as their source lines, in order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any((m + ".").startswith(PRIVATE_KERNELS + ".") for m in modules):
            found.append(ast.get_source_segment(source, node))
    return found


def test_the_guard_finds_a_private_kernel_import():
    source = (
        "import numpy as np\nfrom numpy.linalg import _umath_linalg\n"
        "import numpy.linalg._umath_linalg as k\nfrom numpy.linalg import norm\n"
        "from numpy.linalg._umath_linalg import svd_s\nimport numpy.linalg\n"
    )
    assert private_kernel_imports(source) == [
        "from numpy.linalg import _umath_linalg",
        "import numpy.linalg._umath_linalg as k",
        "from numpy.linalg._umath_linalg import svd_s",
    ]


@pytest.mark.parametrize(
    "path",
    [path for path in sorted(SRC.glob("*.py")) if path.name != "numerics.py"],
    ids=lambda p: p.name,
)
def test_only_numerics_imports_the_private_kernels(path):
    """The staircase's step calls LAPACK's SVD kernel through numpy's
    private module; every other module goes through numpy's public API,
    so a change of that private module touches one file."""
    assert private_kernel_imports(path.read_text(encoding="utf-8")) == []
