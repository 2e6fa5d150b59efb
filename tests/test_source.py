"""Source checks over the package modules and the tests, with the standard
library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "zemgame"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names an import binds and the module never reads; a name inside a
    string annotation such as "SaddleSolution" counts as read, and an
    import on a line marked `# noqa: F401` (kept for its side effect) is
    not reported."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(a.asname or a.name.split(".")[0], a.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [(a.asname or a.name, a.lineno) for a in node.names]
        else:
            if isinstance(node, ast.Name):
                used.add(node.id)
            continue
        imported.update((name, line) for name, line in bound
                        if "# noqa: F401" not in lines[line - 1])
    for annotation in _annotations(tree):
        for const in ast.walk(annotation):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                used.update(n.id for n in ast.walk(ast.parse(const.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + ["tests/" + p.name for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detected():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nfrom typing import Optional, Union\n"
              "from .solver import SaddleSolution\n"
              "import os.path  # noqa: F401\nimport json  # noqa: E501\n"
              "def f(x: Optional[int]) -> \"SaddleSolution\":\n    return np.sqrt(x)\n")
    assert unused_imports(source) == ["Union (line 4)", "json (line 7)", "math (line 2)"]


# The size of the package, which may only shrink: a change that removes
# code lowers these to its own counts, and none raises them.
SRC_LINES_MAX = 2961
EXPORTS_MAX = 57


def package_size() -> tuple[int, int]:
    """(lines of every module of `src/zemgame`, names `__init__.py` imports)."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exports = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for a in node.names]
    return lines, len(exports)


def test_package_size_gate():
    lines, exports = package_size()
    assert lines <= SRC_LINES_MAX
    assert exports <= EXPORTS_MAX
