"""Source checks over the package modules and the tests, with the standard
library only, a check of the test configuration itself, and the README's
library example, run as it stands."""

import ast
import re
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "zemgame"
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
SRC_LINES_MAX = 2768
EXPORTS_MAX = 36


def package_size() -> tuple[int, int]:
    """(lines of every module of `src/zemgame`, names `__init__.py` imports)."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("*.py"))
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exports = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for a in node.names]
    return lines, len(exports)


def test_package_size_gate():
    lines, exports = package_size()
    assert lines <= SRC_LINES_MAX, "src/ has %d lines, over its limit of %d" % (
        lines, SRC_LINES_MAX)
    assert exports <= EXPORTS_MAX, "__init__.py exports %d names, over its limit of %d" % (
        exports, EXPORTS_MAX)


# The relative system, the evader block with its selector row and the two
# blocks stacked: `engagement` still defines them, but below it each
# player's own block (`build_player_ss`) is the one state layout.
OTHER_LAYOUTS = {"build_relative_ss", "build_evader_ss", "build_game_ss"}


def names_used(source: str) -> set[str]:
    """Every name a module reads, reaches as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(n for a in node.names for n in (a.name, a.asname) if n)
    return names


def test_one_state_layout_below_engagement():
    found = {path.name: sorted(names_used(path.read_text(encoding="utf-8")) & OTHER_LAYOUTS)
             for path in sorted(SRC.glob("*.py")) if path.name != "engagement.py"}
    assert {name: used for name, used in found.items() if used} == {}


def test_layout_name_detected():
    source = ("from .engagement import build_game_ss as stacked\n"
              "from . import engagement\n"
              "def f(e):\n    return engagement.build_relative_ss(e, e), build_evader_ss\n")
    assert names_used(source) & OTHER_LAYOUTS == OTHER_LAYOUTS


def assertion_raises(source: str) -> list[str]:
    """Where each `raise AssertionFailure` of a module stands, in source
    order: the qualified name of the function or class around it
    ("<module>" at the top level) and its line."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionFailure":
                    found.append("%s (line %d)" % (".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


# The only places a self-check may raise AssertionFailure: the one
# tolerance check, and the exact predicates, which compare with no
# tolerance. Every check with a tolerance calls `errors.check`.
ASSERTION_RAISES = {
    "errors.py": {"check"},
    "reduction.py": {"GameCoefficients.__post_init__"},  # the four sign invariants
    "solver.py": {"solve_rg"},  # the interior dispatch lands inside the strip
    "cli.py": {"cmd_table1"},  # the cross-play table's saddle ordering
}


def test_tolerance_checks_go_through_check():
    stray = ["%s: %s" % (path.name, where) for path in MODULES
             for where in assertion_raises(path.read_text(encoding="utf-8"))
             if where.split(" (")[0] not in ASSERTION_RAISES.get(path.name, ())]
    assert stray == []


def test_assertion_raise_detected():
    source = ("from .errors import AssertionFailure\n"
              "def solve(x):\n    if abs(x) > 1e-9:\n        raise AssertionFailure('x')\n"
              "class C:\n    def f(self):\n        raise AssertionFailure\n"
              "    def g(self):\n        raise ValueError('y')\n"
              "raise AssertionFailure('top')\n")
    assert assertion_raises(source) == ["solve (line 4)", "C.f (line 7)", "<module> (line 10)"]


def test_readme_library_example_runs():
    """The fenced python block under README's "Library example" runs
    against the package as it is: its names and call forms are the
    package's."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].passed


def test_failing_property_does_not_abort_the_run(pytester):
    """Under the repository's warning filters a failing Hypothesis property
    fails alone and the run goes on. Reporting it imports libcst, whose
    import warns from mypy_extensions; with that warning an error, pytest
    stopped with INTERNALERROR and ran no further test."""
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("test_property.py", "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
