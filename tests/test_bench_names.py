"""The names the benchmark harness reaches into zemgame for.

`bench/spans.py` wraps the callables listed in its `LAYERS` table, and
`bench/workloads.py` calls the package through `zg.<name>`. A name dropped
from the package would otherwise show up only as a failed traced benchmark
run; here it fails the test suite. `bench/` is read, never changed.
"""

import importlib.util
import re
from pathlib import Path

import pytest

import zemgame as z
import zemgame.cli  # noqa: F401  (the workloads reach it as zg.cli)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(layer, module, path)
           for layer, targets in _spans().LAYERS.items() for module, path in targets]


@pytest.mark.parametrize("layer, module, path", TARGETS,
                         ids=["%s:%s" % (m, p) for _, m, p in TARGETS])
def test_traced_name_resolves(layer, module, path):
    owner = importlib.import_module("zemgame.%s" % module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr]), "%s: %s.%s" % (layer, module, path)


def test_workload_names_exported():
    used = set()
    for name in ("workloads.py", "run.py"):
        used |= set(re.findall(r"\bzg\.([A-Za-z_]\w*)", (BENCH / name).read_text()))
    missing = sorted(name for name in used if not hasattr(z, name))
    assert not missing


def test_coefficients_takes_kernels_positionally(study_scenario):
    """The workloads pass the kernels they built as a second positional
    argument; `coefficients` takes K from them, with the same numbers."""
    kernels = z.Kernels(study_scenario)
    given = z.coefficients(study_scenario, kernels)
    built = z.coefficients(study_scenario)
    assert given.K is kernels.gram()
    assert given.K.tobytes() == built.K.tobytes()
    for name in ("s", "nu_p", "nu_e", "G2", "G3", "mu_e"):
        assert getattr(given, name) == getattr(built, name), name
