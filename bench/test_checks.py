"""The benchmark's checks pass real results and catch a 1e-6 relative error.

    python3 -m pytest bench/test_checks.py

For each workload, a few operations run for real and must pass their check;
then one quantity of a result is scaled by 1 + 1e-6 and the check must fail,
with every attempt of that operation counted as failed.
"""

import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import zemgame as zg  # noqa: E402
import zemgame.cli  # noqa: E402,F401

import run  # noqa: E402
import workloads  # noqa: E402

SCALE = 1.0 + 1e-6
SEED = 7


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def results(request, tmp_path_factory):
    """(workload, bundle, {key: result}) for a few operations of one round."""
    setup = workloads.WORKLOADS[request.param][0]
    bundle = setup(zg, ROOT, SEED, tmp_path_factory.mktemp(request.param))
    ops = bundle.ops if request.param == "scenarios" else bundle.ops[:2]
    return request.param, bundle, {key: op() for key, op in ops}


def _scale_number(text: str, label: str) -> str:
    """Scale the number printed on the `label` row of `zemgame solve`."""
    def repl(m):
        return m.group(1) + "%.12g" % (float(m.group(2)) * SCALE)
    out, n = re.subn(r"^(%s\s+)(\S+)" % label, repl, text, flags=re.M)
    assert n == 1
    return out


def _perturbations(workload: str, result):
    """(what, perturbed copy) pairs, one per checked quantity."""
    if workload == "scenarios":
        for label in ("value", "z_f", "w_f"):
            yield label, _scale_number(result, label)
    elif workload == "positions":
        first_of_each_region = {row[0]: i for i, row in reversed(list(enumerate(result)))}
        for field, name in ((1, "margin"), (3, "value"), (4, "z_f"), (5, "w_f")):
            for i in first_of_each_region.values():
                row = list(result[i])
                row[field] *= SCALE
                yield "%s of position %d" % (name, i), result[:i] + (tuple(row),) + result[i + 1:]
    else:
        for key in ("full_z_f", "reduced_z_f", "reduced_w_f", "off_grid"):
            yield key, dict(result, **{key: result[key] * SCALE})
        cell = next(iter(result["table"]))
        yield "cross-play entry", dict(result, table={**result["table"],
                                                      cell: result["table"][cell] * SCALE})
        records = list(result["sweeps"][1])
        eps, value, w_f, omega = records[-1]
        records[-1] = (eps, value * SCALE, w_f, omega)
        yield "penalized value", dict(result, sweeps={**result["sweeps"], 1: tuple(records)})


def _counted(check, key, result, repeats=2):
    loop = run.Loop()
    loop.first, loop.repeats = {key: result}, {key: repeats}
    return run.count_failures([loop], check)


def test_correct_results_pass(results):
    _, bundle, got = results
    for key, result in got.items():
        assert bundle.check(key, result) == [], key
        assert _counted(bundle.check, key, result)[:2] == (0, 0)


def test_perturbed_results_fail_and_count(results):
    workload, bundle, got = results
    checked = 0
    for key, result in got.items():
        for what, perturbed in _perturbations(workload, result):
            if perturbed == result:  # an exact zero, such as w_f when t_c = 0
                continue
            assert bundle.check(key, perturbed), "%s: %s scaled by 1 + 1e-6 passed" % (key, what)
            failed, wrong, _ = _counted(bundle.check, key, perturbed, repeats=2)
            assert failed == wrong == 3
            checked += 1
    assert checked >= 6


def test_raising_operation_counts_as_failed_not_wrong(results):
    _, bundle, got = results
    key = next(iter(got))
    assert _counted(bundle.check, key, ("raised", "RuntimeError('exit 4')"))[:2] == (3, 0)
