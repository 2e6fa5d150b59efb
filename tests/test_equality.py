"""Every public record type of the package has a defined equality and hash.

A frozen dataclass compares its fields as a tuple, so a numpy array among
them makes `==` raise ("truth value of an array is ambiguous") and `hash`
raise (arrays are unhashable). Each record type therefore either compares
its scalars alone (arrays formed from them are left out of the comparison)
or compares by identity (`eq=False`, for types whose arrays are their data).
"""

import dataclasses
import functools
import inspect

import numpy as np
import pytest

import zemgame as z
from zemgame import cli, engagement, errors, numerics, reduction, reference, simulate, solver
from zemgame.cli import load_scenario

from helpers import MIXED_ORDERS, oscillator

MODULES = (cli, engagement, errors, numerics, reduction, reference, simulate, solver)
BRANCH = (100.0, 50.0)  # OmegaPlus of the study
STRIP = (100.0, -50.0)


def record_types():
    """The public dataclasses and named tuples defined in the package."""
    found = set()
    for module in MODULES:
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and (dataclasses.is_dataclass(obj) or hasattr(obj, "_fields"))):
                found.add(obj)
    return found


@functools.cache
def study():
    return reference.study_scenario()


@functools.cache
def study_kernels():
    return z.Kernels(study())


@functools.cache
def study_coeffs():
    return z.coefficients(study(), study_kernels())


def at(position):
    return dataclasses.replace(study(), z0=position[0], w0=position[1], geometry=None)


def bundle():
    return study_kernels().bundle()


# type -> (builder, whether two builds from the same inputs compare equal)
CASES = {
    "TimeGrid": (lambda: z.TimeGrid(0.0, 1.0, 11), True),
    "ControllerModel": (lambda: oscillator(10.0, 0.05), False),
    "StateSpace": (lambda: engagement.build_evader_ss(study().evader), False),
    "EngagementGeometry": (lambda: load_scenario(str(MIXED_ORDERS))[0].geometry, True),
    "EngagementScenario": (lambda: at(BRANCH), True),  # the same controller objects
    "KernelCombo": (lambda: z.KernelCombo(hp_coef=1.0, ge_coef=2.0), True),
    "Constant": (lambda: z.Constant(3.0), True),
    "AffineInTime": (lambda: z.AffineInTime(1.0, 2.0), True),
    "Sampled": (lambda: z.Sampled([0.0, 1.0], [2.0, 3.0]), False),
    "SampleBundle": (lambda: reduction.SampleBundle.sample(study_kernels(),
                                                           z.TimeGrid(0.0, 1.0, 11)), False),
    "KernelResponses": (lambda: reduction.KernelResponses.of(bundle()), False),
    "PeakScan": (lambda: reduction.PeakScan.of(np.eye(4, bundle().ts.size), bundle().ts), False),
    "LegendreProducts": (lambda: reduction.LegendreProducts.of(
        np.eye(4, bundle().ts.size), np.zeros((5, 7)), bundle()), False),
    "GameCoefficients": (lambda: z.coefficients(study()), True),
    "Region": (lambda: z.classify(z.coefficients(study()), *BRANCH), True),
    "SaddleSolution": (lambda: z.solve_rg(at(STRIP), study_coeffs()), True),
    "PenaltyRecord": (lambda: z.penalty_sweep(z.coefficients(study()), *BRANCH, 1)[0], False),
    "Playout": (lambda: z.playout_reduced(at(STRIP), study_kernels(), z.KernelCombo(hp_coef=1.0),
                                          z.Constant(0.0)), False),
    "CostBreakdown": (lambda: z.evaluate_cost(at(STRIP), study_kernels(),
                                              z.KernelCombo(hp_coef=1.0), z.Constant(0.0)), True),
    "FullPlayout": (lambda: z.playout_full(at(STRIP), z.KernelCombo(hp_coef=1.0),
                                           z.Constant(0.0), kernels=study_kernels()), False),
    "ProbeReport": (lambda: z.saddle_probe(at(STRIP), z.solve_rg(at(STRIP), study_coeffs()),
                                           n_trials=3, kernels=study_kernels()), True),
    "Check": (lambda: reference.CHECKS["mu_e"], True),
}


def test_every_record_type_has_a_case():
    assert sorted(t.__name__ for t in record_types()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_are_defined(name):
    build, equal = CASES[name]
    a, b = build(), build()
    assert type(a).__name__ == name
    assert (a == a) is True
    assert (a == b) is equal and (a != b) is not equal
    assert isinstance(hash(a), int)
    if equal:
        assert hash(a) == hash(b)


def test_branch_solutions_compare_by_value():
    """A dispatched and a forced solve of one branch are the same record."""
    a, b = z.solve_rg(at(BRANCH), study_coeffs()), z.solve_erg_branch(study_coeffs(), *BRANCH, 1)
    assert a.v_f != 0.0 and a == b and hash(a) == hash(b)


def test_coefficients_compare_their_scalars():
    a, b = z.coefficients(study()), z.coefficients(study())
    assert a == b and hash(a) == hash(b) and {a, b} == {a}
    assert a != dataclasses.replace(a, mu_e=2.0 * a.mu_e)
