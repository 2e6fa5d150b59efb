import pytest
from hypothesis import settings

import zemgame as z
from zemgame import reference

# Every property test draws the same examples on every run, keeps no
# example database and has no deadline.
settings.register_profile("zemgame", deadline=None, derandomize=True, database=None)
settings.load_profile("zemgame")


@pytest.fixture(scope="session")
def study_scenario():
    """The first-order study at its branch position, `reference.POSITION`."""
    return reference.study_scenario()


@pytest.fixture(scope="session")
def study_kernels(study_scenario):
    return z.Kernels(study_scenario)


@pytest.fixture(scope="session")
def study_coeffs(study_scenario, study_kernels):
    return z.coefficients(study_scenario, study_kernels)


@pytest.fixture(scope="session")
def study_values():
    """The model's value of every reference row, computed once."""
    return reference.evaluate()
