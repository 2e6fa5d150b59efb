"""Exception types shared across the solver stack."""

from __future__ import annotations


class ZemGameError(Exception):
    """Base class for all library errors."""


class SolvabilityError(ZemGameError):
    """The evader effort weight does not exceed the squared-kernel integral.

    In that regime the reduced game has a conjugate point and no saddle
    point exists on any branch, so every solver entry point refuses to run.
    """

    def __init__(self, beta: float, threshold: float):
        self.beta = beta
        self.threshold = threshold
        super().__init__(
            "solvability condition violated: beta=%g does not exceed the "
            "integral of the squared evader kernel (%g)" % (beta, threshold)
        )


class NoControlAuthority(ZemGameError):
    """The evader cannot move its terminal miss w: its kernel g_e is zero,
    as for a controller with no input or no output, so the constrained
    systems F and G are singular and the scenario defines no game."""

    def __init__(self, int_ge2: float):
        self.int_ge2 = int_ge2
        super().__init__("the evader has no control authority over its terminal miss: "
                         "int g_e^2 = %g makes det F zero" % int_ge2)


class NearSingularError(ZemGameError):
    """A 2x2 system matrix has a determinant below the singularity threshold."""


class NonFiniteResult(ZemGameError, ValueError):
    """A result of finite inputs overflows the float range: the position,
    bound or weights are too large for the game's quadratic forms."""


class NotInConstrainedRegion(ZemGameError):
    """An equality-constrained solve was requested for an interior position."""


class ProbeFailure(ZemGameError):
    """A saddle-probe perturbation broke the saddle inequality.

    `trial` is the index of the first failing trial; `coefficients` are the
    8 Legendre coefficients that trial drew for the failing side, before
    scaling, as `standard_normal(8)` of its random stream returned them.
    """

    def __init__(self, message: str, trial: int | None = None, coefficients=None):
        super().__init__(message)
        self.trial = trial
        self.coefficients = coefficients


class AssertionFailure(ZemGameError):
    """An internal cross-check failed; the inputs are inconsistent or there is a bug."""


class ScenarioFormatError(ZemGameError):
    """A scenario document is malformed; the message names the offending key."""
