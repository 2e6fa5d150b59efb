"""Open-loop saddle-point solver for a pursuit-evasion game with a terminal
constraint on the evader, reduced to two zero-effort-miss states."""

from .engagement import (
    ControllerModel,
    EngagementGeometry,
    EngagementScenario,
    first_order_scenario,
)
from .errors import (
    AssertionFailure,
    NearSingularError,
    NotInConstrainedRegion,
    ProbeFailure,
    ScenarioFormatError,
    SolvabilityError,
    ZemGameError,
)
from .numerics import TimeGrid
from .reduction import (
    AffineInTime,
    Constant,
    GameCoefficients,
    KernelCombo,
    Kernels,
    Sampled,
    coefficients,
)
from .simulate import (
    CostBreakdown,
    FullPlayout,
    Playout,
    ProbeReport,
    cross_play,
    evaluate_cost,
    playout_full,
    playout_reduced,
    saddle_probe,
)
from .solver import (
    PenaltyRecord,
    Region,
    RegionLabel,
    SaddleSolution,
    classify,
    penalty_sweep,
    solve_erg_branch,
    solve_rg,
)

__version__ = "0.1.0"
