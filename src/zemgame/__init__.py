"""Open-loop saddle-point solver for a pursuit-evasion game with a terminal
constraint on the evader, reduced to two zero-effort-miss states."""

from .engagement import (
    ControllerModel,
    EngagementGeometry,
    EngagementScenario,
    build_evader_ss,
    build_game_ss,
    build_relative_ss,
    first_order_scenario,
    initial_zem,
    resolve_horizons,
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
from .numerics import TimeGrid, mat_exp, ode_playout, quad_adaptive, solve2
from .reduction import (
    AffineInTime,
    Constant,
    ControlLaw,
    GameCoefficients,
    KernelCombo,
    Kernels,
    Sampled,
    coefficients,
    mu_e,
    sample_control,
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
    aux_cross,
    classify,
    penalty_sweep,
    solve_erg,
    solve_erg_branch,
    solve_rg,
    solve_urg,
)

__version__ = "0.1.0"
