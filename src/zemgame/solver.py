"""Open-loop saddle-point solutions of the reduced game.

The plane of initial positions (z0, w0) splits into an open strip Omega,
where the unconstrained game already satisfies the terminal constraint, and
two closed half-planes OmegaPlus / OmegaMinus, where the constraint binds at
its upper or lower bound. Each regime has an explicit solution driven by
2x2 linear solves against the coefficient matrices.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engagement import EngagementScenario
from .errors import AssertionFailure, NotInConstrainedRegion
from .numerics import TimeGrid, solve2
from .reduction import (
    ControlLaw,
    GameCoefficients,
    KernelCombo,
    Kernels,
    coefficients as build_coefficients,
)

_SIGN_FLIP = np.diag([1.0, -1.0])


class RegionLabel(str, Enum):
    OMEGA = "Omega"
    OMEGA_PLUS = "OmegaPlus"
    OMEGA_MINUS = "OmegaMinus"


@dataclass(frozen=True)
class Region:
    """Region of the initial-position plane, with the signed margin
    w0 + a z0 minus the relevant bound (for Omega, |w0 + a z0| - bound,
    negative inside the strip)."""

    label: RegionLabel
    margin: float


class UrgSolution(NamedTuple):
    u_p: ControlLaw
    u_e: ControlLaw
    z_f: float
    value: float


class UpgSolution(NamedTuple):
    omega_eps: np.ndarray
    u_p: ControlLaw
    u_e: ControlLaw
    value: float


@dataclass(frozen=True)
class BranchSolution:
    """Saddle point of one equality-constrained branch (terminal w pinned to
    +bound or -bound)."""

    sign: int
    b_vec: np.ndarray
    omega_f: np.ndarray
    u_p: ControlLaw
    u_e: ControlLaw
    value: float
    chi0: np.ndarray
    gamma: np.ndarray


@dataclass(frozen=True)
class AuxCrossSolution:
    """Best evader reply pinned to the opposite terminal sign while the
    pursuer plays one branch's optimal control."""

    pursuer_sign: int
    mu_vec: np.ndarray
    xi_vec: np.ndarray
    omega1: np.ndarray
    u_e_star: ControlLaw
    J_cross: float
    rho: float


@dataclass(frozen=True)
class SaddleSolution:
    region: Region
    u_p: ControlLaw
    u_e: ControlLaw
    value: float
    z_f: float
    w_f: float
    branch: Optional[BranchSolution] = None


class PenaltyRecord(NamedTuple):
    eps: float
    omega_eps: np.ndarray
    value: float
    z_f: float
    w_f: float


@dataclass(frozen=True)
class CaseIiiDiagnostic:
    """Interior-case feasibility data for the two auxiliary fixed-pursuer
    problems: the candidate terminal z and the terminal w it would imply,
    against the open interval (-bound, bound)."""

    z_bar_f1: float
    z_bar_f2: float
    w_interior_1: float
    w_interior_2: float
    bound: float
    inside_1: bool
    inside_2: bool


def _gamma(sign: int, bound: float) -> np.ndarray:
    if sign not in (1, -1):
        raise ValueError("branch sign must be +1 or -1")
    return np.array([0.0, -sign * bound])


def _branch_laws(coeffs: GameCoefficients, omega: np.ndarray) -> tuple[KernelCombo, KernelCombo]:
    z_f, v_f = omega
    u_p = KernelCombo(hp_coef=-z_f / coeffs.alpha)
    u_e = KernelCombo(he_coef=z_f / coeffs.beta, ge_coef=-v_f / coeffs.beta)
    return u_p, u_e


def classify(coeffs: GameCoefficients, z0: float, w0: float) -> Region:
    """Assign the initial position to Omega, OmegaPlus or OmegaMinus.

    Boundary points go to the closed half-planes; on the boundary the
    constrained and unconstrained solutions coincide, so the assignment is
    value-equivalent and deterministic.
    """
    m = w0 + coeffs.a * z0
    bound = coeffs.bound
    if m >= bound:
        return Region(RegionLabel.OMEGA_PLUS, m - bound)
    if m <= -bound:
        return Region(RegionLabel.OMEGA_MINUS, m + bound)
    return Region(RegionLabel.OMEGA, abs(m) - bound)


def solve_urg(coeffs: GameCoefficients, z0: float,
              grid: Optional[TimeGrid] = None) -> UrgSolution:
    """Unconstrained saddle point: both controls proportional to their own
    kernel, terminal miss z0/s.

    The value is obtained by numerically evaluating the cost of the optimal
    pair and cross-checked against the closed form z0^2/s.
    """
    from . import simulate

    scale = z0 / (coeffs.alpha * coeffs.s)
    u_p = KernelCombo(hp_coef=-scale)
    u_e = KernelCombo(he_coef=z0 / (coeffs.beta * coeffs.s))
    z_f = z0 / coeffs.s

    positioned = dataclasses.replace(coeffs.scenario, z0=z0, w0=0.0, geometry=None)
    value = simulate.evaluate_cost(positioned, coeffs.kernels, u_p, u_e, grid).total
    closed = z0 * z0 / coeffs.s
    if abs(value - closed) > 1e-6 * max(1.0, abs(closed)):
        raise AssertionFailure(
            "unconstrained value %g disagrees with closed form %g" % (value, closed)
        )
    return UrgSolution(u_p=u_p, u_e=u_e, z_f=z_f, value=value)


def solve_upg(coeffs: GameCoefficients, z0: float, w0: float, sign: int,
              eps: float) -> UpgSolution:
    """Penalized unconstrained game for one terminal sign and penalty 1/eps.

    Solves (G + diag(0, eps)) omega = b and returns the saddle controls and
    the value omega' diag(1,-1) (G + diag(0, eps)) omega.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gamma = _gamma(sign, coeffs.bound)
    b = np.array([z0, w0]) + gamma
    M = coeffs.G + np.diag([0.0, eps])
    omega = solve2(M, b)
    u_p, u_e = _branch_laws(coeffs, omega)
    value = float(omega @ (_SIGN_FLIP @ M) @ omega)
    return UpgSolution(omega_eps=omega, u_p=u_p, u_e=u_e, value=value)


def solve_erg_branch(coeffs: GameCoefficients, z0: float, w0: float, sign: int) -> BranchSolution:
    """Equality-constrained branch saddle point: omega_f = G^-1 b, with the
    value computed both as omega' G_tilde omega and as the quadratic form in
    the initial position; the two must agree to 1e-9 relative."""
    chi0 = np.array([z0, w0])
    gamma = _gamma(sign, coeffs.bound)
    b = chi0 + gamma
    omega = solve2(coeffs.G, b)
    u_p, u_e = _branch_laws(coeffs, omega)
    value = float(omega @ coeffs.G_tilde @ omega)
    Gb = coeffs.G_bar
    value_chi = float(chi0 @ Gb @ chi0 + 2.0 * chi0 @ Gb @ gamma + gamma @ Gb @ gamma)
    if abs(value - value_chi) > 1e-9 * max(1.0, abs(value)):
        raise AssertionFailure(
            "branch value forms disagree: %r vs %r" % (value, value_chi)
        )
    return BranchSolution(sign=sign, b_vec=b, omega_f=omega, u_p=u_p, u_e=u_e,
                          value=value, chi0=chi0, gamma=gamma)


def aux_cross(coeffs: GameCoefficients, z0: float, w0: float, pursuer_sign: int) -> AuxCrossSolution:
    """Fix the pursuer on one branch's optimal control and let the evader
    optimally reach the opposite terminal sign.

    Returns the solved terminal pair, the evader reply, and the full cost of
    the mixed pair as a quadratic form in the initial position.
    """
    chi0 = np.array([z0, w0])
    bound = coeffs.bound
    gamma_fix = _gamma(pursuer_sign, bound)
    gamma_other = _gamma(-pursuer_sign, bound)
    omega_fix = solve2(coeffs.G, chi0 + gamma_fix)
    xi = gamma_other - np.array([coeffs.nu_p * omega_fix[0], 0.0])
    mu = chi0 + xi
    omega1 = solve2(coeffs.F, mu)
    u_e_star = KernelCombo(he_coef=omega1[0] / coeffs.beta,
                           ge_coef=-omega1[1] / coeffs.beta)
    rho = bound * bound * (3.0 * coeffs.nu_p * coeffs.G2 ** 2
                           - (coeffs.G1 - coeffs.nu_p) * coeffs.det_G) \
        / (coeffs.det_G * coeffs.det_F)
    Gb = coeffs.G_bar
    J_cross = float(chi0 @ Gb @ chi0 + 2.0 * chi0 @ Gb @ gamma_other + rho)
    return AuxCrossSolution(pursuer_sign=pursuer_sign, mu_vec=mu, xi_vec=xi,
                            omega1=omega1, u_e_star=u_e_star, J_cross=J_cross,
                            rho=rho)


def solve_erg(coeffs: GameCoefficients, z0: float, w0: float) -> BranchSolution:
    """Saddle point of the equality-constrained game outside the strip.

    Picks the branch by the half-plane test on w0 + a z0 and cross-checks it
    against the fixed-pursuer inequality; a disagreement beyond tolerance is
    an internal inconsistency.
    """
    region = classify(coeffs, z0, w0)
    if region.label is RegionLabel.OMEGA:
        raise NotInConstrainedRegion(
            "initial position (%g, %g) lies inside the unconstrained strip" % (z0, w0)
        )
    sign = 1 if region.label is RegionLabel.OMEGA_PLUS else -1
    branch = solve_erg_branch(coeffs, z0, w0, sign)

    cross = aux_cross(coeffs, z0, w0, sign)
    value_tol = 1e-8 * max(1.0, abs(branch.value), abs(cross.J_cross))
    margin = (w0 + coeffs.a * z0) - sign * coeffs.d * coeffs.bound
    margin_tol = 1e-8 * max(1.0, coeffs.bound)
    inequality_holds = cross.J_cross <= branch.value + value_tol
    margin_holds = sign * margin >= -margin_tol
    if inequality_holds != margin_holds:
        raise AssertionFailure(
            "branch selection tests disagree at (%g, %g): cost gap %g, margin %g"
            % (z0, w0, branch.value - cross.J_cross, margin)
        )
    if not inequality_holds:
        raise AssertionFailure(
            "selected branch fails the fixed-pursuer inequality at (%g, %g)" % (z0, w0)
        )
    return branch


def solve_rg(scenario: EngagementScenario, kernels: Optional[Kernels] = None,
             coeffs: Optional[GameCoefficients] = None,
             grid: Optional[TimeGrid] = None) -> SaddleSolution:
    """Complete open-loop saddle point of the reduced game.

    Dispatches on the region of (z0, w0): the unconstrained solution inside
    the strip, the matching equality branch outside.
    """
    if coeffs is None:
        coeffs = build_coefficients(scenario, kernels)
    z0, w0 = scenario.z0, scenario.w0
    region = classify(coeffs, z0, w0)
    if region.label is RegionLabel.OMEGA:
        w_f = w0 + coeffs.a * z0
        if abs(w_f) >= coeffs.bound:
            raise AssertionFailure(
                "interior dispatch with infeasible terminal %g" % w_f
            )
        urg = solve_urg(coeffs, z0, grid)
        return SaddleSolution(region=region, u_p=urg.u_p, u_e=urg.u_e,
                              value=urg.value, z_f=urg.z_f, w_f=w_f)
    branch = solve_erg(coeffs, z0, w0)
    return SaddleSolution(region=region, u_p=branch.u_p, u_e=branch.u_e,
                          value=branch.value, z_f=float(branch.omega_f[0]),
                          w_f=branch.sign * coeffs.bound, branch=branch)


DEFAULT_EPS_SWEEP = tuple(10.0 ** (-k) for k in range(7))


def penalty_sweep(coeffs: GameCoefficients, z0: float, w0: float, sign: int,
                  eps_list: Optional[Sequence[float]] = None) -> list[PenaltyRecord]:
    """Solve the penalized game along a descending sequence of eps.

    The terminal w of the penalized solution sits at sign*bound + eps*v, so
    the records expose the approach to the constrained branch.
    """
    if eps_list is None:
        eps_list = DEFAULT_EPS_SWEEP
    eps_arr = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_arr):
        raise ValueError("eps values must be positive")
    if any(later >= earlier for earlier, later in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps values must be strictly descending")
    records = []
    for eps in eps_arr:
        sol = solve_upg(coeffs, z0, w0, sign, eps)
        z_f, v_f = sol.omega_eps
        w_f = sign * coeffs.bound + eps * v_f
        records.append(PenaltyRecord(eps=eps, omega_eps=sol.omega_eps,
                                     value=sol.value, z_f=float(z_f), w_f=float(w_f)))
    return records


def check_case_iii_infeasible(coeffs: GameCoefficients, z0: float, w0: float) -> CaseIiiDiagnostic:
    """Confirm that, outside the strip, neither fixed-pursuer auxiliary
    problem can settle strictly inside the terminal interval.

    Raises AssertionFailure if an interior candidate appears, which the
    solvable game forbids.
    """
    region = classify(coeffs, z0, w0)
    if region.label is RegionLabel.OMEGA:
        raise NotInConstrainedRegion(
            "case analysis applies only outside the unconstrained strip"
        )
    diag = case_iii_positions(coeffs, z0, w0)
    if diag.inside_1 or diag.inside_2:
        raise AssertionFailure(
            "interior terminal candidate found outside the strip at (%g, %g)" % (z0, w0)
        )
    return diag


def case_iii_positions(coeffs: GameCoefficients, z0: float, w0: float) -> CaseIiiDiagnostic:
    """Interior-case candidates for any initial position (no region guard)."""
    chi0 = np.array([z0, w0])
    bound = coeffs.bound
    one_minus_nu_e = 1.0 - coeffs.nu_e
    z_bars = []
    for sign in (1, -1):
        omega_fix = solve2(coeffs.G, chi0 + _gamma(sign, bound))
        z_bars.append((z0 - coeffs.nu_p * omega_fix[0]) / one_minus_nu_e)
    w1 = w0 + coeffs.G2 * z_bars[0]
    w2 = w0 + coeffs.G2 * z_bars[1]
    return CaseIiiDiagnostic(
        z_bar_f1=z_bars[0], z_bar_f2=z_bars[1],
        w_interior_1=w1, w_interior_2=w2, bound=bound,
        inside_1=bool(-bound < w1 < bound),
        inside_2=bool(-bound < w2 < bound),
    )
