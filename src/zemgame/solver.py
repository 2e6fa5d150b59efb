"""Open-loop saddle-point solutions of the reduced game.

The plane of initial positions (z0, w0) splits into an open strip Omega,
where the unconstrained game already satisfies the terminal constraint, and
two closed half-planes OmegaPlus / OmegaMinus, where the constraint binds at
its upper or lower bound. Each regime has an explicit solution driven by
2x2 linear solves against the coefficient matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .engagement import EngagementScenario
from .errors import AssertionFailure, NearSingularError, NonFiniteResult, NotInConstrainedRegion
from .numerics import solve2_entries
from .reduction import (
    ControlLaw,
    GameCoefficients,
    KernelCombo,
    coefficients as build_coefficients,
)


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


@dataclass(frozen=True)
class SaddleSolution:
    """Open-loop saddle point in any region: the two kernel laws, their
    value, and the terminal pair omega_f = (z_f, v_f) with the terminal
    w_f. v_f is the multiplier of the terminal constraint: the second entry
    of G^-1 b on a branch, and 0.0 in the strip, where the constraint does
    not bind."""

    region: Region
    u_p: ControlLaw
    u_e: ControlLaw
    value: float
    z_f: float
    w_f: float
    v_f: float = 0.0


class PenaltyRecord(NamedTuple):
    """Penalized saddle point for one eps: omega_eps = (z_f, v_f) and the
    terminal w_f = sign*bound + eps*v_f it implies. Compared and hashed by
    identity, as omega_eps is an array."""

    eps: float
    omega_eps: np.ndarray
    u_p: ControlLaw
    u_e: ControlLaw
    value: float
    z_f: float
    w_f: float
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def _shift(sign: int, bound: float) -> float:
    """gamma_1 = -sign*bound of the branch pinned at w_f = sign*bound
    (gamma = (0, gamma_1))."""
    if sign not in (1, -1):
        raise ValueError("branch sign must be +1 or -1")
    return -sign * bound


def _require_finite(values: tuple, what: str, *args) -> None:
    """Refuse finite input whose result `what % args` overflowed the float range."""
    if not all(map(math.isfinite, values)):
        raise NonFiniteResult("%s is not finite: the position, bound or weights "
                              "overflow the float range" % (what % args))


def _position_form(coeffs: GameCoefficients, z0: float, w0: float, shift: float) -> float:
    """chi0' G_bar chi0 + 2 chi0' G_bar gamma for chi0 = (z0, w0) and
    gamma = (0, shift), on Python floats in the order of those products."""
    b00, b01, b11 = coeffs.G3 / coeffs.det_G, -coeffs.G2 / coeffs.det_G, -coeffs.G1 / coeffs.det_G
    c0, c1 = z0 * b00 + w0 * b01, z0 * b01 + w0 * b11
    return c0 * z0 + c1 * w0 + 2.0 * (c1 * shift)


def _branch_laws(coeffs: GameCoefficients,
                 omega: tuple[float, float]) -> tuple[KernelCombo, KernelCombo]:
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


def solve_urg(coeffs: GameCoefficients,
              z0: float) -> tuple[KernelCombo, KernelCombo, float, float]:
    """Unconstrained saddle point as the `SaddleSolution` fields u_p, u_e,
    value and z_f: both controls proportional to their own kernel, terminal
    miss z_f = z0/s.

    The value is the cost of the pair from the exact integrals
    int h_p^2 = alpha nu_p and int h_e^2 = beta nu_e, cross-checked against
    z0^2/s to 1e-12 of its summed terms z0^2 (1 + nu_p + nu_e)/s^2, so that
    rounding near the solvability threshold (small s) does not fire it.
    """
    scale = z0 / (coeffs.alpha * coeffs.s)
    u_p = KernelCombo(hp_coef=-scale)
    u_e = KernelCombo(he_coef=z0 / (coeffs.beta * coeffs.s))
    z_f = z0 / coeffs.s

    try:
        pursuer = coeffs.alpha * scale ** 2 * (coeffs.alpha * coeffs.nu_p)
        evader = coeffs.beta * u_e.he_coef ** 2 * (coeffs.beta * coeffs.nu_e)
    except OverflowError:  # a float square past the range
        pursuer = evader = math.inf
    value = z_f * z_f + pursuer - evader
    closed = z0 * z0 / coeffs.s
    _require_finite((value, closed), "the unconstrained value")
    if abs(value - closed) > 1e-12 * max(1.0, z_f * z_f + pursuer + evader):
        raise AssertionFailure(
            "unconstrained value %g disagrees with closed form %g" % (value, closed)
        )
    return u_p, u_e, value, z_f


def solve_erg_branch(coeffs: GameCoefficients, z0: float, w0: float, sign: int) -> SaddleSolution:
    """Equality-constrained branch saddle point, terminal w pinned at
    sign*bound: omega_f = (z_f, v_f) = G^-1 b, with the value computed both
    as omega' G_tilde omega and as the quadratic form in the initial
    position; the two must agree to 1e-9 relative. Both are formed on
    Python floats, in the order of the matrix products. The region is the
    branch's half-plane with the margin `classify` gives there, so
    sign*margin < 0 marks a branch forced against the dispatch."""
    shift = _shift(sign, coeffs.bound)
    G1, G2, G3 = coeffs.G1, coeffs.G2, coeffs.G3
    z_f, v_f = solve2_entries(G1, G2, -G2, G3, z0, w0 + shift)
    value = (z_f * G1 + v_f * G2) * z_f + (z_f * G2 - v_f * G3) * v_f
    value_chi = _position_form(coeffs, z0, w0, shift) + shift * (-G1 / coeffs.det_G) * shift
    _require_finite((z_f, v_f, value, value_chi), "the branch value")
    if abs(value - value_chi) > 1e-9 * max(1.0, abs(value)):
        raise AssertionFailure(
            "branch value forms disagree: %r vs %r" % (value, value_chi)
        )
    u_p, u_e = _branch_laws(coeffs, (z_f, v_f))
    label = RegionLabel.OMEGA_PLUS if sign == 1 else RegionLabel.OMEGA_MINUS
    return SaddleSolution(Region(label, w0 + coeffs.a * z0 + shift), u_p, u_e, value,
                          z_f, sign * coeffs.bound, v_f)


def aux_cross(coeffs: GameCoefficients, z0: float, w0: float,
              pursuer_sign: int) -> tuple[KernelCombo, float]:
    """Fix the pursuer on one branch's optimal control and let the evader
    optimally reach the opposite terminal sign.

    Returns the evader reply u_e_star = (omega1_0 h_e - omega1_1 g_e)/beta,
    omega1 = F^-1 mu, and J_cross, the full cost of the mixed pair as a
    quadratic form in the initial position, on Python floats.
    """
    bound = coeffs.bound
    G1, G2, G3 = coeffs.G1, coeffs.G2, coeffs.G3
    z_fix, _ = solve2_entries(G1, G2, -G2, G3, z0, w0 + _shift(pursuer_sign, bound))
    other = _shift(-pursuer_sign, bound)
    omega1 = solve2_entries(1.0 - coeffs.nu_e, G2, -G2, G3,
                            z0 - coeffs.nu_p * z_fix, w0 + other)
    u_e_star = KernelCombo(he_coef=omega1[0] / coeffs.beta,
                           ge_coef=-omega1[1] / coeffs.beta)
    rho = bound * bound * (3.0 * coeffs.nu_p * G2 ** 2
                           - (G1 - coeffs.nu_p) * coeffs.det_G) \
        / (coeffs.det_G * coeffs.det_F)
    J_cross = _position_form(coeffs, z0, w0, other) + rho
    _require_finite((J_cross,), "the cross-play value")
    return u_e_star, J_cross


def solve_erg(coeffs: GameCoefficients, z0: float, w0: float, region: Region) -> SaddleSolution:
    """Saddle point of the equality-constrained game outside the strip.

    Takes the branch of `region`, the half-plane test on w0 + a z0 that
    `classify` made at (z0, w0), and cross-checks it against the
    fixed-pursuer inequality; a disagreement beyond tolerance is an
    internal inconsistency.
    """
    if region.label is RegionLabel.OMEGA:
        raise NotInConstrainedRegion(
            "initial position (%g, %g) lies inside the unconstrained strip" % (z0, w0)
        )
    sign = 1 if region.label is RegionLabel.OMEGA_PLUS else -1
    branch = solve_erg_branch(coeffs, z0, w0, sign)

    _, J_cross = aux_cross(coeffs, z0, w0, sign)
    value_tol = 1e-8 * max(1.0, abs(branch.value), abs(J_cross))
    margin = (w0 + coeffs.a * z0) - sign * coeffs.d * coeffs.bound
    margin_tol = 1e-8 * max(1.0, coeffs.bound)
    inequality_holds = J_cross <= branch.value + value_tol
    margin_holds = sign * margin >= -margin_tol
    if inequality_holds != margin_holds:
        raise AssertionFailure(
            "branch selection tests disagree at (%g, %g): cost gap %g, margin %g"
            % (z0, w0, branch.value - J_cross, margin)
        )
    if not inequality_holds:
        raise AssertionFailure(
            "selected branch fails the fixed-pursuer inequality at (%g, %g)" % (z0, w0)
        )
    return branch


def solve_rg(scenario: EngagementScenario,
             coeffs: Optional[GameCoefficients] = None) -> SaddleSolution:
    """Complete open-loop saddle point of the reduced game.

    Dispatches on the region of (z0, w0): the unconstrained solution inside
    the strip, the matching equality branch outside.
    """
    if coeffs is None:
        coeffs = build_coefficients(scenario)
    z0, w0 = scenario.z0, scenario.w0
    region = classify(coeffs, z0, w0)
    if region.label is RegionLabel.OMEGA:
        w_f = w0 + coeffs.a * z0
        if abs(w_f) >= coeffs.bound:
            raise AssertionFailure(
                "interior dispatch with infeasible terminal %g" % w_f
            )
        return SaddleSolution(region, *solve_urg(coeffs, z0), w_f=w_f)
    return solve_erg(coeffs, z0, w0, region)


DEFAULT_EPS_SWEEP = tuple(10.0 ** (-k) for k in range(7))


def penalty_sweep(coeffs: GameCoefficients, z0: float, w0: float, sign: int,
                  eps_list: Optional[Sequence[float]] = None) -> list[PenaltyRecord]:
    """Solve the penalized game along a descending sequence of eps.

    For each eps, (G + diag(0, eps)) omega = b is solved on Python floats
    by the explicit 2x2 inverse (`solve2_entries`), and the value is
    omega' diag(1,-1) (G + diag(0, eps)) omega. Every eps is solved before
    any record is built, so NearSingularError names the first singular eps
    (as "system i" in a sweep of more than one) ahead of a non-finite
    record. The terminal w of the penalized solution sits at sign*bound +
    eps*v, so the records expose the approach to the constrained branch.
    """
    if eps_list is None:
        eps_list = DEFAULT_EPS_SWEEP
    eps_arr = [float(e) for e in eps_list]
    if not all(0.0 < e < math.inf for e in eps_arr):
        raise ValueError("eps values must be positive and finite")
    if any(later >= earlier for earlier, later in zip(eps_arr, eps_arr[1:])):
        raise ValueError("eps values must be strictly descending")
    (m00, m01), (m10, m11) = coeffs.G.tolist()
    b0, b1 = float(z0), float(w0 + _shift(sign, coeffs.bound))
    solved = []
    for i, e in enumerate(eps_arr):
        try:
            solved.append(solve2_entries(m00, m01, m10, m11 + e, b0, b1))
        except NearSingularError as err:
            raise (err if len(eps_arr) == 1 else
                   NearSingularError("%s (system %d)" % (err, i))) from None
    records = []
    for e, (z, v) in zip(eps_arr, solved):
        value = (z * m00 - v * m10) * z + (z * m01 - v * (m11 + e)) * v
        w_f = sign * coeffs.bound + e * v
        _require_finite((z, v, value, w_f), "the penalized value at eps = %g", e)
        u_p, u_e = _branch_laws(coeffs, (z, v))
        records.append(PenaltyRecord(eps=e, omega_eps=np.array([z, v]), u_p=u_p, u_e=u_e,
                                     value=value, z_f=z, w_f=w_f))
    return records
