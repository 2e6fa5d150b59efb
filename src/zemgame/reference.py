"""The first-order study: its setup, its printed values, and their checks.

`CHECKS` has one row per checked value, in the order `zemgame repro` prints
them; for the study's two misprints the printed value sits beside the
corrected target. `evaluate` computes every row's value from the model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .engagement import EngagementScenario, first_order_scenario
from .errors import ScenarioFormatError
from .numerics import TimeGrid
from .reduction import AffineInTime, Constant, Kernels, coefficients, integral_g_e
from .simulate import cross_play, evaluate_cost, playout_reduced
from .solver import g_bar, penalty_sweep, solve_erg_branch, solve_urg

# In the keyword order of `first_order_coefficients`.
STUDY = dict(tau_p=0.2, tau_e=0.1, t_f=1.0, t_c=0.9, alpha=0.05, beta=0.3, ae_max=100.0)
POSITION = (100.0, -100.0)        # the branch rows, in OmegaMinus
STRIP_POSITION = (100.0, -50.0)   # unconstrained play, in Omega
PLUS_POSITION = (100.0, 50.0)     # Table 1, in OmegaPlus
MINUS_POSITION = (-100.0, -20.0)  # Table 1, in OmegaMinus


def study_scenario() -> EngagementScenario:
    return first_order_scenario(**STUDY, z0=POSITION[0], w0=POSITION[1])


@dataclass(frozen=True)
class Check:
    name: str
    target: float
    tol: float
    mode: str  # "abs", "rel" (times |target|) or "flag" (never scaled)
    formula: str
    criterion: int  # the acceptance criterion the row belongs to
    printed: float | None = None  # the study's misprint that target corrects

    @property
    def label(self) -> str:  # the formula, with the misprint in its %g
        return self.formula if self.printed is None else self.formula % self.printed

    def width(self, tol_scale: float = 1.0) -> float:
        if self.mode == "flag":
            return self.tol
        return self.tol * tol_scale * (abs(self.target) if self.mode == "rel" else 1.0)

    def passed(self, value: float, tol_scale: float = 1.0) -> bool:
        return abs(value - self.target) <= self.width(tol_scale)


CHECKS = {c.name: c for c in (
    Check("beta_star", 0.2438, 1e-4, "abs", "beta_star = int h_e^2 dt", 1),
    Check("mu_e", 0.325, 5e-4, "abs", "mu_e = int |g_e| dt over the tail", 2),
    Check("bound", 32.5, 0.05, "abs", "bound = mu_e*ae_max", 2),
    Check("G[0,0]", 3.72, 0.01, "abs", "G = [[s, G2], [-G2, G3]]", 3),
    Check("G_bar[0,0]", 0.23, 0.005, "abs", "G_bar = (G^-1)' diag(1,-1)", 3),
    Check("G[0,1]", 2.04, 0.01, "abs", "G = [[s, G2], [-G2, G3]]", 3),
    Check("G_bar[0,1]", -0.08, 0.005, "abs", "G_bar = (G^-1)' diag(1,-1)", 3),
    Check("G[1,0]", -2.04, 0.01, "abs", "G = [[s, G2], [-G2, G3]]", 3),
    Check("G_bar[1,0]", -0.08, 0.005, "abs", "G_bar = (G^-1)' diag(1,-1)", 3),
    Check("G[1,1]", 5.91, 0.01, "abs", "G = [[s, G2], [-G2, G3]]", 3),
    Check("G_bar[1,1]", -0.14, 0.005, "abs", "G_bar = (G^-1)' diag(1,-1)", 3),
    Check("z_f+", 32.92, 0.05, "abs", "omega_f+ = G^-1 b+", 4),
    Check("v_f+", -11.05, 0.05, "abs", "omega_f+ = G^-1 b+", 4),
    Check("z_f-", 27.85, 0.05, "abs", "omega_f- = G^-1 b-", 4),
    Check("v_f-", -1.80, 0.05, "abs", "omega_f- = G^-1 b-", 4),
    Check("J+*", 1821.6, 0.01, "rel", "J+* = omega_f+' diag(1,-1) G omega_f+", 5),
    Check("J-*", 2659.1, 0.01, "rel", "J-* = omega_f-' diag(1,-1) G omega_f-", 5),
    Check("w_f+ playout", 32.5, 0.01, "abs", "dw = g_e u_e integrated", 6),
    Check("z_f+ playout", 32.92, 0.05, "abs", "dz = h_p u_p + h_e u_e integrated", 6),
    Check("w_f- playout", -32.5, 0.01, "abs", "dw = g_e u_e integrated", 6),
    Check("z_f- playout", 27.85, 0.05, "abs", "dz = h_p u_p + h_e u_e integrated", 6),
    Check("ue_bar+", 101.92, 0.05, "abs", "ue_bar = (bound - w0)/int g_e", 7),
    Check("J(u_p+, ue_bar+)", 1358.4, 0.01, "rel", "cost of (u_p+, constant)", 7),
    Check("J(ramp, u_e+)", 2369.3, 0.01, "rel", "cost of (400(t_f - t), u_e+)", 7),
    Check("T1+ (+,+)", 1939.2, 0.01, "rel", "cross-play cost", 8),
    Check("T1+ (+,-)", 418.8, 0.01, "rel", "cross-play cost", 8),
    Check("T1+ (-,+)", 2347.7, 0.01, "rel", "cross-play cost", 8),
    Check("T1- (-,+)", 1463.1, 0.01, "rel", "cross-play cost", 8),
    Check("T1- (+,-)", 2836.7, 0.01, "rel", "cross-play cost", 8),
    # The study prints 2488.2 here; with its printed G_bar and J+-* only
    # 2431.1 is consistent, so the row checks the corrected value.
    Check("T1- (-,-)", 2431.1, 0.01, "rel", "cross-play cost; erratum, printed %g", 8, 2488.2),
    Check("T1 orderings", 1.0, 0.5, "flag", "strict saddle orderings", 8),
    # The printed 4.895 and -45.105 both encode a*z0 = 54.895; the band goes
    # on that displacement rather than on its difference with w0 = -50.
    Check("w_f-w0 URG (100,-50)", 54.895, 0.01, "rel", "w_f - w0 = a*z0; printed w_f %g", 9,
          4.895),
    Check("w_f URG (100,-100)", -45.105, 0.01, "rel", "w_f = w0 + a*z0", 9),
    Check("sweep+ order", 1.0, 0.1, "abs", "log-log slope of |omega_eps - omega_f|", 10),
    Check("sweep+ monotone", 1.0, 0.5, "flag", "gap decreases with eps", 10),
    Check("sweep+ value gap", 0.0, 1e-3, "abs", "penalized value vs branch value at eps=1e-6", 10),
    Check("sweep- order", 1.0, 0.1, "abs", "log-log slope of |omega_eps - omega_f|", 10),
    Check("sweep- monotone", 1.0, 0.5, "flag", "gap decreases with eps", 10),
    Check("sweep- value gap", 0.0, 1e-3, "abs", "penalized value vs branch value at eps=1e-6", 10),
)}


def cross_table(scenario: EngagementScenario, kern, coeffs, z0: float, w0: float):
    """Costs (`CostBreakdown`) of the two branch control pairs crossed at
    one position, keyed by (pursuer branch, evader branch)."""
    positioned = replace(scenario, z0=z0, w0=w0, geometry=None)
    branch = {"+": solve_erg_branch(coeffs, z0, w0, 1), "-": solve_erg_branch(coeffs, z0, w0, -1)}
    return {(sp, se): cross_play(positioned, branch[sp].u_p, branch[se].u_e, kern)
            for sp in "+-" for se in "+-"}


# Neighbouring cross-table entries tie within rounding when their totals differ by at
# most this many eps of both entries' terms (terminal plus both efforts): as ae_max -> 0
# the gaps of the 172 `scenarios` table documents (seeds 1-5) spread over +-0.56 eps.
TIE_EPS = 4.0


def saddle_orderings(t_plus: dict, t_minus: dict) -> tuple[bool, bool]:
    """Whether each cross table orders its entries as a saddle point must. A
    table two of whose neighbours in that order tie within rounding
    (`TIE_EPS`) shows no ordering, and is refused as a ScenarioFormatError."""
    ordered = []
    for table, keys in ((t_plus, (("+", "-"), ("+", "+"), ("-", "+"))),
                        (t_minus, (("-", "+"), ("-", "-"), ("+", "-")))):
        costs = [table[key] for key in keys]
        for low, high, a, b in zip(keys, keys[1:], costs, costs[1:]):
            terms = sum(c.terminal + c.pursuer_effort + c.evader_effort for c in (a, b))
            if abs(b.total - a.total) <= TIE_EPS * np.finfo(float).eps * terms:
                raise ScenarioFormatError(
                    "cross-play entries (u_p%s, u_e%s) and (u_p%s, u_e%s) tie within rounding: J "
                    "differ by %.3g, of terms summing to %.6g, so the table shows no saddle "
                    "ordering" % (*low, *high, b.total - a.total, terms))
        ordered.append(costs[0].total < costs[1].total < costs[2].total)
    return ordered[0], ordered[1]


def evaluate() -> dict[str, float]:
    """The model's value of every row of `CHECKS`, by row name."""
    scenario = study_scenario()
    kern = Kernels(scenario)
    coeffs = coefficients(scenario, kern)
    grid = TimeGrid(0.0, scenario.t_f)
    z0, w0 = POSITION
    values = {"beta_star": coeffs.beta_star, "mu_e": coeffs.mu_e, "bound": coeffs.bound}
    b00, b01, b11 = g_bar(coeffs)
    for name, entries in (("G", (coeffs.s, coeffs.G2, -coeffs.G2, coeffs.G3)),
                          ("G_bar", (b00, b01, b01, b11))):
        values.update(("%s[%d,%d]" % (name, i // 2, i % 2), x) for i, x in enumerate(entries))

    branches = {tag: solve_erg_branch(coeffs, z0, w0, sign) for tag, sign in (("+", 1), ("-", -1))}
    for tag, branch in branches.items():
        values["z_f" + tag], values["v_f" + tag] = branch.z_f, branch.v_f
        values["J%s*" % tag] = branch.value
        play = playout_reduced(scenario, kern, branch.u_p, branch.u_e, grid)
        values["w_f%s playout" % tag], values["z_f%s playout" % tag] = play.w_f, play.z_f

    plus = branches["+"]
    values["ue_bar+"] = ue_bar = (coeffs.bound - w0) / integral_g_e(scenario)
    values["J(u_p+, ue_bar+)"] = evaluate_cost(
        scenario, kern, plus.u_p, Constant(ue_bar), grid).total
    ramp = AffineInTime(slope=-400.0, intercept=400.0 * scenario.t_f)
    values["J(ramp, u_e+)"] = evaluate_cost(scenario, kern, ramp, plus.u_e, grid).total

    tables = {tag: cross_table(scenario, kern, coeffs, *position)
              for tag, position in (("+", PLUS_POSITION), ("-", MINUS_POSITION))}
    for tag, table in tables.items():
        for (sp, se), cost in table.items():
            values["T1%s (%s,%s)" % (tag, sp, se)] = cost.total
    values["T1 orderings"] = 1.0 if all(saddle_orderings(tables["+"], tables["-"])) else 0.0

    # Unconstrained play from two positions: w_f - w0 = a*z0 at both.
    u_p, u_e, _, _ = solve_urg(coeffs, z0)
    strip = replace(scenario, z0=STRIP_POSITION[0], w0=STRIP_POSITION[1])
    values["w_f-w0 URG (100,-50)"] = playout_reduced(strip, kern, u_p, u_e, grid).w_f - strip.w0
    values["w_f URG (100,-100)"] = playout_reduced(scenario, kern, u_p, u_e, grid).w_f

    for sign, tag in ((1, "+"), (-1, "-")):
        records = penalty_sweep(coeffs, z0, w0, sign)
        omega_f = (branches[tag].z_f, branches[tag].v_f)
        gaps = np.array([np.linalg.norm(r.omega_eps - omega_f) for r in records])
        values["sweep%s order" % tag] = \
            np.polyfit(np.log([r.eps for r in records]), np.log(gaps), 1)[0]
        values["sweep%s monotone" % tag] = 1.0 if (np.diff(gaps) < 0).all() else 0.0
        values["sweep%s value gap" % tag] = records[-1].value / branches[tag].value - 1.0
    return {name: float(values[name]) for name in CHECKS}
