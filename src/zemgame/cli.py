"""Command-line front end.

Verbs: classify | solve | sweep | table1 | repro. Scenario files are UTF-8
JSON in SI units; trajectories go to CSV with a fixed header and 12
significant digits so output is byte-for-byte reproducible.

Exit codes: 0 success, 1 usage or parse error, 2 solvability violation,
3 reproduction-check failure, 4 internal assertion.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .engagement import (
    ControllerModel,
    EngagementGeometry,
    EngagementScenario,
    first_order_scenario,
    initial_zem,
    resolve_horizons,
)
from .errors import (
    AssertionFailure,
    ProbeFailure,
    ScenarioFormatError,
    SolvabilityError,
    ZemGameError,
)
from .numerics import DEFAULT_GRID_NODES, TimeGrid
from .reduction import AffineInTime, Constant, Kernels, coefficients, integral_g_e
from .simulate import cross_play, evaluate_cost, playout_reduced, saddle_probe
from .solver import classify, penalty_sweep, solve_erg_branch, solve_rg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVABILITY = 2
EXIT_REPRO_FAIL = 3
EXIT_INTERNAL = 4

# Built-in first-order study scenario used when no file is given.
STUDY = dict(tau_p=0.2, tau_e=0.1, t_f=1.0, t_c=0.9, alpha=0.05, beta=0.3,
             ae_max=100.0, z0=100.0, w0=-100.0)
STUDY_PLUS_POSITION = (100.0, 50.0)
STUDY_MINUS_POSITION = (-100.0, -20.0)


@dataclass
class ResultRow:
    name: str
    value: float
    formula: str


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)

    def add(self, name: str, value: float, formula: str):
        self.rows.append(ResultRow(name, float(value), formula))

    def print(self, out=None):
        out = out if out is not None else sys.stdout
        width = max((len(r.name) for r in self.rows), default=0)
        for r in self.rows:
            out.write("%-*s  %- .12g    [%s]\n" % (width, r.name, r.value, r.formula))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _get(doc: dict, path: str, required: bool = True, default=None):
    node = doc
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ScenarioFormatError("missing key %r" % ".".join(walked))
            return default
        node = node[key]
    return node


def _number(doc: dict, path: str, required: bool = True, default=None) -> Optional[float]:
    value = _get(doc, path, required, default)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioFormatError("key %r must be a number" % path)
    if not np.isfinite(value):
        raise ScenarioFormatError("key %r must be finite" % path)
    return float(value)


def _parse_player(doc: dict, path: str) -> ControllerModel:
    node = _get(doc, path)
    if not isinstance(node, dict):
        raise ScenarioFormatError("key %r must be an object" % path)
    if "first_order_tau" in node:
        try:
            return ControllerModel.first_order(float(node["first_order_tau"]))
        except (ValueError, TypeError) as exc:
            raise ScenarioFormatError("invalid %s.first_order_tau: %s" % (path, exc))
    for key in ("A", "b", "c", "d"):
        if key not in node:
            raise ScenarioFormatError("missing key %r" % ("%s.%s" % (path, key)))
    A = np.asarray(node["A"], dtype=float)
    if A.size == 0:
        A = A.reshape(0, 0)
    order = A.shape[0]
    try:
        return ControllerModel(order=order, sys=A, inp=node["b"], out=node["c"],
                               feed=float(node["d"]))
    except (ValueError, TypeError) as exc:
        raise ScenarioFormatError("invalid controller under %r: %s" % (path, exc))


def load_scenario(path: str) -> tuple[EngagementScenario, dict]:
    """Parse a scenario file; returns the scenario and the raw document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioFormatError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError("%s is not valid JSON: line %d: %s"
                                  % (path, exc.lineno, exc.msg))
    return scenario_from_document(doc), doc


def scenario_from_document(doc: dict) -> EngagementScenario:
    pursuer = _parse_player(doc, "players.pursuer")
    evader = _parse_player(doc, "players.evader")
    t_f = _number(doc, "horizon.t_f")
    t_c = _number(doc, "horizon.t_c", required=False)
    nu = _number(doc, "horizon.nu", required=False)
    try:
        t_c = resolve_horizons(t_f, t_c, nu)
    except ValueError as exc:
        raise ScenarioFormatError("horizon: %s" % exc)
    alpha = _number(doc, "weights.alpha")
    beta = _number(doc, "weights.beta")
    ae_max = _number(doc, "evader_bound.ae_max")

    initial = _get(doc, "initial")
    if not isinstance(initial, dict):
        raise ScenarioFormatError("key 'initial' must be an object")
    geometry = None
    if "z0" in initial or "w0" in initial:
        if not ("z0" in initial and "w0" in initial):
            raise ScenarioFormatError("initial needs both z0 and w0")
        if any(k in initial for k in ("Vp", "Ve", "phi_p0", "phi_e0")):
            raise ScenarioFormatError("initial must use exactly one of (z0, w0) or geometry")
        z0 = _number(doc, "initial.z0")
        w0 = _number(doc, "initial.w0")
    else:
        values = {key: _number(doc, "initial.%s" % key)
                  for key in ("Vp", "Ve", "phi_p0", "phi_e0")}
        try:
            geometry = EngagementGeometry(**values)
        except ValueError as exc:
            raise ScenarioFormatError("initial: %s" % exc)
        z0, w0 = initial_zem(geometry, t_f, t_c)
    try:
        return EngagementScenario(pursuer=pursuer, evader=evader, t_f=t_f, t_c=t_c,
                                  alpha=alpha, beta=beta, ae_max=ae_max,
                                  z0=z0, w0=w0, geometry=geometry)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc))


def _study_scenario() -> EngagementScenario:
    return first_order_scenario(**STUDY)


def _scenario_or_study(path: Optional[str]) -> tuple[EngagementScenario, dict]:
    if path is None:
        return _study_scenario(), {}
    return load_scenario(path)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.12g" % v for v in row) + "\n")


def cmd_classify(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    coeffs = coefficients(scenario)
    region = classify(coeffs, scenario.z0, scenario.w0)
    table = ResultTable()
    table.add("a", coeffs.a, "a = G2/G1")
    table.add("bound", coeffs.bound, "bound = mu_e*ae_max")
    table.add("margin", region.margin, "w0 + a*z0 - nearest bound")
    print("region: %s" % region.label.value)
    table.print()
    if coeffs.constraint_degenerate:
        print("note: t_c = 0 collapses the terminal constraint to w(t_f) = 0")
    return EXIT_OK


def cmd_solve(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    coeffs = coefficients(scenario)
    grid = TimeGrid.uniform(0.0, scenario.t_f, args.grid)
    table = ResultTable()
    if args.sign is not None:
        sign = 1 if args.sign == "+" else -1
        branch = solve_erg_branch(coeffs, scenario.z0, scenario.w0, sign)
        u_p, u_e = branch.u_p, branch.u_e
        region_name = "forced branch %s" % args.sign
        table.add("value", branch.value, "J = omega_f' diag(1,-1) G omega_f")
        table.add("z_f", branch.omega_f[0], "omega_f = G^-1 b")
        table.add("v_f", branch.omega_f[1], "omega_f = G^-1 b")
        table.add("w_f", branch.sign * coeffs.bound, "w_f = sign*mu_e*ae_max")
    else:
        sol = solve_rg(scenario, coeffs)
        u_p, u_e = sol.u_p, sol.u_e
        region_name = sol.region.label.value
        table.add("value", sol.value, "J(u_p*, u_e*)")
        table.add("z_f", sol.z_f, "z_f = z0/s in Omega, else (G^-1 b)_1")
        table.add("w_f", sol.w_f, "w_f = w0 + a*z0 in Omega, else sign*mu_e*ae_max")
    print("region: %s" % region_name)
    table.add("u_p coef on h_p", u_p.hp_coef, "u_p = -(z_f/alpha) h_p")
    table.add("u_e coef on h_e", u_e.he_coef, "u_e = (z_f h_e - v_f g_e)/beta")
    table.add("u_e coef on g_e", u_e.ge_coef, "u_e = (z_f h_e - v_f g_e)/beta")
    table.print()
    probe = args.probe and args.sign is None
    if args.csv or probe:
        kern = Kernels(scenario, grid)
    if args.csv:
        play = playout_reduced(scenario, kern, u_p, u_e, grid)
        _write_csv(args.csv, ("t", "u_p", "u_e", "z", "w"),
                   zip(grid.nodes, play.up_samples, play.ue_samples,
                       play.z_traj, play.w_traj))
        print("trajectory written to %s" % args.csv)
    if probe:
        report = saddle_probe(scenario, sol, n_trials=args.probe, seed=args.seed,
                              kernels=kern, grid=grid)
        print("saddle probe: %d trials OK, worst margins evader %.3g pursuer %.3g"
              % (report.n_trials, report.evader_worst, report.pursuer_worst))
    elif args.probe:
        print("saddle probe skipped: only dispatched solutions are probed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    coeffs = coefficients(scenario)
    sign = 1 if args.sign == "+" else -1
    if args.eps_steps < 2:
        raise _UsageError("--eps-steps must be at least 2")
    eps_list = np.geomspace(args.eps_from, args.eps_to, args.eps_steps)
    records = penalty_sweep(coeffs, scenario.z0, scenario.w0, sign, eps_list)
    branch = solve_erg_branch(coeffs, scenario.z0, scenario.w0, sign)
    rows = [
        (r.eps, r.z_f, float(r.omega_eps[1]), r.value,
         float(np.linalg.norm(r.omega_eps - branch.omega_f)))
        for r in records
    ]
    header = ("eps", "z_f_eps", "v_f_eps", "value", "omega_gap")
    if args.csv:
        _write_csv(args.csv, header, rows)
        print("sweep written to %s" % args.csv)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join("%.12g" % v for v in row))
    return EXIT_OK


def _table1_positions(doc: dict) -> tuple[tuple[float, float], tuple[float, float]]:
    node = doc.get("table1") if isinstance(doc, dict) else None
    if node is None:
        return STUDY_PLUS_POSITION, STUDY_MINUS_POSITION
    try:
        plus = tuple(float(v) for v in node["plus"])
        minus = tuple(float(v) for v in node["minus"])
        if len(plus) != 2 or len(minus) != 2:
            raise ValueError
    except (KeyError, TypeError, ValueError):
        raise ScenarioFormatError("key 'table1' must hold 'plus' and 'minus' [z, w] pairs")
    return plus, minus


def _cross_table(scenario: EngagementScenario, kern, coeffs, z0: float, w0: float):
    """Six-way cross of the two branch control pairs at one position."""
    positioned = dataclasses.replace(scenario, z0=z0, w0=w0, geometry=None)
    plus = solve_erg_branch(coeffs, z0, w0, 1)
    minus = solve_erg_branch(coeffs, z0, w0, -1)
    pair = lambda up, ue: cross_play(positioned, up, ue, kern).total
    return {
        ("+", "+"): pair(plus.u_p, plus.u_e),
        ("-", "-"): pair(minus.u_p, minus.u_e),
        ("+", "-"): pair(plus.u_p, minus.u_e),
        ("-", "+"): pair(minus.u_p, plus.u_e),
    }


def cmd_table1(args) -> int:
    scenario, doc = _scenario_or_study(args.scenario)
    pos_plus, pos_minus = _table1_positions(doc)
    kern = Kernels(scenario)
    coeffs = coefficients(scenario)

    t_plus = _cross_table(scenario, kern, coeffs, *pos_plus)
    t_minus = _cross_table(scenario, kern, coeffs, *pos_minus)
    print("position (%g, %g) in OmegaPlus   position (%g, %g) in OmegaMinus"
          % (*pos_plus, *pos_minus))
    print("%-14s %-10s   %-14s %-10s" % ("controls", "J", "controls", "J"))
    layout = [(("+", "+"), ("-", "-")), (("+", "-"), ("-", "+")), (("-", "+"), ("+", "-"))]
    for left, right in layout:
        print("(u_p%s, u_e%s)   %-10.1f   (u_p%s, u_e%s)   %-10.1f"
              % (left[0], left[1], t_plus[left], right[0], right[1], t_minus[right]))
    ok_plus = t_plus[("+", "-")] < t_plus[("+", "+")] < t_plus[("-", "+")]
    ok_minus = t_minus[("-", "+")] < t_minus[("-", "-")] < t_minus[("+", "-")]
    print("saddle ordering: %s / %s"
          % ("OK" if ok_plus else "VIOLATED", "OK" if ok_minus else "VIOLATED"))
    if not (ok_plus and ok_minus):
        raise AssertionFailure("saddle ordering violated in cross-play table")
    return EXIT_OK


@dataclass
class _Check:
    name: str
    value: float
    target: float
    tol: float
    formula: str

    def passed(self) -> bool:
        return abs(self.value - self.target) <= self.tol


def _repro_checks(tol_scale: float) -> list[_Check]:
    scenario = _study_scenario()
    kern = Kernels(scenario)
    coeffs = coefficients(scenario)
    grid = TimeGrid.uniform(0.0, scenario.t_f)
    checks: list[_Check] = []

    def add(name, value, target, tol, formula, rel=False):
        width = tol * tol_scale * (abs(target) if rel else 1.0)
        checks.append(_Check(name, float(value), target, width, formula))

    add("beta_star", coeffs.beta_star, 0.2438, 1e-4, "beta_star = int h_e^2 dt")
    add("mu_e", coeffs.mu_e, 0.325, 5e-4, "mu_e = int |g_e| dt over the tail")
    add("bound", coeffs.bound, 32.5, 0.05, "bound = mu_e*ae_max")

    g_target = ((3.72, 2.04), (-2.04, 5.91))
    gbar_target = ((0.23, -0.08), (-0.08, -0.14))
    for i in range(2):
        for j in range(2):
            add("G[%d,%d]" % (i, j), coeffs.G[i, j], g_target[i][j], 0.01,
                "G = [[s, G2], [-G2, G3]]")
            add("G_bar[%d,%d]" % (i, j), coeffs.G_bar[i, j], gbar_target[i][j], 0.005,
                "G_bar = (G^-1)' diag(1,-1)")

    plus = solve_erg_branch(coeffs, 100.0, -100.0, 1)
    minus = solve_erg_branch(coeffs, 100.0, -100.0, -1)
    add("z_f+", plus.omega_f[0], 32.92, 0.05, "omega_f+ = G^-1 b+")
    add("v_f+", plus.omega_f[1], -11.05, 0.05, "omega_f+ = G^-1 b+")
    add("z_f-", minus.omega_f[0], 27.85, 0.05, "omega_f- = G^-1 b-")
    add("v_f-", minus.omega_f[1], -1.80, 0.05, "omega_f- = G^-1 b-")
    add("J+*", plus.value, 1821.6, 0.01, "J+* = omega_f+' diag(1,-1) G omega_f+", rel=True)
    add("J-*", minus.value, 2659.1, 0.01, "J-* = omega_f-' diag(1,-1) G omega_f-", rel=True)

    at = dataclasses.replace(scenario, z0=100.0, w0=-100.0, geometry=None)
    play_plus = playout_reduced(at, kern, plus.u_p, plus.u_e, grid)
    play_minus = playout_reduced(at, kern, minus.u_p, minus.u_e, grid)
    add("w_f+ playout", play_plus.w_f, 32.5, 0.01, "dw = g_e u_e integrated")
    add("z_f+ playout", play_plus.z_f, 32.92, 0.05, "dz = h_p u_p + h_e u_e integrated")
    add("w_f- playout", play_minus.w_f, -32.5, 0.01, "dw = g_e u_e integrated")
    add("z_f- playout", play_minus.z_f, 27.85, 0.05, "dz = h_p u_p + h_e u_e integrated")

    int_ge = integral_g_e(scenario)
    ue_bar = (coeffs.bound - at.w0) / int_ge
    add("ue_bar+", ue_bar, 101.92, 0.05, "ue_bar = (bound - w0)/int g_e")
    j_const = evaluate_cost(at, kern, plus.u_p, Constant(ue_bar), grid).total
    add("J(u_p+, ue_bar+)", j_const, 1358.4, 0.01, "cost of (u_p+, constant)", rel=True)
    ramp = AffineInTime(slope=-400.0, intercept=400.0 * scenario.t_f)
    j_ramp = evaluate_cost(at, kern, ramp, plus.u_e, grid).total
    add("J(ramp, u_e+)", j_ramp, 2369.3, 0.01, "cost of (400(t_f - t), u_e+)", rel=True)

    t_plus = _cross_table(scenario, kern, coeffs, *STUDY_PLUS_POSITION)
    t_minus = _cross_table(scenario, kern, coeffs, *STUDY_MINUS_POSITION)
    table_targets = [
        ("T1+ (+,+)", t_plus[("+", "+")], 1939.2), ("T1+ (+,-)", t_plus[("+", "-")], 418.8),
        ("T1+ (-,+)", t_plus[("-", "+")], 2347.7), ("T1- (-,+)", t_minus[("-", "+")], 1463.1),
        ("T1- (+,-)", t_minus[("+", "-")], 2836.7),
    ]
    for name, value, target in table_targets:
        add(name, value, target, 0.01, "cross-play cost", rel=True)
    # The study prints 2488.2 here; with its printed G_bar and J+-* only
    # 2431.1 is consistent, so the row checks the corrected value.
    add("T1- (-,-)", t_minus[("-", "-")], 2431.1, 0.01,
        "cross-play cost; erratum, printed 2488.2", rel=True)
    ordering = (t_plus[("+", "-")] < t_plus[("+", "+")] < t_plus[("-", "+")]
                and t_minus[("-", "+")] < t_minus[("-", "-")] < t_minus[("+", "-")])
    checks.append(_Check("T1 orderings", 1.0 if ordering else 0.0, 1.0, 0.5,
                         "strict saddle orderings"))

    # The printed 4.895 and -45.105 both encode a*z0 = 54.895; the band goes
    # on that displacement rather than on its difference with w0 = -50.
    add("w_f-w0 URG (100,-50)", coeffs.a * 100.0, 54.895, 0.01,
        "w_f - w0 = a*z0; printed w_f 4.895", rel=True)
    add("w_f URG (100,-100)", -100.0 + coeffs.a * 100.0, -45.105, 0.01,
        "w_f = w0 + a*z0", rel=True)

    for sign, branch, tag in ((1, plus, "+"), (-1, minus, "-")):
        records = penalty_sweep(coeffs, 100.0, -100.0, sign)
        gaps = np.array([np.linalg.norm(r.omega_eps - branch.omega_f) for r in records])
        slope = np.polyfit(np.log([r.eps for r in records]), np.log(gaps), 1)[0]
        monotone = 1.0 if (np.diff(gaps) < 0).all() else 0.0
        add("sweep%s order" % tag, slope, 1.0, 0.1, "log-log slope of |omega_eps - omega_f|")
        checks.append(_Check("sweep%s monotone" % tag, monotone, 1.0, 0.5,
                             "gap decreases with eps"))
        add("sweep%s value gap" % tag, records[-1].value / branch.value - 1.0, 0.0, 1e-3,
            "penalized value vs branch value at eps=1e-6")
    return checks


def cmd_repro(args) -> int:
    checks = _repro_checks(args.tol_scale)
    width = max(len(c.name) for c in checks)
    failures = 0
    for c in checks:
        ok = c.passed()
        failures += 0 if ok else 1
        print("%-4s %-*s value=%- .8g target=%- .8g tol=%-.3g  [%s]"
              % ("PASS" if ok else "FAIL", width, c.name, c.value, c.target,
                 c.tol, c.formula))
    print("%d/%d checks passed" % (len(checks) - failures, len(checks)))
    return EXIT_OK if failures == 0 else EXIT_REPRO_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zemgame",
                     description="Open-loop saddle-point solver for the "
                                 "terminally constrained pursuit-evasion game")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="report the region of the initial position")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="solve the game and optionally dump the trajectory")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--grid", type=int, default=DEFAULT_GRID_NODES,
                   help="number of grid nodes of the --csv trajectory and the "
                        "--probe trials (default %(default)s)")
    p.add_argument("--csv", help="write t,u_p,u_e,z,w rows to this path")
    p.add_argument("--sign", choices=("+", "-"),
                   help="force an equality branch instead of dispatching")
    p.add_argument("--probe", type=int, default=0, metavar="N",
                   help="run N random saddle perturbation trials after solving")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the saddle probe trials")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="penalty-parameter convergence study")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--eps-from", type=float, default=1.0)
    p.add_argument("--eps-to", type=float, default=1e-6)
    p.add_argument("--eps-steps", type=int, default=7)
    p.add_argument("--csv", help="write the sweep records to this path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("table1", help="cross-play table at the two study positions")
    p.add_argument("scenario", nargs="?", help="scenario JSON file (built-in study if omitted)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("repro", help="reproduce the first-order study end to end")
    p.add_argument("--tol-scale", type=float, default=1.0,
                   help="multiply every check tolerance (default 1.0)")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print("scenario error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SolvabilityError as exc:
        print("unsolvable: %s" % exc, file=sys.stderr)
        return EXIT_SOLVABILITY
    except (AssertionFailure, ProbeFailure) as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ZemGameError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
