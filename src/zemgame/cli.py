"""Command-line front end.

Verbs: classify | solve | sweep | table1 | repro. Scenario files are UTF-8
JSON in SI units; trajectories go to CSV with a fixed header and 12
significant digits so output is byte-for-byte reproducible.

Exit codes: 0 success, 1 usage or parse error, 2 solvability violation,
3 reproduction-check failure, 4 internal assertion.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Optional, Sequence

import numpy as np

from . import reference
from .engagement import (
    ControllerModel,
    EngagementGeometry,
    EngagementScenario,
    initial_zem,
    resolve_horizons,
)
from .errors import (
    AssertionFailure,
    NoControlAuthority,
    NonFiniteResult,
    ProbeFailure,
    ScenarioFormatError,
    SolvabilityError,
    ZemGameError,
)
from .numerics import DEFAULT_GRID_NODES, TimeGrid
from .reduction import Kernels, coefficients
from .simulate import playout_reduced, saddle_probe
from .solver import RegionLabel, classify, penalty_sweep, solve_erg_branch, solve_rg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVABILITY = 2
EXIT_REPRO_FAIL = 3
EXIT_INTERNAL = 4


def _print_rows(rows) -> None:
    """Print (name, value, formula) rows with the names in one column."""
    width = max(len(name) for name, _, _ in rows)
    print("\n".join("%-*s  %- .12g    [%s]" % (width, name, float(value), formula)
                    for name, value, formula in rows))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _get(node, path: str):
    """The member of `node` named by the last key of a dotted path, `node`
    being the object the rest of the path leads to, looked up once; a
    missing member is named by the whole path."""
    key = path.rpartition(".")[2]
    if isinstance(node, dict) and key in node:
        return node[key]
    raise ScenarioFormatError("missing key %r" % path)


def _numbers_at(node, path: str, *keys: str, required: bool = True) -> list:
    """The finite numbers at `keys` of `node`, the object at `path`, in
    order; a missing one is named by its whole path, and an optional one
    that is missing or null is None."""
    values, node = [], node if isinstance(node, dict) else {}
    for key in keys:
        if required and key not in node:
            raise ScenarioFormatError("missing key %r" % (path + "." + key))
        value = node.get(key)
        values.append(None if value is None and not required else _finite(value, path + "." + key))
    return values


def _finite(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioFormatError("key %r must be a number" % path)
    if not abs(value) <= sys.float_info.max:  # NaN, infinities and ints beyond float range
        raise ScenarioFormatError("key %r must be finite" % path)
    return float(value)


def _numbers(value, path: str) -> np.ndarray:
    """A list of finite numbers as a float array, naming the first bad entry."""
    if not isinstance(value, list):
        raise ScenarioFormatError("key %r must be a list of numbers" % path)
    return np.array([_finite(v, path) for v in value])


def _parse_player(players, path: str) -> ControllerModel:
    node = _get(players, path)
    if not isinstance(node, dict):
        raise ScenarioFormatError("key %r must be an object" % path)
    if "first_order_tau" in node:
        try:
            return ControllerModel.first_order(*_numbers_at(node, path, "first_order_tau"))
        except ValueError as exc:
            raise ScenarioFormatError("invalid %s.first_order_tau: %s" % (path, exc))
    rows = _get(node, path + ".A")
    if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
            and len(set(map(len, rows))) <= 1):
        raise ScenarioFormatError("key %r must be a list of equal-length lists" % (path + ".A"))
    # JSON numbers are exactly the ints and floats: a valid controller is converted and
    # checked once, by the model; any other goes key by key, naming the first bad entry.
    b, c, d = node.get("b"), node.get("c"), node.get("d")
    if (type(b) is list and type(c) is list
            and set(map(type, itertools.chain(b, c, (d,), *rows))) <= {float, int}):
        try:
            return ControllerModel(order=len(rows), sys=rows, inp=b, out=c, feed=d)
        except (ValueError, OverflowError):  # a bad entry or shape, named below
            pass
    A = np.array([_numbers(row, path + ".A") for row in rows])
    b, c = (_numbers(_get(node, path + key), path + key) for key in (".b", ".c"))
    (d,) = _numbers_at(node, path, "d")
    try:
        return ControllerModel(order=len(rows), sys=A, inp=b, out=c, feed=d)
    except ValueError as exc:
        raise ScenarioFormatError("invalid controller under %r: %s" % (path, exc))


def load_scenario(path: str) -> tuple[EngagementScenario, dict]:
    """Parse a scenario file; returns the scenario and the raw document."""
    try:
        with open(path, "rb", buffering=0) as fh:  # decoded at once, newlines as in text mode
            text = fh.read().decode("utf-8")
        doc = json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        raise ScenarioFormatError("cannot read %s: %s" % (path, exc))
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError("%s is not UTF-8: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError("%s is not valid JSON: line %d: %s"
                                  % (path, exc.lineno, exc.msg))
    return scenario_from_document(doc), doc


def scenario_from_document(doc: dict) -> EngagementScenario:
    players = _get(doc, "players")
    pursuer = _parse_player(players, "players.pursuer")
    evader = _parse_player(players, "players.evader")
    horizon = _get(doc, "horizon")
    (t_f,) = _numbers_at(horizon, "horizon", "t_f")
    t_c, nu = _numbers_at(horizon, "horizon", "t_c", "nu", required=False)
    try:
        t_c = resolve_horizons(t_f, t_c, nu)
    except ValueError as exc:
        raise ScenarioFormatError("horizon: %s" % exc)
    alpha, beta = _numbers_at(_get(doc, "weights"), "weights", "alpha", "beta")
    (ae_max,) = _numbers_at(_get(doc, "evader_bound"), "evader_bound", "ae_max")

    initial = _get(doc, "initial")
    if not isinstance(initial, dict):
        raise ScenarioFormatError("key 'initial' must be an object")
    geometry = None
    if "z0" in initial or "w0" in initial:
        if not ("z0" in initial and "w0" in initial):
            raise ScenarioFormatError("initial needs both z0 and w0")
        if not initial.keys().isdisjoint(("Vp", "Ve", "phi_p0", "phi_e0")):
            raise ScenarioFormatError("initial must use exactly one of (z0, w0) or geometry")
        z0, w0 = _numbers_at(initial, "initial", "z0", "w0")
    else:
        try:
            geometry = EngagementGeometry(*_numbers_at(initial, "initial", "Vp", "Ve",
                                                       "phi_p0", "phi_e0"))
        except ValueError as exc:
            raise ScenarioFormatError("initial: %s" % exc)
        z0, w0 = initial_zem(geometry, t_f, t_c)
    try:
        return EngagementScenario(pursuer=pursuer, evader=evader, t_f=t_f, t_c=t_c,
                                  alpha=alpha, beta=beta, ae_max=ae_max,
                                  z0=z0, w0=w0, geometry=geometry)
    except ValueError as exc:
        raise ScenarioFormatError(str(exc))


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.12g" % v for v in row) + "\n")


def cmd_classify(args) -> int:
    scenario, _ = load_scenario(args.scenario)
    coeffs = coefficients(scenario)
    region = classify(coeffs, scenario.z0, scenario.w0)
    print("region: %s" % region.label.value)
    _print_rows([("a", coeffs.a, "a = G2/G1"),
                 ("bound", coeffs.bound, "bound = mu_e*ae_max"),
                 ("margin", region.margin, "w0 + a*z0 - nearest bound")])
    if coeffs.constraint_degenerate:
        print("note: t_c = 0 collapses the terminal constraint to w(t_f) = 0")
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.probe < 0:
        raise _UsageError("--probe must be nonnegative")
    if args.seed < 0:
        raise _UsageError("--seed must be nonnegative")
    if args.grid < 2:
        raise _UsageError("a time grid needs at least two nodes")
    scenario, _ = load_scenario(args.scenario)
    probe = args.probe and args.sign is None
    kern = Kernels(scenario) if args.csv or probe else None
    coeffs = coefficients(scenario, kern)
    if args.sign is not None:
        sol = solve_erg_branch(coeffs, scenario.z0, scenario.w0, 1 if args.sign == "+" else -1)
        region_name = "forced branch %s" % args.sign
        rows = [("value", sol.value, "J = omega_f' diag(1,-1) G omega_f"),
                ("z_f", sol.z_f, "omega_f = G^-1 b"),
                ("v_f", sol.v_f, "omega_f = G^-1 b"),
                ("w_f", sol.w_f, "w_f = sign*mu_e*ae_max")]
    else:
        sol = solve_rg(scenario, coeffs)
        region_name = sol.region.label.value
        rows = [("value", sol.value, "J(u_p*, u_e*)"),
                ("z_f", sol.z_f, "z_f = z0/s in Omega, else (G^-1 b)_1"),
                ("w_f", sol.w_f, "w_f = w0 + a*z0 in Omega, else sign*mu_e*ae_max")]
    print("region: %s" % region_name)
    _print_rows(rows + [("u_p coef on h_p", sol.u_p.hp_coef, "u_p = -(z_f/alpha) h_p"),
                        ("u_e coef on h_e", sol.u_e.he_coef, "u_e = (z_f h_e - v_f g_e)/beta"),
                        ("u_e coef on g_e", sol.u_e.ge_coef, "u_e = (z_f h_e - v_f g_e)/beta")])
    if kern is not None:
        grid = TimeGrid(0.0, scenario.t_f, args.grid)
    if args.csv:
        bundle = kern.bundle(grid)
        play = playout_reduced(scenario, kern, sol.u_p, sol.u_e, grid)
        _write_csv(args.csv, ("t", "u_p", "u_e", "z", "w"),
                   zip(grid.nodes, bundle.control(sol.u_p)[0::2], bundle.control(sol.u_e)[0::2],
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
    if args.eps_steps < 2:
        raise _UsageError("--eps-steps must be at least 2")
    if not np.isfinite([args.eps_from, args.eps_to]).all():
        raise _UsageError("--eps-from and --eps-to must be finite")
    if not (args.eps_from > 0.0 and args.eps_to > 0.0):
        raise _UsageError("--eps-from and --eps-to must be positive")
    if not args.eps_from > args.eps_to:
        raise _UsageError("--eps-from must be larger than --eps-to: the sweep descends")
    scenario, _ = load_scenario(args.scenario)
    coeffs = coefficients(scenario)
    sign = 1 if args.sign == "+" else -1
    eps_list = np.geomspace(args.eps_from, args.eps_to, args.eps_steps)
    records = penalty_sweep(coeffs, scenario.z0, scenario.w0, sign, eps_list)
    branch = solve_erg_branch(coeffs, scenario.z0, scenario.w0, sign)
    omega_f = (branch.z_f, branch.v_f)
    rows = [
        (r.eps, r.z_f, float(r.omega_eps[1]), r.value,
         float(np.linalg.norm(r.omega_eps - omega_f)))
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
    if doc.get("table1") is None:
        return reference.PLUS_POSITION, reference.MINUS_POSITION
    positions = []
    for path in ("table1.plus", "table1.minus"):
        pair = _get(doc["table1"], path)
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioFormatError("key %r must be a [z, w] pair" % path)
        positions.append(tuple(_finite(v, path) for v in pair))
    return positions[0], positions[1]


def cmd_table1(args) -> int:
    scenario, doc = (load_scenario(args.scenario) if args.scenario is not None
                     else (reference.study_scenario(), {}))
    pos_plus, pos_minus = _table1_positions(doc)
    kern = Kernels(scenario)
    coeffs = coefficients(scenario, kern)
    if coeffs.constraint_degenerate:
        raise ScenarioFormatError("t_c = 0 collapses the terminal constraint to w(t_f) = 0: "
                                  "both branches pin w_f = 0, so the cross-play table ties "
                                  "and has no saddle ordering to show")
    for path, pos, want in (("table1.plus", pos_plus, RegionLabel.OMEGA_PLUS),
                            ("table1.minus", pos_minus, RegionLabel.OMEGA_MINUS)):
        got = classify(coeffs, *pos).label
        if got is not want:
            raise ScenarioFormatError("key %r: position (%g, %g) lies in %s, not %s"
                                      % (path, *pos, got.value, want.value))
    t_plus = reference.cross_table(scenario, kern, coeffs, *pos_plus)
    t_minus = reference.cross_table(scenario, kern, coeffs, *pos_minus)
    print("position (%g, %g) in OmegaPlus   position (%g, %g) in OmegaMinus"
          % (*pos_plus, *pos_minus))
    print("%-14s %-10s   %-14s %-10s" % ("controls", "J", "controls", "J"))
    layout = [(("+", "+"), ("-", "-")), (("+", "-"), ("-", "+")), (("-", "+"), ("+", "-"))]
    for left, right in layout:
        print("(u_p%s, u_e%s)   %-10.1f   (u_p%s, u_e%s)   %-10.1f"
              % (*left, t_plus[left].total, *right, t_minus[right].total))
    ok_plus, ok_minus = reference.saddle_orderings(t_plus, t_minus)
    print("saddle ordering: %s / %s"
          % ("OK" if ok_plus else "VIOLATED", "OK" if ok_minus else "VIOLATED"))
    if not (ok_plus and ok_minus):
        raise AssertionFailure("saddle ordering violated in cross-play table")
    return EXIT_OK


def cmd_repro(args) -> int:
    if not (np.isfinite(args.tol_scale) and args.tol_scale > 0):
        raise _UsageError("--tol-scale must be positive and finite")
    values, checks = reference.evaluate(), reference.CHECKS
    width = max(map(len, checks))
    passed = 0
    for c in checks.values():
        ok = c.passed(values[c.name], args.tol_scale)
        passed += ok
        print("%-4s %-*s value=%- .8g target=%- .8g tol=%-.3g  [%s]"
              % ("PASS" if ok else "FAIL", width, c.name, values[c.name], c.target,
                 c.width(args.tol_scale), c.label))
    print("%d/%d checks passed" % (passed, len(checks)))
    return EXIT_OK if passed == len(checks) else EXIT_REPRO_FAIL


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
                   help="seed of the one random stream of the saddle probe: trial t "
                        "draws its normals 16t to 16t+15, so N trials are the first N "
                        "of any longer run")
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
    parser.verbs = sub.choices  # each verb's own parser, for `main`
    return parser


# The parser of `main`, built once per process and handed to no other
# caller: parse_args leaves a parser as it found it.
_main_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one verb: a known verb's arguments go straight to the parser the
    top-level one would hand them to, and anything else to the top level."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = _main_parser()
        verb = parser.verbs.get(argv[0]) if argv else None
        args = parser.parse_args(argv) if verb is None else verb.parse_args(argv[1:])
        return args.func(args)
    except (ScenarioFormatError, NoControlAuthority, NonFiniteResult) as exc:
        print("scenario error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except SolvabilityError as exc:
        print("unsolvable: %s" % exc, file=sys.stderr)
        return EXIT_SOLVABILITY
    except (AssertionFailure, ProbeFailure) as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (_UsageError, ZemGameError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
