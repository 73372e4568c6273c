"""Command-line front end.

Subcommands:
    optimize     solve; writes trace CSVs and solution.json, and prints
                 the rate, the rounds and why the solve stopped
    beampattern  beam gain over [0, pi] for a solution or the FPA baseline
    sweep-n      secrecy rate vs antenna count for MA and FPA arrays
    verify       run the oracle suite against a scenario

All commands take ``--scenario``; all but ``verify`` write to ``--out``
and all but ``beampattern`` (which draws nothing) honor ``--seed``.
``optimize`` and ``sweep-n`` take ``--restarts``.  Fixed
seeds give byte-identical outputs.  Exit codes: 0 on success, 1 when
verification checks fail, 2 on validation, I/O or eigensolver errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .beamformer import EigensolverError, build_forms, optimal_beamformer
from .core import beam_gain, check_beamformer, check_positions, secrecy_rate
from .driver import initial_positions, solve, solve_fpa, solve_powers
from .oracle import run_verification
from .positions import random_positions
from .scenario_io import (RunSpec, ScenarioFileError, load_run_spec,
                          load_solution, write_beampattern, write_inner_traces,
                          write_outer_trace, write_solution, write_sweep)

DEFAULT_ANGLE_COUNT = 721


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the scenario file seed")
    starts = argparse.ArgumentParser(add_help=False)
    starts.add_argument("--restarts", type=int, default=0,
                        help="extra solves from random feasible layouts")

    parser = argparse.ArgumentParser(
        prog="masec",
        description="Secrecy-rate maximization for movable-antenna arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("optimize", parents=[common, starts],
                   help="run the solver")
    bp = sub.add_parser("beampattern", parents=[common],
                        help="sample the beam gain over [0, pi]")
    bp.add_argument("--solution", default=None,
                    help="solution.json to evaluate (default: <out>/solution.json)")
    bp.add_argument("--fpa", action="store_true",
                    help="use the fixed-position baseline instead of a solution")
    bp.add_argument("--angles", type=int, default=DEFAULT_ANGLE_COUNT,
                    help="number of sample angles")
    sw = sub.add_parser("sweep-n", parents=[common, starts],
                        help="sweep the antenna count for MA and FPA")
    sw.add_argument("--n-min", type=int, default=2)
    sw.add_argument("--n-max", type=int, default=8)
    sw.add_argument("--powers", default="1,10",
                    help="comma-separated power budgets")
    sub.add_parser("verify", parents=[common], help="run the oracle suite")
    return parser


def _load(args) -> RunSpec:
    if getattr(args, "restarts", 0) < 0:
        raise ScenarioFileError("--restarts must be non-negative")
    if args.seed is not None and args.seed < 0:
        raise ScenarioFileError("--seed must be non-negative")
    spec = load_run_spec(args.scenario)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    return spec


def _cmd_optimize(args) -> int:
    spec = _load(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n, restarts = spec.n_antennas, args.restarts
    spec.scenario.check_feasible(n)
    rng = np.random.default_rng(spec.seed)
    starts = [random_positions(n, spec.scenario, rng) for _ in range(restarts)]
    trace = solve(n, spec.scenario, spec.config,
                  extra_starts=np.reshape(starts, (restarts, n)))
    write_outer_trace(out / "trace_outer.csv", trace)
    write_inner_traces(out, trace)
    write_solution(out / "solution.json", trace)
    status = "converged" if trace.converged else "NOT converged"
    print(f"secrecy rate {trace.final_rate:.9f} bps/Hz after "
          f"{trace.n_outer} outer iterations ({status}, stopped by "
          f"{trace.stop_reason})")
    return 0


def _cmd_beampattern(args) -> int:
    spec = _load(args)
    if args.angles < 2:
        raise ScenarioFileError("--angles must be at least 2")
    if args.fpa:
        x = initial_positions(spec.n_antennas, spec.scenario)
        w = solve_fpa(spec.n_antennas, spec.scenario)[0]
    else:
        path = Path(args.solution) if args.solution else Path(args.out) / "solution.json"
        if not path.exists():
            raise ScenarioFileError(
                f"no solution file at {path}; run optimize first or pass --fpa")
        x, w, _ = load_solution(path)
        if x.size != spec.n_antennas:
            raise ScenarioFileError(
                f"solution has {x.size} antennas but the scenario file "
                f"has n_antennas={spec.n_antennas}")
        x = check_positions(x, spec.scenario)
        w = check_beamformer(w, spec.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    thetas = np.linspace(0.0, np.pi, args.angles)
    # one row per angle: the layout repeated, its angle from the column
    rows = (args.angles, x.size)
    gains = beam_gain(np.broadcast_to(x, rows), np.broadcast_to(w, rows),
                      thetas[:, None], spec.scenario)
    write_beampattern(out / "beampattern.csv", thetas, gains)
    print(f"wrote beampattern.csv ({args.angles} angles)")
    return 0


def _sweep_rows(spec: RunSpec, n: int, cells, restarts: int) -> list:
    """CSV rows of the (j, scenario) ``cells`` of one N, solved together.

    Cell j is ``spec.scenario`` at power budget j of the sweep.  It draws
    its ``restarts`` starts from ``default_rng([seed, n, j])``, and
    ``solve_powers`` runs every cell's chains in one lockstep solve on
    ``spec.scenario`` and the cells' budgets.  The FPA baseline of every
    cell is one stacked solve, the uniform layout once per budget; each
    row has the bits of ``solve_fpa`` on that cell alone.
    """
    spec.scenario.check_feasible(n)
    starts = []
    for j, scenario in cells:
        rng = np.random.default_rng([spec.seed, n, j])
        starts.append(np.reshape([random_positions(n, scenario, rng)
                                  for _ in range(restarts)], (restarts, n)))
    budgets = np.array([scenario.power_budget for _, scenario in cells])
    traces = solve_powers(n, spec.scenario, budgets, spec.config, starts)
    X = np.broadcast_to(initial_positions(n, spec.scenario), (len(cells), n))
    W = optimal_beamformer(build_forms(X, spec.scenario), spec.scenario,
                           budgets)
    fpa = secrecy_rate(X, W, spec.scenario).tolist()
    return [(n, budget, trace.final_rate, rate, "", int(trace.converged),
             trace.n_outer)
            for budget, trace, rate in zip(budgets.tolist(), traces, fpa)]


def _cmd_sweep(args) -> int:
    spec = _load(args)
    if args.n_min < 2:
        raise ScenarioFileError("--n-min must be at least 2")
    if args.n_max < args.n_min:
        raise ScenarioFileError("--n-max must be >= --n-min")
    try:
        powers = sorted(float(p) for p in args.powers.split(","))
    except ValueError as exc:
        raise ScenarioFileError(f"bad --powers list: {exc}") from exc
    cells = [(j, dataclasses.replace(spec.scenario, power_budget=p))
             for j, p in enumerate(powers)]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        try:
            rows += _sweep_rows(spec, n, cells, args.restarts)
        except (ValueError, RuntimeError):
            # one failing cell must not take the others down: each alone
            for cell in cells:
                try:
                    rows += _sweep_rows(spec, n, [cell], args.restarts)
                except (ValueError, RuntimeError) as exc:
                    rows.append((n, cell[1].power_budget, "", "", str(exc),
                                 "", ""))
    write_sweep(out / "sweep_n.csv", rows)
    print(f"wrote sweep_n.csv ({len(rows)} rows)")
    return 0


def _cmd_verify(args) -> int:
    spec = _load(args)
    report = run_verification(spec.scenario, spec.n_antennas, seed=spec.seed,
                              cfg=spec.config)
    for check in report.checks:
        print(f"{check.status.upper():4s}  {check.name:24s} {check.detail}")
    if not report.passed:
        print("verification FAILED")
        return 1
    print("verification passed")
    return 0


_COMMANDS = {
    "optimize": _cmd_optimize,
    "beampattern": _cmd_beampattern,
    "sweep-n": _cmd_sweep,
    "verify": _cmd_verify,
}


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, EigensolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
