"""Output checks: every result against independent numpy/scipy values.

Only values that ``reference`` computes itself count as right; nothing
is compared with masec's own functions or with stored output.
"""

from __future__ import annotations

import numpy as np

import reference
from workloads import GRID_DETAIL, SWEEP_POWERS

# Relative slack for values read back from 12-significant-digit CSVs and
# JSON; rates that must match exactly are compared to this tolerance.
TOL = 1e-9
# The grid comparison that ``masec verify`` cannot run today (its grid
# enumerates 15.4M absolute tuples, above the 1e7 cap): a known fault,
# counted as a failed operation on every round.
KNOWN_SKIP = ("paper_n3", "grid-comparison")


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_sweep(cmd, results):
    errors = []
    inst = reference.Instance.from_file(cmd.scenario)
    rows = results[0].data["rows"]
    if any(r.data["rows"] != rows for r in results):
        errors.append(f"{cmd.label}: rows differ between rounds")
    n = int(cmd.argv[cmd.argv.index("--n-min") + 1])
    if [(int(r["N"]), float(r["P_A"])) for r in rows] != [(n, p) for p in SWEEP_POWERS]:
        errors.append(f"{cmd.label}: rows are not the cells N={n} x P_A {SWEEP_POWERS}")
        return errors
    for r in rows:
        n, cell = int(r["N"]), inst.with_power(float(r["P_A"]))
        where = f"sweep N={n} P_A={r['P_A']}"
        if r["error"]:
            continue
        ma, fpa = float(r["rate_ma"]), float(r["rate_fpa"])
        fpa_ref = reference.optimal_rate(inst.min_spacing * np.arange(n), cell)
        if not _close(fpa, fpa_ref):
            errors.append(f"{where}: rate_fpa {fpa} != reference {fpa_ref}")
        if not fpa - TOL <= ma <= cell.bound(n) + TOL:
            errors.append(f"{where}: rate_ma {ma} outside [rate_fpa, bound {cell.bound(n)}]")
        if n <= 3:
            grid = reference.grid_optimum(n, cell, cell.wavelength / 50)
            if ma < 0.95 * grid:
                errors.append(f"{where}: rate_ma {ma} below 0.95 x grid optimum {grid}")
    return errors


def _check_solution(cmd, res):
    inst = reference.Instance.from_file(cmd.scenario)
    doc = res.data["solution"]
    x = np.asarray(doc["final_x"], dtype=float)
    w = np.array([complex(re_, im) for re_, im in doc["final_w"]])
    rate = doc["final_rate"]
    where = f"{cmd.label}: "
    errors = []
    if x.size != inst.n or w.size != inst.n:
        return [where + f"solution has {x.size} positions and {w.size} weights"]
    gaps = np.diff(x)
    if (gaps < 0).any() or (gaps < inst.min_spacing - TOL).any() \
            or x[0] < -TOL or x[-1] > inst.aperture + TOL:
        errors.append(where + f"infeasible positions {x.tolist()}")
    power = float(np.vdot(w, w).real)
    if not _close(power, inst.power):
        errors.append(where + f"||w||^2 = {power} != P_A = {inst.power}")
    recomputed = reference.rate(x, w, inst)
    if not _close(rate, recomputed):
        errors.append(where + f"final_rate {rate} != rate at (x, w) {recomputed}")
    best = reference.optimal_rate(x, inst)
    fpa = reference.optimal_rate(inst.min_spacing * np.arange(inst.n), inst)
    if not fpa - TOL <= rate <= best + TOL:
        errors.append(where + f"final_rate {rate} outside [FPA {fpa}, optimum at x {best}]")
    if rate > inst.bound(inst.n) + TOL:
        errors.append(where + f"final_rate {rate} above the bound {inst.bound(inst.n)}")
    if rate <= 0.0:
        errors.append(where + "final_rate is not positive")
    return errors


def _check_verify(cmd, results):
    errors = []
    grid = None
    for res in results:
        checks = res.data["checks"]
        where = f"{cmd.label}: "
        fails = [name for name, (status, _) in checks.items() if status == "FAIL"]
        if res.data["rc"] != (1 if fails else 0):
            errors.append(where + f"exit code {res.data['rc']} with failing checks {fails}")
        if len(checks) != 5:
            errors.append(where + f"{len(checks)} checks printed, expected 5")
        status, detail = checks.get("grid-comparison", ("", ""))
        if status != "PASS":
            continue
        m = GRID_DETAIL.search(detail)
        if m is None:
            errors.append(where + f"unreadable grid comparison {detail!r}")
            continue
        if grid is None:
            inst = reference.Instance.from_file(cmd.scenario)
            grid = reference.grid_optimum(inst.n, inst, inst.wavelength / 50)
        printed = float(m.group(2))
        if abs(printed - grid) > 5e-7 + 1e-12:
            errors.append(where + f"grid rate {printed} != reference {grid:.9f}")
    return errors


def check(cmds, per_round) -> list:
    """Errors found in the outputs of every round; empty when all are right.

    ``per_round`` holds one list of ``Result`` per round, in command order.
    Failed operations are not checked: they are counted instead.
    """
    errors = []
    for i, cmd in enumerate(cmds):
        results = [r[i] for r in per_round]
        kind = cmd.argv[0]
        if kind == "sweep-n":
            errors += _check_sweep(cmd, results)
        elif kind == "optimize":
            ok = [r for r in results if not r.failed]
            if ok and any(r.data["solution"] != ok[0].data["solution"] for r in ok):
                errors.append(f"{cmd.label}: solution differs between rounds")
            if ok:
                errors += _check_solution(cmd, ok[0])
        else:
            errors += _check_verify(cmd, results)
    return errors


def unexpected_failures(cmds, per_round) -> list:
    """Failed operations other than the known ``paper_n3`` grid skip."""
    found = []
    for i, cmd in enumerate(cmds):
        res = per_round[0][i]
        if not res.failed:
            continue
        if cmd.argv[0] == "verify":
            names = [n for n, (s, _) in res.data["checks"].items() if s != "PASS"]
            found += [f"{cmd.label}:{n}" for n in names if (cmd.label, n) != KNOWN_SKIP]
        else:
            found.append(cmd.label)
    return found
