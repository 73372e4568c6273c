"""The benchmark's workloads: seeded inputs, CLI commands, their outputs.

Each workload is a list of masec CLI commands, run in order as one
round.  ``make_inputs`` writes the scenario files a round reads and
``collect`` reads one command's output into a ``Result``.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RESTART_SIZES = (5, 6, 7, 8)
RESTARTS = 8
# Each restarts solve runs a fixed budget of 4 outer rounds of 100 PGA
# steps: the tolerances are too small to stop it earlier in practice, so
# a round's work hardly depends on the seed and wall_s follows step cost.
RESTART_TOLERANCES = {"max_outer_iters": 4, "max_inner_iters": 100,
                      "inner_tol": 1e-300, "outer_tol": 1e-300}
SWEEP_POWERS = (1.0, 10.0)
SWEEP_SIZES = range(2, 9)


@dataclass
class Command:
    label: str
    argv: list
    scenario: Path
    out: Path | None = None


@dataclass
class Result:
    """What one command produced: operations, failures and the rates."""

    ops: int
    failed: int
    rate_sum: float
    data: dict = field(default_factory=dict)


def _angles(rng, bob_lo, bob_hi, m, sep):
    """Bob's angle and m eavesdropper angles at least ``sep`` from it, in pi units."""
    bob = float(rng.uniform(bob_lo, bob_hi))
    eves = []
    while len(eves) < m:
        t = float(rng.uniform(0.05, 0.95))
        if abs(t - bob) >= sep:
            eves.append(round(t, 6))
    return round(bob, 6), eves


def _write_scenario(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def warmup_scenario(work: Path) -> Path:
    """A tiny N=2 instance whose ``verify`` touches every layer once."""
    return _write_scenario(work / "warmup.json", {
        "n_antennas": 2, "bob_angle_pi": 0.5, "eve_angles": [0.2],
        "aperture": 1.5, "min_spacing": 0.5, "seed": 0})


def make_inputs(workload: str, seed: int, root: Path, work: Path) -> list:
    """Write the workload's inputs under ``work`` and return its commands."""
    scenarios = root / "scenarios"
    if workload == "sweep":
        # the paper's figure, one sweep-n per N so that the host speed is
        # read between them; its scenario file is fixed, so the seed
        # changes nothing here
        scn = scenarios / "sweep_m3.json"
        powers = ",".join(f"{p:g}" for p in SWEEP_POWERS)
        return [Command(f"sweep_n{n}", ["sweep-n", "--scenario", str(scn),
                                        "--out", str(work / f"sweep_n{n}"),
                                        "--n-min", str(n), "--n-max", str(n),
                                        "--powers", powers],
                        scn, work / f"sweep_n{n}")
                for n in SWEEP_SIZES]
    if workload == "restarts":
        cmds = []
        for n in RESTART_SIZES:
            rng = np.random.default_rng([seed, n])
            bob, eves = _angles(rng, 0.35, 0.65, 3, 0.15)
            scn = _write_scenario(work / f"restarts_n{n}.json", {
                "n_antennas": n, "bob_angle_pi": bob, "eve_angles": eves,
                "aperture": 10.0, "min_spacing": 0.5, "seed": seed,
                "tolerances": RESTART_TOLERANCES})
            out = work / f"restarts_n{n}"
            cmds.append(Command(f"restarts_n{n}",
                                ["optimize", "--scenario", str(scn), "--out", str(out),
                                 "--restarts", str(RESTARTS)], scn, out))
        return cmds
    if workload == "verify":
        rng = np.random.default_rng([seed, 3])
        bob, eves = _angles(rng, 0.35, 0.65, 2, 0.15)
        seeded = _write_scenario(work / "verify_n3.json", {
            "n_antennas": 3, "bob_angle_pi": bob, "eve_angles": eves,
            "aperture": 4.0, "min_spacing": 0.5, "seed": seed})
        return [Command(label, ["verify", "--scenario", str(scn)], scn)
                for label, scn in (("toy_n2", scenarios / "toy_n2.json"),
                                   ("verify_n3", seeded),
                                   ("paper_n3", scenarios / "paper_n3.json"))]
    raise ValueError(f"unknown workload {workload!r}")


_CHECK_LINE = re.compile(r"^(PASS|FAIL|SKIP)\s+(\S+)\s+(.*)$")
GRID_DETAIL = re.compile(r"algorithm (\S+) vs grid (\S+) bps/Hz")


def collect(cmd: Command, rc: int, stdout: str) -> Result:
    """Read one command's output: files for sweep-n/optimize, stdout for verify."""
    kind = cmd.argv[0]
    if kind == "sweep-n":
        with open(cmd.out / "sweep_n.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ok = [r for r in rows if not r["error"]]
        return Result(len(rows), len(rows) - len(ok),
                      sum(float(r["rate_ma"]) for r in ok), {"rc": rc, "rows": rows})
    if kind == "optimize":
        if rc != 0:
            return Result(1, 1, 0.0, {"rc": rc})
        doc = json.loads((cmd.out / "solution.json").read_text(encoding="utf-8"))
        return Result(1, 0, doc["final_rate"], {"rc": rc, "solution": doc})
    checks = {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(2)] = (m.group(1), m.group(3))
    failed = sum(1 for status, _ in checks.values() if status != "PASS")
    rate_sum = 0.0
    status, detail = checks.get("grid-comparison", ("", ""))
    m = GRID_DETAIL.search(detail)
    if status == "PASS" and m:
        rate_sum = float(m.group(1))
    return Result(len(checks), failed, rate_sum, {"rc": rc, "checks": checks})
