"""Scenario files and result serialization.

Scenario files are JSON.  Angles are given either in radians
(``bob_angle_rad``) or as fractions of pi (``bob_angle_pi``), one form
per file, with ``eve_angles`` interpreted in the same form.  Omitted
fields fall back to the reference setup: unit noise power and power
budget, aperture of ten wavelengths, half-wavelength spacing and step
size 0.01.  Unknown keys are rejected.

CSV output follows RFC 4180 (CRLF, header row); numbers carry 12
significant digits.  ``solution.json`` stores the beamformer as
[re, im] pairs and round-trips the final rate exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Scenario
from .driver import OptimizationTrace, SolveConfig
from .positions import PgaConfig


class ScenarioFileError(ValueError):
    """Scenario file is malformed, inconsistent or incomplete."""


_TOP_KEYS = {
    "wavelength", "bob_angle_rad", "bob_angle_pi", "eve_angles",
    "noise_power", "power_budget", "aperture", "min_spacing",
    "n_antennas", "step_size", "tolerances", "seed",
}
_TOL_KEYS = {"inner_tol", "outer_tol", "max_inner_iters", "max_outer_iters"}


@dataclass(frozen=True)
class RunSpec:
    """A scenario file resolved into solver-ready pieces."""

    scenario: Scenario
    n_antennas: int
    config: SolveConfig
    seed: int


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_number_list(v) -> bool:
    return isinstance(v, list) and bool(v) and all(map(_is_number, v))


def _require_number(data, key, default=None):
    if key not in data:
        if default is None:
            raise ScenarioFileError(f"missing required key {key!r}")
        return default
    v = data[key]
    if not _is_number(v):
        raise ScenarioFileError(f"key {key!r} must be a number, got {v!r}")
    return float(v)


def _require_int(data, key, default, minimum=0):
    v = data.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
        raise ScenarioFileError(f"key {key!r} must be an integer >= {minimum}")
    return v


def parse_run_spec(data: dict) -> RunSpec:
    """Validate a decoded scenario document and build a RunSpec."""
    if not isinstance(data, dict):
        raise ScenarioFileError("scenario file must hold a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioFileError(f"unknown keys: {sorted(unknown)}")
    if ("bob_angle_rad" in data) == ("bob_angle_pi" in data):
        raise ScenarioFileError(
            "exactly one of bob_angle_rad / bob_angle_pi is required")

    factor = 1.0 if "bob_angle_rad" in data else math.pi
    bob_key = "bob_angle_rad" if "bob_angle_rad" in data else "bob_angle_pi"
    bob = _require_number(data, bob_key) * factor
    eves = data.get("eve_angles")
    if not _is_number_list(eves):
        raise ScenarioFileError("eve_angles must be a non-empty list of numbers")
    eves = tuple(float(t) * factor for t in eves)

    wavelength = _require_number(data, "wavelength", 1.0)
    n = _require_int(data, "n_antennas", None, minimum=1)

    tol = data.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ScenarioFileError("tolerances must be an object")
    unknown = set(tol) - _TOL_KEYS
    if unknown:
        raise ScenarioFileError(f"unknown tolerance keys: {sorted(unknown)}")

    try:
        scenario = Scenario(
            bob_angle=bob,
            eve_angles=eves,
            noise_power=_require_number(data, "noise_power", 1.0),
            power_budget=_require_number(data, "power_budget", 1.0),
            wavelength=wavelength,
            aperture=_require_number(data, "aperture", 10.0 * wavelength),
            min_spacing=_require_number(data, "min_spacing", 0.5 * wavelength),
        )
        pga = PgaConfig(
            step_size=_require_number(data, "step_size", 0.01),
            max_inner_iters=_require_int(tol, "max_inner_iters", 500),
            inner_tol=_require_number(tol, "inner_tol", 1e-8),
        )
        config = SolveConfig(
            pga=pga,
            max_outer_iters=_require_int(tol, "max_outer_iters", 50),
            outer_tol=_require_number(tol, "outer_tol", 1e-6),
        )
    except ValueError as exc:
        raise ScenarioFileError(str(exc)) from exc

    return RunSpec(scenario=scenario, n_antennas=n, config=config,
                   seed=_require_int(data, "seed", 0))


def load_run_spec(path) -> RunSpec:
    """Read and validate a scenario file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioFileError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"invalid JSON in {path}: {exc}") from exc
    return parse_run_spec(data)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def write_outer_trace(path, trace: OptimizationTrace):
    _write_csv(path, ["iter", "rate_after_w", "rate_after_x"],
               [(r.iteration, r.rate_after_w, r.rate_after_x)
                for r in trace.outer])


def write_inner_traces(out_dir, trace: OptimizationTrace):
    """One ``trace_inner_<k>.csv`` per round; older ones past the last go."""
    out_dir = Path(out_dir)
    for k, psis in enumerate(trace.inner, start=1):
        _write_csv(out_dir / f"trace_inner_{k}.csv", ["iter", "psi"],
                   list(enumerate(psis)))
    for path in out_dir.glob("trace_inner_*.csv"):
        k = path.stem.removeprefix("trace_inner_")
        if k.isdigit() and int(k) > trace.n_outer:
            path.unlink()


def write_beampattern(path, thetas, gains):
    _write_csv(path, ["theta_rad", "gain"], zip(thetas, gains))


def write_sweep(path, rows):
    """Rows of (N, P_A, rate_ma, rate_fpa, error-or-empty-string)."""
    _write_csv(path, ["N", "P_A", "rate_ma", "rate_fpa", "error"], rows)


def write_solution(path, trace: OptimizationTrace):
    doc = {
        "final_x": [float(v) for v in trace.final_x],
        "final_w": [[float(c.real), float(c.imag)] for c in trace.final_w],
        "final_rate": float(trace.final_rate),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_solution(path):
    """Read a solution file as (positions, beamformer, rate), type-checked.

    The positions and the beamformer are read-only arrays; they are not
    checked against a scenario.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ScenarioFileError("solution file must hold a JSON object")
    xs, ws = doc.get("final_x"), doc.get("final_w")
    if not _is_number_list(xs):
        raise ScenarioFileError("final_x must be a non-empty list of numbers")
    if not (isinstance(ws, list) and len(ws) == len(xs)
            and all(_is_number_list(p) and len(p) == 2 for p in ws)):
        raise ScenarioFileError("final_w must hold one [re, im] per position")
    rate = _require_number(doc, "final_rate")
    x = np.asarray(xs, dtype=float)
    w = np.asarray([complex(re, im) for re, im in ws])
    if np.any(np.diff(x) < 0.0):
        raise ScenarioFileError("final_x must be in ascending order")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w, rate
