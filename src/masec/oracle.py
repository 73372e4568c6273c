"""Independent verification oracles.

Everything here deliberately avoids the closed-form paths it checks:
gradients are re-derived by central finite differences, the beamformer
optimum is stress-tested against random sampling, and small instances
are solved exhaustively on a gap grid with x_1 = 0.  The grid shares
its enumerator and scorer with the solver's start scan, so the grid
comparison reads the algorithm's rate from ``secrecy_rate`` at the
returned solution, never from that scorer.  The oracles ship with the
package (see the ``verify`` CLI command) so any scenario can be re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformer import (best_gap_layout, build_forms, optimal_beamformer,
                         solve_beamformer)
from .core import Scenario, beam_gain
from .driver import SolveConfig, solve
from .positions import gradient_psi, objective_psi, random_positions, real_lift

# Most gap layouts one exhaustive search may cover.
GRID_MAX_EVALS = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    """Exhaustive-search grid: gap step ``resolution`` and antenna count."""

    resolution: float
    n: int

    def __post_init__(self):
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")
        if not 1 <= self.n <= 3:
            raise ValueError("grid search supports 1 <= N <= 3 only")


def fd_gradient(x, w, scenario: Scenario, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the unclamped objective.

    Component n is (Psi(x + h e_n) - Psi(x - h e_n)) / (2 h), evaluated
    without projection: this checks the smooth objective that the
    analytic gradient differentiates, not the constrained update.
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    xs = np.array(x, dtype=float)
    grad = np.zeros(xs.size)
    for i in range(xs.size):
        orig = xs[i]
        xs[i] = orig + h
        plus = objective_psi(xs, w, scenario)
        xs[i] = orig - h
        minus = objective_psi(xs, w, scenario)
        xs[i] = orig
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


def sample_beamformers(forms, scenario: Scenario, count: int, seed: int) -> float:
    """Best Rayleigh objective over random power-feasible beamformers.

    Draws ``count`` vectors with i.i.d. standard-normal real/imaginary
    parts, scales each to ||w||^2 = P_A and returns the largest value of
    (1 + w^H A w) / (1 + w^H B w).  Deterministic for a fixed seed; the
    result can never exceed the closed-form optimum.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    n = forms.n
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    W *= (np.sqrt(scenario.power_budget) / np.linalg.norm(W, axis=1))[:, None]
    num = 1.0 + np.einsum("ki,ij,kj->k", W.conj(), forms.A, W).real
    den = 1.0 + np.einsum("ki,ij,kj->k", W.conj(), forms.B, W).real
    return float(np.max(num / den))


def grid_search(scenario: Scenario, spec: GridSpec):
    """Exhaustive joint optimum over a gap grid (global oracle).

    A shift of the array does not change the rate, so the grid fixes
    x_1 = 0 and widens each gap from d_min in steps of ``spec.resolution``
    while the layout fits the aperture.  ``GRID_MAX_EVALS`` caps the
    number of these layouts.  Mirroring the array does not change the
    rate either, so ``best_gap_layout`` considers one layout of each
    mirror pair, and it solves the pencil only where a cheap upper bound
    on the rate can still reach the best.  Every layout it skips is
    certified below the best, so it returns the optimum of the full
    grid.  Exact rate ties resolve to the lexicographically smallest
    layout.

    Returns:
        (ndarray, ndarray, float): best grid positions, the optimal
        beamformer there, both read-only, and the clamped secrecy rate.
    """
    scenario.check_feasible(spec.n)
    slack = scenario.aperture - (spec.n - 1) * scenario.min_spacing
    levels = max(0, math.floor(slack / spec.resolution + 1e-9))
    total = math.comb(levels + spec.n - 1, spec.n - 1)
    if total > GRID_MAX_EVALS:
        raise ValueError(f"grid too large: {total} evaluations exceed the cap "
                         f"{GRID_MAX_EVALS}")

    positions, best_rate = best_gap_layout(spec.n, scenario, levels,
                                           spec.resolution)
    w = optimal_beamformer(build_forms(positions, scenario), scenario)
    return positions, w, best_rate


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)


def _random_beamformer(n, scenario, rng):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w * np.sqrt(scenario.power_budget) / np.linalg.norm(w)


def run_verification(scenario: Scenario, n: int, seed: int = 0,
                     gradient_fn=None,
                     cfg: SolveConfig | None = None) -> VerifyReport:
    """Run the oracle suite against one scenario.

    Checks the lift identity, the analytic gradient against central
    finite differences, beamformer stationarity and sampling optimality,
    and (for N <= 3, when the grid fits the evaluation cap) the
    alternating solver, run with ``cfg`` (the default settings when
    None), against the exhaustive grid oracle, whose gap step is a
    fiftieth of the wavelength.

    ``gradient_fn`` overrides the gradient under test; it exists as a
    hook for negative-control tests.
    """
    rng = np.random.default_rng(seed)
    grad_fn = gradient_psi if gradient_fn is None else gradient_fn
    checks = []

    err = 0.0
    for _ in range(200):
        x = random_positions(n, scenario, rng)
        w = _random_beamformer(n, scenario, rng)
        gains = real_lift(x, w, scenario).gains()
        for i, theta in enumerate(scenario.angles):
            direct = beam_gain(x, w, theta, scenario)
            err = max(err, abs(gains[i] - direct) / max(1.0, direct))
    checks.append(VerifyCheck(
        "lift-identity", "pass" if err <= 1e-9 else "fail",
        f"max relative error {err:.3e} (tol 1e-09)"))

    err = 0.0
    h = 1e-6
    for _ in range(20):
        x = random_positions(n, scenario, rng)
        w = _random_beamformer(n, scenario, rng)
        analytic = grad_fn(x, w, scenario)
        numeric = fd_gradient(x, w, scenario, h=h)
        # a central difference carries rounding noise of about eps S sqrt(N)/h,
        # S the sum of Psi's log2 terms; flooring the denominator at 1e6 times
        # that holds noise alone (all of the estimate at N = 1) to 1e-6
        gains = [beam_gain(x, w, t, scenario) for t in scenario.angles]
        size = sum(math.log2(1.0 + g / scenario.noise_power)
                   for g in (gains[0], sum(gains[1:])))
        noise = np.finfo(float).eps * size * math.sqrt(n) / h
        scale = max(float(np.linalg.norm(numeric)), 1e6 * noise)
        err = max(err, float(np.linalg.norm(analytic - numeric)) / scale)
    checks.append(VerifyCheck(
        "fd-gradient", "pass" if err <= 1e-5 else "fail",
        f"max relative L2 error {err:.3e} (tol 1e-05)"))

    resid_worst = 0.0
    margin_worst = np.inf
    for _ in range(5):
        x = random_positions(n, scenario, rng)
        forms = build_forms(x, scenario)
        sol = solve_beamformer(forms, scenario)
        wv = sol.beamformer
        shift = np.eye(n) / scenario.power_budget
        resid = np.linalg.norm((forms.A + shift) @ wv
                               - sol.eigenvalue * ((forms.B + shift) @ wv))
        resid /= np.linalg.norm(wv) * np.linalg.norm(forms.A + shift, 2)
        resid_worst = max(resid_worst, float(resid))
        best = sample_beamformers(forms, scenario, 10_000,
                                  int(rng.integers(2**31)))
        margin_worst = min(margin_worst, sol.eigenvalue - best)
    checks.append(VerifyCheck(
        "beamformer-stationarity",
        "pass" if resid_worst <= 1e-8 else "fail",
        f"max scaled residual {resid_worst:.3e} (tol 1e-08)"))
    checks.append(VerifyCheck(
        "beamformer-sampling",
        "pass" if margin_worst >= -1e-9 else "fail",
        f"min (optimum - best sample) {margin_worst:.3e}"))

    if n > 3:
        checks.append(VerifyCheck("grid-comparison", "skip",
                                  f"exhaustive search limited to N <= 3, N={n}"))
    else:
        spec = GridSpec(resolution=scenario.wavelength / 50, n=n)
        try:
            _, _, grid_rate = grid_search(scenario, spec)
        except ValueError as exc:
            checks.append(VerifyCheck("grid-comparison", "skip", str(exc)))
        else:
            alg_rate = solve(n, scenario, cfg).final_rate
            ok = alg_rate >= 0.95 * grid_rate - 1e-12
            checks.append(VerifyCheck(
                "grid-comparison", "pass" if ok else "fail",
                f"algorithm {alg_rate:.6f} vs grid {grid_rate:.6f} bps/Hz "
                "(threshold 0.95)"))

    return VerifyReport(checks=tuple(checks))
