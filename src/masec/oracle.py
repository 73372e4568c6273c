"""Verification oracles for the solver.

The gradient and beamformer checks avoid the closed-form paths they
check: gradients are re-derived by central finite differences and the
beamformer optimum is stress-tested against random sampling.  The grid
check does not: every instance whose gap grid with x_1 = 0 holds at
most ``GRID_MAX_EVALS`` layouts, at any N, is solved exhaustively on
it with the solver's own scan routine (below).  Each check draws
its random samples first and then evaluates them as one (K, N) stack:
the lift identity compares ``real_lift`` with the steering-vector gains
of ``beam_gain`` on 200 samples, and ``fd_gradient`` perturbs every
coordinate of every sample in one ``objective_psi`` call.  A layout is a
stack of one in ``core``, so each row of these stacks has the bits of
the same call on that sample alone.  The grid runs
the solver's start-scan routine, ``best_gap_layout``: its seed pass,
its enumerators of tuples and of runs of tuples, its table-driven
bounds on whole runs and on tuples, and its scorer.  So the grid
comparison reads the algorithm's rate from ``secrecy_rate`` at the
returned solution, never from that scorer.  The oracles ship with the
package (see the ``verify`` CLI command) so any scenario can be re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformer import (QuadraticForms, best_gap_layout, build_forms,
                         optimal_beamformer, solve_beamformer)
from .core import Scenario, beam_gain
from .driver import SolveConfig, solve
from .positions import gradient_psi, objective_psi, random_positions, real_lift

# Most gap layouts one exhaustive search may cover.
GRID_MAX_EVALS = 10_000_000


def fd_gradient(x, w, scenario: Scenario, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the unclamped objective.

    Component n is (Psi(x + h e_n) - Psi(x - h e_n)) / (2 h), evaluated
    without projection: this checks the smooth objective that the
    analytic gradient differentiates, not the constrained update.

    ``x`` and ``w`` are one layout and its beamformer, or (K, N) stacks
    that give one gradient per row.  All 2 K N perturbed layouts go to
    one ``objective_psi`` call; adding h I moves one coordinate of each
    and adds exact zeros to the others.
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    xs, wv = np.asarray(x, dtype=float), np.asarray(w, dtype=complex)
    if xs.shape != wv.shape or not 1 <= xs.ndim <= 2:
        raise ValueError(f"positions {xs.shape} and beamformer {wv.shape} "
                         "dimensions disagree")
    X, W = np.atleast_2d(xs, wv)
    k, n = X.shape
    step = h * np.eye(n)
    shifted = np.concatenate([X[:, None] + step, X[:, None] - step], axis=1)
    psi = objective_psi(shifted.reshape(-1, n), np.repeat(W, 2 * n, axis=0),
                        scenario).reshape(k, 2, n)
    grad = (psi[:, 0] - psi[:, 1]) / (2.0 * h)
    return grad if xs.ndim == 2 else grad[0]


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

    def form(M):
        # w^H M w is real for Hermitian M: Re(w)^T Re(M w) + Im(w)^T Im(M w)
        V = W @ M.T
        return (np.einsum("ki,ki->k", W.real, V.real)
                + np.einsum("ki,ki->k", W.imag, V.imag))

    return float(np.max((1.0 + form(forms.A)) / (1.0 + form(forms.B))))


def grid_search(scenario: Scenario, n: int, resolution: float):
    """Exhaustive joint optimum of N antennas over a gap grid (global oracle).

    A shift of the array does not change the rate, so the grid fixes
    x_1 = 0 and widens each gap from d_min in steps of ``resolution``
    while the layout fits the aperture.  ``GRID_MAX_EVALS`` caps the
    number of these layouts, whatever N.  Mirroring the array does not
    change the rate either, so ``best_gap_layout`` considers one layout
    of each mirror pair, and it solves the pencil only where a cheap
    upper bound on the rate can still reach the best; where one bound
    rules out a whole run of layouts, it does not build them.  Every
    layout it skips is certified below the best, so it returns the
    optimum of the full grid.  Exact rate ties resolve to the
    lexicographically smallest layout.  The layouts, and the runs of
    them, come in blocks built from their ranks, so the memory does not
    grow with the number of layouts at any N, even at N = 2 with
    millions of levels.

    Returns:
        (ndarray, ndarray, float): best grid positions, the optimal
        beamformer there, both read-only, and the clamped secrecy rate.
    """
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    scenario.check_feasible(n)
    slack = scenario.aperture - (n - 1) * scenario.min_spacing
    levels = max(0, math.floor(slack / resolution + 1e-9))
    total = math.comb(levels + n - 1, n - 1)
    if total > GRID_MAX_EVALS:
        raise ValueError(f"grid too large: {total} evaluations exceed the cap "
                         f"{GRID_MAX_EVALS}")

    [(positions, best_rate)] = best_gap_layout(n, [scenario], levels,
                                               resolution)
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


def _random_samples(count, n, scenario, rng):
    """``count`` random layouts and power-feasible beamformers as (K, N) stacks.

    Each sample draws its positions, then the real and the imaginary
    parts of its beamformer, as ``random_positions`` and two
    ``standard_normal`` calls would, into rows of preallocated arrays;
    the sorting, the spacing offsets and the power scaling then act on
    the whole stack at once.
    """
    scenario.check_feasible(n)
    span = max(scenario.aperture - (n - 1) * scenario.min_spacing, 0.0)
    X, re, im = np.empty((count, n)), np.empty((count, n)), np.empty((count, n))
    for x, r, i in zip(X, re, im):
        x[:] = rng.uniform(0.0, span, size=n)
        rng.standard_normal(out=r)
        rng.standard_normal(out=i)
    X.sort(axis=1)
    X += scenario.min_spacing * np.arange(n)
    W = re + 1j * im
    W *= np.sqrt(scenario.power_budget) / np.linalg.norm(W, axis=1)[:, None]
    return X, W


def run_verification(scenario: Scenario, n: int, seed: int = 0,
                     cfg: SolveConfig = SolveConfig()) -> VerifyReport:
    """Run the oracle suite against one scenario.

    Checks the lift identity, the analytic gradient against central
    finite differences, beamformer stationarity and sampling optimality,
    and, when the grid fits ``GRID_MAX_EVALS``, the solver, run with
    ``cfg`` (by default the value ascent, as ``verify`` runs it), against
    the exhaustive grid oracle, whose gap step is a fiftieth of the
    wavelength.  A grid over the cap is a skip, at any N.

    The lift identity and the gradient check each evaluate their samples
    as one (K, N) stack, and the stationarity check solves its five
    layouts in one ``solve_beamformer`` call.
    """
    rng = np.random.default_rng(seed)
    checks = []

    X, W = _random_samples(200, n, scenario, rng)
    direct = np.stack([beam_gain(X, W, t, scenario) for t in scenario.angles],
                      axis=1)
    lifted = real_lift(X, W, scenario).gains()
    err = float(np.max(np.abs(lifted - direct) / np.maximum(1.0, direct)))
    checks.append(VerifyCheck(
        "lift-identity", "pass" if err <= 1e-9 else "fail",
        f"max relative error {err:.3e} (tol 1e-09)"))

    h = 1e-6
    X, W = _random_samples(20, n, scenario, rng)
    analytic = gradient_psi(X, W, scenario)
    numeric = fd_gradient(X, W, scenario, h=h)
    # a central difference carries rounding noise of about eps S sqrt(N)/h,
    # S the sum of Psi's log2 terms; flooring the denominator at 1e6 times
    # that holds noise alone (all of the estimate at N = 1) to 1e-6
    gains = [beam_gain(X, W, t, scenario) for t in scenario.angles]
    size = (np.log2(1.0 + gains[0] / scenario.noise_power)
            + np.log2(1.0 + sum(gains[1:]) / scenario.noise_power))
    noise = np.finfo(float).eps * size * math.sqrt(n) / h
    scale = np.maximum(np.linalg.norm(numeric, axis=1), 1e6 * noise)
    err = float(np.max(np.linalg.norm(analytic - numeric, axis=1) / scale))
    checks.append(VerifyCheck(
        "fd-gradient", "pass" if err <= 1e-5 else "fail",
        f"max relative L2 error {err:.3e} (tol 1e-05)"))

    X = np.empty((5, n))
    seeds = []
    for x in X:
        x[:] = random_positions(n, scenario, rng)
        seeds.append(int(rng.integers(2**31)))
    forms = build_forms(X, scenario)
    sol = solve_beamformer(forms, scenario)
    shift = np.eye(n) / scenario.power_budget
    resid_worst = 0.0
    margin_worst = np.inf
    for A, B, wv, lam, sample_seed in zip(forms.A, forms.B, sol.beamformer,
                                          sol.eigenvalue, seeds):
        resid = np.linalg.norm((A + shift) @ wv - lam * ((B + shift) @ wv))
        resid /= np.linalg.norm(wv) * np.linalg.norm(A + shift, 2)
        resid_worst = max(resid_worst, float(resid))
        best = sample_beamformers(QuadraticForms(A=A, B=B), scenario, 10_000,
                                  sample_seed)
        margin_worst = min(margin_worst, lam - best)
    checks.append(VerifyCheck(
        "beamformer-stationarity",
        "pass" if resid_worst <= 1e-8 else "fail",
        f"max scaled residual {resid_worst:.3e} (tol 1e-08)"))
    checks.append(VerifyCheck(
        "beamformer-sampling",
        "pass" if margin_worst >= -1e-9 else "fail",
        f"min (optimum - best sample) {margin_worst:.3e}"))

    try:
        _, _, grid_rate = grid_search(scenario, n, scenario.wavelength / 50)
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
