"""Verification oracles for the solver.

The gradient and beamformer checks avoid the closed-form paths they
check: gradients are re-derived by central finite differences and the
beamformer optimum is stress-tested against random sampling.  The grid
check does not: every instance whose gap grid with x_1 = 0 holds at
most ``GRID_MAX_EVALS`` layouts, at any N, is solved exhaustively on
it with the solver's own scan routine (below).  Each check draws
its random samples first and then evaluates them as one (K, N) stack:
the lift identity compares ``real_lift`` with the steering-vector gains
of ``beam_gain`` on 200 samples, ``fd_gradient`` perturbs every
coordinate of every sample in one ``objective_psi`` call, and the
beamformer checks take the forms of five layouts as one (K, N, N)
stack.  Stationarity scales the residual (A + S) w - lambda (B + S) w,
S = I / P_A, by (||A + S|| + |lambda| ||B + S||) ||w||, the backward
error of the eigenpair, so an exact eigenvector reads about eps at any
power.  At high power that residual cannot tell lambda from lambda / 2,
since w lies near the null space of B, so the same check also holds
log2 of the Rayleigh quotient w^H (A + S) w / w^H (B + S) w to log2
lambda within the rounding allowance of a rate,
``beamformer._rate_slack``.  ``sample_beamformers`` scores each draw u
unscaled, as
u^H (I + P_A A) u / u^H (I + P_A B) u, which is the Rayleigh ratio at
the power-feasible w along u.  A layout is a
stack of one in ``core``, so each row of these stacks has the bits of
the same call on that sample alone, and every (positions, beamformer)
input is checked by the one rule of ``core._stack_of_one``.  The grid
runs
the solver's start-scan routine, ``best_gap_layout``: its seed pass,
its enumerators of tuples and of runs of tuples, its table-driven
bounds on whole runs and on tuples, its screen, which keeps one best
layout per power and scores the mirrors of the layouts near it, and
its scorer.  So the grid comparison reads the algorithm's rate from
``secrecy_rate`` at the returned solution, never from that scorer.
Every step scales with the wavelength, as the solver's steps and
tolerances do: the finite-difference step is 1e-6 wavelengths and
the grid step a fiftieth of one, so a scenario checks alike in any
length unit.  The oracles ship with the package (see the ``verify``
CLI command) so any scenario can be re-validated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamformer import (_rate_slack, best_gap_layout, build_forms,
                         optimal_beamformer, solve_beamformer)
from .core import LN2, Scenario, _stack_of_one, beam_gain
from .driver import SolveConfig, solve
from .positions import gradient_psi, objective_psi, random_positions, real_lift

# Most gap layouts one exhaustive search may cover.
GRID_MAX_EVALS = 10_000_000

# Draws that ``sample_beamformers`` scores at a time: its complex buffers
# then stay small next to the (count, N) real parts it must hold.
SAMPLE_BLOCK_ROWS = 2048


def fd_gradient(x, w, scenario: Scenario, h=None) -> np.ndarray:
    """Central-difference gradient of the unclamped objective.

    Component n is (Psi(x + h e_n) - Psi(x - h e_n)) / (2 h), evaluated
    without projection: this checks the smooth objective that the
    analytic gradient differentiates, not the constrained update.  The
    step ``h`` is 1e-6 wavelengths by default.

    ``x`` and ``w`` are one layout and its beamformer, or (K, N) stacks
    that give one gradient per row.  All 2 K N perturbed layouts go to
    one ``objective_psi`` call; adding h I moves one coordinate of each
    and adds exact zeros to the others.
    """
    h = 1e-6 * scenario.wavelength if h is None else h
    if not h > 0.0:
        raise ValueError("step h must be positive")
    X, W = _stack_of_one(x, w)
    k, n = X.shape
    step = h * np.eye(n)
    shifted = np.concatenate([X[:, None] + step, X[:, None] - step], axis=1)
    psi = objective_psi(shifted.reshape(-1, n), np.repeat(W, 2 * n, axis=0),
                        scenario).reshape(k, 2, n)
    grad = (psi[:, 0] - psi[:, 1]) / (2.0 * h)
    return grad if np.ndim(x) == 2 else grad[0]


def sample_beamformers(forms, scenario: Scenario, count: int, seed):
    """Best Rayleigh objective over random power-feasible beamformers.

    ``forms`` is one pair of (N, N) forms with an integer ``seed``, or a
    stack of (K, N, N) forms with a sequence of K seeds, one per layout.
    Each layout draws ``count`` vectors u from ``default_rng(seed)``, the
    real parts and then the imaginary parts as (count, N) standard
    normals, and takes the largest value of (1 + w^H A w) / (1 + w^H B w)
    over the power-feasible beamformers w = sqrt(P_A) u / ||u||.  That
    ratio equals u^H (I + P_A A) u / u^H (I + P_A B) u, so the draws are
    scored unscaled: one matmul per form and one row dot each.  The real
    parts go into one (count, N) buffer, and the imaginary parts are
    drawn and scored ``SAMPLE_BLOCK_ROWS`` at a time, in buffers that
    every layout of the stack reuses.

    Returns a float for one pair and K floats for a stack, each with the
    bits of its layout's call alone.  Deterministic for a fixed seed;
    the result can never exceed the closed-form optimum.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    A, B = forms.A, forms.B
    if single:
        A, B = A[None], B[None]
    if A.ndim != 3 or len(A) != len(seeds):
        raise ValueError(f"forms {np.shape(forms.A)} and seeds "
                         f"{np.shape(seed)} disagree")
    n = forms.n
    eye, power = np.eye(n), scenario.power_budget
    rows = min(count, SAMPLE_BLOCK_ROWS)
    re, im = np.empty((count, n)), np.empty((rows, n))
    U = np.empty((rows, n), dtype=complex)
    Y = np.empty_like(U)

    def form(u, M):
        # u^H M u is real for Hermitian M: the real and imaginary parts
        # of u dotted with those of M u, as one dot over the float view
        y = np.matmul(u, M.T, out=Y[:len(u)])
        return np.einsum("ki,ki->k", u.view(float), y.view(float))

    best = np.full(len(seeds), -np.inf)
    for k, (a, b, s) in enumerate(zip(A, B, seeds)):
        # every real part precedes every imaginary part in the stream;
        # the imaginary parts are drawn and scored a block at a time
        rng = np.random.default_rng(s)
        rng.standard_normal(out=re)
        Ma, Mb = eye + power * a, eye + power * b
        for lo in range(0, count, rows):
            u = U[:min(rows, count - lo)]
            rng.standard_normal(out=im[:len(u)])
            u.real = re[lo:lo + len(u)]
            u.imag = im[:len(u)]
            best[k] = max(best[k], np.max(form(u, Ma) / form(u, Mb)))
    return float(best[0]) if single else best


def grid_search(scenario: Scenario, n: int, resolution: float):
    """Exhaustive joint optimum of N antennas over a gap grid (global oracle).

    A shift of the array does not change the rate, so the grid fixes
    x_1 = 0 and widens each gap from d_min in steps of ``resolution``
    while the layout fits the aperture.  ``GRID_MAX_EVALS`` caps the
    number of these layouts, whatever N.  The search runs at the one
    power ``scenario.power_budget``, ``best_gap_layout``'s default.
    Mirroring the array does not change the rate either, so
    ``best_gap_layout`` considers one layout
    of each mirror pair, and it solves the pencil only where a cheap
    upper bound on the rate can still reach the best; where one bound
    rules out a whole run of layouts, it does not build them.  It scores
    the mirror of each scored layout whose rate lies within rounding of
    the running best.  Every layout it skips is certified below the
    best, so it returns the optimum of the full grid.  Exact rate ties
    resolve to the lexicographically smallest layout.  The layouts, and
    the runs of them, come in blocks built from their ranks, and the
    search keeps one best layout, so the memory does not grow with the
    number of layouts at any N, even at N = 2 with millions of levels.

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

    [(positions, best_rate)] = best_gap_layout(n, scenario, levels,
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
    as one (K, N) stack.  The gradient check divides each row by a power
    of two near its largest entry before taking norms, which is exact,
    so it reads the same far below unit SNR, where the gradient's
    squared entries would underflow.  The stationarity check solves its
    five layouts in one ``solve_beamformer`` call and scales each
    residual by the pencil's backward-error norm,
    (||A + S|| + |lambda| ||B + S||) ||w|| with S = I / P_A; it also
    fails where log2 of the Rayleigh quotient of w differs from
    log2 lambda by more than ``_rate_slack``, and reports both on its
    line.  The sampling check scores the same five layouts in one
    ``sample_beamformers`` call, one seed each.
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

    X, W = _random_samples(20, n, scenario, rng)
    analytic = gradient_psi(X, W, scenario)
    numeric = fd_gradient(X, W, scenario)
    h = 1e-6 * scenario.wavelength
    # a central difference carries rounding noise of about eps S sqrt(N)/h,
    # S the sum of Psi's log2 terms; flooring the denominator at 1e6 times
    # that holds noise alone (all of the estimate at N = 1) to 1e-6
    gains = [beam_gain(X, W, t, scenario) for t in scenario.angles]
    size = (np.log1p(gains[0] / scenario.noise_power)
            + np.log1p(sum(gains[1:]) / scenario.noise_power)) / LN2
    noise = np.finfo(float).eps * size * math.sqrt(n) / h
    # each row is divided by a power of two near its largest entry, which
    # is exact, so the norms square no entry below the smallest float
    shift = -np.frexp(np.max(np.abs([analytic, numeric]), axis=(0, 2)))[1]
    analytic = np.ldexp(analytic, shift[:, None])
    numeric = np.ldexp(numeric, shift[:, None])
    scale = np.maximum(np.linalg.norm(numeric, axis=1),
                       1e6 * np.ldexp(noise, shift))
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
    lam, w = sol.eigenvalue, sol.beamformer[..., None]
    # (A + S) w - lam (B + S) w, S = I / P_A, rounds to about
    # eps (||A + S|| + |lam| ||B + S||) ||w||: the scale of the pencil's
    # backward error, under which an exact eigenpair reads near eps
    shift = np.eye(n) / scenario.power_budget
    A, B = forms.A + shift, forms.B + shift
    # the scaled residual and the quotient below are homogeneous in (A, B)
    # and in w, so A and B are divided by a power of two near B's largest
    # entry and w by one near its norm: exact, and the squares the norms
    # form stay finite at a small sigma^2
    scale = 2.0 ** -np.frexp(np.abs(B).max())[1]
    A, B = scale * A, scale * B
    w = 2.0 ** -np.frexp(math.sqrt(scenario.power_budget))[1] * w
    Aw, Bw = A @ w, B @ w
    resid = np.linalg.norm(Aw - lam[:, None, None] * Bw, axis=(1, 2))
    resid /= np.linalg.norm(w, axis=(1, 2)) * (
        np.linalg.norm(A, 2, axis=(1, 2))
        + np.abs(lam) * np.linalg.norm(B, 2, axis=(1, 2)))
    resid_worst = float(np.max(resid))
    # the Rayleigh quotient of w is lam up to the rounding of a rate,
    # which catches a wrong lam where w is near the null space of B
    wh = w.conj().swapaxes(1, 2)
    quotient = (wh @ Aw).real / (wh @ Bw).real
    gap_worst = float(np.max(np.abs(np.log2(quotient[:, 0, 0])
                                    - np.log2(lam))))
    slack = float(_rate_slack(n, scenario))
    best = sample_beamformers(forms, scenario, 10_000, seeds)
    margin_worst = float(np.min(lam - best))
    checks.append(VerifyCheck(
        "beamformer-stationarity",
        "pass" if resid_worst <= 1e-8 and gap_worst <= slack else "fail",
        f"max scaled residual {resid_worst:.3e} (tol 1e-08), max log2 "
        f"Rayleigh quotient gap {gap_worst:.3e} (tol {slack:.3e})"))
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
