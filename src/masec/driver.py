"""Alternating optimization of beamformer and antenna positions.

The start layout is the best point of a deterministic scan over the
antenna gaps, scored by the optimal-beamformer rate.  From there each
outer round first solves the beamformer in closed form and then runs
projected gradient ascent on the positions.  Both steps can only
improve the unclamped objective, so the end-of-round secrecy rate is
non-decreasing and the loop terminates at a prescribed accuracy.
Further starts run as chains of the same loop, in lockstep.  The
fixed-position (FPA) baseline keeps the uniform layout and optimizes
the beamformer once; it is one of the scanned layouts, so the solver
never reports less than the FPA rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .beamformer import best_gap_layout, build_forms, optimal_beamformer
from .core import Scenario, secrecy_rate
from .positions import PgaConfig, optimize_positions

# Start scan: finest gap step (in wavelengths) and how many gap tuples
# one solve may score, for N <= 4 and for larger N; past the budget the
# step is coarsened.
SCAN_STEPS_PER_WAVELENGTH = 50
SCAN_BUDGET_SMALL_N = 100_000
SCAN_BUDGET_LARGE_N = 3_000


@dataclass(frozen=True)
class SolveConfig:
    """Outer-loop settings around the per-round PGA configuration."""

    pga: PgaConfig = field(default_factory=PgaConfig)
    max_outer_iters: int = 50
    outer_tol: float = 1e-6

    def __post_init__(self):
        if not self.max_outer_iters >= 1:
            raise ValueError("max_outer_iters must be positive")
        if not self.outer_tol > 0.0:
            raise ValueError("outer_tol must be positive")


@dataclass(frozen=True)
class OuterRecord:
    """Secrecy rate after each half-step of one outer round (1-based)."""

    iteration: int
    rate_after_w: float
    rate_after_x: float


@dataclass
class OptimizationTrace:
    """Full record of one alternating solve.

    ``inner[k]`` holds the Psi trace of round k's position ascent
    (entry 0 is the starting value).  The sequence of ``rate_after_x``
    values is non-decreasing up to floating-point noise.
    """

    outer: list
    inner: list
    final_x: np.ndarray
    final_w: np.ndarray
    final_rate: float
    converged: bool

    @property
    def n_outer(self) -> int:
        return len(self.outer)


def initial_positions(n: int, scenario: Scenario) -> np.ndarray:
    """Uniform layout [0, d_min, ..., (N-1) d_min]; also the FPA layout."""
    scenario.check_feasible(n)
    x = scenario.min_spacing * np.arange(n, dtype=float)
    x.setflags(write=False)
    return x


def _scan_levels(n: int, slack: float, scenario: Scenario) -> int:
    """Largest step count K within the finest step and the tuple budget.

    The scan holds C(K + N - 1, N - 1) tuples; K is found by bisection.
    """
    budget = SCAN_BUDGET_SMALL_N if n <= 4 else SCAN_BUDGET_LARGE_N
    hi = int(math.floor(slack * SCAN_STEPS_PER_WAVELENGTH
                        / scenario.wavelength + 1e-9))
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid + n - 1, n - 1) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def scan_start(n: int, scenario: Scenario) -> np.ndarray:
    """Best layout of a gap grid, scored by the optimal-beamformer rate.

    Shifting every antenna by c multiplies each steering vector by one
    phase, so the rate depends only on the N-1 gaps.  Candidates fix
    x_1 = 0 and widen the gaps to d_min + h k_j with integers k_j >= 0,
    sum k_j <= K and K h = L - (N-1) d_min, the slack.  The step h is
    lambda/50 or, where the tuple budget requires it, coarser.  The
    all-zero tuple is the FPA layout, so the start never scores below
    it; exact rate ties keep the earliest tuple.  Without slack (N = 1
    or L = (N-1) d_min) the FPA layout is the only candidate.
    """
    slack = scenario.aperture - (n - 1) * scenario.min_spacing
    levels = _scan_levels(n, slack, scenario) if n > 1 else 0
    if levels < 1:
        return initial_positions(n, scenario)
    return best_gap_layout(n, scenario, levels, slack / levels)[0]


def _settled(rounds, tol: float) -> bool:
    """Whether the last two rounds' end rates differ by at most ``tol``."""
    return (len(rounds) > 1
            and abs(rounds[-1].rate_after_x - rounds[-2].rate_after_x) <= tol)


def solve(n: int, scenario: Scenario, cfg: SolveConfig | None = None,
          x0=None, extra_starts=None) -> OptimizationTrace:
    """Alternating optimization of (w, x) for the secrecy rate.

    Each round updates the beamformer in closed form for the current
    positions, then improves the positions by projected gradient ascent;
    the loop stops when the end-of-round rate changes by at most
    ``cfg.outer_tol`` or after ``cfg.max_outer_iters`` rounds (reported
    through ``converged``).  The clamp [.]^+ is kept out of the
    optimization and reapplied in the reported rates.

    Every start is one chain.  The chains run their rounds in lockstep,
    with one stacked ``optimize_positions`` call per round, and each
    keeps its own beamformer step and stop test; a chain follows the same
    iterates as a solve from its start alone.

    Args:
        n: number of antennas.
        scenario: problem instance (must satisfy L >= (N-1) d_min).
        cfg: solver settings; defaults reproduce the reference setup.
        x0: optional feasible starting layout (array-like).  The default
            is ``scan_start(n, scenario)``, which makes the result never
            fall below the FPA rate; ``x0=initial_positions(n, scenario)``
            reproduces a run from the uniform FPA layout.
        extra_starts: optional (k, N) stack of further feasible layouts,
            one chain each after the first start.

    Returns:
        OptimizationTrace of the first chain with the highest final
        rate: per-round rates, inner Psi traces and the final solution.
    """
    if cfg is None:
        cfg = SolveConfig()
    first = np.asarray(scan_start(n, scenario) if x0 is None else x0,
                       dtype=float)
    if first.shape != (n,):
        raise ValueError(f"x0 must be one layout of {n} antennas, "
                         f"got shape {first.shape}")
    X = np.array(first, ndmin=2)
    if extra_starts is not None:
        extra = np.asarray(extra_starts, dtype=float)
        if extra.ndim != 2 or extra.shape[1] != n:
            raise ValueError(f"extra starts must be a (k, {n}) stack, "
                             f"got shape {extra.shape}")
        X = np.vstack([X, extra])
    chains = range(len(X))
    outer = [[] for _ in chains]
    inner = [[] for _ in chains]
    w = [None for _ in chains]
    live = list(chains)
    for k in range(1, cfg.max_outer_iters + 1):
        for j in live:
            w[j] = optimal_beamformer(build_forms(X[j], scenario), scenario)
        X[live], psi = optimize_positions(X[live], [w[j] for j in live],
                                          scenario, cfg.pga)
        for r, j in enumerate(live):
            rate_x = secrecy_rate(X[j], w[j], scenario)
            rate_w = max(float(psi[0, r]), 0.0)  # Psi at the round's start
            outer[j].append(OuterRecord(iteration=k, rate_after_w=rate_w,
                                        rate_after_x=rate_x))
            inner[j].append(psi[:, r][~np.isnan(psi[:, r])])
        live = [j for j in live if not _settled(outer[j], cfg.outer_tol)]
        if not live:
            break
    j = max(chains, key=lambda j: outer[j][-1].rate_after_x)
    x = X[j].copy()
    x.setflags(write=False)
    return OptimizationTrace(outer=outer[j], inner=inner[j],
                             final_x=x, final_w=w[j],
                             final_rate=outer[j][-1].rate_after_x,
                             converged=_settled(outer[j], cfg.outer_tol))


def solve_fpa(n: int, scenario: Scenario):
    """Fixed-position baseline: uniform layout, one beamformer solve.

    Returns:
        (ndarray, float): optimal beamformer and its secrecy rate.
    """
    x = initial_positions(n, scenario)
    w = optimal_beamformer(build_forms(x, scenario), scenario)
    return w, secrecy_rate(x, w, scenario)
