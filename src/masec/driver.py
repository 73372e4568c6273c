"""Ascent on antenna positions with the closed-form optimal beamformer.

No layout beats the rate bound log2(1 + N rho), rho = P_A / sigma^2, and
a layout reaches it where every eavesdropper's steering vector is
orthogonal to Bob's.  For N >= 2M the value ascent first seeks such a
null among layouts symmetric about the aperture's centre
(``_null_layout``); where one reaches the bound at a power, that is the
solve at that power, and neither the scan nor an ascent runs.
Otherwise the start layout is the best point of a deterministic scan
over the antenna gaps, scored by the optimal-beamformer rate, and the
paper's Algorithm 1 always starts there.  Two ascents run from the
start, in rounds of one loop, each supplying its own round.
``"alternating"`` is the paper's Algorithm 1:
each round solves the beamformer in closed form and then runs
fixed-step projected gradient ascent on the positions.  Both steps can
only improve the unclamped objective, so the end-of-round secrecy rate
is non-decreasing.  ``"value"``, the default, ascends the value function
F(x) = log2 lambda_max(x) of the beamformer problem, one projected step
per round with Armijo backtracking; by Danskin's theorem its gradient
is the position gradient of the objective at the optimal beamformer.
The step is a quasi-Newton one, in the manner of projected Newton
methods (Bertsekas 1982): each chain keeps a BFGS estimate of the
inverse Hessian and solves its quadratic model on the face of the
spacing and aperture constraints that bind at its layout.  Each stack
of trial layouts of its line search is one pass of
``beamformer._layout_pass``: one steering-vector evaluation gives
lambda_max and, for an accepted layout, its beamformer, secrecy rate
and next gradient.  A value chain whose F reaches the bound within
its rounding stops there.  Further starts
run as chains of the same loop, in lockstep.  Each chain carries its
own power budget, so ``solve_powers`` solves one antenna count at
several budgets in one loop, from one null search and one start scan.
The fixed-position (FPA) baseline keeps the uniform layout and
optimizes the beamformer once; it is one of the scanned layouts, so the
solver never reports less than the FPA rate, and a null is at the bound.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .beamformer import (_layout_pass, _levels_within, _rate_slack,
                         best_gap_layout, build_forms, optimal_beamformer)
from .core import Scenario, check_positions, check_powers, secrecy_rate
from .positions import _face_projector, _project_euclidean, optimize_positions

# Start scan: finest gap step (in wavelengths) and how many gap tuples
# one solve may score, for N <= 4 and for larger N; past the budget the
# step is coarsened.
SCAN_STEPS_PER_WAVELENGTH = 50
SCAN_BUDGET_SMALL_N = 100_000
SCAN_BUDGET_LARGE_N = 3_000

# Value ascent: Armijo's sufficient-increase constant, the halvings of a
# trial step before a chain stalls, the range of the first scaling of a
# chain's inverse-Hessian estimate, in squared wavelengths, and the
# relative size of F's last bit, the least gain a direction must promise.
ARMIJO_C = 1e-4
MAX_HALVINGS = 30
MIN_STEP, MAX_STEP = 1e-8, 1e3
EPS = np.finfo(float).eps

# Null search (``_null_layout``): its seeded random starts, its most
# Levenberg-Marquardt iterations, its first damping, relative to the
# trace of J^T J, and the residual per antenna under which a start
# solves the null equations.
NULL_STARTS = 32
NULL_ITERS = 30
NULL_DAMPING = 1e-3
NULL_RTOL = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    """Every solver setting and its default, the one the CLI runs.

    ``ascent`` picks the ``"value"`` ascent, the default, which reads
    ``step_size`` (its first trial step), ``inner_tol`` (its stop test)
    and ``max_outer_iters``, or the paper's ``"alternating"`` Algorithm 1,
    which reads every field with its reference values.  ``step_size``
    is in squared wavelengths: a gradient scales as one over the
    wavelength, so a step is ``step_size`` lambda^2 times it.
    """

    ascent: str = "value"
    step_size: float = 0.01
    inner_tol: float = 1e-8
    max_inner_iters: int = 500
    outer_tol: float = 1e-6
    max_outer_iters: int = 50

    def __post_init__(self):
        for name in ("step_size", "inner_tol", "outer_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_inner_iters", "max_outer_iters"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be positive")
        # a tuple, so an unhashable ascent is rejected as any other
        if self.ascent not in tuple(_ASCENT_STARTS):
            raise ValueError(f"ascent must be 'alternating' or 'value', "
                             f"got {self.ascent!r}")


@dataclass(frozen=True)
class OuterRecord:
    """Secrecy rate after each half-step of one outer round (1-based)."""

    iteration: int
    rate_after_w: float
    rate_after_x: float


@dataclass
class OptimizationTrace:
    """Full record of one solve.

    ``inner[k]`` holds the trace of round k's position ascent, entry 0
    being the value at the round's start: the Psi values of the PGA
    steps (alternating), or F at each trial step of the line search,
    the accepted one last (value).  The sequence of ``rate_after_x``
    values is non-decreasing up to floating-point noise.

    ``stop_reason`` says why the solve stopped: ``"bound"`` where F
    reached log2(1 + N rho) within ``_rate_slack``, which no layout can
    beat; ``"tol"`` where its stop test held; ``"stalled"`` where a
    line search accepted no trial; ``"cap"`` after ``max_outer_iters``
    rounds.  ``converged`` is read from it: True exactly for
    ``"bound"`` and ``"tol"``.
    """

    outer: list
    inner: list
    final_x: np.ndarray
    final_w: np.ndarray
    final_rate: float
    stop_reason: str

    @property
    def converged(self) -> bool:
        return self.stop_reason in ("bound", "tol")

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
    """Largest step count K within the finest step and the tuple budget."""
    return _levels_within(
        n, SCAN_BUDGET_SMALL_N if n <= 4 else SCAN_BUDGET_LARGE_N,
        int(math.floor(slack * SCAN_STEPS_PER_WAVELENGTH / scenario.wavelength
                       + 1e-9)))


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
    return _scan_starts(n, scenario)[0]


def _scan_starts(n: int, scenario: Scenario, budgets=None) -> list:
    """``scan_start`` at each power of ``budgets``, from one screen.

    ``budgets`` defaults to ``[scenario.power_budget]``.  The grid does
    not depend on the power: ``best_gap_layout`` screens it for every
    budget at once.  Returns one start per budget, in order.
    """
    budgets = [scenario.power_budget] if budgets is None else budgets
    slack = scenario.aperture - (n - 1) * scenario.min_spacing
    levels = _scan_levels(n, slack, scenario) if n > 1 else 0
    if levels < 1:
        return [initial_positions(n, scenario)] * len(budgets)
    return [x for x, _ in best_gap_layout(n, scenario, levels,
                                          slack / levels, budgets)]


def _null_layout(n: int, scenario: Scenario):
    """A layout that nulls every eavesdropper toward Bob, or None.

    Where Gamma_0i = sum_n exp(j kappa_i x_n) = 0 for every eavesdropper
    i, kappa_i = (2 pi / lambda)(cos theta_i - cos theta_0), Bob's
    steering vector is orthogonal to every eavesdropper's, and the
    optimal beamformer reaches log2(1 + N rho), which no layout can beat
    (full-gain null steering: Zhu, Ma, Ning and Zhang, IEEE Commun. Lett.
    2023).  A layout symmetric about the aperture's centre c,
    x = c -+ a_k for k = 1..m = floor(N/2), plus c itself for odd N, has
    Gamma_0i = exp(j kappa_i c) r_i with the real
    r_i = 2 sum_k cos(kappa_i a_k) + [N odd].  That leaves M real
    equations in m unknowns, so a null is expected for N >= 2M, and
    below that none is sought.

    The search is a batched projected Levenberg-Marquardt method on
    r(a) = 0, with J = dr/da.  Its ``NULL_STARTS`` starts are seeded,
    uniform over the half-offsets the spacing and the half aperture
    allow, so two calls give the same bits.  Each iteration tries, for
    every start, a <- P(a - J^T (J J^T + mu I)^-1 r), the damped
    Gauss-Newton step, with mu = nu tr(J^T J): relative to J, so the
    search does not depend on the length unit.  P is
    ``positions._project_euclidean`` on the half-offsets, a_1 >= d_min
    (d_min / 2 for even N), a_k+1 - a_k >= d_min and a_m <= L / 2.  A
    start takes a trial that lowers |r| and divides its nu by 10;
    otherwise it keeps its point and multiplies nu by 10.  The search
    ends at the first start whose every |r_i| is at most
    ``NULL_RTOL`` N, or after ``NULL_ITERS`` iterations with None.
    """
    m, odd = n // 2, n % 2
    d = scenario.min_spacing
    inner = d if odd else 0.5 * d
    span = 0.5 * scenario.aperture - inner - (m - 1) * d
    phases = scenario.steering_phases.imag
    kappa = (phases[1:] - phases[0])[:, None]
    # an eavesdropper at Bob's angle has r_i = N, never 0
    if m < len(kappa) or not span > 0.0 or not kappa.all():
        return None
    # the offsets a_k - inner, with the spacing, in [0, L / 2 - inner]
    half = dataclasses.replace(scenario,
                               aperture=0.5 * scenario.aperture - inner)
    rng = np.random.default_rng(0)
    U = (np.sort(rng.uniform(0.0, span, (NULL_STARTS, m)), axis=1)
         + d * np.arange(m))

    def residuals(U):
        angle = kappa * (U[:, None, :] + inner)
        return 2.0 * np.cos(angle).sum(axis=2) + odd, angle

    r, angle = residuals(U)
    cost = np.einsum("ij,ij->i", r, r)
    nu = np.full(NULL_STARTS, NULL_DAMPING)
    eye = np.eye(len(kappa))
    for _ in range(NULL_ITERS):
        J = -2.0 * kappa * np.sin(angle)
        JJ = J @ J.transpose(0, 2, 1)
        mu = nu * np.trace(JJ, axis1=1, axis2=2)
        y = np.linalg.solve(JJ + mu[:, None, None] * eye, r[:, :, None])
        Z = _project_euclidean(U - (J.transpose(0, 2, 1) @ y)[:, :, 0], half)
        r_z, angle_z = residuals(Z)
        cost_z = np.einsum("ij,ij->i", r_z, r_z)
        ok = cost_z < cost
        U[ok], r[ok], angle[ok], cost[ok] = (Z[ok], r_z[ok], angle_z[ok],
                                             cost_z[ok])
        nu = np.where(ok, 0.1 * nu, 10.0 * nu)
        solved = np.flatnonzero(np.abs(r).max(axis=1) <= NULL_RTOL * n)
        if solved.size:
            a = U[solved[0]] + inner
            c = 0.5 * scenario.aperture
            x = np.concatenate([c - a[::-1], [c] * odd, c + a])
            x.setflags(write=False)
            return x
    return None


def _rate_ceiling(n: int, scenario: Scenario, budget) -> np.ndarray:
    """log2(1 + N rho) less ``_rate_slack``, one per budget of ``budget``.

    No layout's rate exceeds log2(1 + N rho), rho = P_A / sigma^2, so an
    F at or above this value is at that bound up to rounding.
    """
    return (np.log2(1.0 + n * budget / scenario.noise_power)
            - _rate_slack(n, scenario, budget))


def _bound_traces(x, budgets, scenario: Scenario) -> list:
    """The solve at the null layout ``x`` of each budget, or None.

    One ``_layout_pass`` over ``x`` at every budget of the (P,) array
    ``budgets`` gives each budget's lambda_max, beamformer and rate,
    with the bits of that budget alone.  A budget whose F = log2
    lambda_max reaches ``_rate_ceiling`` gets a trace of one round with
    stop reason ``"bound"``: its inner trace holds F at the start and at
    the one trial, the start itself, as a round at a stationary point
    does.  The others get None.
    """
    n = len(x)
    lam, finish = _layout_pass(np.broadcast_to(x, (len(budgets), n)),
                               scenario, budgets)
    W, rates, _ = finish(slice(None))
    ceilings = _rate_ceiling(n, scenario, budgets).tolist()
    traces = []
    for v, ceiling, w, rate in zip(lam.tolist(), ceilings, W, rates.tolist()):
        # a lambda_max that is not positive, or NaN, is no null
        if not (v > 0.0 and math.log2(v) >= ceiling):
            traces.append(None)
            continue
        w = w.copy()
        w.setflags(write=False)
        traces.append(OptimizationTrace(
            outer=[OuterRecord(iteration=1, rate_after_w=rate,
                               rate_after_x=rate)],
            inner=[np.full(2, math.log2(v))], final_x=x, final_w=w,
            final_rate=rate, stop_reason="bound"))
    return traces


def _value_start(X, budget, scenario: Scenario, cfg: SolveConfig):
    """The value ascent on the chains ``X``: its start and its round.

    Row j of ``X`` and ``W`` holds chain j's layout and its optimal
    beamformer, and ``budget[j]`` its power budget, which its
    beamformer solves and its ``_rate_slack`` read in place of
    ``scenario.power_budget``.  A round takes one projected ascent step
    on F = log2 lambda_max for the live chains ``rows``: those that did
    not stop in an earlier round, in order.  The trial
    x <- P(x + alpha d) starts at alpha = 1 and halves until Armijo's
    test F(x') >= F(x) + ARMIJO_C grad F . (x' - x) accepts it, at most
    ``MAX_HALVINGS`` times; P is the Euclidean projection.  A chain
    without a curvature estimate, as in its first round, takes
    d = ``cfg.step_size`` lambda^2 grad F, lambda the wavelength:
    grad F scales as 1 / lambda, so d scales with the lengths.  Once
    one of its moves s, with gradient change y, shows s . -y > 0, it
    keeps a BFGS estimate H of the inverse Hessian of -F, first scaled
    to -s.y / y.y (``_bfgs_updates``) and clipped to
    lambda^2 [MIN_STEP, MAX_STEP], and d is the quasi-Newton step on
    the face of the constraints that bind at x (``_face_directions``,
    ``positions._face_projector``).  A direction whose gain grad F . d
    is within the last bit of F (``EPS`` max(1, |F|)) is set to 0, so a
    chain at a stationary point of its face tries P(x) = x, its own
    layout, and stops there.  The trials of all pending chains are one
    stack and one ``_layout_pass``: one steering-vector evaluation and
    one batched pencil give every trial's F, and the chains that accept
    their trial take its layout, F, beamformer, rate and gradient from
    the same pass.  The start is one pass too, so no round evaluates a
    rate or a gradient on its own.  The face and BFGS algebra is
    batched over the chains, row by row, so a chain's bits do not
    depend on the others.  A chain stops with ``"bound"`` once its F
    after the round is at least ``_rate_ceiling``: at the bound up to
    rounding, where no step can gain.  Otherwise it stops with
    ``"tol"`` when the accepted step raised F by at most
    ``cfg.inner_tol`` max(1, |F|), or every trial failed within
    ``_rate_slack`` of F, and with ``"stalled"`` when no trial was
    accepted.  Its traces hold F at the start and at each trial.

    The live chains' layouts, beamformers, rates, gradients, F, budgets,
    allowances, ceilings, estimates H and ``scaled`` flags are compact
    arrays, one row per live chain; a chain's row leaves them when it
    stops.  A round writes its layouts and beamformers back to ``X`` and
    ``W`` once.  A chain's rate after the beamformer is its rate in
    these arrays at the round's start: the beamformer is optimal there.

    Returns:
        (W, ascend) as ``_ascend_chains`` reads them.
    """
    lam, finish = _layout_pass(X, scenario, budget)
    W, rate, g = finish(slice(None))
    n = X.shape[1]
    area = scenario.wavelength ** 2
    first_step = cfg.step_size * area
    # the live chains' layouts, beamformers, rates, gradients, F, budgets,
    # allowances, ceilings, and inverse-Hessian estimates of -F once they
    # have one
    live = [X, W, rate, g, np.array([math.log2(v) for v in lam.tolist()]),
            budget, _rate_slack(n, scenario, budget),
            _rate_ceiling(n, scenario, budget),
            np.zeros((len(X), n, n)), np.zeros(len(X), dtype=bool)]

    def ascend(rows):
        x0, w0, rate0, g0, f0, power, slack, ceiling, H, scaled = live
        traces = [[f] for f in f0.tolist()]
        # a chain without a curvature estimate steps along its gradient
        dp = first_step * g0
        if scaled.any():
            newton = slice(None) if scaled.all() else scaled
            # H scales as lambda^2; in squared wavelengths it keeps the size
            # of the projector that ``_face_directions`` adds to it, which
            # rounding would lose next to H at a large length unit
            dp[newton] = area * _face_directions(
                H[newton] / area, g0[newton],
                _face_projector(x0[newton], g0[newton], scenario))
        # a direction that can raise F by no more than its last bit is none
        flat = (np.einsum("ij,ij->i", g0, dp)
                <= EPS * np.maximum(1.0, np.abs(f0)))
        dp[flat] = 0.0
        # the rows still searching, their layouts, gradients, directions and
        # budgets; every pending trial has the same step alpha
        pending, xp, gp, power_p = np.arange(len(x0)), x0, g0, power
        alpha = 1.0
        accepted = []  # (rows, layouts, F, (W, rates, grads)) of each pass
        for _ in range(MAX_HALVINGS + 1):
            Z = _project_euclidean(xp + alpha * dp, scenario)
            lam, finish = _layout_pass(Z, scenario, power_p)
            f = [math.log2(v) for v in lam.tolist()]
            for i, fi in zip(pending.tolist(), f):
                traces[i].append(fi)
            f = np.array(f)
            ok = f >= f0[pending] + ARMIJO_C * np.einsum("ij,ij->i", gp,
                                                         Z - xp)
            if ok.all():
                # a slice takes views where every trial is accepted
                accepted.append((pending, Z, f, finish(slice(None))))
                break
            if ok.any():
                accepted.append((pending[ok], Z[ok], f[ok], finish(ok)))
            wait = ~ok
            pending, xp, gp, dp, power_p = (pending[wait], xp[wait],
                                            gp[wait], dp[wait], power_p[wait])
            alpha *= 0.5
        stalled = np.ones(len(x0), dtype=bool)
        if len(accepted) == 1 and len(accepted[0][0]) == len(x0):
            x, f, (w, rate, g) = accepted[0][1:]
            stalled[:] = False
        else:
            x, w, rate, g, f = (x0.copy(), w0.copy(), rate0.copy(), g0.copy(),
                                f0.copy())
            for on, Z, f_on, (w_on, rate_on, g_on) in accepted:
                x[on], w[on], rate[on], g[on] = Z, w_on, rate_on, g_on
                f[on], stalled[on] = f_on, False
        # a failed search whose trials stay within rounding of F is stationary
        reasons = []
        for t, at_bound, halted, s in zip(traces, (f >= ceiling).tolist(),
                                          stalled.tolist(), slack.tolist()):
            settled = (max(t[1:]) - t[0] <= s if halted else
                       t[-1] - t[0] <= cfg.inner_tol * max(1.0, abs(t[0])))
            reasons.append("bound" if at_bound else "tol" if settled else
                           "stalled" if halted else None)
        # a stopped chain's estimate is updated too, and never read
        H, scaled = _bfgs_updates(H, scaled, x - x0, g - g0, area)
        X[rows], W[rows] = x, w
        live[:] = x, w, rate, g, f, power, slack, ceiling, H, scaled
        going = np.array([reason is None for reason in reasons])
        if not going.all():
            live[:] = [a[going] for a in live]
        return list(zip(map(np.array, traces), rate0.tolist(), rate.tolist(),
                        reasons))

    return W, ascend


def _alternating_start(X, budget, scenario: Scenario, cfg: SolveConfig):
    """Algorithm 1 on the chains ``X``: its start and its round.

    A round solves the beamformers of the chains ``rows`` in closed form
    at their budgets, then runs ``optimize_positions`` on their layouts,
    in place.  A chain's traces are its Psi values, and its rate after
    the beamformer is Psi at the round's start, clamped.  The (K,) array
    ``end`` keeps each chain's rate after its last round, NaN before the
    first, so no chain stops in its first round; a chain stops with
    ``"tol"`` when its end-of-round rate moved by at most
    ``cfg.outer_tol``.

    Returns:
        (W, ascend) as ``_ascend_chains`` reads them.
    """
    W = np.zeros(X.shape, dtype=complex)
    end = np.full(len(X), math.nan)

    def ascend(rows):
        W[rows] = optimal_beamformer(build_forms(X[rows], scenario), scenario,
                                     budget[rows])
        X[rows], psi = optimize_positions(X[rows], W[rows], scenario, cfg)
        rates = secrecy_rate(X[rows], W[rows], scenario)
        # NaN before the first round fails the test
        settled = (np.abs(rates - end[rows]) <= cfg.outer_tol).tolist()
        end[rows] = rates
        return [(t, max(float(t[0]), 0.0), rate, "tol" if ok else None)
                for t, rate, ok in zip((col[~np.isnan(col)] for col in psi.T),
                                       rates.tolist(), settled)]

    return W, ascend


_ASCENT_STARTS = {"alternating": _alternating_start, "value": _value_start}


def _face_directions(H, G, P) -> np.ndarray:
    """Quasi-Newton ascent directions on the faces of the binding constraints.

    Row k of ``H`` is a chain's inverse-Hessian estimate of -F, of ``G``
    its gradient of F and of ``P`` the projector onto its face
    (``positions._face_projector``).  With Q = I - P the projector onto
    the binding constraints' normals, the Newton step of the quadratic
    model restricted to the face is d = H (g - u), u solving
    (Q H Q + P) u = Q H g (the range-space form of an equality-
    constrained step); P is applied once more, so fixed antennas move by
    exactly 0.  One batched solve serves every chain.
    """
    Q = np.eye(H.shape[1]) - P
    HQ = H @ Q
    g = G[:, :, None]
    # H is symmetric, so (H Q)^T g = Q H g
    u = np.linalg.solve(Q @ HQ + P, HQ.transpose(0, 2, 1) @ g)
    return (P @ (H @ (g - u)))[:, :, 0]


def _bfgs_updates(H, scaled, S, Y, area):
    """BFGS updates of the inverse-Hessian estimates ``H`` of -F.

    Rows of ``S`` are position steps and rows of ``Y`` the changes of
    the gradient of F, so -Y is the change of the gradient of -F.  A row
    is updated only where s . -y > 0; one not yet ``scaled`` is first
    set, in ``H`` itself, to -s.y / y.y times I (Nocedal and Wright's
    scaling, the shorter Barzilai-Borwein step), clipped to
    ``area`` [MIN_STEP, MAX_STEP], ``area`` the squared wavelength.  The
    other rows get a zero update, which leaves them unchanged.  Returns
    the new (H, scaled).
    """
    sy = -np.einsum("ij,ij->i", S, Y)
    ok = sy > 0.0
    first = ok & ~scaled
    if first.any():
        gamma = sy[first] / np.einsum("ij,ij->i", Y[first], Y[first])
        H[first] = (np.eye(H.shape[1])
                    * np.clip(gamma, area * MIN_STEP,
                              area * MAX_STEP)[:, None, None])
    # H+ = V H V^T + rho s s^T with V = I - rho s (-y)^T; V = I where rho = 0
    rho_s = S * np.divide(1.0, sy, out=np.zeros_like(sy), where=ok)[:, None]
    V = np.eye(H.shape[1]) + rho_s[:, :, None] * Y[:, None, :]
    return (V @ H @ V.transpose(0, 2, 1)
            + rho_s[:, :, None] * S[:, None, :]), scaled | ok


def solve(n: int, scenario: Scenario, cfg: SolveConfig = SolveConfig(),
          x0=None, extra_starts=None) -> OptimizationTrace:
    """Ascent on (w, x) for the secrecy rate, in rounds.

    With ``cfg.ascent == "alternating"`` (Algorithm 1) each round
    updates the beamformer in closed form for the current positions,
    then improves the positions by projected gradient ascent; the loop
    stops when the end-of-round rate changes by at most ``cfg.outer_tol``.
    With ``"value"`` each round takes one line-searched projected
    quasi-Newton step on F(x) = log2 lambda_max(x) (``_value_start``),
    along the gradient until a move shows curvature; a chain stops when
    F reaches log2(1 + N rho) within ``_rate_slack``, when a round
    raises F by at most ``cfg.inner_tol`` max(1, |F|), or when no
    trial step is accepted.  Either ascent also stops after
    ``cfg.max_outer_iters`` rounds; ``converged`` is False then, and
    after a failed line search unless no trial rose above F by more
    than its rounding (``beamformer._rate_slack``).  The clamp [.]^+ is
    kept out of the optimization and reapplied in the reported rates.

    Every start is one chain.  The chains run their rounds in lockstep
    (``_ascend_chains``), each round solving the beamformers of every
    live chain in one batched call, and each keeps its own stop test; a
    chain follows the same iterates as a solve from its start alone.
    ``solve_powers`` runs the chains of several power budgets in the
    same way; here every chain has ``scenario.power_budget``.

    Args:
        n: number of antennas.
        scenario: problem instance (must satisfy L >= (N-1) d_min).
        cfg: solver settings; the default runs the value ascent.
        x0: optional feasible starting layout (array-like).  The default
            is ``scan_start(n, scenario)``, which makes the result never
            fall below the FPA rate; ``x0=initial_positions(n, scenario)``
            reproduces a run from the uniform FPA layout.  Without
            ``x0`` the value ascent is ``solve_powers`` at
            ``scenario.power_budget``: it returns a null layout that
            reaches the bound, where it finds one, without a scan.
        extra_starts: optional (k, N) stack of further feasible layouts,
            one chain each after the first start; none runs where a null
            layout is returned.

    Raises:
        ValueError: a start has the wrong shape, is unsorted, or
            ``check_positions`` rejects it, in either ascent.

    Returns:
        OptimizationTrace of the first chain with the highest final
        rate: per-round rates, inner traces and the final solution.
        ``final_w`` is optimal at ``final_x`` in the value ascent.
    """
    if x0 is None:
        return solve_powers(n, scenario, [scenario.power_budget], cfg,
                            [extra_starts])[0]
    X = _stack_starts(n, x0, extra_starts)
    check_positions(X, scenario, stack=True)
    chains = _ascend_chains(X, np.full(len(X), scenario.power_budget),
                            scenario, cfg)
    return max(chains, key=lambda trace: trace.final_rate)


def solve_powers(n: int, scenario: Scenario, budgets,
                 cfg: SolveConfig = SolveConfig(), extra_starts=None) -> list:
    """``solve`` at each power budget of ``budgets``, as one lockstep solve.

    ``scenario`` holds the rest of the instance; its own
    ``power_budget`` is not read.  The value ascent first seeks a null
    layout (``_null_layout``), which does not depend on the power, so
    one search serves every budget.  A budget whose rate there reaches
    log2(1 + N rho) within ``_rate_slack`` (``_bound_traces``) takes it,
    with its optimal beamformer, as its solve of one round: no layout
    can beat it, so no scan and no chain runs for that budget, not even
    from ``extra_starts``, which are still checked.  For the other
    budgets, and for every budget in Algorithm 1, one screen finds the
    start scan of every power (``_scan_starts``).  Such a budget i gets
    a group of chains: its scan start, then the rows of
    ``extra_starts[i]``, an optional (k, N) stack as in ``solve``.  All
    groups run as chains of one loop, each chain with its group's
    budget, so a round costs one batched call for every power.  A chain
    follows the same iterates as in ``solve`` on ``scenario`` with
    ``power_budget=budgets[i]`` and ``extra_starts=extra_starts[i]``,
    so each result equals that solve, bit for bit.

    Raises:
        ValueError: ``budgets`` is not a non-empty list of powers that
            ``core.check_powers`` accepts with ``scenario.noise_power``,
            there is not one entry of ``extra_starts`` per budget, or a
            start is rejected as in ``solve``.

    Returns:
        list of OptimizationTrace, one per budget in order: the first
        chain of its group with the highest final rate.
    """
    budgets = np.asarray(budgets, dtype=float)
    if budgets.ndim != 1 or not budgets.size:
        raise ValueError(f"power budgets must be a non-empty list, "
                         f"got {budgets.tolist()}")
    check_powers(budgets, scenario.noise_power, "power budgets")
    if extra_starts is None:
        extra_starts = [None] * len(budgets)
    null = _null_layout(n, scenario) if cfg.ascent == "value" else None
    found = ([None] * len(budgets) if null is None
             else _bound_traces(null, budgets, scenario))
    scan = np.array([trace is None for trace in found])
    starts = iter(_scan_starts(n, scenario, budgets[scan]) if scan.any()
                  else ())
    groups = [_stack_starts(n, next(starts) if trace is None else null, extra)
              for trace, extra in zip(found, extra_starts, strict=True)]
    check_positions(np.vstack(groups), scenario, stack=True)
    chained = [X for X, trace in zip(groups, found) if trace is None]
    if not chained:
        return found
    budget = np.repeat(budgets[scan], [len(X) for X in chained])
    chains = iter(_ascend_chains(np.vstack(chained), budget, scenario, cfg))
    return [max(itertools.islice(chains, len(X)),
                key=lambda trace: trace.final_rate) if trace is None
            else trace for X, trace in zip(groups, found)]


def _stack_starts(n: int, first, extra_starts) -> np.ndarray:
    """The (k+1, N) stack of the start ``first`` and the k ``extra_starts``."""
    first = np.asarray(first, dtype=float)
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
    return X


def _ascend_chains(X, budget, scenario: Scenario, cfg: SolveConfig) -> list:
    """Run the rounds of ``solve`` on every chain, in lockstep.

    Row j of the (K, N) array ``X`` starts chain j, whose power budget is
    ``budget[j]``; ``scenario`` holds the rest of the instance.  The
    caller checks the rows (``check_positions``).  The
    budget enters where a chain solves its beamformer and, in the value
    ascent, its stop test; the gradients, projections and rates read the
    beamformer and the noise power only.

    One loop runs either ascent.  Its start function (``_value_start``
    or ``_alternating_start``) returns the (K, N) beamformer stack and
    the round ``ascend(rows)``, which advances the live chains ``rows``
    in place and returns one record per chain: its trace, its rates
    after the beamformer and after the positions, and why it stops,
    ``"bound"``, ``"tol"`` or ``"stalled"``, or None while it goes on.
    Each start function keeps the rates its stop test reads.  A chain
    still going after ``cfg.max_outer_iters`` rounds stops with
    ``"cap"``.  Algorithm 1 reads the end rates of all live chains from
    one ``secrecy_rate`` call on their stack, the value ascent from the
    passes that gave each chain its layout; either way a chain's rate
    has the bits of ``secrecy_rate`` on that chain alone.

    Returns:
        list of OptimizationTrace, one per chain in order.
    """
    chains = range(len(X))
    outer = [[] for _ in chains]
    inner = [[] for _ in chains]
    reasons = ["cap" for _ in chains]
    W, ascend = _ASCENT_STARTS[cfg.ascent](X, budget, scenario, cfg)
    live = list(chains)
    for k in range(1, cfg.max_outer_iters + 1):
        going = []
        for j, (trace, rate_w, rate_x, reason) in zip(live, ascend(live)):
            outer[j].append(OuterRecord(iteration=k, rate_after_w=rate_w,
                                        rate_after_x=rate_x))
            inner[j].append(trace)
            if reason is None:
                going.append(j)
            else:
                reasons[j] = reason
        live = going
        if not live:
            break
    results = []
    for j in chains:
        x, w = X[j].copy(), W[j].copy()
        x.setflags(write=False)
        w.setflags(write=False)
        results.append(OptimizationTrace(
            outer=outer[j], inner=inner[j], final_x=x, final_w=w,
            final_rate=outer[j][-1].rate_after_x, stop_reason=reasons[j]))
    return results


def solve_fpa(n: int, scenario: Scenario):
    """Fixed-position baseline: uniform layout, one beamformer solve.

    Returns:
        (ndarray, float): optimal beamformer and its secrecy rate.
    """
    x = initial_positions(n, scenario)
    w = optimal_beamformer(build_forms(x, scenario), scenario)
    return w, secrecy_rate(x, w, scenario)
