"""Projected gradient ascent over antenna positions for a fixed beamformer.

The beam gains |a^H(x, theta_i) w|^2 admit a real reparameterization in
the per-antenna cosine/sine vectors g_i, q_i and the real matrices
C = u u^T + z z^T, D = u z^T - z u^T built from w = u + j z.  That lift
yields a closed-form gradient of the (unclamped) secrecy objective,
driving a fixed-step ascent with sequential nearest-point projection
onto the spacing and aperture constraints: with w fixed, a step
recomputes only the cosines and sines.  ``gradient_psi`` gives the same
gradient from the inner products a^H w, as the value ascent reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (FEASIBILITY_TOL, LN2, TWO_PI, Scenario, _angle_steering,
                   _psi_gradient, _squared_inner, _stack_of_one,
                   check_positions, rate_difference)


@dataclass(frozen=True)
class RealLift:
    """Real-valued reparameterization of the beam gains.

    Rows of ``g``/``q`` hold the cosine/sine vectors per steering angle
    (Bob first, then the eavesdroppers), so g[i]**2 + q[i]**2 == 1
    elementwise.  ``C`` is symmetric PSD, ``D`` antisymmetric.  A stack
    of K layouts has a leading axis of length K on every array.
    """

    g: np.ndarray
    q: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def gains(self) -> np.ndarray:
        """Quadratic-form gains f_i = g_i^T C g_i + q_i^T C q_i + 2 g_i^T D q_i."""
        return _lift_gains(self.g, self.q, self.C, self.D)[2]


def _phase_trig(X, column, scale):
    """Cosines and sines of the phases scale * cos(theta_i) * x_n.

    ``column`` holds cos(theta_i) as an (M+1, 1) column and ``scale`` is
    2 pi / wavelength; each layout of ``X`` gets an (M+1, N) block.
    """
    phases = scale * (column * X[..., None, :])
    return np.cos(phases), np.sin(phases)


def real_lift(x, w, scenario: Scenario) -> RealLift:
    """Build the (g, q, C, D) lift of the beam gains at positions ``x``.

    (K, N) stacks of layouts and beamformers get one lift per row.
    """
    X, W = _stack_of_one(x, w)
    xs, wv = (X, W) if np.ndim(x) == 2 else (X[0], W[0])
    g, q = _phase_trig(xs, scenario.cosines[:, None],
                       TWO_PI / scenario.wavelength)
    u, z = wv.real[..., :, None], wv.imag[..., :, None]
    u_t, z_t = wv.real[..., None, :], wv.imag[..., None, :]
    return RealLift(g=g, q=q, C=u * u_t + z * z_t, D=u * z_t - z * u_t)


def objective_psi(x, w, scenario: Scenario):
    """Unclamped position objective Psi in bps/Hz.

    Identical to the secrecy rate except that the [.]^+ clamp is omitted,
    which keeps gradients alive when the eavesdroppers dominate.  (K, N)
    stacks give a (K,) array, as in ``rate_difference``.
    """
    return rate_difference(x, w, scenario)


def _lift_gains(g, q, C, D):
    """Halved partial gradients of the gains along g and q, and the gains."""
    # rows of half_g/half_q are (C g_i + D q_i)^T and (C q_i - D g_i)^T; the
    # partial gradients are twice these, a factor that callers fold into
    # their constants (scaling by 2 is exact, so the gains are the same)
    half_g = g @ C - q @ D
    half_q = q @ C + g @ D
    gains = (np.einsum("...ij,...ij->...i", g, half_g)
             + np.einsum("...ij,...ij->...i", q, half_q))
    return half_g, half_q, gains


def _gradient(g, q, half_g, half_q, gains, two_k, noise_power):
    """Gradient of Psi from a lift's g, q and the output of ``_lift_gains``.

    ``two_k`` is the column of 2 k_i, k_i = (2 pi / wavelength) cos(theta_i).
    """
    nabla_f = two_k * (g * half_q - q * half_g)
    bob = gains[..., :1]
    eve = gains[..., 1:].sum(axis=-1, keepdims=True)
    return (nabla_f[..., 0, :] / (noise_power + bob)
            - nabla_f[..., 1:, :].sum(axis=-2) / (noise_power + eve)) / LN2


def gradient_psi(x, w, scenario: Scenario) -> np.ndarray:
    """Closed-form gradient of ``objective_psi`` w.r.t. the positions.

    With c_i = a^H(x, theta_i) w and k_i = (2 pi / wavelength) cos(theta_i),
    the gain |c_i|^2 has the partial derivative
    2 k_i Im(conj(c_i a_in) w_n) in x_n, and the log2 terms add their
    1/((sigma^2 + gain) ln 2) factors (``core._psi_gradient``).
    The inner products come from the steering vectors of every angle,
    as ``rate_difference``'s do.  ``x`` and ``w`` are one layout and its
    beamformer, which give an (N,) gradient, or (K, N) stacks, which
    give one row per layout with the bits of that row alone.  The
    lift's ``_gradient`` gives the same gradient up to rounding.
    """
    X, W = _stack_of_one(x, w)
    grad = _psi_gradient(*_squared_inner(_angle_steering(X, scenario), W),
                         scenario)
    return grad if np.ndim(x) == 2 else grad[0]


def _project(rows: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Sequential nearest-point clamp of each sorted row, in place.

    The clamp runs over Python floats, one row of the (K, N) array after
    another.
    """
    n = rows.shape[1]
    d = scenario.min_spacing
    caps = [scenario.aperture - (n - 1 - k) * d for k in range(n)]
    clamped = rows.tolist()
    for row in clamped:
        lo = 0.0
        for k, hi in enumerate(caps):
            v = row[k] if row[k] > lo else lo
            row[k] = v = v if v < hi else hi
            lo = v + d
    rows[:] = clamped
    return rows


def _project_euclidean(Z, scenario: Scenario) -> np.ndarray:
    """Nearest feasible layout to each row of the (K, N) array ``Z``.

    In slack coordinates y_n = x_n - (n-1) d_min the feasible set is
    0 <= y_1 <= ... <= y_N <= L - (N-1) d_min, and the nearest point is
    the isotonic regression of y (pool adjacent violators) clipped to
    that interval.  Unlike ``project_positions`` the rows are not sorted
    first: antenna n stays antenna n.  A row whose y is non-decreasing
    and inside that interval to within 16 eps L, the rounding of one
    coordinate, is returned unchanged: one array test finds those rows,
    and the pooling runs, one row after another, on the others only.
    On those, a coordinate that is neither pooled nor clipped keeps its
    bits, and a pooled block is rebuilt as its mean plus the offsets,
    whose slack values differ from that mean by rounding only.  So the
    projection is idempotent bit for bit: P(P(Z)) = P(Z).
    """
    n = Z.shape[1]
    offsets = scenario.min_spacing * np.arange(n)
    span = scenario.aperture - (n - 1) * scenario.min_spacing
    # rebuilding a pooled block as its mean plus the offsets and taking
    # them off again moves each slack value by about an ulp of L at most
    tol = 16 * np.finfo(float).eps * scenario.aperture
    out = np.array(Z, dtype=float)
    Y = out - offsets
    moved = np.flatnonzero(~((Y[:, 1:] >= Y[:, :-1] - tol).all(axis=1)
                             & (Y[:, 0] >= -tol) & (Y[:, -1] <= span + tol)))
    rows = out[moved].tolist()
    offsets = offsets.tolist()
    for row in rows:  # Python floats round as numpy's float64 does
        blocks = []  # [sum, count] of the pooled runs, means increasing
        for x, offset in zip(row, offsets):
            blocks.append([x - offset, 1])
            while (len(blocks) > 1 and blocks[-2][0] / blocks[-2][1]
                   > blocks[-1][0] / blocks[-1][1]):
                total, count = blocks.pop()
                blocks[-1][0] += total
                blocks[-1][1] += count
        i = 0
        for total, count in blocks:
            mean = total / count
            clipped = min(max(mean, 0.0), span)
            if count > 1 or clipped != mean:
                row[i:i + count] = [clipped + o for o in offsets[i:i + count]]
            i += count
    if rows:
        out[moved] = rows
    return out


def _face_projector(X, G, scenario: Scenario) -> np.ndarray:
    """Projector onto the face of the binding constraints at each layout.

    ``X`` is a (K, N) stack of feasible layouts and ``G`` the gradients
    of the objective being raised there.  In slack coordinates
    y_n = x_n - (n-1) d_min, with 0 <= y_1 <= ... <= y_N <= L - (N-1) d_min,
    a constraint is active where two neighbours tie (their gap is d_min)
    or an antenna sits at an end of that interval, to within
    ``FEASIBILITY_TOL`` wavelengths.  It binds when the gradient presses
    on it: the velocity v nearest to G that keeps the layout feasible is
    the isotonic regression of G over each run of ties (pool adjacent
    violators), clipped to v >= 0 at the lower end and to v <= 0 at the
    upper one.  A tie is released where v separates the pair, and an
    end where v pulls off it (v > 0 at the lower end, v < 0 at the
    upper one; at v = 0 the lower end holds and the upper one does
    not).  Antennas held at an end stay fixed, and those joined by
    binding ties move together.  Returns the (K, N, N) orthogonal
    projectors onto those directions: 1/|B| on the pairs of each free
    block B, 0 elsewhere.  Each pass of the pooling joins the violating
    ties of every layout at once, so it takes at most N - 1 passes and
    no loop over the layouts.
    """
    k, n = X.shape
    Y = X - scenario.min_spacing * np.arange(n)
    tol = FEASIBILITY_TOL * scenario.wavelength
    tied = Y[:, 1:] - Y[:, :-1] <= tol
    same, v = None, G
    joined = merge = tied & (G[:, :-1] > G[:, 1:])
    while merge.any():
        label = np.zeros((k, n), dtype=int)
        np.cumsum(~joined, axis=1, out=label[:, 1:])
        same = label[:, :, None] == label[:, None, :]
        size = same.sum(axis=2, keepdims=True)
        v = (same * G[:, None, :]).sum(axis=2) / size[:, :, 0]
        merge = tied & ~joined & (v[:, :-1] > v[:, 1:])
        joined = joined | merge
    span = scenario.aperture - (n - 1) * scenario.min_spacing
    free = ~np.where(v > 0.0, Y >= span - tol, Y <= tol)
    if same is None:  # no tie binds: every block is one antenna
        return free[:, :, None] * np.eye(n)
    return np.where(same & free[:, :, None] & free[:, None, :],
                    1.0 / size, 0.0)


def project_positions(x_raw, scenario: Scenario) -> np.ndarray:
    """Project raw coordinates onto the feasible set.

    Sorts ascending, then clamps sequentially: x_1 into
    [0, L - (N-1) d_min] and each following x_n into
    [x_{n-1} + d_min, L - (N-n) d_min].  Idempotent; the output satisfies
    the spacing and aperture constraints.
    """
    arr = np.sort(np.asarray(x_raw, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError("positions must be finite")
    scenario.check_feasible(arr.size)
    arr = _project(arr[None], scenario)[0]
    arr.setflags(write=False)
    return arr


def optimize_positions(x0, w, scenario: Scenario, cfg):
    """Projected gradient ascent on Psi with the beamformer held fixed.

    Iterates x <- project(x + delta grad Psi(x)) with
    delta = ``cfg.step_size`` lambda^2, lambda the wavelength, until the
    per-iteration change of Psi falls below ``cfg.inner_tol`` or
    ``cfg.max_inner_iters`` steps are taken.  grad Psi scales as
    1 / lambda, so the steps scale with the lengths.
    ``cfg`` is required: a ``SolveConfig``, of which only those three
    fields are read.  One trig evaluation per step at the new iterate
    yields the beam gains, which give Psi and, for the chains that take
    another step, the next gradient.  Fixed-step ascent is not monotone,
    so the best iterate seen is returned rather than the last one;
    Psi(returned) >= Psi(x0) always.

    ``x0`` and ``w`` are one layout and its beamformer, or (K, N) stacks
    holding one chain per row.  The chains run in lockstep on stacked
    arrays, each with its own Psi trace, stop test and best iterate; a
    chain that stops leaves the stack, so a step costs what the live
    chains need.  Every chain follows the same iterates as a call with
    its row alone.

    Raises:
        ValueError: ``x0`` and ``w`` break the input rule of
            ``core._stack_of_one``, a row of ``x0`` is unsorted, or
            ``check_positions`` rejects it for ``scenario``
            (InfeasibleError for too many antennas).

    Returns:
        (best, trace).  For one layout, the best (N,) layout and the
        (T+1,) trace of Psi values, entry 0 being ``objective_psi(x0)``.
        For a stack, the (K, N) array of best layouts and a (T+1, K)
        array whose column k is chain k's trace, NaN after the chain
        stopped; T is the number of steps of the longest chain.  The
        layouts are read-only.
    """
    X, W = _stack_of_one(x0, w)
    check_positions(X, scenario, stack=True)
    lift = real_lift(X, W, scenario)
    g, q, C, D = lift.g, lift.q, lift.C, lift.D
    column = scenario.cosines[:, None]
    scale = TWO_PI / scenario.wavelength
    two_k = 2.0 * scale * column
    delta = cfg.step_size * scenario.wavelength ** 2
    sigma2 = scenario.noise_power
    trace = [objective_psi(X, W, scenario).tolist()]
    best_psi = list(trace[0])
    best_x = X.copy()
    chains = list(range(len(X)))  # chain of each row of the live stack
    terms = [g, q, *_lift_gains(g, q, C, D)]
    for _ in range(cfg.max_inner_iters):
        grad = _gradient(*terms, two_k, sigma2)
        X = _project(np.sort(X + delta * grad, axis=1), scenario)
        g, q = _phase_trig(X, column, scale)
        terms = [g, q, *_lift_gains(g, q, C, D)]
        gains = terms[-1]
        last, step = trace[-1], [math.nan] * len(best_psi)
        keep = []
        # _psi's formula on Python floats: cheaper than arrays for a few chains
        for r, (k, g0, ge) in enumerate(zip(
                chains, gains[:, 0].tolist(),
                gains[:, 1:].sum(axis=1).tolist())):
            psi_new = (math.log1p(g0 / sigma2) - math.log1p(ge / sigma2)) / LN2
            step[k] = psi_new
            if psi_new > best_psi[k]:
                best_psi[k] = psi_new
                best_x[k] = X[r]
            if not abs(psi_new - last[k]) <= cfg.inner_tol:
                keep.append(r)
        trace.append(step)
        if not keep:
            break
        if len(keep) < len(chains):
            X, C, D = X[keep], C[keep], D[keep]
            terms = [t[keep] for t in terms]
            chains = [chains[r] for r in keep]
    best_x.setflags(write=False)
    trace = np.array(trace)
    if np.ndim(x0) == 1:
        return best_x[0], trace[:, 0]
    return best_x, trace


def random_positions(n: int, scenario: Scenario, rng) -> np.ndarray:
    """Draw feasible positions uniformly.

    Uses the slack parameterization y_n = x_n - (n-1) d_min, under which
    the feasible set maps to sorted i.i.d. uniforms on
    [0, L - (N-1) d_min].
    """
    scenario.check_feasible(n)
    span = scenario.aperture - (n - 1) * scenario.min_spacing
    y = np.sort(rng.uniform(0.0, max(span, 0.0), size=n))
    x = y + scenario.min_spacing * np.arange(n)
    x.setflags(write=False)
    return x
