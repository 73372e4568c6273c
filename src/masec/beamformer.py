"""Optimal transmit beamformer for fixed antenna positions.

For fixed positions the secrecy objective reduces to a generalized
Rayleigh quotient (1 + w^H A w) / (1 + w^H B w) over ||w||^2 = P_A,
maximized in closed form by the dominant eigenvector of the Hermitian
pencil (A + I/P_A, B + I/P_A).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Scenario, _angle_steering, _psi, _psi_gradient,
                   _squared_inner, steering_vector)

# Relative gap under which the top eigenvalue is flagged as degenerate.
DEGENERACY_RTOL = 1e-10

# Matrix entries per batched call in ``best_gap_layout``: the temporaries
# grow as rows * N^2, so larger arrays are scored in fewer rows.
CANDIDATE_CHUNK_ENTRIES = 1024

# Relative rate band in ``best_gap_layout`` within which a scored
# canonical tuple has its mirror scored as well.  With ``_rate_slack``
# added it covers the rounding by which the two rates of a mirror pair
# differ: about 1e-15 bps/Hz at P_A / sigma^2 = 1, but 1e-5 at 1e10.
MIRROR_RTOL = 1e-9

# Most gap tuples per block that ``best_gap_layout`` enumerates and bounds
# at once: a block spreads the few dozen vector operations of its bound
# over a thousand rows or so, and its arrays stay near 0.2 MB at M = 3.
# The seed pass's sub-grid holds at most twice as many (``_seed_stride``).
BOUND_BLOCK_ROWS = 2048


class EigensolverError(RuntimeError):
    """The eigen decomposition failed to converge."""


@dataclass(frozen=True)
class QuadraticForms:
    """Hermitian PSD quadratic forms of the secrecy objective.

    ``A`` is the rank-1 signal form (1/sigma^2) a_0 a_0^H toward Bob and
    ``B`` the rank-<=M leakage form summed over eavesdropper angles.  For
    a stack of K layouts both have shape (K, N, N).
    """

    A: np.ndarray
    B: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[-1]


def build_forms(x, scenario: Scenario) -> QuadraticForms:
    """Assemble the signal/leakage forms A and B at the given positions.

    ``x`` is one layout (N,) or a stack of layouts (K, N); the forms of
    every angle come from a single ``steering_vector`` call.
    """
    return _forms(_angle_steering(x, scenario), scenario.noise_power)


def _forms(a, noise_power: float) -> QuadraticForms:
    """The forms A and B from the steering vectors ``a`` of every angle.

    ``a`` is (M+1, N) for one layout or (M+1, K, N) for a stack, Bob
    first, as ``core._angle_steering`` returns it; B adds the
    eavesdroppers' outer products in angle order.
    """
    outer = a[..., :, None] * a[..., None, :].conj()
    A = outer[0] / noise_power
    B = np.zeros_like(A)
    for form in outer[1:]:
        B += form
    B /= noise_power
    A.setflags(write=False)
    B.setflags(write=False)
    return QuadraticForms(A=A, B=B)


def _pencil(forms: QuadraticForms, budget, vectors: bool = False):
    """Ascending eigenvalues of the pencil (A + I/P_A, B + I/P_A).

    The Cholesky factor L of the positive definite denominator reduces
    the pencil to the Hermitian L^-1 (A + I/P_A) L^-H with the same
    spectrum.  ``forms`` may hold one pair or a stack; a stack returns
    one row of eigenvalues per layout.  ``budget`` is P_A, one float or,
    for a stack, a (K,) array of one budget per layout.  With
    ``vectors`` the result is (eigenvalues, reduced eigenvectors, L); a
    generalized eigenvector is L^-H times a reduced one.

    Raises:
        EigensolverError: the factorization or the eigensolve failed.
    """
    shift = np.eye(forms.n) / np.asarray(budget)[..., None, None]
    try:
        chol = np.linalg.cholesky(forms.B + shift)
        reduced = np.linalg.solve(chol, forms.A + shift)
        reduced = np.linalg.solve(chol, reduced.conj().swapaxes(-1, -2))
        reduced = 0.5 * (reduced + reduced.conj().swapaxes(-1, -2))
        if not vectors:
            return np.linalg.eigvalsh(reduced)
        eigvals, eigvecs = np.linalg.eigh(reduced)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigen decomposition failed: {exc}") from exc
    return eigvals, eigvecs, chol


@dataclass(frozen=True)
class BeamformerSolution:
    """Closed-form solve result with eigen diagnostics.

    ``eigenvalue`` is the top generalized eigenvalue, which equals the
    optimal Rayleigh objective; ``degenerate`` flags a (numerically)
    multiple top eigenvalue, in which case any vector of the top
    eigenspace is returned.  For a stack of K forms the beamformer is a
    (K, N) array and the other fields are (K,) arrays.
    """

    beamformer: np.ndarray
    eigenvalue: float
    eigen_gap: float
    degenerate: bool


def solve_beamformer(forms: QuadraticForms, scenario: Scenario,
                     budget=None) -> BeamformerSolution:
    """Maximize the Rayleigh objective over ||w||^2 = P_A.

    Takes the top eigenpair of the pencil and maps it back.  The
    returned phase is normalized so the largest-modulus entry is real
    positive, making the output deterministic.  ``forms`` may hold one
    pair or a (K, N, N) stack; a stack is solved in one batched call.
    ``budget`` is P_A, ``scenario.power_budget`` by default; a (K,)
    array gives each layout of a stack its own.  Each row of a stack
    equals the solve of that layout alone at its budget, bit for bit.
    """
    budget = scenario.power_budget if budget is None else budget
    eigvals, eigvecs, chol = _pencil(forms, budget, vectors=True)
    w = _beamformer(eigvecs, chol, budget)
    w.setflags(write=False)
    lam_max = eigvals[..., -1]
    if forms.n > 1:
        gap = eigvals[..., -1] - eigvals[..., -2]
        degenerate = gap <= DEGENERACY_RTOL * np.maximum(1.0, np.abs(lam_max))
    else:
        gap = np.full_like(lam_max, np.inf)
        degenerate = np.zeros_like(lam_max, dtype=bool)
    if lam_max.ndim:
        return BeamformerSolution(beamformer=w, eigenvalue=lam_max,
                                  eigen_gap=gap, degenerate=degenerate)
    return BeamformerSolution(beamformer=w, eigenvalue=float(lam_max),
                              eigen_gap=float(gap), degenerate=bool(degenerate))


def _beamformer(eigvecs, chol, budget) -> np.ndarray:
    """Beamformers sqrt(P_A) o / ||o|| from ``_pencil``'s top eigenvectors.

    o = L^-H times the reduced top eigenvector.  Each beamformer is then
    turned by one phase so that its largest-modulus entry is real
    positive, the first such entry on a tie of |w_n|^2.  ``budget`` is
    one P_A or one per row.  Every row is scaled by array operations
    along the last axis, so it has the same bits in a stack of one as in
    a stack of many.
    """
    o = np.linalg.solve(chol.conj().swapaxes(-1, -2), eigvecs[..., -1:])
    rows = o.reshape(-1, o.shape[-2])
    w = np.sqrt(np.reshape(budget, (-1, 1))) * (
        rows / np.linalg.norm(rows, axis=1, keepdims=True))
    power = w.real ** 2 + w.imag ** 2
    k = np.arange(len(w))
    peak = np.argmax(power, axis=1)
    w *= (w[k, peak] / np.sqrt(power[k, peak])).conj()[:, None]
    return w.reshape(o.shape[:-1])


def _layout_pass(X, scenario: Scenario, budget):
    """lambda_max of each layout, and its beamformer, rate and grad Psi.

    ``X`` is a (K, N) stack of layouts and ``budget`` a (K,) array of one
    power budget per row.  One ``steering_vector`` evaluation gives the
    forms, whose pencil gives each row's top eigenvalue lambda_max.  The
    returned ``finish(rows)`` reads the rows ``rows`` (an index list or a
    slice) further from the same steering vectors and pencil: the
    optimal beamformer w, the inner products c_i = a_i^H w and their
    squared magnitudes, the beam gains, which give the secrecy rate and,
    with c, the gradient of Psi at w.  By Danskin's theorem that is the
    gradient of F = log2 lambda_max.  These are the pieces that
    ``solve_beamformer``, ``secrecy_rate`` and ``gradient_psi`` run, so
    each row has the bits of those calls on that row alone, whichever
    rows are finished together.

    Returns:
        (lam_max, finish): the (K,) top eigenvalues, and a function that
        returns (W, rates, grads), (k, N), (k,) and (k, N) arrays for the
        k rows it is given.
    """
    a = _angle_steering(X, scenario)
    eigvals, eigvecs, chol = _pencil(_forms(a, scenario.noise_power), budget,
                                     vectors=True)

    def finish(rows):
        W = _beamformer(eigvecs[rows], chol[rows], budget[rows])
        terms, c, gains = _squared_inner(a[:, rows], W)
        rates = np.maximum(_psi(gains, scenario.noise_power), 0.0)
        return W, rates, _psi_gradient(terms, c, gains, scenario)

    return eigvals[:, -1], finish


def optimal_beamformer(forms: QuadraticForms, scenario: Scenario,
                       budget=None) -> np.ndarray:
    """Optimal beamformer sqrt(P_A) o_max for the given quadratic forms.

    One (N,) beamformer for one pair of forms, a (K, N) stack for a
    stack of forms; ``budget`` as in ``solve_beamformer``.
    """
    return solve_beamformer(forms, scenario, budget).beamformer


def best_secrecy_rates(X, scenario: Scenario) -> np.ndarray:
    """Clamped optimal secrecy rate per candidate position row, batched.

    Row k of the (K, N) array ``X`` is one layout; the result is
    [log2 lambda_max]^+ of its pencil, i.e. the secrecy rate reached by
    the optimal beamformer at that layout.
    """
    eigvals = _pencil(build_forms(X, scenario), scenario.power_budget)
    return np.maximum(np.log2(eigvals[:, -1]), 0.0)


def _pair_phases(x, scenario: Scenario) -> np.ndarray:
    """Products conj(v_a) v_b of steering-vector entries at positions ``x``.

    The angles are ordered eavesdroppers first and Bob last, and row p of
    the (P,) + x.shape result is the pair a < b at ``np.triu_indices``
    position p, P = M (M + 1) / 2.  Summed over the antennas of a layout,
    row p is the Gram entry Gamma_ab = v_a^H v_b.  The entries come from
    ``steering_vector``, as the scorer's forms do.
    """
    angles = np.roll(scenario.angles, -1)
    v = steering_vector(x, angles.reshape((-1,) + (1,) * np.ndim(x)),
                        scenario.wavelength)
    a, b = np.triu_indices(len(angles), 1)
    return v[a].conj() * v[b]


def _last_pivot(gram: np.ndarray, n: int, scenario: Scenario) -> np.ndarray:
    """Last pivot of I + rho Gamma for a batch of N-antenna Gram matrices.

    ``gram`` holds the entries of Gamma above the diagonal, shape (P, K)
    in ``_pair_phases`` order (row-major above the diagonal); the
    diagonal is N.  The LDL^H elimination is unrolled over the
    (M+1) x (M+1) entries, each step one vector operation on all K rows,
    and its last pivot is the Schur complement of the eavesdropper
    block.  Gamma does not depend on the power: rho = P_A / sigma^2 is
    read from ``scenario`` here, so one batch of entries serves a call
    per power budget, and ``gram`` is left unchanged.

    Raises:
        EigensolverError: a pivot is not positive and finite, where a
            Cholesky factorization would fail.
    """
    rho = scenario.power_budget / scenario.noise_power
    size = scenario.num_eves + 1
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    upper = dict(zip(pairs, rho * gram))
    pivots = [np.float64(1.0 + rho * n)] * size
    for k in range(size):
        d = pivots[k]
        if not (d.min() > 0.0 and d.max() < np.inf):
            raise EigensolverError("rate bound failed: a pivot is not "
                                   "positive and finite")
        for j in range(k + 1, size):
            f = upper[k, j].conj() / d
            pivots[j] = pivots[j] - (f * upper[k, j]).real
            for m in range(j + 1, size):
                upper[j, m] = upper[j, m] - f * upper[k, m]
    return pivots[-1]


def _eve_pivots(gram: np.ndarray, n: int, scenarios) -> list:
    """Least last pivot of I + rho Gamma over Bob and one eavesdropper.

    ``gram`` holds the M entries Gamma_0i between Bob and each
    eavesdropper, shape (M, K).  With Bob and eavesdropper i alone the
    last pivot is 1 + rho N - rho^2 |Gamma_0i|^2 / (1 + rho N).  Removing
    eavesdroppers only raises it, since (I + rho E E^H)^-1 is below
    (I + rho e_i e_i^H)^-1, so the least of these M pivots is at least
    ``_last_pivot``'s.  The largest |Gamma_0i|^2 does not depend on the
    power, so one (K,) array of pivots per scenario, in order, comes
    from one reduction.  Nothing is checked here: a pivot that is not
    positive and finite is returned as it is.
    """
    peak = (gram.real ** 2 + gram.imag ** 2).max(axis=0)
    pivots = []
    for scenario in scenarios:
        rho = scenario.power_budget / scenario.noise_power
        d = 1.0 + rho * n
        pivots.append(d - rho * rho * peak / d)
    return pivots


def _rate_bounds(X, scenario: Scenario) -> np.ndarray:
    """Upper bound log2(1 + t) on the secrecy rate of each layout row.

    With rho = P_A / sigma^2, a = a(x, theta_0) and the eavesdropper
    steering vectors as the columns of E, t = rho a^H (I + rho E E^H)^-1 a
    satisfies t < lambda_max <= 1 + t by Cauchy-Schwarz in the
    (I + rho E E^H) inner product.  1 + t is the Schur complement of the
    eavesdropper block of I + rho Gamma, Gamma the Gram matrix of the
    steering vectors ordered eavesdroppers first and Bob last, so it is
    the pivot that ``_last_pivot`` returns; no N x N form is built.  The
    computed bound and ``best_secrecy_rates`` keep these inequalities up
    to ``_rate_slack``.  ``best_gap_layout`` gathers the Gram entries of
    its grid from tables (``_gap_bounds``) and runs the same elimination.

    Raises:
        EigensolverError: a pivot is not positive and finite.
    """
    X = np.asarray(X, dtype=float)
    gram = _pair_phases(X, scenario).sum(axis=-1)
    return np.log2(_last_pivot(gram, X.shape[-1], scenario))


def _rate_slack(n: int, scenario: Scenario, budget=None):
    """Rounding allowance, in bps/Hz, for rates of N-antenna layouts.

    16 eps (1 + rho N (M + 1)) / ln 2 with rho = P_A / sigma^2, P_A being
    ``budget`` or, by default, ``scenario.power_budget``; a (K,) array
    of budgets gives a (K,) array of allowances.  The
    matrices that ``_last_pivot`` eliminates and ``best_secrecy_rates``
    factors are a unit shift plus terms of total size up to
    rho N (M + 1), and their log2 arguments are at least 1.  On random
    layouts with rho up to 3e10 the two computations break the
    inequalities of ``_rate_bounds`` by at most a tenth of this
    allowance, with the Gram entries summed over the antennas or
    gathered from ``_gap_bounds``' tables.  It covers the
    one-eavesdropper bound of ``_eve_pivots`` too: on such layouts, with
    rho up to 3e10, that bound falls below the rate, or below
    ``_last_pivot``'s bound, by at most a nineteenth of this allowance.
    """
    budget = scenario.power_budget if budget is None else budget
    rho = budget / scenario.noise_power
    return (16 * np.finfo(float).eps * (1 + rho * n * (scenario.num_eves + 1))
            / np.log(2.0))


def _canonical(K: np.ndarray) -> np.ndarray:
    """Mask of the gap tuples that score for their mirror pair.

    Row k_2 <= ... <= k_N of ``K`` has the gap increments
    k_2, k_3 - k_2, ..., k_N - k_(N-1); it is canonical when that sequence
    is lexicographically <= its reverse.  The signs of the elementwise
    comparison, weighted by decreasing powers of two, sum to the sign of
    the first difference.
    """
    gaps = K.copy()
    gaps[:, 1:] -= K[:, :-1]
    weights = 2 ** np.arange(K.shape[1])[::-1]
    return np.sign(gaps - gaps[:, ::-1]) @ weights <= 0


def _mirror(K: np.ndarray) -> np.ndarray:
    """Tuples of the mirrored layouts: the gap increments reversed."""
    full = np.hstack([np.zeros((len(K), 1), dtype=K.dtype), K])
    return (full[:, -1:] - full[:, ::-1])[:, 1:]


def _gap_blocks(n: int, levels: int):
    """The canonical gap tuples after the all-zero one, in blocks.

    The tuples 0 <= k_2 <= ... <= k_N <= ``levels`` run by k_2, then by
    their tails t = (k_3, ..., k_N) - k_2 in colex order (by the last
    entry, then the one before, and so on).  Each tuple has a rank in
    that order, and every block is built from its ranks alone by the
    combinatorial number system.  With m = N - 2, the C(levels - k + m + 1,
    m + 1) tuples of k_2 >= k close the order, which gives a rank's k_2.
    The tail of colex rank r has c_i = t_i + i - 1, for i = m down to 1,
    the largest c with C(c, i) <= r, and r then drops by C(c_i, i).  Only
    the tables of C(c, i) for i >= 2 are kept, since C(c, 1) = c.  Their
    entries are clamped at the tuple count: every rank lies below it,
    and from N = 66 or so C(c, i) can pass the int64 range.

    Rank 0, the all-zero tuple, is scored on its own.  The first block
    ends before rank ``BOUND_BLOCK_ROWS`` + 1 at N > 2 and before the
    first tuple of k_2 = ``BOUND_BLOCK_ROWS``, rank ``BOUND_BLOCK_ROWS``,
    at N = 2; every later block holds the next ``BOUND_BLOCK_ROWS`` ranks.
    Each block keeps its ``_canonical`` rows; an empty one is not
    yielded.  Memory grows with the block and with the N - 2 tables of
    levels + N entries each, never with the number of tuples.
    """
    if n < 2:
        return
    m = n - 2
    top = levels + m + 1
    total = math.comb(top, m + 1)
    tables = {i: np.array([min(math.comb(c, i), total)
                           for c in range(top + 1)], dtype=np.int64)
              for i in range(2, m + 2)}

    def choose(c, i):
        return c if i == 1 else tables[i][c]

    def largest_at_most(r, i):
        """The largest c with C(c, i) <= r."""
        return r if i == 1 else np.searchsorted(tables[i], r, "right") - 1

    start, stop = 1, min(BOUND_BLOCK_ROWS + (n > 2), total)
    while start < total:
        # the s last tuples have k_2 >= top - c, for the least c with
        # C(c, m + 1) >= s
        s = total - np.arange(start, stop, dtype=np.int64)
        c = largest_at_most(s - 1, m + 1) + 1
        K = np.empty((len(s), n - 1), dtype=np.intp)
        K[:, 0] = top - c
        rank = choose(c, m + 1) - s  # the tail's colex rank
        for i in range(m, 0, -1):
            c = largest_at_most(rank, i)
            K[:, i] = K[:, 0] + c - (i - 1)
            rank = rank - choose(c, i)
        K = np.compress(_canonical(K), K, axis=0)
        if len(K):
            yield K
        start, stop = stop, min(stop + BOUND_BLOCK_ROWS, total)


def _seed_stride(n: int, levels: int) -> int:
    """Least stride s whose sub-grid holds at most 2 ``BOUND_BLOCK_ROWS``.

    The sub-grid is the tuples s K' with 0 <= k'_2 <= ... <= k'_N <=
    levels // s, C(levels // s + N - 1, N - 1) of them; s is found by
    bisection.  A stride of 1 means the grid is already that small.
    """
    lo, hi = 1, max(levels, 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if math.comb(levels // mid + n - 1, n - 1) <= 2 * BOUND_BLOCK_ROWS:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _gap_layouts(K: np.ndarray, scenario: Scenario, step: float) -> np.ndarray:
    """Layouts x_j = min((j-1) d_min + step k_j, L), x_1 = 0, of ``K``."""
    n = K.shape[1] + 1
    X = np.zeros((len(K), n))
    X[:, 1:] = np.minimum(scenario.min_spacing * np.arange(1, n, dtype=float)
                          + step * K, scenario.aperture)
    return X


def _gap_bounds(n: int, scenarios, levels: int, step: float):
    """Each power's rate bounds, as a function of a block of gap tuples.

    The block is a (K, N-1) array, and ``scenarios`` differ only in
    ``power_budget``.  Gap coordinate j takes only ``levels + 1``
    positions, so the pair phases P[j, k] of each coordinate are
    tabulated once, and a tuple's Gram entries are 1 + sum_j P[j, k_j]:
    one gather and add per gap.  The tables hold M (M + 1) / 2 (N - 1)
    (levels + 1) complex entries.  At N = 2 each level is one tuple and
    at N = 1 there is no block, so no table is built for N <= 2 and the
    entries are summed over the antennas as in ``_rate_bounds``.
    Neither depends on the power, so each entry of a block is gathered
    once for every scenario.

    The returned ``bounds(K, floors)`` bounds in two stages, with one
    floor per scenario.  First the M entries between Bob and the
    eavesdroppers give each power's one-eavesdropper pivot
    (``_eve_pivots``), whose log2 bounds the rate.  The rows that some
    power cannot rule out with it, a bound at or above that power's
    floor, then gather their other entries and run ``_last_pivot``, the
    bound of ``_rate_bounds``, at every power.  A cheap pivot that is
    not positive and finite never rules a row out, so that row reaches
    ``_last_pivot``, which raises.  The function returns one (K,) array
    of upper bounds per scenario, in order: ``_last_pivot``'s on the
    rows that reached it and the one-eavesdropper bound, below that
    power's floor, on the others.  A floor of -inf gives
    ``_last_pivot``'s bound on every row.

    Raises:
        EigensolverError: a pivot is not positive and finite.
    """
    base = scenarios[0]
    size = base.num_eves + 1
    bob = np.triu_indices(size, 1)[1] == size - 1  # Bob's pairs, in order
    # gram(K): the entries of Bob's pairs, and a function that returns
    # the other entries of the rows it is given
    if n <= 2:
        def gram(K):
            X = _gap_layouts(K, base, step)
            entries = _pair_phases(X, base).sum(axis=-1)
            return entries[bob], lambda rows: entries[~bob][:, rows]
    else:
        # row k of the grid: every gap coordinate at level k
        grid = _gap_layouts(
            np.arange(levels + 1)[:, None].repeat(n - 1, axis=1), base,
            step)[:, 1:]
        phases = _pair_phases(grid.T, base).swapaxes(0, 1)
        tables = phases[:, bob].copy(), phases[:, ~bob].copy()

        def gather(table, K):
            entries = 1.0 + np.take(table[0], K[:, 0], axis=1)
            for entry, k in zip(table[1:], K[:, 1:].T):
                entries += np.take(entry, k, axis=1)
            return entries

        def gram(K):
            return (gather(tables[0], K),
                    lambda rows: gather(tables[1], K[rows]))

    def bounds(K, floors):
        bob_entries, others = gram(K)
        pivots = _eve_pivots(bob_entries, n, scenarios)
        # a row is ruled out at a power whose cheap pivot is positive and
        # below 2^floor; NaN fails both comparisons and is never ruled out
        low = np.ones(len(K), dtype=bool)
        for pivot, floor in zip(pivots, floors):
            low &= (pivot > 0.0) & (pivot < 2.0 ** floor)
        rows = np.flatnonzero(~low)
        if len(rows):
            entries = np.empty((len(bob), len(rows)), dtype=complex)
            entries[bob] = bob_entries[:, rows]
            entries[~bob] = others(rows)
            for pivot, scenario in zip(pivots, scenarios):
                pivot[rows] = _last_pivot(entries, n, scenario)
        return [np.log2(pivot) for pivot in pivots]
    return bounds


class _PowerScreen:
    """One power's side of ``best_gap_layout``.

    It holds the power's running best rate and the scored rows in its
    band, ``tuples`` and ``rates``; when the best rises, the rows that
    fall below the new band are dropped, so memory follows the band.
    The all-zero tuple, the FPA layout, is scored when the screen is made
    and stays the first row while the band reaches 0.
    """

    def __init__(self, n: int, scenario: Scenario, layouts, rows: int):
        self.scenario, self.layouts, self.rows = scenario, layouts, rows
        self.slack = _rate_slack(n, scenario)
        self.tuples = np.zeros((1, n - 1), dtype=np.intp)
        self.rates = best_secrecy_rates(layouts(self.tuples), scenario)
        self.best = float(self.rates[0])

    def floor(self) -> float:
        """Lower edge of the band that a row must reach to be kept."""
        return self.best - MIRROR_RTOL * max(self.best, 1.0) - self.slack

    def screen(self, K: np.ndarray, bounds: np.ndarray) -> None:
        """Score the rows of block ``K`` whose bound reaches the band."""
        bounds = bounds + self.slack
        keep = np.flatnonzero(bounds >= self.floor())
        order = keep[np.argsort(-bounds[keep])]
        K, bounds = K[order], bounds[order]
        rows = self.rows
        # the rows that can still reach the band are a prefix of the block
        while live := np.count_nonzero(bounds >= self.floor()):
            chunk, K, bounds = K[:min(live, rows)], K[rows:], bounds[rows:]
            rates = best_secrecy_rates(self.layouts(chunk), self.scenario)
            self.best = max(self.best, float(rates.max()))
            rates = np.concatenate([self.rates, rates])
            mask = rates >= self.floor()
            self.tuples = np.vstack([self.tuples, chunk])[mask]
            self.rates = rates[mask]

    def winner(self):
        """Score the mirrors of the rows in the band; the best row and rate."""
        K, rates = self.tuples, self.rates
        j = 0  # a best rate of zero up to rounding: the FPA layout wins
        if self.best > MIRROR_RTOL + self.slack:
            mirrors = _mirror(K)
            mirrors = mirrors[(mirrors != K).any(axis=1)]
            rows = self.rows
            scored = [best_secrecy_rates(self.layouts(mirrors[i:i + rows]),
                                         self.scenario)
                      for i in range(0, len(mirrors), rows)]
            K = np.vstack([K, mirrors])
            rates = np.concatenate([rates, *scored])
            j = min(np.flatnonzero(rates == rates.max()),
                    key=lambda i: K[i].tolist())
        best_x = self.layouts(K[j:j + 1])[0]
        best_x.setflags(write=False)
        return best_x, float(rates[j])


def best_gap_layout(n: int, scenarios, levels: int, step: float) -> list:
    """Highest-rate layout on a gap grid with x_1 = 0, at each power.

    ``scenarios`` is a sequence of scenarios that differ only in
    ``power_budget``; the start scan and the grid oracle pass one.
    Candidates are x_j = (j-1) d_min + step k_j, clipped at L, for every
    non-decreasing integer tuple 0 <= k_2 <= ... <= k_N <= ``levels`` in
    lexicographic order.  Exact rate ties keep the earliest tuple; N = 1
    scores its single layout x = [0].

    Mirroring a layout, x' = x_N - reverse(x) with the beamformer
    reverse(conj w), keeps every beam gain, so a tuple and the tuple of
    its reversed gaps have the same rate up to rounding.  Only the
    canonical tuple of each pair (``_canonical``) can score, and only if
    its rate can reach the band of the running best: ``MIRROR_RTOL``
    relative to at least 1 bps/Hz, plus ``_rate_slack``.  The all-zero
    tuple, the FPA layout, is scored first.  The other canonical tuples
    come from ``_gap_blocks`` in blocks of at most ``BOUND_BLOCK_ROWS``,
    each built from its ranks, so no array grows with the number of
    tuples.  Where the grid holds more than 2 ``BOUND_BLOCK_ROWS``
    tuples, a seed pass first screens the coarse sub-grid of the tuples
    s K', s the ``_seed_stride``, whose few blocks raise the band before
    the full enumeration starts.  Its tuples are grid tuples built with
    the same ``step``, so their rates are the full grid's bits; the full
    pass meets them again, and may score a few of them twice.
    ``_gap_bounds`` bounds a whole block, from per-gap phase tables,
    before any pencil is solved: first by the one-eavesdropper pivot,
    then, on the rows that it cannot rule out below some power's band,
    by the unrolled elimination.  The tables and a block's Gram entries
    do not depend on the power, so they are built once for every
    scenario; each power then screens the block with its own bounds,
    running best, band and kept rows (``_PowerScreen``), as a call with
    that scenario alone would.  A row whose bound plus ``_rate_slack``
    lies below the band is skipped: its rate is certified below the
    best, so neither it nor its mirror can win or tie.  The others are
    scored in order of decreasing bound, in chunks of about
    ``CANDIDATE_CHUNK_ENTRIES`` matrix entries, and the rest of the
    block is screened again after each chunk.  The band only rises as
    the best does, so every row in the final band is scored, whatever
    the order of the blocks, and the rows that fall below it are
    dropped.  Those rows then have their mirrors scored too, and the
    highest of those rates wins, so the result is the full grid's, bit
    for bit.  A best rate within
    ``MIRROR_RTOL`` plus ``_rate_slack`` of 0 is rounding noise on a grid
    where every rate is 0 (Bob among the eavesdroppers, say); there the
    FPA layout wins with the rate scored for it.

    Returns:
        list of (ndarray, float), one per scenario in order: the best
        layout, read-only, and its clamped rate.
    """
    rows = max(1, CANDIDATE_CHUNK_ENTRIES // (n * n))

    def layouts(K):
        return _gap_layouts(K, scenarios[0], step)

    screens = [_PowerScreen(n, scenario, layouts, rows)
               for scenario in scenarios]
    rate_bounds = _gap_bounds(n, scenarios, levels, step)
    blocks = _gap_blocks(n, levels)
    stride = _seed_stride(n, levels)
    if stride > 1:
        seed = (stride * K for K in _gap_blocks(n, levels // stride))
        blocks = itertools.chain(seed, blocks)
    for K in blocks:
        floors = [screen.floor() - screen.slack for screen in screens]
        for screen, bounds in zip(screens, rate_bounds(K, floors)):
            screen.screen(K, bounds)
    return [screen.winner() for screen in screens]
