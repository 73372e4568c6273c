"""Optimal transmit beamformer for fixed antenna positions.

For fixed positions the secrecy objective reduces to a generalized
Rayleigh quotient (1 + w^H A w) / (1 + w^H B w) over ||w||^2 = P_A,
maximized in closed form by the dominant eigenvector of the Hermitian
pencil (A + I/P_A, B + I/P_A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (TWO_PI, Scenario, _angle_steering, _psi, _psi_gradient,
                   _squared_inner, steering_vector)

# Relative gap under which the top eigenvalue is flagged as degenerate.
DEGENERACY_RTOL = 1e-10

# Matrix entries per batched call in ``best_gap_layout``: the temporaries
# grow as rows * N^2, so larger arrays are scored in fewer rows.
CANDIDATE_CHUNK_ENTRIES = 1024

# Most gap tuples per block that ``best_gap_layout`` enumerates and bounds
# at once: a block spreads the few dozen vector operations of its bound
# over a thousand rows or so, and its arrays stay near 0.2 MB at M = 3.
# The seed pass's sub-grid holds at most twice as many (``_seed_stride``).
BOUND_BLOCK_ROWS = 2048

# Most levels of k_3 in one run of ``best_gap_layout``'s run stage, and
# most runs per block of ``_gap_runs``.  One run bound serves up to 16
# tuples.  Runs of 12 levels made every big ``sweep_m3`` and ``paper_n3``
# scan slower, by more bounds; runs of 32 the ``sweep_m3`` scan at N = 3,
# by more tuples built.  A run costs about two tuples' bound, so a block
# of runs is larger than one of tuples, which saves per-block calls.
RUN_LEVELS = 16
RUN_BLOCK_RUNS = 4 * BOUND_BLOCK_ROWS


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
    every angle come from one steering evaluation (``core._angle_steering``).
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
    power budget per row.  One steering evaluation gives the
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


def best_secrecy_rates(X, scenario: Scenario, budget=None) -> np.ndarray:
    """Clamped optimal secrecy rate per candidate position row, batched.

    Row k of the (K, N) array ``X`` is one layout; the result is
    [log2 lambda_max]^+ of its pencil, i.e. the secrecy rate reached by
    the optimal beamformer at that layout.  ``budget`` is P_A,
    ``scenario.power_budget`` by default.
    """
    budget = scenario.power_budget if budget is None else budget
    eigvals = _pencil(build_forms(X, scenario), budget)
    return np.maximum(np.log2(eigvals[:, -1]), 0.0)


def _pair_phases(x, scenario: Scenario) -> np.ndarray:
    """Products conj(v_a) v_b of steering-vector entries at positions ``x``.

    The angles are ordered eavesdroppers first and Bob last, and row p of
    the (P,) + x.shape result is the pair a < b at ``np.triu_indices``
    position p, P = M (M + 1) / 2.  Summed over the antennas of a layout,
    row p is the Gram entry Gamma_ab = v_a^H v_b.  The entries come from
    ``steering_vector``, with the bits of the scorer's steering vectors.
    """
    angles = np.roll(scenario.angles, -1)
    v = steering_vector(x, angles.reshape((-1,) + (1,) * np.ndim(x)),
                        scenario.wavelength)
    a, b = np.triu_indices(len(angles), 1)
    return v[a].conj() * v[b]


def _last_pivot(gram: np.ndarray, n: int, scenario: Scenario,
                budgets) -> np.ndarray:
    """Last pivot of I + rho Gamma for a batch of N-antenna Gram matrices.

    ``gram`` holds the entries of Gamma above the diagonal, shape
    (M (M + 1) / 2, K) in ``_pair_phases`` order (row-major above the
    diagonal); the diagonal is N.  The LDL^H elimination is unrolled
    over the (M+1) x (M+1) entries, each step one vector operation on
    all K rows and every power at once, rho = P_A / sigma^2 a column of
    one row per budget of ``budgets``; ``gram`` is left unchanged.  The
    last pivot is the Schur complement of the eavesdropper block, 1 + t
    with t = rho a^H (I + rho E E^H)^-1 a, a = a(x, theta_0) and the
    eavesdropper steering vectors the columns of E.  By Cauchy-Schwarz
    in the (I + rho E E^H) inner product, t < lambda_max <= 1 + t, so
    log2 of the pivot bounds the rate, and no N x N form is built.

    Returns:
        (P, K) array, one row of pivots for each of the P budgets.

    Raises:
        EigensolverError: a pivot is not positive and finite, where a
            Cholesky factorization would fail.
    """
    rho = np.asarray(budgets, dtype=float)[:, None] / scenario.noise_power
    size = scenario.num_eves + 1
    pairs = [(a, b) for a in range(size) for b in range(a + 1, size)]
    upper = {pair: rho * entries for pair, entries in zip(pairs, gram)}
    pivots = [1.0 + rho * n] * size
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


def _eve_pivots(gram: np.ndarray, n: int, scenario: Scenario,
                budgets) -> np.ndarray:
    """Least last pivot of I + rho Gamma over Bob and one eavesdropper.

    ``gram`` holds the M entries Gamma_0i between Bob and each
    eavesdropper, shape (M, K).  With Bob and eavesdropper i alone the
    last pivot is 1 + rho N - rho^2 |Gamma_0i|^2 / (1 + rho N).  Removing
    eavesdroppers only raises it, since (I + rho E E^H)^-1 is below
    (I + rho e_i e_i^H)^-1, so the least of these M pivots is at least
    ``_last_pivot``'s.  The largest |Gamma_0i|^2 does not depend on the
    power, so the (P, K) pivots of every budget come from one reduction
    (``_peak_pivots``).  Nothing is checked here: a pivot that is not
    positive and finite is returned as it is.
    """
    return _peak_pivots((gram.real ** 2 + gram.imag ** 2).max(axis=0), n,
                        scenario, budgets)


def _peak_pivots(peak, n: int, scenario: Scenario, budgets) -> np.ndarray:
    """``_eve_pivots``' pivots from the largest |Gamma_0i|^2, ``peak``.

    One row per budget.  Each pivot is one expression in ``peak`` whose
    every rounded step is monotone, so it never rises as ``peak`` does,
    in floating point too: a lower bound on a tuple's computed ``peak``
    gives an upper bound on its computed pivot, and an upper bound a
    lower one.
    """
    rho = np.asarray(budgets, dtype=float)[:, None] / scenario.noise_power
    d = 1.0 + rho * n
    return d - rho * rho * peak / d


def _ruled_out(pivots: np.ndarray, floors) -> np.ndarray:
    """Mask of the columns of the (P, K) ``pivots`` whose pivot is positive
    and below 2^floor in every row, one floor per row; NaN fails both
    comparisons and is never ruled out."""
    tops = np.array([[2.0 ** floor] for floor in floors])
    return ((pivots > 0.0) & (pivots < tops)).all(axis=0)


def _rate_slack(n: int, scenario: Scenario, budget=None):
    """Rounding allowance, in bps/Hz, for rates of N-antenna layouts.

    16 eps (1 + rho N (M + 1)) / ln 2 with rho = P_A / sigma^2, P_A being
    ``budget`` or, by default, ``scenario.power_budget``; a (K,) array
    of budgets gives a (K,) array of allowances.  The
    matrices that ``_last_pivot`` eliminates and ``best_secrecy_rates``
    factors are a unit shift plus terms of total size up to
    rho N (M + 1), and their log2 arguments are at least 1.  On random
    layouts with rho up to 3e10 the two computations break the
    inequalities t < lambda_max <= 1 + t of ``_last_pivot`` by at most a
    tenth of this allowance, with the Gram entries summed over the
    antennas or gathered from ``_GapBounds``' tables.  It covers the
    one-eavesdropper bound of ``_eve_pivots`` too: on such layouts, with
    rho up to 3e10, that bound falls below the rate, or below
    ``_last_pivot``'s bound, by at most a nineteenth of this allowance.
    And the computed rates of a layout and its mirror differ by less
    than it: on random layouts with N up to 8 and rho from 1e-6 to
    3e10, by at most 0.6 of it, and by at most a tenth from rho = 10.
    Below rho = 1 the gap grows with N, to 0.75 of it at N = 24.
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


def _tuple_blocks(n: int, levels: int, start: int, stop: int, rows: int):
    """The tuples 0 <= k_2 <= ... <= k_N <= ``levels`` by rank, in blocks.

    The tuples run by k_2, then by their tails t = (k_3, ..., k_N) - k_2
    in colex order (by the last entry, then the one before, and so on).
    Each tuple has a rank in that order, and every block is built from
    its ranks alone by the combinatorial number system.  With m = N - 2,
    the C(levels - k + m + 1, m + 1) tuples of k_2 >= k close the order,
    which gives a rank's k_2.  The tail of colex rank r has
    c_i = t_i + i - 1, for i = m down to 1, the largest c with
    C(c, i) <= r, and r then drops by C(c_i, i).  Only the tables of
    C(c, i) for i >= 2 are kept, since C(c, 1) = c.  Their entries are
    clamped at the tuple count: every rank lies below it, and from N = 66
    or so C(c, i) can pass the int64 range.

    The first block holds the ranks from ``start`` to before ``stop``,
    every later one the next ``rows`` ranks, up to the last tuple.
    Memory grows with the block and with the N - 2 tables of levels + N
    entries each, never with the number of tuples.
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

    stop = min(stop, total)
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
        yield K
        start, stop = stop, min(stop + rows, total)


def _gap_blocks(n: int, levels: int):
    """The canonical gap tuples after the all-zero one, in blocks.

    The blocks of ``_tuple_blocks``, in its rank order.  Rank 0, the
    all-zero tuple, is scored on its own.  The first block ends before
    rank ``BOUND_BLOCK_ROWS`` + 1 at N > 2 and before the first tuple of
    k_2 = ``BOUND_BLOCK_ROWS``, rank ``BOUND_BLOCK_ROWS``, at N = 2; every
    later block holds the next ``BOUND_BLOCK_ROWS`` ranks.  Each block
    keeps its ``_canonical`` rows; an empty one is not yielded.
    """
    for K in _tuple_blocks(n, levels, 1, BOUND_BLOCK_ROWS + (n > 2),
                           BOUND_BLOCK_ROWS):
        K = np.compress(_canonical(K), K, axis=0)
        if len(K):
            yield K


def _gap_runs(n: int, levels: int):
    """The runs of k_3 of an N >= 3 gap grid, in blocks of (K, last).

    A run fixes every entry of a tuple but k_3, which takes the values
    from K[:, 1] to ``last``, ``RUN_LEVELS`` of them at most.  Its head
    (k_2, k_4, ..., k_N) is a tuple of the (N-1)-antenna grid, and the
    heads come from ``_tuple_blocks`` in rank order.  A head's tuples are
    consecutive ranks of the N-antenna order, k_3 from k_2 to k_4
    (``levels`` at N = 3), so the runs follow that order too.  The range
    is cut to the canonical tuples at N = 3 (k_3 >= 2 k_2) and N = 4
    (k_3 <= k_4 - k_2), and split into runs from its low end.  A block
    holds the runs of RUN_BLOCK_RUNS // (levels // RUN_LEVELS + 1) heads,
    or of one, so about ``RUN_BLOCK_RUNS`` runs at most; memory follows
    the block and the levels, never the number of tuples.
    """
    heads = max(1, RUN_BLOCK_RUNS // (levels // RUN_LEVELS + 1))
    for H in _tuple_blocks(n - 1, levels, 0, heads, heads):
        if n == 3:
            first, last = 2 * H[:, 0], np.full(len(H), levels)
        else:
            first, last = H[:, 0], H[:, 1] - (H[:, 0] if n == 4 else 0)
        count = np.maximum((last - first) // RUN_LEVELS + 1, 0)
        head = np.repeat(np.arange(len(H)), count)
        K = np.empty((len(head), n - 1), dtype=np.intp)
        K[:, 0] = H[head, 0]
        K[:, 2:] = H[head, 1:]
        K[:, 1] = first[head] + RUN_LEVELS * (
            np.arange(len(head)) - np.repeat(np.cumsum(count) - count, count))
        yield K, np.minimum(K[:, 1] + RUN_LEVELS - 1, last[head])


def _run_rows(K: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Every tuple of the runs (K, last) of ``_gap_runs``, run by run."""
    size = last - K[:, 1] + 1
    rows = np.repeat(K, size, axis=0)
    rows[:, 1] += np.arange(len(rows)) - np.repeat(np.cumsum(size) - size,
                                                   size)
    return rows


def _levels_within(n: int, budget: int, top: int) -> int:
    """Most levels K <= ``top`` whose N-antenna gap grid fits ``budget``.

    The grid 0 <= k_2 <= ... <= k_N <= K holds C(K + N - 1, N - 1)
    tuples, which grows with K; K is found by bisection.
    """
    lo, hi = 0, top
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if math.comb(mid + n - 1, n - 1) <= budget:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _seed_stride(n: int, levels: int) -> int:
    """Least stride s whose sub-grid holds at most 2 ``BOUND_BLOCK_ROWS``.

    The sub-grid is the tuples s K' with 0 <= k'_2 <= ... <= k'_N <=
    levels // s.  It fits where levels // s is at most the K of
    ``_levels_within`` at that budget, so s = levels // (K + 1) + 1.  A
    stride of 1 means the grid is already that small.
    """
    return levels // (_levels_within(n, 2 * BOUND_BLOCK_ROWS, levels) + 1) + 1


def _gap_layouts(K: np.ndarray, scenario: Scenario, step: float) -> np.ndarray:
    """Layouts x_j = min((j-1) d_min + step k_j, L), x_1 = 0, of ``K``."""
    n = K.shape[1] + 1
    X = np.zeros((len(K), n))
    X[:, 1:] = np.minimum(scenario.min_spacing * np.arange(1, n, dtype=float)
                          + step * K, scenario.aperture)
    return X


class _GapBounds:
    """Each power's rate bounds on the tuples and the runs of a gap grid.

    The powers are the P entries of ``budgets``, and ``scenario`` holds
    the rest of the instance.  Gap coordinate j takes only ``levels + 1``
    positions, so the pair phases P[j, k] of each coordinate are
    tabulated once, and a tuple's Gram entries are 1 + sum_j P[j, k_j]:
    one gather and add per gap (``gram``).  The
    tables hold M (M + 1) / 2 (N - 1) (levels + 1) complex entries.  At
    N = 2 each level is one tuple and at N = 1 there is no block, so no
    table is built for N <= 2 and the entries are summed over the
    antennas.  Neither depends on the power, so each entry of a block
    is gathered once for every budget.

    Called on a (K, N-1) block of tuples with one floor per budget,
    it bounds in two row stages.  First the M entries between Bob and
    the eavesdroppers give each power's one-eavesdropper pivot
    (``_eve_pivots``), whose log2 bounds the rate.  The rows that some
    power cannot rule out with it, a bound at or above that power's
    floor, then gather their other entries and run ``_last_pivot`` at
    every power.  A cheap pivot that is not positive and finite never
    rules a row out (``_ruled_out``), so that row reaches
    ``_last_pivot``, which raises.  The call returns a
    (P, K) array of upper bounds, one row per budget: ``_last_pivot``'s
    on the rows that reached it and the one-eavesdropper bound, below
    that power's floor, on the others.  A floor of -inf gives
    ``_last_pivot``'s bound on every row.

    ``runs`` bounds the one-eavesdropper pivots of a whole run of
    ``_gap_runs`` from above, before any of its tuples is built.

    Raises:
        EigensolverError: a pivot is not positive and finite.
    """

    def __init__(self, n: int, scenario: Scenario, levels: int, step: float,
                 budgets):
        self.n, self.scenario = n, scenario
        self.step, self.budgets = step, budgets
        size = scenario.num_eves + 1
        self.bob = np.triu_indices(size, 1)[1] == size - 1  # Bob's pairs
        if n <= 2:
            return
        # row k of the grid: every gap coordinate at level k
        grid = _gap_layouts(
            np.arange(levels + 1)[:, None].repeat(n - 1, axis=1), scenario,
            step)[:, 1:]
        phases = _pair_phases(grid.T, scenario).swapaxes(0, 1)
        self.tables = phases[:, self.bob].copy(), phases[:, ~self.bob].copy()
        # the run stage (``runs``): antenna 3's positions, and the rate
        # kappa_i = (2 pi / lambda) |cos theta_0 - cos theta_i| at which the
        # phase of P_i turns with x_3, one row per eavesdropper
        self.x3 = grid[:, 1]
        cos = scenario.cosines[:, None]
        self.kappa = (TWO_PI / scenario.wavelength) * np.abs(cos[1:] - cos[0])
        eps = np.finfo(float).eps
        # a table entry's phase is off by a few ulps of its argument,
        # (2 pi / lambda) x cos theta with x <= L, and the phase of the
        # product P_i by twice that: ``turn`` covers both, in radians
        self.turn = 64 * eps * (1.0 + TWO_PI * scenario.aperture
                                / scenario.wavelength)
        # a sum of N unit phases is off by at most N^2 eps, c_i and a
        # tuple's Gamma_0i alike; with the moduli of the phases, the
        # rounding of the arc's formula and of the squares, all is below
        # ``margin``
        self.margin = 8 * eps * (n + 1) ** 2
        # every tuple has |Gamma_0i| <= N + margin, so where that gives a
        # positive, finite pivot at every power, so does every tuple
        low = _peak_pivots(np.float64(n + self.margin) ** 2, n, scenario,
                           budgets)
        self.positive = bool(((low > 0.0) & (low < np.inf)).all())

    def gram(self, K):
        """The entries of Bob's pairs of the tuples ``K``, (M, K), and a
        function that returns the other entries of the rows it is given."""
        if self.n <= 2:
            X = _gap_layouts(K, self.scenario, self.step)
            entries = _pair_phases(X, self.scenario).sum(axis=-1)
            return (entries[self.bob],
                    lambda rows: entries[~self.bob][:, rows])
        return (_gather(self.tables[0], K, range(self.n - 1)),
                lambda rows: _gather(self.tables[1], K[rows],
                                     range(self.n - 1)))

    def __call__(self, K, floors):
        """The two row stages on the tuples ``K``, one floor per power."""
        bob = self.bob
        bob_entries, others = self.gram(K)
        pivots = _eve_pivots(bob_entries, self.n, self.scenario, self.budgets)
        rows = np.flatnonzero(~_ruled_out(pivots, floors))
        if len(rows):
            entries = np.empty((len(bob), len(rows)), dtype=complex)
            entries[bob] = bob_entries[:, rows]
            entries[~bob] = others(rows)
            pivots[:, rows] = _last_pivot(entries, self.n, self.scenario,
                                          self.budgets)
        return np.log2(pivots)

    def runs(self, K, last):
        """Each power's upper bound on the cheap pivots of the runs (K, last).

        A run's tuples share every Gram entry but antenna 3's term:
        Gamma_0i = c_i + P_i[k_3], c_i gathered from the other gaps' tables.
        As k_3 runs from K[:, 1] to ``last``, P_i[k_3] stays on the arc of
        the unit circle within kappa_i h of the table entry of the middle
        level, h the largest distance of x_3 from its middle value.  The
        least |c_i + e^(j phi)| over that arc is ||c_i| - 1| if the arc
        holds the direction of -c_i, and is reached at the nearer end
        otherwise: sqrt((|c_i| - 1)^2 + 4 |c_i| sin^2(g / 2)), g the angle
        from -c_i to the arc, is both, and rounds to a few ulps.  The arc
        is widened by ``turn``, which covers the rounding of the phases,
        and the modulus lowered by ``margin``, which covers the rounding
        of the sums and of |Gamma_0i|^2, so this bound's peak is at most
        the computed peak of every tuple of the run, and by
        ``_peak_pivots`` its pivot at least their ``_eve_pivots``.  Where
        ``positive`` does not hold, a run gets the bound +inf, which rules
        nothing out.

        Returns:
            (P, R) array, one row per budget.
        """
        if not self.positive:
            return np.full((len(self.budgets), len(K)), np.inf)
        first = K[:, 1]
        mid = (first + last) // 2
        x = self.x3
        h = np.maximum(x[last] - x[mid], x[mid] - x[first])
        c = _gather(self.tables[0], K, [0, *range(2, self.n - 1)])
        centre = np.take(self.tables[0][1], mid, axis=1)
        size = np.abs(c)
        g = np.maximum(np.pi - np.abs(np.angle(c * centre.conj()))
                       - self.kappa * h - self.turn, 0.0)
        low = np.sqrt((size - 1.0) ** 2 + 4.0 * size * np.sin(0.5 * g) ** 2)
        low = np.maximum(low - self.margin, 0.0)
        return _peak_pivots((low * low).max(axis=0), self.n, self.scenario,
                            self.budgets)


def _gather(table, K, columns):
    """1 + sum_j table[j][:, K[:, j]] over the gap coordinates ``columns``."""
    entries = 1.0 + np.take(table[columns[0]], K[:, columns[0]], axis=1)
    for j in columns[1:]:
        entries += np.take(table[j], K[:, j], axis=1)
    return entries


class _PowerScreen:
    """One power's side of ``best_gap_layout``.

    It holds the power's best rate and its tuple, and the FPA rate of the
    all-zero tuple, which is scored first.  Every row is scored by
    ``best_secrecy_rates`` at the power ``budget``.  After each scored
    chunk it scores the mirrors of the chunk rows whose rate lies within
    ``_rate_slack`` of the running best and above it.  The highest rate
    is kept, and on an exact tie the lexicographically smallest tuple.
    Nothing is kept per row, so the screen's state does not grow with
    the rows near the best.
    """

    def __init__(self, n: int, scenario: Scenario, budget: float, layouts,
                 rows: int):
        self.scenario, self.budget = scenario, budget
        self.layouts, self.rows = layouts, rows
        self.slack = _rate_slack(n, scenario, budget)
        self.tuple = np.zeros((1, n - 1), dtype=np.intp)
        self.fpa = self.best = float(best_secrecy_rates(
            layouts(self.tuple), scenario, budget)[0])

    def floor(self) -> float:
        """Least rate bound of a row whose rate, or its mirror's, can reach
        the best: a rate is at most its bound plus ``_rate_slack``, and a
        mirror's rate lies within ``_rate_slack`` of it."""
        return self.best - 2 * self.slack

    def screen(self, K: np.ndarray, bounds: np.ndarray) -> None:
        """Score the rows of block ``K`` whose bound reaches the floor."""
        keep = np.flatnonzero(bounds >= self.floor())
        order = keep[np.argsort(-bounds[keep])]
        K, bounds = K[order], bounds[order]
        rows = self.rows
        # the rows that can still reach the floor are a prefix of the block
        while live := np.count_nonzero(bounds >= self.floor()):
            chunk, K, bounds = K[:min(live, rows)], K[rows:], bounds[rows:]
            rates = self._keep(chunk)
            near = chunk[(rates >= self.best - self.slack)
                         & (rates > self.slack)]
            mirrors = _mirror(near)
            mirrors = mirrors[(mirrors != near).any(axis=1)]
            if len(mirrors):
                self._keep(mirrors)

    def _keep(self, K: np.ndarray) -> np.ndarray:
        """Score the tuples ``K``, and keep the highest of their rates and
        the best, the lexicographically smallest tuple on a tie."""
        rates = best_secrecy_rates(self.layouts(K), self.scenario,
                                   self.budget)
        top = float(rates.max())
        if top >= self.best:
            ties = K[rates == top]
            if top == self.best:
                ties = np.vstack([self.tuple, ties])
            self.best = top
            self.tuple = np.array([min(ties.tolist())], dtype=np.intp)
        return rates

    def winner(self):
        """The best layout and its rate.  A best rate of at most twice
        ``_rate_slack`` is rounding noise on a grid where every rate is 0,
        and the FPA layout wins with the rate scored for it."""
        K, rate = self.tuple, self.best
        if rate <= 2 * self.slack:
            K, rate = np.zeros_like(K), self.fpa
        best_x = self.layouts(K)[0]
        best_x.setflags(write=False)
        return best_x, rate


def best_gap_layout(n: int, scenario: Scenario, levels: int, step: float,
                    budgets=None) -> list:
    """Highest-rate layout on a gap grid with x_1 = 0, at each power.

    The powers are ``budgets``, a sequence of P_A values, by default
    ``[scenario.power_budget]``; ``scenario`` holds the rest of the
    instance.  ``sweep-n`` passes several budgets, the start scan of one
    solve and the grid oracle one.  Candidates are
    x_j = (j-1) d_min + step k_j, clipped at L, for every non-decreasing
    integer tuple 0 <= k_2 <= ... <= k_N <= ``levels`` in lexicographic
    order.  Exact rate ties keep the earliest tuple; N = 1 scores its
    single layout x = [0].

    Mirroring a layout, x' = x_N - reverse(x) with the beamformer
    reverse(conj w), keeps every beam gain, so a tuple and the tuple of
    its reversed gaps have the same rate up to rounding, which
    ``_rate_slack`` covers.  Only the canonical tuple of each pair
    (``_canonical``) is screened, and it is scored only if its bound
    reaches the power's floor, the running best less twice
    ``_rate_slack`` (``_PowerScreen``).  The all-zero tuple, the FPA
    layout, is scored first.  The other canonical tuples
    come from ``_gap_blocks`` in blocks of at most ``BOUND_BLOCK_ROWS``,
    each built from its ranks, so no array grows with the number of
    tuples.  Where the grid holds more than 2 ``BOUND_BLOCK_ROWS``
    tuples, a seed pass first screens the coarse sub-grid of the tuples
    s K', s the ``_seed_stride``, whose few blocks raise the floor
    before the full pass starts.  Its tuples are grid tuples built with
    the same ``step``, so their rates are the full grid's bits, and the full
    pass leaves out every tuple whose entries are all multiples of s, so
    no row is scored twice.  At N >= 3 the full pass then enumerates
    runs, not tuples (``_gap_runs``): up to ``RUN_LEVELS`` consecutive
    values of k_3 with every other entry fixed.  ``_GapBounds.runs``
    bounds the one-eavesdropper pivot of every tuple of a run at once,
    and a run is built (``_run_rows``) only if some power's floor cannot
    rule it out; the tuples of a run that is ruled out are each ruled
    out by the first row stage at the same floors, with a positive,
    finite pivot, so no tuple that would raise is hidden.  The grids
    without a seed pass hold a block or two, and their floor starts at
    the FPA rate, so they are enumerated tuple by tuple.
    ``_GapBounds`` bounds a whole block, from per-gap phase tables,
    before any pencil is solved: first by the one-eavesdropper pivot,
    then, on the rows that it cannot rule out below some power's floor,
    by the unrolled elimination.  The tables and a block's Gram entries
    do not depend on the power, so they are built once for every
    budget; each power then screens the block with its own bounds,
    floor and running best (``_PowerScreen``), as a call with that
    budget alone would.  A row whose bound lies below the floor is
    skipped: its rate is more than ``_rate_slack`` below the best, so
    neither it nor its mirror can win or tie.  The others are scored in
    order of decreasing bound, in chunks of about
    ``CANDIDATE_CHUNK_ENTRIES`` matrix entries, and the rest of the
    block is screened again after each chunk.  After each chunk the
    mirrors of its rows within ``_rate_slack`` of the running best, and
    above ``_rate_slack``, are scored as well.  The best only rises, so
    every row whose mirror can win or tie has its mirror scored,
    whatever the order of the blocks, and the result is the full
    grid's, bit for bit.  A best rate of at most twice ``_rate_slack``
    is rounding noise on a grid where every rate is 0 (Bob among the
    eavesdroppers, say); there the FPA layout wins with the rate scored
    for it.  A mirror pair's rates differ by less than ``_rate_slack``,
    so no mirror that could win above that threshold is skipped.

    Returns:
        list of (ndarray, float), one per budget in order: the best
        layout, read-only, and its clamped rate.
    """
    budgets = [scenario.power_budget] if budgets is None else budgets
    rows = max(1, CANDIDATE_CHUNK_ENTRIES // (n * n))

    def layouts(K):
        return _gap_layouts(K, scenario, step)

    screens = [_PowerScreen(n, scenario, budget, layouts, rows)
               for budget in budgets]
    rate_bounds = _GapBounds(n, scenario, levels, step, budgets)

    def floors():
        return [screen.floor() for screen in screens]

    def screen_block(K):
        for screen, bounds in zip(screens, rate_bounds(K, floors())):
            screen.screen(K, bounds)

    def live_blocks():
        """The canonical tuples of the runs that no power's floor rules
        out, in blocks of the runs of at most ``BOUND_BLOCK_ROWS``."""
        size = BOUND_BLOCK_ROWS // RUN_LEVELS
        for K, last in _gap_runs(n, levels):
            live = np.flatnonzero(~_ruled_out(rate_bounds.runs(K, last),
                                              floors()))
            for i in range(0, len(live), size):
                runs = live[i:i + size]
                T = _run_rows(K[runs], last[runs])
                yield T[_canonical(T)]

    stride = _seed_stride(n, levels)
    blocks = _gap_blocks(n, levels)
    if stride > 1:
        for K in _gap_blocks(n, levels // stride):
            screen_block(stride * K)
        # the seed pass screened the tuples of multiples of s
        blocks = (K[(K % stride).any(axis=1)]
                  for K in (live_blocks() if n > 2 else blocks))
    for K in blocks:
        screen_block(K)
    return [screen.winner() for screen in screens]
