"""Optimal transmit beamformer for fixed antenna positions.

For fixed positions the secrecy objective reduces to a generalized
Rayleigh quotient (1 + w^H A w) / (1 + w^H B w) over ||w||^2 = P_A,
maximized in closed form by the dominant eigenvector of the Hermitian
pencil (A + I/P_A, B + I/P_A).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations_with_replacement, islice

import numpy as np

from .core import Scenario, steering_vector

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

# Rows per block that ``best_gap_layout`` screens with one rate-bound
# call, in scorer chunks: a block spreads the bound's per-call cost over
# hundreds of rows, and its arrays stay near 0.1 MB at N = 3, M = 3.
BOUND_BLOCK_CHUNKS = 4


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
    xs = np.asarray(x, dtype=float)
    thetas = scenario.angles.reshape((-1,) + (1,) * xs.ndim)
    v = steering_vector(xs, thetas, scenario.wavelength)
    outer = v[..., :, None] * v[..., None, :].conj()
    sigma2 = scenario.noise_power
    A = outer[0] / sigma2
    B = np.zeros_like(A)
    for form in outer[1:]:
        B += form
    B /= sigma2
    A.setflags(write=False)
    B.setflags(write=False)
    return QuadraticForms(A=A, B=B)


def _pencil(forms: QuadraticForms, budget: float, vectors: bool = False):
    """Ascending eigenvalues of the pencil (A + I/P_A, B + I/P_A).

    The Cholesky factor L of the positive definite denominator reduces
    the pencil to the Hermitian L^-1 (A + I/P_A) L^-H with the same
    spectrum.  ``forms`` may hold one pair or a stack; a stack returns
    one row of eigenvalues per layout.  With ``vectors`` the result is
    (eigenvalues, reduced eigenvectors, L); a generalized eigenvector is
    L^-H times a reduced one.

    Raises:
        EigensolverError: the factorization or the eigensolve failed.
    """
    shift = np.eye(forms.n) / budget
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


def solve_beamformer(forms: QuadraticForms, scenario: Scenario) -> BeamformerSolution:
    """Maximize the Rayleigh objective over ||w||^2 = P_A.

    Takes the top eigenpair of the pencil and maps it back.  The
    returned phase is normalized so the largest-modulus entry is real
    positive, making the output deterministic.  ``forms`` may hold one
    pair or a (K, N, N) stack; a stack is solved in one batched call,
    and each of its rows equals the solve of that layout alone, bit for
    bit.
    """
    budget = scenario.power_budget
    eigvals, eigvecs, chol = _pencil(forms, budget, vectors=True)
    o = np.linalg.solve(chol.conj().swapaxes(-1, -2), eigvecs[..., -1:])[..., 0]
    w = np.empty_like(o)
    # row by row: numpy's scalar norm and abs round unlike their batched forms
    for row, out in zip(np.atleast_2d(o), np.atleast_2d(w)):
        row /= np.linalg.norm(row)
        out[:] = np.sqrt(budget) * row
        peak = out[np.argmax(np.abs(out))]
        out *= peak.conj() / abs(peak)
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


def optimal_beamformer(forms: QuadraticForms, scenario: Scenario) -> np.ndarray:
    """Optimal beamformer sqrt(P_A) o_max for the given quadratic forms.

    One (N,) beamformer for one pair of forms, a (K, N) stack for a
    stack of forms.
    """
    return solve_beamformer(forms, scenario).beamformer


def best_secrecy_rates(X, scenario: Scenario) -> np.ndarray:
    """Clamped optimal secrecy rate per candidate position row, batched.

    Row k of the (K, N) array ``X`` is one layout; the result is
    [log2 lambda_max]^+ of its pencil, i.e. the secrecy rate reached by
    the optimal beamformer at that layout.
    """
    eigvals = _pencil(build_forms(X, scenario), scenario.power_budget)
    return np.maximum(np.log2(eigvals[:, -1]), 0.0)


def _rate_bounds(X, scenario: Scenario) -> np.ndarray:
    """Upper bound log2(1 + t) on the secrecy rate of each layout row.

    With rho = P_A / sigma^2, a = a(x, theta_0) and the eavesdropper
    steering vectors as the columns of E, t = rho a^H (I + rho E E^H)^-1 a
    satisfies t < lambda_max <= 1 + t by Cauchy-Schwarz in the
    (I + rho E E^H) inner product.  1 + t is the Schur complement of the
    eavesdropper block of I + rho Gamma, Gamma the Gram matrix of the
    steering vectors ordered eavesdroppers first and Bob last, so it is
    the square of the last pivot of one batched Cholesky factor; no
    N x N form is built.  The computed bound and ``best_secrecy_rates``
    keep these inequalities up to ``_rate_slack``.

    Raises:
        EigensolverError: the factorization failed.
    """
    angles = np.roll(scenario.angles, -1)[:, None]  # eavesdroppers, then Bob
    v = steering_vector(X[:, None, :], angles, scenario.wavelength)
    gram = v.conj() @ v.swapaxes(-1, -2)
    gram *= scenario.power_budget / scenario.noise_power
    gram += np.eye(len(angles))
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"rate bound failed: {exc}") from exc
    return 2.0 * np.log2(chol[:, -1, -1].real)


def _rate_slack(n: int, scenario: Scenario) -> float:
    """Rounding allowance, in bps/Hz, for rates of N-antenna layouts.

    16 eps (1 + rho N (M + 1)) / ln 2 with rho = P_A / sigma^2.  The
    matrices that ``_rate_bounds`` and ``best_secrecy_rates`` factor are
    a unit shift plus terms of total size up to rho N (M + 1), and their
    log2 arguments are at least 1.  On random layouts with rho up to
    3e10 the two computations break the inequalities of
    ``_rate_bounds`` by at most a tenth of this allowance.
    """
    rho = scenario.power_budget / scenario.noise_power
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


def _canonical_blocks(n: int, levels: int, rows: int):
    """The canonical gap tuples after the all-zero one, ``rows`` at a time.

    The tuples come in lexicographic order and are enumerated
    ``CANDIDATE_CHUNK_ENTRIES`` at a time, so the enumeration costs few
    numpy calls next to the scoring.
    """
    tuples = combinations_with_replacement(range(levels + 1), n - 1)
    flat = chain.from_iterable(islice(tuples, 1, None))
    pending = np.zeros((0, n - 1), dtype=int)
    while (K := np.fromiter(islice(flat, CANDIDATE_CHUNK_ENTRIES * (n - 1)),
                            dtype=int)).size:
        K = K.reshape(-1, n - 1)
        pending = np.vstack([pending, K[_canonical(K)]])
        while len(pending) >= rows:
            yield pending[:rows]
            pending = pending[rows:]
    if len(pending):
        yield pending


def best_gap_layout(n: int, scenario: Scenario, levels: int, step: float):
    """Highest-rate layout on a gap grid with x_1 = 0.

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
    come in blocks of ``BOUND_BLOCK_CHUNKS`` scorer chunks, and
    ``_rate_bounds`` bounds a whole block before any pencil is solved.
    A row whose bound plus ``_rate_slack`` lies below the band is
    skipped: its rate is certified below the best, so neither it nor
    its mirror can win or tie.  The others are scored in order of
    decreasing bound, in chunks of about ``CANDIDATE_CHUNK_ENTRIES``
    matrix entries, and the rest of the block is screened again after
    each chunk.  The scored rows in the band of the best then have their
    mirrors scored too, and the highest of those rates wins, so the
    result is the full grid's, bit for bit.  A best rate within
    ``MIRROR_RTOL`` plus ``_rate_slack`` of 0 is rounding noise on a grid
    where every rate is 0 (Bob among the eavesdroppers, say); there the
    FPA layout wins with the rate scored for it.

    Returns:
        (ndarray, float): the best layout, read-only, and its clamped
        rate.
    """
    rows = max(1, CANDIDATE_CHUNK_ENTRIES // (n * n))
    base = scenario.min_spacing * np.arange(1, n, dtype=float)
    slack = _rate_slack(n, scenario)

    def layouts(K):
        X = np.zeros((len(K), n))
        X[:, 1:] = np.minimum(base + step * K, scenario.aperture)
        return X

    def floor(best):
        return best - MIRROR_RTOL * max(best, 1.0) - slack

    K = np.zeros((1, n - 1), dtype=int)
    rates = best_secrecy_rates(layouts(K), scenario)
    best = float(rates[0])
    kept = [(K, rates)]  # (tuples, rates) of scored rows near the running best
    for K in _canonical_blocks(n, levels, BOUND_BLOCK_CHUNKS * rows):
        bounds = _rate_bounds(layouts(K), scenario) + slack
        order = np.argsort(-bounds)
        K, bounds = K[order], bounds[order]
        # the rows that can still reach the band are a prefix of the block
        while live := np.count_nonzero(bounds >= floor(best)):
            chunk, K, bounds = K[:min(live, rows)], K[rows:], bounds[rows:]
            rates = best_secrecy_rates(layouts(chunk), scenario)
            best = max(best, float(rates.max()))
            mask = rates >= floor(best)
            if mask.any():
                kept.append((chunk[mask], rates[mask]))
    K = np.vstack([k for k, _ in kept])
    rates = np.concatenate([r for _, r in kept])
    j = 0  # a best rate of zero up to rounding: the FPA layout wins
    if best > MIRROR_RTOL + slack:
        mask = rates >= floor(best)
        K, rates = K[mask], rates[mask]
        mirrors = _mirror(K)
        mirrors = mirrors[(mirrors != K).any(axis=1)]
        scored = [best_secrecy_rates(layouts(mirrors[i:i + rows]), scenario)
                  for i in range(0, len(mirrors), rows)]
        K = np.vstack([K, mirrors])
        rates = np.concatenate([rates, *scored])
        j = min(np.flatnonzero(rates == rates.max()),
                key=lambda i: K[i].tolist())
    best_x = layouts(K[j:j + 1])[0]
    best_x.setflags(write=False)
    return best_x, float(rates[j])
