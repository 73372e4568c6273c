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

from .core import (AntennaPositions, Beamformer, Scenario, as_coords,
                   steering_vector)

# Relative gap under which the top eigenvalue is flagged as degenerate.
DEGENERACY_RTOL = 1e-10

# Matrix entries per batched call in ``best_gap_layout``: the temporaries
# grow as rows * N^2, so larger arrays are scored in fewer rows.
CANDIDATE_CHUNK_ENTRIES = 1024

# Relative rate band in ``best_gap_layout`` within which a scored
# canonical tuple has its mirror scored as well; it covers the rounding
# (about 1e-15 bps/Hz) by which the two rates of a mirror pair differ.
MIRROR_RTOL = 1e-9


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
    xs = as_coords(x)
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
    eigenspace is returned.
    """

    beamformer: Beamformer
    eigenvalue: float
    eigen_gap: float
    degenerate: bool


def solve_beamformer(forms: QuadraticForms, scenario: Scenario) -> BeamformerSolution:
    """Maximize the Rayleigh objective over ||w||^2 = P_A.

    Takes the top eigenpair of the pencil and maps it back.  The
    returned phase is normalized so the largest-modulus entry is real
    positive, making the output deterministic.
    """
    budget = scenario.power_budget
    eigvals, eigvecs, chol = _pencil(forms, budget, vectors=True)
    lam_max = float(eigvals[-1])
    o = np.linalg.solve(chol.conj().T, eigvecs[:, -1])
    o /= np.linalg.norm(o)
    w = np.sqrt(budget) * o
    k = int(np.argmax(np.abs(w)))
    w = w * (w[k].conj() / abs(w[k]))
    w.setflags(write=False)
    if forms.n > 1:
        gap = float(eigvals[-1] - eigvals[-2])
        degenerate = gap <= DEGENERACY_RTOL * max(1.0, abs(lam_max))
    else:
        gap = float("inf")
        degenerate = False
    return BeamformerSolution(beamformer=Beamformer(w), eigenvalue=lam_max,
                              eigen_gap=gap, degenerate=degenerate)


def optimal_beamformer(forms: QuadraticForms, scenario: Scenario) -> Beamformer:
    """Optimal beamformer sqrt(P_A) o_max for the given quadratic forms."""
    return solve_beamformer(forms, scenario).beamformer


def best_secrecy_rates(X, scenario: Scenario) -> np.ndarray:
    """Clamped optimal secrecy rate per candidate position row, batched.

    Row k of the (K, N) array ``X`` is one layout; the result is
    [log2 lambda_max]^+ of its pencil, i.e. the secrecy rate reached by
    the optimal beamformer at that layout.
    """
    eigvals = _pencil(build_forms(X, scenario), scenario.power_budget)
    return np.maximum(np.log2(eigvals[:, -1]), 0.0)


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


def _canonical_chunks(n: int, levels: int, rows: int):
    """The canonical gap tuples in lexicographic order, ``rows`` at a time.

    The tuples are enumerated ``CANDIDATE_CHUNK_ENTRIES`` at a time, so
    the enumeration costs few numpy calls next to the scoring.
    """
    if n == 1:
        yield np.zeros((1, 0), dtype=int)
        return
    flat = chain.from_iterable(
        combinations_with_replacement(range(levels + 1), n - 1))
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
    canonical tuple of each pair (``_canonical``) is scored, in chunks of
    about ``CANDIDATE_CHUNK_ENTRIES`` matrix entries.  The canonical rows
    within ``MIRROR_RTOL`` of the best (relative to at least 1 bps/Hz)
    then have their mirrors scored too, and the highest of those rates
    wins, so the result is the full grid's, bit for bit.  A best rate
    within ``MIRROR_RTOL`` of 0 is rounding noise on a grid where every
    rate is 0 (Bob among the eavesdroppers, say); there the all-zero
    tuple, the FPA layout, wins with the rate scored for it.

    Returns:
        (AntennaPositions, float): the best layout and its clamped rate.
    """
    rows = max(1, CANDIDATE_CHUNK_ENTRIES // (n * n))
    base = scenario.min_spacing * np.arange(1, n, dtype=float)

    def layouts(K):
        X = np.zeros((len(K), n))
        X[:, 1:] = np.minimum(base + step * K, scenario.aperture)
        return X

    def near(rates, best):
        return rates >= best - MIRROR_RTOL * max(best, 1.0)

    best = -np.inf
    kept = []  # (tuples, rates) of canonical rows near the running best
    for K in _canonical_chunks(n, levels, rows):
        rates = best_secrecy_rates(layouts(K), scenario)
        best = max(best, float(rates.max()))
        mask = near(rates, best)
        if mask.any():
            kept.append((K[mask], rates[mask]))
    K = np.vstack([k for k, _ in kept])
    rates = np.concatenate([r for _, r in kept])
    j = 0  # a best rate of zero up to rounding: the FPA layout wins
    if best > MIRROR_RTOL:
        mask = near(rates, best)
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
    return AntennaPositions(best_x), float(rates[j])

