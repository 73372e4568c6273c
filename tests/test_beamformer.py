import dataclasses
import math
import tracemalloc
import warnings
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import masec.beamformer
from masec import (EigensolverError, QuadraticForms, Scenario, build_forms,
                   check_positions, gradient_psi, initial_positions,
                   load_run_spec, optimal_beamformer, random_positions,
                   sample_beamformers, secrecy_rate, solve_beamformer,
                   steering_vector)
from masec.beamformer import (BOUND_BLOCK_ROWS, CANDIDATE_CHUNK_ENTRIES,
                              RUN_LEVELS, _canonical,
                              _eve_pivots, _gap_blocks, _gap_runs,
                              _GapBounds, _last_pivot, _layout_pass, _mirror,
                              _pair_phases, _rate_slack,
                              _ruled_out, _run_rows, _seed_stride,
                              best_gap_layout, best_secrecy_rates)
from masec.core import TWO_PI
from masec.driver import _scan_levels, _scan_starts, scan_start

SWEEP_M3 = Path(__file__).resolve().parents[1] / "scenarios" / "sweep_m3.json"


def _stationarity_residual(forms, sol, scenario):
    n = forms.n
    shift = np.eye(n) / scenario.power_budget
    wv = sol.beamformer
    resid = np.linalg.norm((forms.A + shift) @ wv
                           - sol.eigenvalue * ((forms.B + shift) @ wv))
    return resid / (np.linalg.norm(wv) * np.linalg.norm(forms.A + shift, 2))


class TestBuildForms:
    def test_scalar_case(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4, np.pi / 5),
                       noise_power=2.0)
        forms = build_forms([4.2], scn)
        assert forms.A == pytest.approx(np.array([[0.5]]))
        assert forms.B == pytest.approx(np.array([[1.0]]))

    def test_traces(self, make_scenario):
        rng = np.random.default_rng(10)
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.3, 1.1))
        x = rng.uniform(0.0, 10.0, size=4)
        forms = build_forms(x, scn)
        assert np.trace(forms.A).real == pytest.approx(4.0, rel=1e-9)
        assert np.trace(forms.B).real == pytest.approx(8.0, rel=1e-9)

    def test_concrete_two_element(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,))
        forms = build_forms([0.0, 0.5], scn)
        assert np.allclose(forms.A, [[1, 1], [1, 1]], atol=1e-12)
        assert np.allclose(forms.B, [[1, -1], [-1, 1]], atol=1e-12)

    def test_hermitian(self, make_scenario):
        rng = np.random.default_rng(11)
        for _ in range(20):
            scn = make_scenario(rng)
            x = rng.uniform(0.0, scn.aperture, size=5)
            forms = build_forms(x, scn)
            for mat in (forms.A, forms.B):
                assert np.linalg.norm(mat - mat.conj().T) <= \
                    1e-12 * np.linalg.norm(mat)


class TestOptimalBeamformer:
    def test_mrt_limit_when_no_leakage(self):
        # B = 0 reduces the solve to the top eigenvector of A
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4,),
                       power_budget=2.0)
        a0 = steering_vector([0.0, 0.7, 1.9], np.pi / 3)
        forms = QuadraticForms(A=np.outer(a0, a0.conj()),
                               B=np.zeros((3, 3), dtype=complex))
        w = optimal_beamformer(forms, scn)
        collinearity = abs(np.vdot(a0, w)) / (np.linalg.norm(a0)
                                              * np.linalg.norm(w))
        assert collinearity == pytest.approx(1.0, abs=1e-12)
        assert np.vdot(w, w).real == pytest.approx(2.0, rel=1e-12)

    def test_orthogonal_steering_pair(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,))
        forms = build_forms([0.0, 0.5], scn)
        sol = solve_beamformer(forms, scn)
        assert np.allclose(sol.beamformer, [1, 1] / np.sqrt(2), atol=1e-9)
        assert sol.eigenvalue == pytest.approx(3.0, rel=1e-12)
        assert secrecy_rate([0.0, 0.5], sol.beamformer, scn) == \
            pytest.approx(np.log2(3.0), rel=1e-12)

    def test_scalar_case(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4, 1.0),
                       power_budget=3.0)
        sol = solve_beamformer(build_forms([1.3], scn), scn)
        w = sol.beamformer
        assert w[0].imag == pytest.approx(0.0, abs=1e-12)
        assert w[0].real == pytest.approx(np.sqrt(3.0), rel=1e-12)
        assert sol.eigenvalue == pytest.approx((1 + 3.0) / (1 + 2 * 3.0),
                                               rel=1e-12)

    def test_stationarity(self, make_scenario):
        rng = np.random.default_rng(12)
        for _ in range(25):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 8))
            x = np.sort(rng.uniform(0.0, scn.aperture, size=n))
            forms = build_forms(x, scn)
            sol = solve_beamformer(forms, scn)
            assert _stationarity_residual(forms, sol, scn) <= 1e-8

    def test_beats_random_sampling(self, make_scenario):
        rng = np.random.default_rng(13)
        for seed in range(5):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=4))
            forms = build_forms(x, scn)
            sol = solve_beamformer(forms, scn)
            best = sample_beamformers(forms, scn, 10_000, seed)
            assert sol.eigenvalue >= best - 1e-12 * max(1.0, abs(best))

    def test_power_budget(self, make_scenario):
        rng = np.random.default_rng(14)
        for _ in range(10):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=3))
            w = optimal_beamformer(build_forms(x, scn), scn)
            power = np.vdot(w, w).real
            assert power == pytest.approx(scn.power_budget, rel=1e-10)

    def test_bitwise_determinism(self, paper_n4):
        x = check_positions([0.0, 0.9, 1.7, 3.2], paper_n4)
        w1 = optimal_beamformer(build_forms(x, paper_n4), paper_n4)
        w2 = optimal_beamformer(build_forms(x, paper_n4), paper_n4)
        assert np.array_equal(w1.view(np.float64), w2.view(np.float64))

    def test_stack_matches_single_layouts(self, make_scenario):
        rng = np.random.default_rng(16)
        for _ in range(40):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 9))
            X = np.sort(rng.uniform(0.0, scn.aperture, size=(5, n)), axis=1)
            stack = solve_beamformer(build_forms(X, scn), scn)
            assert stack.beamformer.shape == (5, n)
            assert not stack.beamformer.flags.writeable
            assert np.array_equal(
                optimal_beamformer(build_forms(X, scn), scn),
                stack.beamformer)
            for r, x in enumerate(X):
                one = solve_beamformer(build_forms(x, scn), scn)
                assert np.array_equal(stack.beamformer[r], one.beamformer)
                assert stack.eigenvalue[r] == one.eigenvalue
                assert stack.eigen_gap[r] == one.eigen_gap
                assert stack.degenerate[r] == one.degenerate
                assert isinstance(one.eigenvalue, float)

    def test_stack_with_budgets_matches_single_layouts(self, make_scenario):
        # one power budget per layout, as the lockstep chains of several
        # powers solve them
        rng = np.random.default_rng(19)
        for _ in range(30):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 9))
            X = np.sort(rng.uniform(0.0, scn.aperture, size=(5, n)), axis=1)
            budget = 10.0 ** rng.uniform(-2.0, 6.0, size=5)
            stack = solve_beamformer(build_forms(X, scn), scn, budget)
            assert np.array_equal(
                optimal_beamformer(build_forms(X, scn), scn, budget),
                stack.beamformer)
            for r, (x, power) in enumerate(zip(X, budget.tolist())):
                alone = dataclasses.replace(scn, power_budget=power)
                one = solve_beamformer(build_forms(x, alone), alone)
                assert np.array_equal(stack.beamformer[r], one.beamformer)
                assert stack.eigenvalue[r] == one.eigenvalue
                assert stack.eigen_gap[r] == one.eigen_gap
                assert stack.degenerate[r] == one.degenerate
                assert _rate_slack(n, scn, budget)[r] == _rate_slack(n, alone)

    def test_phase_normalization(self, make_scenario):
        rng = np.random.default_rng(15)
        for _ in range(10):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=4))
            w = optimal_beamformer(build_forms(x, scn), scn)
            k = int(np.argmax(np.abs(w)))
            assert w[k].imag == pytest.approx(0.0, abs=1e-12)
            assert w[k].real > 0.0

    def test_degenerate_top_eigenvalue_flagged(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        forms = QuadraticForms(A=np.eye(3, dtype=complex),
                               B=np.zeros((3, 3), dtype=complex))
        sol = solve_beamformer(forms, scn)
        assert sol.degenerate
        w = sol.beamformer
        assert np.vdot(w, w).real == pytest.approx(1.0, rel=1e-10)

    def test_solver_failure_is_distinct(self):
        # indefinite denominator breaks the Cholesky step
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        forms = QuadraticForms(A=np.eye(2, dtype=complex),
                               B=-10.0 * np.eye(2, dtype=complex))
        with pytest.raises(EigensolverError):
            solve_beamformer(forms, scn)
        # a budget so large that I/P_A vanishes next to the rank-1 leakage
        huge = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                        power_budget=1e16)
        with pytest.raises(EigensolverError):
            best_secrecy_rates(np.array([[0.0, 0.5, 1.0]] * 2), huge)

    def test_multiple_top_eigenvalue_only_at_rate_zero(self):
        # Courant-Fischer over the w orthogonal to Bob's steering vector,
        # where w^H A w = 0, bounds the second pencil eigenvalue by 1: a
        # multiple top eigenvalue is at most 1, where the rate is 0, so the
        # value ascent meets no kink of F at a positive rate
        rng = np.random.default_rng(43)
        flagged = 0
        for i in range(120):
            n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            angles = rng.uniform(0.0, np.pi, m + 1)
            if i % 3 == 0:  # Bob at an eavesdropper's angle
                angles[0] = angles[1]
            scn = Scenario(bob_angle=float(angles[0]),
                           eve_angles=tuple(angles[1:].tolist()),
                           noise_power=float(10.0 ** rng.uniform(-1.0, 1.0)),
                           power_budget=float(10.0 ** rng.uniform(-2.0, 6.0)))
            X = np.array([random_positions(n, scn, rng) for _ in range(50)])
            forms = build_forms(X, scn)
            slack = _rate_slack(n, scn)
            second = masec.beamformer._pencil(forms, scn.power_budget)[:, -2]
            assert np.log2(second).max() <= slack
            sol = solve_beamformer(forms, scn)
            top = np.log2(sol.eigenvalue[sol.degenerate])
            assert (np.abs(top) <= slack).all()
            flagged += int(sol.degenerate.sum())
        assert flagged > 100


def _scan_grid(n, power):
    """``scan_start``'s grid for N antennas on sweep_m3 at power ``power``."""
    scn = dataclasses.replace(load_run_spec(SWEEP_M3).scenario,
                              power_budget=power)
    slack = scn.aperture - (n - 1) * scn.min_spacing
    levels = _scan_levels(n, slack, scn)
    return scn, levels, slack / levels


def _paper_n3_grid():
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.55 * np.pi, 0.25 * np.pi))
    return scn, 61, (scn.aperture - 2 * scn.min_spacing) / 61


def _count_rows(monkeypatch, module, name, axis=0):
    """Count the rows that ``module.name`` is called on (along ``axis`` of
    its first argument), without keeping them."""
    fn, counts = getattr(module, name), {"rows": 0}

    def counting(x, *args):
        counts["rows"] += np.shape(x)[axis]
        return fn(x, *args)
    monkeypatch.setattr(module, name, counting)
    return counts


def _all_tuples(n, levels):
    return np.array(list(combinations_with_replacement(range(levels + 1),
                                                       n - 1)))


def _layouts(K, scn, step):
    """``best_gap_layout``'s layouts of the gap tuples ``K``."""
    n = K.shape[1] + 1
    X = np.zeros((len(K), n))
    X[:, 1:] = np.minimum(scn.min_spacing * np.arange(1, n) + step * K,
                          scn.aperture)
    return X


def _tuples(X, scn, step):
    """The gap tuples of unclipped grid layouts ``X``."""
    n = X.shape[1]
    return np.rint((X[:, 1:] - scn.min_spacing * np.arange(1, n))
                   / step).astype(int)


def _assert_full_grid_argmax(n, scn, levels, step):
    X = _layouts(_all_tuples(n, levels), scn, step)
    rates = np.concatenate([best_secrecy_rates(X[i:i + 4096], scn)
                            for i in range(0, len(X), 4096)])
    j = int(np.argmax(rates))
    [(x, rate)] = best_gap_layout(n, scn, levels, step)
    assert np.array_equal(x, X[j])
    assert rate == rates[j]
    return j


# grids whose full-grid winner is the non-canonical tuple of its mirror pair
MIRROR_WINNERS = {
    "sweep_m3-n6-p10": (6, lambda: _scan_grid(6, 10.0)),
    "sweep_m3-n7-p1": (7, lambda: _scan_grid(7, 1.0)),
    "sweep_m3-n7-p10": (7, lambda: _scan_grid(7, 10.0)),
    "paper_n3-61-levels": (3, _paper_n3_grid),
}


class TestLayoutPass:
    """``_layout_pass`` reads lambda_max, the beamformer, the rate and the
    gradient of each layout from one steering-vector evaluation."""

    @staticmethod
    def passes(random_stacks):
        """(scenario, X, budgets, lam_max, finish) on random stacks, with
        one power budget per row."""
        rng = np.random.default_rng(21)
        for scn, X, _ in random_stacks():
            budget = 10.0 ** rng.uniform(-2.0, 10.0, size=len(X))
            yield (scn, X, budget) + _layout_pass(X, scn, budget)

    def test_rows_match_the_public_functions(self, random_stacks):
        rows = 0
        for scn, X, budget, lam, finish in self.passes(random_stacks):
            W, rates, grads = finish(slice(None))
            assert W.shape == grads.shape == X.shape
            for r, (x, power) in enumerate(zip(X, budget.tolist())):
                one = solve_beamformer(build_forms(x, scn), scn, power)
                assert np.array_equal(W[r], one.beamformer)
                assert lam[r] == one.eigenvalue
                assert rates[r] == secrecy_rate(x, one.beamformer, scn)
                assert np.array_equal(
                    grads[r], gradient_psi(x, one.beamformer, scn))
            # any rows finished together have the bits of all rows
            part = list(range(len(X)))[::-2]
            for got, full in zip(finish(part), (W, rates, grads)):
                assert np.array_equal(got, full[part])
            rows += len(X)
        assert rows > 2000

    def test_gradient_matches_the_lift(self, random_stacks, lift_gradient):
        # grad Psi sums terms up to 2 |k_i| N rho in size, and the lift
        # builds each gain from N^2 products: near a null of the optimal
        # beamformer the two formulas differ by the rounding of terms of
        # size 2 max|k_i| (1 + rho N^2), relative to which they are compared
        # where it exceeds |grad Psi|
        for scn, X, budget, _, finish in self.passes(random_stacks):
            W, _, grads = finish(slice(None))
            expected = lift_gradient(X, W, scn)
            rho = budget / scn.noise_power
            two_k = 2.0 * (TWO_PI / scn.wavelength) * np.cos(scn.angles)
            scale = np.maximum(np.linalg.norm(expected, axis=1),
                               np.abs(two_k).max()
                               * (1.0 + rho * X.shape[1] ** 2))
            err = np.linalg.norm(grads - expected, axis=1)
            assert np.all(err <= 1e-12 * scale)


class TestGapBlocks:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_canonical_tuple_once(self, n):
        for levels in range(13):
            self._assert_blocks(n, levels)

    @pytest.mark.parametrize("n,levels", [(2, 5000), (3, 150), (4, 70)])
    def test_blocks_span_and_split_leading_values(self, n, levels):
        # many leading values per block at N = 2, several blocks per
        # leading value k_2 = 0 at N = 4 (C(72, 2) = 2556 tuples)
        assert len(self._assert_blocks(n, levels)) > 2

    @pytest.mark.parametrize("n,big", [(2, 5000), (3, 100), (4, 40), (5, 20),
                                       (6, 14)])
    def test_rows_order_and_boundaries(self, n, big):
        # an independent enumeration: by k_2, then by the tails in colex
        # order; rank 0 is left out, the first block ends before rank 2048
        # at N = 2 and 2049 above, and every later block holds 2048 ranks
        for levels in [*range(9), big]:
            ranked = sorted(_all_tuples(n, levels).tolist(),
                            key=lambda k: (k[0], k[:0:-1]))
            cuts = [1, *range(BOUND_BLOCK_ROWS + (n > 2), len(ranked),
                              BOUND_BLOCK_ROWS), len(ranked)]
            expected = []
            for lo, hi in zip(cuts, cuts[1:]):
                K = np.array(ranked[lo:hi], dtype=np.intp).reshape(-1, n - 1)
                if (K := K[_canonical(K)]).size:
                    expected.append(K)
            blocks = list(_gap_blocks(n, levels))
            assert len(blocks) == len(expected)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(blocks, expected))
        assert len(cuts) > 3  # the big grid spans three blocks or more

    @pytest.mark.parametrize("n", range(3, 9))
    def test_runs_hold_the_tuples_in_rank_order(self, n):
        # every tuple once, by rank, k_3 cut to its canonical range at
        # N = 3 and 4; a run holds 1 to RUN_LEVELS consecutive values of k_3
        for levels in [*range(13), 40 if n < 6 else 14]:
            runs = list(_gap_runs(n, levels))
            for K, last in runs:
                assert ((last >= K[:, 1])
                        & (last < K[:, 1] + RUN_LEVELS)).all()
            ranked = np.array(sorted(_all_tuples(n, levels).tolist(),
                                     key=lambda k: (k[0], k[:0:-1])))
            if n <= 4:
                ranked = ranked[_canonical(ranked)]
            rows = np.vstack([_run_rows(K, last) for K, last in runs])
            assert np.array_equal(rows, ranked)

    @pytest.mark.parametrize("n,levels", [(8, 25), (2, 999_975)])
    def test_memory_does_not_grow_with_the_tuples(self, n, levels):
        # 1,560,780 and 999,976 tuples: a table of every tail peaked at
        # 82 MB at N = 8, and an arange over the levels at 8 MB at N = 2
        tracemalloc.start()
        try:
            rows = sum(len(K) for K in _gap_blocks(n, levels))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows > 0 and peak < 1e6
        if n > 2:  # 741,286 runs
            tracemalloc.start()
            try:
                runs = sum(len(K) for K, _ in _gap_runs(n, levels))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert runs > 0 and peak < 2e6

    @staticmethod
    def _assert_blocks(n, levels):
        blocks = list(_gap_blocks(n, levels))
        assert all(0 < len(K) <= BOUND_BLOCK_ROWS for K in blocks)
        got = sorted(tuple(k) for K in blocks for k in K.tolist())
        K = _all_tuples(n, levels)[1:]
        assert got == sorted(map(tuple, K[_canonical(K)].tolist()))
        return blocks


class TestRateBound:
    def test_bounds_match_cholesky_reference(self, make_scenario,
                                             rate_bounds):
        # the elimination against LAPACK's Cholesky factor of I + rho Gamma,
        # whose last diagonal entry squared is the last pivot
        rng = np.random.default_rng(17)
        for _ in range(30):
            scn = make_scenario(rng)
            n = int(rng.integers(2, 7))
            levels = int(rng.integers(1, 30))
            step = (scn.aperture - (n - 1) * scn.min_spacing) / levels
            K = np.sort(rng.integers(0, levels + 1, size=(20, n - 1)), axis=1)
            X = _layouts(K, scn, step)
            angles = np.roll(scn.angles, -1)[:, None]  # Bob last
            v = steering_vector(X[:, None, :], angles, scn.wavelength)
            gram = v.conj() @ v.swapaxes(-1, -2)
            rho = scn.power_budget / scn.noise_power
            chol = np.linalg.cholesky(np.eye(scn.num_eves + 1) + rho * gram)
            reference = 2.0 * np.log2(chol[:, -1, -1].real)
            slack = _rate_slack(n, scn)
            bounds = _GapBounds(n, scn, levels, step, [scn.power_budget])
            assert np.abs(bounds(K, [-np.inf])[0]
                          - reference).max() <= slack
            assert np.abs(rate_bounds(X, scn) - reference).max() <= slack

    @pytest.mark.parametrize("power", [1e16, 1e17])
    def test_nonpositive_pivot_raises(self, power, rate_bounds):
        # Bob among the eavesdroppers: I + rho Gamma is singular up to
        # rounding, and its last pivot rounds to zero or below
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,),
                       power_budget=power)
        with pytest.raises(EigensolverError):
            rate_bounds(np.array([[0.0, 0.5], [0.0, 1.5]]), scn)
        # the one-eavesdropper pivot rounds to zero or below as well, so no
        # floor rules the rows out before the full elimination raises
        for n, K in ((2, [[1], [3]]), (3, [[1, 4], [0, 2]])):
            bounds = _GapBounds(n, scn, 10, 0.3, [power])
            for floor in (-np.inf, 0.0, np.inf):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(EigensolverError):
                        bounds(np.array(K), [floor])

    @pytest.mark.parametrize("entry", [np.nan, 4.0])
    def test_bad_pivot_never_becomes_a_bound(self, entry, monkeypatch):
        # a NaN or negative pivot must not skip or keep a row
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4, 0.3))
        gram = np.zeros((3, 4), dtype=complex)
        gram[2, 1] = entry  # Gamma between the second eavesdropper and Bob
        with pytest.raises(EigensolverError):
            _last_pivot(gram, 2, scn, [scn.power_budget])
        # the same entries, gathered for four N = 2 tuples: row 1's
        # one-eavesdropper pivot is NaN or negative at both powers, so
        # neither floor rules it out, and no comparison or log2 warns
        monkeypatch.setattr(masec.beamformer, "_pair_phases",
                            lambda x, scenario: gram[..., None])
        budgets = [scn.power_budget, 100.0]
        bounds = _GapBounds(2, scn, 3, 0.5, budgets)
        K = np.arange(4)[:, None]
        assert not (_eve_pivots(gram[1:], 2, scn, budgets)[:, 1] > 0.0).any()
        for floors in ([-np.inf] * 2, [0.0, 5.0], [np.inf] * 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EigensolverError):
                    bounds(K, floors)
        gram[2, 1] = 0.0
        # 1 + rho N at each power, rho = 1 and 100
        assert np.array_equal(_last_pivot(gram, 2, scn, budgets),
                              np.repeat([[3.0], [201.0]], 4, axis=1))
        for floor in (-np.inf, np.inf):  # the full and the cheap bound
            assert np.array_equal(bounds(K, [floor] * 2)[0],
                                  np.full(4, np.log2(3.0)))

    def test_one_eavesdropper_bound_is_certified(self, make_scenario):
        # removing eavesdroppers only raises Bob's pivot: the cheap bound
        # stays above the rate and above the full elimination's bound, up
        # to the rounding slack, by table gathers (N > 2) and by sums over
        # the antennas (N = 2) alike
        rng = np.random.default_rng(29)
        ruled = 0
        for _ in range(60):
            scn = dataclasses.replace(
                make_scenario(rng), power_budget=float(10.0 ** rng.uniform(
                    -1.0, 10.0)))
            n = int(rng.integers(2, 8))
            levels = int(rng.integers(1, 30))
            step = (scn.aperture - (n - 1) * scn.min_spacing) / levels
            K = np.sort(rng.integers(0, levels + 1, size=(40, n - 1)), axis=1)
            X = _layouts(K, scn, step)
            budgets = [scn.power_budget]
            bounds = _GapBounds(n, scn, levels, step, budgets)
            [cheap], [full] = bounds(K, [np.inf]), bounds(K, [-np.inf])
            rates = best_secrecy_rates(X, scn)
            slack = _rate_slack(n, scn)
            assert (cheap + slack >= rates).all()
            assert (cheap >= full - slack).all()
            bob = np.triu_indices(scn.num_eves + 1, 1)[1] == scn.num_eves
            [summed] = np.log2(_eve_pivots(
                _pair_phases(X, scn).sum(axis=-1)[bob], n, scn, budgets))
            assert (summed + slack >= rates).all()
            # a floor keeps the full bound of the rows whose cheap bound
            # reaches it, and the cheap bound of the others
            [mixed] = bounds(K, [rates.max()])
            low = cheap < rates.max()
            assert np.array_equal(mixed[~low], full[~low])
            assert np.array_equal(mixed[low], cheap[low])
            ruled += int(low.sum())
        assert ruled > 100

    def test_run_bound_is_certified(self, make_scenario):
        # a run's pivot bound is at least the computed one-eavesdropper
        # pivot of each of its tuples, bit for bit, so a run that the floors
        # rule out holds only tuples that the row stage rules out at those
        # floors, each with a positive, finite pivot
        rng = np.random.default_rng(31)
        runs = dropped = 0
        for trial in range(60):
            scn = make_scenario(rng)
            if trial % 6 == 0:  # Bob among the eavesdroppers
                scn = dataclasses.replace(
                    scn, eve_angles=(*scn.eve_angles[1:], scn.bob_angle))
            budgets = 10.0 ** rng.uniform(-1.0, 10.0,
                                          int(rng.integers(1, 3)))
            n = int(rng.integers(3, 9))
            top = max(k for k in range(1, 200)
                      if math.comb(k + n - 1, n - 1) <= 20_000)
            levels = int(rng.integers(1, top + 1))
            step = (scn.aperture - (n - 1) * scn.min_spacing) / levels
            bounds = _GapBounds(n, scn, levels, step, budgets)
            assert bounds.positive
            for K, last in _gap_runs(n, levels):
                pivots = bounds.runs(K, last)
                rows = _run_rows(K, last)
                run = np.repeat(np.arange(len(K)), last - K[:, 1] + 1)
                cheap = _eve_pivots(bounds.gram(rows)[0], n, scn, budgets)
                for pivot, row in zip(pivots, cheap):
                    assert np.isfinite(pivot).all()
                    assert (pivot[run] >= row).all()
                # floors between the least and the largest row pivot
                floors = [np.log2(rng.uniform(row.min(), row.max()))
                          for row in cheap]
                ruled = _ruled_out(pivots, floors)[run]
                assert _ruled_out(cheap, floors)[ruled].all()
                for row in cheap:
                    assert (row[ruled] > 0.0).all()
                    assert np.isfinite(row[ruled]).all()
                runs += len(K)
                dropped += int(_ruled_out(pivots, floors).sum())
        assert dropped > 0.1 * runs

    def test_run_bound_rules_nothing_out_where_a_pivot_can_fail(self):
        # Bob among the eavesdroppers at P_A = 1e16: a tuple's cheap pivot
        # can round to zero or below, so no run may hide it from the full
        # elimination, which raises
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,),
                       power_budget=1e16)
        bounds = _GapBounds(3, scn, 40, 0.1, [scn.power_budget])
        assert not bounds.positive
        for K, last in _gap_runs(3, 40):
            assert not _ruled_out(bounds.runs(K, last), [np.inf]).any()
        with pytest.raises(EigensolverError):
            best_gap_layout(3, scn, 100, 0.05)

    def test_memory_does_not_grow_with_levels_at_two_antennas(self,
                                                              monkeypatch):
        # 99,975 levels: an enumerator that held a tuple of that many Python
        # ints peaked at 4.95 MB.  A screen that kept every row scored near
        # the best scored 18,374 and 198,129 rows at 99,975 and 999,975
        # levels and peaked at 1.39 and 4.54 MB; it now keeps one best row
        # per power, and the seed pass raises it from the start
        scn = Scenario(bob_angle=np.pi / 2,
                       eve_angles=(0.25 * np.pi, 0.425 * np.pi, 0.55 * np.pi))
        scored = _count_rows(monkeypatch, masec.beamformer,
                             "best_secrecy_rates")
        for levels, rows_cap in ((99_975, 4_000), (999_975, 40_000)):
            scored["rows"] = 0
            tracemalloc.start()
            try:
                best_gap_layout(2, scn, levels,
                                (scn.aperture - scn.min_spacing) / levels)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert scored["rows"] < rows_cap
            assert peak < 1.3e6


class TestBestGapLayout:
    @pytest.mark.parametrize("power", [1.0, 10.0])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_scan_matches_full_grid_on_sweep_m3(self, n, power):
        scn, levels, step = _scan_grid(n, power)
        j = _assert_full_grid_argmax(n, scn, levels, step)
        assert np.array_equal(scan_start(n, scn),
                              _layouts(_all_tuples(n, levels)[j:j + 1],
                                       scn, step)[0])

    @pytest.mark.parametrize("n,scored_cap,eliminated_cap",
                             [(3, 400, 20_000), (4, 180, 6_000)])
    def test_counted_work_on_sweep_m3(self, n, scored_cap, eliminated_cap,
                                      monkeypatch):
        # both powers of a sweep_m3 scan, screened together as ``sweep-n``
        # does: without the seed pass and the one-eavesdropper bound the
        # screen scored 1,040 and 223 rows and eliminated 99,902 and
        # 100,532 (every canonical tuple, at each power); without the run
        # stage it built every tuple and bounded 52,020 and 52,400 of them
        # row by row, the canonical ones and the seed pass's
        scored = _count_rows(monkeypatch, masec.beamformer,
                             "best_secrecy_rates")
        eliminated = _count_rows(monkeypatch, masec.beamformer,
                                 "_last_pivot", axis=-1)
        bounded = {"rows": 0}
        rows_stage = _GapBounds.__call__

        def counting(self, K, floors):
            bounded["rows"] += len(K)
            return rows_stage(self, K, floors)
        monkeypatch.setattr(_GapBounds, "__call__", counting)
        _scan_starts(n, _scan_grid(n, 1.0)[0], [1.0, 10.0])
        assert scored["rows"] < scored_cap
        assert eliminated["rows"] < eliminated_cap
        assert 0 < bounded["rows"] < {3: 12_000, 4: 4_000}[n]

    @pytest.mark.parametrize("n,levels", [(3, None), (4, None), (2, 99_975)])
    def test_scores_no_row_twice(self, n, levels, monkeypatch):
        # the full pass leaves out the tuples that the seed pass screened,
        # so no row, nor the mirror of a row near the best, is scored twice
        # at one power; the sweep_m3 scans at N = 3 and 4 (both powers)
        # scored 3 and 2 rows twice, and 92 of 2,562 at N = 2
        scored = []

        def recording(X, scenario, budget):
            scored.extend((budget, *x) for x in X.tolist())
            return best_secrecy_rates(X, scenario, budget)
        monkeypatch.setattr(masec.beamformer, "best_secrecy_rates", recording)
        if levels is None:
            _scan_starts(n, _scan_grid(n, 1.0)[0], [1.0, 10.0])
        else:
            scn = Scenario(bob_angle=np.pi / 2, eve_angles=(
                0.25 * np.pi, 0.425 * np.pi, 0.55 * np.pi))
            best_gap_layout(n, scn, levels,
                            (scn.aperture - scn.min_spacing) / levels)
            assert _seed_stride(n, levels) > 1
        assert len(set(scored)) == len(scored) > 0

    @pytest.mark.parametrize("name", MIRROR_WINNERS)
    def test_matches_full_grid_argmax(self, name):
        n, grid = MIRROR_WINNERS[name]
        scn, levels, step = grid()
        j = _assert_full_grid_argmax(n, scn, levels, step)
        assert not _canonical(_all_tuples(n, levels)[j:j + 1])[0]

    @pytest.mark.parametrize("power", [1e6, 1e10])
    @pytest.mark.parametrize("n,levels", [(3, 60), (4, 20), (6, 6), (3, 120),
                                          (4, 40)])
    def test_matches_full_grid_argmax_at_high_power(self, n, levels, power):
        # rounding grows with P_A / sigma^2: mirror-pair rates differ by up
        # to 1e-5 bps/Hz at 1e10, and the bound's slack must cover it; the
        # grids of 7,381 and 12,341 tuples take the seed pass and the runs
        scn = Scenario(bob_angle=np.pi / 2, power_budget=power,
                       eve_angles=(0.55 * np.pi, np.pi / 4))
        step = (scn.aperture - (n - 1) * scn.min_spacing) / levels
        _assert_full_grid_argmax(n, scn, levels, step)

    @pytest.mark.parametrize("n,levels", [(2, 9), (3, 12), (5, 6), (8, 4)])
    def test_mask_keeps_one_tuple_of_each_mirror_pair(self, n, levels):
        K = _all_tuples(n, levels)
        mirrors = _mirror(K)
        assert np.array_equal(_mirror(mirrors), K)
        assert (np.diff(mirrors, axis=1) >= 0).all()
        assert ((mirrors >= 0) & (mirrors <= levels)).all()
        palindromes = (mirrors == K).all(axis=1)
        assert _canonical(K[palindromes]).all()
        pairs = K[~palindromes], mirrors[~palindromes]
        assert (_canonical(pairs[0]) != _canonical(pairs[1])).all()

    @pytest.mark.parametrize("name", MIRROR_WINNERS)
    def test_scores_one_tuple_of_each_mirror_pair(self, name, monkeypatch,
                                                  rate_bounds):
        # at most the canonical half (plus the mirrors of the best) is
        # scored, and every canonical row left out is certified below the
        # best rate less the slack, so neither it nor its mirror can win
        n, grid = MIRROR_WINNERS[name]
        scn, levels, step = grid()
        scored = self._record_rows(monkeypatch)
        [(_, rate)] = best_gap_layout(n, scn, levels, step)
        K = _all_tuples(n, levels)
        X = _layouts(K[_canonical(K)], scn, step)
        assert sum(map(len, scored)) <= len(X) + 4
        assert max(map(len, scored)) * n * n <= CANDIDATE_CHUNK_ENTRIES
        seen = {row for rows in scored for row in map(tuple, rows.tolist())}
        left = np.array([row not in seen for row in map(tuple, X.tolist())])
        assert left.any()
        slack = _rate_slack(n, scn)
        assert (rate_bounds(X[left], scn) + slack < rate - slack).all()

    def test_rescores_mirrors_of_every_near_best_row(self, monkeypatch):
        # rates that tie to rounding: the winner (2, 3) is non-canonical and
        # its mirror (1, 3) scores one ulp below another canonical row (0, 4)
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        ulp = np.spacing(1.0)
        planted = {(2, 3): 1.0 + 4 * ulp, (0, 4): 1.0 + 2 * ulp,
                   (4, 4): 1.0 + 2 * ulp, (1, 3): 1.0 + ulp}
        step = 0.25

        def planted_bounds(K):
            return np.array([planted.get(tuple(k), 0.5) for k in K.tolist()])

        def planted_rates(X, scenario, budget):
            return planted_bounds(_tuples(X, scn, step))
        # the planted rates serve as their own bounds, so the screen cannot
        # skip a planted row
        monkeypatch.setattr(masec.beamformer, "best_secrecy_rates",
                            planted_rates)
        monkeypatch.setattr(masec.beamformer, "_GapBounds",
                            lambda *grid: lambda K, floors:
                            planted_bounds(K)[None])
        [(x, rate)] = best_gap_layout(3, scn, 6, step)
        assert rate == 1.0 + 4 * ulp
        assert np.array_equal(x, [0.0, 1.0, 1.75])

    @pytest.mark.parametrize("above", [True, False],
                             ids=["just-above", "at"])
    def test_fpa_layout_wins_at_most_twice_the_slack(self, above,
                                                     monkeypatch):
        # a best rate just above 2 _rate_slack is a rate: the full grid's
        # argmax (2, 3) wins, the mirror of the canonical row (1, 3); one at
        # 2 _rate_slack is rounding noise, and the FPA layout wins with the
        # rate scored for it
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        slack = _rate_slack(3, scn)
        best = np.nextafter(2 * slack, np.inf) if above else 2 * slack
        planted = {(0, 0): 0.25 * slack, (2, 3): best,
                   (1, 3): best - 0.5 * slack}
        step = 0.25

        def planted_bounds(K):
            return np.array([planted.get(tuple(k), 0.0) for k in K.tolist()])
        monkeypatch.setattr(
            masec.beamformer, "best_secrecy_rates",
            lambda X, scenario, budget: planted_bounds(_tuples(X, scn, step)))
        monkeypatch.setattr(masec.beamformer, "_GapBounds",
                            lambda *grid: lambda K, floors:
                            planted_bounds(K)[None])
        [(x, rate)] = best_gap_layout(3, scn, 6, step)
        if above:
            assert rate == best
            assert np.array_equal(x, [0.0, 1.0, 1.75])
        else:
            assert rate == 0.25 * slack
            assert np.array_equal(x, initial_positions(3, scn))

    def test_slack_widens_the_screen_and_the_mirror_band(self, monkeypatch):
        # planted rates and bounds that disagree by less than the slack: the
        # first block's best is W; C, in a later block, has a bound below
        # its rate, and its mirror (42, 83) is the grid's best row
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        levels, step, slack = 90, 0.1, 1e-6
        planted = {(0, 3): (1.0 + 5e-7, 1.0 - 3e-7),  # W
                   (41, 83): (1.0 - 1e-7, 1.0 - 9e-7),  # C
                   (42, 83): (1.0 + 6e-7, 0.0)}

        def planted_column(K, column):
            return np.array([planted.get(tuple(k), (0.5, 0.5))[column]
                             for k in K.tolist()])
        monkeypatch.setattr(
            masec.beamformer, "best_secrecy_rates",
            lambda X, scenario, budget: planted_column(_tuples(X, scn, step),
                                                       0))
        blocks = []

        class Planted:
            """Planted row bounds, which record each block; the run stage
            keeps every run."""

            def __init__(self, *grid):
                pass

            def __call__(self, K, floors):
                blocks.append(K)
                return planted_column(K, 1)[None]

            def runs(self, K, last):
                return np.full((1, len(K)), np.inf)
        monkeypatch.setattr(masec.beamformer, "_GapBounds", Planted)
        monkeypatch.setattr(masec.beamformer, "_rate_slack",
                            lambda n, scenario, budget: slack)
        [(x, rate)] = best_gap_layout(3, scn, levels, step)
        # the 4,186 tuples take a seed pass on the even sub-grid first; it
        # holds neither W nor C, so C is first screened in a later block of
        # the full pass than W, against W's floor
        stride = _seed_stride(3, levels)
        seed = [stride * K for K in _gap_blocks(3, levels // stride)]
        block = {}
        for b, K in enumerate(blocks):
            for k in K.tolist():
                block.setdefault(tuple(k), b)
        assert stride == 2 and len(seed) == 1
        assert np.array_equal(blocks[0], seed[0])
        assert len(seed) <= block[(0, 3)] < block[(41, 83)]
        assert rate == 1.0 + 6e-7
        assert np.array_equal(x, [0.0, 0.5 + 42 * step, 1.0 + 83 * step])

    def test_zero_rate_plateau_returns_fpa_layout(self, monkeypatch):
        # Bob among the eavesdroppers: every rate is 0 up to rounding
        self._assert_plateau_returns_fpa_layout(1.0, monkeypatch)

    def test_zero_rate_plateau_at_high_power(self, monkeypatch):
        # the rounding noise of the rates reaches 4e-6 bps/Hz at P_A = 1e10
        self._assert_plateau_returns_fpa_layout(1e10, monkeypatch)

    def _assert_plateau_returns_fpa_layout(self, power, monkeypatch):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,),
                       power_budget=power)
        scored = self._record_rows(monkeypatch)
        levels = 40
        step = (scn.aperture - 2 * scn.min_spacing) / levels
        [(x, rate)] = best_gap_layout(3, scn, levels, step)
        K = _all_tuples(3, levels)
        palindromes = levels // 2 + 1  # equal gaps, 2 k_2 = k_3 <= levels
        assert sum(map(len, scored)) <= (len(K) + palindromes) // 2
        assert np.array_equal(x, initial_positions(3, scn))
        assert rate == best_secrecy_rates(x[None, :], scn)[0]
        assert 0.0 <= rate <= 1e-12 * power

    @pytest.mark.parametrize("n,levels", [(1, 0), (2, 400), (3, 40)])
    def test_several_powers_match_one_power_calls(self, n, levels,
                                                  fig5_scenario, monkeypatch):
        scn, budgets = fig5_scenario(), [0.1, 1.0, 10.0, 1e6]
        slack = scn.aperture - (n - 1) * scn.min_spacing
        step = slack / max(levels, 1)
        alone = [best_gap_layout(n, fig5_scenario(p), levels, step)[0]
                 for p in budgets]
        pair_phases = masec.beamformer._pair_phases
        tables = []

        def recording(x, scenario):
            tables.append(np.shape(x))
            return pair_phases(x, scenario)
        monkeypatch.setattr(masec.beamformer, "_pair_phases", recording)
        joint = best_gap_layout(n, scn, levels, step, budgets)
        assert len(joint) == len(budgets)
        for (x, rate), (x1, rate1) in zip(joint, alone):
            assert np.array_equal(x, x1) and rate == rate1
            assert not x.flags.writeable
        if n == 3:
            # one phase table serves every power, and the winners differ
            assert tables == [(n - 1, levels + 1)]
            assert len({tuple(x.tolist()) for x, _ in joint}) > 1

    def test_several_powers_on_a_zero_rate_plateau(self):
        # Bob among the eavesdroppers: the FPA layout wins at each power
        powers = (1.0, 1e4, 1e10)
        base = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3,))
        levels = 40
        step = (base.aperture - 2 * base.min_spacing) / levels
        joint = best_gap_layout(3, base, levels, step, powers)
        for power, (x, rate) in zip(powers, joint):
            scn = dataclasses.replace(base, power_budget=power)
            assert np.array_equal(x, initial_positions(3, scn))
            [(x1, rate1)] = best_gap_layout(3, scn, levels, step)
            assert np.array_equal(x, x1) and rate == rate1

    @staticmethod
    def _record_rows(monkeypatch):
        scored = []

        def recording(X, scenario, budget):
            scored.append(X)
            return best_secrecy_rates(X, scenario, budget)
        monkeypatch.setattr(masec.beamformer, "best_secrecy_rates", recording)
        return scored
