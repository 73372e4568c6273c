import dataclasses
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest

import masec.beamformer
from masec import (EigensolverError, QuadraticForms, Scenario, build_forms,
                   check_positions, initial_positions, load_run_spec,
                   optimal_beamformer, sample_beamformers, secrecy_rate,
                   solve_beamformer, steering_vector)
from masec.beamformer import (BOUND_BLOCK_CHUNKS, CANDIDATE_CHUNK_ENTRIES,
                              MIRROR_RTOL, _canonical, _mirror, _rate_bounds,
                              _rate_slack, best_gap_layout, best_secrecy_rates)
from masec.driver import _scan_levels

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


def _assert_full_grid_argmax(n, scn, levels, step):
    X = _layouts(_all_tuples(n, levels), scn, step)
    rates = best_secrecy_rates(X, scn)
    j = int(np.argmax(rates))
    x, rate = best_gap_layout(n, scn, levels, step)
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


class TestBestGapLayout:
    @pytest.mark.parametrize("name", MIRROR_WINNERS)
    def test_matches_full_grid_argmax(self, name):
        n, grid = MIRROR_WINNERS[name]
        scn, levels, step = grid()
        j = _assert_full_grid_argmax(n, scn, levels, step)
        assert not _canonical(_all_tuples(n, levels)[j:j + 1])[0]

    @pytest.mark.parametrize("power", [1e6, 1e10])
    @pytest.mark.parametrize("n,levels", [(3, 60), (4, 20), (6, 6)])
    def test_matches_full_grid_argmax_at_high_power(self, n, levels, power):
        # rounding grows with P_A / sigma^2: mirror-pair rates differ by up
        # to 1e-5 bps/Hz at 1e10, and the bound's slack must cover it
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
    def test_scores_one_tuple_of_each_mirror_pair(self, name, monkeypatch):
        # at most the canonical half (plus the mirrors of the best) is
        # scored, and every canonical row left out is certified below the
        # band of the best rate
        n, grid = MIRROR_WINNERS[name]
        scn, levels, step = grid()
        scored = self._record_rows(monkeypatch)
        _, rate = best_gap_layout(n, scn, levels, step)
        K = _all_tuples(n, levels)
        X = _layouts(K[_canonical(K)], scn, step)
        assert sum(map(len, scored)) <= len(X) + 4
        assert max(map(len, scored)) * n * n <= CANDIDATE_CHUNK_ENTRIES
        seen = {row for rows in scored for row in map(tuple, rows.tolist())}
        left = np.array([row not in seen for row in map(tuple, X.tolist())])
        assert left.any()
        slack = _rate_slack(n, scn)
        band = rate - MIRROR_RTOL * max(rate, 1.0) - slack
        assert (_rate_bounds(X[left], scn) + slack < band).all()

    def test_rescores_mirrors_of_every_near_best_row(self, monkeypatch):
        # rates that tie to rounding: the winner (2, 3) is non-canonical and
        # its mirror (1, 3) scores one ulp below another canonical row (0, 4)
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        ulp = np.spacing(1.0)
        planted = {(2, 3): 1.0 + 4 * ulp, (0, 4): 1.0 + 2 * ulp,
                   (4, 4): 1.0 + 2 * ulp, (1, 3): 1.0 + ulp}
        step = 0.25

        def planted_rates(X, scenario):
            K = np.rint((X[:, 1:] - scn.min_spacing * np.arange(1, 3))
                        / step).astype(int)
            return np.array([planted.get(tuple(k), 0.5) for k in K.tolist()])
        # the planted rates serve as their own bounds, so the screen cannot
        # skip a planted row
        monkeypatch.setattr(masec.beamformer, "best_secrecy_rates",
                            planted_rates)
        monkeypatch.setattr(masec.beamformer, "_rate_bounds", planted_rates)
        x, rate = best_gap_layout(3, scn, 6, step)
        assert rate == 1.0 + 4 * ulp
        assert np.array_equal(x, [0.0, 1.0, 1.75])

    def test_slack_widens_the_screen_and_the_mirror_band(self, monkeypatch):
        # planted rates and bounds that disagree by less than the slack: the
        # first block's best is W; C, in the second block, has a bound below
        # its rate, and its mirror (22, 42) is the grid's best row
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        step, slack = 0.2, 1e-6
        planted = {(0, 3): (1.0 + 5e-7, 1.0 - 3e-7),  # W
                   (20, 42): (1.0 - 1e-7, 1.0 - 9e-7),  # C
                   (22, 42): (1.0 + 6e-7, 0.0)}

        def planted_column(column):
            def values(X, scenario):
                K = np.rint((X[:, 1:] - scn.min_spacing * np.arange(1, 3))
                            / step).astype(int)
                return np.array([planted.get(tuple(k), (0.5, 0.5))[column]
                                 for k in K.tolist()])
            return values
        monkeypatch.setattr(masec.beamformer, "best_secrecy_rates",
                            planted_column(0))
        monkeypatch.setattr(masec.beamformer, "_rate_bounds",
                            planted_column(1))
        monkeypatch.setattr(masec.beamformer, "_rate_slack",
                            lambda n, scenario: slack)
        K = _all_tuples(3, 44)
        index = {tuple(k): i for i, k in enumerate(K[_canonical(K)].tolist())}
        block = BOUND_BLOCK_CHUNKS * (CANDIDATE_CHUNK_ENTRIES // 9)
        assert index[(0, 3)] <= block < index[(20, 42)]
        x, rate = best_gap_layout(3, scn, 44, step)
        assert rate == 1.0 + 6e-7
        assert np.array_equal(x, [0.0, 0.5 + 22 * step, 1.0 + 42 * step])

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
        x, rate = best_gap_layout(3, scn, levels,
                                  (scn.aperture - 2 * scn.min_spacing) / levels)
        K = _all_tuples(3, levels)
        palindromes = levels // 2 + 1  # equal gaps, 2 k_2 = k_3 <= levels
        assert sum(map(len, scored)) <= (len(K) + palindromes) // 2
        assert np.array_equal(x, initial_positions(3, scn))
        assert rate == best_secrecy_rates(x[None, :], scn)[0]
        assert 0.0 <= rate <= 1e-12 * power

    @staticmethod
    def _record_rows(monkeypatch):
        scored = []

        def recording(X, scenario):
            scored.append(X)
            return best_secrecy_rates(X, scenario)
        monkeypatch.setattr(masec.beamformer, "best_secrecy_rates", recording)
        return scored
