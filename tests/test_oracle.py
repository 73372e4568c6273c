import itertools

import numpy as np
import pytest

from masec import (GridSpec, Scenario, build_forms, fd_gradient, grid_search,
                   gradient_psi, initial_positions, mrt_beamformer,
                   random_positions, run_verification, sample_beamformers,
                   secrecy_rate, solve)


class TestFdGradient:
    def test_zero_for_broadside_angles(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 2,))
        x = [0.0, 0.5, 1.0]
        g = fd_gradient(x, mrt_beamformer(x, scn), scn)
        assert np.allclose(g, 0.0, atol=1e-10)

    def test_agreement_with_analytic(self, paper_n4, make_beamformer):
        rng = np.random.default_rng(40)
        for _ in range(10):
            x = random_positions(4, paper_n4, rng)
            w = make_beamformer(4, paper_n4, rng)
            numeric = fd_gradient(x, w, paper_n4, h=1e-6)
            analytic = gradient_psi(x, w, paper_n4)
            assert np.linalg.norm(analytic - numeric) <= \
                1e-5 * max(np.linalg.norm(numeric), 1e-12)

    def test_h_refinement_second_order(self, paper_n4, make_beamformer):
        rng = np.random.default_rng(41)
        x = random_positions(4, paper_n4, rng)
        w = make_beamformer(4, paper_n4, rng)
        exact = gradient_psi(x, w, paper_n4)
        errs = [np.linalg.norm(fd_gradient(x, w, paper_n4, h=h) - exact)
                for h in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]
        # central differences shrink roughly like h^2
        assert errs[1] <= 0.05 * errs[0]

    def test_rejects_bad_step(self, paper_n4):
        with pytest.raises(ValueError):
            fd_gradient([0.0, 0.5], [1.0, 0.0], paper_n4, h=0.0)


class TestSampleBeamformers:
    def test_deterministic_given_seed(self, paper_n4):
        forms = build_forms(initial_positions(4, paper_n4), paper_n4)
        a = sample_beamformers(forms, paper_n4, 1, seed=123)
        b = sample_beamformers(forms, paper_n4, 1, seed=123)
        assert a == b
        assert a != sample_beamformers(forms, paper_n4, 1, seed=124)

    def test_never_beats_closed_form(self, make_scenario):
        from masec import solve_beamformer
        rng = np.random.default_rng(42)
        for seed in range(8):
            scn = make_scenario(rng)
            x = np.sort(rng.uniform(0.0, scn.aperture, size=3))
            forms = build_forms(x, scn)
            opt = solve_beamformer(forms, scn).eigenvalue
            best = sample_beamformers(forms, scn, 2000, seed)
            assert best <= opt + 1e-12 * max(1.0, opt)

    def test_orthogonal_pair_close_to_optimum(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.0,))
        forms = build_forms([0.0, 0.5], scn)
        best = sample_beamformers(forms, scn, 10_000, seed=0)
        assert best >= 0.99 * 3.0
        assert best <= 3.0 + 1e-12

    def test_rejects_bad_count(self, paper_n4):
        forms = build_forms(initial_positions(4, paper_n4), paper_n4)
        with pytest.raises(ValueError):
            sample_beamformers(forms, paper_n4, 0, seed=0)


class TestGridSearch:
    def test_single_antenna_formula(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       aperture=2.0, power_budget=2.0, noise_power=0.5)
        _, _, rate = grid_search(scn, GridSpec(resolution=0.1, n=1))
        expected = max(np.log2((1 + 2.0 / 0.5) / (1 + 2.0 / 0.5)), 0.0)
        assert rate == pytest.approx(expected, abs=1e-12)

    def test_refinement_never_decreases(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.3 * np.pi,),
                       aperture=2.0)
        _, _, coarse = grid_search(scn, GridSpec(resolution=1 / 25, n=2))
        _, _, fine = grid_search(scn, GridSpec(resolution=1 / 50, n=2))
        assert fine >= coarse

    def test_optimum_matches_per_tuple_brute_force(self):
        # absolute tuples on the grid: their gaps are the gap grid's
        from masec import optimal_beamformer
        for n, aperture in ((2, 2.0), (3, 1.8)):
            scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.7 * np.pi,),
                           aperture=aperture)
            _, _, rate_star = grid_search(scn, GridSpec(resolution=1 / 10, n=n))
            pts = np.arange(0.0, aperture + 1e-12, 1 / 10)
            best = -np.inf
            for idx in itertools.combinations(range(pts.size), n):
                if np.all(np.diff(idx) >= 5):
                    x = pts[list(idx)]
                    w = optimal_beamformer(build_forms(x, scn), scn)
                    best = max(best, secrecy_rate(x, w, scn))
            assert rate_star == pytest.approx(best, abs=1e-9)

    def test_enumeration_order_invariant(self):
        # shuffled selection over the same per-tuple rates must agree
        from masec.beamformer import best_secrecy_rates
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.7 * np.pi,),
                       aperture=2.0)
        spec = GridSpec(resolution=1 / 10, n=2)
        x_star, _, rate_star = grid_search(scn, spec)
        # gap tuples: x_1 = 0, x_2 = d_min + k h for every k that fits L
        cands = np.array([(0.0, min(0.5 + (1 / 10) * k, 2.0))
                          for k in range(16)])
        rates = best_secrecy_rates(cands, scn)
        order = np.random.default_rng(43).permutation(len(cands))
        best = None
        for k in order:
            key = (-rates[k], tuple(cands[k]))
            if best is None or key < best:
                best = key
        assert rate_star == -best[0]
        assert np.array_equal(x_star, np.asarray(best[1]))

    def test_matches_best_beamformer_at_winner(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                       aperture=2.0)
        x_star, w_star, rate_star = grid_search(scn,
                                                GridSpec(resolution=1 / 50, n=2))
        assert rate_star == pytest.approx(
            secrecy_rate(x_star, w_star, scn), abs=1e-9)

    def test_guards(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="1 <= N <= 3"):
            GridSpec(resolution=0.1, n=4)
        with pytest.raises(ValueError, match="grid too large"):
            grid_search(scn, GridSpec(resolution=1e-4, n=3))
        # zero slack leaves the FPA layout as the only candidate
        tight = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                         aperture=1.0, min_spacing=0.5)
        x_star, _, _ = grid_search(tight, GridSpec(resolution=0.3, n=3))
        assert np.array_equal(x_star, initial_positions(3, tight))


class TestRunVerification:
    def test_paper_scenario_passes(self, paper_n4):
        report = run_verification(paper_n4, 4, seed=0)
        assert report.passed
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "skip"
        for name in ("lift-identity", "fd-gradient",
                     "beamformer-stationarity", "beamformer-sampling"):
            assert names[name] == "pass"

    def test_paper_n3_runs_grid_comparison(self, paper_n3):
        report = run_verification(paper_n3, 3, seed=0)
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "pass"
        assert report.passed

    def test_small_scenario_runs_grid_comparison(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                       aperture=2.0)
        report = run_verification(scn, 2, seed=0)
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "pass"
        assert report.passed

    @pytest.mark.parametrize("power", [1.0, 1e3, 1e6])
    def test_single_antenna_passes(self, power):
        # Psi does not depend on x at N = 1: the central difference is
        # rounding noise, and the check must not divide it by its own norm
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                       power_budget=power)
        report = run_verification(scn, 1, seed=0)
        names = {c.name: c.status for c in report.checks}
        assert names["fd-gradient"] == "pass"
        assert report.passed

    def test_corrupted_gradient_detected(self, paper_n4):
        flipped = lambda x, w, scn: -gradient_psi(x, w, scn)
        report = run_verification(paper_n4, 4, seed=0, gradient_fn=flipped)
        names = {c.name: c.status for c in report.checks}
        assert names["fd-gradient"] == "fail"
        assert not report.passed

    def test_deterministic(self, paper_n4):
        a = run_verification(paper_n4, 4, seed=7)
        b = run_verification(paper_n4, 4, seed=7)
        assert a == b


def test_grid_search_vs_algorithm_reference():
    # the target the alternating solver is graded against at N=2
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                   aperture=2.0)
    _, _, grid_rate = grid_search(scn, GridSpec(resolution=1 / 50, n=2))
    alg_rate = solve(2, scn).final_rate
    assert alg_rate >= 0.95 * grid_rate
