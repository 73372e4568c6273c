import dataclasses
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from masec.oracle import _random_samples
from masec import (QuadraticForms, Scenario, build_forms, fd_gradient,
                   grid_search, gradient_psi, initial_positions,
                   load_run_spec, mrt_beamformer, SolveConfig,
                   random_positions, run_verification, sample_beamformers,
                   secrecy_rate, solve)

ALGORITHM_1 = SolveConfig(ascent="alternating")
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


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

    def test_stack_matches_rows(self, paper_n4, make_beamformer):
        rng = np.random.default_rng(44)
        X = np.array([random_positions(4, paper_n4, rng) for _ in range(6)])
        W = np.array([make_beamformer(4, paper_n4, rng) for _ in range(6)])
        stacked = fd_gradient(X, W, paper_n4)
        assert stacked.shape == X.shape
        rows = np.array([fd_gradient(x, w, paper_n4) for x, w in zip(X, W)])
        # the rounding noise of a central difference, eps |Psi| / h, is
        # about 1e-9 here; the two evaluations may round Psi differently
        assert np.abs(stacked - rows).max() <= 1e-7

    def test_rejects_mismatched_and_3d_input(self, paper_n4, make_beamformer):
        rng = np.random.default_rng(45)
        X = np.array([random_positions(4, paper_n4, rng) for _ in range(3)])
        W = np.array([make_beamformer(4, paper_n4, rng) for _ in range(3)])
        for x, w in ((X, W[:-1]), (X[0], W), (X[None], W[None])):
            with pytest.raises(ValueError, match="dimensions disagree"):
                fd_gradient(x, w, paper_n4)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 1e3])
    def test_default_step_scales_with_the_wavelength(self, lam, paper_n4,
                                                     make_beamformer):
        # an absolute default step of 1e-6 erred by 116% at lambda = 1e-6
        rng = np.random.default_rng(46)
        x = random_positions(4, paper_n4, rng)
        w = make_beamformer(4, paper_n4, rng)
        scaled = dataclasses.replace(paper_n4, wavelength=lam,
                                     aperture=lam * paper_n4.aperture,
                                     min_spacing=lam * paper_n4.min_spacing)
        assert np.allclose(lam * fd_gradient(lam * x, w, scaled),
                           fd_gradient(x, w, paper_n4), rtol=1e-6,
                           atol=1e-6)

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


def _normalized_sampling(A, B, scn, count, seed):
    """The sampling oracle on beamformers scaled to ||w||^2 = P_A.

    Returns the best ratio (1 + w^H A w) / (1 + w^H B w) and the most
    that rounding can move it, in this formula or in the unscaled one:
    4 N eps (r (1 + P_A ||B||) + 1 + P_A ||A||) / (1 + w^H B w) on a
    sample of ratio r, taken over the samples that could be the best.
    """
    n, power = A.shape[-1], scn.power_budget
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    W *= (np.sqrt(power) / np.linalg.norm(W, axis=1))[:, None]
    a = np.einsum("ki,ij,kj->k", W.conj(), A, W).real
    b = np.einsum("ki,ij,kj->k", W.conj(), B, W).real
    r = (1.0 + a) / (1.0 + b)
    err = (4 * n * np.finfo(float).eps / (1.0 + b)
           * (r * (1.0 + power * np.linalg.norm(B, 2))
              + 1.0 + power * np.linalg.norm(A, 2)))
    best = r.argmax()
    return r[best], err[r + err >= r[best] - err[best]].max()


class TestSampleBeamformerStack:
    def test_stack_equals_per_layout_calls(self, paper_n3, make_scenario):
        rng = np.random.default_rng(50)
        cases = [(3, paper_n3), (1, paper_n3)]
        cases += [(int(rng.integers(2, 9)), make_scenario(rng)) for _ in range(4)]
        for n, scn in cases:
            X = np.array([random_positions(n, scn, rng) for _ in range(5)])
            forms = build_forms(X, scn)
            seeds = [int(s) for s in rng.integers(2**31, size=5)]
            stacked = sample_beamformers(forms, scn, 3000, seeds)
            alone = [sample_beamformers(QuadraticForms(A=A, B=B), scn, 3000, s)
                     for A, B, s in zip(forms.A, forms.B, seeds)]
            assert stacked.shape == (5,)
            assert all(type(v) is float for v in alone)
            assert stacked.tolist() == alone

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_normalized_formula(self, n, make_scenario):
        rng = np.random.default_rng(60 + n)
        for power in (1e-12, 1e-6, 1.0, 1e6, 1e12):
            scn = dataclasses.replace(make_scenario(rng), power_budget=power)
            if power == 1.0:
                # Bob among the eavesdroppers: no beamformer beats 1
                scn = dataclasses.replace(
                    scn, eve_angles=scn.eve_angles + (scn.bob_angle,))
            X = np.array([random_positions(n, scn, rng) for _ in range(2)])
            forms = build_forms(X, scn)
            seeds = [int(s) for s in rng.integers(2**31, size=2)]
            # 5,000 draws span three blocks of rows, the last one partial
            got = sample_beamformers(forms, scn, 5000, seeds)
            for value, A, B, seed in zip(got, forms.A, forms.B, seeds):
                expected, rounding = _normalized_sampling(A, B, scn, 5000, seed)
                # 1e-12 relative, unless the best samples' ratio is so
                # ill-conditioned that rounding alone may move it further
                assert abs(value - expected) <= max(1e-12 * expected, rounding)

    def test_rejects_forms_and_seeds_of_different_lengths(self, paper_n3):
        X = np.array([random_positions(3, paper_n3, np.random.default_rng(k))
                      for k in range(3)])
        forms = build_forms(X, paper_n3)
        one = QuadraticForms(A=forms.A[0], B=forms.B[0])
        for f, seeds in ((forms, [1, 2]), (forms, [1, 2, 3, 4]), (forms, 1),
                         (one, [1]), (one, [1, 2, 3])):
            with pytest.raises(ValueError, match="disagree"):
                sample_beamformers(f, paper_n3, 10, seeds)

    def test_rejects_bad_count(self, paper_n3):
        X = np.array([random_positions(3, paper_n3, np.random.default_rng(k))
                      for k in range(2)])
        forms = build_forms(X, paper_n3)
        for count in (0, -1):
            with pytest.raises(ValueError, match="count"):
                sample_beamformers(forms, paper_n3, count, [1, 2])


class TestGridSearch:
    def test_single_antenna_formula(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       aperture=2.0, power_budget=2.0, noise_power=0.5)
        _, _, rate = grid_search(scn, 1, 0.1)
        expected = max(np.log2((1 + 2.0 / 0.5) / (1 + 2.0 / 0.5)), 0.0)
        assert rate == pytest.approx(expected, abs=1e-12)

    def test_single_antenna_memory_does_not_grow_with_aperture(self):
        # one layout, x = [0], whatever the aperture: a phase table over
        # its 10,000,001 levels would peak at 80 MB
        scn = Scenario(bob_angle=np.pi / 2,
                       eve_angles=(0.25 * np.pi, 0.425 * np.pi, 0.55 * np.pi),
                       aperture=200_000.0)
        tracemalloc.start()
        try:
            x, _, rate = grid_search(scn, 1, 1 / 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert np.array_equal(x, [0.0]) and rate == 0.0

    def test_refinement_never_decreases(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.3 * np.pi,),
                       aperture=2.0)
        _, _, coarse = grid_search(scn, 2, 1 / 25)
        _, _, fine = grid_search(scn, 2, 1 / 50)
        assert fine >= coarse

    def test_optimum_matches_per_tuple_brute_force(self):
        # absolute tuples on the grid: their gaps are the gap grid's
        from masec import optimal_beamformer
        for n, aperture in ((2, 2.0), (3, 1.8), (4, 2.2)):
            scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.7 * np.pi,),
                           aperture=aperture)
            _, _, rate_star = grid_search(scn, n, 1 / 10)
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
        x_star, _, rate_star = grid_search(scn, 2, 1 / 10)
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
        x_star, w_star, rate_star = grid_search(scn, 2, 1 / 50)
        assert rate_star == pytest.approx(
            secrecy_rate(x_star, w_star, scn), abs=1e-9)

    def test_guards(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="grid too large"):
            grid_search(scn, 3, 1e-4)
        # zero slack leaves the FPA layout as the only candidate
        tight = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                         aperture=1.0, min_spacing=0.5)
        x_star, _, _ = grid_search(tight, 3, 0.3)
        assert np.array_equal(x_star, initial_positions(3, tight))

    @pytest.mark.parametrize("resolution", [0.0, -0.1, np.nan])
    def test_nonpositive_resolution_refused(self, resolution):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="resolution must be positive"):
            grid_search(scn, 3, resolution)


class TestRandomSamples:
    def test_stacks_equal_one_draw_at_a_time(self, paper_n3, make_scenario):
        rng = np.random.default_rng(41)
        cases = [(3, paper_n3), (1, paper_n3)]
        cases += [(int(rng.integers(2, 9)), make_scenario(rng)) for _ in range(4)]
        for seed, (n, scn) in enumerate(cases):
            X, W = _random_samples(50, n, scn, np.random.default_rng(seed))
            # each sample drawn on its own, then the stack scaled to P_A
            draws = np.random.default_rng(seed)
            expected_x = np.empty((50, n))
            expected_w = np.empty((50, n), dtype=complex)
            for x, w in zip(expected_x, expected_w):
                x[:] = random_positions(n, scn, draws)
                w[:] = draws.standard_normal(n) + 1j * draws.standard_normal(n)
            expected_w *= (np.sqrt(scn.power_budget)
                           / np.linalg.norm(expected_w, axis=1)[:, None])
            assert (X == expected_x).all() and (W == expected_w).all()


class TestRunVerification:
    def test_paper_scenario_passes(self, paper_n4):
        report = run_verification(paper_n4, 4, seed=0, cfg=ALGORITHM_1)
        assert report.passed
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "skip"
        for name in ("lift-identity", "fd-gradient",
                     "beamformer-stationarity", "beamformer-sampling"):
            assert names[name] == "pass"

    def test_paper_n3_runs_grid_comparison(self, paper_n3):
        report = run_verification(paper_n3, 3, seed=0, cfg=ALGORITHM_1)
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "pass"
        assert report.passed

    def test_small_scenario_runs_grid_comparison(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                       aperture=2.0)
        report = run_verification(scn, 2, seed=0, cfg=ALGORITHM_1)
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "pass"
        assert report.passed

    @pytest.mark.parametrize("n, aperture", [(4, 4.0), (5, 3.0)])
    def test_grid_comparison_runs_beyond_three_antennas(self, n, aperture):
        # C(128, 3) = 341,376 and C(54, 4) = 316,251 gap tuples at lambda/50
        scn = Scenario(bob_angle=np.pi / 2,
                       eve_angles=(0.25 * np.pi, 0.425 * np.pi, 0.55 * np.pi),
                       aperture=aperture)
        report = run_verification(scn, n, seed=0)
        names = {c.name: c.status for c in report.checks}
        assert names["grid-comparison"] == "pass"
        assert report.passed

    @pytest.mark.parametrize("power", [1.0, 1e3, 1e6])
    def test_single_antenna_passes(self, power):
        # Psi does not depend on x at N = 1: the central difference is
        # rounding noise, and the check must not divide it by its own norm
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                       power_budget=power)
        report = run_verification(scn, 1, seed=0, cfg=ALGORITHM_1)
        names = {c.name: c.status for c in report.checks}
        assert names["fd-gradient"] == "pass"
        assert report.passed

    @pytest.mark.parametrize("scale", [dict(power_budget=1e-6),
                                       dict(power_budget=1e-12),
                                       dict(noise_power=1e6)],
                             ids=["P_A=1e-6", "P_A=1e-12", "sigma2=1e6"])
    def test_low_snr_passes(self, scale):
        # at P_A / sigma^2 << 1 each log2(1 + G / sigma^2) is tiny: Psi must
        # keep it to relative precision for the central difference to hold
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.3 * np.pi,),
                       **scale)
        report = run_verification(scn, 2, seed=0)
        names = {c.name: c.status for c in report.checks}
        assert names["fd-gradient"] == "pass"
        assert report.passed

    @pytest.mark.parametrize("name, power", [("toy_n2", 1e8), ("toy_n2", 1e10),
                                             ("toy_n2", 1e12),
                                             ("paper_n3", 1e10)])
    def test_high_snr_stationarity_passes(self, name, power):
        # (A + S) w - lam (B + S) w rounds to about eps |lam| ||B + S||
        # ||w||, far above eps ||A + S|| ||w|| once lam is large
        spec = load_run_spec(SCENARIOS / f"{name}.json")
        scn = dataclasses.replace(spec.scenario, power_budget=power)
        report = run_verification(scn, spec.n_antennas, seed=spec.seed,
                                  cfg=spec.config)
        names = {c.name: c.status for c in report.checks}
        assert names["beamformer-stationarity"] == "pass"
        assert report.passed

    def test_corrupted_gradient_detected(self, paper_n4, monkeypatch):
        monkeypatch.setattr("masec.oracle.gradient_psi",
                            lambda x, w, scn: -gradient_psi(x, w, scn))
        report = run_verification(paper_n4, 4, seed=0, cfg=ALGORITHM_1)
        names = {c.name: c.status for c in report.checks}
        assert names["fd-gradient"] == "fail"
        assert not report.passed

    def test_corrupted_lift_detected(self, paper_n4, monkeypatch):
        from masec import oracle
        real_lift = oracle.real_lift

        def scaled(x, w, scn):
            lift = real_lift(x, w, scn)
            return dataclasses.replace(lift, C=1.01 * lift.C)
        monkeypatch.setattr("masec.oracle.real_lift", scaled)
        report = run_verification(paper_n4, 4, seed=0, cfg=ALGORITHM_1)
        names = {c.name: c.status for c in report.checks}
        assert names["lift-identity"] == "fail"
        assert not report.passed

    @pytest.mark.parametrize("corruption, check", [
        ("beamformer", "beamformer-stationarity"),
        ("eigenvalue", "beamformer-sampling"),
    ])
    def test_corrupted_beamformer_detected(self, paper_n4, monkeypatch,
                                           corruption, check):
        from masec import oracle
        solve_beamformer = oracle.solve_beamformer

        def corrupted(forms, scn, budget=None):
            sol = solve_beamformer(forms, scn, budget)
            if corruption == "beamformer":
                # same norm, but no longer an eigenvector of the pencil
                return dataclasses.replace(
                    sol, beamformer=np.roll(sol.beamformer, 1, axis=-1))
            # an optimum below what random beamformers reach
            return dataclasses.replace(sol, eigenvalue=0.5 * sol.eigenvalue)
        monkeypatch.setattr("masec.oracle.solve_beamformer", corrupted)
        report = run_verification(paper_n4, 4, seed=0, cfg=ALGORITHM_1)
        names = {c.name: c.status for c in report.checks}
        assert names[check] == "fail"
        assert not report.passed
        if corruption == "eigenvalue":
            # at high power w is near the null space of B, and a relative
            # change of about 1e-10 in B makes (w, lam / 2) an exact pair at
            # 1e10: the scaled residual and the samples passed it, and the
            # Rayleigh quotient of w, held to the rounding of a rate, fails
            for power in (1e10, 1e12):
                report = run_verification(
                    dataclasses.replace(paper_n4, power_budget=power), 4,
                    seed=0, cfg=ALGORITHM_1)
                names = {c.name: c.status for c in report.checks}
                assert names["beamformer-stationarity"] == "fail"
                assert not report.passed

    def test_deterministic(self, paper_n4):
        a = run_verification(paper_n4, 4, seed=7, cfg=ALGORITHM_1)
        b = run_verification(paper_n4, 4, seed=7, cfg=ALGORITHM_1)
        assert a == b


def test_grid_search_vs_algorithm_reference():
    # the target the alternating solver is graded against at N=2
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(0.25 * np.pi,),
                   aperture=2.0)
    _, _, grid_rate = grid_search(scn, 2, 1 / 50)
    alg_rate = solve(2, scn, ALGORITHM_1).final_rate
    assert alg_rate >= 0.95 * grid_rate
