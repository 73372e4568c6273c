import numpy as np
import pytest

from masec import (InfeasibleError, PgaConfig, Scenario, fd_gradient,
                   gradient_psi, initial_positions, mrt_beamformer,
                   objective_psi, optimize_positions, project_positions,
                   random_positions, rate_difference, real_lift,
                   secrecy_rate)

TWO_PI = 2.0 * np.pi


def _gain_by_hand(x, w, theta, wavelength):
    """Independent complex evaluation of |a^H w|^2."""
    a = np.exp(1j * TWO_PI / wavelength * np.asarray(x) * np.cos(theta))
    s = np.sum(np.conj(a) * np.asarray(w))
    return float(abs(s) ** 2)


class TestRealLift:
    def test_broadside_rows(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        w = np.array([0.3 + 0.4j, 0.5 - 0.1j])
        lift = real_lift([0.0, 0.7], w, scn)
        assert np.allclose(lift.g[0], 1.0, atol=1e-12)
        assert np.allclose(lift.q[0], 0.0, atol=1e-12)
        assert lift.gains()[0] == pytest.approx(abs(np.sum(w)) ** 2, rel=1e-12)

    def test_real_beamformer_kills_antisymmetric_part(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4,))
        lift = real_lift([0.0, 0.8, 1.9], np.array([0.4, -0.7, 0.2]), scn)
        assert np.all(lift.D == 0.0)

    def test_structure(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(20)
        scn = make_scenario(rng)
        w = make_beamformer(5, scn, rng)
        lift = real_lift(rng.uniform(0, 10, 5), w, scn)
        assert np.max(np.abs(lift.g**2 + lift.q**2 - 1.0)) <= 1e-12
        assert np.array_equal(lift.C, lift.C.T)
        assert np.allclose(lift.D, -lift.D.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(lift.C)) >= -1e-12

    def test_identity_against_complex_oracle(self, make_scenario,
                                             make_beamformer):
        rng = np.random.default_rng(21)
        for _ in range(300):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 8))
            x = rng.uniform(0.0, scn.aperture, size=n)
            w = make_beamformer(n, scn, rng)
            gains = real_lift(x, w, scn).gains()
            for i, theta in enumerate(scn.angles):
                direct = _gain_by_hand(x, w, theta, scn.wavelength)
                assert abs(gains[i] - direct) <= 1e-9 * max(1.0, direct)


    def test_stack_matches_single_layouts(self, make_scenario,
                                          make_beamformer):
        rng = np.random.default_rng(25)
        for n in range(1, 9):
            scn = make_scenario(rng)
            X = np.array([random_positions(n, scn, rng) for _ in range(3)])
            W = np.array([make_beamformer(n, scn, rng) for _ in range(3)])
            stack = real_lift(X, W, scn)
            gains = stack.gains()
            assert gains.shape == (3, scn.num_eves + 1)
            for k in range(3):
                one = real_lift(X[k], W[k], scn)
                for name in ("g", "q", "C", "D"):
                    assert np.array_equal(getattr(stack, name)[k],
                                          getattr(one, name))
                assert np.array_equal(gains[k], one.gains())

    @pytest.mark.parametrize("x, w_shape", [
        ([0.0, 0.7], (3,)),
        ([[0.0, 0.7], [1.0, 2.0]], (2,)),
        ([[0.0, 0.7], [1.0, 2.0]], (3, 2)),
        ([[[0.0, 0.7]]], (1, 1, 2)),
    ])
    def test_shape_mismatch_rejected(self, x, w_shape):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        with pytest.raises(ValueError, match="dimensions disagree"):
            real_lift(x, np.ones(w_shape), scn)

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [0.0, np.inf],
                                   [[0.0, 1.0], [np.nan, 1.0]]])
    def test_non_finite_positions_rejected(self, x):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        w = np.ones(np.shape(x), dtype=complex)
        with pytest.raises(ValueError, match="positions must be finite"):
            real_lift(x, w, scn).gains()
        with pytest.raises(ValueError, match="positions must be finite"):
            gradient_psi(x, w, scn)


class TestObjectivePsi:
    def test_secrecy_rate_is_clamped_psi(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(22)
        for _ in range(100):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 6))
            x = rng.uniform(0.0, scn.aperture, size=n)
            w = make_beamformer(n, scn, rng)
            assert secrecy_rate(x, w, scn) == max(objective_psi(x, w, scn), 0.0)

    def test_identical_angles_zero(self):
        scn = Scenario(bob_angle=1.0, eve_angles=(1.0,))
        x = [0.0, 0.5, 1.2]
        assert objective_psi(x, mrt_beamformer(x, scn), scn) == 0.0

    def test_paper_start_matches_hand_recomputation(self, paper_n4):
        x = initial_positions(4, paper_n4)
        w = mrt_beamformer(x, paper_n4)
        g0 = _gain_by_hand(x, w, paper_n4.bob_angle, 1.0)
        leak = sum(_gain_by_hand(x, w, t, 1.0) for t in paper_n4.eve_angles)
        expected = np.log2(1.0 + g0) - np.log2(1.0 + leak)
        assert objective_psi(x, w, paper_n4) == pytest.approx(expected,
                                                              rel=1e-12)


class TestGradientPsi:
    def test_broadside_angles_give_exact_zero(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 2,))
        x = [0.0, 0.5, 1.3]
        g = gradient_psi(x, mrt_beamformer(x, scn), scn)
        assert np.all(g == 0.0)

    def test_matches_finite_differences(self, paper_n4, make_beamformer):
        rng = np.random.default_rng(23)
        for _ in range(30):
            x = random_positions(4, paper_n4, rng)
            w = make_beamformer(4, paper_n4, rng)
            analytic = gradient_psi(x, w, paper_n4)
            numeric = fd_gradient(x, w, paper_n4, h=1e-6)
            err = np.linalg.norm(analytic - numeric)
            assert err <= 1e-5 * max(np.linalg.norm(numeric), 1e-12)

    def test_single_antenna_zero(self):
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 4,))
        g = gradient_psi([2.0], mrt_beamformer([2.0], scn), scn)
        assert np.array_equal(g, [0.0])


class TestProjection:
    def test_worked_examples(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        assert np.array_equal(project_positions([-1.0, 0.1, 0.3], scn),
                              [0.0, 0.5, 1.0])
        assert np.array_equal(project_positions([11.0, 12.0], scn),
                              [9.5, 10.0])

    def test_feasible_point_unchanged(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        x = np.array([0.2, 1.0, 4.5])
        assert np.array_equal(project_positions(x, scn), x)

    def test_idempotent(self, make_scenario):
        rng = np.random.default_rng(24)
        for _ in range(200):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 9))
            raw = rng.uniform(-3.0, scn.aperture + 3.0, size=n)
            once = project_positions(raw, scn)
            twice = project_positions(once, scn)
            assert np.array_equal(once, twice)

    def test_output_feasible(self, make_scenario):
        rng = np.random.default_rng(25)
        for _ in range(200):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 9))
            raw = rng.uniform(-5.0, scn.aperture + 5.0, size=n)
            out = project_positions(raw, scn)
            assert out[0] >= 0.0
            assert out[-1] <= scn.aperture
            if n > 1:
                assert np.min(np.diff(out)) >= scn.min_spacing - 1e-12

    def test_sorts_before_clamping(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
        shuffled = project_positions([4.0, 0.3, 2.0], scn)
        assert np.array_equal(shuffled, project_positions([0.3, 2.0, 4.0],
                                                          scn))

    def test_infeasible_scenario_raises(self):
        # three antennas at spacing 0.5 need an aperture of at least 1.0
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       aperture=0.9)
        with pytest.raises(InfeasibleError):
            project_positions([0.0, 0.4, 0.9], scn)


class TestOptimizePositions:
    def test_zero_gradient_stops_after_one_iteration(self):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 2,))
        x0 = initial_positions(3, scn)
        best, trace = optimize_positions(x0, mrt_beamformer(x0, scn), scn)
        assert len(trace) - 1 == 1
        assert np.array_equal(best, x0)

    def test_paper_mrt_round_converges_within_50(self, paper_n4):
        # reference convergence claim for the first ascent round
        x0 = initial_positions(4, paper_n4)
        w = mrt_beamformer(x0, paper_n4)
        cfg = PgaConfig(step_size=0.01, max_inner_iters=500, inner_tol=1e-8)
        best, trace = optimize_positions(x0, w, paper_n4, cfg)
        iters = len(trace) - 1
        assert iters <= 50
        assert abs(trace[-1] - trace[-2]) <= 1e-8

    def test_never_worse_than_start(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(26)
        for _ in range(30):
            scn = make_scenario(rng)
            n = int(rng.integers(2, 6))
            x0 = random_positions(n, scn, rng)
            w = make_beamformer(n, scn, rng)
            cfg = PgaConfig(max_inner_iters=80)
            best, trace = optimize_positions(x0, w, scn, cfg)
            psi0 = objective_psi(x0, w, scn)
            assert objective_psi(best, w, scn) >= psi0
            assert trace[0] == psi0

    def test_two_element_toy_matches_grid(self):
        # fixed-beamformer exhaustive check on a lambda/100 spacing grid
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,),
                       aperture=2.0)
        x0 = initial_positions(2, scn)
        w = mrt_beamformer(x0, scn)
        _, trace = optimize_positions(x0, w, scn)
        pts = np.arange(0.0, 2.0 + 1e-12, 1.0 / 100)
        best_grid = -np.inf
        for i in range(pts.size):
            for j in range(i + 50, pts.size):
                best_grid = max(best_grid,
                                objective_psi([pts[i], pts[j]], w, scn))
        assert trace.max() >= 0.98 * best_grid

    def test_best_iterate_beats_last_when_oscillating(self, make_scenario,
                                                      make_beamformer):
        rng = np.random.default_rng(27)
        for _ in range(20):
            scn = make_scenario(rng)
            x0 = random_positions(3, scn, rng)
            w = make_beamformer(3, scn, rng)
            best, trace = optimize_positions(x0, w, scn,
                                             PgaConfig(step_size=0.2,
                                                       max_inner_iters=40))
            assert objective_psi(best, w, scn) == pytest.approx(trace.max(),
                                                                abs=1e-12)


    @pytest.mark.parametrize("x0, w_shape", [
        ([3.0, 3.1, 12.0], None),    # gap below d_min
        ([3.0, 4.0, 12.0], None),    # past the aperture
        ([-1.0, 1.0, 2.0], None),    # below zero
        ([4.0, 1.0, 2.0], None),     # unsorted
        ([0.0, np.nan, 2.0], None),
        ([[0.0, 1.0, 2.0], [3.0, 3.1, 12.0]], None),  # one infeasible row
        ([[0.0, 1.0, 2.0], [4.0, 1.0, 2.0]], None),   # one unsorted row
        ([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], (3, 3)),  # more beamformers
        ([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]], (3,)),    # one beamformer
    ], ids=[f"x0{k}" for k in range(9)])
    def test_rejects_infeasible_start(self, x0, w_shape):
        scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 2,))
        w = np.ones(w_shape or np.shape(x0)) / np.sqrt(3.0)
        with pytest.raises(ValueError):
            optimize_positions(x0, w, scn)

    def test_rejects_too_many_antennas(self, paper_n4):
        x0 = np.linspace(0.0, 10.0, 22)
        with pytest.raises(InfeasibleError):
            optimize_positions(x0, np.ones(22) / np.sqrt(22.0), paper_n4)


def _reference_ascent(x0, w, scn, cfg):
    """Psi trace of the ascent built from the public per-step functions."""
    x = x0
    psi = objective_psi(x, w, scn)
    trace = [psi]
    for _ in range(cfg.max_inner_iters):
        x = project_positions(x + cfg.step_size * gradient_psi(x, w, scn),
                              scn)
        psi_new = objective_psi(x, w, scn)
        trace.append(psi_new)
        if abs(psi_new - psi) <= cfg.inner_tol:
            break
        psi = psi_new
    return np.asarray(trace)


class TestFusedAscent:
    """The loop reads Psi from its gradient's gains: same iterates, one
    objective evaluation per call."""

    @pytest.mark.parametrize("step_size", [0.01, 0.2])
    def test_matches_reference_loop(self, step_size, make_scenario,
                                    make_beamformer):
        rng = np.random.default_rng(29)
        cfg = PgaConfig(step_size=step_size, max_inner_iters=150)
        for n in range(1, 9):
            for _ in range(4):
                scn = make_scenario(rng)
                x0 = random_positions(n, scn, rng)
                w = make_beamformer(n, scn, rng)
                best, trace = optimize_positions(x0, w, scn, cfg)
                expected = _reference_ascent(x0, w, scn, cfg)
                assert trace.shape == expected.shape
                assert np.max(np.abs(trace - expected)) <= 1e-12
                assert objective_psi(best, w, scn) >= expected.max() - 1e-12

    def test_one_objective_evaluation_per_call(self, paper_n4, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return rate_difference(*args)

        monkeypatch.setattr("masec.positions.rate_difference", counting)
        x0 = initial_positions(4, paper_n4)
        _, trace = optimize_positions(x0, mrt_beamformer(x0, paper_n4),
                                      paper_n4)
        assert len(trace) > 10
        assert len(calls) <= 1


class TestLockstep:
    """A stacked call runs every row as its own chain."""

    @staticmethod
    def _check(X, W, scn, cfg):
        best, trace = optimize_positions(X, W, scn, cfg)
        assert best.shape == X.shape
        steps = []
        for k, (x0, w) in enumerate(zip(X, W)):
            single_best, single_trace = optimize_positions(x0, w, scn, cfg)
            assert np.array_equal(best[k], single_best)
            n_steps = len(single_trace) - 1
            assert np.array_equal(trace[:n_steps + 1, k], single_trace)
            assert np.isnan(trace[n_steps + 1:, k]).all()
            steps.append(n_steps)
        assert len(trace) - 1 == max(steps)
        return steps

    def test_rows_match_single_calls(self, make_scenario, make_beamformer):
        rng = np.random.default_rng(32)
        cfg = PgaConfig(max_inner_iters=60)
        steps = []
        for n in range(1, 9):
            for _ in range(3):
                scn = make_scenario(rng)
                k = int(rng.integers(1, 6))
                X = np.array([random_positions(n, scn, rng)
                              for _ in range(k)])
                W = np.array([make_beamformer(n, scn, rng) for _ in range(k)])
                steps += self._check(X, W, scn, cfg)
        assert min(steps) < max(steps) == cfg.max_inner_iters

    def test_stopped_chain_next_to_capped_chains(self, make_beamformer):
        # Bob and both eavesdroppers share one angle: the MRT chain starts
        # at a stationary point and stops after one step, while the
        # random beamformers lower the common gain, one at least to the cap
        scn = Scenario(bob_angle=np.pi / 3, eve_angles=(np.pi / 3, np.pi / 3))
        rng = np.random.default_rng(33)
        cfg = PgaConfig(max_inner_iters=40, inner_tol=1e-14)
        for n in range(2, 9):
            X = np.array([random_positions(n, scn, rng) for _ in range(4)])
            W = np.array([mrt_beamformer(X[0], scn)]
                         + [make_beamformer(n, scn, rng) for _ in range(3)])
            steps = self._check(X, W, scn, cfg)
            assert steps[0] == 1 and max(steps) == cfg.max_inner_iters


class TestRandomPositions:
    def test_feasible(self, make_scenario):
        rng = np.random.default_rng(28)
        for _ in range(100):
            scn = make_scenario(rng)
            n = int(rng.integers(1, 10))
            x = random_positions(n, scn, rng)
            assert x[0] >= 0.0 and x[-1] <= scn.aperture
            if n > 1:
                assert np.min(np.diff(x)) >= scn.min_spacing - 1e-12


class TestPgaConfig:
    @pytest.mark.parametrize("kw", [dict(step_size=0.0),
                                    dict(max_inner_iters=0),
                                    dict(inner_tol=0.0)])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            PgaConfig(**kw)
