"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with ``pytest -s`` to see them all).
"""

import json
import time

import numpy as np
import pytest

from masec import (Scenario, SolveConfig, build_forms, fd_gradient,
                   grid_search, gradient_psi, initial_positions,
                   project_positions, random_positions, sample_beamformers,
                   secrecy_rate, solve, solve_beamformer, solve_fpa)
from masec.cli import main

ALGORITHM_1 = SolveConfig(ascent="alternating")

N4 = Scenario(bob_angle=np.pi / 2, eve_angles=(0.75 * np.pi, 0.25 * np.pi))
N3 = Scenario(bob_angle=np.pi / 2, eve_angles=(0.55 * np.pi, 0.25 * np.pi))
FIG5 = lambda p: Scenario(bob_angle=np.pi / 2,
                          eve_angles=(0.25 * np.pi, 0.425 * np.pi,
                                      0.55 * np.pi),
                          power_budget=p)


def _report(num, name, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail} "
          f"({elapsed:.2f} s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget} s budget"


def _random_scenario(rng, m=None, aperture=10.0):
    m = int(rng.integers(1, 4)) if m is None else m
    return Scenario(bob_angle=float(rng.uniform(0.0, np.pi)),
                    eve_angles=tuple(float(t)
                                     for t in rng.uniform(0.0, np.pi, m)),
                    noise_power=float(rng.uniform(0.3, 2.0)),
                    power_budget=float(rng.uniform(0.2, 5.0)),
                    aperture=aperture)


def _random_w(n, scenario, rng):
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return w * np.sqrt(scenario.power_budget) / np.linalg.norm(w)


def test_criterion_1_lift_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    from masec import real_lift
    worst = 0.0
    for _ in range(500):  # 2 angles per draw -> 1000 (x, w, theta) triples
        scn = _random_scenario(rng, m=1)
        n = int(rng.integers(1, 7))
        x = rng.uniform(0.0, scn.aperture, size=n)
        w = _random_w(n, scn, rng)
        gains = real_lift(x, w, scn).gains()
        for i, theta in enumerate(scn.angles):
            a = np.exp(1j * 2 * np.pi * x * np.cos(theta))
            direct = float(abs(np.sum(np.conj(a) * w)) ** 2)
            worst = max(worst, abs(gains[i] - direct) / max(1.0, direct))
    _report(1, "lift identity", worst <= 1e-9,
            f"max scaled error {worst:.3e} (tol 1e-09, 1000 draws)", t0, 1.0)


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        x = random_positions(4, N4, rng)
        w = _random_w(4, N4, rng)
        analytic = gradient_psi(x, w, N4)
        numeric = fd_gradient(x, w, N4, h=1e-6)
        err = np.linalg.norm(analytic - numeric) / max(
            np.linalg.norm(numeric), 1e-12)
        worst = max(worst, err)
    _report(2, "gradient correctness", worst <= 1e-5,
            f"max relative L2 error {worst:.3e} (tol 1e-05, 100 points)",
            t0, 5.0)


def test_criterion_3_beamformer_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_resid = 0.0
    worst_margin = np.inf
    for k in range(20):
        scn = _random_scenario(rng)
        n = int(rng.integers(2, 8))
        x = random_positions(n, scn, rng)
        forms = build_forms(x, scn)
        sol = solve_beamformer(forms, scn)
        shift = np.eye(n) / scn.power_budget
        wv = sol.beamformer
        resid = np.linalg.norm((forms.A + shift) @ wv
                               - sol.eigenvalue * ((forms.B + shift) @ wv))
        resid /= np.linalg.norm(wv) * np.linalg.norm(forms.A + shift, 2)
        worst_resid = max(worst_resid, float(resid))
        best = sample_beamformers(forms, scn, 10_000, seed=k)
        worst_margin = min(worst_margin,
                           (sol.eigenvalue - best) / max(1.0, best))
    ok = worst_resid <= 1e-8 and worst_margin >= -1e-12
    _report(3, "beamformer optimality", ok,
            f"max stationarity residual {worst_resid:.3e} (tol 1e-08), "
            f"min scaled margin over 10^4 samples {worst_margin:.3e}",
            t0, 10.0)


def test_criterion_4_projection():
    t0 = time.perf_counter()
    scn = Scenario(bob_angle=np.pi / 2, eve_angles=(np.pi / 4,))
    ok = np.array_equal(project_positions([-1.0, 0.1, 0.3], scn),
                        [0.0, 0.5, 1.0])
    ok &= np.array_equal(project_positions([11.0, 12.0], scn), [9.5, 10.0])
    feasible = np.array([0.2, 1.0, 4.5])
    ok &= np.array_equal(project_positions(feasible, scn), feasible)
    rng = np.random.default_rng(4)
    for _ in range(300):
        scn_r = _random_scenario(rng)
        n = int(rng.integers(1, 9))
        raw = rng.uniform(-5.0, scn_r.aperture + 5.0, size=n)
        once = project_positions(raw, scn_r)
        ok &= np.array_equal(once, project_positions(once, scn_r))
        ok &= once[0] >= 0.0 and once[-1] <= scn_r.aperture
        if n > 1:
            # clamp arithmetic is exact up to ulp-level rounding
            ok &= bool(np.min(np.diff(once)) >= scn_r.min_spacing - 1e-12)
    _report(4, "projection", bool(ok),
            "hand-computed clamps exact, idempotent, feasible on 300 draws",
            t0, 1.0)


def test_criterion_5_algorithm1_convergence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n, scn in ((4, N4), (3, N3)):
        # delta=0.01, 1e-8 inner, 1e-6 outer: Algorithm 1's defaults
        trace = solve(n, scn, ALGORITHM_1)
        max_inner = max(len(t) - 1 for t in trace.inner)
        ok &= trace.converged and trace.n_outer <= 4 and max_inner <= 50
        details.append(f"N={n}: outer={trace.n_outer} (need <=4), "
                       f"max inner={max_inner} (need <=50)")
    _report(5, "Algorithm 1 convergence", ok, "; ".join(details), t0, 5.0)


def test_criterion_6_null_steering():
    t0 = time.perf_counter()
    from masec import beam_gain
    tr4 = solve(4, N4, ALGORITHM_1)
    g0 = beam_gain(tr4.final_x, tr4.final_w, N4.bob_angle, N4)
    ratios = [beam_gain(tr4.final_x, tr4.final_w, t, N4) / g0
              for t in N4.eve_angles]
    ok = all(r <= 1e-3 for r in ratios)

    tr3 = solve(3, N3, ALGORITHM_1)
    w_fpa, _ = solve_fpa(3, N3)
    x_fpa = initial_positions(3, N3)
    ma_g1 = beam_gain(tr3.final_x, tr3.final_w, N3.eve_angles[0], N3)
    fpa_g1 = beam_gain(x_fpa, w_fpa, N3.eve_angles[0], N3)
    ma_g0 = beam_gain(tr3.final_x, tr3.final_w, N3.bob_angle, N3)
    fpa_g0 = beam_gain(x_fpa, w_fpa, N3.bob_angle, N3)
    ok &= ma_g1 < fpa_g1 and ma_g0 > fpa_g0
    _report(6, "null steering", bool(ok),
            f"N=4 leak ratios {ratios[0]:.2e}/{ratios[1]:.2e} (tol 1e-03); "
            f"N=3 MA leak {ma_g1:.3f} < FPA {fpa_g1:.3f}, "
            f"MA bob {ma_g0:.3f} > FPA {fpa_g0:.3f}", t0, 5.0)


def test_criterion_7_ma_dominance():
    t0 = time.perf_counter()
    ok = True
    by_power = {}
    for power in (1.0, 10.0):
        scn = FIG5(power)
        rates = {}
        for n in range(2, 9):
            ma = solve(n, scn, ALGORITHM_1).final_rate
            _, fpa = solve_fpa(n, scn)
            ok &= ma >= fpa - 1e-9
            rates[n] = ma
        ok &= rates[8] > rates[4]
        by_power[power] = rates
    rng = np.random.default_rng(7)
    worst_gap = np.inf
    for _ in range(50):
        scn = _random_scenario(rng)
        n = int(rng.integers(2, 6))
        ma = solve(n, scn, ALGORITHM_1).final_rate
        _, fpa = solve_fpa(n, scn)
        worst_gap = min(worst_gap, ma - fpa)
    ok &= worst_gap >= -1e-9
    _report(7, "MA dominance", bool(ok),
            f"Fig-5 grid dominated, rate(8)>rate(4) at P_A=1: "
            f"{by_power[1.0][8]:.3f}>{by_power[1.0][4]:.3f}; min MA-FPA gap "
            f"over 50 random scenarios {worst_gap:.2e} (tol -1e-09)",
            t0, 120.0)


def test_criterion_8_global_quality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    results = []
    ok = True
    for _ in range(5):
        angles = rng.uniform(0.0, np.pi, size=3)
        scn = Scenario(bob_angle=float(angles[0]),
                       eve_angles=tuple(angles[1:]), aperture=2.0)
        _, _, grid_rate = grid_search(scn, 2, 1 / 50)
        alg_rate = solve(2, scn, ALGORITHM_1).final_rate
        ok &= alg_rate >= 0.95 * grid_rate - 1e-12
        results.append(f"{alg_rate:.3f}/{grid_rate:.3f}")
    _report(8, "global quality at N=2", bool(ok),
            "algorithm/grid rates " + ", ".join(results) +
            " (threshold 0.95)", t0, 120.0)


def test_criterion_9_outer_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    cases = [(4, N4), (3, N3), (4, FIG5(1.0)), (6, FIG5(10.0))]
    cases += [(int(rng.integers(2, 6)), _random_scenario(rng))
              for _ in range(8)]
    worst = np.inf
    for n, scn in cases:
        trace = solve(n, scn, ALGORITHM_1)
        rates = [r.rate_after_x for r in trace.outer]
        if len(rates) > 1:
            worst = min(worst, min(b - a for a, b in zip(rates, rates[1:])))
    _report(9, "outer monotonicity", worst >= -1e-9,
            f"min end-of-round rate increment {worst:.2e} over "
            f"{len(cases)} solves (tol -1e-09)", t0, 60.0)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {"n_antennas": 4, "bob_angle_pi": 0.5, "eve_angles": [0.75, 0.25],
           "seed": 42}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["optimize", "--scenario", str(scenario),
                     "--out", str(out), "--seed", "42"]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(10, "determinism", bool(ok),
            f"{len(names)} output files byte-identical across reruns",
            t0, 60.0)
