import csv
import dataclasses
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import masec.cli
from masec import (ScenarioFileError, SolveConfig, beam_gain, build_forms,
                   initial_positions, load_run_spec, load_solution,
                   mrt_beamformer, optimal_beamformer, run_verification,
                   secrecy_rate, solve)
from masec.cli import main
from masec.driver import solve_fpa, solve_powers

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

PAPER_N4 = {
    "n_antennas": 4,
    "bob_angle_pi": 0.5,
    "eve_angles": [0.75, 0.25],
    "noise_power": 1.0,
    "power_budget": 1.0,
    "aperture": 10.0,
    "min_spacing": 0.5,
    "step_size": 0.01,
    "seed": 0,
}


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="session")
def n4_run(tmp_path_factory):
    """One optimize run on the N=4 reference file, shared across tests."""
    root = tmp_path_factory.mktemp("n4")
    scenario = _write(root / "scenario.json", PAPER_N4)
    out = root / "out"
    assert main(["optimize", "--scenario", scenario, "--out", str(out)]) == 0
    return scenario, out


class TestOptimize:
    def test_writes_expected_files(self, n4_run):
        _, out = n4_run
        assert (out / "trace_outer.csv").exists()
        assert (out / "solution.json").exists()
        header, rows = _read_csv(out / "trace_outer.csv")
        assert header == ["iter", "rate_after_w", "rate_after_x"]
        assert [r[0] for r in rows] == [str(k + 1) for k in range(len(rows))]
        for k in range(1, len(rows) + 1):
            assert (out / f"trace_inner_{k}.csv").exists()
        inner_header, inner_rows = _read_csv(out / "trace_inner_1.csv")
        assert inner_header == ["iter", "psi"]
        assert inner_rows[0][0] == "0"

    def test_solution_roundtrip(self, n4_run):
        scenario, out = n4_run
        spec = load_run_spec(scenario)
        x, w, rate = load_solution(out / "solution.json")
        assert secrecy_rate(x, w, spec.scenario) == rate

    def test_byte_identical_reruns(self, n4_run, tmp_path):
        scenario, out = n4_run
        rerun = tmp_path / "rerun"
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(rerun)]) == 0
        ours = sorted(p.name for p in rerun.iterdir())
        theirs = sorted(p.name for p in out.iterdir())
        assert ours == theirs
        for name in ours:
            assert (rerun / name).read_bytes() == (out / name).read_bytes()

    def test_restarts_never_hurt(self, tmp_path):
        scenario = _write(tmp_path / "s.json", dict(PAPER_N4, n_antennas=3))
        base, multi = tmp_path / "base", tmp_path / "multi"
        assert main(["optimize", "--scenario", scenario, "--out", str(base)]) == 0
        assert main(["optimize", "--scenario", scenario, "--out", str(multi),
                     "--restarts", "3"]) == 0
        _, _, r0 = load_solution(base / "solution.json")
        x3, w3, r3 = load_solution(multi / "solution.json")
        assert r3 >= r0 - 1e-12
        # the chains' rates come from one stacked call; the reported one
        # is still the one-layout rate at the reported solution
        assert secrecy_rate(x3, w3, load_run_spec(scenario).scenario) == r3

    def test_infeasible_scenario_exits_2(self, tmp_path):
        doc = dict(PAPER_N4, n_antennas=30)
        scenario = _write(tmp_path / "bad.json", doc)
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["optimize", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_negative_restarts_exit_2(self, tmp_path, capsys):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        for command in ("optimize", "sweep-n"):
            assert main([command, "--scenario", scenario,
                         "--out", str(tmp_path / "o"), "--restarts", "-5"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--restarts" in err
        assert not (tmp_path / "o").exists()

    def test_restarts_rejected_where_unused(self, tmp_path, capsys):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        for command in (["verify"], ["beampattern", "--fpa"]):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--scenario", scenario, "--out",
                                str(tmp_path / "o"), "--restarts", "3"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --restarts 3" in err
        assert not (tmp_path / "o").exists()

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        def rebuilt():
            raise AssertionError("the parser was rebuilt")
        monkeypatch.setattr(masec.cli, "_build_parser", rebuilt)
        scenario = str(SCENARIOS / "toy_n2.json")
        assert main(["beampattern", "--scenario", scenario, "--fpa",
                     "--out", str(tmp_path), "--angles", "5"]) == 0
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(tmp_path)]) == 0

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        for command in ("optimize", "sweep-n", "verify"):
            assert main([command, "--scenario", scenario,
                         "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "--seed" in err
        assert not (tmp_path / "o").exists()

    def test_eigensolver_failure_exits_2(self, tmp_path, capsys):
        # P_A = 1e16 leaves the leakage form's I/P_A shift below rounding,
        # so the pencil's denominator is not positive definite
        doc = {"n_antennas": 3, "bob_angle_pi": 0.5, "eve_angles": [0.25],
               "power_budget": 1e16, "aperture": 2.0}
        scenario = _write(tmp_path / "s.json", doc)
        for command in (["optimize"], ["verify"], ["beampattern", "--fpa"]):
            assert main(command + ["--scenario", scenario,
                                   "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("lengths, message", [
        # lambda^2 overflowed in the value ascent's first step: a traceback
        ({"wavelength": 1e200}, "wavelength must lie in"),
        # lambda^2 underflowed to 0, so the first step was 0: "converged"
        # at 1.999973902 bps/Hz, where every other unit gives 2.000000000
        ({"wavelength": 1e-200}, "wavelength must lie in"),
        # 2 pi / lambda overflowed in Scenario: a RuntimeWarning
        ({"wavelength": 1e-310}, "wavelength must lie in"),
        # the scan's step count overflowed: an OverflowError
        ({"wavelength": 1e-100, "aperture": 1e300}, "aperture must be at most"),
    ])
    def test_lengths_the_arithmetic_cannot_carry_exit_2(self, lengths,
                                                        message, tmp_path,
                                                        capsys):
        doc = dict({"n_antennas": 3, "bob_angle_pi": 0.5,
                    "eve_angles": [0.25], "seed": 0}, **lengths)
        scenario = _write(tmp_path / "s.json", doc)
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("powers, message", [
        # rho^2 |Gamma_0i|^2 overflowed in the rate bound at N = 2 and 3:
        # a traceback; N = 1 ran, and the same rho is refused at every N
        ({"n_antennas": 1, "power_budget": 1e160},
         "power_budget / noise_power must be in"),
        ({"n_antennas": 2, "power_budget": 1e160},
         "power_budget / noise_power must be in"),
        ({"power_budget": 1e160}, "power_budget / noise_power must be in"),
        # I / P_A overflowed in the pencil
        ({"power_budget": 1e-310}, "power_budget must be in"),
        # 1 / sigma^2 overflowed in the allowance and in Psi
        ({"noise_power": 1e-310}, "noise_power must be in"),
        # rho N (M + 1) overflowed in the allowance, and a gain in verify
        ({"n_antennas": 5, "power_budget": 1.7e308}, "power_budget must be in"),
        ({"n_antennas": 8, "power_budget": 1.7e308}, "power_budget must be in"),
        # rho underflowed to 0, then to a subnormal: the gradient check
        # divided 0 by 0 (FAIL with nan), then read inf
        ({"eve_angles": [0.25], "power_budget": 1e-200, "noise_power": 1e200},
         "power_budget / noise_power must be in"),
        ({"eve_angles": [0.25], "power_budget": 1e-160, "noise_power": 1e160},
         "power_budget / noise_power must be in"),
    ])
    def test_powers_the_arithmetic_cannot_carry_exit_2(self, powers, message,
                                                       tmp_path, capsys):
        doc = dict({"n_antennas": 3, "bob_angle_pi": 0.5,
                    "eve_angles": [0.25, 0.425, 0.55]}, **powers)
        scenario = _write(tmp_path / "s.json", doc)
        for command in (["optimize", "--out", str(tmp_path / "o")],
                        ["verify"]):
            assert main(command + ["--scenario", scenario]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    def test_shorter_run_removes_stale_inner_traces(self, tmp_path):
        # Algorithm 1 takes two rounds on this file, the value ascent one
        long_run = _write(tmp_path / "a.json",
                          dict(PAPER_N4, ascent="alternating"))
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", long_run,
                     "--out", str(out)]) == 0
        assert len(list(out.glob("trace_inner_*.csv"))) >= 2
        doc = dict(PAPER_N4, tolerances={"max_outer_iters": 1})
        assert main(["optimize", "--scenario", _write(tmp_path / "s.json", doc),
                     "--out", str(out)]) == 0
        assert [p.name for p in out.glob("trace_inner_*.csv")] == \
            ["trace_inner_1.csv"]

    def test_status_line_names_the_stop_reason(self, tmp_path, capsys):
        # toy_n2 (N = 2, M = 1) has a null; paper_n3 at one round is capped
        capped = _write(tmp_path / "s.json",
                        dict(json.loads((SCENARIOS / "paper_n3.json")
                                        .read_text()),
                             tolerances={"max_outer_iters": 1}))
        for scenario, status in (
                (str(SCENARIOS / "toy_n2.json"),
                 "after 1 outer iterations (converged, stopped by bound)"),
                (str(SCENARIOS / "paper_n3.json"),
                 "(converged, stopped by tol)"),
                (capped, "after 1 outer iterations (NOT converged, stopped "
                         "by cap)")):
            assert main(["optimize", "--scenario", scenario,
                         "--out", str(tmp_path / "o")]) == 0
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and status in out

    def test_library_default_is_the_cli_run(self, tmp_path):
        scenario = str(SCENARIOS / "paper_n4.json")
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", scenario, "--out", str(out)]) == 0
        spec = load_run_spec(scenario)
        trace = solve(spec.n_antennas, spec.scenario)
        x, w, rate = load_solution(out / "solution.json")
        assert np.array_equal(trace.final_x, x)
        assert np.array_equal(trace.final_w, w)
        assert trace.final_rate == rate


class TestScenarioFiles:
    def test_unknown_key_rejected(self, tmp_path):
        scenario = _write(tmp_path / "s.json", dict(PAPER_N4, bogus=1))
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(tmp_path / "o")]) == 2

    def test_both_angle_forms_rejected(self, tmp_path):
        doc = dict(PAPER_N4)
        doc["bob_angle_rad"] = 1.5707963267948966
        scenario = _write(tmp_path / "s.json", doc)
        assert main(["optimize", "--scenario", scenario,
                     "--out", str(tmp_path / "o")]) == 2

    def test_pi_fraction_equals_radians(self, tmp_path):
        pi_form = load_run_spec(_write(tmp_path / "a.json", PAPER_N4))
        doc = dict(PAPER_N4)
        del doc["bob_angle_pi"]
        doc["bob_angle_rad"] = 0.5 * math.pi
        doc["eve_angles"] = [0.75 * math.pi, 0.25 * math.pi]
        rad_form = load_run_spec(_write(tmp_path / "b.json", doc))
        assert pi_form.scenario == rad_form.scenario

    def test_ascent_key(self, tmp_path, capsys):
        assert load_run_spec(_write(tmp_path / "a.json", PAPER_N4)) \
            .config.ascent == "value"
        doc = dict(PAPER_N4, ascent="alternating")
        assert load_run_spec(_write(tmp_path / "b.json", doc)) \
            .config.ascent == "alternating"
        for bad in ("Value", "", 1, None, ["value"]):
            scenario = _write(tmp_path / "c.json", dict(PAPER_N4, ascent=bad))
            for command in (["optimize"], ["sweep-n"], ["verify"]):
                assert main(command + ["--scenario", scenario,
                                       "--out", str(tmp_path / "o")]) == 2
                err = capsys.readouterr().err
                assert err.count("\n") == 1
                assert err.startswith("error: ascent must be")
        assert not (tmp_path / "o").exists()

    def test_tolerances_block(self, tmp_path):
        doc = dict(PAPER_N4, tolerances={"outer_tol": 1e-3,
                                         "max_inner_iters": 40})
        spec = load_run_spec(_write(tmp_path / "s.json", doc))
        assert spec.config.outer_tol == 1e-3
        assert spec.config.max_inner_iters == 40
        # each solver setting reaches the SolveConfig field of its name
        settings = {"step_size": 0.02, "inner_tol": 1e-9,
                    "max_inner_iters": 7, "outer_tol": 1e-4,
                    "max_outer_iters": 3}
        for key, v in settings.items():
            doc = dict(PAPER_N4)
            if key == "step_size":
                doc[key] = v
            else:
                doc["tolerances"] = {key: v}
            config = load_run_spec(_write(tmp_path / "s.json", doc)).config
            assert config == SolveConfig(**{key: v})
        # a file that sets none of them gets the SolveConfig defaults
        doc = {k: v for k, v in PAPER_N4.items() if k != "step_size"}
        assert load_run_spec(_write(tmp_path / "s.json", doc)).config \
            == SolveConfig()
        # omitted lengths scale with the wavelength
        doc = {k: v for k, v in PAPER_N4.items()
               if k not in ("aperture", "min_spacing")}
        scenario = load_run_spec(_write(tmp_path / "s.json",
                                        dict(doc, wavelength=2))).scenario
        assert (scenario.aperture, scenario.min_spacing) == (20.0, 1.0)
        for bad in ({"weird": 1}, {"max_inner_iters": 2.7},
                    {"max_outer_iters": True}, {"inner_tol": True},
                    {"outer_tol": "1e-3"}):
            doc = dict(PAPER_N4, tolerances=bad)
            assert main(["optimize", "--scenario",
                         _write(tmp_path / "t.json", doc),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key", ["max_inner_iters", "max_outer_iters"])
    def test_iteration_caps_must_be_positive(self, key, tmp_path):
        # the file format states the rule SolveConfig enforces: 0 used to
        # pass the "integer >= 0" check and then fail as "must be positive"
        for bad in (-1, 0, 1.5):
            doc = dict(PAPER_N4, tolerances={key: bad})
            with pytest.raises(ScenarioFileError,
                               match=f"'{key}' must be an integer >= 1"):
                load_run_spec(_write(tmp_path / "s.json", doc))
        doc = dict(PAPER_N4, tolerances={key: 1})
        config = load_run_spec(_write(tmp_path / "s.json", doc)).config
        assert getattr(config, key) == 1


class TestBeampattern:
    def test_mrt_solution_peaks_at_bob(self, tmp_path):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        spec = load_run_spec(scenario)
        x = [0.0, 0.5, 1.0, 1.5]
        w = mrt_beamformer(x, spec.scenario)
        sol = {"final_x": x,
               "final_w": [[c.real, c.imag] for c in w],
               "final_rate": 0.0}
        sol_path = _write(tmp_path / "mrt.json", sol)
        out = tmp_path / "out"
        assert main(["beampattern", "--scenario", scenario, "--out", str(out),
                     "--solution", sol_path, "--angles", "721"]) == 0
        header, rows = _read_csv(out / "beampattern.csv")
        assert header == ["theta_rad", "gain"]
        assert len(rows) == 721
        gains = np.array([float(r[1]) for r in rows])
        thetas = np.array([float(r[0]) for r in rows])
        peak = int(np.argmax(gains))
        assert thetas[peak] == pytest.approx(math.pi / 2, abs=1e-9)
        assert gains[peak] == pytest.approx(4.0, rel=1e-9)

    def test_optimized_pattern_nulls_eves(self, n4_run, tmp_path):
        scenario, run_out = n4_run
        out = tmp_path / "bp"
        assert main(["beampattern", "--scenario", scenario, "--out", str(out),
                     "--solution", str(run_out / "solution.json")]) == 0
        _, rows = _read_csv(out / "beampattern.csv")
        thetas = np.array([float(r[0]) for r in rows])
        gains = np.array([float(r[1]) for r in rows])
        bob = gains[np.argmin(np.abs(thetas - math.pi / 2))]
        for eve in (0.75 * math.pi, 0.25 * math.pi):
            leak = gains[np.argmin(np.abs(thetas - eve))]
            assert leak <= 1e-3 * bob

    def test_csv_gains_are_the_per_angle_gains(self, n4_run, tmp_path,
                                               monkeypatch):
        scenario, run_out = n4_run
        scn = load_run_spec(scenario).scenario
        x_fpa = initial_positions(4, scn)
        x_sol, w_sol, _ = load_solution(run_out / "solution.json")
        written = []
        write = masec.cli.write_beampattern

        def spy(path, thetas, gains):
            written.append(np.array(gains))
            write(path, thetas, gains)

        monkeypatch.setattr(masec.cli, "write_beampattern", spy)
        thetas = np.linspace(0.0, np.pi, 721)
        for flag, x, w in (
                (["--fpa"], x_fpa,
                 optimal_beamformer(build_forms(x_fpa, scn), scn)),
                (["--solution", str(run_out / "solution.json")], x_sol, w_sol)):
            out = tmp_path / flag[0].strip("-")
            assert main(["beampattern", "--scenario", scenario,
                         "--out", str(out)] + flag) == 0
            expected = [beam_gain(x, w, t, scn) for t in thetas]
            assert np.array_equal(written.pop(), expected)
            _, rows = _read_csv(out / "beampattern.csv")
            assert [r[1] for r in rows] == [format(g, ".12g")
                                            for g in expected]

    def test_fpa_flag(self, tmp_path):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        out = tmp_path / "out"
        assert main(["beampattern", "--scenario", scenario, "--out", str(out),
                     "--fpa"]) == 0
        _, rows = _read_csv(out / "beampattern.csv")
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(math.pi, rel=1e-12)

    def test_missing_solution_exits_2(self, tmp_path):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        assert main(["beampattern", "--scenario", scenario,
                     "--out", str(tmp_path / "empty")]) == 2

    def test_malformed_solution_rejected(self, n4_run, tmp_path, capsys):
        scenario, run_out = n4_run
        good = json.loads((run_out / "solution.json").read_text())
        for key, value in (("final_w", None), ("final_x", "0 0.5"),
                           ("final_rate", [1.0])):
            doc = dict(good)
            if value is None:
                del doc[key]
            else:
                doc[key] = value
            path = _write(tmp_path / "bad.json", doc)
            with pytest.raises(ScenarioFileError, match=key):
                load_solution(path)
            assert main(["beampattern", "--scenario", scenario,
                         "--out", str(tmp_path / "o"),
                         "--solution", path]) == 2
            assert capsys.readouterr().err.count("\n") == 1

    def test_infeasible_solution_exits_2(self, n4_run, tmp_path, capsys):
        scenario, run_out = n4_run
        good = json.loads((run_out / "solution.json").read_text())
        # the last one is feasible for three antennas, not for the file's four
        for bad in ({"final_x": [-3.0, 0.0, 0.1, 20.0]},
                    {"final_w": [[1.0, 0.0]] * 4},
                    {"final_x": [0.0, 0.5, 1.0],
                     "final_w": [[1.0 / math.sqrt(3.0), 0.0]] * 3},
                    {"final_x": [0.0, 0.5, math.inf, math.inf]}):
            path = _write(tmp_path / "bad.json", dict(good, **bad))
            assert main(["beampattern", "--scenario", scenario,
                         "--out", str(tmp_path / "o"),
                         "--solution", path]) == 2
            assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "o").exists()


class TestSweep:
    def test_single_cell_matches_optimize(self, n4_run, tmp_path):
        scenario, run_out = n4_run
        out = tmp_path / "sweep"
        assert main(["sweep-n", "--scenario", scenario, "--out", str(out),
                     "--n-min", "4", "--n-max", "4", "--powers", "1"]) == 0
        header, rows = _read_csv(out / "sweep_n.csv")
        assert header == ["N", "P_A", "rate_ma", "rate_fpa", "error",
                          "converged", "n_outer"]
        assert len(rows) == 1
        _, _, rate = load_solution(run_out / "solution.json")
        assert float(rows[0][2]) == pytest.approx(rate, rel=1e-11)
        assert rows[0][4] == ""
        _, outer = _read_csv(run_out / "trace_outer.csv")
        assert rows[0][5:] == ["1", str(len(outer))]

    def test_capped_cell_not_converged(self, tmp_path):
        doc = dict(PAPER_N4, tolerances={"max_outer_iters": 2})
        out = tmp_path / "sweep"
        assert main(["sweep-n", "--scenario", _write(tmp_path / "s.json", doc),
                     "--out", str(out), "--n-min", "3", "--n-max", "4",
                     "--powers", "1"]) == 0
        _, rows = _read_csv(out / "sweep_n.csv")
        # N=3 is still climbing after two rounds; N=4 starts at the bound
        assert [r[5:] for r in rows] == [["0", "2"], ["1", "1"]]

    def test_ma_dominates_fpa_rows(self, tmp_path):
        scenario = _write(tmp_path / "s.json",
                          dict(PAPER_N4, ascent="alternating"))
        out = tmp_path / "sweep"
        assert main(["sweep-n", "--scenario", scenario, "--out", str(out),
                     "--n-min", "2", "--n-max", "5", "--powers", "1,2"]) == 0
        _, rows = _read_csv(out / "sweep_n.csv")
        assert len(rows) == 8
        for row in rows:
            assert float(row[2]) >= float(row[3]) - 1e-9
        for power in ("1", "2"):
            rates = [float(r[2]) for r in rows if r[1] == power]
            assert len(rates) == 4 and rates == sorted(rates)
        # the start scan decides which local optimum each cell reaches,
        # so its scores must not move in the last digit
        assert {f"{r[0]},{r[1]}": f"{r[2]},{r[3]}" for r in rows} == {
            "2,1": "1.58496250035,0.746131505128",
            "2,2": "2.3219261759,0.956123297383",
            "3,1": "1.99999871781,1.99233362595",
            "3,2": "2.80735194955,2.79786637813",
            "4,1": "2.32192809487,2.19328980971",
            "4,2": "3.16992500143,3.01602495228",
            "5,1": "2.58495783417,2.52561832987",
            "5,2": "3.45911184204,3.38865323193",
        }

    def test_infeasible_cells_recorded_and_run_continues(self, tmp_path):
        # aperture 2.0 holds at most 5 antennas at spacing 0.5
        doc = dict(PAPER_N4, aperture=2.0)
        scenario = _write(tmp_path / "s.json", doc)
        out = tmp_path / "sweep"
        assert main(["sweep-n", "--scenario", scenario, "--out", str(out),
                     "--n-min", "4", "--n-max", "6", "--powers", "1"]) == 0
        _, rows = _read_csv(out / "sweep_n.csv")
        by_n = {int(r[0]): r for r in rows}
        assert by_n[4][4] == "" and by_n[5][4] == ""
        assert "aperture" in by_n[6][4]
        assert by_n[6][2] == "" and by_n[6][3] == ""
        assert by_n[6][5:] == ["", ""]

    def test_failing_power_cell_keeps_the_other_cells(self, tmp_path):
        # the pencil fails at P_A = 1e16; the P_A = 1 cells of each N are
        # still solved, as in a sweep of that power alone
        doc = {"n_antennas": 3, "bob_angle_pi": 0.5, "eve_angles": [0.25],
               "aperture": 2.0}
        scenario = _write(tmp_path / "s.json", doc)
        for powers in ("1,1e16", "1"):
            assert main(["sweep-n", "--scenario", scenario,
                         "--out", str(tmp_path / powers), "--n-min", "2",
                         "--n-max", "3", "--powers", powers]) == 0
        _, rows = _read_csv(tmp_path / "1,1e16" / "sweep_n.csv")
        _, alone = _read_csv(tmp_path / "1" / "sweep_n.csv")
        assert [r[:2] for r in rows] == [["2", "1"], ["2", "1e+16"],
                                         ["3", "1"], ["3", "1e+16"]]
        assert rows[0::2] == alone
        assert all(r[2] and r[4] == "" for r in alone)
        for row in rows[1::2]:
            assert row[2:4] == ["", ""] and row[5:] == ["", ""]
            assert row[4].startswith("eigen decomposition failed")

    @pytest.mark.parametrize("powers", [(1.0, 10.0), (1.0, 10.0, 100.0),
                                        (1.0,)], ids=["1,10", "1,10,100", "1"])
    def test_stacked_fpa_rows_equal_solve_fpa(self, powers, monkeypatch):
        # the FPA baselines of one N are one stacked solve, and each row
        # keeps the bits of solve_fpa on its cell alone
        spec = load_run_spec(SCENARIOS / "sweep_m3.json")
        cells = [(j, dataclasses.replace(spec.scenario, power_budget=p))
                 for j, p in enumerate(powers)]
        trace = SimpleNamespace(final_rate=0.0, converged=True, n_outer=1)
        monkeypatch.setattr(masec.cli, "solve_powers",
                            lambda n, scn, budgets, cfg, starts:
                            [trace] * len(budgets))
        for n in range(2, 9):
            rows = masec.cli._sweep_rows(spec, n, cells, 0)
            assert [row[3].hex() for row in rows] == [
                solve_fpa(n, cell)[1].hex() for _, cell in cells]

    def test_bad_power_rejected_before_any_solve(self, tmp_path, capsys,
                                                 monkeypatch):
        calls = []
        monkeypatch.setattr(masec.cli, "solve_powers",
                            lambda *a, **k: calls.append(a)
                            or solve_powers(*a, **k))
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        # past the range of powers a rate bound overflowed (1e300), and
        # so did the pencil's shift I / P_A (1e-310): a traceback
        for powers in ("1,nan", "1,inf", "1,1e300", "1e-310,1"):
            assert main(["sweep-n", "--scenario", scenario,
                         "--out", str(tmp_path / "o"), "--n-min", "2",
                         "--n-max", "2", "--powers", powers]) == 2
            assert capsys.readouterr().err.count("\n") == 1
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_n_min_guard(self, tmp_path):
        scenario = _write(tmp_path / "s.json", PAPER_N4)
        assert main(["sweep-n", "--scenario", scenario,
                     "--out", str(tmp_path / "o"), "--n-min", "1"]) == 2


class TestVerify:
    def test_paper_scenario_passes(self, n4_run, capsys):
        scenario, _ = n4_run
        assert main(["verify", "--scenario", scenario]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("PASS") for line in lines)
        assert not any(line.startswith("FAIL") for line in lines)

    def test_single_antenna_passes(self, tmp_path, capsys):
        doc = {"n_antennas": 1, "bob_angle_pi": 0.5, "eve_angles": [0.25]}
        scenario = _write(tmp_path / "s.json", doc)
        assert main(["verify", "--scenario", scenario]) == 0
        assert "PASS  fd-gradient" in capsys.readouterr().out

    @pytest.mark.parametrize("name, changes", [
        ("toy_n2", {"power_budget": 1e-200}),
        ("paper_n3", {"power_budget": 1e-200}),
        ("paper_n3", {"noise_power": 1e200}),
    ])
    def test_passes_far_below_unit_snr(self, name, changes, tmp_path,
                                       capsys):
        # log2(1 + G / sigma^2) rounded to 0 in the noise floor, and the
        # norms squared gradient entries of 1e-200 to 0: FAIL with nan
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        scenario = _write(tmp_path / "s.json", dict(doc, **changes))
        assert main(["verify", "--scenario", scenario]) == 0
        out = capsys.readouterr().out
        assert "PASS  fd-gradient" in out and "FAIL" not in out

    def test_grid_comparison_uses_the_file_solver_settings(self, tmp_path,
                                                           capsys):
        doc = {"n_antennas": 3, "bob_angle_pi": 0.5, "eve_angles": [0.55, 0.25],
               "aperture": 4.0, "min_spacing": 0.5, "step_size": 0.2,
               "tolerances": {"max_outer_iters": 1, "max_inner_iters": 3}}
        scenario = _write(tmp_path / "s.json", doc)
        out = tmp_path / "out"
        assert main(["optimize", "--scenario", scenario, "--out", str(out)]) == 0
        rate = json.loads((out / "solution.json").read_text())["final_rate"]
        capsys.readouterr()
        assert main(["verify", "--scenario", scenario]) == 0
        m = re.search(r"algorithm (\S+) vs grid", capsys.readouterr().out)
        assert m.group(1) == f"{rate:.6f}"

    def test_library_default_is_the_cli_check(self, capsys):
        scenario = str(SCENARIOS / "toy_n2.json")
        assert main(["verify", "--scenario", scenario]) == 0
        lines = capsys.readouterr().out.splitlines()
        spec = load_run_spec(scenario)
        report = run_verification(spec.scenario, spec.n_antennas,
                                  seed=spec.seed)
        assert lines[:-1] == [f"{c.status.upper():4s}  {c.name:24s} {c.detail}"
                              for c in report.checks]

    def test_small_scenario_reports_grid(self, tmp_path, capsys):
        doc = dict(PAPER_N4, n_antennas=2, eve_angles=[0.25], aperture=2.0)
        scenario = _write(tmp_path / "s.json", doc)
        assert main(["verify", "--scenario", scenario]) == 0
        out = capsys.readouterr().out
        assert "grid-comparison" in out
        assert "SKIP  grid-comparison" not in out
