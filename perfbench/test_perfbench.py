"""Fast tests of the benchmark's own code: references, tracer and checks.

No timing is asserted; the benchmark's figures come from ``run.py``.
"""

import json
import math

import numpy as np
import pytest

import checks
import reference
import tracing
import workloads


@pytest.fixture
def inst(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"n_antennas": 3, "bob_angle_pi": 0.5,
                                "eve_angles": [0.25, 0.7], "aperture": 2.0,
                                "min_spacing": 0.5, "seed": 0}))
    return path, reference.Instance.from_file(path)


def test_gap_tuples_enumerates_every_bounded_tuple():
    rows = reference.gap_tuples(3, 5)
    assert rows.shape == (math.comb(5 + 3, 3), 3)
    assert len({tuple(r) for r in rows}) == rows.shape[0]
    assert (rows >= 0).all() and (rows.sum(axis=1) <= 5).all()


def test_optimal_rate_dominates_beamformers_and_bound(inst):
    _, scn = inst
    rng = np.random.default_rng(0)
    x = np.array([0.0, 0.7, 1.6])
    best = reference.optimal_rate(x, scn)
    for _ in range(200):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w *= math.sqrt(scn.power) / np.linalg.norm(w)
        assert reference.rate(x, w, scn) <= best + 1e-12
    assert 0.0 < best <= scn.bound(3)


def test_grid_optimum_matches_pointwise_rates(inst):
    _, scn = inst
    step = 0.25
    best = max(reference.optimal_rate(
        np.concatenate([[0.0], np.cumsum(scn.min_spacing + step * k)]), scn)
        for k in reference.gap_tuples(2, 4))
    assert reference.grid_optimum(3, scn, step) == pytest.approx(best, abs=1e-12)


def test_layer_metrics_self_time_and_counts():
    tr = tracing.Tracer()
    tr.spans = [
        ["driver.solve", 0.0, 10.0, -1, 1.0, (3, False)],
        ["driver.scan_start", 1.0, 4.0, 0, 0.0, None],
        ["beamformer.best_secrecy_rates", 1.5, 2.5, 1, 0.0, 40],
        ["positions.optimize_positions", 4.0, 8.0, 0, 0.5, (100, True)],
    ]
    m = tracing.layer_metrics(tr, rounds=1, traced_wall=12.0, untraced_wall=11.0)
    assert set(m) == set(tracing.UNITS)
    assert m["driver.solve_s"] == pytest.approx(10.0 - 3.0 - 4.0 - 1.0)
    assert m["positions.optimize_positions_s"] == pytest.approx(3.5)
    assert m["positions.step_us"] == pytest.approx(4.0 / 100 * 1e6)
    assert m["driver.scan_start_s"] == pytest.approx(3.0)
    assert (m["positions.pga_steps"], m["positions.capped_rounds"]) == (100, 1)
    assert (m["driver.outer_rounds"], m["driver.unconverged_solves"]) == (3, 1)
    assert m["beamformer.rows_scored"] == 40 and m["oracle.grid_rows"] == 0
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def test_tracer_restores_every_site():
    import importlib
    sites = [(m, a) for m, a, _ in tracing.SPAN_SITES] + \
            [(m, a) for m, a, _, _ in tracing.COUNTER_SITES]
    before = {s: getattr(importlib.import_module(s[0]), s[1]) for s in sites}
    tr = tracing.Tracer()
    tr.install()
    try:
        assert not tr.missing
        assert all(getattr(importlib.import_module(m), a) is not before[(m, a)]
                   for m, a in sites)
    finally:
        tr.uninstall()
    assert all(getattr(importlib.import_module(m), a) is before[(m, a)] for m, a in sites)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    workloads.make_inputs("restarts", 3, tmp_path, a)
    workloads.make_inputs("restarts", 3, tmp_path, b)
    workloads.make_inputs("restarts", 4, tmp_path, c)
    names = sorted(p.name for p in a.iterdir())
    assert [(a / n).read_text() for n in names] == [(b / n).read_text() for n in names]
    assert [(a / n).read_text() for n in names] != [(c / n).read_text() for n in names]
    for n in names:
        doc = json.loads((a / n).read_text())
        assert all(abs(t - doc["bob_angle_pi"]) >= 0.15 for t in doc["eve_angles"])


def test_solution_check_accepts_the_optimum_and_rejects_a_wrong_rate(inst):
    from scipy.linalg import eigh
    path, scn = inst
    x = scn.min_spacing * np.arange(3)  # the FPA layout
    w = eigh(*reference._pencil(x, scn))[1][:, -1]
    w *= math.sqrt(scn.power) / np.linalg.norm(w)
    doc = {"final_x": x.tolist(), "final_w": [[v.real, v.imag] for v in w],
           "final_rate": reference.rate(x, w, scn)}
    cmd = workloads.Command("n3", ["optimize"], path)

    def errors(solution):
        return checks.check([cmd], [[workloads.Result(1, 0, 0.0, {"solution": solution})]])
    assert errors(doc) == []
    assert any("!= rate at (x, w)" in e
               for e in errors(dict(doc, final_rate=doc["final_rate"] + 0.01)))
