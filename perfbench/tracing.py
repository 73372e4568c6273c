"""Spans and counters recorded around masec's public functions.

The tracer replaces each function at the place where its caller looks
the name up: ``masec.driver.optimize_positions`` is the name the solve
loop calls, ``masec.core.beam_gain`` the module global that
``rate_difference`` calls.  A span records name, start, end and parent
in memory; the per-step hot functions keep counters only, so memory
stays bounded however long the run.  A span's self time is its duration
minus the time its child spans and its timed counters cover.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, name looked up there, span name).  ``solve`` is looked up by
# the CLI and by the oracle's grid comparison.
SPAN_SITES = [
    ("masec.cli", "solve", "driver.solve"),
    ("masec.oracle", "solve", "oracle.solve"),
    ("masec.driver", "scan_start", "driver.scan_start"),
    ("masec.driver", "optimize_positions", "positions.optimize_positions"),
    ("masec.driver", "optimal_beamformer", "beamformer.optimal_beamformer"),
    ("masec.cli", "optimal_beamformer", "beamformer.optimal_beamformer"),
    ("masec.oracle", "optimal_beamformer", "beamformer.optimal_beamformer"),
    ("masec.driver", "build_forms", "beamformer.build_forms"),
    ("masec.cli", "build_forms", "beamformer.build_forms"),
    ("masec.oracle", "build_forms", "beamformer.build_forms"),
    ("masec.beamformer", "best_secrecy_rates", "beamformer.best_secrecy_rates"),
    ("masec.oracle", "grid_search", "oracle.grid_search"),
    ("masec.oracle", "fd_gradient", "oracle.fd_gradient"),
    ("masec.oracle", "sample_beamformers", "oracle.sample_beamformers"),
    ("masec.cli", "write_outer_trace", "scenario_io.write"),
    ("masec.cli", "write_inner_traces", "scenario_io.write"),
    ("masec.cli", "write_solution", "scenario_io.write"),
    ("masec.cli", "write_sweep", "scenario_io.write"),
]

# (module, name, counter name, timed).  Only ``objective_psi`` is timed;
# the core functions below it run several times per PGA step.
COUNTER_SITES = [
    ("masec.positions", "objective_psi", "objective_psi", True),
    ("masec.oracle", "objective_psi", "objective_psi", True),
    ("masec.positions", "rate_difference", "rate_difference", False),
    ("masec.core", "rate_difference", "rate_difference", False),
    ("masec.core", "beam_gain", "beam_gain", False),
    ("masec.cli", "beam_gain", "beam_gain", False),
    ("masec.oracle", "beam_gain", "beam_gain", False),
    ("masec.core", "steering_vector", "steering_vector", False),
    ("masec.beamformer", "steering_vector", "steering_vector", False),
]

# Per-layer metrics: name -> unit.  ``layer_metrics`` fills every one.
UNITS = {
    "positions.optimize_positions_s": "s", "positions.pga_steps": "count",
    "positions.step_us": "us", "positions.objective_psi_calls": "count",
    "positions.objective_psi_s": "s", "positions.capped_rounds": "count",
    "beamformer.best_secrecy_rates_s": "s", "beamformer.rows_scored": "count",
    "beamformer.row_us": "us", "beamformer.optimal_beamformer_calls": "count",
    "beamformer.optimal_beamformer_s": "s", "beamformer.build_forms_s": "s",
    "driver.scan_start_s": "s", "driver.scan_start_calls": "count",
    "driver.solve_s": "s", "driver.outer_rounds": "count",
    "driver.unconverged_solves": "count",
    "core.rate_difference_calls": "count", "core.beam_gain_calls": "count",
    "core.steering_vector_calls": "count",
    "oracle.grid_search_s": "s", "oracle.grid_rows": "count",
    "oracle.fd_gradient_s": "s", "oracle.sample_beamformers_s": "s",
    "oracle.verify_solve_s": "s",
    "scenario_io.write_s": "s", "scenario_io.bytes_written": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}

NAME, START, END, PARENT, HOT, NOTE = range(6)


def _pga_note(args, kwargs, out):
    """(steps, capped) of one ``optimize_positions`` call."""
    steps = len(out[1]) - 1
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    cap = cfg.max_inner_iters if cfg is not None else None
    return steps, steps == cap


def _solve_note(args, kwargs, out):
    return out.n_outer, out.converged


def _rows_note(args, kwargs, out):
    return args[0].shape[0]


def _bytes_note(args, kwargs, out):
    target = Path(args[0])
    if target.is_dir():  # write_inner_traces(out_dir, trace)
        files = [target / f"trace_inner_{k}.csv"
                 for k in range(1, len(args[1].inner) + 1)]
    else:
        files = [target]
    return sum(f.stat().st_size for f in files)


NOTES = {
    "positions.optimize_positions": _pga_note,
    "driver.solve": _solve_note,
    "oracle.solve": _solve_note,
    "beamformer.best_secrecy_rates": _rows_note,
    "scenario_io.write": _bytes_note,
}


class Tracer:
    """Installs wrappers on the sites above and collects what they record."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, hot_s, note]
        self.counts = Counter()
        self.times = defaultdict(float)
        self.missing = []
        self._stack = []
        self._saved = []

    def install(self):
        for mod_name, attr, name in SPAN_SITES:
            self._patch(mod_name, attr, lambda fn, n=name: self._span(n, fn))
        for mod_name, attr, name, timed in COUNTER_SITES:
            self._patch(mod_name, attr,
                        lambda fn, n=name, t=timed: self._counter(n, fn, t))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _patch(self, mod_name, attr, make):
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{mod_name}.{attr}")
            return
        self._saved.append((module, attr, fn))
        setattr(module, attr, make(fn))

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self._span(name, fn)(*args, **kwargs)

    def _span(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, out)
            return out
        return wrapper

    def _counter(self, name, fn, timed):
        counts, times, spans, stack = self.counts, self.times, self.spans, self._stack

        if not timed:
            def count(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return count

        def timed_count(*args, **kwargs):
            counts[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                times[name] += dt
                if stack:
                    spans[stack[-1]][HOT] += dt
        return timed_count

    def write(self, path):
        """Write the spans as JSON lines, then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, hot, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "hot_s": hot,
                                     "note": note}) + "\n")
            fh.write(json.dumps({"counts": self.counts, "times": self.times,
                                 "missing": self.missing}) + "\n")


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield spans[p][NAME]
        p = spans[p][PARENT]


def layer_metrics(tracer: Tracer, rounds: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metrics per traced round, from the spans and counters."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = Counter()
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        total[rec[NAME]] += dur
        self_s[rec[NAME]] += dur - child[i] - rec[HOT]
        calls[rec[NAME]] += 1

    def notes(name):
        return [rec[NOTE] for rec in spans if rec[NAME] == name]

    pga = notes("positions.optimize_positions")
    solves = notes("driver.solve") + notes("oracle.solve")
    rows = notes("beamformer.best_secrecy_rates")
    grid_rows = sum(rec[NOTE] for i, rec in enumerate(spans)
                    if rec[NAME] == "beamformer.best_secrecy_rates"
                    and "oracle.grid_search" in _ancestors(spans, i))
    steps = sum(s for s, _ in pga)
    n_rows = sum(rows)
    counts, times = tracer.counts, tracer.times
    m = {
        "positions.optimize_positions_s": self_s["positions.optimize_positions"],
        "positions.pga_steps": steps,
        "positions.step_us": 1e6 * total["positions.optimize_positions"] / max(steps, 1),
        "positions.objective_psi_calls": counts["objective_psi"],
        "positions.objective_psi_s": times["objective_psi"],
        "positions.capped_rounds": sum(1 for _, capped in pga if capped),
        "beamformer.best_secrecy_rates_s": total["beamformer.best_secrecy_rates"],
        "beamformer.rows_scored": n_rows,
        "beamformer.row_us": 1e6 * total["beamformer.best_secrecy_rates"] / max(n_rows, 1),
        "beamformer.optimal_beamformer_calls": calls["beamformer.optimal_beamformer"],
        "beamformer.optimal_beamformer_s": total["beamformer.optimal_beamformer"],
        "beamformer.build_forms_s": total["beamformer.build_forms"],
        "driver.scan_start_s": total["driver.scan_start"],
        "driver.scan_start_calls": calls["driver.scan_start"],
        "driver.solve_s": self_s["driver.solve"] + self_s["oracle.solve"],
        "driver.outer_rounds": sum(n for n, _ in solves),
        "driver.unconverged_solves": sum(1 for _, ok in solves if not ok),
        "core.rate_difference_calls": counts["rate_difference"],
        "core.beam_gain_calls": counts["beam_gain"],
        "core.steering_vector_calls": counts["steering_vector"],
        "oracle.grid_search_s": total["oracle.grid_search"],
        "oracle.grid_rows": grid_rows,
        "oracle.fd_gradient_s": total["oracle.fd_gradient"],
        "oracle.sample_beamformers_s": total["oracle.sample_beamformers"],
        "oracle.verify_solve_s": total["oracle.solve"],
        "scenario_io.write_s": total["scenario_io.write"],
        "scenario_io.bytes_written": sum(notes("scenario_io.write")),
    }
    # totals over the traced rounds, per round; a round repeats the same
    # commands, so each count divides exactly
    m = {k: v if k.endswith("_us") else v // rounds if isinstance(v, int) else v / rounds
         for k, v in m.items()}
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m
