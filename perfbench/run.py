"""Benchmark of the masec CLI: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload {sweep,restarts,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; masec is imported from its
``src/``.  The run repeats whole rounds of the workload's CLI commands,
called in-process through ``masec.cli.main``, for about ``--seconds``,
checks every output against independent numpy/scipy values, and prints
one JSON object as its last line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(README.md); with ``--trace 1`` untraced and traced rounds alternate and
the metrics are the per-layer ones, per traced round.  Wall times are
scaled to a reference host speed (``hostspeed``).  Outputs, the run
record and the spans go to ``.perfbench_out/`` under the checkout.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import UNITS, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep", "restarts", "verify")
# Cold set-ups (fresh interpreter each) whose median is ``setup_s``; they
# run between rounds, spread over the run like the rounds themselves.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", type=Path,
                   help="set up once in DIR and exit; used to time cold set-ups")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_masec():
    """Import masec from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import masec
    if not Path(masec.__file__).resolve().is_relative_to(src):
        raise ImportError(f"masec found at {masec.__file__}, not under {src}")
    return masec


def _call(cli, argv):
    """Run one CLI command; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli(argv)
    return time.perf_counter() - t0, rc, out.getvalue()


def setup(workload, seed, work):
    """Inputs written and loaded, plus one warm-up call on a tiny instance.

    The warm-up loads LAPACK lazily here rather than in the first timed
    round; its input differs from every workload input.
    """
    from masec.cli import main as cli
    from masec.scenario_io import load_run_spec

    work.mkdir(parents=True, exist_ok=True)
    cmds = workloads.make_inputs(workload, seed, ROOT, work)
    for cmd in cmds:
        load_run_spec(cmd.scenario)
    _, rc, _ = _call(cli, ["verify", "--scenario", str(workloads.warmup_scenario(work))])
    if rc != 0:
        raise RuntimeError(f"warm-up verify exited with {rc}")
    return cmds


def _cold_setup(args, work):
    """Wall time of one set-up in a fresh interpreter, raw and host-scaled.

    The child prints its ``perf_counter`` when its set-up ends; that clock
    is system-wide, and reading it there keeps the parent's polling for
    the child's exit out of the figure.
    """
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "1", "--setup-only", str(work)]
    before = hostspeed.kernel_s()
    t0 = time.perf_counter()
    child = subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                           stdout=subprocess.PIPE, text=True)
    raw = float(child.stdout.split()[-1]) - t0
    return raw, hostspeed.scaled(raw, before, hostspeed.kernel_s())


def _run_round(cmds, cli, kernels):
    """One round: (raw wall, host-scaled wall, results).

    The kernel is timed after every command; ``kernels[-1]`` on entry is
    the time taken before the first.
    """
    wall = scaled = 0.0
    results = []
    for cmd in cmds:
        dt, rc, stdout = _call(cli, cmd.argv)
        kernels.append(hostspeed.kernel_s())
        wall += dt
        scaled += hostspeed.scaled(dt, kernels[-2], kernels[-1])
        results.append(workloads.collect(cmd, rc, stdout))
    return wall, scaled, results


def _environment():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None):
    args = _parse_args(argv)
    try:
        _import_masec()
    except ImportError as exc:
        print(f"error: cannot import masec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from masec.cli import main as cli

    if args.setup_only:
        setup(args.workload, args.seed, args.setup_only)
        print(time.perf_counter())
        return 0

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    cmds = setup(args.workload, args.seed, work)

    # untraced rounds only, or untraced and traced rounds in turn
    tracer = Tracer() if args.trace else None
    rounds, per_round, setups = [], [], []  # rounds: (raw wall, scaled wall, traced)
    kernels = [hostspeed.kernel_s()]
    setup_due = [] if args.trace else [k * args.seconds / SETUP_REPEATS
                                       for k in range(SETUP_REPEATS)]
    start = time.perf_counter()
    while True:
        while setup_due and time.perf_counter() - start >= setup_due[0]:
            setup_due.pop(0)
            setups.append(_cold_setup(args, work / f"setup{len(setups)}"))
        use_trace = tracer is not None and len(rounds) % 2 == 1
        if use_trace:
            tracer.install()
            try:
                wall, scaled, results = _run_round(
                    cmds, lambda a: tracer.span("cli." + a[0], cli, a), kernels)
            finally:
                tracer.uninstall()
        else:
            wall, scaled, results = _run_round(cmds, cli, kernels)
        rounds.append((wall, scaled, use_trace))
        per_round.append(results)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(w for w, _, _ in rounds) > args.seconds \
                and (tracer is None or len(rounds) >= 2):
            break
    for _ in setup_due:
        setups.append(_cold_setup(args, work / f"setup{len(setups)}"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [s for _, s, t in rounds if not t]
    traced = [s for _, s, t in rounds if t]

    import checks
    errors = checks.check(cmds, per_round)
    rate_sums = [sum(r.rate_sum for r in results) for results in per_round]
    if len(set(rate_sums)) != 1:
        errors.append(f"rate sum differs between rounds: {rate_sums}")
    attempted = sum(r.ops for results in per_round for r in results)
    failed = sum(r.failed for results in per_round for r in results)
    for name in checks.unexpected_failures(cmds, per_round):
        print(f"warning: operation failed: {name}", file=sys.stderr)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(s for _, s in setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "rate_sum_bps": (rate_sums[0], "bps/Hz"),
        }
    else:
        tracer.write(work / "spans.jsonl")
        if tracer.missing:
            print(f"warning: not traced, absent: {tracer.missing}", file=sys.stderr)
        values = layer_metrics(tracer, len(traced), statistics.median(traced),
                               statistics.median(walls))
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment(),
              "setup_s": setups, "rounds_s": rounds, "kernel_s": kernels,
              "reference_s": hostspeed.REFERENCE_S, "errors": errors,
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    (work / "run.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"environment": record["environment"], "rounds": len(rounds),
                      "raw_wall_s": statistics.median(w for w, _, t in rounds if not t),
                      "kernel_s": statistics.median(kernels)}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
