"""kanhydro benchmark: one serial workload per run, checked outputs, one JSON
result line.

    python3 bench/run.py --workload score_csv --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``recover_tanh`` (reduced criterion-5 sweep) and ``score_csv``
(``kanhydro evaluate`` and ``plotdata`` over 50k rows).

With ``--trace 0`` the run repeats the workload's operation for about
``--seconds`` seconds and reports the end-to-end metrics: the median CPU
time of an operation, the median set-up CPU time (import in a fresh
interpreter plus input generation and writing, repeated), peak resident
memory through set-up and the first operation, the share of operations
that succeeded, and the held-out NSE. Times are CPU times (user plus
system) of this process, not wall times: on a shared virtual machine, wall
time also counts the time other tenants steal from it, which spread the
wall times of repeated runs by more than a quarter. Everything runs in
this one thread, so an operation's CPU time is the time it kept the
processor busy. Wall seconds per operation are printed on a ``#`` line.
With ``--trace 1`` it runs the operation untraced for about half the time,
then once with every layer boundary wrapped (tracer.py), and reports the
per-layer metrics of that traced operation (and of one traced set-up).
Human-readable lines start with ``#``; the last line of standard output is
the JSON result. A run whose outputs fail a check prints ``"correct":
false`` with no metrics and exits 1.

Everything runs serially: BLAS is pinned to one thread and the grid search
uses ``threads=1``. The program is imported from ``src/`` of the checkout
that holds this file; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7

# Times (in CPU seconds) a fresh interpreter's import of kanhydro (numpy
# included), from inside that interpreter so process start-up is not counted.
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.process_time()
import kanhydro
print(time.process_time() - t0)
print(kanhydro.__file__)
"""


def import_seconds() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or not lines[1].startswith(
            str(SRC)):
        raise RuntimeError(f"import probe failed: {proc.stderr.strip()}")
    return float(lines[0])


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = shutil.which("nproc")
    # nproc honours OMP_NUM_THREADS, which this process pins to 1
    nproc_env = {k: v for k, v in os.environ.items()
                 if k not in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "nproc": (subprocess.run([nproc], capture_output=True, text=True,
                                 timeout=10, env=nproc_env).stdout.strip()
                  if nproc else str(len(os.sched_getaffinity(0)))),
    }


def timed(fn, *args):
    """(CPU seconds, wall seconds, result) of ``fn(*args)``."""
    c0, t0 = process_time(), perf_counter()
    out = fn(*args)
    return process_time() - c0, perf_counter() - t0, out


def repeat_for(workload, inputs, seconds: float):
    """Run and check the operation until the next run would pass the
    budget of wall seconds (always at least once).

    Returns (CPU times, wall times, outcomes, peak RSS in MB). The peak is
    read right after the first operation, so it covers set-up and one
    operation and does not depend on how many operations fit or on the
    checks' own reads.
    """
    cpu, wall, outcomes = [], [], []
    peak_mb = None
    start = perf_counter()
    while True:
        dc, dt, out = timed(workload.run, inputs)
        if peak_mb is None:
            # Linux reports ru_maxrss in KiB
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes.append(workload.check(inputs, out))
        cpu.append(dc)
        wall.append(dt)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(wall) > seconds:
            return cpu, wall, outcomes, peak_mb


def measure(workload, seed, work, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t_gen, _, inputs = timed(workload.setup, seed, work)
        setups.append(t_import + t_gen)
    cpu, wall, outcomes, peak_mb = repeat_for(workload, inputs, seconds)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"# CPU seconds per operation: {[round(t, 4) for t in cpu]}")
    print(f"# wall seconds per operation: {[round(t, 4) for t in wall]}")
    print(f"# setup_s (CPU) per set-up: {[round(t, 4) for t in setups]}")
    metrics = {
        "cpu_s": (statistics.median(cpu), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "test_nse": (statistics.median(o.test_nse for o in outcomes),
                     "dimensionless"),
    }
    return outcomes, metrics


def measure_traced(workload, seed, work, seconds):
    from tracer import Tracer
    tracer = Tracer()
    with tracer:
        inputs = workload.setup(seed, work)
    cpu, _, outcomes, _ = repeat_for(workload, inputs, seconds / 2)
    with tracer:
        traced_s, traced_wall, out = timed(workload.run, inputs)
    outcomes.append(workload.check(inputs, out))
    untraced_s = statistics.median(cpu)
    report_trace(tracer, traced_s, traced_wall, untraced_s)
    return outcomes, tracer.layer_metrics(traced_s / untraced_s - 1.0)


def report_trace(tracer, traced_s, traced_wall, untraced_s):
    """Human-readable cross-check against the ROADMAP baseline."""
    print(f"# traced operation {traced_s:.3f} CPU s ({traced_wall:.3f} wall "
          f"s), untraced median {untraced_s:.3f} CPU s")
    stages = tracer.stage_seconds()
    if any(stages.values()):
        # spans are timed in wall seconds
        shares = {k.split(".")[1]: round(v / traced_wall, 3)
                  for k, v in stages.items()}
        print(f"# stage shares of the traced operation: {shares} "
              "(ROADMAP, full criterion-5 sweep: snap 0.63, train 0.22, "
              "refine 0.14)")
    coarse = sorted(tracer.coarse_ms_per_call().items(),
                    key=lambda kv: -kv[1])
    if coarse:
        print("# coarse ms per fit, costliest first: "
              + ", ".join(f"{k} {v:.2f}" for k, v in coarse)
              + " (ROADMAP: power candidates 10-12 ms, others 1-2 ms)")
    print(f"# failed jobs by class: {dict(tracer.failure_classes)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import kanhydro
    except ImportError as exc:
        print(f"cannot import kanhydro from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(kanhydro.__file__).resolve().is_relative_to(SRC):
        print(f"kanhydro imported from {kanhydro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(f"# env {json.dumps(environment(), sort_keys=True)}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = measure_traced if args.trace else measure
        outcomes, metrics = run(workload, args.seed, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left if another run uses it
            work.parent.rmdir()

    errors = [e for o in outcomes for e in o.errors]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {} if errors else {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
