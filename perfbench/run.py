"""Closed-loop benchmark of fbscontrol.

One single-threaded caller runs a workload's library calls one after another,
each waiting for the previous one to return, for about ``--seconds`` seconds,
and checks every output against analytic oracles. Run from the repository
root:

    python3 perfbench/run.py --workload cz_order --seed 7 --seconds 30 --trace 0

``--trace 0`` times untraced iterations and reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced iterations on the same inputs and
reports the per-layer metrics and the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from spans import EXACT_COUNTS, PER_LAYER, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import fbscontrol; print(time.perf_counter() - t)")
IMPORT_SAMPLES = 3      # the run's own import plus fresh interpreters
MIN_ITERATIONS = 3      # untraced iterations per --trace 0 run
MIN_PAIRS = 2           # untraced/traced pairs per --trace 1 run
TIME_CAP_S = 150.0      # start no iteration expected to end later than this

END_TO_END = {"setup_s": "s", "wall_s": "s", "stderr2_x_s": "s", "peak_rss_mb": "MB"}


def cap_blas_threads():
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_library():
    sys.path.insert(0, str(SRC))
    t = perf_counter()
    import fbscontrol
    elapsed = perf_counter() - t
    if Path(fbscontrol.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"fbscontrol imported from {fbscontrol.__file__}, not from {SRC}")
    return elapsed


def import_seconds():
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=60)
    return float(out.stdout.strip())


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_iteration(wl, seed, k, tracer=None):
    """One closed-loop iteration; returns timings, check results and the
    workload's own figures. Any exception fails every check not yet passed."""
    checks, info = {}, {}
    since = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    t0 = t1 = perf_counter()
    try:
        inputs = wl.setup(seed, k)
        t1 = perf_counter()
        info = wl.run(inputs, checks)
    except Exception:
        traceback.print_exc()
    finally:
        t2 = perf_counter()
        if tracer:
            tracer.uninstall()
    unknown = set(checks) - set(wl.checks)
    if unknown:
        raise RuntimeError(f"undeclared checks {sorted(unknown)}")
    failed = [c for c in wl.checks if not checks.get(c, (False, None))[0]]
    return {"k": k, "setup_s": t1 - t0, "wall_s": t2 - t1, "wall_start": t1, "since": since,
            "failed": failed, "checks": checks, "info": info}


def keep_going(count, minimum, started, durations, seconds):
    if count == 0:
        return True
    expected_end = perf_counter() - started + statistics.fmean(durations)
    if expected_end > TIME_CAP_S:
        return False
    return count < minimum or expected_end <= seconds


def timed_run(wl, seed, seconds):
    iters, started = [], perf_counter()
    while keep_going(len(iters), MIN_ITERATIONS, started,
                     [i["setup_s"] + i["wall_s"] for i in iters], seconds):
        iters.append(run_iteration(wl, seed, len(iters)))
    return iters


def traced_run(wl, seed, seconds):
    """Pairs of untraced and traced iterations on the same inputs, then a traced
    rerun of the first inputs to confirm the exact counts repeat."""
    tracer = Tracer()
    pairs, started = [], perf_counter()

    def traced(k):
        ridge0 = tracer.ridge_builds
        it = run_iteration(wl, seed, k, tracer)
        layer = layer_metrics(tracer.spans, it["since"], it["wall_start"], it["wall_s"], wl.N,
                              tracer.ridge_builds - ridge0)
        layer.update({key: val for key, val in it["info"].items() if key in PER_LAYER})
        it["layer"] = layer
        return it

    while keep_going(len(pairs), MIN_PAIRS, started,
                     [sum(i["setup_s"] + i["wall_s"] for i in p) for p in pairs], seconds):
        k = len(pairs)
        pairs.append((run_iteration(wl, seed, k), traced(k)))
    rerun = traced(0)
    repeat = {c: (pairs[0][1]["layer"].get(c, 0), rerun["layer"].get(c, 0)) for c in EXACT_COUNTS}
    return pairs, rerun, repeat


def median_of(rows, key):
    return statistics.median(r[key] for r in rows)


def main(argv=None):
    nproc = cap_blas_threads()
    first_import = import_library()

    import numpy
    import scipy
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    env = {
        "workload": wl.name, "M": wl.M, "N": wl.N, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "machine": platform.machine(),
    }
    print("env " + json.dumps(env))

    if args.trace == 0:
        import_s = [first_import] + [import_seconds() for _ in range(IMPORT_SAMPLES - 1)]
        iters = timed_run(wl, args.seed, args.seconds)
        runs = iters
        # se^2 carries no timing noise, so its mean pools the draws of the whole
        # run; the median over every solve timed keeps bursts of a busy host out
        se2 = statistics.fmean(i["info"].get("value_se2", float("nan")) for i in iters)
        solve_s = [t for i in iters for t in i["info"].get("value_solve_s", [float("nan")])]
        metrics = {
            "setup_s": statistics.median(import_s) + median_of(iters, "setup_s"),
            "wall_s": median_of(iters, "wall_s"),
            "stderr2_x_s": se2 * statistics.median(solve_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        repeat_ok = True
        print(f"import_s samples {import_s}")
        print(f"{len(iters)} iterations, wall_s " + " ".join(f"{i['wall_s']:.4f}" for i in iters))
        print(f"{len(solve_s)} solves, solve_s " + " ".join(f"{t:.4f}" for t in solve_s))
    else:
        pairs, rerun, repeat = traced_run(wl, args.seed, args.seconds)
        runs = [it for p in pairs for it in p] + [rerun]
        traced = [p[1] for p in pairs]
        metrics = {name: statistics.median(t["layer"].get(name, 0) for t in traced)
                   for name in PER_LAYER if not name.startswith("trace.")}
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        metrics["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
        metrics["trace.coverage"] = statistics.median(t["layer"]["trace.coverage"] for t in traced)
        units = PER_LAYER
        repeat_ok = all(a == b for a, b in repeat.values())
        print(f"pairs {len(pairs)}; exact counts on rerun of k=0: "
              + ", ".join(f"{c}={a}/{b}" for c, (a, b) in repeat.items()))

    attempted = len(wl.checks) * len(runs) + (0 if args.trace == 0 else 1)
    failed = sum(len(r["failed"]) for r in runs) + (0 if repeat_ok else 1)
    for r in runs:
        for c in r["failed"]:
            print(f"FAILED check {c} at k={r['k']}: {r['checks'].get(c, (False, 'not reached'))[1]}")
    for r in runs:
        for note in r["info"].get("notes", ()):
            print(f"note at k={r['k']}: {note}")
    print("last checks " + json.dumps({c: v for c, (_, v) in runs[-1]["checks"].items()}, default=float))
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
