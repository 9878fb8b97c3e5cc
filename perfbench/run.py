"""Benchmark for squeezeamp: four workloads, checked against references.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds the workload's inputs from the seed, repeats rounds of the
same operations through the package's public entry points until S seconds
have passed, checks every operation, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are end to end (set-up, run and CPU time, peak
memory); with --trace 1 a traced run reports per-layer counts and self
times, and the tracing overhead.  The line before it records the
environment.  The benchmark sets no BLAS or OpenMP thread variable: it
runs in the environment it finds and records it.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("noisy-sensitivity", "trace-fits", "lab-drive", "dense-sequence")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5


def load_program():
    """Import squeezeamp from this checkout's src/, or exit with code 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import squeezeamp
    except ImportError as exc:
        print(f"perfbench: cannot import squeezeamp from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(squeezeamp.__file__).startswith(src + os.sep):
        print(f"perfbench: squeezeamp imported from {squeezeamp.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def environment():
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def fresh_dir(*parts):
    """An empty directory under OUT.

    Every round and probe writes into a new directory: on ext4, truncating
    a file written moments before forces a flush that costs ~50 ms.
    """
    path = os.path.join(OUT, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def time_setup(workload, seed, workdir):
    """Wall time from starting a fresh interpreter until it has the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--probe-dir", workdir]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed with exit code {code}")
    return elapsed


def run_rounds(work, seconds, verdicts, rundir):
    """Closed loop of whole rounds until `seconds` have passed; (wall, cpu) each."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        out = os.path.join(rundir, str(len(verdicts)))
        t0, c0 = time.perf_counter(), time.process_time()
        result = work.run_round(out)
        times.append((time.perf_counter() - t0, time.process_time() - c0))
        verdicts.append(work.check(result))
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_program()
    import workloads

    if args.probe_dir:
        os.makedirs(args.probe_dir)
        workloads.WORKLOADS[args.workload](args.seed, args.probe_dir)
        print("ready", flush=True)
        return 0

    setup = []
    if not args.trace:
        probes = fresh_dir("setup", args.workload)
        setup = [time_setup(args.workload, args.seed, os.path.join(probes, str(k)))
                 for k in range(SETUP_REPEATS)]
    work = workloads.WORKLOADS[args.workload](args.seed, fresh_dir("work", args.workload))
    rundir = fresh_dir("rounds", args.workload)
    verdicts = []
    work.install()
    try:
        if args.trace:
            import tracing

            baseline = run_rounds(work, 0, verdicts, rundir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rounds(work, args.seconds, verdicts, rundir)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics(len(traced), sum(w for w, _ in traced))
            overhead = statistics.median(w for w, _ in traced) - baseline[0][0]
            metrics["trace_overhead_s"] = (overhead, "s")
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
            rounds = baseline + traced
        else:
            rounds = run_rounds(work, args.seconds, verdicts, rundir)
            metrics = {
                "setup_s": (statistics.median(setup), "s"),
                "run_s": (statistics.median(w for w, _ in rounds), "s"),
                "cpu_s": (statistics.median(c for _, c in rounds), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
    finally:
        work.close()

    ops = {len(v.ops) for v in verdicts}
    failures = {name: msgs for v in verdicts for name, msgs in v.ops.items() if msgs}
    result = {
        "correct": len(ops) == 1,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, setup_s=setup, rounds=rounds,
                  failures=failures)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for name, msgs in sorted(failures.items()):
        print(f"failed {name}: {'; '.join(msgs)}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
