"""imprand benchmark: one workload per process, seeded inputs, checked outputs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

A run builds the workload's inputs from the seed, runs one untimed warm-up
job, then runs jobs back to back for ``--seconds`` and checks every job's
output.  It prints one line per metric with its unit, and as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The traced run times half of its jobs untraced and half with
span wrappers installed, so the gap between the two medians is the tracing
overhead.  Spans of the traced run are written to
``.perfbench-out/spans-<workload>-seed<seed>.tsv.gz``.

The program is imported from ``src/`` of the checkout; without it the run
fails before measuring anything.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("screen", "interval", "exact", "audit")

# one process, one thread: no worker pool in imprand, no BLAS threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("IMPRAND_THREADS", None)


def declared_units(kind):
    """Metric names and units, in order, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "imprand", "__init__.py")):
        raise SystemExit(f"benchmark: no imprand sources under {SRC}")
    sys.path.insert(0, SRC)
    import imprand

    if not os.path.abspath(imprand.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imprand imported from {imprand.__file__}, not {SRC}")
    import workloads

    return workloads


def _setup(workloads, name, seed):
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.setup()
    return wl


def setup_sample(name, seed):
    """Child-process mode: imports, inputs and input files, timed from the
    start of the interpreter's run of this file."""
    workloads = _import_program()
    wl = _setup(workloads, name, seed)
    elapsed = time.perf_counter() - _START
    shutil.rmtree(wl.dir, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(name, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-sample",
             "--workload", name, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_jobs(wl, seconds, tracer=None, min_jobs=1):
    """Jobs back to back until ``seconds`` have passed; each job is timed
    alone and its output (and, when traced, its span tree) is checked after
    the clock stops."""
    times, errors, results = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted < min_jobs or time.perf_counter() - start < seconds:
        wl.clear_outputs()
        attempted += 1
        t0 = time.perf_counter()
        try:
            raw = tracer.run_job(wl.job) if tracer else wl.job()
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())
            continue
        elapsed = time.perf_counter() - t0
        try:
            result = wl.collect(raw)
            problems = wl.check(result)
            if tracer:
                problems += tracer.validate_last(wl.expected_spans)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            errors.extend(problems)
            continue
        times.append(elapsed)
        results.append(result)
    return times, attempted, failed, errors, results


def _line(name, value, unit, note=""):
    print(f"{name:<34} {value!r:>22} {unit:<6} {note}".rstrip())


def run(name, seed, seconds, trace):
    workloads = _import_program()
    setup_s = measure_setup(name, seed)
    wl = _setup(workloads, name, seed)
    try:
        return _measure(wl, setup_s, seconds, trace)
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)


def _measure(wl, setup_s, seconds, trace):
    _, _, warm_failed, errors, _ = run_jobs(wl, 0.0)
    print(f"workload {wl.name} seed {wl.seed} seconds {seconds} trace {int(trace)}")
    if not trace:
        times, attempted, failed, more, results = run_jobs(wl, seconds)
        errors += more
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": setup_s,
            "job_p50_s": statistics.median(times) if times else 0.0,
            "jobs_per_s": len(times) / sum(times) if times else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = declared_units("end_to_end")
        notes = {"setup_s": f"median of {SETUP_SAMPLES} set-ups",
                 "job_p50_s": f"median of {len(times)} jobs"}
        for key, unit in units.items():
            _line(key, metrics[key], unit, notes.get(key, ""))
        _line("output_bytes", wl.output_bytes() if results else 0, "bytes", "per job")
        _line("fail_ratio", failed / attempted, "ratio", f"{failed}/{attempted} jobs")
        if hasattr(wl, "verdicts") and results:
            print(wl.verdicts(results))
    else:
        import probes
        import tracing

        plain, attempted, failed, more, _ = run_jobs(wl, seconds / 2)
        errors += more
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, t_attempted, t_failed, more, results = run_jobs(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        errors += more
        attempted += t_attempted
        failed += t_failed
        metrics = tracing.median_metrics([
            tracing.layer_metrics(spans, counters)
            for spans, counters in zip(tracer.jobs, tracer.counters)
        ])
        evaluated, total = wl.grid_counts(results[-1]) if results else (0, 0)
        metrics["analysis.grid_evaluated"] = evaluated
        metrics["analysis.grid_total"] = total
        for key, value in wl.sizes().items():
            metrics[f"size.{key}"] = value
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if plain and traced else 0.0
        )
        metrics.update(probes.exact_scaling(wl.seed, wl.dir))
        tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{wl.seed}.tsv.gz"))
        units = declared_units("per_layer")
        metrics = {key: metrics[key] for key in units}
        for key, unit in units.items():
            _line(key, metrics[key], unit)
    for problem in errors[:10]:
        print(f"FAILED: {problem.strip()}", file=sys.stderr)
    return {
        "correct": not errors and not warm_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed, seconds, trace):
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            timeout=900,
        )
        ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_sample:
        setup_sample(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
