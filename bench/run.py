"""ebsbm benchmark: end-to-end metrics per workload, or per-layer metrics
from an outside-in traced run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ebsbm from its
``src/``. One process, one caller, serial: a pass over the workload is a
list of units, each one call into the library (``run_experiment`` with
workers=1 on one replicate, or ``run_testlik_protocol`` on a chunk of
splits). Passes repeat on the same inputs while the next one fits in
``--seconds``; outputs are checked after every call. ``wall_s`` is the
time of one pass with every unit at its fastest over the passes: on a
shared host, contention only ever adds time, and a short unit repeated
through the run meets an uncontended moment far more steadily than the
median of a few long passes does. Results, spans and
the environment go to ``.bench_out/`` in the checkout; the last line of
standard output is one JSON object with the metrics of the chosen mode.
Exits 1 when an output check fails and 2 when there is no ebsbm source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from tracing import MemoryTracer, Tracer, installed, unrestored  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four fresh ones

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
QUALITY_UNITS = {"eb_mle_mse_ratio": "ratio", "heldout_gain": "nats"}


def timed_setup(workload, seed):
    """Import ebsbm and build the workload's units; returns (units, s)."""
    t0 = time.perf_counter()
    import ebsbm  # noqa: F401

    units = workload.units(workload.setup(seed))
    return units, time.perf_counter() - t0


def fresh_setup_seconds(name, seed):
    """Set-up time measured in a new interpreter, where nothing is cached."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _unit_dir(out_dir, i):
    return out_dir / f"unit{i:03d}"


def run_unit(workload, unit, out_dir):
    """One timed call, then its checks.
    Returns (seconds, result, checked, bytes)."""
    _fresh_dir(out_dir)
    t0 = time.perf_counter()
    result = workload.call(unit, str(out_dir))
    elapsed = time.perf_counter() - t0
    path = workload.artifact(result, str(out_dir))
    checked = workload.check(unit, result, str(out_dir))
    with open(path, "rb") as fh:
        return elapsed, result, checked, fh.read()


class Run:
    """Tallies of one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def tally(self, label, checked):
        self.attempted += checked.units
        self.failed += checked.failed
        self.problems += [f"{label}: {p}" for p in checked.problems]

    def require(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def measure(workload, units, seconds, out_dir, run):
    """Untraced passes, each calling every unit once, while the elapsed
    time plus one more pass like the last stays within `seconds` (at
    least one pass). Every pass must write the same bytes as the first.

    Returns the unit times per pass, the first pass's results and its
    bytes per unit."""
    passes = []
    results = first = None
    start = last = time.perf_counter()
    while not passes or 2 * time.perf_counter() - start - last <= seconds:
        last = time.perf_counter()
        times, res, data = [], [], []
        for i, unit in enumerate(units):
            elapsed, result, checked, out = run_unit(workload, unit, _unit_dir(out_dir, i))
            times.append(elapsed)
            res.append(result)
            data.append(out)
            run.tally(f"pass {len(passes) + 1} unit {i}", checked)
        passes.append(times)
        if first is None:
            results, first = res, data
        run.require(data == first, f"pass {len(passes)} output differs from pass 1")
    return passes, results, first


def traced_pass(workload, seed, out_dir, untraced_bytes, run):
    """Set-up and one pass under the tracer, spans in memory; one root
    span for the set-up and one per unit. Returns the tracer, the names
    missing from the program, the traced seconds of the library calls and
    the pass's results."""
    tracer = Tracer()
    results = []
    with installed(tracer, layers.PROBES) as missing:
        with tracer.span("experiment"):
            units = workload.units(workload.setup(seed))
        for i, unit in enumerate(units):
            _fresh_dir(_unit_dir(out_dir, i))
            with tracer.span("experiment"):
                results.append(workload.call(unit, str(_unit_dir(out_dir, i))))
    run.require(not unrestored(layers.PROBES), "a wrapped name was not restored")
    for i, (unit, result) in enumerate(zip(units, results)):
        path = workload.artifact(result, str(_unit_dir(out_dir, i)))
        run.tally(f"traced unit {i}", workload.check(unit, result, str(_unit_dir(out_dir, i))))
        with open(path, "rb") as fh:
            run.require(fh.read() == untraced_bytes[i],
                        f"traced unit {i} {os.path.basename(path)} differs from the untraced bytes")
    roots = [s for s in tracer.spans if s.parent is None]
    total_self = sum(layers.self_by_name(tracer.spans).values())
    total_root = sum(s.end - s.start for s in roots)
    run.require(abs(total_self - total_root) <= 1e-9 + 1e-9 * total_root,
                f"layer self times sum to {total_self}, roots to {total_root}")
    calls = sum(s.end - s.start for s in roots[1:])
    return tracer, missing, calls, results


def memory_pass(workload, seed, out_dir):
    """Peak tracemalloc allocation per span on the first unit of the
    workload. tracemalloc slows the pipeline several-fold, so no timing is
    kept."""
    unit = workload.units(workload.setup(seed))[0]
    _fresh_dir(out_dir)
    mem = MemoryTracer()
    tracemalloc.start()
    try:
        with installed(mem, layers.PROBES):
            with mem.span("experiment"):
                workload.call(unit, str(out_dir))
    finally:
        tracemalloc.stop()
    return mem.peaks


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    pkg = SRC / "ebsbm"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        return {}
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def benchmark(workload, seed, seconds, trace, out_root):
    """Run one invocation; returns (report dict, Run)."""
    run = Run()
    units, setup_main = timed_setup(workload, seed)
    passes, results, data = measure(workload, units, seconds, out_root / "untraced", run)
    per_unit = list(zip(*passes))
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "unit": workload.unit, "units": len(units),
        "pass_seconds": [sum(times) for times in passes],
        "unit_seconds": passes,
        "best_pass_seconds": sum(min(ts) for ts in per_unit),
        "median_pass_seconds": sum(statistics.median(ts) for ts in per_unit),
        "quality": workload.quality(results),
    }
    if not trace:
        setup = [setup_main] + [fresh_setup_seconds(workload.name, seed)
                                for _ in range(SETUP_SAMPLES - 1)]
        report["setup_seconds"] = setup
        report["metrics"] = {
            "wall_s": report["best_pass_seconds"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return report, run
    tracer, missing, traced_s, traced = traced_pass(workload, seed, out_root / "traced", data, run)
    peaks = memory_pass(workload, seed, out_root / "memory")
    # one traced pass against a typical untraced one, not the fastest
    overhead = traced_s / report["median_pass_seconds"] - 1.0
    report["metrics"] = layers.layer_metrics(tracer.spans, tracer.counters, peaks,
                                             workload.khat_abs_err(traced), overhead)
    report["counters"] = tracer.counters
    report["missing_probes"] = missing
    report["hook_errors"] = tracer.hook_errors
    with open(out_root / "spans.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")
    for line in missing + tracer.hook_errors:
        print(f"trace: {line}", file=sys.stderr)
    return report, run


def _units():
    units = dict(END_TO_END)
    units.update(QUALITY_UNITS)
    units.update((name, unit) for name, unit, _ in layers.PER_LAYER)
    return units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ebsbm" / "__init__.py").is_file():
        print(f"error: no ebsbm source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(timed_setup(workload, args.seed)[1])
        return 0

    out_root = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root.mkdir(parents=True, exist_ok=True)
    report, run = benchmark(workload, args.seed, args.seconds, bool(args.trace), out_root)
    report["environment"] = environment()
    report["attempted"], report["failed"] = run.attempted, run.failed
    report["problems"] = run.problems
    correct = not run.problems and run.failed == 0
    with open(out_root / "result.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    units = _units()
    env = report["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(report['pass_seconds'])} commit={env['commit']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"blas={env['blas']['name']} blas_threads={env['blas_threads']}")
    print(f"  {report['units']} units; pass_seconds "
          f"{' '.join(f'{t:.4f}' for t in report['pass_seconds'])}")
    shown = dict(report["metrics"])
    if not args.trace:
        shown["failed_frac"] = run.failed / run.attempted
        shown.update(report["quality"])
        units["failed_frac"] = f"of {run.attempted} {workload.unit}s"
    for name, value in shown.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for problem in run.problems:
        print(f"  FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
