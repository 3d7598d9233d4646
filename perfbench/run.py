"""obliqueframes benchmark: closed-loop CLI workloads with a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload w2_cold --seed 1 --seconds 20 --trace 0

One client issues one ``obliqueframes.cli.main`` call at a time, in
process, with stdout captured in memory.  Every op's output is checked
outside the timed region.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see perfbench/README.md).  The line before it is a JSON
object with the environment and the details behind the metrics.
"""
from __future__ import annotations

import os

# One BLAS thread (at most nproc): one op's kernels stay on one core.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = "obliqueframes"
SETUP_REPEATS = 5
WORKDIR = os.path.join(ROOT, ".perfbench_work")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the package afresh from this checkout's src/, never from an
    installed copy; return its cli module."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    path = os.path.abspath(sys.modules[PACKAGE].__file__)
    if not path.startswith(os.path.join(SRC, PACKAGE) + os.sep):
        raise ImportError(f"{PACKAGE} imported from {path}, not from {SRC}")
    return cli


# ---------------------------------------------------------------------------
# Running ops


class Runner:
    """Runs ops one at a time and counts attempts and failures."""

    def __init__(self):
        self.cli = None
        self.plan = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.keys: list[int] = []  # input key of every op whose check passed

    def run(self, op: workloads.Op, label) -> float:
        """Run one op and return its wall time in seconds.  The output
        check runs after the clock stops."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any escape from cli.main is a failure
                code, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        self.attempted += 1
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()[:200]}"
        if error is None:
            try:
                op.check(out.getvalue())
            except Exception as exc:  # a malformed report fails its check
                error = f"check: {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.failures.append(f"op {label} {op.argv[0]}: {error}")
        elif op.key is not None:
            self.keys.append(op.key)
        return elapsed

    def finish(self) -> dict:
        """Run the checks deferred past the loop; fail the ops they reject."""
        bad, notes = self.plan.deferred(self.keys)
        for key, message in bad.items():
            hits = self.keys.count(key)
            self.failed += hits
            self.failures.append(f"input {key} ({hits} ops): {message}")
        return notes


def set_up(runner: Runner, workload: str, seed: int, run_dir: str):
    """Import, input generation, fixture writing and warm-up, repeated
    SETUP_REPEATS times; return each rep's (wall time, speed factor).  The
    runner keeps the last rep's program and plan."""
    reps = []
    for rep in range(SETUP_REPEATS):
        # Each rep starts from a collected heap, so no rep pays for the
        # garbage of the one before.
        runner.cli = runner.plan = None
        gc.collect()
        scale = speed.factor([speed.calibration()
                              for _ in range(2 * speed.WINDOW + 1)])
        start = perf_counter()
        runner.cli = import_program()
        workdir = os.path.join(run_dir, str(rep))
        os.mkdir(workdir)
        runner.plan = workloads.WORKLOADS[workload](seed, workdir, ROOT)
        for i, op in enumerate(runner.plan.warmup):
            runner.run(op, f"warm-up {i}")
        reps.append((perf_counter() - start, scale))
    return reps


# ---------------------------------------------------------------------------
# Environment


def git_sha() -> str | None:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, PACKAGE, "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256_16": src_digest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Measurement


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value
    (the maximum when there are fewer than eleven samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(runner: Runner, seconds: float, setup: list[tuple[float, float]]):
    """Run whole passes of ops until their summed wall time reaches seconds.

    A calibration precedes every op, and throughput, median latency and
    set-up time are rescaled by it (see speed.py).  The tail stays in wall
    time: it is made of the ops that met the machine's slow spells, which
    every run has, and a rescaling factor estimated from a few calibrations
    adds noise that the extremes pick up."""
    plan = runner.plan
    walls, cals = [], []
    while sum(walls) < seconds or len(walls) % plan.pass_ops:
        k = len(walls)
        cals.append(speed.calibration())
        walls.append(runner.run(plan.op_at(k), k))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = runner.finish()
    latencies = speed.rescale(walls, cals)
    pct, tail_s = tail(walls)
    metrics = {
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(t * f for t, f in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "samples": len(latencies),
        "latency_tail_percentile": pct,
        "checks": notes,
        "wall": {
            "throughput_ops_s": len(walls) / sum(walls),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "latency_tail_rescaled_ms": 1e3 * tail(latencies)[1],
            "setup_s": statistics.median(t for t, _ in setup),
            "calibration_ms": 1e3 * statistics.median(cals),
        },
    }
    return metrics, detail


def traced(runner: Runner, seconds: float, span_path: str):
    """Alternate untraced and traced passes over the same fixed ops until
    the time is used; report per-layer medians over the traced passes."""
    tracer = tracing.Tracer(PACKAGE)
    plan = runner.plan
    ops = [(plan.op_at(k), k) for k in range(plan.pass_ops)]
    untraced, passes, first_spans = [], [], None
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        untraced.append(sum(runner.run(op, k) for op, k in ops))
        tracer.reset()
        tracer.install()
        try:
            wall = sum(runner.run(op, k) for op, k in ops)
        finally:
            tracer.uninstall()
        summary = tracing.summarize(tracer.spans)
        summary["trace.overhead_s"] = wall - untraced[-1]
        passes.append(summary)
        if first_spans is None:
            first_spans = tracer.spans
    notes = runner.finish()

    metrics = {}
    for name in passes[0]:
        unit = tracing.unit_of(name)
        if unit == "s":
            metrics[name] = (statistics.median(p[name] for p in passes), unit)
        else:
            metrics[name] = (passes[0][name], unit)
    counts_repeat = all(p[name] == metrics[name][0] for p in passes
                        for name in p if tracing.unit_of(name) != "s")
    if not counts_repeat:
        runner.failures.append("traced counts differ between passes")
    with open(span_path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "layer", "start", "end",
                              "attrs"], "spans": first_spans}, fh)
    detail = {
        "passes": len(passes),
        "ops_per_pass": plan.pass_ops,
        "untraced_pass_s": statistics.median(untraced),
        "counts_repeat_across_passes": counts_repeat,
        "spans_per_pass": len(first_spans),
        "span_file": os.path.relpath(span_path, ROOT),
        "checks": notes,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORKDIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                               dir=WORKDIR)
    runner = Runner()
    try:
        setup = set_up(runner, args.workload, args.seed, run_dir)
        if args.trace:
            span_path = os.path.join(
                WORKDIR, f"spans-{args.workload}-{args.seed}.json")
            metrics, detail = traced(runner, args.seconds, span_path)
        else:
            metrics, detail = measure(runner, args.seconds, setup)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail["error_rate"] = runner.failed / runner.attempted
    detail["environment"] = environment(args)
    detail["input_size"] = runner.plan.size
    detail["failures"] = runner.failures[:20]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
