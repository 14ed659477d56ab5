"""Benchmark harness for sumgraph.

    python3 bench/run.py --workload reduce --seed 1 --seconds 12 --trace 0

Run from the repository root of a checkout; the package need not be
installed.  With ``--trace 0`` it runs one workload untraced and prints
the end-to-end metrics; with ``--trace 1`` it runs the first quarter of
every workload's pass once untraced and once traced, whichever workload
is named, and prints the per-layer metrics, writing the full trace to
``bench/out/``.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

A run is a whole number of passes over the workload's fixed list of
operations.  ``--seconds`` only sets how many passes: the count comes
from a per-operation cost measured once on a 2-core x86-64 machine
(``OP_SECONDS``), never from the clock during the run.
"""

import os
import sys
import time

START = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Mean seconds per operation on the reference machine; sets the pass count.
OP_SECONDS = {"reduce": 0.127, "analyse": 0.13, "verify": 0.12, "cli": 0.22}
# p90 is reported only with at least ten samples beyond it.
MIN_SAMPLES = 100
SETUP_REPEATS = 3


def load_library():
    """Import sumgraph from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sumgraph", "__init__.py")):
        sys.exit(f"bench: no sumgraph sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import numpy
    import sumgraph

    if not os.path.abspath(sumgraph.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported sumgraph from {sumgraph.__file__}, not from {SRC}")
    return numpy


def passes_for(name: str, n_ops: int, seconds: float) -> int:
    return max(math.ceil(MIN_SAMPLES / n_ops), round(seconds / (OP_SECONDS[name] * n_ops)))


def set_up(build, seed: int):
    """Build the workload and run its first operation; repeated, and the
    median of the repeats is reported, because one build is too short to
    time steadily."""
    times = []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = build(seed)
        wl.ops[0]()
        times.append(time.perf_counter() - start)
        if rep < SETUP_REPEATS - 1:
            wl.close()
    return wl, statistics.median(times)


def run_passes(wl, passes: int):
    """Time every operation of ``passes`` passes.  Returns the durations,
    the results of the first pass (None where an operation raised), the
    number of failed operations, and whether later passes repeated the
    first pass exactly."""
    durations, first, failed, repeatable = [], None, 0, True
    for p in range(passes):
        results = []
        for op in wl.ops:
            start = time.perf_counter()
            try:
                result = op()
            except Exception:  # an operation that raises is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                result, failed = None, failed + 1
            durations.append(time.perf_counter() - start)
            results.append(result)
        if first is None:
            first = results
        elif results != first:
            repeatable = False
    return durations, first, failed, repeatable


def check_results(wl, results) -> bool:
    ok = True
    for i, result in enumerate(results):
        if result is None:
            continue
        try:
            wl.check(i, result)
        except Exception as exc:  # report every failed check, then fail the run
            print(f"bench: {wl.name} operation {i} failed its check: {exc!r}", file=sys.stderr)
            ok = False
    return ok


def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(name: str, seed: int, seconds: float, import_s: float) -> dict:
    from workloads import WORKLOADS

    wl, build_s = set_up(WORKLOADS[name], seed)
    try:
        passes = passes_for(name, len(wl.ops), seconds)
        durations, first, failed, repeatable = run_passes(wl, passes)
        correct = check_results(wl, first) and repeatable
        if not repeatable:
            print("bench: a later pass gave results different from the first", file=sys.stderr)
    finally:
        wl.close()
    ms = sorted(d * 1e3 for d in durations)
    q = statistics.quantiles(ms, n=10, method="inclusive")
    metrics = {
        "setup_s": (import_s + build_s, "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (q[8], "ms"),
        "peak_rss_mib": (peak_rss_mib(wl.uses_children), "MiB"),
    }
    return {"correct": correct, "attempted": len(durations), "failed": failed, "metrics": metrics}


def git_revision():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def traced(seed: int, seconds: float, numpy) -> dict:
    """Every workload, untraced and then traced over the same operations;
    the per-layer metrics cover all of them, so each layer is measured in
    every traced run whichever workload is named."""
    import cases
    import workloads
    from tracing import Tracer

    total = Tracer()
    report = {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count(),
              "git_revision": git_revision(), "seed": seed, "seconds": seconds, "workloads": {}}
    attempted = failed = 0
    correct = True
    metrics = {}
    for name, build in workloads.WORKLOADS.items():
        tracer = Tracer()
        runner = workloads.CliRunner()
        wl = build(seed, runner) if name == "cli" else build(seed)
        # the first quarter of the pass, run once untraced and once traced
        wl.ops = wl.ops[: len(wl.ops) // 4]
        try:
            wl.ops[0]()
            plain, _, _, _ = run_passes(wl, 1)
            runner.command = [os.path.join(HERE, "cli_child.py")]
            runner.on_stderr = tracer.record_cli
            tracer.install([workloads, cases])
            try:
                timed, first, n_failed, repeatable = run_passes(wl, 1)
            finally:
                tracer.uninstall()
            correct = check_results(wl, first) and repeatable and correct
        finally:
            wl.close()
        attempted += len(timed)
        failed += n_failed
        overhead = (sum(timed) / sum(plain) - 1.0) * 100.0
        metrics[f"trace.{name}.overhead_pct"] = (overhead, "%")
        report["workloads"][name] = {
            "operations": len(timed),
            "untraced_ops_per_s": len(plain) / sum(plain),
            "traced_ops_per_s": len(timed) / sum(timed),
            "overhead_pct": overhead,
            "metrics": {k: v for k, (v, _) in tracer.metrics().items()},
            "functions": {k: {"calls": c, "inclusive_ms": i * 1e3, "self_ms": s * 1e3}
                          for k, (c, i, s) in sorted(tracer.stats.items())},
        }
        total.merge(tracer)
    metrics = {**total.metrics(), **metrics}
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"trace-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(f"bench: trace written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reduce", "analyse", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    numpy = load_library()
    import_s = time.perf_counter() - START
    if args.trace:
        result = traced(args.seed, args.seconds, numpy)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, import_s)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    for k, m in result["metrics"].items():
        print(f"{args.workload if not args.trace else 'trace'} {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
