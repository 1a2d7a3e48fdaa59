"""Benchmark of the varschouten engine: one workload, one seed, one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload definitions --seed 1 --seconds 10 --trace 0

Set-up imports the engine from src/, generates the workload's cases from
the seed with varschouten.randgen, and warms up; it is repeated
SETUP_REPEATS times and setup_s is the median.  The timed phase is a closed
loop, one case at a time, for --seconds.  Every result is then checked,
outside the timed region.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a fixed number of
cases three times: untraced to warm up, then in alternating chunks
untraced and with every layer boundary wrapped (tracing.py).  A fourth,
untimed pass under tracemalloc gives the heap a case needs.  It prints the
per-layer metrics and the tracing overhead; its work counts repeat exactly
for a seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it records the environment, the seed and the
failure share.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

from tracing import LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TRACE_CHUNK = 10  # cases per untraced/traced alternation in a traced run
# Set-up and cases are timed in CPU time of this thread.  The engine is
# single-threaded and the workloads do no I/O beyond a session file in the
# page cache, so on a CPU of its own this is its wall time; on a shared
# virtual machine it leaves out the intervals the host runs someone else
# (README, "Steadiness and bounds").
CLOCK = time.thread_time

# metric names and units, in the order they are printed, as BENCHMARK.json lists them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def load_engine() -> SimpleNamespace:
    """Import varschouten afresh from this checkout's src/; one attribute per layer."""
    for name in [n for n in sys.modules if n == "varschouten" or n.startswith("varschouten.")]:
        del sys.modules[name]
    package = importlib.import_module("varschouten")
    if Path(package.__file__).resolve().parent != SRC / "varschouten":
        raise ImportError(f"varschouten was imported from {package.__file__}, not from {SRC}")
    layers = {layer: importlib.import_module(f"varschouten.{layer}") for layer in LAYERS}
    return SimpleNamespace(package=package, **layers)


def set_up(workload, seed, workdir, tracer=None):
    """Import, generate the case pool, warm up; returns (engine, cases, seconds)."""
    start = CLOCK()
    vs = load_engine()
    if tracer is not None:
        tracer.install(vs.package)
    try:
        cases = workload.generate(vs, seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    for case in cases[: workload.warmup]:
        # a case that raises here raises again in the timed phase, which counts it
        with contextlib.suppress(Exception):
            workload.run(vs, case)
    return vs, cases, CLOCK() - start


def freeze_pool() -> None:
    """Move everything set-up left into the collector's permanent generation.

    The pool is the benchmark's input, not the engine's work: without this,
    each full collection in the timed phase would scan it, at a cost that
    grows with the pool size.
    """
    gc.collect()
    gc.freeze()


def timed(
    workload, vs, cases, *, start=0, seconds=None, count=None, tracer=None, inline_check=False
):
    """Closed loop over the pool, one case at a time.

    Starts at pool case `start`; stops once `count` cases ran or the cases'
    own time reaches `seconds`.
    With inline_check each result is checked right after its case, off the
    clock, and dropped, so memory does not grow with the number of cases.
    Returns (records, problems, busy seconds); a record is (case index,
    result, traceback or None, seconds).
    """
    records, problems = [], []
    clock = CLOCK
    busy = 0.0
    i = 0
    while True:
        idx = (start + i) % len(cases)
        if tracer is not None:
            tracer.case_id = start + i
        t0 = clock()
        try:
            result, error = workload.run(vs, cases[idx]), None
        except Exception:  # recorded and counted as a failed case
            result, error = None, traceback.format_exc()
        took = clock() - t0
        busy += took
        if inline_check:
            problems += check_one(workload, vs, cases, idx, result, error)
            result = None
        records.append((idx, result, error, took))
        i += 1
        if (count is not None and i >= count) or (seconds is not None and busy >= seconds):
            return records, problems, busy


def check_one(workload, vs, cases, idx, result, error) -> list[str]:
    if error is None:
        try:
            problem = workload.check(vs, cases[idx], result)
        except Exception:  # a check that cannot run is a failed case
            problem = "check raised:\n" + traceback.format_exc()
    else:
        problem = "raised:\n" + error
    return [f"case {idx}: {problem}"] if problem else []


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git repository; no git process is run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        vs = cases = None  # the previous engine and pool go before the next set-up
        gc.collect()
        vs, cases, took = set_up(workload, seed, workdir)
        setups.append(took)
    freeze_pool()
    records, problems, busy = timed(workload, vs, cases, seconds=seconds, inline_check=True)
    problems += workload.finish(vs)
    latencies = [r[3] for r in records]
    metrics = {
        "setup_s": statistics.median(setups),
        "cases_per_s": len(records) / busy,
        "case_p50_ms": statistics.median(latencies) * 1e3,
        "case_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: measure(metrics[name], unit) for name, unit in END_TO_END.items()}
    extra = {"cases": len(records), "pool": len(cases), "setup_runs_s": setups}
    return len(records) + workload.finish_checks, problems, metrics, extra


def traced(workload, seed, workdir):
    setup_tracer = Tracer()
    vs, cases, _ = set_up(workload, seed, workdir, setup_tracer)
    freeze_pool()
    n = workload.trace_cases
    # a first untraced pass warms the engine's caches on these cases; then
    # untraced and traced chunks alternate, so that the machine's drift
    # falls on both sides of trace.overhead alike
    _, problems, _ = timed(workload, vs, cases, count=n, inline_check=True)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    spans = []
    for start in range(0, n, TRACE_CHUNK):
        count = min(TRACE_CHUNK, n - start)
        _, more, took = timed(workload, vs, cases, start=start, count=count, inline_check=True)
        problems += more
        plain_s += took
        tracer.install(vs.package)
        try:
            records, _, took = timed(workload, vs, cases, start=start, count=count, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_s += took
        spans += records
    for idx, result, error, _ in spans:
        problems += check_one(workload, vs, cases, idx, result, error)
    problems += workload.finish(vs)
    values = layer_values(tracer, setup_tracer)
    values["heap.mean_case_peak_mb"] = mean_heap_peak(workload, vs, cases[:n])
    values["trace.untraced_cases_per_s"] = n / plain_s
    values["trace.traced_cases_per_s"] = n / traced_s
    values["trace.overhead"] = traced_s / plain_s - 1
    metrics = {name: measure(values[name], unit) for name, unit in PER_LAYER.items()}
    return 3 * n + workload.finish_checks, problems, metrics, {"cases": n, "pool": len(cases)}


def mean_heap_peak(workload, vs, cases) -> float:
    """Mean over the cases of the most heap each allocates above its start, in MB.

    Measured with tracemalloc on one more, untimed pass: tracing every
    allocation makes a case four to five times slower.
    """
    peaks = []
    tracemalloc.start()
    try:
        for case in cases:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            # a case that raises was already counted by the checked passes
            with contextlib.suppress(Exception):
                workload.run(vs, case)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return statistics.mean(peaks) / 2**20


def layer_values(tracer: Tracer, setup_tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the traced cases; randgen comes from the traced set-up."""
    spans = tracer.summary()
    setup_spans = setup_tracer.summary()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    values = {"trace.spans": len(tracer)}
    for name in PER_LAYER:
        if name.startswith(("trace.", "heap.")):
            continue
        label, _, field = name.rpartition(".")
        source = setup_spans if label.startswith("randgen.") else spans
        if field in ("calls", "self_s", "total_s"):
            values[name] = source[label][field]
        else:
            values[name] = counts.get(name, 0)
    values["variational.is_exact.exact_share"] = ratio(
        counts["variational.is_exact.exact"], spans["variational.is_exact"]["calls"]
    )
    values["algebra.total_derivative.reuse"] = ratio(
        counts["algebra.total_derivative.terms_in"], len(tracer.td_pairs)
    )
    values["randgen.random_multivector.draws_per_accept"] = ratio(
        setup_tracer.child_calls("randgen.random_multivector", "randgen.random_density"),
        setup_spans["randgen.random_multivector"]["calls"],
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        help="seconds of cases to time; required with --trace 0.  --trace 1 runs a fixed "
        "number of cases instead, so that its work counts repeat, and does not use it",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.trace and args.seconds is None:
        parser.error("--seconds is required with --trace 0")
    if args.trace and args.seconds is not None:
        print("note: --trace 1 runs a fixed number of cases; --seconds is not used", file=sys.stderr)
    if not (SRC / "varschouten" / "__init__.py").is_file():
        print(f"error: no varschouten package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    workdir = HERE / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            attempted, problems, metrics, extra = traced(workload, args.seed, workdir)
        else:
            attempted, problems, metrics, extra = end_to_end(
                workload, args.seed, args.seconds, workdir
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(problems)
    for problem in problems[:20]:
        print(problem, file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bounds": workload.bounds,
        "fail_share": failed / attempted,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        **extra,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
