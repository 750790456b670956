"""roughfsm benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload runs|covers|files --seed N --seconds S --trace 0|1

The library is imported from the checkout's `src/` and the word-run
oracle from its `tests/`; the run fails with exit code 2, printing no
result, when either is missing. One process, no threads, one client in
a closed loop: each op starts when the previous one has returned.

With --trace 0 the run reports the end-to-end metrics. With --trace 1
it reports the per-layer metrics from a traced replay of the same ops,
plus the scale ladder and the cold CLI process time (see METRICS.md).
The last line of standard output is always the JSON result.
"""

from __future__ import annotations

from time import perf_counter

RUN_START = perf_counter()

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# Set-up runs at least SETUP_MIN times and, while the set-ups so far add
# up to less than SETUP_TARGET_S, up to SETUP_MAX times; setup_s takes the
# median, so cheap set-ups get more samples against timer noise.
SETUP_MIN, SETUP_MAX, SETUP_TARGET_S = 3, 21, 2.0
IMPORT_PROBES = 9
COLD_PROCESSES = 5


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import roughfsm; print(time.perf_counter() - t)"
)


def import_library() -> None:
    """Put the checkout's library and oracle on the path and import the library."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "roughfsm" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        print(f"error: no roughfsm sources under {ROOT}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(tests)]
    import roughfsm

    if Path(roughfsm.__file__).resolve().parent != (src / "roughfsm").resolve():
        print(f"error: roughfsm imported from {roughfsm.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)


def import_seconds() -> float:
    """Median time of `import roughfsm` in fresh interpreters, one at a time."""
    times = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def tail_percentile(n: int, wanted: float) -> float:
    """`wanted` if at least ten samples lie beyond it, else the highest that has ten."""
    return wanted if n * (100 - wanted) / 100 >= 10 else max(0.0, 100 * (1 - 10 / n))


def percentile(values: list, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def run_loop(workload, ctx, seconds=None, ops=None, tracer=None):
    """Execute ops one at a time; return (ops, latencies, records).

    Without `ops`, whole rounds run until `seconds` have passed. With
    `ops`, exactly those run, in order. Each record is (op, digest of its
    output), or (op, None) if it raised; digests are taken after the op's
    timing ends.
    """
    done, latencies, records = [], [], []

    def one(op):
        if tracer is not None:
            tracer.op = len(done)
            span = tracer.span(f"bench.{workload.kind(op)}")
        else:
            span = contextlib.nullcontext()
        start = perf_counter()
        with span:
            try:
                result = workload.execute(ctx, op)
            except Exception as e:  # a failed op is counted, not fatal
                result = e
        latencies.append(perf_counter() - start)
        done.append(op)
        if isinstance(result, Exception):
            print(f"op {workload.kind(op)} raised {type(result).__name__}: {result}", file=sys.stderr)
            records.append((op, None))
        else:
            records.append((op, workload.digest(ctx, op, result)))

    if ops is not None:
        for op in ops:
            one(op)
    else:
        deadline = perf_counter() + seconds
        for round_ops in workload.rounds(ctx):
            for op in round_ops:
                one(op)
            if perf_counter() >= deadline:
                break
    return done, latencies, records


def check(workload, ctx, records, seed):
    """Failed op count and checked op count, from the brute-force references."""
    raised = {i for i, (_, out) in enumerate(records) if out is None}
    usable = [(i, r) for i, r in enumerate(records) if r[1] is not None]
    wrong, checked = workload.check(ctx, [r for _, r in usable], random.Random(seed))
    failed = raised | {usable[j][0] for j in wrong}
    return len(failed), checked


def latency_metrics(workload, latencies):
    p = tail_percentile(len(latencies), workload.tail_percentile)
    tail = {
        "percentile": p,
        "samples": len(latencies),
        "beyond": len(latencies) - math.ceil(p * len(latencies) / 100),
        "profile_ms": {f"p{q:g}": percentile(latencies, q) * 1000 for q in (25, 50, 75, 90, 95, 97.5, 99, 99.5, 99.8)},
    }
    metrics = {
        "throughput_ops_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (percentile(latencies, p) * 1000, "ms"),
    }
    return metrics, tail


def kind_shares(workload, ops, latencies):
    total = sum(latencies)
    shares = {}
    for op, t in zip(ops, latencies):
        count, spent = shares.get(workload.kind(op), (0, 0.0))
        shares[workload.kind(op)] = (count + 1, spent + t)
    return {k: {"ops": n, "time_frac": round(t / total, 4)} for k, (n, t) in sorted(shares.items())}


def plain_run(workload, args, workdir):
    import_s = import_seconds()
    setups = []
    ctx = None
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_TARGET_S and len(setups) < SETUP_MAX):
        ctx = None  # drop the last set-up first, so peak memory holds only one
        start = perf_counter()
        ctx = workload.setup(args.seed, workdir)
        setups.append(perf_counter() - start)
    gc.collect()
    ops, latencies, records = run_loop(workload, ctx, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, checked = check(workload, ctx, records, args.seed)
    metrics, tail = latency_metrics(workload, latencies)
    metrics["setup_s"] = (import_s + statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["ok_frac"] = ((len(ops) - failed) / len(ops), "frac")
    info = {
        "latency_tail": tail,
        "failed_frac": failed / len(ops),
        "checked": checked,
        "import_s": import_s,
        "setup_runs_s": setups,
        "kinds": kind_shares(workload, ops, latencies),
    }
    return metrics, len(ops), failed, info


def cold_process_ms(workdir) -> float:
    """Median wall time of fresh `python -m roughfsm.cli validate` processes."""
    from roughfsm import samples, textio

    path = workdir / "cold.machine"
    path.write_text(textio.serialize_machine(samples.five_state_machine()), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    times = []
    for _ in range(COLD_PROCESSES):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "roughfsm.cli", "validate", str(path)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
        )
        times.append((perf_counter() - start) * 1000)
        if done.returncode != 0:
            raise RuntimeError(f"cold validate exited {done.returncode}")
    return statistics.median(times)


def traced_run(workload, args, workdir):
    import ladder
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = "setup"
        with tracer.span("bench.setup"):
            ctx = workload.setup(args.seed, workdir)
    finally:
        tracer.uninstall()

    # The same ops run untraced, traced, then untraced again. The traced
    # time over the mean untraced time is the tracing overhead; taking the
    # untraced runs on both sides cancels warm-up and slow drift. Each of
    # the three passes takes about a third of --seconds, so the three
    # together measure about as long as an untraced run.
    gc.collect()
    ops, before, records = run_loop(workload, ctx, seconds=args.seconds / 3)
    tracer.install()
    try:
        _, traced, traced_records = run_loop(workload, ctx, ops=ops, tracer=tracer)
    finally:
        tracer.uninstall()
    _, after, after_records = run_loop(workload, ctx, ops=ops)
    all_records = records + traced_records + after_records
    failed, checked = check(workload, ctx, all_records, args.seed)

    metrics = tracing.layer_metrics(tracer)
    metrics["cli.cold_process_ms"] = (cold_process_ms(workdir), "ms")
    overhead = 2 * sum(traced) / (sum(before) + sum(after)) - 1
    metrics["trace.overhead_frac"] = (overhead, "frac")
    rows = ladder.run_ladder(args.seed)
    print(json.dumps({"ladder": rows}))

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.json.gz"
    tracer.write(trace_path, {"workload": workload.name, "seed": args.seed, "ladder": rows,
                              "metrics": {k: v for k, (v, _) in metrics.items()}})
    info = {"trace_file": str(trace_path.relative_to(ROOT)), "spans": len(tracer.spans),
            "checked": checked}
    return metrics, len(all_records), failed, info


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv), WORKLOADS


def main(argv=None) -> int:
    import_library()
    args, workloads = parse_args(argv)
    workload = workloads[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = traced_run if args.trace else plain_run
        metrics, attempted, failed, info = runner(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    info["wall_s"] = perf_counter() - RUN_START
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
