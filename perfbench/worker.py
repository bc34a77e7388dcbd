"""One benchmark process: set up a workload, then run its ops in a closed loop.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to one
thread.  It prints ``setup-done`` once the first, untimed op has finished, so
the parent can time set-up from process start, and in ``measure`` mode it then
prints one JSON line with what it measured.

    python3 perfbench/worker.py --mode {setup,measure} --workload NAME --seed N
                                [--seconds S] [--trace 0|1]
    python3 perfbench/worker.py --mode record   # rewrite reference.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import drolab  # noqa: E402  (PYTHONPATH points at the checkout's src/)

from pace import Pacer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFERENCE_OPS,
    REFERENCE_PATH,
    WORKLOADS,
    Workload,
    digest,
    load_reference,
)


def run_op(
    wl: Workload, index: int, tracer: Tracer | None = None, pacer: Pacer | None = None
) -> tuple[float, list[str], str]:
    """Execute op ``index``; returns (seconds, problems, output digest).  With a
    pacer, the seconds leave out the pace samples taken during the op."""
    inp = wl.op_input(index)
    error = None
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            raw = wl.execute(inp)
        except Exception:  # an op that raises is a failed op; the loop goes on
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = end - start if pacer is None else pacer.add_op(start, end)
    if tracer is not None:
        tracer.add_op(seconds)
    if error is not None:
        return seconds, [error], ""
    summary = wl.summarize(inp, raw)
    return seconds, wl.check(index, summary), digest(summary)


def _setup(name: str, seed: int, workdir: Path) -> tuple[Workload, list[str]]:
    wl = Workload(name, seed, workdir, load_reference())
    _, problems, _ = run_op(wl, 0)
    print("setup-done", flush=True)
    return wl, problems


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    wl, problems = _setup(name, seed, workdir)
    failures = [(0, problems)] if problems else []
    latencies: list[float] = []
    ref_latencies: list[float] = []
    untraced: list[float] = []
    op_seconds = ref_op_seconds = 0.0
    tracer = Tracer() if trace else None
    pacer = None if trace else Pacer()
    index = 1
    start = time.perf_counter()
    with pacer or contextlib.nullcontext():
        while time.perf_counter() - start < seconds:
            if tracer is None:
                dt, problems, _ = run_op(wl, index, pacer=pacer)
                ref_dt = dt * pacer.scales[-1]  # the op's time at the reference speed
            else:
                # Each op runs untraced and traced, in alternating order, so the
                # pair gives the tracing overhead; both must give the same output.
                traced_first = index % 2 == 1
                dt_a, problems_a, digest_a = run_op(wl, index, tracer if traced_first else None)
                dt_b, problems_b, digest_b = run_op(wl, index, None if traced_first else tracer)
                dt, dt_plain = (dt_a, dt_b) if traced_first else (dt_b, dt_a)
                problems = problems_a + problems_b
                if digest_a != digest_b:
                    problems.append("traced and untraced outputs differ")
                untraced.append(dt_plain)
                ref_dt = dt
            op_seconds += dt
            ref_op_seconds += ref_dt
            if problems:
                failures.append((index, problems))
            else:
                latencies.append(dt)
                ref_latencies.append(ref_dt)
            index += 1
    result = {
        "attempted": index,
        "failed": len(failures),
        "failures": [{"op": i, "problems": p} for i, p in failures[:5]],
        "latencies_s": latencies,
        "op_seconds": op_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if pacer is not None:
        result.update(
            mean_pace_s=pacer.mean_sample_s(),
            pace_samples=len(pacer.samples),
            ref_latencies_s=ref_latencies,
            ref_op_seconds=ref_op_seconds,
        )
    else:
        metrics = tracer.metrics()
        traced_median = statistics.median(tracer.op_latencies)
        metrics["trace.overhead_ratio"] = traced_median / statistics.median(untraced) - 1.0
        result["per_layer"] = metrics
        result["probe_failures"] = int(tracer.counts["probe_failures"])
        tracer.dump(OUT / f"spans-{name}-seed{seed}.tsv")
    return result


def record(workdir: Path) -> None:
    """Record the witness-independent values of the first ``REFERENCE_OPS`` ops
    of every workload at ``DEFAULT_SEED``."""
    reference = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in WORKLOADS:
        wl = Workload(name, DEFAULT_SEED, workdir)
        values = []
        for index in range(REFERENCE_OPS):
            inp = wl.op_input(index)
            summary = wl.summarize(inp, wl.execute(inp))
            problems = wl.check(index, summary)
            if problems:
                raise SystemExit(f"{name} op {index} fails its invariants: {problems}")
            values.append(summary["values"])
        reference["workloads"][name] = values
        print(f"{name}: {REFERENCE_OPS} ops recorded", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--mode", choices=("setup", "measure", "record"), required=True)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(drolab.__file__).resolve().parents:
        print(f"drolab was imported from {drolab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.mode != "record" and args.workload is None:
        parser.error("--workload is required")
    workdir = OUT / f"work-{args.workload or 'record'}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.mode == "record":
            record(workdir)
        elif args.mode == "setup":
            _, problems = _setup(args.workload, args.seed, workdir)
            failures = [{"op": 0, "problems": problems}] if problems else []
            print(json.dumps({"failed": len(failures), "failures": failures}), flush=True)
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
