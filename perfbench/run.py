"""Run one workload of the drolab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark compiles ``src/`` (its build
step), then starts fresh single-threaded worker processes (``worker.py``) that
import drolab from the checkout's ``src/``:

- ``SETUP_PROBES`` processes that each stop after set-up, and the measuring
  process, give ``setup_s``: from process start to the end of the first,
  untimed op.  The median of these samples is reported.
- The measuring process then runs ops in a closed loop with one client and no
  think time for ``--seconds``, checking every op's output.  Meanwhile a
  ``pace.Pacer`` times a fixed kernel every 0.1 s.

Times are reported in seconds at a fixed machine speed, because the shared
host's speed drifts within and between runs: each op's latency is scaled by
``PACE_REF_S`` / (the mean kernel time during the op), and ``setup_s`` by
``PACE_REF_S`` / (the run's mean kernel time).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The lines before it give the same numbers for a reader.  The exit
code is non-zero, and no result is printed, if the checkout has no drolab
source or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from pace import PACE_REF_S
from tracer import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify_w1_line", "run_kl_line", "report_w1_plane")
SETUP_PROBES = 2
TAIL_SAMPLES = 10  # op_tail_ref_s is the highest percentile with this many samples above it
UNACCOUNTED_LIMIT = 0.05
DEADLINE_MARGIN_S = 140.0  # workers still running this long after --seconds are killed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "op_p50_ref_s": "s",
    "op_tail_ref_s": "s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every worker
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(mode: str, args: argparse.Namespace) -> subprocess.Popen:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    return subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True)


def _run_worker(mode: str, args: argparse.Namespace, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (seconds from start to set-up done, its JSON result)."""
    start = time.perf_counter()
    proc = _start_worker(mode, args)
    # A worker still running at the deadline is killed, which ends the reads below.
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "setup-done" or proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker failed (exit code {proc.returncode}, first line {line!r})")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, samples above it) of the highest percentile with
    TAIL_SAMPLES samples above it, or of the median when there are too few
    samples for that."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_SAMPLES - 1, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    if not (ROOT / "src" / "drolab" / "__init__.py").is_file():
        print(f"no drolab source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], cwd=ROOT)
    if build.returncode != 0:
        print("compiling src/ failed", file=sys.stderr)
        return 1

    try:
        setup_samples = [_run_worker("setup", args, deadline) for _ in range(0 if args.trace else SETUP_PROBES)]
        setup_s, result = _run_worker("measure", args, deadline)
    except (BenchmarkError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failures = result["failures"] + [f for _, sample in setup_samples for f in sample["failures"]]
    failed = result["failed"] + sum(sample["failed"] for _, sample in setup_samples)
    attempted = result["attempted"] + len(setup_samples)
    latencies = result["latencies_s"]
    if not latencies:
        print("no op completed", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    print(f"ops: {attempted} attempted, {failed} failed, op_fail_ratio {failed / attempted!r}")
    for failure in failures:
        print(f"failed op: {failure}")

    if args.trace:
        metrics = result["per_layer"]
        unaccounted = metrics["trace.unaccounted_ratio"]
        for name in sorted(metrics):
            print(f"{name} = {metrics[name]!r} {PER_LAYER_UNITS[name]}")
        print(f"probe failures (counters that could not be read): {result['probe_failures']}")
        if unaccounted > UNACCOUNTED_LIMIT:
            print(f"trace.unaccounted_ratio {unaccounted:.4f} exceeds {UNACCOUNTED_LIMIT}", file=sys.stderr)
            return 1
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        samples = [setup_s, *(s for s, _ in setup_samples)]
        mean_pace = result["mean_pace_s"]
        ref = result["ref_latencies_s"]
        tail_s, tail_pct, above = tail(latencies)
        values = {
            "setup_s": statistics.median(samples) * PACE_REF_S / mean_pace,
            "ops_per_ref_s": len(ref) / result["ref_op_seconds"],
            "op_p50_ref_s": statistics.median(ref),
            "op_tail_ref_s": tail(ref)[0],
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"pace: mean {mean_pace!r} s over {result['pace_samples']} samples, reference {PACE_REF_S} s")
        print(f"setup_s = {values['setup_s']!r} s (median of {len(samples)} fresh processes, scaled by the mean "
              f"pace; raw {samples})")
        print(f"ops_per_ref_s = {values['ops_per_ref_s']!r} 1/s ({len(ref)} ops in {result['ref_op_seconds']!r} s "
              f"of ops; raw {len(latencies) / result['op_seconds']!r} 1/s)")
        print(f"op_p50_ref_s = {values['op_p50_ref_s']!r} s (n={len(ref)}; raw {statistics.median(latencies)!r} s)")
        print(f"op_tail_ref_s = {values['op_tail_ref_s']!r} s (p{tail_pct:.1f}, {above} samples above, "
              f"n={len(ref)}; raw {tail_s!r} s)")
        print(f"peak_rss_mb = {values['peak_rss_mb']!r} MB")
        out = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
