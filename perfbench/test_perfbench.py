"""Tests of the benchmark itself: the correctness gate, determinism, the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import drolab  # noqa: E402
import drolab.lp  # noqa: E402
import pace  # noqa: E402
import run as bench_run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload, digest, load_reference  # noqa: E402


def test_c06_control_op_counts_as_failed(tmp_path):
    # Corrupted Lipschitz metadata (scale 0.01) makes finite bounds fail to hold.
    wl = Workload("verify_w1_line", 7, tmp_path)
    clean_input = wl.op_input

    def corrupted(index):
        doc = clean_input(index)
        doc["cost"]["lip_scale"] = 0.01
        return doc

    wl.op_input = corrupted
    _, problems, _ = run_op(wl, 0)
    assert any("does not hold" in p for p in problems), problems


def test_perturbed_reference_value_counts_as_failed(tmp_path):
    reference = load_reference()
    assert reference is not None and reference["seed"] == DEFAULT_SEED
    perturbed = copy.deepcopy(reference)
    values = perturbed["workloads"]["run_kl_line"][0]
    key = sorted(values)[0]
    values[key] = values[key] * (1.0 + 1e-6) + 1e-6
    _, problems, _ = run_op(Workload("run_kl_line", DEFAULT_SEED, tmp_path, perturbed), 0)
    assert len(problems) == 1 and problems[0].startswith(f"{key} = "), problems


def _traced_ops(name: str, seed: int, workdir: Path, count: int) -> tuple[list[str], list[str], dict]:
    wl = Workload(name, seed, workdir, load_reference())
    tracer = Tracer()
    inputs, outputs = [], []
    for index in range(count):
        _, problems, output_digest = run_op(wl, index, tracer)
        assert problems == []
        inputs.append(digest(wl.op_input(index)))
        outputs.append(output_digest)
    timing_free = {
        name: value
        for name, value in tracer.metrics().items()
        if PER_LAYER_UNITS.get(name) != "s/op" and not name.startswith("trace.")
    }
    return inputs, outputs, timing_free


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_ops_and_counts(name, tmp_path):
    # Output directories of different path lengths must not change any count.
    first = _traced_ops(name, DEFAULT_SEED, tmp_path / "a", 2)
    second = _traced_ops(name, DEFAULT_SEED, tmp_path / "a-longer-output-directory", 2)
    assert first == second
    assert first[2]["lp.solve_lp.calls"] > 0
    other = Workload(name, DEFAULT_SEED + 1, tmp_path)
    assert [digest(other.op_input(i)) for i in range(2)] != first[0]


def test_tracer_rebinds_names_and_restores_them():
    originals = (drolab.lp.solve_lp, drolab.divergence.solve_lp, drolab.bayes.solve_lp, drolab.wasserstein)
    grid = drolab.SupportGrid.euclidean([[0.0], [1.0], [3.0]])
    a = drolab.DiscreteDistribution(grid, [0.2, 0.3, 0.5])
    b = drolab.DiscreteDistribution(grid, [0.3, 0.3, 0.4])
    with Tracer() as tracer:
        assert drolab.divergence.solve_lp is drolab.lp.solve_lp is drolab.bayes.solve_lp
        assert drolab.lp.solve_lp is not originals[0]
        drolab.wasserstein(a, b)
        tracer.add_op(1.0)
    assert (drolab.lp.solve_lp, drolab.divergence.solve_lp, drolab.bayes.solve_lp, drolab.wasserstein) == originals
    metrics = tracer.metrics()
    assert metrics["lp.solve_lp.calls"] == 1
    assert metrics["divergence.optimal_transport.calls"] == 1
    assert metrics["lp.iterations"] > 0


def test_removed_function_and_layer_read_zero(monkeypatch):
    # A later change may delete a public function or a whole layer module.
    monkeypatch.delattr(drolab.lp, "solve_lp")
    monkeypatch.setattr(tracer_mod, "LAYERS", (*tracer_mod.LAYERS, "no_such_layer"))
    grid = drolab.SupportGrid.euclidean([[0.0], [1.0]])
    with Tracer() as tracer:
        drolab.wasserstein(drolab.DiscreteDistribution(grid, [0.5, 0.5]), drolab.DiscreteDistribution(grid, [1, 0]))
        tracer.add_op(1.0)
    metrics = tracer.metrics()
    assert metrics["lp.solve_lp.calls"] == 0
    assert metrics["lp.iterations"] == 0
    assert metrics["divergence.optimal_transport.calls"] == 1
    assert set(PER_LAYER_UNITS) <= set(metrics) | {"trace.overhead_ratio"}


def test_pace_kernel_solves_a_w1_ball_lp():
    # The kernel must do real work: its LP is drolab's worst case over a W1 ball.
    grid = drolab.SupportGrid.euclidean(pace.POINTS[:, None])
    ball = drolab.AmbiguityBall(
        drolab.DiscreteDistribution(grid, pace.P0), pace.RADIUS, drolab.DivergenceKind.wasserstein_order(1.0)
    )
    value, _ = drolab.extremal_expectation(ball, pace.COSTS)
    assert pace.solve_once() == pytest.approx(value, abs=1e-9)


def test_pacer_samples_during_an_op_and_leaves_them_out():
    with pace.Pacer() as pacer:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.55:
            pass
        end = time.perf_counter()
        seconds = pacer.add_op(start, end)
    inside = [b - a for a, b in pacer.samples if start <= a and b <= end]
    assert len(inside) >= 4
    assert seconds == pytest.approx(end - start - sum(inside))
    assert pacer.scales == [pytest.approx(pace.PACE_REF_S * len(inside) / sum(inside))]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def test_run_without_source_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
