"""Outside-in span tracer for drolab's layers.

The tracer wraps, from outside the library, every public function of each
layer module and every public method of the classes those modules define
(plus ``__post_init__``, where construction-time checks live, and
``__call__``).  Each call records a span: wrapped name, start, end and the
span that was open when it began.  Spans stay in memory until
:meth:`Tracer.metrics` reduces them.

``from drolab.lp import solve_lp`` copies the binding into the importing
module, so after wrapping a function the tracer rebinds it in every loaded
``drolab`` module that holds it by name.  Layers and functions are found by
inspection, so a function that a later change removes is simply absent: its
metrics read 0 and nothing fails.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("support", "cost", "divergence", "lp", "solvers", "robustness", "bayes", "bounds", "experiment")
_WRAPPED_DUNDERS = ("__post_init__", "__call__")

# Every per-layer metric with its unit.  Times and counts are means per traced
# op; ratios are taken over all traced ops.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s/op" for layer in LAYERS},
    "lp.solve_lp.calls": "count/op",
    "lp.iterations": "count/op",
    "lp.iterations_per_call": "count/call",
    "lp.non_optimal": "count/op",
    "divergence.extremal_expectation.s": "s/op",
    "divergence.extremal_expectation.calls": "count/op",
    "divergence.extremal_expectation.wasserstein.calls": "count/op",
    "divergence.extremal_expectation.kl.calls": "count/op",
    "divergence.extremal_expectation.shortcut_ratio": "ratio",
    "divergence.optimal_transport.s": "s/op",
    "divergence.optimal_transport.calls": "count/op",
    "divergence.membership.calls": "count/op",
    "divergence.phi_divergence.calls": "count/op",
    "cost.cost_table.calls": "count/op",
    "cost.atom_costs.calls": "count/op",
    "solvers.calls": "count/op",
    "bounds.records": "count/op",
    "bounds.holds_ratio": "ratio",
    "robustness.calls": "count/op",
    "robustness.set_robustness.accept_ratio": "ratio",
    "bayes.calls": "count/op",
    "support.sample.calls": "count/op",
    "experiment.resolve_config.calls": "count/op",
    "experiment.bytes_written": "bytes/op",
    "trace.unaccounted_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans and counters of the calls made while the tracer is installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.op_latencies: list[float] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        self._probes = {
            "lp.solve_lp": _probe_lp,
            "divergence.extremal_expectation": _probe_extremal,
            "robustness.set_robustness": _probe_set_robustness,
            "experiment.run": _probe_run,
        }
        for suite in ("uniform_bound", "absolute_bound", "relative_bound", "minmax_one_sided_bound"):
            self._probes[f"bounds.{suite}"] = self._probe_bounds

    # -- installing --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every public function and method of the layer modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"drolab.{layer}")
            except ImportError:
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._wrapper_for(obj, f"{layer}.{name}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{layer}.{name}")
        self._rebind()
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_class(self, cls: type, qualname: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WRAPPED_DUNDERS:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrapper_for(member.__func__, f"{qualname}.{attr}"))
            elif inspect.isfunction(member):
                wrapped = self._wrapper_for(member, f"{qualname}.{attr}")
            else:
                continue
            self._restore.append((cls, attr, member))
            setattr(cls, attr, wrapped)

    def _rebind(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "drolab" or mod_name.startswith("drolab.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def _wrapper_for(self, fn, name: str):
        entry = self._wrappers.get(id(fn))
        if entry is not None:
            return entry[1]
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self._probes.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            record = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if probe is not None:
                try:
                    probe(counts, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError, OSError):
                    # A changed signature or result must not crash the run;
                    # the failure is counted and the run prints it.
                    counts["probe_failures"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        self._wrappers[id(fn)] = (fn, traced)
        return traced

    # -- recording ops -------------------------------------------------------

    def add_op(self, seconds: float) -> None:
        """Account one traced op of the given wall time."""
        self.op_latencies.append(seconds)

    def _probe_bounds(self, counts, args, kwargs, result) -> None:
        # Count records once, where they leave the bounds layer.
        if self._stack and self.names[self.spans[self._stack[-1]][0]].startswith("bounds."):
            return
        records = [rec for _, rec in record_pairs(result)]
        counts["bounds.records"] += len(records)
        counts["bounds.holds"] += sum(bool(rec.holds) for rec in records)

    # -- reducing ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, each the mean over the traced ops."""
        per_op = 1.0 / max(len(self.op_latencies), 1)
        op_seconds = sum(self.op_latencies)
        child = [0.0] * len(self.spans)
        for name_idx, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        layer_calls: dict[str, int] = defaultdict(int)
        root_s = 0.0
        for i, (name_idx, start, end, parent) in enumerate(self.spans):
            name = self.names[name_idx]
            layer = name.split(".", 1)[0]
            duration = end - start
            self_s[layer] += duration - child[i]
            inclusive[name] += duration
            calls[name] += 1
            layer_calls[layer] += 1
            if parent < 0:
                root_s += duration

        c = self.counts
        lp_calls = calls["lp.solve_lp"]
        extremal = calls["divergence.extremal_expectation"]
        records = c["bounds.records"]
        out = {f"{layer}.self_s": self_s[layer] * per_op for layer in LAYERS}
        out.update(
            {
                "lp.solve_lp.calls": lp_calls * per_op,
                "lp.iterations": c["lp.iterations"] * per_op,
                "lp.iterations_per_call": c["lp.iterations"] / lp_calls if lp_calls else 0.0,
                "lp.non_optimal": (c["lp.non_optimal"] + c["lp.solve_lp.raised"]) * per_op,
                "divergence.extremal_expectation.s": inclusive["divergence.extremal_expectation"] * per_op,
                "divergence.extremal_expectation.calls": extremal * per_op,
                "divergence.extremal_expectation.wasserstein.calls": c["extremal.wasserstein"] * per_op,
                "divergence.extremal_expectation.kl.calls": c["extremal.kl"] * per_op,
                "divergence.extremal_expectation.shortcut_ratio": c["extremal.shortcut"] / extremal if extremal else 0.0,
                "divergence.optimal_transport.s": inclusive["divergence.optimal_transport"] * per_op,
                "divergence.optimal_transport.calls": calls["divergence.optimal_transport"] * per_op,
                "divergence.membership.calls": calls["divergence.membership"] * per_op,
                "divergence.phi_divergence.calls": calls["divergence.phi_divergence"] * per_op,
                "cost.cost_table.calls": calls["cost.cost_table"] * per_op,
                "cost.atom_costs.calls": calls["cost.CostFunction.atom_costs"] * per_op,
                "solvers.calls": layer_calls["solvers"] * per_op,
                "bounds.records": records * per_op,
                "bounds.holds_ratio": c["bounds.holds"] / records if records else 0.0,
                "robustness.calls": layer_calls["robustness"] * per_op,
                "robustness.set_robustness.accept_ratio": (
                    c["set_robustness.accepted"] / c["set_robustness.budget"] if c["set_robustness.budget"] else 0.0
                ),
                "bayes.calls": layer_calls["bayes"] * per_op,
                "support.sample.calls": calls["support.sample"] * per_op,
                "experiment.resolve_config.calls": calls["experiment.resolve_config"] * per_op,
                "experiment.bytes_written": c["experiment.bytes_written"] * per_op,
                "trace.unaccounted_ratio": 1.0 - root_s / op_seconds if op_seconds else 0.0,
            }
        )
        return out

    def dump(self, path: Path) -> None:
        """Write the spans, one tab-separated line each: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            for name_idx, start, end, parent in self.spans:
                fh.write(f"{self.names[name_idx]}\t{start!r}\t{end!r}\t{parent}\n")


# -- probes: counters read from a wrapped call's arguments and result ----------


def record_pairs(result) -> list:
    """The (gap, record) pairs in the return value of a bounds suite."""
    if isinstance(result, tuple) and len(result) == 3:  # (gap, record, solution)
        return [(result[0], result[1])]
    if isinstance(result, tuple):  # (pairs, solution)
        return list(result[0])
    return list(result)


def _probe_lp(counts, args, kwargs, result) -> None:
    counts["lp.iterations"] += getattr(result, "iterations", 0)
    if getattr(result, "status", "optimal") != "optimal":
        counts["lp.non_optimal"] += 1


def _probe_extremal(counts, args, kwargs, result) -> None:
    ball = args[0] if args else kwargs.get("ball")
    kind = ball.kind
    if kind.family == "wasserstein":
        counts["extremal.wasserstein"] += 1
        shortcut = ball.radius == 0.0 or ball.radius >= ball.center.grid.diameter
    else:
        counts[f"extremal.{kind.generator}"] += 1
        shortcut = ball.radius == 0.0
    counts["extremal.shortcut"] += shortcut


def _probe_set_robustness(counts, args, kwargs, result) -> None:
    counts["set_robustness.accepted"] += result.diagnostics.get("random_accepted", 0)
    counts["set_robustness.budget"] += result.diagnostics.get("budget", 0)


def _probe_run(counts, args, kwargs, result) -> None:
    # The record's wall_time_s digits vary from run to run, and its csv_path
    # depends on where the output directory is; leaving both out keeps the
    # count the same on every run and in every checkout.
    csv_path = Path(result["csv_path"])
    written = csv_path.stat().st_size + (csv_path.parent / "run_record.json").stat().st_size
    written -= len(repr(result["wall_time_s"])) + len(json.dumps(result["csv_path"]))
    counts["experiment.bytes_written"] += written
