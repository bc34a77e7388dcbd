"""The benchmark's workloads: op inputs, op execution and the correctness gate.

A workload turns ``(seed, op index)`` into the inputs of one op, runs the op
through drolab's public functions, and reduces what the op returned to a
summary that the gate checks.  An op is one user-level call, as a command-line
user would make it:

- ``verify_w1_line``: resolve a two-task config (n=10 and n=40) and call
  ``verify_bounds`` on it (the falsification harness; Wasserstein ball LPs
  dominate).
- ``run_kl_line``: resolve a one-task config with six methods and call ``run``,
  which writes ``results.csv`` and ``run_record.json`` (forward-KL tilting
  dominates).
- ``report_w1_plane``: one robustness report of a fresh centre on a 2-D grid,
  nine calls through ``solvers``, ``robustness`` and ``bayes`` (ball and
  transport LPs on a metric that is not a line).

The gate checks invariants on every op and, for ``DEFAULT_SEED``, compares the
values that do not depend on which optimal witness an oracle returns against
``reference.json``.  Numbers that do depend on the witness are checked as
inequalities only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from tracer import record_pairs

# Library functions are looked up on their modules at call time, so that the
# tracer's wrappers are the ones called while it is installed.
from drolab import (
    AmbiguityBall,
    DecisionSpace,
    DirichletPrior,
    DiscreteDistribution,
    DivergenceKind,
    Infeasible,
    SupportGrid,
    bayes,
    experiment,
    make_cost,
    robustness,
    solvers,
)

WORKLOADS = ("verify_w1_line", "run_kl_line", "report_w1_plane")
DEFAULT_SEED = 0
REFERENCE_OPS = 48  # ops per workload recorded in reference.json
REFERENCE_PATH = Path(__file__).with_name("reference.json")
TOL = 1e-9

# Record kinds whose gap and bound do not depend on the oracle's witness.
_VALUE_KINDS = ("uniform", "absolute_nominal", "absolute_dro", "minmax_one_sided")

_KL = {"kind": "kl", "orientation": "forward"}


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOL * max(1.0, abs(b))


def digest(obj) -> str:
    """Digest of an op's inputs or of its checked output."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


class Workload:
    """Op inputs, execution and checks of one workload at one seed."""

    def __init__(self, name: str, seed: int, workdir: Path, reference: dict | None = None) -> None:
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self._input = getattr(self, f"_input_{name}")
        self._execute = getattr(self, f"_execute_{name}")
        self._summarize = getattr(self, f"_summarize_{name}")
        self._invariants = getattr(self, f"_invariants_{name}")
        if name == "report_w1_plane":
            axis = [-1.0, 0.0, 1.0]
            self.grid = SupportGrid.euclidean([[a, b] for a in axis for b in axis])
            self.space = DecisionSpace.interval(-2.0, 2.0, 21)
            self.cf = make_cost("linreg", grid=self.grid, space=self.space)
            self.w1 = DivergenceKind.wasserstein_order(1.0)

    # -- the public surface used by the worker and the tests ---------------

    def op_input(self, index: int) -> dict:
        """JSON-serialisable inputs of op ``index``, derived from the seed only."""
        return self._input(_rng(self.seed, self.name, index))

    def execute(self, inp: dict):
        """Run one op; this is the timed region."""
        return self._execute(inp)

    def summarize(self, inp: dict, raw) -> dict:
        """Reduce an op's result to plain numbers (untimed)."""
        return self._summarize(inp, raw)

    def check(self, index: int, summary: dict) -> list[str]:
        """Problems with an op's output; an empty list means the op passed."""
        problems = self._invariants(summary)
        if self.reference is not None and self.seed == self.reference["seed"]:
            recorded = self.reference["workloads"].get(self.name, [])
            if index < len(recorded):
                problems.extend(_compare(summary["values"], recorded[index]))
        return problems

    # -- verify_w1_line ------------------------------------------------------

    def _input_verify_w1_line(self, rng: np.random.Generator) -> dict:
        return {
            "grid": {"atoms": [[float(v)] for v in range(16)]},
            "p0": {"weights": rng.dirichlet(np.full(16, 2.0)).tolist()},
            "cost": {"name": "newsvendor", "params": {"b": 2.0, "c": 1.0}},
            "space": {"interval": {"lo": 0.0, "hi": 15.0, "num": 13}},
            "methods": [{"method": "saa"}],
            # Both sample sizes in every op: a task at n=40 takes ~30% longer
            # than one at n=10, so ops of one size each would split the
            # latencies into two modes and put the median in the gap.
            "n": [10, 40],
            "replications": 1,
            "seed": int(rng.integers(2**31)),
        }

    def _execute_verify_w1_line(self, doc: dict):
        # verify_bounds reports only violations, so the records it checked are
        # read back through the bounds suites it calls (see RecordCapture).
        with RecordCapture() as capture:
            ok, report = experiment.verify_bounds(experiment.resolve_config(doc))
        return ok, report, capture.records

    def _summarize_verify_w1_line(self, doc: dict, raw) -> dict:
        ok, report, records = raw
        rows = [_record_row(gap, rec) for gap, rec in records]
        return {
            "ok": bool(ok),
            "checked": int(report["checked"]),
            "violations": len(report["violations"]),
            "rows": rows,
            "values": _row_values(rows),
        }

    def _invariants_verify_w1_line(self, s: dict) -> list[str]:
        problems = []
        if not s["ok"] or s["violations"]:
            problems.append(f"verify_bounds reported {s['violations']} violation(s)")
        if s["checked"] != 36 or len(s["rows"]) != 36:
            problems.append(f"expected 36 bound records, got {s['checked']} checked / {len(s['rows'])} seen")
        problems.extend(_rows_hold(s["rows"]))
        return problems

    # -- run_kl_line -----------------------------------------------------------

    def _input_run_kl_line(self, rng: np.random.Generator) -> dict:
        m = 12
        # Half of p0's mass is uniform, so every atom has weight >= 1/24 and a
        # sample of 400 covers p0's support: the auto KL radius stays finite.
        p0 = 0.5 / m + 0.5 * rng.dirichlet(np.ones(m))
        prior = {"weights": rng.dirichlet(np.full(m, 2.0)).tolist()}
        return {
            "grid": {"atoms": [[float(v)] for v in np.linspace(-3.0, 3.0, m)]},
            "p0": {"weights": (p0 / p0.sum()).tolist()},
            "cost": {"name": "huber", "params": {"delta": 1.0}},
            "space": {"interval": {"lo": -3.0, "hi": 3.0, "num": 61}},
            "methods": [
                {"method": "saa"},
                {"method": "reg_saa", "lambda": 0.5, "prior": prior},
                {"method": "bayes_dp", "alpha": 5.0, "prior": prior},
                {"method": "minmax_dro", "eps": "auto", "divergence": _KL},
                {"method": "abs_dro", "eps": "auto", "divergence": _KL},
                {"method": "satisficing", "divergence": _KL},
            ],
            "n": [400],
            "replications": 1,
            "seed": int(rng.integers(2**31)),
        }

    def _execute_run_kl_line(self, doc: dict):
        return experiment.run(experiment.resolve_config(doc, output_override=str(self.workdir)))

    def _summarize_run_kl_line(self, doc: dict, record: dict) -> dict:
        csv_bytes = (self.workdir / "results.csv").read_bytes()
        rows = []
        for row in csv.DictReader(io.StringIO(csv_bytes.decode())):
            ingredients = json.loads(row["ingredients_json"])
            rows.append(
                {
                    "kind": row["kind"],
                    "method": ingredients["method"],
                    "gap": float(row["gap"]),
                    "bound": float(row["bound"]),
                    "holds": row["holds"] == "True",
                    "l_star_lower": ingredients.get("l_star_lower"),
                }
            )
        solutions = [
            {"method": s["method"], "objective": s["solution"]["objective_value"], "measure": s["solution"]["measure"]}
            for s in record["solutions"]
        ]
        values = _row_values(rows)
        for sol in solutions:
            values[f"{sol['method']}.objective"] = sol["objective"]
            if sol["measure"] is not None:
                values[f"{sol['method']}.measure"] = sol["measure"]
        return {
            "errors": list(record["errors"]),
            "row_count": int(record["row_count"]),
            "holds_violations": int(record["holds_violations"]),
            "methods": [s["method"] for s in solutions],
            "rows": rows,
            "csv_sha256": hashlib.sha256(csv_bytes).hexdigest(),
            "values": values,
        }

    def _invariants_run_kl_line(self, s: dict) -> list[str]:
        problems = [f"run() recorded an error: {e}" for e in s["errors"]]
        if s["row_count"] != 8 or len(s["rows"]) != 8:
            problems.append(f"expected 8 result rows, got {s['row_count']} recorded / {len(s['rows'])} in the CSV")
        if len(s["methods"]) != 6:
            problems.append(f"expected 6 solutions, got {len(s['methods'])}")
        problems.extend(_rows_hold(s["rows"]))
        return problems

    # -- report_w1_plane ---------------------------------------------------------

    def _input_report_w1_plane(self, rng: np.random.Generator) -> dict:
        return {
            "center": rng.dirichlet(np.full(9, 3.0)).tolist(),
            "prior": rng.dirichlet(np.full(9, 3.0)).tolist(),
            "seed": int(rng.integers(2**31)),
        }

    def _execute_report_w1_plane(self, inp: dict) -> dict:
        center = DiscreteDistribution(self.grid, np.asarray(inp["center"]))
        cf, space, kind = self.cf, self.space, self.w1
        ball = AmbiguityBall(center, 0.2, kind)
        saa = solvers.solve_saa(center, cf, space)
        out = {"saa": saa, "minmax": solvers.solve_minmax_dro(ball, cf, space)}
        out["satisficing"] = solvers.solve_robust_satisficing(center, cf, space, kind, sided="one")
        out["absolute"] = robustness.absolute_measure(saa.x, saa.objective_value, ball, cf)
        out["relative"] = robustness.relative_measure(saa.x, saa.objective_value, kind, center, cf)
        out["local"] = robustness.local_measure(space, center, saa.objective_value, cf, kind, "objective")
        out["set"] = robustness.set_robustness(ball, cf, space, "objective", budget=4, seed=inp["seed"])
        out["pac"] = robustness.pac_robustness(
            DirichletPrior(center, 10.0), cf, saa.x, saa.objective_value, level=2.0, mc_draws=10_000,
            seed=inp["seed"],
        )
        f = bayes.regularizer_from_prior(DiscreteDistribution(self.grid, np.asarray(inp["prior"])), cf)
        out["regularizer"] = f
        out["prior"] = bayes.prior_from_regularizer(f, cf, list(space), self.grid)
        return out

    def _summarize_report_w1_plane(self, inp: dict, out: dict) -> dict:
        saa, minmax, sat = out["saa"], out["minmax"], out["satisficing"]
        lip = [float(self.cf.lip_in_xi(x)) for x in self.space]
        prior = out["prior"]
        residual = math.inf
        if not isinstance(prior, Infeasible):
            # Moments of the recovered prior, from an independent copy of the
            # linreg cost h(s, (a, b)) = (b - s * a)**2.
            atoms = self.grid.atoms
            slopes = self.space.points[:, 0]
            h = (atoms[None, :, 1] - slopes[:, None] * atoms[None, :, 0]) ** 2
            targets = np.array([out["regularizer"](x) for x in self.space])
            residual = float(np.max(np.abs(h @ prior.weights - targets)))
        values = {
            "saa.objective": saa.objective_value,
            "minmax.objective": minmax.objective_value,
            "minmax.measure": minmax.measure,
            "satisficing.measure": sat.measure,
            "absolute.measure": out["absolute"].measure,
            "absolute.max_value": out["absolute"].diagnostics["max_value"],
            "absolute.min_value": out["absolute"].diagnostics["min_value"],
            "relative.measure": out["relative"].measure,
            "local.measure": out["local"].measure,
            "set.random_accepted": out["set"].diagnostics["random_accepted"],
            "pac.confidence": out["pac"].confidence,
            "pac.empirical_probability": out["pac"].diagnostics["empirical_probability"],
        }
        return {
            "values": values,
            "set_measure": out["set"].measure,
            "set_budget": out["set"].diagnostics["budget"],
            "pac_sigma": out["pac"].diagnostics["empirical_sigma"],
            "satisficing_certificate": sat.diagnostics["upper_certificate"],
            "relative_certificate": out["relative"].diagnostics["upper_certificate"],
            "lip_at_saa": lip[saa.x_index],
            "lip_max": max(lip),
            "radius": 0.2,
            "prior_residual": residual,
        }

    def _invariants_report_w1_plane(self, s: dict) -> list[str]:
        v, eps = s["values"], s["radius"]
        checks = {
            "values are finite": all(math.isfinite(x) for x in v.values()) and math.isfinite(s["set_measure"]),
            "worst case >= nominal optimum": v["minmax.objective"] >= v["saa.objective"] - TOL,
            "min-max value <= nominal + L*eps at the SAA decision": (
                v["minmax.objective"] <= v["saa.objective"] + s["lip_at_saa"] * eps + TOL
            ),
            "0 <= absolute measure <= L*eps": 0.0 <= v["absolute.measure"] <= s["lip_at_saa"] * eps + TOL,
            "extremal values bracket the nominal value": (
                v["absolute.min_value"] - TOL <= v["saa.objective"] <= v["absolute.max_value"] + TOL
            ),
            "0 <= relative measure <= certificate": 0.0 <= v["relative.measure"] <= s["relative_certificate"] + TOL,
            "0 <= satisficing measure <= certificate": (
                0.0 <= v["satisficing.measure"] <= s["satisficing_certificate"] + TOL
            ),
            "local measure >= 0": v["local.measure"] >= 0.0,
            "0 <= set spread <= max L * eps": 0.0 <= s["set_measure"] <= s["lip_max"] * eps + TOL,
            "accepted candidates <= budget": 0 <= v["set.random_accepted"] <= s["set_budget"],
            "Markov bound in [0, 1] and below the Monte-Carlo estimate": (
                0.0 <= v["pac.confidence"] <= 1.0
                and v["pac.confidence"] <= v["pac.empirical_probability"] + 5.0 * s["pac_sigma"] + TOL
            ),
            "recovered prior reproduces the regularizer": s["prior_residual"] <= 1e-8,
        }
        return [f"invariant failed: {name}" for name, ok in checks.items() if not ok]


class RecordCapture:
    """Collects the (gap, bound) record pairs the bounds suites return to
    ``drolab.experiment`` while the context is open."""

    _SUITES = ("uniform_bound", "absolute_bound", "relative_bound", "minmax_one_sided_bound")

    def __init__(self) -> None:
        self.records: list = []
        self._saved: dict = {}

    def __enter__(self) -> "RecordCapture":
        for name in self._SUITES:
            fn = getattr(experiment, name, None)
            if fn is not None:
                self._saved[name] = fn
                setattr(experiment, name, self._capturing(fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved.items():
            setattr(experiment, name, fn)

    def _capturing(self, fn):
        def capture(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.records.extend(record_pairs(result))
            return result

        return capture


def _record_row(gap, rec) -> dict:
    return {
        "kind": rec.kind,
        "gap": float(rec.observed),
        "bound": float(rec.bound),
        "holds": bool(rec.holds),
        "l_star_lower": rec.ingredients.get("l_star_lower"),
    }


def _row_values(rows: list[dict]) -> dict:
    """Witness-independent numbers of a list of bound rows, keyed by position."""
    values = {}
    for i, row in enumerate(rows):
        key = f"{i}.{row['kind']}"
        if row["kind"] in _VALUE_KINDS:
            values[f"{key}.gap"] = row["gap"]
            values[f"{key}.bound"] = row["bound"]
        elif row["kind"] == "relative_nominal":
            values[f"{key}.gap"] = row["gap"]
        if row["l_star_lower"] is not None:
            values[f"{key}.l_star_lower"] = row["l_star_lower"]
    return values


def _rows_hold(rows: list[dict]) -> list[str]:
    return [
        f"finite {row['kind']} bound {row['bound']!r} does not hold for gap {row['gap']!r}"
        for row in rows
        if math.isfinite(row["bound"]) and not row["holds"]
    ]


def _compare(values: dict, recorded: dict) -> list[str]:
    problems = []
    if set(values) != set(recorded):
        problems.append(f"value keys differ from the reference: {sorted(set(values) ^ set(recorded))}")
    for key in sorted(set(values) & set(recorded)):
        if not _close(float(values[key]), float(recorded[key])):
            problems.append(f"{key} = {values[key]!r} differs from the reference {recorded[key]!r}")
    return problems


def load_reference() -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text())
