"""Config-driven experiment runner: validation, execution, persistence.

A run executes every configured method across the n-sweep and replications,
collects gap and bound records, and writes a CSV of one row per record plus
a JSON run record.  Everything is deterministic given the config and seed;
per-replication seeds are derived from ``(seed, n, replication)`` and stored
in the rows so any number can be replayed through library calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

import drolab
from drolab.bayes import regularizer_from_prior
from drolab.bounds import (
    BoundRecord,
    GapRecord,
    absolute_bound,
    minmax_one_sided_bound,
    relative_bound,
    uniform_bound,
)
from drolab.cost import CostFunction, DecisionSpace, cost_from_json
from drolab.divergence import DIVERGENCE_FIELD, DIVERGENCE_KINDS, ORIENTATIONS, AmbiguityBall, DivergenceKind
from drolab.solvers import (
    Solution,
    solve_absolute_dro,
    solve_bayes_dp,
    solve_minmax_dro,
    solve_regularized_saa,
    solve_robust_satisficing,
    solve_saa,
)
from drolab.support import (
    RNG_ALGORITHM,
    ConfigError,
    DiscreteDistribution,
    SampleSet,
    SupportGrid,
    derive_seed,
    empirical,
    load_json,
    mixture,
    sample,
)

CSV_HEADER = ["kind", "n", "seed", "x_star", "gap", "bound", "holds", "ingredients_json"]
OUTPUT_DIR_ENV = "DROLAB_OUTPUT_DIR"


@dataclass(frozen=True)
class Problem:
    """What a decision method reads: the nominal ``center`` (a replication's
    empirical distribution in :func:`run`) and its setting; the truth ``p0``
    is known to :func:`run` only."""

    center: DiscreteDistribution
    cf: CostFunction
    space: DecisionSpace
    prior: DiscreteDistribution | None = None
    samples: SampleSet | None = None
    p0: DiscreteDistribution | None = None

    def need(self, field: str):
        """A field problem documents may omit; raises when it is missing."""
        if getattr(self, field) is None:
            raise ConfigError(f"problem document misses {field!r}")
        return getattr(self, field)


# Config checks: each takes (JSON pointer, value) and raises ConfigError as
# "<pointer>: <message>".  Numbers are finite and never booleans; an integer
# may be written as an integral float (10.0).
def _fail(ptr: str, message: str) -> NoReturn:
    raise ConfigError(f"{ptr or '/'}: {message}")


def _number(lo=-math.inf, hi=math.inf, above=False, integer=False, inf_ok=False):
    """A finite number in ``[lo, hi]`` (``(lo, hi]`` if ``above``); ``inf_ok`` admits +inf."""

    def check(ptr: str, v) -> None:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or (integer and v % 1):
            _fail(ptr, f"{v!r} is not {'an integer' if integer else 'a number'}")
        if v != v or (abs(v) == math.inf and not (inf_ok and v > 0)):
            _fail(ptr, f"{v!r} is not finite")
        if v < lo or (above and v == lo):
            _fail(ptr, f"{v!r} must be {'>' if above else '>='} {lo:g}")
        if v > hi:
            _fail(ptr, f"{v!r} must be <= {hi:g}")

    return check


def _string(ptr: str, v) -> None:
    if not isinstance(v, str):
        _fail(ptr, f"{v!r} is not a string")


def _choice(noun: str, options: tuple[str, ...]):
    def check(ptr: str, v) -> None:
        if not isinstance(v, str) or v not in options:
            _fail(ptr, f"unknown {noun} {v!r}; available: {list(options)}")

    return check


def _array(item, nonempty: bool = True):
    def check(ptr: str, v) -> None:
        if not isinstance(v, list) or (nonempty and not v):
            _fail(ptr, f"must be {'a nonempty' if nonempty else 'an'} array")
        for i, x in enumerate(v):
            item(f"{ptr}/{i}", x)

    return check


def _rows(item, name: str, unit: str, nonempty: bool = True):
    """An array of arrays of ``item``, each as long as the first."""
    rows = _array(_array(item, nonempty), nonempty)

    def check(ptr: str, v) -> None:
        rows(ptr, v)
        for i, row in enumerate(v):
            if len(row) != len(v[0]):
                _fail(f"{ptr}/{i}", f"has {len(row)} {unit}{'s' * (len(row) != 1)}, {name} 0 has {len(v[0])}")

    return check


def _object(required: dict, optional: dict | None = None, other=None):
    """An object with every key of ``required``, any of ``optional`` and no
    other, unless ``other`` checks the value of any other key."""
    fields = {**required, **(optional or {})}

    def check(ptr: str, v) -> None:
        if not isinstance(v, dict):
            _fail(ptr, "must be an object")
        for key in required:
            if key not in v:
                _fail(ptr, f"missing {key!r}")
        for key, x in v.items():
            if key not in fields and other is None:
                _fail(f"{ptr}/{key}", f"unknown key {key!r}")
            fields.get(key, other)(f"{ptr}/{key}", x)

    return check


def _space(ptr: str, v) -> None:
    _object({}, {"points": _POINTS, "interval": _INTERVAL})(ptr, v)
    if len(v) != 1:
        _fail(ptr, "needs exactly one of 'points' and 'interval'")


_NONNEG, _COUNT, _INDEX = _number(0.0), _number(1, integer=True), _number(0, integer=True)
_POINTS = _rows(_number(), "point", "coordinate")
_INTERVAL = _object({"lo": _number(), "hi": _number(), "num": _COUNT})
_WEIGHTS = _object({"weights": _array(_NONNEG)})
_METRIC_ROWS = _rows(_NONNEG, "row", "number", nonempty=False)
_METRIC = {"metric": lambda ptr, v: None if v is None else _METRIC_ROWS(ptr, v)}
# The sections that configs and problem documents share.
_SETTING = {
    "grid": _object({"atoms": _POINTS}, _METRIC),
    # make_cost checks which parameters a cost reads, and their range.
    "cost": _object({"name": _string}, {"params": _object({}, other=_number()), "lip_scale": _number(0.0, above=True)}),
    "space": _space,
}


# Method callables take (problem, method entry); `drolab solve` builds the entry
# from its options.  They look solvers and bound suites up as this module's names
# at call time, so rebinding those names (as tracers do) reaches every call.


def _ball(prob: Problem, entry: dict) -> AmbiguityBall:
    kind = DivergenceKind.from_json(entry.get("divergence"))
    eps = entry.get("eps", "auto")
    radius = kind.distance(prob.p0, prob.center) if eps == "auto" else eps
    return AmbiguityBall(prob.center, float(radius), kind)


def _solve_saa(prob: Problem, entry: dict) -> Solution:
    return solve_saa(prob.center, prob.cf, prob.space)


def _solve_reg_saa(prob: Problem, entry: dict) -> Solution:
    f = regularizer_from_prior(prob.need("prior"), prob.cf)
    return solve_regularized_saa(prob.center, prob.cf, f, float(entry["lambda"]), prob.space)


def _solve_bayes_dp(prob: Problem, entry: dict) -> Solution:
    alpha = float(entry.get("alpha", 0.0))
    return solve_bayes_dp(prob.need("prior"), alpha, prob.need("samples"), prob.cf, prob.space, beta=entry.get("beta"))


def _satisficing_model(prob: Problem, entry: dict) -> tuple:
    """The arguments, from ``center`` on, of the configured satisficing model."""
    kind = DivergenceKind.from_json(entry.get("divergence"))
    return prob.center, prob.cf, prob.space, kind, entry.get("sided", "two"), float(entry.get("delta", 0.0))


def _uniform_at_solution(solve, nominal=lambda prob, sol: prob.center):
    """SAA-family bound: one uniform deviation record at the solution."""

    def bound(prob: Problem, entry: dict):
        sol = solve(prob, entry)
        return uniform_bound(prob.p0, nominal(prob, sol), prob.cf, DecisionSpace(np.array([sol.x]))), sol

    return bound


@dataclass(frozen=True)
class MethodSpec:
    """``solve`` backs ``drolab solve``; ``bound`` backs :func:`run`.  Config
    entries carry every field in ``requires``, exactly one in ``one_of``, any
    in ``optional`` and no other; ``ball`` methods (those reading a
    ``divergence``) need a divergence with a ball oracle."""

    solve: Callable[[Problem, dict], Solution]
    bound: Callable[[Problem, dict], tuple[list[tuple[GapRecord, BoundRecord]], Solution]]
    requires: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()

    @property
    def ball(self) -> bool:
        return "divergence" in self.optional


METHODS: dict[str, MethodSpec] = {
    "saa": MethodSpec(_solve_saa, _uniform_at_solution(_solve_saa)),
    "reg_saa": MethodSpec(_solve_reg_saa, _uniform_at_solution(_solve_reg_saa), requires=("prior", "lambda")),
    "bayes_dp": MethodSpec(
        _solve_bayes_dp,
        _uniform_at_solution(
            _solve_bayes_dp, lambda prob, sol: mixture(sol.diagnostics["beta"], prob.prior, prob.center)
        ),
        requires=("prior",),
        one_of=("alpha", "beta"),
    ),
    "minmax_dro": MethodSpec(
        lambda prob, entry: solve_minmax_dro(_ball(prob, entry), prob.cf, prob.space),
        lambda prob, entry: minmax_one_sided_bound(prob.p0, _ball(prob, entry), prob.cf, prob.space),
        optional=("divergence", "eps"),
    ),
    "abs_dro": MethodSpec(
        lambda prob, entry: solve_absolute_dro(_ball(prob, entry), prob.cf, prob.space),
        lambda prob, entry: absolute_bound(prob.p0, _ball(prob, entry), prob.cf, prob.space),
        optional=("divergence", "eps"),
    ),
    "satisficing": MethodSpec(
        lambda prob, entry: solve_robust_satisficing(*_satisficing_model(prob, entry)),
        lambda prob, entry: relative_bound(prob.p0, *_satisficing_model(prob, entry)),
        optional=("divergence", "sided", "delta"),
    ),
}


_DIVERGENCE = _object(
    {"kind": _choice("divergence kind", DIVERGENCE_KINDS)},
    {"p": _number(1.0), "orientation": _choice("orientation", ORIENTATIONS)},
)


def _divergence(ptr: str, v) -> None:
    """A divergence document with no field its kind does not read."""
    _DIVERGENCE(ptr, v)
    kind = v["kind"]
    for field in v:
        if field not in ("kind", DIVERGENCE_FIELD[kind]):
            _fail(f"{ptr}/{field}", f"{kind} divergences do not read {field!r}")


# How the value of each method-entry field is checked; METHODS says which
# methods read it.
_FIELDS = {
    "eps": lambda ptr, v: None if v == "auto" else _NONNEG(ptr, v),
    "divergence": _divergence,
    "alpha": _number(0.0, inf_ok=True),  # inf: the prior alone
    "beta": _number(0.0, 1.0),
    "lambda": _NONNEG,
    "delta": _NONNEG,
    "sided": _choice("side", ("one", "two")),
    "prior": _WEIGHTS,
}


# Command-line options checked as config values are: the method-entry fields
# that `drolab solve` builds from its options, `drolab measure`'s own and
# `drolab run --jobs`.
_OPTIONS = {**_FIELDS, "ref": _number(), "level": _number(0.0, above=True),
            "draws": _COUNT, "budget": _COUNT, "seed": _INDEX, "x-index": _INDEX, "jobs": _COUNT}


def check_options(options: dict) -> None:
    """Check command-line option values with the checks of the config fields
    of the same name; ``None`` marks an option left unset.  Raises
    :class:`ConfigError` as ``"--<option>: <message>"``."""
    for name, value in options.items():
        if value is not None:
            _OPTIONS[name](f"--{name}", value)


def _method(ptr: str, entry) -> None:
    _object({"method": _choice("method", tuple(METHODS))}, _FIELDS)(ptr, entry)
    name = entry["method"]
    spec = METHODS[name]
    for field in spec.requires:
        if field not in entry:
            _fail(ptr, f"{name} needs a {field!r}")
    if spec.one_of and sum(field in entry for field in spec.one_of) != 1:
        _fail(ptr, f"{name} needs exactly one of {'/'.join(repr(field) for field in spec.one_of)}")
    if spec.ball:
        _built(f"{ptr}/divergence", DivergenceKind.from_json, entry.get("divergence"), ball=True)
    allowed = ("method", *spec.requires, *spec.one_of, *spec.optional)
    for field in entry:
        if field not in allowed:
            _fail(f"{ptr}/{field}", f"{name} does not read {field!r}")


_CONFIG = _object(
    {**_SETTING, "p0": _WEIGHTS, "methods": _array(_method),
     "n": _array(_COUNT), "replications": _COUNT, "seed": _INDEX},
    {"output": _string},
)
_PROBLEM = _object(
    {**_SETTING, "center": _WEIGHTS},
    {"prior": _WEIGHTS, "samples": _object({"indices": _array(_INDEX)}, {"seed": _INDEX})},
)


def _f_table(ptr: str, v) -> None:
    """A regularizer table: one value per decision point, each point at most once."""
    _object({"points": _POINTS, "values": _array(_number())})(ptr, v)
    if len(v["values"]) != len(v["points"]):
        _fail(f"{ptr}/values", f"needs one value per point: {len(v['points'])}, not {len(v['values'])}")
    first: dict = {}
    for i, point in enumerate(v["points"]):
        j = first.setdefault(tuple(map(float, point)), i)
        if j != i:
            _fail(f"{ptr}/points/{i}", f"repeats point {j}")


# The documents of `drolab divergence` (atoms optional on the second) and
# `drolab prior-from-reg`.
_DOCUMENTS = {
    "distribution": _object({"weights": _array(_NONNEG)}, {"atoms": _POINTS, **_METRIC}),
    "regularizer": _object({"grid": _SETTING["grid"], "cost": _SETTING["cost"], "f_table": _f_table}),
}


def validate_config(doc: dict) -> None:
    """Check a config document; raises :class:`ConfigError` as ``"<pointer>: <message>"``."""
    _CONFIG("", doc)


def config_hash(doc: dict) -> str:
    import hashlib  # imported here: it loads OpenSSL, which no other code needs

    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class ResolvedConfig:
    raw: dict
    grid: SupportGrid
    p0: DiscreteDistribution
    cf: CostFunction
    space: DecisionSpace
    methods: list[dict]
    priors: list[DiscreteDistribution | None]  # one per method; None where it reads none
    ns: list[int]
    replications: int
    seed: int
    output: Path


def _built(ptr: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a ``ValueError`` it raises pointed at ``ptr``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{ptr}: {exc}") from exc


def _weights(ptr: str, doc: dict, grid: SupportGrid) -> DiscreteDistribution:
    return _built(f"{ptr}/weights", DiscreteDistribution, grid, np.asarray(doc["weights"], dtype=float))


def _setting(doc: dict) -> tuple[SupportGrid, DecisionSpace, CostFunction]:
    grid = _built("/grid", SupportGrid.from_json, doc["grid"])
    space = _built("/space", DecisionSpace.from_json, doc["space"])
    return grid, space, cost_from_json(doc["cost"], grid, space)


def resolve_config(doc: dict, output_override: str | None = None) -> ResolvedConfig:
    """Validate and materialize a config document into library objects."""
    validate_config(doc)
    grid, space, cf = _setting(doc)
    p0 = _weights("/p0", doc["p0"], grid)
    priors = [
        _weights(f"/methods/{i}/prior", entry["prior"], grid) if "prior" in entry else None
        for i, entry in enumerate(doc["methods"])
    ]
    out = output_override or os.environ.get(OUTPUT_DIR_ENV) or doc.get("output", "results")
    return ResolvedConfig(
        raw=doc,
        grid=grid,
        p0=p0,
        cf=cf,
        space=space,
        methods=list(doc["methods"]),
        priors=priors,
        ns=[int(v) for v in doc["n"]],
        replications=int(doc["replications"]),
        seed=int(doc["seed"]),
        output=Path(out),
    )


def load_config(path: str | Path, output_override: str | None = None) -> ResolvedConfig:
    return resolve_config(load_json(path), output_override)


def load_problem(path: str | Path) -> Problem:
    """Load a ``drolab solve``/``measure`` problem document, checked as a config is."""
    doc = load_json(path)
    _PROBLEM("", doc)
    grid, space, cf = _setting(doc)
    prior = _weights("/prior", doc["prior"], grid) if "prior" in doc else None
    samples = _built("/samples", SampleSet, grid, **doc["samples"]) if "samples" in doc else None
    return Problem(_weights("/center", doc["center"], grid), cf, space, prior=prior, samples=samples)


def load_document(path: str | Path, kind: str) -> dict:
    """Load a ``distribution`` or ``regularizer`` document, checked as a config is."""
    doc = load_json(path)
    _DOCUMENTS[kind]("", doc)
    return doc


def _format_x(x) -> str:
    return ";".join(repr(float(v)) for v in np.atleast_1d(np.asarray(x, dtype=float)))


def _bound_row(n: int, seed: int, gap: GapRecord, rec: BoundRecord, method: str) -> dict:
    ingredients = dict(rec.ingredients, method=method)
    if rec.degenerate:
        ingredients["degenerate"] = True
    return {
        "kind": rec.kind,
        "n": n,
        "seed": seed,
        "x_star": _format_x(gap.x),
        "gap": repr(float(rec.observed)),
        "bound": repr(float(rec.bound)),
        "holds": str(bool(rec.holds)),
        "ingredients_json": json.dumps(ingredients, sort_keys=True),
    }


def _draw(cfg: ResolvedConfig, n: int, rep: int) -> tuple[int, SampleSet, DiscreteDistribution]:
    """Replication ``rep`` at sample size ``n``: its seed, draws and empirical distribution."""
    rep_seed = derive_seed(cfg.seed, n, rep)
    data = sample(cfg.p0, n, rep_seed)
    return rep_seed, data, empirical(data)


def _run_replication(cfg: ResolvedConfig, n: int, rep: int) -> tuple[int, int, list[dict], list[dict], list[str]]:
    """Run all methods of one replication; errors recorded, not swallowed."""
    rep_seed, data, pbar = _draw(cfg, n, rep)
    rows: list[dict] = []
    summaries: list[dict] = []
    errors: list[str] = []
    for entry, prior in zip(cfg.methods, cfg.priors):
        name = entry["method"]
        try:
            prob = Problem(pbar, cfg.cf, cfg.space, prior=prior, samples=data, p0=cfg.p0)
            pairs, sol = METHODS[name].bound(prob, entry)
        except Exception as exc:  # recorded and re-raised through the run record
            errors.append(f"n={n} rep={rep} method={name}: {type(exc).__name__}: {exc}")
            break
        rows.extend(_bound_row(n, rep_seed, gap, rec, name) for gap, rec in pairs)
        summaries.append({"method": name, "n": n, "rep": rep, "seed": rep_seed, "solution": sol.to_json()})
    return n, rep, rows, summaries, errors


_worker_cfg: ResolvedConfig | None = None


def _init_worker(doc: dict) -> None:
    # Configs hold cost closures and cannot be pickled, so each pool worker
    # resolves the raw document once.
    global _worker_cfg
    _worker_cfg = resolve_config(doc)


def _run_in_worker(n: int, rep: int) -> tuple[int, int, list[dict], list[dict], list[str]]:
    return _run_replication(_worker_cfg, n, rep)


def _csv_bytes(rows: list[dict]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def plan(cfg: ResolvedConfig) -> dict:
    """The resolved execution plan (what ``run --dry-run`` prints)."""
    return {
        "config_hash": config_hash(cfg.raw),
        "methods": [m["method"] for m in cfg.methods],
        "n_sweep": cfg.ns,
        "replications": cfg.replications,
        "tasks": len(cfg.ns) * cfg.replications,
        "rows_per_task_max": 2 * len(cfg.methods),
        "grid_size": cfg.grid.size,
        "decision_count": len(cfg.space),
        "output_dir": str(cfg.output),
        "rng_algorithm": RNG_ALGORITHM,
    }


def run(cfg: ResolvedConfig, jobs: int = 1) -> dict:
    """Execute the full plan and write ``results.csv`` and ``run_record.json``.

    Returns the run record.  Replications can run in parallel, on at most
    ``jobs`` worker processes and never more than there are (n, replication)
    tasks; rows are reduced in (n, replication) order so output is
    schedule-independent.
    """
    start = time.perf_counter()
    tasks = [(n, rep) for n in cfg.ns for rep in range(cfg.replications)]
    # A process pool starts all its workers at the first submit.
    workers = min(jobs, len(tasks))
    if workers > 1:
        # Imported here: the pool's modules (multiprocessing, socket,
        # subprocess, ...) would otherwise load into every process.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(cfg.raw,)) as pool:
            futures = [pool.submit(_run_in_worker, n, rep) for n, rep in tasks]
            outcomes = [f.result() for f in futures]
    else:
        outcomes = [_run_replication(cfg, n, rep) for n, rep in tasks]
    outcomes.sort(key=lambda t: (t[0], t[1]))

    rows: list[dict] = []
    summaries: list[dict] = []
    errors: list[str] = []
    for _, _, r, s, e in outcomes:
        rows.extend(r)
        summaries.extend(s)
        errors.extend(e)

    cfg.output.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.output / "results.csv"
    csv_path.write_bytes(_csv_bytes(rows))
    record = {
        "config_hash": config_hash(cfg.raw),
        "library_version": drolab.__version__,
        "rng_algorithm": RNG_ALGORITHM,
        "config": cfg.raw,
        "solutions": summaries,
        "errors": errors,
        "row_count": len(rows),
        "holds_violations": sum(1 for r in rows if r["holds"] == "False"),
        "csv_path": str(csv_path),
        "wall_time_s": time.perf_counter() - start,
    }
    record_path = cfg.output / "run_record.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


def verify_bounds(cfg: ResolvedConfig) -> tuple[bool, dict]:
    """Run every bound suite across the plan; returns (all_held, report).

    Each replication checks ``uniform_bound`` over the space, then the bounds
    of the ``abs_dro``, ``satisficing`` and ``minmax_dro`` entries of
    :data:`METHODS` at their defaults, whatever the config's methods: W1 balls
    of radius W1(p0, pbar), so every hypothesis holds.  Any finite bound that
    fails to contain its gap is a violated inequality (exit code 2 in the CLI).
    """
    failures: list[dict] = []
    checked = 0
    for n in cfg.ns:
        for rep in range(cfg.replications):
            rep_seed, _, pbar = _draw(cfg, n, rep)
            prob = Problem(pbar, cfg.cf, cfg.space, p0=cfg.p0)
            records = list(uniform_bound(cfg.p0, pbar, cfg.cf, cfg.space))
            for name in ("abs_dro", "satisficing", "minmax_dro"):
                records.extend(METHODS[name].bound(prob, {"method": name})[0])
            for gap, rec in records:
                checked += 1
                if not rec.holds and math.isfinite(rec.bound):
                    failures.append(
                        {
                            "kind": rec.kind,
                            "n": n,
                            "seed": rep_seed,
                            "x": _format_x(gap.x),
                            "gap": rec.observed,
                            "bound": rec.bound,
                        }
                    )
    report = {"checked": checked, "violations": failures, "config_hash": config_hash(cfg.raw)}
    return not failures, report
