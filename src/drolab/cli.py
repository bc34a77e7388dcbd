"""Command-line interface.

Exit codes: 0 on success, 1 on validation/config errors, 2 when a verified
inequality fails to hold (the falsification signal).
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import click
import numpy as np

import drolab
from drolab.bayes import Infeasible, prior_from_regularizer
from drolab.cost import DecisionSpace, Regularizer, cost_from_json
from drolab.divergence import DIVERGENCE_FIELD, DIVERGENCE_KINDS, ORIENTATIONS, AmbiguityBall, DivergenceKind
from drolab.experiment import METHODS, check_options, load_config, load_document, load_problem, plan, verify_bounds
from drolab.experiment import _built, run as run_experiment
from drolab.robustness import (
    DirichletPrior,
    absolute_measure,
    local_measure,
    pac_robustness,
    relative_measure,
    set_robustness,
)
from drolab.solvers import solve_saa
from drolab.support import ConfigError, DiscreteDistribution, SupportGrid


def _die_validation(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _spelled(value):
    """``value`` with every non-finite float spelled as a string, since
    JSON has no such numbers and ``null`` already means "no measure"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _spelled(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spelled(v) for v in value]
    return value


def _echo_json(doc, output: str | None = None) -> None:
    """Print ``doc``, or write it to ``output``, as strict JSON."""
    text = json.dumps(_spelled(doc), indent=2, sort_keys=True, allow_nan=False)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _divergence_doc(kind: str, p: float | None, orientation: str | None) -> dict:
    """The divergence document of the options given, checked as a config's;
    ``--p`` or ``--orientation`` given for a kind that does not read it is
    rejected."""
    doc = {"kind": kind}
    for field, value in (("p", p), ("orientation", orientation)):
        if value is not None:
            if field != DIVERGENCE_FIELD[kind]:
                raise ConfigError(f"--{field}: {kind} divergences do not read {field!r}")
            doc[field] = value
    check_options({"divergence": doc})
    return doc


def _read(flags: dict, reads, unread: str, defaults: dict) -> dict:
    """Each field in ``reads`` that a flag sets, at the flag's value or else its
    default (``divergence``: the document of ``--divergence``, ``--p`` and
    ``--orientation``); a flag given for another field is rejected."""
    flags = {flag.replace("_", "-"): value for flag, value in flags.items()}
    doc = _divergence_doc(flags["divergence"] or "wasserstein", flags["p"], flags["orientation"])
    for flag, value in flags.items():
        field = "divergence" if flag in ("p", "orientation") else flag
        if value is not None and field not in reads:
            raise ConfigError(f"--{flag}: {unread} {field!r}")
    values = {field: defaults.get(field) if flags[field] is None else flags[field] for field in reads if field in flags}
    return {**values, "divergence": doc} if "divergence" in values else values


# Each measure kind: the fields `drolab measure` reads for it, and its measure.
_MEASURES = {
    "absolute": (("x-index", "ref", "eps", "divergence"), lambda a: absolute_measure(a.x, a.ref, a.ball, a.cf)),
    "relative": (("x-index", "ref", "divergence"), lambda a: relative_measure(a.x, a.ref, a.kind, a.center, a.cf)),
    "local": (("variant", "ref", "divergence"),
              lambda a: local_measure(a.space, a.center, a.ref, a.cf, a.kind, a.variant)),
    "set": (("variant", "eps", "divergence", "budget", "seed"),
            lambda a: set_robustness(a.ball, a.cf, a.space, a.variant, a.budget, a.seed)),
    "pac": (("x-index", "ref", "alpha", "level", "draws", "seed"),
            lambda a: pac_robustness(DirichletPrior(a.center, a.alpha), a.cf, a.x, a.ref, a.level, a.draws, a.seed)),
}
# What an option left unset reads as, where a command reads it.
_SOLVE_DEFAULTS = {"eps": 0.0, "alpha": 0.0, "lambda": 0.0, "delta": 0.0, "sided": "one"}
_MEASURE_DEFAULTS = {"variant": "objective", "eps": 0.0, "alpha": 1.0, "level": 1.0, "draws": 10000, "budget": 200,
                     "seed": 0}


@click.group()
@click.version_option(version=drolab.__version__, prog_name="drolab")
def main() -> None:
    """Distributionally robust optimization toolkit on finite supports."""


def _distribution(path: str, grid: SupportGrid | None = None) -> DiscreteDistribution:
    """The distribution document at ``path``, on ``grid`` unless it gives its
    own atoms, which must then make ``grid``; an error in it names the file
    before its pointer.  A metric is read only with the atoms it measures, so
    one without them on ``grid`` is rejected."""
    try:
        doc = load_document(path, "distribution")
        if grid is not None and "atoms" not in doc and "metric" in doc:
            raise ConfigError("/metric: is read only with 'atoms'; this document takes the first one's grid")
        dist = DiscreteDistribution.from_json(doc, grid=None if "atoms" in doc else grid)
        if grid is not None and not dist.grid.same_as(grid):
            if "metric" in doc and np.array_equal(dist.grid.atoms, grid.atoms):
                raise ConfigError("/metric: differs from the first document's ground metric")
            raise ConfigError("/atoms: give a grid other than the first document's")
        return dist
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@main.command("divergence")
@click.argument("a_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("b_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(DIVERGENCE_KINDS), default="wasserstein")
@click.option("--p", type=float, help="Wasserstein order (default 1).")
@click.option("--orientation", type=click.Choice(ORIENTATIONS), help="Phi-divergence orientation (default forward).")
def divergence_cmd(a_path: str, b_path: str, kind: str, p: float | None, orientation: str | None) -> None:
    """Print the divergence between two distribution documents."""
    try:
        a = _distribution(a_path)
        b = _distribution(b_path, a.grid)
        value = DivergenceKind.from_json(_divergence_doc(kind, p, orientation)).distance(b, a)
    except (ValueError, KeyError) as exc:
        _die_validation(str(exc))
    _echo_json(float(value))


@main.command("solve")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--eps", type=float, help="Ball radius for the DRO methods.")
@click.option("--divergence", type=click.Choice(DIVERGENCE_KINDS))
@click.option("--p", type=float, help="Wasserstein order (default 1).")
@click.option("--orientation", type=click.Choice(ORIENTATIONS), help="Phi-divergence orientation (default forward).")
@click.option("--alpha", type=float, help="Prior concentration of the Bayesian mixture.")
@click.option("--beta", type=float, help="Explicit mixture weight override.")
@click.option("--lam", "--lambda", "lambda", type=float, help="Regularization weight.")
@click.option("--delta", type=float, help="Target slack above the best nominal value.")
@click.option("--sided", type=click.Choice(["one", "two"]))
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def solve_cmd(problem, method, output, **flags) -> None:
    """Solve one decision model described by a problem document."""
    spec = METHODS[method]
    try:
        reads = (*spec.requires, *spec.one_of, *spec.optional)
        entry = {"method": method, **_read(flags, reads, f"{method} does not read", _SOLVE_DEFAULTS)}
        if len(given := [field for field in spec.one_of if flags[field] is not None]) > 1:
            raise ConfigError(f"--{given[1]}: {method} needs exactly one of {'/'.join(map(repr, spec.one_of))}")
        check_options({field: value for field, value in entry.items() if field not in ("method", "divergence")})
        if spec.ball:
            DivergenceKind.from_json(entry["divergence"], ball=True)
        sol = spec.solve(load_problem(problem), entry)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
    _echo_json(sol.to_json(), output)


@main.command("measure")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", "measure_kind", type=click.Choice(list(_MEASURES)), required=True)
@click.option("--variant", type=click.Choice(["objective", "solution"]))
@click.option("--x-index", type=int, help="Decision index into the space (default: nominal argmin).")
@click.option("--ref", type=float, help="Reference value (default: best nominal value).")
@click.option("--eps", type=float)
@click.option("--divergence", type=click.Choice(DIVERGENCE_KINDS))
@click.option("--p", type=float, help="Wasserstein order (default 1).")
@click.option("--orientation", type=click.Choice(ORIENTATIONS), help="Phi-divergence orientation (default forward).")
@click.option("--alpha", type=float, help="Dirichlet concentration for pac.")
@click.option("--level", type=float, help="Robustness level L for pac.")
@click.option("--draws", type=int)
@click.option("--budget", type=int)
@click.option("--seed", type=int)
def measure_cmd(problem, measure_kind, **flags) -> None:
    """Report a robustness measure of a decision (JSON on stdout)."""
    reads, measure = _MEASURES[measure_kind]
    try:
        opts = _read(flags, reads, f"{measure_kind} measures do not read", _MEASURE_DEFAULTS)
        check_options({name: value for name, value in opts.items() if name not in ("variant", "divergence")})
        # The bayes_dp `alpha` check admits 0 and inf; a concentration does not.
        if opts.get("alpha") in (0.0, math.inf):
            raise ConfigError(f"--alpha: {opts['alpha']!r} must be a positive finite concentration")
        kind = DivergenceKind.from_json(opts["divergence"], ball=True) if "divergence" in opts else None
        prob = load_problem(problem)
        nominal = solve_saa(prob.center, prob.cf, prob.space)
        opts["x"] = nominal.x if opts.get("x-index") is None else prob.space[opts["x-index"]]
        opts["ref"] = nominal.objective_value if opts.get("ref") is None else opts["ref"]
        ball = AmbiguityBall(prob.center, opts["eps"], kind) if "eps" in opts else None
        report = measure(SimpleNamespace(**opts, **vars(prob), kind=kind, ball=ball))
    except (ConfigError, ValueError, KeyError, IndexError) as exc:
        _die_validation(str(exc))
    _echo_json(report.to_json())


@main.command("prior-from-reg")
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-entropy", is_flag=True, help="Nudge the vertex toward the max-entropy representative.")
def prior_from_reg_cmd(spec_path: str, max_entropy: bool) -> None:
    """Find weights reproducing a regularizer table ``{x_k: f_k}``.

    The document needs ``grid``, ``cost``, and ``f_table`` with parallel
    ``points`` and ``values`` arrays, each point at most once.
    """
    try:
        doc = load_document(spec_path, "regularizer")
        grid = _built("/grid", SupportGrid.from_json, doc["grid"])
        table = doc["f_table"]
        space = DecisionSpace.from_points(table["points"])
        values = [float(v) for v in table["values"]]
        cf = cost_from_json(doc["cost"], grid, space)
        lookup = {tuple(x.tolist()): v for x, v in zip(space, values)}
        f = Regularizer(lambda x: lookup[tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist())])
        result = prior_from_regularizer(f, cf, space, grid, max_entropy=max_entropy)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
    if isinstance(result, Infeasible):
        _echo_json({"infeasible": True, "residual": result.residual})
    else:
        _echo_json({"infeasible": False, "weights": result.weights.tolist()})


@main.command("verify-bounds")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
def verify_bounds_cmd(config: str) -> None:
    """Check every deviation bound on the configured instances.

    The ball suites are the bounds of the abs_dro, satisficing and minmax_dro
    methods at their defaults (W1, eps "auto"), whatever methods the config
    names.  Exits 2 if any finite bound fails to contain its gap.
    """
    try:
        cfg = load_config(config)
        ok, report = verify_bounds(cfg)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
    _echo_json(report)
    if not ok:
        click.echo(f"{len(report['violations'])} bound violation(s) detected", err=True)
        sys.exit(2)


@main.command("run")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--dry-run", is_flag=True, help="Print the resolved plan and write nothing.")
@click.option("--jobs", type=int, default=1, help="Replication-level parallelism.")
def run_cmd(config: str, dry_run: bool, jobs: int) -> None:
    """Execute a full experiment config; write CSV results and a run record."""
    try:
        check_options({"jobs": jobs})
        cfg = load_config(config)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
    if dry_run:
        _echo_json(plan(cfg))
        return
    record = run_experiment(cfg, jobs=jobs)
    _echo_json({k: record[k] for k in ("config_hash", "row_count", "holds_violations", "csv_path")})
    if record["errors"]:
        click.echo("\n".join(record["errors"]), err=True)
        sys.exit(1)
    if record["holds_violations"]:
        sys.exit(2)


if __name__ == "__main__":
    main()
