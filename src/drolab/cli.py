"""Command-line interface.

Exit codes: 0 on success, 1 on validation/config errors, 2 when a verified
inequality fails to hold (the falsification signal).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

import drolab
from drolab.bayes import Infeasible, prior_from_regularizer
from drolab.cost import DecisionSpace, Regularizer, cost_from_json
from drolab.divergence import DIVERGENCE_KINDS, ORIENTATIONS, AmbiguityBall, DivergenceKind
from drolab.experiment import METHODS, check_options, load_config, load_problem, plan, verify_bounds
from drolab.experiment import run as run_experiment
from drolab.robustness import (
    DirichletPrior,
    absolute_measure,
    local_measure,
    pac_robustness,
    relative_measure,
    set_robustness,
)
from drolab.solvers import solve_saa
from drolab.support import ConfigError, DiscreteDistribution, SupportGrid, load_json


def _die_validation(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _divergence_doc(kind: str, p: float, orientation: str) -> dict:
    return {"kind": kind, "p": p, "orientation": orientation}


def _ball_kind(kind: str, p: float, orientation: str) -> DivergenceKind:
    """The divergence of a ball; kinds without a ball oracle are rejected."""
    out = DivergenceKind.from_json(_divergence_doc(kind, p, orientation))
    if not out.has_ball_oracle:
        raise ConfigError(f"{out.label()} balls have no extremal-expectation oracle")
    return out


@click.group()
@click.version_option(version=drolab.__version__, prog_name="drolab")
def main() -> None:
    """Distributionally robust optimization toolkit on finite supports."""


@main.command("divergence")
@click.argument("a_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("b_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", type=click.Choice(DIVERGENCE_KINDS), default="wasserstein")
@click.option("--p", type=float, default=1.0, help="Wasserstein order.")
@click.option("--orientation", type=click.Choice(ORIENTATIONS), default="forward")
def divergence_cmd(a_path: str, b_path: str, kind: str, p: float, orientation: str) -> None:
    """Print the divergence between two distribution documents."""
    try:
        doc_a = load_json(a_path)
        a = DiscreteDistribution.from_json(doc_a)
        doc_b = load_json(b_path)
        b = DiscreteDistribution.from_json(doc_b, grid=a.grid if "atoms" not in doc_b else None)
        value = DivergenceKind.from_json(_divergence_doc(kind, p, orientation)).distance(b, a)
    except (ValueError, KeyError) as exc:
        _die_validation(str(exc))
        return
    click.echo(repr(float(value)))


@main.command("solve")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--eps", type=float, default=0.0, help="Ball radius for the DRO methods.")
@click.option("--divergence", "div_kind", type=click.Choice(DIVERGENCE_KINDS), default="wasserstein")
@click.option("--p", type=float, default=1.0)
@click.option("--orientation", type=click.Choice(ORIENTATIONS), default="forward")
@click.option("--alpha", type=float, default=0.0, help="Prior concentration of the Bayesian mixture.")
@click.option("--beta", type=float, default=None, help="Explicit mixture weight override.")
@click.option("--lam", "--lambda", "lam", type=float, default=0.0, help="Regularization weight.")
@click.option("--delta", type=float, default=0.0, help="Target slack above the best nominal value.")
@click.option("--sided", type=click.Choice(["one", "two"]), default="one")
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def solve_cmd(problem, method, eps, div_kind, p, orientation, alpha, beta, lam, delta, sided, output) -> None:
    """Solve one decision model described by a problem document."""
    spec = METHODS[method]
    entry = {"method": method, "eps": eps, "divergence": _divergence_doc(div_kind, p, orientation),
             "alpha": alpha, "beta": beta, "lambda": lam, "delta": delta, "sided": sided}
    try:
        check_options({field: value for field, value in entry.items() if field != "method"})
        if spec.ball:
            _ball_kind(div_kind, p, orientation)
        sol = spec.solve(load_problem(problem), entry)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
        return
    payload = json.dumps(sol.to_json(), indent=2, sort_keys=True)
    if output:
        Path(output).write_text(payload + "\n", encoding="utf-8")
    else:
        click.echo(payload)


@main.command("measure")
@click.argument("problem", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--kind",
    "measure_kind",
    type=click.Choice(["absolute", "relative", "local", "set", "pac"]),
    required=True,
)
@click.option("--variant", type=click.Choice(["objective", "solution"]), default="objective")
@click.option("--x-index", type=int, default=None, help="Decision index into the space (default: nominal argmin).")
@click.option("--ref", type=float, default=None, help="Reference value (default: best nominal value).")
@click.option("--eps", type=float, default=0.0)
@click.option("--divergence", "div_kind", type=click.Choice(DIVERGENCE_KINDS), default="wasserstein")
@click.option("--p", type=float, default=1.0)
@click.option("--orientation", type=click.Choice(ORIENTATIONS), default="forward")
@click.option("--alpha", type=float, default=1.0, help="Dirichlet concentration for pac.")
@click.option("--level", type=float, default=1.0, help="Robustness level L for pac.")
@click.option("--draws", type=int, default=10000)
@click.option("--budget", type=int, default=200)
@click.option("--seed", type=int, default=0)
def measure_cmd(problem, measure_kind, variant, x_index, ref, eps, div_kind, p, orientation,
                alpha, level, draws, budget, seed) -> None:
    """Report a robustness measure of a decision (JSON on stdout)."""
    try:
        check_options({"ref": ref, "level": level, "alpha": alpha, "eps": eps,
                       "draws": draws, "budget": budget, "seed": seed, "x-index": x_index})
        kind = None if measure_kind == "pac" else _ball_kind(div_kind, p, orientation)
        prob = load_problem(problem)
        center, cf, space = prob.center, prob.cf, prob.space
        nominal = solve_saa(center, cf, space)
        x = space[x_index] if x_index is not None else nominal.x
        ref_value = nominal.objective_value if ref is None else ref
        if measure_kind == "absolute":
            report = absolute_measure(x, ref_value, AmbiguityBall(center, eps, kind), cf)
        elif measure_kind == "relative":
            report = relative_measure(x, ref_value, kind, center, cf)
        elif measure_kind == "local":
            report = local_measure(space, center, ref_value, cf, kind, variant)
        elif measure_kind == "set":
            report = set_robustness(AmbiguityBall(center, eps, kind), cf, space, variant, budget, seed)
        else:
            report = pac_robustness(DirichletPrior(center, alpha), cf, x, ref_value, level, draws, seed)
    except (ConfigError, ValueError, KeyError, IndexError) as exc:
        _die_validation(str(exc))
        return
    click.echo(json.dumps(report.to_json(), indent=2, sort_keys=True))


@main.command("prior-from-reg")
@click.argument("spec_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-entropy", is_flag=True, help="Nudge the vertex toward the max-entropy representative.")
def prior_from_reg_cmd(spec_path: str, max_entropy: bool) -> None:
    """Find weights reproducing a regularizer table ``{x_k: f_k}``.

    The document needs ``grid``, ``cost``, and ``f_table`` with parallel
    ``points`` and ``values`` arrays.
    """
    try:
        doc = load_json(spec_path)
        grid = SupportGrid.from_json(doc["grid"])
        table = doc["f_table"]
        space = DecisionSpace.from_points(table["points"])
        values = [float(v) for v in table["values"]]
        if len(space) != len(values):
            raise ConfigError("f_table points and values must have equal length")
        cf = cost_from_json(doc["cost"], grid, space)
        lookup = {tuple(x.tolist()): v for x, v in zip(space, values)}
        f = Regularizer(lambda x: lookup[tuple(np.atleast_1d(np.asarray(x, dtype=float)).tolist())])
        result = prior_from_regularizer(f, cf, space, grid, max_entropy=max_entropy)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
        return
    if isinstance(result, Infeasible):
        click.echo(json.dumps({"infeasible": True, "residual": result.residual}, sort_keys=True))
    else:
        click.echo(json.dumps({"infeasible": False, "weights": result.weights.tolist()}, sort_keys=True))


@main.command("verify-bounds")
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
def verify_bounds_cmd(config: str) -> None:
    """Check every deviation bound on the configured instances.

    The bound suites use W1 balls whatever divergences the config's methods
    name.  Exits 2 if any finite bound fails to contain its gap.
    """
    try:
        cfg = load_config(config)
        ok, report = verify_bounds(cfg)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
        return
    click.echo(json.dumps(report, indent=2, sort_keys=True))
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
        cfg = load_config(config)
    except (ConfigError, ValueError, KeyError) as exc:
        _die_validation(str(exc))
        return
    if dry_run:
        click.echo(json.dumps(plan(cfg), indent=2, sort_keys=True))
        return
    record = run_experiment(cfg, jobs=jobs)
    click.echo(json.dumps({k: record[k] for k in ("config_hash", "row_count", "holds_violations", "csv_path")},
                          indent=2, sort_keys=True))
    if record["errors"]:
        click.echo("\n".join(record["errors"]), err=True)
        sys.exit(1)
    if record["holds_violations"]:
        sys.exit(2)


if __name__ == "__main__":
    main()
