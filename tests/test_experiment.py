"""Config validation, the runner, persistence, and the CLI surface."""

import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

import drolab
from _oracles import dense_transport_lp, validate_config_jsonschema
from drolab import divergence, experiment, solvers
from drolab.cli import main
from drolab.cost import CostFunction
from drolab.divergence import DIVERGENCE_FIELD, DIVERGENCE_KINDS, ORIENTATIONS
from drolab.experiment import (
    METHODS,
    OUTPUT_DIR_ENV,
    ConfigError,
    config_hash,
    plan,
    resolve_config,
    run as run_experiment,
    validate_config,
    verify_bounds,
)
from drolab.solvers import solve_saa
from drolab.support import derive_seed, empirical, sample


def base_config(output: str) -> dict:
    return {
        "grid": {"atoms": [[0.0], [1.0], [3.0]]},
        "p0": {"weights": [0.2, 0.3, 0.5]},
        "cost": {"name": "absolute"},
        "space": {"interval": {"lo": 0.0, "hi": 3.0, "num": 5}},
        "methods": [
            {"method": "saa"},
            {"method": "reg_saa", "prior": {"weights": [0.34, 0.33, 0.33]}, "lambda": 0.5},
            {"method": "bayes_dp", "prior": {"weights": [0.34, 0.33, 0.33]}, "alpha": 2.0},
            {"method": "minmax_dro", "eps": "auto"},
            {"method": "abs_dro", "eps": "auto"},
            {"method": "satisficing"},
        ],
        "n": [10],
        "replications": 1,
        "seed": 7,
        "output": output,
    }


def problem_doc() -> dict:
    return {
        "grid": {"atoms": [[0.0], [1.0], [3.0]]},
        "center": {"weights": [0.2, 0.3, 0.5]},
        "cost": {"name": "absolute"},
        "space": {"interval": {"lo": 0.0, "hi": 3.0, "num": 5}},
        "prior": {"weights": [0.34, 0.33, 0.33]},
        "samples": {"indices": [0, 1, 2, 2, 1]},
    }


class TestConfigValidation:
    def test_valid_config_passes(self, tmp_path):
        validate_config(base_config(str(tmp_path)))

    def test_unknown_key_rejected(self, tmp_path):
        doc = base_config(str(tmp_path))
        doc["verbose"] = True
        with pytest.raises(ConfigError, match="verbose"):
            validate_config(doc)

    def test_negative_radius_names_the_field(self, tmp_path):
        doc = base_config(str(tmp_path))
        doc["methods"][3]["eps"] = -0.5
        with pytest.raises(ConfigError, match="/methods/3/eps"):
            validate_config(doc)

    def test_missing_prior_rejected(self, tmp_path):
        doc = base_config(str(tmp_path))
        del doc["methods"][2]["prior"]
        with pytest.raises(ConfigError, match="prior"):
            validate_config(doc)

    def test_unresolvable_cost_name_rejected(self, tmp_path):
        doc = base_config(str(tmp_path))
        doc["cost"]["name"] = "nonexistent"
        with pytest.raises(ConfigError, match="/cost"):
            resolve_config(doc)

    def test_ball_method_without_oracle_rejected(self, tmp_path):
        doc = base_config(str(tmp_path))
        doc["methods"][3]["divergence"] = {"kind": "tv"}
        with pytest.raises(ConfigError, match="^/methods/3/divergence: tv balls"):
            validate_config(doc)
        for i in (3, 4, 5):
            for div in ({"kind": "chi2"}, {"kind": "kl", "orientation": "reverse"}):
                doc = base_config(str(tmp_path))
                doc["methods"][i]["divergence"] = div
                with pytest.raises(ConfigError, match=f"^/methods/{i}/divergence:"):
                    validate_config(doc)
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        for args in (["solve", "--method", "minmax_dro", "--eps", "0.3"], ["measure", "--kind", "absolute"]):
            result = runner.invoke(main, [*args, str(tmp_path / "prob.json"), "--divergence", "tv"])
            assert result.exit_code == 1
            assert "tv balls have no extremal-expectation oracle" in result.output

    def test_unknown_method_and_kind_point_at_the_field(self, tmp_path):
        doc = base_config(str(tmp_path))
        doc["methods"][1]["method"] = "ridge"
        with pytest.raises(ConfigError, match="^/methods/1/method: unknown method 'ridge'"):
            validate_config(doc)
        doc = base_config(str(tmp_path))
        doc["methods"][0]["divergence"] = {"kind": "hellinger"}
        with pytest.raises(ConfigError, match="^/methods/0/divergence/kind: unknown divergence kind 'hellinger'"):
            validate_config(doc)

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"method": "saa", "divergence": {"kind": "chi2"}}, "divergence"),
            ({"method": "reg_saa", "prior": {"weights": [0.34, 0.33, 0.33]}, "lambda": 0.5, "eps": 0.1}, "eps"),
            ({"method": "bayes_dp", "prior": {"weights": [0.34, 0.33, 0.33]}, "alpha": 2.0, "delta": 0.1}, "delta"),
            ({"method": "minmax_dro", "eps": 0.1, "sided": "one", "lambda": 2.0}, "sided"),
            ({"method": "abs_dro", "eps": "auto", "alpha": 1.0}, "alpha"),
            ({"method": "satisficing", "eps": 0.5}, "eps"),
        ],
    )
    def test_field_the_method_never_reads_is_rejected(self, tmp_path, entry, field):
        doc = base_config(str(tmp_path))
        doc["methods"][1] = entry
        with pytest.raises(ConfigError, match=f"^/methods/1/{field}: {entry['method']} does not read '{field}'"):
            resolve_config(doc)

    @pytest.mark.parametrize(
        "div, field",
        [
            ({"kind": "kl", "p": 2.0}, "p"),
            ({"kind": "chi2", "orientation": "forward", "p": 1.0}, "p"),
            ({"kind": "wasserstein", "orientation": "reverse"}, "orientation"),
            ({"kind": "wasserstein", "p": 2.0, "orientation": "forward"}, "orientation"),
        ],
    )
    def test_divergence_field_the_kind_never_reads_is_rejected(self, tmp_path, div, field):
        for i in (0, 3):
            doc = base_config(str(tmp_path))
            doc["methods"][i] = {"method": "minmax_dro", "eps": 0.1, "divergence": div}
            message = f"^/methods/{i}/divergence/{field}: {div['kind']} divergences do not read '{field}'"
            with pytest.raises(ConfigError, match=message):
                resolve_config(doc)

    def test_ball_methods_are_those_reading_a_divergence(self):
        assert [name for name, spec in METHODS.items() if spec.ball] == ["minmax_dro", "abs_dro", "satisficing"]

    def test_hash_stable_under_key_reordering(self, tmp_path):
        doc = base_config(str(tmp_path))
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        assert config_hash(doc) == config_hash(reordered)


GOLDEN = Path(__file__).parent / "data" / "golden_config.json"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _set(doc: dict, path: tuple, value) -> dict:
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestNonFiniteRejected:
    # Python's json reads NaN and Infinity; each of these failed partway through
    # a run, or silently skewed it, before validation rejected them.
    @pytest.mark.parametrize(
        "path, value",
        [
            (("cost", "lip_scale"), math.nan),
            (("methods", 3, "eps"), math.nan),
            (("methods", 3, "eps"), math.inf),
            (("methods", 2, "alpha"), math.nan),
            (("methods", 8, "delta"), math.nan),
            (("space", "interval", "hi"), math.inf),
            (("methods", 1, "lambda"), math.nan),
            (("cost", "params", "b"), math.nan),
            (("grid", "atoms", 2, 0), -math.inf),
            (("p0", "weights", 0), math.nan),
            (("methods", 2, "alpha"), -math.inf),
        ],
    )
    def test_rejected_at_the_value(self, path, value):
        doc = _set(_golden(), path, value)
        pointer = "/" + "/".join(str(key) for key in path)
        with pytest.raises(ConfigError, match=f"^{pointer}: {value!r} is not finite"):
            validate_config(doc)

    def test_nan_lip_scale_fails_validation_not_the_bounds(self, tmp_path):
        doc = _set(_golden(), ("cost", "lip_scale"), math.nan)
        doc["output"] = str(tmp_path / "out")
        (tmp_path / "config.json").write_text(json.dumps(doc))
        for command in ("run", "verify-bounds"):
            result = CliRunner().invoke(main, [command, str(tmp_path / "config.json")])
            assert result.exit_code == 1
            assert "/cost/lip_scale: nan is not finite" in result.output
        assert not (tmp_path / "out").exists()

    def test_infinite_wasserstein_order_points_at_p(self):
        doc = _set(_golden(), ("methods", 4, "divergence", "p"), math.inf)
        with pytest.raises(ConfigError, match="^/methods/4/divergence/p: inf is not finite"):
            validate_config(doc)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "--method", "reg_saa", "--lam", "nan"], "--lambda: nan is not finite"),
            (["solve", "--method", "satisficing", "--delta", "nan"], "--delta: nan is not finite"),
            (["solve", "--method", "minmax_dro", "--eps", "inf"], "--eps: inf is not finite"),
            (["solve", "--method", "bayes_dp", "--beta", "nan"], "--beta: nan is not finite"),
            (["solve", "--method", "abs_dro", "--eps", "0.2", "--p", "nan"], "--divergence/p: nan is not finite"),
            (["measure", "--kind", "pac", "--level", "nan"], "--level: nan is not finite"),
            (["measure", "--kind", "pac", "--level", "inf"], "--level: inf is not finite"),
            (["measure", "--kind", "pac", "--alpha", "nan"], "--alpha: nan is not finite"),
            (["measure", "--kind", "absolute", "--ref", "nan"], "--ref: nan is not finite"),
            (["measure", "--kind", "relative", "--ref", "-inf"], "--ref: -inf is not finite"),
            (["measure", "--kind", "absolute", "--eps", "nan"], "--eps: nan is not finite"),
            (["measure", "--kind", "pac", "--draws", "0"], "--draws: 0 must be >= 1"),
            (["measure", "--kind", "set", "--eps", "0.2", "--budget", "0"], "--budget: 0 must be >= 1"),
            (["measure", "--kind", "set", "--eps", "0.2", "--seed", "-1"], "--seed: -1 must be >= 0"),
            (["measure", "--kind", "absolute", "--x-index", "-1"], "--x-index: -1 must be >= 0"),
            (["measure", "--kind", "pac", "--alpha", "0"], "--alpha: 0.0 must be a positive finite concentration"),
            (["measure", "--kind", "pac", "--alpha", "inf"], "--alpha: inf must be a positive finite concentration"),
        ],
    )
    def test_cli_options_rejected_with_one_error_line(self, tmp_path, args, message):
        # Click reads nan and inf as floats; the options go through the
        # config fields' checks, so none of them reaches a solver.
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        result = CliRunner().invoke(main, [args[0], str(tmp_path / "prob.json"), *args[1:]])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"error: {message}"]

    def test_infinite_alpha_means_prior_only(self, tmp_path):
        doc = _set(base_config(str(tmp_path)), ("methods", 2, "alpha"), math.inf)
        record = run_experiment(resolve_config(doc))
        assert record["errors"] == []
        betas = [s["solution"]["diagnostics"]["beta"] for s in record["solutions"] if s["method"] == "bayes_dp"]
        assert betas == [1.0]


class TestResolvePointers:
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("grid", "atoms"), [[0.0], [0.0], [3.0]], "^/grid: atoms 0 and 1 coincide"),
            (("grid", "metric"), [[0.0, 1.0], [1.0, 0.0]], "^/grid: ground metric must be 3x3"),
            (("space", "interval"), {"lo": 3.0, "hi": 0.0, "num": 5}, "^/space: interval upper end below lower end"),
            (("p0", "weights"), [0.2, 0.3], "^/p0/weights: expected 3 weights"),
            (("methods", 1, "prior", "weights"), [0.5, 0.5], "^/methods/1/prior/weights: expected 3 weights"),
            (("methods", 2, "prior", "weights"), [1.0, 1.0, 2.0], "^/methods/2/prior/weights: weights sum to 4.0"),
        ],
    )
    def test_library_errors_carry_the_section(self, tmp_path, path, value, message):
        doc = _set(base_config(str(tmp_path)), path, value)
        validate_config(doc)
        with pytest.raises(ConfigError, match=message):
            resolve_config(doc)

    def test_dry_run_rejects_a_prior_that_is_no_distribution(self, tmp_path):
        doc = _set(base_config(str(tmp_path / "out")), ("methods", 2, "prior", "weights"), [1.0, 1.0, 2.0])
        (tmp_path / "config.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["run", str(tmp_path / "config.json"), "--dry-run"])
        assert result.exit_code == 1
        assert "/methods/2/prior/weights: weights sum to 4.0, not 1" in result.output

    def test_priors_are_built_once_at_resolve(self, tmp_path, monkeypatch):
        cfg = resolve_config(base_config(str(tmp_path)))
        assert [p is not None for p in cfg.priors] == [False, True, True, False, False, False]
        assert np.allclose(cfg.priors[1].weights, [0.34, 0.33, 0.33])

        def reparse(*args, **kwargs):
            raise AssertionError("a prior was parsed during the run")

        monkeypatch.setattr(drolab.support.DiscreteDistribution, "from_json", reparse)
        assert run_experiment(cfg)["errors"] == []

    @pytest.mark.parametrize(
        "path, value, pointer",
        [
            (("grid", "atoms"), [[0.0], [0.0], [3.0]], "/grid"),
            (("center", "weights"), [0.2, 0.3, 0.6], "/center/weights"),
            (("prior", "weights"), [0.5, 0.5], "/prior/weights"),
            (("samples", "indices"), [0, 1, 7], "/samples"),
            (("space", "interval", "num"), 0, "/space/interval/num"),
            (("cost", "lip_scale"), math.nan, "/cost/lip_scale"),
            (("verbose",), True, "/verbose"),
        ],
    )
    def test_problem_documents_get_pointers(self, tmp_path, path, value, pointer):
        (tmp_path / "prob.json").write_text(json.dumps(_set(problem_doc(), path, value)))
        runner = CliRunner()
        for args in (["solve", "--method", "bayes_dp", "--alpha", "1.0"], ["measure", "--kind", "absolute"]):
            result = runner.invoke(main, [*args, str(tmp_path / "prob.json")])
            assert result.exit_code == 1
            assert f"error: {pointer}: " in result.output


def _assert_one_error_line(tmp_path, command: str, section: str, value, message: str) -> None:
    """``command`` on a valid document with ``section`` set to ``value``
    exits 1 with one ``error:`` line (``divergence`` names the file first)
    and writes no output."""
    docs = {
        "solve": problem_doc(),
        "measure": problem_doc(),
        "prior-from-reg": {"grid": {"atoms": [[0.0], [1.0], [3.0]]}, "cost": {"name": "absolute"},
                           "f_table": {"points": [[0.0], [1.5], [3.0]], "values": [1.8, 1.05, 1.2]}},
        "verify-bounds": base_config(str(tmp_path / "out")),
        "run": base_config(str(tmp_path / "out")),
        "divergence": {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]},
    }
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(docs[command], **{section: value})))
    options = {"solve": ["--method", "saa"], "measure": ["--kind", "absolute"], "divergence": [str(doc)]}
    result = CliRunner().invoke(main, [command, str(doc), *options.get(command, [])])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    at = f"{doc}: " if command == "divergence" else ""
    assert result.output.splitlines() == [f"error: {at}{message}"]
    assert not (tmp_path / "out").exists()


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_BASE_DOCS = [_golden(), base_config("results")]
# A ``prior-from-reg`` document: huber moments of the prior (0.2, 0.3, 0.5).
_REGULARIZER_DOC = {"grid": {"atoms": [[0.0], [1.0], [3.0]]}, "cost": {"name": "huber", "params": {"delta": 1.0}},
                    "f_table": {"points": [[0.0], [1.5], [3.0]], "values": [1.4, 0.7375, 0.95]}}
# A ``divergence`` pair on 3 atoms: the first document gives the grid, and the
# second takes it, or restates its atoms, or its atoms and a metric.
_FIRST_DISTRIBUTION = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
_SECOND_DISTRIBUTIONS = [
    {"weights": [0.5, 0.25, 0.25]},
    {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.5, 0.25, 0.25]},
    {"atoms": [[0.0], [1.0], [3.0]], "metric": [[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]],
     "weights": [0.5, 0.25, 0.25]},
]
# The options of every kind and orientation (Wasserstein: its order).
_DIVERGENCE_OPTIONS = [
    ["--kind", "wasserstein"], ["--kind", "wasserstein", "--p", "2"],
    *(["--kind", kind, *orientation] for kind in DIVERGENCE_KINDS if kind != "wasserstein"
      for orientation in ([], ["--orientation", "forward"], ["--orientation", "reverse"])),
]
# ``solve`` under every method and ``measure`` under every kind, with the
# options each needs on ``problem_doc``'s 3-atom setting.
_PROBLEM_COMMANDS = [
    ["solve", "--method", "saa"], ["solve", "--method", "reg_saa", "--lam", "0.5"],
    ["solve", "--method", "bayes_dp", "--alpha", "1.0"], ["solve", "--method", "minmax_dro", "--eps", "0.3"],
    ["solve", "--method", "abs_dro", "--eps", "0.3"], ["solve", "--method", "satisficing", "--delta", "0.1"],
    ["measure", "--kind", "absolute", "--eps", "0.3"], ["measure", "--kind", "relative"],
    ["measure", "--kind", "local"], ["measure", "--kind", "set", "--eps", "0.2", "--budget", "20"],
    ["measure", "--kind", "pac", "--draws", "200"],
]
_VALUES = [
    True, False, None, 0, 1, -1, 2, 2.5, -0.5, 10.0, 0.0, -0.0, "auto", "x", "one", "kl", "tv", "reverse", "saa",
    [], {}, [1.0], [[1.0]], [0.5, 0.5], {"kind": "wasserstein"}, {"kind": "tv"}, {"weights": [1.0]},
    {"lo": 0, "hi": 1, "num": 2},
]
_KEYS = ["unknown", "eps", "alpha", "beta", "lambda", "delta", "sided", "prior", "divergence", "p", "orientation",
         "metric", "params", "lip_scale", "points", "interval", "output", "method", "kind"]


@st.composite
def single_mutations(draw, bases=tuple(_BASE_DOCS)):
    """A base document changed at one place: a value swapped (booleans,
    integral floats, negatives, empty arrays and objects included), a key
    removed or added, or an array element removed or repeated."""
    doc = copy.deepcopy(draw(st.sampled_from(bases)))
    path = draw(st.sampled_from(list(_paths(doc))))
    node = _node(doc, path)
    values = list(_VALUES)
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        values += [float(node), -node]
    ops = ["swap"] + ["remove"] * bool(path) + ["add"] * isinstance(node, dict) + ["repeat"] * bool(node and isinstance(node, list))
    op = draw(st.sampled_from(ops))
    if op == "swap":
        value = copy.deepcopy(draw(st.sampled_from(values)))
        return _set(doc, path, value) if path else value
    if op == "remove":
        del _node(doc, path[:-1])[path[-1]]
    elif op == "add":
        node[draw(st.sampled_from(_KEYS))] = copy.deepcopy(draw(st.sampled_from(values)))
    else:
        node.append(copy.deepcopy(node[0]))
    return doc


def _pointer(validate, doc) -> str | None:
    try:
        validate(doc)
    except ConfigError as exc:
        return str(exc).split(": ", 1)[0]
    return None


class TestOracleValidator:
    """The plain-Python validator against the JSON-Schema one it replaced
    (``_oracles.validate_config_jsonschema``): same verdict, and a pointer at
    or inside the oracle's."""

    def _agree(self, doc):
        want, got = _pointer(validate_config_jsonschema, doc), _pointer(validate_config, doc)
        assert (want is None) == (got is None), (want, got)
        if want is not None:
            assert want in ("/", got) or got.startswith(want + "/"), (want, got)

    @settings(max_examples=400, deadline=None)
    @given(single_mutations())
    def test_single_mutations_agree(self, doc):
        self._agree(doc)

    @pytest.mark.parametrize("base", range(len(_BASE_DOCS)))
    @pytest.mark.parametrize(
        "space",
        [
            {},
            {"points": [[0.0], [1.0]], "interval": {"lo": 0.0, "hi": 1.0, "num": 2}},
            {"points": [[0.0], [1.0]]},
            {"points": [[0.0], [True]]},
            {"interval": {"lo": 0.0, "hi": 1.0, "num": 2.0}},
            {"interval": {"lo": 0.0, "hi": 1.0, "num": 2.5}},
        ],
    )
    def test_points_and_interval(self, base, space):
        self._agree(dict(copy.deepcopy(_BASE_DOCS[base]), space=space))

    @pytest.mark.parametrize(
        "path, value",
        [
            (("cost", "lip_scale"), 0),
            (("cost", "lip_scale"), 1e-300),
            (("cost", "params"), []),
            (("methods", 2, "beta"), 1),
            (("methods", 2, "beta"), 1.5),
            (("methods", 3, "divergence"), {"kind": "wasserstein", "p": 1}),
            (("methods", 3, "divergence"), {"kind": "wasserstein", "p": 0.999}),
            (("methods", 3, "divergence"), {"kind": "kl", "orientation": "sideways"}),
            (("methods", 3, "eps"), 0),
            (("space", "interval", "num"), 1),
            (("space", "interval", "num"), 0),
            (("seed",), 0),
            (("seed",), -1),
            (("replications",), 0),
            (("n",), [1]),
            (("n",), [0]),
            (("grid", "metric"), None),
            (("grid", "metric"), []),
            (("grid", "metric"), [[]]),
            (("grid", "metric"), [[0, -1]]),
            (("p0", "weights"), [0, 0, 1]),
            (("p0", "weights"), [-0.1, 0.6, 0.5]),
            (("methods", 3, "divergence"), {"kind": "kl", "p": 2.0}),
            (("methods", 3, "divergence"), {"kind": "tv", "p": 0.5}),
            (("methods", 3, "divergence"), {"kind": "wasserstein", "orientation": "reverse"}),
        ],
    )
    def test_boundaries(self, path, value):
        doc = base_config("results")
        if path[:2] == ("methods", 2) and path[2] == "beta":
            del doc["methods"][2]["alpha"]
        self._agree(_set(doc, path, value))


class TestAcceptedDocumentsRun:
    """A mutated config, accepted or not, ends ``run`` and ``verify-bounds``
    with an exit code (0, 1 or 2) and never with a traceback; a rejected one
    ends ``run`` with exit code 1, one ``error:`` line and nothing written.
    Mutated ``prior-from-reg``, ``divergence`` and problem documents (under
    ``solve`` and ``measure``) end with 0 or 1, the same way."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(single_mutations())
    # The validator admits an integral float count, as JSON Schema does.
    @example(_set(base_config("results"), ("space", "interval", "num"), 4.0))
    def test_single_mutations_exit_cleanly(self, tmp_path, doc):
        folder = Path(tempfile.mkdtemp(dir=tmp_path))
        (folder / "config.json").write_text(json.dumps(doc))
        runner = CliRunner(env={OUTPUT_DIR_ENV: str(folder / "results")})
        for command in ("run", "verify-bounds"):
            result = runner.invoke(main, [command, str(folder / "config.json")])
            assert result.exception is None or isinstance(result.exception, SystemExit), (command, result.output)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(single_mutations())
    def test_rejected_mutations_exit_1_and_write_nothing(self, tmp_path, doc):
        # A document the validator rejects ends ``run`` before any task: one
        # ``error:`` line and no results.csv or run_record.json.
        if _pointer(validate_config, doc) is None:
            return
        folder = Path(tempfile.mkdtemp(dir=tmp_path))
        (folder / "config.json").write_text(json.dumps(doc))
        runner = CliRunner(env={OUTPUT_DIR_ENV: str(folder / "results")})
        result = runner.invoke(main, ["run", str(folder / "config.json")])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert len(result.output.splitlines()) == 1 and result.output.startswith("error: "), result.output
        assert sorted(path.name for path in folder.rglob("*")) == ["config.json"]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(single_mutations((_REGULARIZER_DOC,)), st.booleans())
    def test_regularizer_mutations_exit_cleanly(self, tmp_path, doc, max_entropy):
        # ``prior-from-reg`` on a mutated document: an accepted one prints its
        # JSON verdict and exits 0, a rejected one exits 1 with one
        # ``error:`` line; neither ends in a traceback.
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "spec.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["prior-from-reg", str(path), *["--max-entropy"] * max_entropy])
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        if result.exit_code == 0:
            assert json.loads(result.output)["infeasible"] in (True, False)
        else:
            assert result.exit_code == 1, result.output
            assert len(result.output.splitlines()) == 1 and result.output.startswith("error: "), result.output

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(_SECOND_DISTRIBUTIONS), st.integers(0, 1), st.sampled_from(_DIVERGENCE_OPTIONS), st.data())
    def test_divergence_mutations_exit_cleanly(self, tmp_path, second, mutated, options, data):
        # ``divergence`` on a pair with one document mutated: an accepted
        # pair prints one JSON number (a non-finite one spelled as a string)
        # and exits 0, a rejected one exits 1 with one ``error:`` line;
        # neither ends in a traceback.
        docs = [_FIRST_DISTRIBUTION, second]
        docs[mutated] = data.draw(single_mutations((docs[mutated],)))
        folder = Path(tempfile.mkdtemp(dir=tmp_path))
        paths = [folder / "a.json", folder / "b.json"]
        for path, doc in zip(paths, docs):
            path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["divergence", *map(str, paths), *options])
        assert result.exception is None or isinstance(result.exception, SystemExit), result.output
        assert len(result.output.splitlines()) == 1, result.output
        if result.exit_code == 0:
            value = json.loads(result.output)
            assert isinstance(value, float) or value == "Infinity", result.output
        else:
            assert result.exit_code == 1 and result.output.startswith("error: "), result.output

    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(single_mutations((problem_doc(),)), st.sampled_from(_PROBLEM_COMMANDS))
    def test_problem_mutations_exit_cleanly(self, tmp_path, doc, command):
        # ``solve`` or ``measure`` on a mutated problem document: an accepted
        # one prints a JSON object and exits 0, a rejected one exits 1 with
        # one ``error:`` line; neither ends in a traceback.
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "prob.json"
        path.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, [command[0], str(path), *command[1:]])
        assert result.exception is None or isinstance(result.exception, SystemExit), (command, result.output)
        if result.exit_code == 0:
            assert isinstance(json.loads(result.output), dict), result.output
        else:
            assert result.exit_code == 1, result.output
            assert len(result.output.splitlines()) == 1 and result.output.startswith("error: "), result.output


class TestRunner:
    def test_smoke_run_completes_fast_and_holds(self, tmp_path):
        doc = base_config(str(tmp_path / "out"))
        cfg = resolve_config(doc)
        started = time.perf_counter()
        record = run_experiment(cfg)
        assert time.perf_counter() - started < 5.0
        assert record["errors"] == []
        assert [s["method"] for s in record["solutions"]] == list(METHODS)
        assert record["holds_violations"] == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "run_record.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        doc1 = base_config(str(tmp_path / "a"))
        doc2 = base_config(str(tmp_path / "b"))
        run_experiment(resolve_config(doc1))
        run_experiment(resolve_config(doc2))
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_parallel_run_matches_serial(self, tmp_path):
        doc = base_config(str(tmp_path / "serial"))
        doc["replications"] = 2
        run_experiment(resolve_config(doc))
        doc2 = base_config(str(tmp_path / "parallel"))
        doc2["replications"] = 2
        run_experiment(resolve_config(doc2), jobs=2)
        assert (tmp_path / "serial" / "results.csv").read_bytes() == (
            tmp_path / "parallel" / "results.csv"
        ).read_bytes()

    @pytest.mark.parametrize("ns, replications, jobs, workers", [
        ([10, 20], 1, 5000, 2), ([10], 1, 5000, None), ([10, 20], 2, 3, 3), ([10], 2, 1, None),
    ])
    def test_pool_never_has_more_workers_than_tasks(self, tmp_path, monkeypatch, ns, replications, jobs, workers):
        # An in-process stand-in for the pool records its size; no process
        # starts.  None means the run stays serial and makes no pool.  `run`
        # imports the pool class from concurrent.futures when it starts one.
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiment, "_worker_cfg", None)
        outputs = []
        for label, n_jobs in (("serial", 1), ("pooled", jobs)):
            doc = dict(base_config(str(tmp_path / label)), n=ns, replications=replications)
            run_experiment(resolve_config(doc), jobs=n_jobs)
            outputs.append((tmp_path / label / "results.csv").read_bytes())
        assert sizes == ([] if workers is None else [workers])
        assert outputs[0] == outputs[1]

    def test_rows_replay_through_library_calls(self, tmp_path):
        doc = base_config(str(tmp_path / "out"))
        cfg = resolve_config(doc)
        run_experiment(cfg)
        import csv as csvmod

        with open(tmp_path / "out" / "results.csv", newline="") as fh:
            rows = [r for r in csvmod.DictReader(fh)]
        saa_rows = [r for r in rows if json.loads(r["ingredients_json"]).get("method") == "saa"]
        assert saa_rows
        row = saa_rows[0]
        n, seed = int(row["n"]), int(row["seed"])
        assert seed == derive_seed(cfg.seed, n, 0)
        emp = empirical(sample(cfg.p0, n, seed))
        sol = solve_saa(emp, cfg.cf, cfg.space)
        x_recorded = np.array([float(v) for v in row["x_star"].split(";")])
        assert np.array_equal(sol.x, x_recorded)
        true_val = float(cfg.p0.weights @ cfg.cf.atom_costs(cfg.grid, sol.x))
        nominal_val = float(emp.weights @ cfg.cf.atom_costs(cfg.grid, sol.x))
        assert float(row["gap"]) == pytest.approx(abs(true_val - nominal_val), abs=1e-15)

    def test_csv_schema_header(self, tmp_path):
        doc = base_config(str(tmp_path / "out"))
        run_experiment(resolve_config(doc))
        first_line = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert first_line == "kind,n,seed,x_star,gap,bound,holds,ingredients_json"

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        override = tmp_path / "env_out"
        monkeypatch.setenv("DROLAB_OUTPUT_DIR", str(override))
        cfg = resolve_config(base_config(str(tmp_path / "ignored")))
        run_experiment(cfg)
        assert (override / "results.csv").exists()

    def test_plan_reports_shape(self, tmp_path):
        cfg = resolve_config(base_config(str(tmp_path)))
        p = plan(cfg)
        assert p["tasks"] == 1
        assert p["methods"][0] == "saa"
        assert p["grid_size"] == 3

    def test_solver_errors_recorded_not_swallowed(self, tmp_path):
        # A fixed tiny radius leaves the truth outside the ball; the bound's
        # hypothesis check aborts the replication and the error is recorded.
        doc = base_config(str(tmp_path / "out"))
        doc["methods"] = [{"method": "minmax_dro", "eps": 1e-6}]
        record = run_experiment(resolve_config(doc))
        assert record["errors"]
        assert "minmax_dro" in record["errors"][0]
        runner = CliRunner()
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["run", str(tmp_path / "bad.json")])
        assert result.exit_code == 1

    def test_kl_satisficing_on_one_sample_runs(self, tmp_path):
        # One sample makes the centre a Dirac, whose forward-KL balls never
        # grow: the rate is 0 and every replication writes its rows.
        doc = base_config(str(tmp_path / "out"))
        doc["methods"] = [{"method": "satisficing", "divergence": {"kind": "kl"}},
                          {"method": "satisficing", "divergence": {"kind": "kl"}, "sided": "one", "delta": 0.1}]
        doc["n"], doc["replications"] = [1], 2
        (tmp_path / "kl.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["run", str(tmp_path / "kl.json")])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["row_count"] == 8

    def test_golden_results_reproduced(self, tmp_path):
        # tests/data/golden_results.csv was recorded by the coupling-LP ball
        # oracle: six methods, W1 and W2 balls, n in {10, 40}.  Every column
        # that does not depend on which optimal witness an oracle returns must
        # match to 1e-9; the relative_dro gap and bound (and its
        # distance_to_witness) go through the witness and are checked by
        # ``holds`` only.
        import csv as csvmod

        data = Path(__file__).parent / "data"
        doc = json.loads((data / "golden_config.json").read_text())
        record = run_experiment(resolve_config(doc, str(tmp_path)))
        assert record["errors"] == []
        with open(data / "golden_results.csv", newline="") as fh:
            golden = list(csvmod.DictReader(fh))
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == len(golden) == 52
        for new, old in zip(rows, golden):
            assert [new[c] for c in ("kind", "n", "seed", "x_star", "holds")] == [
                old[c] for c in ("kind", "n", "seed", "x_star", "holds")
            ]
            if new["kind"] != "relative_dro":
                assert float(new["gap"]) == pytest.approx(float(old["gap"]), abs=1e-9)
                assert float(new["bound"]) == pytest.approx(float(old["bound"]), abs=1e-9)
            got, want = json.loads(new["ingredients_json"]), json.loads(old["ingredients_json"])
            assert got.keys() == want.keys()
            for key, value in want.items():
                if key == "method":
                    assert got[key] == value
                elif key != "distance_to_witness":
                    assert got[key] == pytest.approx(value, abs=1e-9), key

    def test_golden_run_solves_each_distance_once_per_replication(self, tmp_path, spy):
        # The golden config's methods and plan, with its atoms lifted off the
        # line so that the distances take the transport LP of a 2-D metric:
        # four replications ask for 60 distances, 5 of them distinct in each.
        calls = spy(divergence, "optimal_transport")
        doc = json.loads((Path(__file__).parent / "data" / "golden_config.json").read_text())
        heights = [0.0, 0.5, 0.2, 0.9, 0.4, 1.1, 0.3, 0.8]
        doc["grid"]["atoms"] = [[atom[0], y] for atom, y in zip(doc["grid"]["atoms"], heights)]
        record = run_experiment(resolve_config(doc, str(tmp_path)))
        assert record["errors"] == []
        assert len(calls) == 20


class TestVerifyBounds:
    def test_clean_config_passes(self, tmp_path):
        doc = base_config(str(tmp_path))
        ok, report = verify_bounds(resolve_config(doc))
        assert ok
        assert report["checked"] > 0
        assert report["violations"] == []

    def test_corrupted_lipschitz_detected(self, tmp_path):
        doc = base_config(str(tmp_path))
        doc["cost"]["lip_scale"] = 0.01
        ok, report = verify_bounds(resolve_config(doc))
        assert not ok
        assert report["violations"]

    def test_two_transport_solves_per_replication(self, tmp_path, spy):
        # W(p0, pbar) for the uniform bound, the radius, both membership
        # checks and the relative bound is solved once, then W(p0, witness),
        # each by the transport LP of a 2-D metric.  One replication at n=10
        # draws pbar = p0, whose distance is 0 with no LP.
        calls = spy(divergence, "optimal_transport")
        doc = base_config(str(tmp_path))
        doc["grid"] = {"atoms": [[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]]}
        doc["space"] = {"points": [[0.0, 0.0], [0.75, 0.25], [1.5, 0.5], [2.25, 0.75], [3.0, 1.0]]}
        doc["n"], doc["replications"] = [10, 40], 2
        ok, _ = verify_bounds(resolve_config(doc))
        assert ok
        assert len(calls) == 2 * 2 * 2 - 1

    def test_one_replication_solves_each_table_once(self, tmp_path, spy):
        # The absolute and one-sided suites read the decision table at the
        # radius, and the relative suite the nominal optimum's row on the
        # satisficing grid, in both senses: one value sweep per (table,
        # radii), on the one envelope walk of the decision table, of which
        # the nominal optimum's row is a row, over the centre's support.  The
        # cost function builds that table once for every suite and solver.
        walks, sweeps = spy(divergence, "_envelope_walk"), spy(divergence, "_wasserstein_values")
        tables = spy(CostFunction, "table")
        ok, _ = verify_bounds(resolve_config(base_config(str(tmp_path))))
        assert ok
        assert len(sweeps) == 2
        assert [args[0].shape for args, _ in walks] == [(10, 3)]
        assert [args[1].shape for args, _ in tables if len(args[1]) > 1] == [(5, 1)]

    def test_ball_records_are_the_rows_run_writes_for_the_default_entries(self, tmp_path, monkeypatch):
        # verify_bounds reads its ball suites through METHODS, so run on the
        # default abs_dro, satisficing and minmax_dro entries writes the same
        # records, in the same order and with the same bits.
        seen = []
        for name in ("absolute_bound", "relative_bound", "minmax_one_sided_bound"):
            def capturing(*args, _suite=getattr(experiment, name), **kwargs):
                pairs, sol = _suite(*args, **kwargs)
                seen.extend(pairs)
                return pairs, sol

            monkeypatch.setattr(experiment, name, capturing)
        doc = base_config(str(tmp_path))
        doc["methods"] = [{"method": "abs_dro"}, {"method": "satisficing"}, {"method": "minmax_dro"}]
        doc["n"], doc["replications"] = [10, 40], 2
        cfg = resolve_config(doc)
        ok, _ = verify_bounds(cfg)
        assert ok
        verified = [(rec.kind, experiment._format_x(gap.x), repr(float(rec.observed)), repr(float(rec.bound)))
                    for gap, rec in seen]
        assert run_experiment(cfg)["errors"] == []
        with open(tmp_path / "results.csv", newline="") as fh:
            rows = [(row["kind"], row["x_star"], row["gap"], row["bound"]) for row in csv.DictReader(fh)]
        assert len(verified) == 4 * 5  # two absolute, two relative, one one-sided
        assert verified == rows

    @staticmethod
    def _coupling_lps(tmp_path, monkeypatch, n: int) -> list:
        """The objective shape of each coupling LP call made by one
        replication of verify_bounds at sample size ``n`` on a newsvendor
        line of 13 decisions (13 calls with an LP on every row)."""
        coupling = []
        solve = solvers.solve_lp

        def counting(*args, **kwargs):
            if kwargs.get("a_ub") is not None:  # transport LPs have no inequality
                coupling.append(np.shape(args[0]))
            return solve(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_lp", counting)
        doc = {
            "grid": {"atoms": [[float(v)] for v in range(16)]},
            "p0": {"weights": np.random.default_rng(3).dirichlet(np.full(16, 2.0)).tolist()},
            "cost": {"name": "newsvendor", "params": {"b": 2.0, "c": 1.0}},
            "space": {"interval": {"lo": 0.0, "hi": 15.0, "num": 13}},
            "methods": [{"method": "saa"}],
            "n": [n],
            "replications": 1,
            "seed": 5,
            "output": str(tmp_path),
        }
        ok, _ = verify_bounds(resolve_config(doc))
        assert ok
        return coupling

    def test_absolute_bound_without_a_tie_makes_no_coupling_lp(self, tmp_path, monkeypatch):
        # The dual screen keeps one decision, whose up and down deviations
        # differ, so the replication's absolute_bound reads the dual alone.
        assert len(self._coupling_lps(tmp_path, monkeypatch, 10)) == 0

    def test_absolute_bound_tie_solves_one_row_by_coupling_lp(self, tmp_path, monkeypatch):
        # At n=40 the kept decision's up and down deviations tie, so one
        # coupling LP call with both senses stacked picks the binding side.
        assert self._coupling_lps(tmp_path, monkeypatch, 40) == [(2, 256)]


def test_kl_ball_methods_search_each_table_once(tmp_path, spy):
    # minmax_dro's pass over the decision table at the radius also serves
    # abs_dro's two senses there, and satisficing's two senses on its radius
    # grid share one pass: two forward-KL root searches in the replication.
    roots = spy(divergence, "_kl_tilt_roots")
    doc = base_config(str(tmp_path))
    doc["methods"] = [
        {"method": "minmax_dro", "eps": "auto", "divergence": {"kind": "kl"}},
        {"method": "abs_dro", "eps": "auto", "divergence": {"kind": "kl"}},
        {"method": "satisficing", "divergence": {"kind": "kl"}},
    ]
    record = run_experiment(resolve_config(doc))
    assert record["errors"] == []
    assert len(roots) == 2


def _line_config(output: str, kind: str) -> dict:
    """The benchmark's two line configs: a 16-atom integer line with
    newsvendor costs at n = 10 and 40, or a 12-atom line on [-3, 3] with
    Huber costs and forward-KL ball methods at n = 400."""
    rng = np.random.default_rng(5)
    if kind == "integer":
        return {
            "grid": {"atoms": [[float(v)] for v in range(16)]},
            "p0": {"weights": rng.dirichlet(np.full(16, 2.0)).tolist()},
            "cost": {"name": "newsvendor", "params": {"b": 2.0, "c": 1.0}},
            "space": {"interval": {"lo": 0.0, "hi": 15.0, "num": 13}},
            "methods": [{"method": "saa"}], "n": [10, 40], "replications": 1, "seed": 17, "output": output,
        }
    p0 = 0.5 / 12 + 0.5 * rng.dirichlet(np.ones(12))
    prior = {"weights": rng.dirichlet(np.full(12, 2.0)).tolist()}
    kl = {"kind": "kl", "orientation": "forward"}
    return {
        "grid": {"atoms": [[float(v)] for v in np.linspace(-3.0, 3.0, 12)]},
        "p0": {"weights": (p0 / p0.sum()).tolist()},
        "cost": {"name": "huber", "params": {"delta": 1.0}},
        "space": {"interval": {"lo": -3.0, "hi": 3.0, "num": 61}},
        "methods": [
            {"method": "saa"},
            {"method": "reg_saa", "lambda": 0.5, "prior": prior},
            {"method": "bayes_dp", "alpha": 5.0, "prior": prior},
            {"method": "minmax_dro", "eps": "auto", "divergence": kl},
            {"method": "abs_dro", "eps": "auto", "divergence": kl},
            {"method": "satisficing", "divergence": kl},
        ],
        "n": [400], "replications": 1, "seed": 23, "output": output,
    }


def _bits(value) -> str:
    """A text that pins every bit of the floats in ``value`` (records, arrays,
    dicts and lists of them)."""
    def plain(obj):
        if dataclasses.is_dataclass(obj):
            return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        if isinstance(obj, np.ndarray):
            return [str(obj.dtype), obj.shape, obj.tobytes().hex()]
        if isinstance(obj, np.generic):
            return obj.item()
        return repr(obj)

    return json.dumps(value, sort_keys=True, default=plain)


class TestTreeTransportEndToEnd:
    """A run and a bound check with every transport LP solved by the loop
    reference on its dense blocks keep every record and every file's bytes."""

    def _suite_records(self, monkeypatch) -> list:
        records = []
        for name in ("uniform_bound", "absolute_bound", "relative_bound", "minmax_one_sided_bound"):
            real = getattr(experiment, name)

            def suite(*args, _real=real, **kwargs):
                out = _real(*args, **kwargs)
                records.append(_bits(out if isinstance(out, list) else [out[0], out[1].to_json()]))
                return out

            monkeypatch.setattr(experiment, name, suite)
        return records

    def test_verify_bounds_on_the_integer_line(self, tmp_path, monkeypatch):
        records = self._suite_records(monkeypatch)
        results = []
        for dense in (False, True):
            with monkeypatch.context() as patch:
                calls = dense_transport_lp(patch, divergence) if dense else []
                ok, report = verify_bounds(resolve_config(_line_config(str(tmp_path), "integer")))
            results.append(_bits([ok, report]))
            assert len(calls) == (4 if dense else 0)  # two per task
        assert ok and results[0] == results[1]
        assert len(records) == 16 and records[:8] == records[8:]

    def test_run_on_the_huber_line_with_kl_methods(self, tmp_path, monkeypatch):
        # The record's wall time is the one field that may differ.
        monkeypatch.setattr(experiment, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        records = self._suite_records(monkeypatch)
        results = []
        for dense in (False, True):
            with monkeypatch.context() as patch:
                calls = dense_transport_lp(patch, divergence) if dense else []
                record = run_experiment(resolve_config(_line_config(str(tmp_path / "out"), "huber")))
            files = [(tmp_path / "out" / name).read_bytes() for name in ("results.csv", "run_record.json")]
            results.append((_bits(record), files))
            assert len(calls) == (2 if dense else 0)
        assert record["errors"] == [] and results[0] == results[1]
        assert len(records) == 12 and records[:6] == records[6:]


class TestSatisficingBound:
    """A configured satisficing model other than the two-sided zero-slack
    one that the relative bound reads shares its extremal sweeps."""

    @pytest.mark.parametrize("entry", [{"sided": "one"}, {"delta": 0.1}, {"sided": "one", "delta": 0.2}])
    def test_one_sweep_per_replication(self, tmp_path, spy, entry):
        sweeps = [spy(module, "extremal_values") for module in (divergence, solvers)]
        doc = base_config(str(tmp_path))
        doc["methods"] = [{"method": "satisficing", **entry}]
        doc["n"], doc["replications"] = [10, 40], 2
        record = run_experiment(resolve_config(doc))
        assert record["errors"] == []
        assert sum(map(len, sweeps)) == 2 * 2  # sample sizes x replications

    def test_every_row_passes_through_relative_bound(self, tmp_path, monkeypatch):
        # Tracers rebind the bound suites' names in drolab.experiment; a
        # satisficing method's records must all leave through one of them.
        seen = []
        bound = experiment.relative_bound

        def capturing(*args, **kwargs):
            pairs, sol = bound(*args, **kwargs)
            seen.extend(rec.kind for _, rec in pairs)
            return pairs, sol

        monkeypatch.setattr(experiment, "relative_bound", capturing)
        doc = base_config(str(tmp_path))
        doc["methods"] = [{"method": "satisficing", "sided": "one"}]
        record = run_experiment(resolve_config(doc))
        assert record["errors"] == []
        with open(tmp_path / "results.csv", newline="") as fh:
            kinds = [row["kind"] for row in csv.DictReader(fh)]
        assert kinds == seen == ["relative_nominal", "relative_dro"]


def _child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports the same drolab
    as this process, installed or not."""
    src = str(Path(drolab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def strict_json(text: str):
    """``json.loads`` that rejects the NaN and Infinity tokens Python writes."""

    def reject(token: str):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_kind_declarations_agree_with_the_kind_table():
    """Every list of divergence kinds names those of ``divergence._KINDS``: a
    kind with a ``-rev`` entry reads an orientation, the other its order."""
    table = set(divergence._KINDS)
    phi = {key.removesuffix("-rev") for key in table if key.endswith("-rev")}
    assert set(DIVERGENCE_KINDS) == {key.removesuffix("-rev") for key in table}
    assert table == {*DIVERGENCE_KINDS, *(f"{kind}-rev" for kind in phi)}
    assert DIVERGENCE_FIELD == {kind: "orientation" if kind in phi else "p" for kind in DIVERGENCE_KINDS}
    assert ORIENTATIONS == ("forward", "reverse")
    for command, option in (("divergence", "--kind"), ("solve", "--divergence"), ("measure", "--divergence")):
        params = {opt: param for param in main.commands[command].params for opt in param.opts}
        assert tuple(params[option].type.choices) == DIVERGENCE_KINDS
        assert tuple(params["--orientation"].type.choices) == ORIENTATIONS
    schema = json.loads((Path(__file__).parent / "data" / "config.schema.json").read_text())["$defs"]["divergence"]
    assert schema["properties"]["orientation"]["enum"] == list(ORIENTATIONS)
    reads = {}
    for clause in schema["allOf"]:
        kinds = clause["if"]["properties"]["kind"]
        (forbidden,) = clause["then"]["properties"]
        for kind in kinds.get("enum", [kinds.get("const")]):
            reads[kind] = ({"p", "orientation"} - {forbidden}).pop()
    assert reads == DIVERGENCE_FIELD


class TestCLI:
    def test_divergence_command(self, tmp_path):
        a = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
        b = {"weights": [0.5, 0.5, 0.0]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        runner = CliRunner()
        result = runner.invoke(
            main, ["divergence", "--kind", "wasserstein", "--p", "1", str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        )
        assert result.exit_code == 0
        assert float(result.output) == pytest.approx(1.3, abs=1e-9)

    def test_divergence_command_prints_an_infinite_value_as_strict_json(self, tmp_path):
        a = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.5, 0.5, 0.0]}
        b = {"weights": [0.2, 0.3, 0.5]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        result = CliRunner().invoke(main, ["divergence", "--kind", "kl", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert result.exit_code == 0
        assert strict_json(result.output) == "Infinity"

    @pytest.mark.parametrize(
        "args",
        [
            ["divergence", "DOC", "A"],
            ["divergence", "A", "DOC"],
            ["solve", "DOC", "--method", "saa"],
            ["measure", "DOC", "--kind", "absolute"],
            ["prior-from-reg", "DOC"],
            ["verify-bounds", "DOC"],
            ["run", "DOC"],
        ],
    )
    def test_a_document_that_is_not_an_object_exits_1_with_one_error_line(self, tmp_path, args):
        (tmp_path / "doc.json").write_text("5")
        (tmp_path / "a.json").write_text(json.dumps({"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}))
        paths = {"DOC": str(tmp_path / "doc.json"), "A": str(tmp_path / "a.json")}
        result = CliRunner().invoke(main, [paths.get(arg, arg) for arg in args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        # `divergence` reads two documents, so it names the one at fault.
        at = f"{paths['DOC']}: " if args[0] == "divergence" else ""
        assert result.output.splitlines() == [f"error: {at}/: must be an object"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (["divergence", "--kind", "kl", "--p", "7"], "--p: kl divergences do not read 'p'"),
            (["divergence", "--orientation", "reverse"], "--orientation: wasserstein divergences do not read 'orientation'"),
            (["solve", "--method", "minmax_dro", "--divergence", "kl", "--p", "2"], "--p: kl divergences do not read 'p'"),
            (["solve", "--method", "saa", "--orientation", "reverse"],
             "--orientation: wasserstein divergences do not read 'orientation'"),
            (["measure", "--kind", "absolute", "--divergence", "kl", "--p", "2"], "--p: kl divergences do not read 'p'"),
            (["measure", "--kind", "absolute", "--p", "0.5"], "--divergence/p: 0.5 must be >= 1"),
            (["divergence", "--p", "nan"], "--divergence/p: nan is not finite"),
        ],
    )
    def test_divergence_option_the_kind_never_reads_is_rejected(self, tmp_path, args, message):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        a = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        files = [str(tmp_path / "a.json")] * 2 if args[0] == "divergence" else [str(tmp_path / "prob.json")]
        result = CliRunner().invoke(main, [args[0], *files, *args[1:]])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"error: {message}"]

    def test_an_integral_float_interval_count_reads_as_the_integer(self, tmp_path):
        # "num": 4.0 passes validation, as JSON Schema's integer admits it;
        # every command that builds the space prints what it prints for 4.
        # Only the config hash differs, as it names the document's own text.
        printed = []
        for num in (4, 4.0):
            problem, config = tmp_path / "problem.json", tmp_path / "config.json"
            problem.write_text(json.dumps(_set(problem_doc(), ("space", "interval", "num"), num)))
            doc = _set(base_config(str(tmp_path / "out")), ("space", "interval", "num"), num)
            config.write_text(json.dumps(doc))
            results = [CliRunner().invoke(main, args) for args in (
                ["solve", str(problem), "--method", "abs_dro", "--eps", "0.3"],
                ["measure", str(problem), "--kind", "set", "--eps", "0.3"],
                ["verify-bounds", str(config)],
                ["run", str(config)],
            )]
            assert [result.exit_code for result in results] == [0, 0, 0, 0], results[-1].output
            printed.append([result.output.replace(config_hash(doc), "HASH") for result in results])
            printed[-1].append((tmp_path / "out" / "results.csv").read_text())
        assert printed[0] == printed[1]

    def test_solve_rejects_a_flag_its_method_does_not_read(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        for args, message in (
            (["saa", "--eps", "0.7", "--divergence", "kl", "--alpha", "3"], "--eps: saa does not read 'eps'"),
            (["saa", "--p", "2"], "--p: saa does not read 'divergence'"),
            (["reg_saa", "--lam", "0.5", "--sided", "two"], "--sided: reg_saa does not read 'sided'"),
            (["bayes_dp", "--alpha", "1", "--beta", "0.5"], "--beta: bayes_dp needs exactly one of 'alpha'/'beta'"),
            (["minmax_dro", "--eps", "0.3", "--delta", "0.1"], "--delta: minmax_dro does not read 'delta'"),
            (["abs_dro", "--lambda", "0.1"], "--lambda: abs_dro does not read 'lambda'"),
            (["satisficing", "--eps", "0.1"], "--eps: satisficing does not read 'eps'"),
        ):
            result = runner.invoke(main, ["solve", str(tmp_path / "prob.json"), "--method", *args])
            assert result.exit_code == 1
            assert result.output.splitlines() == [f"error: {message}"]
        # A flag left unset reads as its old default wherever it is read.
        for method, defaults in (("abs_dro", ["--eps", "0", "--divergence", "wasserstein"]),
                                 ("reg_saa", ["--lambda", "0"]), ("bayes_dp", ["--alpha", "0"]),
                                 ("satisficing", ["--sided", "one", "--delta", "0"])):
            outputs = [runner.invoke(main, ["solve", str(tmp_path / "prob.json"), "--method", method, *extra])
                       for extra in ([], defaults)]
            assert [r.exit_code for r in outputs] == [0, 0]
            assert outputs[0].output == outputs[1].output

    def test_measure_rejects_a_flag_its_kind_does_not_read(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        for args, message in (
            (["absolute", "--draws", "7", "--level", "9", "--alpha", "2"],
             "--draws: absolute measures do not read 'draws'"),
            (["relative", "--eps", "0.1"], "--eps: relative measures do not read 'eps'"),
            (["local", "--x-index", "1"], "--x-index: local measures do not read 'x-index'"),
            (["set", "--ref", "1"], "--ref: set measures do not read 'ref'"),
            (["set", "--eps", "0.2", "--alpha", "2"], "--alpha: set measures do not read 'alpha'"),
            (["pac", "--divergence", "kl"], "--divergence: pac measures do not read 'divergence'"),
            (["pac", "--variant", "solution"], "--variant: pac measures do not read 'variant'"),
            (["pac", "--budget", "5"], "--budget: pac measures do not read 'budget'"),
        ):
            result = runner.invoke(main, ["measure", str(tmp_path / "prob.json"), "--kind", *args])
            assert result.exit_code == 1
            assert result.output.splitlines() == [f"error: {message}"]
        for kind, defaults in (("absolute", ["--eps", "0", "--divergence", "wasserstein"]),
                               ("local", ["--variant", "objective"]),
                               ("set", ["--variant", "objective", "--eps", "0", "--budget", "200", "--seed", "0"]),
                               ("pac", ["--alpha", "1", "--level", "1", "--draws", "10000", "--seed", "0"])):
            outputs = [runner.invoke(main, ["measure", str(tmp_path / "prob.json"), "--kind", kind, *extra])
                       for extra in ([], defaults)]
            assert [r.exit_code for r in outputs] == [0, 0]
            assert outputs[0].output == outputs[1].output

    def test_divergence_options_default_to_what_the_kind_reads(self, tmp_path):
        a = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
        b = {"weights": [0.5, 0.5, 0.0]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        files = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        runner = CliRunner()
        for given, default in ((["--kind", "wasserstein"], ["--p", "1"]), (["--kind", "kl"], ["--orientation", "forward"])):
            outputs = [runner.invoke(main, ["divergence", *given, *extra, *files]) for extra in ([], default)]
            assert [r.exit_code for r in outputs] == [0, 0]
            assert outputs[0].output == outputs[1].output

    def test_solve_command(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        result = runner.invoke(
            main, ["solve", str(tmp_path / "prob.json"), "--method", "minmax_dro", "--eps", "0.3"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["method"] == "minmax_dro"
        assert "witness" in payload

    def test_solve_bayes_via_cli(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        result = runner.invoke(
            main, ["solve", str(tmp_path / "prob.json"), "--method", "bayes_dp", "--alpha", "2.0"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["method"] == "bayes_dp"

    def test_solve_bayes_infinite_alpha_is_the_prior_only(self, tmp_path):
        # `solve --alpha` is the bayes_dp field, which admits inf; `measure
        # --alpha` is a Dirichlet concentration and rejects it.
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        result = CliRunner().invoke(
            main, ["solve", str(tmp_path / "prob.json"), "--method", "bayes_dp", "--alpha", "inf"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["diagnostics"]["beta"] == 1.0

    def test_solve_remaining_methods_via_cli(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        cases = (
            ["--method", "saa"],
            ["--method", "reg_saa", "--lam", "0.5"],
            ["--method", "bayes_dp", "--beta", "0.25"],
            ["--method", "minmax_dro", "--eps", "0.3", "--divergence", "kl"],
            ["--method", "abs_dro", "--eps", "0.25"],
            ["--method", "satisficing", "--sided", "two"],
        )
        assert [args[1] for args in cases] == list(METHODS)
        for args in cases:
            result = runner.invoke(main, ["solve", str(tmp_path / "prob.json"), *args])
            assert result.exit_code == 0, result.output
            assert "objective_value" in strict_json(result.output)
        doc = problem_doc()
        doc["cost"]["name"] = "nonexistent"
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        result = runner.invoke(main, ["solve", str(tmp_path / "bad.json"), "--method", "saa"])
        assert result.exit_code == 1
        assert "/cost" in result.output

    def test_solve_writes_output_file(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        out = tmp_path / "sol.json"
        result = CliRunner().invoke(
            main, ["solve", str(tmp_path / "prob.json"), "--method", "saa", "--output", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["method"] == "saa"

    def test_measure_command_all_kinds(self, tmp_path):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        for args in (
            ["--kind", "absolute", "--eps", "0.3"],
            ["--kind", "relative"],
            ["--kind", "local", "--variant", "objective"],
            ["--kind", "set", "--variant", "solution", "--eps", "0.3", "--budget", "10"],
            ["--kind", "pac", "--alpha", "2.0", "--level", "5.0", "--draws", "500"],
        ):
            result = runner.invoke(main, ["measure", str(tmp_path / "prob.json"), *args])
            assert result.exit_code == 0, result.output
            payload = strict_json(result.output)
            assert "measure" in payload

    def test_measure_pac_draws_only_when_the_band_leaves_it_open(self, tmp_path):
        # The nominal decision x=1.5 costs 1.5, 0.5, 1.5 with reference 1.2:
        # a level of 5 covers every cost, one of 0.5 leaves out the middle one.
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        args = ["measure", str(tmp_path / "prob.json"), "--kind", "pac", "--alpha", "2.0", "--level"]
        result = runner.invoke(main, [*args, "5.0"])
        assert result.exit_code == 0, result.output
        decided = strict_json(result.output)["diagnostics"]
        assert decided["mc_mean_expectation"] is None and decided["draws"] == 0
        assert decided["empirical_probability"] == 1.0 and decided["empirical_sigma"] == 0.0
        result = runner.invoke(main, [*args, "0.5"])
        assert result.exit_code == 0, result.output
        undecided = strict_json(result.output)["diagnostics"]
        assert undecided["draws"] == 10_000 and isinstance(undecided["mc_mean_expectation"], float)
        assert 0.0 < undecided["empirical_probability"] < 1.0 and undecided["empirical_sigma"] > 0.0

    @pytest.mark.parametrize(
        "args, field",
        [
            (["measure", "--kind", "relative", "--ref", "5"], "measure"),
            (["measure", "--kind", "relative", "--divergence", "kl"], "upper_certificate"),
            (["solve", "--method", "satisficing", "--divergence", "kl"], "upper_certificate"),
        ],
    )
    def test_non_finite_values_print_as_strings(self, tmp_path, args, field):
        (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
        runner = CliRunner()
        result = runner.invoke(main, [args[0], str(tmp_path / "prob.json"), *args[1:]])
        assert result.exit_code == 0, result.output
        payload = strict_json(result.output)
        assert payload.get(field, payload["diagnostics"].get(field)) == "Infinity"
        if args[0] == "solve":
            out = tmp_path / "sol.json"
            result = runner.invoke(main, [args[0], str(tmp_path / "prob.json"), *args[1:], "--output", str(out)])
            assert result.exit_code == 0 and strict_json(out.read_text()) == payload

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_run_rejects_jobs_below_one(self, tmp_path, jobs):
        out = tmp_path / "results"
        (tmp_path / "config.json").write_text(json.dumps(base_config(str(out))))
        result = CliRunner().invoke(main, ["run", str(tmp_path / "config.json"), "--jobs", jobs])
        assert result.exit_code == 1
        assert result.output.splitlines() == [f"error: --jobs: {jobs} must be >= 1"]
        assert not out.exists()

    def test_prior_from_reg_command(self, tmp_path):
        doc = {
            "grid": {"atoms": [[0.0], [1.0], [3.0]]},
            "cost": {"name": "absolute"},
            "f_table": {
                "points": [[0.0], [1.5], [3.0]],
                "values": [1.8, 1.05, 1.2],
            },
        }
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        runner = CliRunner()
        result = runner.invoke(main, ["prior-from-reg", str(tmp_path / "spec.json")])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["infeasible"] in (True, False)

    @pytest.mark.parametrize(
        "f_table, message",
        [
            (7, "/f_table: must be an object"),
            ({"points": [[1.0], [1.0]], "values": [0.5, 0.9]}, "/f_table/points/1: repeats point 0"),
            ({"points": [[0.0], [1.5], [0], [3.0]], "values": [1.8, 1.05, 1.8, 1.2]},
             "/f_table/points/2: repeats point 0"),
            ({"points": [[0.0], [1.5]], "values": [1.8]}, "/f_table/values: needs one value per point: 2, not 1"),
        ],
    )
    def test_prior_from_reg_rejects_a_malformed_table(self, tmp_path, f_table, message):
        doc = {"grid": {"atoms": [[0.0], [1.0], [3.0]]}, "cost": {"name": "absolute"}, "f_table": f_table}
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["prior-from-reg", str(tmp_path / "spec.json")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "command, section, value, message",
        [
            ("solve", "space", {"points": [[0.0, 1.0], [1.0, 2.0]]},
             "/cost: absolute does not read 2-D decisions on 1-D atoms"),
            ("prior-from-reg", "f_table", {"points": [[0.0, 1.0], [1.0, 2.0]], "values": [1.8, 1.05]},
             "/cost: absolute does not read 2-D decisions on 1-D atoms"),
            ("solve", "cost", {"name": "linreg"}, "/cost: linreg does not read 1-D decisions on 1-D atoms"),
            ("solve", "cost", {"name": "newsvendor", "params": {"b": True}}, "/cost/params/b: True is not a number"),
            ("solve", "cost", {"name": "newsvendor", "params": {"b": "x"}}, "/cost/params/b: 'x' is not a number"),
            ("solve", "cost", {"name": "newsvendor", "params": {"b": [1]}}, "/cost/params/b: [1] is not a number"),
            ("solve", "cost", {"name": "newsvendor", "params": {"q": 1}},
             "/cost/params/q: newsvendor reads ['b', 'c'], not 'q'"),
            ("measure", "cost", {"name": "huber", "params": {"delta": 0}}, "/cost/params/delta: 0 must be > 0"),
            ("prior-from-reg", "cost", {"name": "newsvendor", "params": {"c": -1.0}},
             "/cost/params/c: -1.0 must be >= 0"),
            ("verify-bounds", "cost", {"name": "absolute", "params": {"b": 1.0}},
             "/cost/params/b: absolute reads no parameters, not 'b'"),
            ("run", "cost", {"name": "entropy"},
             "/cost: unknown cost 'entropy'; available: ['absolute', 'huber', 'linreg', 'newsvendor', 'squared']"),
        ],
    )
    def test_a_cost_that_cannot_read_its_input_exits_1_with_one_error_line(
        self, tmp_path, command, section, value, message
    ):
        _assert_one_error_line(tmp_path, command, section, value, message)

    @pytest.mark.parametrize(
        "command, section, value, message",
        [
            ("solve", "space", {"points": [[0.0], [1.0, 2.0]]}, "/space/points/1: has 2 coordinates, point 0 has 1"),
            ("measure", "grid", {"atoms": [[0.0], [1.0], [3.0, 4.0]]},
             "/grid/atoms/2: has 2 coordinates, point 0 has 1"),
            ("run", "grid", {"atoms": [[0.0, 1.0], [1.0], [3.0, 0.0]]},
             "/grid/atoms/1: has 1 coordinate, point 0 has 2"),
            ("verify-bounds", "grid", {"atoms": [[0.0], [1.0], [3.0]], "metric": [[0, 1, 3], [1, 0], [3, 2, 0]]},
             "/grid/metric/1: has 2 numbers, row 0 has 3"),
            ("solve", "grid", {"atoms": [[0.0], [1.0], [3.0]], "metric": [[0, 1, 3], [1, 0, 2], [3, 2, 0, 1]]},
             "/grid/metric/2: has 4 numbers, row 0 has 3"),
            ("prior-from-reg", "f_table", {"points": [[0.0], [1.5, 0.0]], "values": [1.8, 1.05]},
             "/f_table/points/1: has 2 coordinates, point 0 has 1"),
            ("prior-from-reg", "grid", {"atoms": [[0.0], [1.0, 2.0], [3.0]]},
             "/grid/atoms/1: has 2 coordinates, point 0 has 1"),
            ("divergence", "atoms", [[0.0], [1.0], [3.0, 1.0]], "/atoms/2: has 2 coordinates, point 0 has 1"),
            ("divergence", "metric", [[0, 1, 3], [1, 0, 2], [3]], "/metric/2: has 1 number, row 0 has 3"),
            # A square metric of the wrong size: the grid rejects it, as `solve` does.
            ("prior-from-reg", "grid", {"atoms": [[0.0], [1.0], [3.0]], "metric": [[0.0, 1.0], [1.0, 0.0]]},
             "/grid: ground metric must be 3x3, got (2, 2)"),
        ],
    )
    def test_an_array_of_the_wrong_shape_exits_1_with_one_error_line(
        self, tmp_path, command, section, value, message
    ):
        _assert_one_error_line(tmp_path, command, section, value, message)

    def test_divergence_names_the_document_at_fault(self, tmp_path):
        good = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
        bad = {"weights": [0.2, "x", 0.5]}
        for a, b, at in ((good, bad, "b.json"), (bad, good, "a.json")):
            (tmp_path / "a.json").write_text(json.dumps(a))
            (tmp_path / "b.json").write_text(json.dumps(b))
            result = CliRunner().invoke(main, ["divergence", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
            assert result.exit_code == 1
            assert result.output.splitlines() == [f"error: {tmp_path / at}: /weights/1: 'x' is not a number"]

    def test_divergence_rejects_a_metric_it_would_not_read(self, tmp_path):
        # The second document takes the first one's grid unless it gives its
        # own atoms, so a metric without atoms there would be ignored.
        a = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
        b = {"weights": [0.5, 0.5, 0.0], "metric": [[0, 9, 9], [9, 0, 9], [9, 9, 0]]}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        result = CliRunner().invoke(main, ["divergence", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert result.exit_code == 1
        [line] = result.output.splitlines()
        assert line.startswith(f"error: {tmp_path / 'b.json'}: /metric: ")

    @pytest.mark.parametrize(
        "own, pointer",
        [
            ({"metric": [[0, 9, 9], [9, 0, 9], [9, 9, 0]]}, "/metric"),
            ({"atoms": [[0.0], [1.0], [2.0]]}, "/atoms"),
            ({"atoms": [[0.0], [1.0], [2.0]], "metric": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}, "/atoms"),
            ({"atoms": [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]}, "/atoms"),
        ],
    )
    def test_divergence_names_the_grid_the_second_document_makes(self, tmp_path, own, pointer):
        # Atoms in the second document make its own grid, which must be the
        # first one's; the pointer is the metric when only the metric differs.
        a = {"atoms": [[0.0], [1.0], [3.0]], "weights": [0.2, 0.3, 0.5]}
        b = {"atoms": a["atoms"], "weights": [0.5, 0.5, 0.0], **own}
        (tmp_path / "a.json").write_text(json.dumps(a))
        (tmp_path / "b.json").write_text(json.dumps(b))
        result = CliRunner().invoke(main, ["divergence", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
        assert result.exit_code == 1
        [line] = result.output.splitlines()
        assert line.startswith(f"error: {tmp_path / 'b.json'}: {pointer}: ")

    def test_run_dry_run_writes_nothing(self, tmp_path):
        out = tmp_path / "results"
        (tmp_path / "config.json").write_text(json.dumps(base_config(str(out))))
        runner = CliRunner()
        result = runner.invoke(main, ["run", str(tmp_path / "config.json"), "--dry-run"])
        assert result.exit_code == 0
        assert "config_hash" in result.output
        assert not out.exists()

    def test_run_command_and_validation_exit_code(self, tmp_path):
        out = tmp_path / "results"
        config = base_config(str(out))
        (tmp_path / "config.json").write_text(json.dumps(config))
        runner = CliRunner()
        result = runner.invoke(main, ["run", str(tmp_path / "config.json")])
        assert result.exit_code == 0, result.output
        assert (out / "results.csv").exists()
        bad = dict(config)
        bad["methods"] = [{"method": "minmax_dro", "eps": -1.0}]
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        result = runner.invoke(main, ["run", str(tmp_path / "bad.json")])
        assert result.exit_code == 1
        assert "eps" in result.output

    def test_verify_bounds_exit_codes(self, tmp_path):
        config = base_config(str(tmp_path))
        (tmp_path / "ok.json").write_text(json.dumps(config))
        runner = CliRunner()
        assert runner.invoke(main, ["verify-bounds", str(tmp_path / "ok.json")]).exit_code == 0
        corrupted = base_config(str(tmp_path))
        corrupted["cost"]["lip_scale"] = 0.01
        (tmp_path / "bad.json").write_text(json.dumps(corrupted))
        result = runner.invoke(main, ["verify-bounds", str(tmp_path / "bad.json")])
        assert result.exit_code == 2

    def test_run_does_not_import_scipy(self, tmp_path):
        # scipy is only a test dependency: a run that loaded it would carry
        # ~40 MB more peak memory.
        env = _child_env(**{OUTPUT_DIR_ENV: str(tmp_path)})
        script = (
            "import sys\n"
            "from drolab.cli import main\n"
            "main(['run', sys.argv[1]], standalone_mode=False)\n"
            "print('scipy loaded:', 'scipy' in sys.modules)\n"
            "print('jsonschema loaded:', 'jsonschema' in sys.modules)\n"
        )
        config = Path(__file__).parent / "data" / "golden_config.json"
        result = subprocess.run([sys.executable, "-c", script, str(config)], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-2:] == ["scipy loaded: False", "jsonschema loaded: False"]
        assert (tmp_path / "results.csv").exists()

    def test_imports_load_no_scipy_module(self):
        # lp.py stands in for SciPy's HiGHS; the tests import scipy
        # themselves, so only a fresh interpreter can see an import of
        # scipy or any of its submodules leak into the package.
        script = (
            "import sys\n"
            "import drolab, drolab.experiment, drolab.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_imports_load_no_process_pool_or_hashlib(self):
        # Only `run` with more than one worker needs the process pool's
        # modules, and only `config_hash` needs hashlib (OpenSSL): importing
        # the package loads neither.
        script = (
            "import sys\n"
            "import drolab, drolab.experiment, drolab.cli\n"
            "print([m for m in ('concurrent.futures.process', 'multiprocessing', 'hashlib') if m in sys.modules])\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_module_entry_point(self, tmp_path):
        # The CLI is reachable as `python -m drolab` for environments where
        # the console script is not on PATH.
        result = subprocess.run(
            [sys.executable, "-m", "drolab", "--version"], capture_output=True, text=True, env=_child_env()
        )
        assert result.returncode == 0
        assert "drolab" in result.stdout


# `drolab solve` and `drolab measure` on problem_doc(): every method and every
# measure kind, the ball ones on W1 and W2 balls.  KL balls are left out: their
# oracle's values may move by ulps.
_BALL_SOLVES = [
    ["minmax_dro", "--eps", "0.3"],
    ["abs_dro", "--eps", "0.3"],  # the screen's coupling LP decides
    ["abs_dro", "--eps", "0.6"],  # the dual decides alone
    ["satisficing", "--sided", "one"],
    ["satisficing", "--sided", "two", "--delta", "0.2"],
]
_BALL_MEASURES = [
    ["absolute", "--eps", "0.3"],
    ["absolute", "--eps", "0.3", "--x-index", "4", "--ref", "1.0"],
    ["relative"],
    ["local", "--variant", "objective"],
    ["local", "--variant", "solution"],
    ["set", "--eps", "0.3", "--variant", "objective", "--budget", "20"],
    ["set", "--eps", "0.6", "--variant", "solution", "--budget", "20", "--seed", "3"],
]
GOLDEN_CLI_CASES = [
    ["solve", "--method", "saa"],
    ["solve", "--method", "reg_saa", "--lambda", "0.5"],
    ["solve", "--method", "bayes_dp", "--alpha", "2.0"],
    ["solve", "--method", "bayes_dp", "--beta", "0.3"],
    *(["solve", "--method", *args, "--p", p] for p in ("1", "2") for args in _BALL_SOLVES),
    ["measure", "--kind", "pac", "--draws", "500", "--level", "0.5"],
    *(["measure", "--kind", *args, "--p", p] for p in ("1", "2") for args in _BALL_MEASURES),
]
GOLDEN_CLI = Path(__file__).parent / "data" / "golden_cli.json"


def golden_cli_output(problem: Path, case: list) -> str:
    """What ``drolab`` prints for ``case`` on the problem document ``problem``."""
    result = CliRunner().invoke(main, [case[0], str(problem), *case[1:]])
    assert result.exit_code == 0, result.output
    return result.output


def test_solve_and_measure_keep_their_golden_bytes(tmp_path):
    # tests/data/golden_cli.json holds each case's printed document under its
    # command line; printed again as the CLI prints it, it must give the same
    # bytes, so every value and witness weight keeps its bits.
    golden = json.loads(GOLDEN_CLI.read_text())
    assert sorted(golden) == sorted(" ".join(case) for case in GOLDEN_CLI_CASES)
    (tmp_path / "prob.json").write_text(json.dumps(problem_doc()))
    for case in GOLDEN_CLI_CASES:
        want = json.dumps(golden[" ".join(case)], indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert golden_cli_output(tmp_path / "prob.json", case) == want, case
