"""Config validation, the runner, persistence, and the CLI surface."""

import copy
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import drolab
from _oracles import validate_config_jsonschema
from drolab import divergence, solvers
from drolab.cli import main
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
            (("grid", "atoms"), [[0.0], [1.0, 2.0], [3.0]], "^/grid: .*inhomogeneous"),
            (("grid", "atoms"), [[0.0], [0.0], [3.0]], "^/grid: atoms 0 and 1 coincide"),
            (("grid", "metric"), [[0.0, 1.0], [1.0, 0.0]], "^/grid: ground metric must be 3x3"),
            (("space", "interval"), {"lo": 3.0, "hi": 0.0, "num": 5}, "^/space: interval upper end below lower end"),
            (("space",), {"points": [[0.0], [1.0, 2.0]]}, "^/space: .*inhomogeneous"),
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
_VALUES = [
    True, False, None, 0, 1, -1, 2, 2.5, -0.5, 10.0, 0.0, -0.0, "auto", "x", "one", "kl", "tv", "reverse", "saa",
    [], {}, [1.0], [[1.0]], [0.5, 0.5], {"kind": "wasserstein"}, {"kind": "tv"}, {"weights": [1.0]},
    {"lo": 0, "hi": 1, "num": 2},
]
_KEYS = ["unknown", "eps", "alpha", "beta", "lambda", "delta", "sided", "prior", "divergence", "p", "orientation",
         "metric", "params", "lip_scale", "points", "interval", "output", "method", "kind"]


@st.composite
def single_mutations(draw):
    """A base document changed at one place: a value swapped (booleans,
    integral floats, negatives, empty arrays and objects included), a key
    removed or added, or an array element removed or repeated."""
    doc = copy.deepcopy(draw(st.sampled_from(_BASE_DOCS)))
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
        ],
    )
    def test_boundaries(self, path, value):
        doc = base_config("results")
        if path[:2] == ("methods", 2) and path[2] == "beta":
            del doc["methods"][2]["alpha"]
        self._agree(_set(doc, path, value))


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

    def test_golden_run_solves_each_distance_once_per_replication(self, tmp_path, monkeypatch):
        # Four replications ask for 60 distances, 5 of them distinct in each.
        calls = []
        solve = divergence.optimal_transport
        monkeypatch.setattr(divergence, "optimal_transport", lambda *args: calls.append(args) or solve(*args))
        doc = json.loads((Path(__file__).parent / "data" / "golden_config.json").read_text())
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

    def test_two_transport_solves_per_replication(self, tmp_path, monkeypatch):
        # W(p0, pbar) for the uniform bound, the radius, both membership
        # checks and the relative bound is solved once, then W(p0, witness).
        calls = []
        solve = divergence.optimal_transport
        monkeypatch.setattr(divergence, "optimal_transport", lambda *args: calls.append(args) or solve(*args))
        doc = base_config(str(tmp_path))
        doc["n"], doc["replications"] = [10, 40], 2
        ok, _ = verify_bounds(resolve_config(doc))
        assert ok
        assert len(calls) == 2 * 2 * 2

    def test_absolute_bound_solves_one_row_by_coupling_lp(self, tmp_path, monkeypatch):
        # The dual screen keeps one of the 13 decisions of this newsvendor
        # line, so the replication's absolute_bound makes that row's two
        # coupling LPs (26 with an LP on every row).
        coupling = []
        solve = solvers.solve_lp

        def counting(*args, **kwargs):
            if kwargs.get("a_ub") is not None:  # transport LPs have no inequality
                coupling.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(solvers, "solve_lp", counting)
        doc = {
            "grid": {"atoms": [[float(v)] for v in range(16)]},
            "p0": {"weights": np.random.default_rng(3).dirichlet(np.full(16, 2.0)).tolist()},
            "cost": {"name": "newsvendor", "params": {"b": 2.0, "c": 1.0}},
            "space": {"interval": {"lo": 0.0, "hi": 15.0, "num": 13}},
            "methods": [{"method": "saa"}],
            "n": [10],
            "replications": 1,
            "seed": 5,
            "output": str(tmp_path),
        }
        ok, _ = verify_bounds(resolve_config(doc))
        assert ok
        assert len(coupling) == 2


class TestSatisficingBound:
    """A configured satisficing model other than the two-sided zero-slack
    one that the relative bound reads shares its extremal sweeps."""

    @pytest.mark.parametrize("entry", [{"sided": "one"}, {"delta": 0.1}, {"sided": "one", "delta": 0.2}])
    def test_one_sweep_per_sense_per_replication(self, tmp_path, monkeypatch, entry):
        senses = []
        sweep = divergence.extremal_values

        def counting(center, kind, table, radii, sense="max"):
            senses.append(sense)
            return sweep(center, kind, table, radii, sense)

        monkeypatch.setattr(divergence, "extremal_values", counting)
        monkeypatch.setattr(solvers, "extremal_values", counting)
        doc = base_config(str(tmp_path))
        doc["methods"] = [{"method": "satisficing", **entry}]
        doc["n"], doc["replications"] = [10, 40], 2
        record = run_experiment(resolve_config(doc))
        assert record["errors"] == []
        assert sorted(senses) == ["max"] * 4 + ["min"] * 4


def strict_json(text: str):
    """``json.loads`` that rejects the NaN and Infinity tokens Python writes."""

    def reject(token: str):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


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
        src = str(Path(drolab.__file__).resolve().parents[1])
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **{OUTPUT_DIR_ENV: str(tmp_path)},
        )
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

    def test_module_entry_point(self, tmp_path):
        # The CLI is reachable as `python -m drolab` for environments where
        # the console script is not on PATH.
        # The child imports the same drolab as this process, installed or not.
        src = str(Path(drolab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "drolab", "--version"], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0
        assert "drolab" in result.stdout
