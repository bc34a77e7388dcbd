"""Cost registry, expected cost, and Lipschitz metadata checks."""

import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import measured_lipschitz_in_xi, scalar_cost, scalar_cost_table
from conftest import random_distribution, random_grid
from drolab.cost import (
    CostFunction,
    DecisionSpace,
    NonFiniteCostError,
    Regularizer,
    builtin_costs,
    cost_from_json,
    cost_table,
    expected_cost,
    make_cost,
    validate_cost,
    with_lipschitz_scale,
)
from drolab import cost
from drolab.support import ConfigError, DiscreteDistribution, SupportGrid, mixture


class TestDecisionSpace:
    def test_interval_discretization(self):
        space = DecisionSpace.interval(0.0, 1.0, 5)
        assert len(space) == 5
        assert space[0] == pytest.approx([0.0])
        assert space[4] == pytest.approx([1.0])

    def test_interval_takes_an_integral_float_count(self):
        assert DecisionSpace.interval(0.0, 3.0, 4.0).points.tobytes() == DecisionSpace.interval(0.0, 3.0, 4).points.tobytes()
        for num in (2.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="whole number of points"):
                DecisionSpace.interval(0.0, 3.0, num)

    def test_points_accept_scalars(self):
        space = DecisionSpace.from_points([0.0, 0.5, 1.0])
        assert space.points.shape == (3, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DecisionSpace.from_points(np.zeros((0, 1)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DecisionSpace.from_points([[math.inf]]),
            lambda: DecisionSpace.from_points([[0.0], [math.nan]]),
            lambda: DecisionSpace.interval(0.0, math.nan, 3),
            lambda: DecisionSpace.interval(-math.inf, 0.0, 3),
        ],
    )
    def test_non_finite_points_rejected(self, build):
        with pytest.raises(ValueError, match="must be finite"):
            build()

    @pytest.mark.parametrize("shape", [(3, 1), (3,)])
    def test_freezes_a_copy_of_the_callers_points(self, shape):
        points = np.array([0.0, 0.5, 1.0]).reshape(shape)
        space = DecisionSpace(points)
        points[0] = 5.0
        assert space.points[:, 0].tolist() == [0.0, 0.5, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            space.points[0, 0] = 5.0


class TestExpectedCost:
    def test_dirac_reduces_to_point_evaluation(self, line_grid):
        cf = make_cost("absolute")
        d = DiscreteDistribution.dirac(line_grid, 2)
        assert expected_cost(d, cf, [0.5]) == pytest.approx(cf([0.5], line_grid.atoms[2]))

    def test_newsvendor_hand_value(self):
        grid = SupportGrid.euclidean([[0.0], [1.0]])
        cf = make_cost("newsvendor", params={"b": 1.0, "c": 1.0})
        d = DiscreteDistribution.uniform(grid)
        assert expected_cost(d, cf, [0.0]) == pytest.approx(0.5)

    def test_constant_cost_is_normalization_check(self, line_grid):
        cf = CostFunction("const7", lambda x, xi: 7.0)
        d = DiscreteDistribution(line_grid, [0.2, 0.3, 0.5])
        assert expected_cost(d, cf, [0.0]) == pytest.approx(7.0)

    def test_non_finite_value_names_location(self, line_grid):
        # On atoms 0, 1, 3 the cost is infinite at atom index 2 for x > 0.5
        # only, so the first bad cell in row-major order is (x=[1.0], atom 2)
        # whether the table loops over a scalar cost or is one array formula.
        scalar = CostFunction("bad", lambda x, xi: math.inf if xi[0] > 2 and x[0] > 0.5 else 1.0)
        vectorised = CostFunction.vectorised(
            "bad", lambda pts, atoms: np.where((atoms[None, :, 0] > 2) & (pts[:, None, 0] > 0.5), math.inf, 1.0)
        )
        d = DiscreteDistribution.uniform(line_grid)
        space = DecisionSpace.from_points([[0.0], [1.0], [2.0]])
        for cf in (scalar, vectorised):
            assert expected_cost(d, cf, [0.0]) == 1.0
            with pytest.raises(NonFiniteCostError, match="atom index 2"):
                expected_cost(d, cf, [1.0])
            with pytest.raises(NonFiniteCostError, match=re.escape("is not finite at x=[1.0], atom index 2")):
                cost_table(cf, line_grid, space)

    @given(seed=st.integers(0, 100_000), beta=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_distribution(self, seed, beta):
        rng = np.random.default_rng(seed)
        grid = random_grid(rng, 4)
        a, b = random_distribution(rng, grid), random_distribution(rng, grid)
        cf = make_cost("absolute")
        x = rng.normal(size=1)
        mixed = expected_cost(mixture(beta, a, b), cf, x)
        split = beta * expected_cost(a, cf, x) + (1 - beta) * expected_cost(b, cf, x)
        assert mixed == pytest.approx(split, abs=1e-12)


class TestBuiltins:
    def test_registry_names(self):
        names = set(builtin_costs())
        assert {"absolute", "squared", "newsvendor", "huber", "linreg"} <= names

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown cost"):
            make_cost("entropy")

    def test_each_entry_lists_its_factorys_parameters(self):
        for name, (factory, takes, _) in cost._BUILTINS.items():
            taken = [key for key in inspect.signature(factory).parameters if key not in ("grid", "space")]
            assert taken == list(takes), name

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("newsvendor", {"b": -1.0}, "/params/b: -1.0 must be >= 0"),
            ("newsvendor", {"b": 2.0, "c": math.nan}, "/params/c: nan must be >= 0"),
            ("huber", {"delta": 0.0}, "/params/delta: 0.0 must be > 0"),
            ("huber", {"delta": -math.inf}, "/params/delta: -inf must be > 0"),
            ("newsvendor", {"q": 1.0}, "/params/q: newsvendor reads ['b', 'c'], not 'q'"),
            ("squared", {"delta": 1.0}, "/params/delta: squared reads no parameters, not 'delta'"),
        ],
    )
    def test_parameter_it_does_not_read_or_out_of_range_rejected(self, name, params, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            make_cost(name, params=params)

    def test_least_values_admitted(self):
        assert make_cost("newsvendor", params={"b": 0, "c": 0.0})([0.0], [1.0]) == 0.0
        assert make_cost("huber", params={"delta": 1e-300}).lip_in_xi([0.0]) == 1e-300

    def test_dimensions_it_does_not_read_rejected(self):
        line, plane = SupportGrid.euclidean([[0.0], [1.0]]), SupportGrid.euclidean([[0.0, 1.0], [1.0, 0.5]])
        flat, slopes = DecisionSpace.from_points([[0.0, 1.0]]), DecisionSpace.interval(0.0, 1.0, 3)
        for name in ("absolute", "squared", "huber"):
            with pytest.raises(ValueError, match=f"^{name} does not read 2-D decisions on 1-D atoms$"):
                make_cost(name, grid=line, space=flat)
            make_cost(name, grid=plane, space=flat)
            make_cost(name, grid=line)  # no space, nothing to compare
        with pytest.raises(ValueError, match="^linreg does not read 1-D decisions on 1-D atoms$"):
            make_cost("linreg", grid=line, space=slopes)
        # linreg reads a slope, newsvendor the first coordinate of each side.
        validate_cost(make_cost("linreg", grid=plane, space=slopes), plane, slopes)
        for grid, space in ((line, flat), (plane, slopes)):
            validate_cost(make_cost("newsvendor", grid=grid, space=space), grid, space)

    def test_absolute_lipschitz_is_one(self):
        cf = make_cost("absolute")
        assert cf.lip_in_xi([0.3]) == 1.0
        assert cf.lip_in_x([2.0]) == 1.0

    def test_squared_gradient_bound(self):
        grid = SupportGrid.euclidean([[0.0], [0.5], [1.0]])
        space = DecisionSpace.interval(0.0, 1.0, 5)
        cf = make_cost("squared", grid=grid, space=space)
        # Max gradient over the grid from x: 2 * max |x - xi| <= 2 on [0,1].
        assert cf.lip_in_xi([0.0]) == pytest.approx(2.0)
        assert cf.lip_in_xi([0.5]) == pytest.approx(1.0)
        assert cf.lip_in_xi([1.0]) <= 2.0

    def test_huber_clamps_gradient(self):
        cf = make_cost("huber", params={"delta": 1.0})
        assert cf.lip_in_xi([0.0]) == 1.0
        # Quadratic inside the threshold, linear outside.
        assert cf([0.0], [0.5]) == pytest.approx(0.125)
        assert cf([0.0], [2.0]) == pytest.approx(1.5)

    def test_squared_needs_grid_for_lipschitz(self):
        cf = make_cost("squared")
        with pytest.raises(ValueError, match="grid"):
            cf.lip_in_xi([0.0])

    def test_linreg_residual_loss(self):
        grid = SupportGrid.euclidean([[1.0, 2.0], [2.0, 2.0]])
        cf = make_cost("linreg", grid=grid)
        assert cf([2.0], [1.0, 2.0]) == pytest.approx(0.0)
        assert cf([1.0], [2.0, 2.0]) == pytest.approx(0.0)
        assert cf([0.0], [1.0, 2.0]) == pytest.approx(4.0)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("absolute", None),
            ("squared", None),
            ("newsvendor", {"b": 2.0, "c": 0.5}),
            ("huber", {"delta": 0.7}),
        ],
    )
    def test_declared_constants_dominate_finite_differences(self, name, params):
        rng = np.random.default_rng(17)
        grid = random_grid(rng, 6, dim=1)
        space = DecisionSpace.interval(-2.0, 2.0, 9)
        cf = make_cost(name, grid=grid, space=space, params=params)
        validate_cost(cf, grid, space)

    def test_linreg_constants_dominate(self):
        grid = SupportGrid.euclidean([[0.0, 1.0], [1.0, 0.5], [2.0, 2.0], [0.5, -1.0]])
        space = DecisionSpace.interval(-1.5, 1.5, 7)
        cf = make_cost("linreg", grid=grid, space=space)
        validate_cost(cf, grid, space)

    def test_measured_constant_never_exceeds_declared(self):
        rng = np.random.default_rng(23)
        grid = random_grid(rng, 5)
        space = DecisionSpace.interval(-1.0, 1.0, 5)
        cf = make_cost("squared", grid=grid, space=space)
        for x in space:
            assert measured_lipschitz_in_xi(cf, grid, x) <= cf.lip_in_xi(x) * (1 + 1e-9)


def _loop_measured_lipschitz(cf, grid, x):
    vals = cf.atom_costs(grid, x)
    best = 0.0
    for i in range(grid.size):
        for j in range(i + 1, grid.size):
            d = grid.ground_metric[i, j]
            if d > 0.0:
                best = max(best, abs(vals[i] - vals[j]) / d)
    return best


def _loop_lipschitz_offender(cf, grid, space):
    """First pair beating a declared constant, scanned the way the checks are specified."""
    table = cost_table(cf, grid, space)
    for k, x in enumerate(space):
        bound = cf.lip_in_xi(x)
        for i in range(grid.size):
            for j in range(grid.size):
                if abs(table[k, i] - table[k, j]) > bound * grid.ground_metric[i, j] * (1.0 + 1e-9) + 1e-12:
                    return f"declared lip_in_xi({x.tolist()})={bound} is beaten by atoms ({i},{j})"
    for j in range(grid.size):
        bound = cf.lip_in_x(grid.atoms[j])
        for a in range(len(space)):
            for b in range(len(space)):
                step = float(np.linalg.norm(space[a] - space[b]))
                if abs(table[a, j] - table[b, j]) > bound * step * (1.0 + 1e-9) + 1e-12:
                    return f"declared lip_in_x(atom {j})={bound} is beaten by decisions ({a},{b})"
    return None


@pytest.mark.parametrize("name", ["absolute", "squared", "newsvendor", "huber", "linreg"])
def test_lipschitz_checks_match_loop_reference(name):
    rng = np.random.default_rng(31)
    for trial in range(8):
        grid = random_grid(rng, int(rng.integers(2, 7)), dim=2 if name == "linreg" else 1)
        space = DecisionSpace.interval(-2.0, 2.0, int(rng.integers(1, 6)))
        cf = with_lipschitz_scale(make_cost(name, grid=grid, space=space), [1.0, 0.9, 0.5, 0.2][trial % 4])
        for x in space:
            assert measured_lipschitz_in_xi(cf, grid, x) == _loop_measured_lipschitz(cf, grid, x)
        expected = _loop_lipschitz_offender(cf, grid, space)
        if expected is None:
            validate_cost(cf, grid, space)
        else:
            with pytest.raises(ValueError) as info:
                validate_cost(cf, grid, space)
            assert str(info.value) == expected


def test_lipschitz_scaling_hook():
    cf = make_cost("absolute")
    scaled = with_lipschitz_scale(cf, 0.01)
    assert scaled.lip_in_xi([0.0]) == pytest.approx(0.01)
    assert scaled.nonneg == cf.nonneg


def test_lipschitz_scale_keeps_builtin_table(line_grid):
    # The corrupted-Lipschitz control changes the metadata only: its table
    # is the built-in array formula, with the unscaled values.
    space = DecisionSpace.interval(-1.0, 4.0, 6)
    doc = {"name": "huber", "params": {"delta": 1.0}}
    base = cost_from_json(doc, line_grid, space)
    scaled = cost_from_json({**doc, "lip_scale": 0.01}, line_grid, space)
    assert scaled.table_fn is not None
    assert with_lipschitz_scale(base, 0.01).table_fn is base.table_fn
    assert _same_bits(cost_table(scaled, line_grid, space), cost_table(base, line_grid, space))
    assert scaled.lip_in_xi(space[0]) == pytest.approx(0.01 * base.lip_in_xi(space[0]))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


_TABLE_PARAMS = {
    "absolute": None,
    "squared": None,
    "newsvendor": {"b": 2.0, "c": 0.5},
    "huber": {"delta": 0.7},
    "linreg": None,
}


@st.composite
def _cost_case(draw):
    name = draw(st.sampled_from(sorted(_TABLE_PARAMS)))
    dim = 2 if name == "linreg" else draw(st.integers(1, 3))
    x_dim = 1 if name in ("newsvendor", "linreg") else dim
    # Quarter-integers hit the kinks (newsvendor at 0, huber at delta) and
    # ties; an odd 27-bit significand squares to a value halfway between two
    # doubles, where libm pow and a plain multiply can round apart.
    coord = st.one_of(
        st.floats(-100.0, 100.0),
        st.integers(-40, 40).map(lambda v: v / 4),
        st.integers(2**26, 2**27 - 1).map(lambda v: (v | 1) * 2.0**-20),
    )
    points = draw(hnp.arrays(np.float64, (draw(st.integers(1, 5)), x_dim), elements=coord))
    atoms = np.unique(draw(hnp.arrays(np.float64, (draw(st.integers(1, 6)), dim), elements=coord)), axis=0)
    return name, points, atoms


@given(case=_cost_case())
@example(case=("linreg", np.array([[0.0]]), np.array([[0.0, 96.75658321380615]])))
@settings(max_examples=200, deadline=None)
def test_builtin_tables_match_scalar_reference(case):
    name, points, atoms = case
    cf = make_cost(name, params=_TABLE_PARAMS[name])
    ref = scalar_cost_table(scalar_cost(name, _TABLE_PARAMS[name]), points, atoms)
    table = cf.table(points, atoms)
    if name in ("absolute", "huber") and atoms.shape[1] >= 2:
        # A d >= 2 norm may reduce in another order than the scalar dot.
        assert table.shape == ref.shape
        assert np.all(np.abs(table - ref) <= 4 * np.spacing(ref))
    else:
        assert _same_bits(table, ref)
    assert cf(points[0], atoms[0]) == table[0, 0]
    grid, space = SupportGrid.euclidean(atoms), DecisionSpace(points)
    full = cost_table(cf, grid, space)
    assert _same_bits(full, table)
    for k, x in enumerate(space):
        assert _same_bits(cf.atom_costs(grid, x), full[k])


def test_regularizer_rejects_non_finite():
    f = Regularizer(lambda x: math.nan)
    with pytest.raises(NonFiniteCostError):
        f([1.0])


class TestTableMemo:
    """A cost function keeps each checked table it builds, read-only and
    keyed by the content of the decision points and atoms."""

    @staticmethod
    def _rows(calls: list) -> list:
        """The number of decisions of each recorded ``CostFunction.table`` call."""
        return [len(args[1]) for args, _ in calls]

    def test_equal_content_shares_one_entry(self, spy):
        builds = spy(CostFunction, "table")
        cf = make_cost("huber", params={"delta": 0.5})
        atoms = [[0.0], [1.0], [3.0]]
        first = cost_table(cf, SupportGrid.euclidean(atoms), DecisionSpace.interval(0.0, 3.0, 7))
        again = cost_table(cf, SupportGrid.euclidean(atoms), DecisionSpace.from_points(np.linspace(0.0, 3.0, 7)))
        assert again is first and self._rows(builds) == [7] and len(cf._memo) == 1
        other = cost_table(cf, SupportGrid.euclidean(atoms), DecisionSpace.interval(0.0, 3.0, 5))
        assert other.shape == (5, 3) and self._rows(builds) == [7, 5] and len(cf._memo) == 2

    def test_table_is_read_only(self, line_grid):
        held = np.ones((2, 3))
        cf = CostFunction.vectorised("held", lambda points, atoms: held)
        table = cost_table(cf, line_grid, DecisionSpace.from_points([0.0, 1.0]))
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 2.0
        assert held.flags.writeable  # the cost's own array is not frozen

    def test_each_cost_function_builds_its_own(self, spy, line_grid):
        builds = spy(CostFunction, "table")
        space = DecisionSpace.interval(0.0, 3.0, 4)
        cf = make_cost("absolute")
        table = cost_table(cf, line_grid, space)
        scaled = with_lipschitz_scale(cf, 0.5)
        assert not scaled._memo
        again = cost_table(scaled, line_grid, space)
        twin = make_cost("absolute")
        assert cost_table(twin, line_grid, space) is not table
        assert self._rows(builds) == [4, 4, 4]
        assert _same_bits(again, table) and again is not table
        assert len(cf._memo) == len(scaled._memo) == len(twin._memo) == 1

    def test_non_finite_table_raises_every_call_and_is_not_kept(self, spy, line_grid):
        builds = spy(CostFunction, "table")
        cf = CostFunction.vectorised("bad", lambda points, atoms: np.where(atoms[None, :, 0] > 2, math.nan, 1.0))
        space = DecisionSpace.from_points([0.0, 1.0])
        for calls in (1, 2):
            with pytest.raises(NonFiniteCostError, match="atom index 2"):
                cost_table(cf, line_grid, space)
            assert self._rows(builds) == [2] * calls and not cf._memo


def test_cost_table_shape(line_grid):
    cf = make_cost("absolute")
    space = DecisionSpace.interval(0, 1, 4)
    table = cost_table(cf, line_grid, space)
    assert table.shape == (4, 3)
    assert table[0, 0] == pytest.approx(0.0)
