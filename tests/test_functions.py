"""Function tables and their greatest Lipschitz extension to the line."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varorder import (
    BornMeasure,
    DomainError,
    FunctionTable,
    LipschitzExtension,
    PreconditionError,
    ValidationError,
)
from varorder.functions import _lipschitz_excess, _lipschitz_violation
from varorder.sampling import random_lipschitz_table, random_lipschitz_values


def test_table_requires_increasing_locations():
    with pytest.raises(ValidationError):
        FunctionTable(((1.0, 0.0), (1.0, 2.0)))
    with pytest.raises(ValidationError):
        FunctionTable(((2.0, 0.0), (1.0, 2.0)))
    # a NaN location compares false to everything, so it would match every x
    for pts in (((np.nan, 0.0),), ((0.0, 1.0), (np.nan, 2.0))):
        with pytest.raises(ValidationError):
            FunctionTable(pts)


def test_table_requires_points():
    with pytest.raises(ValidationError):
        FunctionTable(())


# One point-set check (nonempty, finite, strictly increasing) for table locations and
# atom locations.  An infinity used to pass both and a NaN the second; measure_variance
# then read 0.0 on a measure with a NaN or infinite atom.
POINT_SETS = {
    "table": lambda xs: FunctionTable(tuple((x, 0.0) for x in xs)),
    "measure": lambda xs: BornMeasure(tuple((x, 1.0 / len(xs)) for x in xs)),
}
BAD_POINTS = {
    "nan-first": [np.nan, 0.0, 1.0],
    "nan-later": [0.0, np.nan],
    "lone-nan": [np.nan],
    "inf-last": [0.0, 1.0, np.inf],
    "minus-inf-first": [-np.inf, 0.0, 1.0],
    "repeated": [0.0, 1.0, 1.0],
    "none": [],
}


@pytest.mark.parametrize("points", BAD_POINTS.values(), ids=BAD_POINTS.keys())
@pytest.mark.parametrize("build", POINT_SETS.values(), ids=POINT_SETS.keys())
def test_points_must_be_nonempty_finite_and_strictly_increasing(build, points):
    match = "at least one" if not points else "finite and strictly increasing"
    with pytest.raises(ValidationError, match=match):
        build(np.array(points))


@pytest.mark.parametrize("bound", [None, 1.0], ids=["no-bound", "bound"])
@pytest.mark.parametrize(
    "values",
    [[np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.0, -np.inf]],
    ids=["nan-first", "nan-later", "inf-first", "inf-later", "minus-inf-first", "minus-inf-later"],
)
def test_table_values_must_be_finite(values, bound):
    # a NaN excess is no Lipschitz violation, so ((0, nan), (1, 0)) used to pass a bound
    # of 1, and its LipschitzExtension read NaN even at the table point 1.0: the table
    # refuses the value before an extension of bound 1 can run its pair check
    with pytest.raises(ValidationError, match="table values must be finite"):
        table = FunctionTable(tuple(zip([0.0, 1.0], values)))
        if bound is not None:
            LipschitzExtension(table, bound)


def test_from_values_needs_one_value_per_location():
    # the two lists used to be zipped, silently giving the two-point table ((0, 5), (1, 6))
    with pytest.raises(ValidationError, match="3 locations but 2 values"):
        FunctionTable.from_values([0.0, 1.0, 2.0], [5.0, 6.0])
    with pytest.raises(ValidationError, match="1 locations but 2 values"):
        FunctionTable.from_values([0.0], [5.0, 6.0])


def test_a_table_stores_its_arrays_frozen():
    t = FunctionTable(((0.0, 5.0), (1.0, 6.0), (3.0, 4.0)))
    assert t.locations.tolist() == [0.0, 1.0, 3.0] and t.values.tolist() == [5.0, 6.0, 4.0]
    for name in ("locations", "values"):
        # built once, to validate the table, and read back on every use
        assert vars(t)[name] is getattr(t, name)
        assert getattr(t, name).dtype == np.float64 and not getattr(t, name).flags.writeable


# Python floats, numpy scalars and ints, a negative zero, a subnormal and the float64 extremes
GIVEN_PAIRS = (
    (-1.7976931348623157e308, 1 / 3),
    (-0.0, np.float64(-0.0)),
    (5e-324, -2),
    (np.float64(0.1), 2.0**-1074 * 3),
    (7, 1.7976931348623157e308),
)


def test_a_table_stores_only_its_arrays_and_reads_the_pairs_back_bit_for_bit():
    t = FunctionTable(GIVEN_PAIRS)
    assert set(vars(t)) == {"locations", "values"}
    # the same Python floats as float() of each coordinate, negative zeros included
    assert [[type(v) for v in p] for p in t.points] == [[float, float]] * len(GIVEN_PAIRS)
    assert [[v.hex() for v in p] for p in t.points] == [
        [float(v).hex() for v in p] for p in GIVEN_PAIRS
    ]
    xs, ys = zip(*GIVEN_PAIRS)
    u = FunctionTable.from_values(xs, ys)
    for name in ("locations", "values"):
        assert getattr(u, name).tobytes() == getattr(t, name).tobytes()
        assert getattr(u, name).dtype == np.float64 and not getattr(u, name).flags.writeable
    assert u.points == t.points
    # a table is no view of the arrays it was built from
    given = np.array(xs, dtype=np.float64)
    assert not np.shares_memory(FunctionTable.from_values(given, ys).locations, given)


def test_from_values_refuses_arrays_that_are_not_one_dimensional():
    with pytest.raises(ValidationError, match=r"locations \(2, 1\) and values \(2,\)"):
        FunctionTable.from_values([[0.0], [1.0]], [5.0, 6.0])
    with pytest.raises(ValidationError, match="must be 1-D"):
        FunctionTable.from_values(0.0, 5.0)


def test_stored_bound_is_checked():
    # the extension's constant is the table's Lipschitz bound: slope 2 exceeds the bound 1,
    # also at scale 1e-10, where a slack floored at 1e-9 used to exceed the whole rise
    table = FunctionTable(((0.0, 0.0), (1.0, 2.0)))
    with pytest.raises(PreconditionError):
        LipschitzExtension(table, 1.0)
    with pytest.raises(PreconditionError):
        LipschitzExtension(FunctionTable(((0.0, 0.0), (1e-10, 2e-10))), 1.0)
    assert LipschitzExtension(table, 2.0).constant == 2.0
    # a NaN bound used to pass, because a NaN excess is no violation
    for bound in (float("nan"), -1.0):  # a one-point table has no pair to compare
        with pytest.raises(ValidationError, match="nonnegative"):
            LipschitzExtension(FunctionTable(((0.0, 0.0),)), bound)
    with pytest.raises(ValidationError, match="nonnegative"):
        LipschitzExtension(table, float("nan"))


def test_from_mapping_sorts_keys():
    t = FunctionTable.from_mapping({3.0: 2.0, 0.0: 0.0, 1.0: 1.0})
    assert t.points == ((0.0, 0.0), (1.0, 1.0), (3.0, 2.0))


def test_lipschitz_constant():
    t = FunctionTable.from_mapping({0.0: 0.0, 2.0: 1.0})
    assert t.lipschitz_constant() == pytest.approx(0.5)
    assert FunctionTable(((1.0, 4.0),)).lipschitz_constant() == 0.0


def test_lipschitz_constant_is_the_exact_constant_within_rounding():
    # the constant is taken over neighbouring points; the exact referee takes every pair
    rng = np.random.default_rng(25)
    for trial in range(300):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        xs = np.unique(rng.uniform(-1.0, 1.0, int(rng.integers(1, 16)))) * scale
        noise = 1e-17 if trial % 2 else 1.0  # near-linear tables, then random ones
        ys = 0.7 * xs + rng.normal(0.0, noise, len(xs)) * scale
        fx, fy = [Fraction(x) for x in xs.tolist()], [Fraction(y) for y in ys.tolist()]
        exact = max(
            (abs(fy[k] - fy[j]) / (fx[k] - fx[j]) for k in range(len(fx)) for j in range(k)),
            default=Fraction(0),
        )
        c = FunctionTable.from_values(xs, ys).lipschitz_constant()
        assert abs(Fraction(c) - exact) <= 4 * Fraction(2.0**-52) * exact, trial


def test_value_at_matches_nearby_location():
    t = FunctionTable.from_mapping({0.0: 0.0, 1.0: 5.0})
    assert t.value_at(1.0 + 1e-12) == 5.0
    assert t(0.0) == 0.0
    with pytest.raises(DomainError):
        t.value_at(0.5)
    with pytest.raises(DomainError):  # a NaN used to return the first table value
        t.value_at(np.nan)


def test_value_at_names_the_nearest_point_as_a_python_float():
    # under numpy 2 a numpy scalar's repr reads "np.float64(1.0)"
    t = FunctionTable.from_values(np.array([0.0, 1.0]), np.array([0.0, 5.0]))
    assert isinstance(t.value_at(1.0), float)
    for x in (0.75, np.float64(0.75)):  # the argument too, when it is a numpy scalar
        with pytest.raises(DomainError) as err:
            t.value_at(x)
        assert str(err.value) == "no table point within 1.000e-08 of 0.75 (nearest is 1.0)"


def test_lipschitz_constant_of_a_table_whose_differences_overflow():
    # 1e308 - (-1e308) used to overflow: nan, with overflow and invalid-value warnings
    t = FunctionTable(((-1e308, -1e308), (1e308, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t.lipschitz_constant() == 1.0


@pytest.mark.parametrize("value, slope", [(0.0, 0.0), (1.0, np.inf)], ids=["flat", "steep"])
def test_lipschitz_constant_of_a_subnormal_gap(value, slope):
    # the halves of 0 and 5e-324 round together: 0 / 0 used to give nan with an
    # invalid-value warning, and 0.5 / 0 a divide-by-zero warning
    t = FunctionTable(((0.0, 0.0), (5e-324, value)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert t.lipschitz_constant() == slope


@pytest.mark.parametrize(
    "pairs",
    [
        ((0.0, 1.0, 2.0), (1.0, 2.0, 3.0)),
        ((0.0, 0.5), (1.0, 0.25, 0.25)),
        (((0.0, 1.0),), ((2.0, 3.0),)),
    ],
    ids=["three-numbers", "ragged", "nested"],
)
@pytest.mark.parametrize("build", [FunctionTable, BornMeasure], ids=["table", "measure"])
def test_pairs_of_other_than_two_numbers_are_refused(build, pairs):
    # numpy's ValueError ("cannot reshape array ...", "inhomogeneous shape") used to escape,
    # and pairs nested one level deeper were read as pairs
    with pytest.raises(ValidationError, match="pairs of two numbers each"):
        build(pairs)


# ---------------------------------------------------------------------------
# LipschitzExtension (McShane's greatest extension)


def test_extension_agrees_on_table_points():
    t = random_lipschitz_table(np.array([0.0, 1.0, 2.5, 4.0]), seed=1)
    ext = LipschitzExtension(t, 1.0)
    for x, y in t.points:
        assert ext(x) == pytest.approx(y, abs=1e-12)


def test_extension_of_constant_table_is_constant():
    # constants are 0-Lipschitz; extending with c = 0 stays constant
    t = FunctionTable.from_mapping({0.0: 3.0, 5.0: 3.0})
    ext = LipschitzExtension(t, 0.0)
    assert ext(-7.0) == pytest.approx(3.0)
    assert ext(2.5) == pytest.approx(3.0)
    assert ext(100.0) == pytest.approx(3.0)


def test_greatest_extension_peaks_between_constant_points():
    # with c > 0 the greatest extension climbs away from the table points
    t = FunctionTable.from_mapping({0.0: 3.0, 5.0: 3.0})
    ext = LipschitzExtension(t, 1.0)
    assert ext(2.5) == pytest.approx(5.5)
    assert ext(-7.0) == pytest.approx(10.0)


def test_extension_value_between_points():
    # candidates f(0) + |1 - 0| = 1 and f(2) + |1 - 2| = 2; minimum is 1
    ext = LipschitzExtension(FunctionTable.from_mapping({0.0: 0.0, 2.0: 1.0}), 1.0)
    assert ext(1.0) == pytest.approx(1.0)


def test_extension_on_grid_matches_cone_minimum():
    t = random_lipschitz_table(np.linspace(-1.0, 6.0, 7), seed=2)
    ext = LipschitzExtension(t, 1.0)
    xs, ys = t.locations, t.values
    grid = np.linspace(-3.0, 8.0, 997)
    expect = np.min(ys + np.abs(grid[:, None] - xs), axis=1)
    np.testing.assert_allclose(ext(grid), expect, atol=1e-12)


def test_extension_is_lipschitz_on_dense_grid():
    t = random_lipschitz_table(np.array([0.0, 0.7, 1.1, 3.0, 4.2]), seed=3, constant=2.0)
    ext = LipschitzExtension(t, 2.0)
    grid = np.linspace(-2.0, 6.2, 10_000)
    vals = ext(grid)
    step = grid[1] - grid[0]
    assert np.max(np.abs(np.diff(vals))) <= 2.0 * step + 1e-12


def test_not_lipschitz_names_the_violating_pair():
    t = FunctionTable.from_mapping({0.0: 0.0, 1.0: 5.0, 2.0: 5.5})
    with pytest.raises(PreconditionError, match=r"0\.0.*1\.0") as err:
        LipschitzExtension(t, 1.0)
    assert err.value.witness == ((0.0, 0.0), (1.0, 5.0))


def test_direct_extension_checks_the_constant():
    # built directly, the extension used to skip the check and give ext(1.0) == 1.0, not 5.0
    t = FunctionTable.from_mapping({0.0: 0.0, 1.0: 5.0})
    with pytest.raises(PreconditionError, match="not 1.0-Lipschitz") as err:
        LipschitzExtension(t, 1.0)
    assert err.value.witness == ((0.0, 0.0), (1.0, 5.0))
    assert LipschitzExtension(t, 5).constant == 5.0
    point = FunctionTable.from_mapping({0.0: 0.0})
    # a NaN constant passes the pair check, which compares nothing, so the sign check catches it
    with pytest.raises(ValidationError, match="nonnegative"):
        LipschitzExtension(t, float("nan"))
    with pytest.raises(ValidationError, match="nonnegative"):
        LipschitzExtension(point, -1.0)
    # with a pair to compare, a negative constant fails the table check first
    with pytest.raises(PreconditionError, match="not -1.0-Lipschitz"):
        LipschitzExtension(t, -1.0)


@pytest.mark.parametrize("k", range(-20, 31))
def test_one_steep_slope_is_refused_at_every_scale(k):
    # the slack is LIP_TOL * max(max |x|, max |f(x)|), relative at every scale: an
    # absolute floor of 1e-9 let the excess 1e-6 * 2**k pass for k <= -10
    s = 2.0**k
    t = FunctionTable(((0.0, 0.0), (s, s), (2 * s, s + (1 + 1e-6) * s)))
    with pytest.raises(PreconditionError):
        LipschitzExtension(t, 1.0)
    LipschitzExtension(FunctionTable(((0.0, 0.0), (s, s), (2 * s, 2 * s))), 1.0)


def test_negation_gives_the_smallest_extension():
    # the upper extension dominates every other c-Lipschitz extension,
    # so negating twice produces a pointwise lower bound
    t = FunctionTable.from_mapping({0.0: 0.0, 2.0: 1.0, 3.0: 0.5})
    upper = LipschitzExtension(t, 1.0)
    neg = FunctionTable.from_values(t.locations, -t.values)
    lower_vals = -LipschitzExtension(neg, 1.0)(np.linspace(-1.0, 4.0, 41))
    upper_vals = upper(np.linspace(-1.0, 4.0, 41))
    assert np.all(lower_vals <= upper_vals + 1e-12)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 10_000),
    c=st.floats(0.1, 5.0),
    probe=st.floats(-20.0, 20.0),
    x=st.floats(-20.0, 20.0),
)
def test_extension_lipschitz_property(seed, c, probe, x):
    rng = np.random.default_rng(seed)
    locs = np.sort(rng.uniform(-10.0, 10.0, size=rng.integers(1, 8)))
    locs = locs[np.r_[True, np.diff(locs) > 1e-6]]
    ext = LipschitzExtension(random_lipschitz_table(locs, seed=rng, constant=c), c)
    assert abs(ext(probe) - ext(x)) <= c * abs(probe - x) + 1e-9


def _loop_violation(pts, c, tol):
    # the pairwise double loop the vectorised check replaced, kept as its oracle
    worst = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            excess = abs(pts[i][1] - pts[j][1]) - c * abs(pts[i][0] - pts[j][0])
            if excess > tol and (worst is None or excess > worst[0]):
                worst = (excess, (pts[i], pts[j]))
    return worst[1] if worst else None


TIE_VALUES = [-1.0, 0.0, 0.5, 1.0, 2.0]


@settings(deadline=None, max_examples=400)
@given(
    xs=st.lists(st.integers(-5, 5), min_size=1, max_size=7, unique=True),
    data=st.data(),
    c=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    lip_tol=st.sampled_from([1e-9, 0.0, -0.5]),
)
def test_vectorised_lipschitz_check_picks_the_loops_pair(xs, data, c, lip_tol):
    # integer locations and few values make equal excesses (ties) common;
    # non-finite values give NaN or infinite excesses, which must not differ either
    value = st.one_of(
        st.sampled_from(TIE_VALUES), st.floats(-10.0, 10.0), st.sampled_from([np.nan, np.inf])
    )
    ys = data.draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    pts = tuple(zip(map(float, sorted(xs)), ys))
    got = _lipschitz_violation(*np.array(pts).T, c, lip_tol)
    assert got == _loop_violation(pts, c, lip_tol)


@pytest.mark.parametrize("c", [0.0, -1.0, 1.0, 2.5, np.inf, np.nan])
@pytest.mark.parametrize("seed", range(6))
def test_lipschitz_excess_over_an_allowance_matches_the_one_expression(seed, c):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    xs, ys = np.sort(rng.uniform(-10.0, 10.0, n)), rng.uniform(-10.0, 10.0, n)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    with np.errstate(invalid="ignore"):  # c = inf: inf * 0 on the diagonal
        # the excess over an allowance c |x_j - x_k| that is +inf on and below the diagonal
        allowance = c * np.abs(xs[:, None] - xs)
        allowance[~upper] = np.inf
        expected = np.abs(ys[:, None] - ys) - allowance
        got = _lipschitz_excess(xs, ys, c)
    # bitwise the same above the diagonal, and symmetric
    assert got[upper].tobytes() == expected[upper].tobytes()
    assert got.tobytes() == got.T.tobytes()


# ---------------------------------------------------------------------------
# random_lipschitz_values


def _loop_lipschitz_values(xs, rng, constant):
    # the loop that one uniform draw of all slopes and one cumsum replaced, kept as its oracle
    vals = np.empty_like(xs)
    vals[0] = rng.uniform(-1.0, 1.0)
    for i in range(1, len(xs)):
        slope = rng.uniform(-constant, constant)
        vals[i] = vals[i - 1] + slope * (xs[i] - xs[i - 1])
    return vals


@pytest.mark.parametrize("constant", [0.0, 1e-300, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_random_lipschitz_values_match_the_loop_bit_for_bit(n, constant):
    for scale in (1e-8, 1.0, 1e7):
        xs = np.sort(np.random.default_rng(n).uniform(-scale, scale, n))
        loop_rng, rng = np.random.default_rng(n + 1), np.random.default_rng(n + 1)
        expected = _loop_lipschitz_values(xs, loop_rng, constant)
        assert random_lipschitz_values(xs, rng, constant).tobytes() == expected.tobytes()
        # the same draws in the same order: the generator ends in the same state
        assert rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("locations", [[], [[0.0, 1.0], [2.0, 3.0]], 1.0],
                         ids=["empty", "2-d", "0-d"])
def test_random_lipschitz_values_refuse_locations_that_are_no_nonempty_line(locations):
    # an empty array used to raise IndexError, and a 2-D one came back as a 2-D array
    with pytest.raises(ValidationError, match="nonempty and 1-dimensional"):
        random_lipschitz_values(locations, seed=0)
