"""Function tables and their greatest Lipschitz extension to the line."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varorder import (
    AutomorphismSpec,
    BornMeasure,
    DomainError,
    FunctionTable,
    HermitianObservable,
    LipschitzExtension,
    PreconditionError,
    PureState,
    QMatrix,
    TwoPointFamily,
    UnitaryMap,
    ValidationError,
    approx_eigen_sandwich,
    class_equal,
    decide_order,
    eigendecompose,
    loewner_leq,
    q_matrix,
    state_order_violation,
    superposition_variance,
)
from varorder import sampling
from varorder.functions import _lipschitz_excess, _lipschitz_stage
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


def test_value_at_a_distance_past_the_float64_maximum_is_silent():
    # |1e308 - (-1e308)| overflowed with a warning before the DomainError
    t = FunctionTable(((1e308, 1.0),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"of -1e\+308 \(nearest is 1e\+308\)"):
            t.value_at(-1e308)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: FunctionTable(np.array([[0, 1j], [1, 0]])),
        lambda: FunctionTable([(0.0, np.complex64(1.0))]),
        lambda: BornMeasure([(np.complex128(1j), 1.0)]),
        lambda: FunctionTable.from_values([0, 1], [np.complex128(1j), 0]),
        lambda: FunctionTable.from_values([Fraction(0), np.complex128(1)], [0, 1]),
        lambda: LipschitzExtension(FunctionTable([(0.0, 0.0)]), 1.0)(1j),
        lambda: LipschitzExtension(FunctionTable([(0.0, 0.0)]), 1.0)([0.5, np.complex128(2)]),
    ],
    ids=["complex-array", "complex64-pair", "complex-atom", "complex-value", "object-array",
         "extension-complex", "extension-list"],
)
def test_a_numpy_complex_entry_is_refused(call):
    # numpy cast a numpy complex entry to its real part with a ComplexWarning, and a
    # Python complex at an extension raised a bare TypeError; even an imaginary part of 0
    # is refused, as a complex array is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="pairs of two numbers each|entries must be real"):
            call()


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
    # the sign check runs before the table scan: a negative constant used to fail that
    # scan on a table with a pair (a PreconditionError) unless it was tiny, like -1e-300
    for table in (t, point):
        for c in (float("nan"), -1.0, -1e-300, -float("inf")):
            with pytest.raises(ValidationError, match="nonnegative"):
                LipschitzExtension(table, c)


def test_a_table_whose_differences_overflow_is_checked_without_a_warning():
    # unhalved, both differences overflowed and inf - inf gave a NaN excess that the
    # pair scan skipped: this slope-1 table passed the bound 0.5, with two warnings
    t = FunctionTable(((-1e308, -1e308), (1e308, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="not 0.5-Lipschitz") as err:
            LipschitzExtension(t, 0.5)
        assert err.value.witness == t.points
        assert LipschitzExtension(t, 1.0).constant == 1.0
        # an allowance c |x - y| / 2 past the float64 maximum is inf, and the pair passes
        assert LipschitzExtension(t, 1e300).constant == 1e300
    # the message gives the halves the scan compared: the whole rise and allowance were
    # "inf exceeds ... inf"
    assert str(err.value) == (
        "table is not 0.5-Lipschitz: |f(-1e+308) - f(1e+308)| / 2 = 1e+308 "
        "exceeds 0.5 * |-1e+308 - 1e+308| / 2 = 5e+307"
    )


WIDE = ((-1e308, 0.0), (1e308, 0.0))


@pytest.mark.parametrize(
    "points, c, probe, expected",
    [
        (((0.0, 0.0), (1.0, 0.5)), np.inf, 0.0, 0.0),  # inf * 0 was NaN at a table point
        (((0.0, 0.0), (1.0, 0.5)), np.inf, 0.5, np.inf),
        (WIDE, 0.0, 1e308, 0.0),  # 0 * the overflowed distance was NaN
        (WIDE, 1.0, 1e308, 0.0),  # the distance overflowed with a warning
        (WIDE[:1], 1.0, 1e308, np.inf),  # the doubled value overflowed with a warning
        (((0.0, 0.0),), 1e300, 1e10, np.inf),  # the cone overflowed with a warning
    ],
    ids=["inf-at-a-point", "inf-between", "zero-far", "one-far", "value-far", "cone-far"],
)
def test_evaluation_at_the_extremes_is_right_and_silent(points, c, probe, expected):
    ext = LipschitzExtension(FunctionTable(points), c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ext(probe) == expected
        assert ext(np.array([probe, probe])).tolist() == [expected, expected]


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
    lip_tol=st.sampled_from([1e-9, 0.0]),
)
def test_vectorised_lipschitz_check_picks_the_loops_pair(xs, data, c, lip_tol):
    # integer locations and few values make equal excesses (ties) common
    value = st.one_of(st.sampled_from(TIE_VALUES), st.floats(-10.0, 10.0))
    ys = data.draw(st.lists(value, min_size=len(xs), max_size=len(xs)))
    pts = tuple(zip(map(float, sorted(xs)), ys))
    worst = _lipschitz_stage(*np.array(pts).T, lip_tol, c)
    got = None if worst is None else (pts[worst[0]], pts[worst[1]])
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


@pytest.mark.parametrize("locations", [[3.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, np.nan, 1.0], [0.0, np.inf]],
                         ids=["unsorted", "repeated", "nan", "inf"])
@pytest.mark.parametrize("generate", [random_lipschitz_values, random_lipschitz_table])
def test_random_lipschitz_values_refuse_locations_that_are_not_finite_and_increasing(generate, locations):
    # at seed 1 the unsorted locations gave a neighbouring slope of 2.51 at constant 1, a NaN
    # gave NaN values and inf a value of -inf; the table refused them only after drawing
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError, match="^locations must be finite and strictly increasing$"):
        generate(locations, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "build",
    [lambda: HermitianObservable.from_diag([1j, 0.0]), lambda: FunctionTable([(0.0, 1j)]),
     lambda: FunctionTable.from_values([0.0, 1.0], [1j, 0.0]), lambda: q_matrix([0.0, 1.0, 2.0, 3j]),
     lambda: QMatrix(np.eye(4) * 1j), lambda: FunctionTable.from_values(np.array([0.0, 1j]), [0.0, 1.0]),
     lambda: FunctionTable([(0.0, 10**400)]), lambda: FunctionTable.from_values([0.0, 10**400], [0.0, 1.0]),
     lambda: sampling.random_lipschitz_values([0.0, 1j]),
     lambda: sampling.random_lipschitz_values(np.array([0.0, 1j]))],
    ids=["from_diag", "FunctionTable", "from_values", "q_matrix", "QMatrix-array", "from_values-array",
         "FunctionTable-10**400", "from_values-10**400", "random_lipschitz_values",
         "random_lipschitz_values-array"],
)
def test_a_complex_or_too_large_entry_of_a_real_array_is_refused(build):
    # each used to raise a bare TypeError or OverflowError from numpy's conversion, or, for
    # a complex array, to drop its imaginary parts with numpy's ComplexWarning
    with pytest.raises(ValidationError):
        build()


# ---------------------------------------------------------------------------
# random observables and states: their dimension


@pytest.mark.parametrize("dim", [2.5, True, 0, -1], ids=repr)
@pytest.mark.parametrize(
    "name",
    ["random_hermitian", "random_unitary", "random_spectrum", "random_pure_vector",
     "random_density_matrix", "random_commuting_pair"],
)
def test_a_dimension_that_is_no_positive_integer_is_refused(name, dim):
    # 2.5 and True used to raise a bare TypeError, -1 numpy's ValueError,
    # and 0 an empty array from random_spectrum, random_pure_vector and random_density_matrix
    rng = (np.random.default_rng(0),) if name in ("random_pure_vector", "random_density_matrix") else ()
    with pytest.raises(ValidationError, match=f"dimension must be a positive integer, got {dim!r}"):
        getattr(sampling, name)(dim, *rng)


# ---------------------------------------------------------------------------
# real-valued arguments: one table for each tolerance, scale, threshold, constant and
# coordinate that the package takes as a real number


_DIAG = HermitianObservable.from_diag([0.0, 1.0])
_TABLE = FunctionTable(((0.0, 0.0), (1.0, 1.0)))
_FLAT = FunctionTable(((0.0, 0.0), (1.0, 0.0)))  # c-Lipschitz for every c >= 0
_FAMILY = TwoPointFamily(eigendecompose(_DIAG), (0,), 1.0)
_E1, _E2 = PureState.basis_vector(2, 0), PureState.basis_vector(2, 1)
_LEAST = math.ulp(0.0)  # the least positive float
_FINITE = (-math.inf, math.inf)  # just outside [-max, max]
_NONNEGATIVE = (-_LEAST, math.inf)  # just outside [0, max]
_POSITIVE = (0.0, math.inf)  # just outside (0, max]


def _message(template: str):
    return lambda x: template.format(repr(x))


def _spectrum(where: str):
    return _message(f"no 3 points in {where}: low <= high and min_gap >= 0 must be finite "
                    "numbers with (n - 1) * min_gap <= high - low")


def _value_at(x):
    if isinstance(x, (int, float)) and not isinstance(x, bool):  # a number near no point
        return f"no table point within 1.000e-08 of {math.inf if x == 10**400 else x!r} (nearest is 0.0)"
    return f"table argument must be a real number, got {x!r}"


_TOL = _message("tolerance must be finite and >= 0, got {}")
_SCALE = _message("scale must be a finite number, got {}")
_CONSTANT = _message("Lipschitz constant must be a nonnegative number, at most float64's maximum / 2, "
                     "got {}")
_HALF_MAX = math.nextafter(math.inf, 0.0) / 2  # the largest constant whose slope range 2 c is finite
# name: (call(rng, x), the refusal's message for x, values accepted at the interval's ends,
# values just outside them); each call also accepts 1 and draws from rng, if at all.
# random_spectrum draws three points in [low, high] = [0, 10] with gaps >= min_gap, which
# the low and high rows set to 0.25, so that both ends are exact
REAL_ARGUMENTS = {
    "decide_order(tol=)": (lambda rng, x: decide_order(_DIAG, _DIAG, tol=x), _TOL, (0,), _NONNEGATIVE),
    "class_equal(tol=)": (lambda rng, x: class_equal(_DIAG, _DIAG, tol=x), _TOL, (0,), _NONNEGATIVE),
    "loewner_leq(tol=)": (lambda rng, x: loewner_leq(_DIAG, _DIAG, tol=x), _TOL, (0,), _NONNEGATIVE),
    "state_order_violation(tol=)":
        (lambda rng, x: state_order_violation(_DIAG, _DIAG, 1, rng, tol=x), _TOL, (0,), _NONNEGATIVE),
    "BornMeasure.normalized(merge_tol=)":
        (lambda rng, x: BornMeasure.normalized([(0.0, 1.0)], merge_tol=x), _TOL, (0,), _NONNEGATIVE),
    "FunctionTable.value_at(tol=)": (lambda rng, x: _TABLE.value_at(0.0, tol=x), _TOL, (0,), _NONNEGATIVE),
    "FunctionTable.value_at(x)": (lambda rng, x: _TABLE.value_at(x), _value_at, (0,), _FINITE),
    "LipschitzExtension(constant)": (
        lambda rng, x: LipschitzExtension(_FLAT, x),
        _message("Lipschitz constant must be a nonnegative number, got {}"), (0, math.inf), (-_LEAST,)),
    "AutomorphismSpec(scale)": (
        lambda rng, x: AutomorphismSpec(x, UnitaryMap(np.eye(2))),
        _message("scale must be positive and finite, got {}"), (_LEAST,), _POSITIVE),
    "TwoPointFamily(threshold)": (
        lambda rng, x: TwoPointFamily(eigendecompose(_DIAG), (0,), x),
        _message("threshold must be positive and finite, got {}"), (_LEAST,), _POSITIVE),
    "TwoPointFamily.observable(t)": (
        lambda rng, x: _FAMILY.observable(x), _message("t must be a finite number, got {}"),
        (-1, 0, 2), _FINITE),
    "approx_eigen_sandwich(lam)": (
        lambda rng, x: approx_eigen_sandwich(_DIAG, _E1, x),
        _message("lam must be a finite number, got {}"), (-1, 0), _FINITE),
    "superposition_variance(alpha)": (
        lambda rng, x: superposition_variance(_DIAG, _E1, _E2, x, 1.0),
        _message("coefficients must be finite numbers, got {} and 1.0"), (-1,), _FINITE),
    "superposition_variance(beta)": (
        lambda rng, x: superposition_variance(_DIAG, _E1, _E2, 1.0, x),
        _message("coefficients must be finite numbers, got 1.0 and {}"), (-1,), _FINITE),
    "random_hermitian(scale=)":
        (lambda rng, x: sampling.random_hermitian(2, rng, scale=x), _SCALE, (-1, 0), _FINITE),
    "random_lipschitz_values(constant=)": (
        lambda rng, x: sampling.random_lipschitz_values([0.0, 1.0], rng, constant=x),
        _CONSTANT, (0, _HALF_MAX), (-_LEAST, math.nextafter(_HALF_MAX, math.inf))),
    "random_lipschitz_table(constant=)": (
        lambda rng, x: sampling.random_lipschitz_table([0.0, 1.0], rng, constant=x),
        _CONSTANT, (0, _HALF_MAX), (-_LEAST, math.nextafter(_HALF_MAX, math.inf))),
    "random_spectrum(low=)": (
        lambda rng, x: sampling.random_spectrum(3, rng, low=x, min_gap=0.25),
        _spectrum("[{}, 10.0] with gaps >= 0.25"), (9.5,), (-math.inf, math.nextafter(9.5, math.inf))),
    "random_spectrum(high=)": (
        lambda rng, x: sampling.random_spectrum(3, rng, high=x, min_gap=0.25),
        _spectrum("[0.0, {}] with gaps >= 0.25"), (0.5,), (math.nextafter(0.5, 0.0), math.inf)),
    "random_spectrum(min_gap=)": (
        lambda rng, x: sampling.random_spectrum(3, rng, min_gap=x),
        _spectrum("[0.0, 10.0] with gaps >= {}"), (0, 5), _NONNEGATIVE),
}
NONE_IS_DEFAULT = {"decide_order(tol=)", "class_equal(tol=)", "loewner_leq(tol=)"}


def _refusals():
    """Each row's ``(name, bad)`` cases: each kind of value that is no real number, a NaN, the
    values just outside the row's interval, and 10**400, an int past float64's range."""
    for name, (_, _, _, outside) in REAL_ARGUMENTS.items():
        bad = {"str": "1", "None": None, "bool": True, "np.bool_": np.bool_(True), "complex": 1j,
               "nan": math.nan, **dict(zip(("below", "above"), outside)), "10**400": 10**400}
        if name in NONE_IS_DEFAULT:
            del bad["None"]  # the default tolerance
        yield from (pytest.param(name, x, id=f"{name}-{kind}") for kind, x in bad.items())


@pytest.mark.parametrize("name", REAL_ARGUMENTS)
def test_a_real_argument_accepts_each_kind_of_real_number_in_its_interval(name):
    call, _, ends, _ = REAL_ARGUMENTS[name]
    for good in (1, 1.0, np.float64(1.0), np.int64(1)) + ends:
        call(np.random.default_rng(0), good)


@pytest.mark.parametrize("name, bad", _refusals())
def test_a_real_argument_refuses_what_is_no_real_number_in_its_interval(name, bad):
    # "1", None and 1j used to raise a bare TypeError from a comparison or numpy's
    # UFuncTypeError, True was read as 1, and 10**400, an int past float64's range, raised
    # OverflowError or was kept.  Each refusal is a ValidationError with the parameter's
    # own message, raised before any draw; a number that no table point is near is
    # value_at's DomainError
    call, message, _, _ = REAL_ARGUMENTS[name]
    near_none = name == "FunctionTable.value_at(x)" and isinstance(bad, (int, float)) and not isinstance(bad, bool)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(DomainError if near_none else ValidationError) as err:
        call(rng, bad)
    assert str(err.value) == message(bad)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize(
    "kwargs",
    [dict(low=1.0, high=0.0), dict(min_gap=5.01), dict(low=1.0, high=1.0, min_gap=1e-300),
     dict(low=-1e308, high=1e308)],
    ids=repr,
)
def test_random_spectrum_refuses_what_no_draw_can_meet_before_drawing(kwargs):
    # low > high used to raise numpy's bare ValueError, a gap that three points in [0, 10]
    # cannot keep a RuntimeError after 1000 draws, and a range high - low past the float64
    # maximum numpy's bare OverflowError; the generator is left untouched.  Each
    # parameter's own interval is in REAL_ARGUMENTS
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError, match="^no 3 points in "):
        sampling.random_spectrum(3, rng, **kwargs)
    assert rng.bit_generator.state == before


def test_random_lipschitz_values_refuses_a_slope_range_past_the_float64_maximum():
    # slopes are drawn from [-c, c]: at c = 1e308 numpy raised a bare OverflowError
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError, match="at most float64's maximum / 2, got 1e[+]308$"):
        sampling.random_lipschitz_values([0.0, 1.0], rng, constant=1e308)
    assert rng.bit_generator.state == before


def test_random_lipschitz_values_refuses_a_constant_whose_product_with_the_span_overflows():
    # a slope of up to 1e300 times the gap 1e10 passed the float64 maximum: numpy's overflow
    # RuntimeWarning, and otherwise a value of -inf
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValidationError) as err:
        sampling.random_lipschitz_values([0.0, 1e10], rng, constant=1e300)
    assert str(err.value) == ("Lipschitz constant must be a nonnegative number, at most float64's "
                              "maximum / 2 over the locations' span 10000000000.0, got 1e+300")
    assert rng.bit_generator.state == before
    with pytest.raises(ValidationError, match="^locations -1e[+]308 to 1e[+]308 are more than float64's"):
        sampling.random_lipschitz_values([-1e308, 1e308], rng, constant=0.0)  # a gap overflows
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("locations", [[0.0, 1e10], [-1e300, 0.0, 1e300], [-_HALF_MAX, 0.0, _HALF_MAX]],
                         ids=["span 1e10", "span 2e300", "span max"])
def test_random_lipschitz_values_at_the_largest_constant_are_finite(locations):
    # the largest constant accepted, max / 2 / span, leaves every slope times gap and every
    # cumulative sum finite, with no numpy warning; the next float up is refused
    top = np.finfo(np.float64).max / 2 / (locations[-1] - locations[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            assert np.isfinite(random_lipschitz_values(locations, seed, constant=top)).all()
    with pytest.raises(ValidationError, match="over the locations' span"):
        random_lipschitz_values(locations, 0, constant=math.nextafter(top, math.inf))


@pytest.mark.parametrize("kwargs", [dict(min_gap=5.0, high=10.0), dict(low=2.0, high=2.0, min_gap=0.0)],
                         ids=repr)
def test_random_spectrum_draws_wherever_the_gaps_fit(kwargs):
    # the check refuses only what no draw can meet: a one-point spectrum takes any gap,
    # and a one-point interval a gap of 0
    assert len(sampling.random_spectrum(1, 0, min_gap=1e6)) == 1
    pts = sampling.random_spectrum(2, 0, **kwargs)
    assert np.diff(pts).min() >= kwargs["min_gap"]


@pytest.mark.parametrize("n, low, high, min_gap",
                         [(10, 0.0, 10.0, 1.0), (6, -1e3, 1e3, 399.0), (3, 1e5, 1e5 + 2e-7, 1e-7)])
def test_random_spectrum_spaces_a_gap_no_uniform_draw_keeps(n, low, high, min_gap):
    # no one of 1000 sorted uniform draws keeps these gaps (the first call used to end in
    # a RuntimeError): the points are then sorted uniform amounts spaced min_gap apart,
    # with every gap at least min_gap as np.diff reads it, rounding included
    pts = sampling.random_spectrum(n, 0, low, high, min_gap=min_gap)
    assert pts.shape == (n,)
    assert low <= pts[0] and pts[-1] <= high
    assert np.diff(pts).min() >= min_gap


def test_random_spectrum_keeps_the_stream_of_every_draw_that_keeps_the_gap():
    # a call that a sorted uniform draw satisfies returns that draw, as before the fallback
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = np.sort(rng.uniform(0.0, 5.0, 4))
        while np.diff(pts).min() < 0.3:
            pts = np.sort(rng.uniform(0.0, 5.0, 4))
        assert sampling.random_spectrum(4, seed, 0.0, 5.0, 0.3).tobytes() == pts.tobytes()


def test_random_spectrum_refuses_gaps_that_rounding_leaves_no_room_for():
    # 0.1, 0.2, 0.3, 0.4 fit exactly, but no floats there keep all three differences >= 0.1
    with pytest.raises(ValidationError, match=r"^no 4 points in \[0.1, 0.4\] .* survive rounding"):
        sampling.random_spectrum(4, 0, 0.1, 0.4, min_gap=0.1)


