"""Function tables and their greatest Lipschitz extension to the line."""

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
    SpectralDecomposition,
    ValidationError,
)
from varorder.functions import _lipschitz_excess, _lipschitz_violation
from varorder.sampling import random_lipschitz_table


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


# One point-set check (nonempty, finite, strictly increasing) for table locations, atom
# locations and group eigenvalues.  An infinity used to pass all three and a NaN the last
# two; measure_variance then read 0.0 on a measure with a NaN or infinite atom.
POINT_SETS = {
    "table": lambda xs: FunctionTable(tuple((x, 0.0) for x in xs)),
    "measure": lambda xs: BornMeasure(tuple((x, 1.0 / len(xs)) for x in xs)),
    "decomposition": lambda xs: SpectralDecomposition(xs, np.eye(len(xs)), (1,) * len(xs)),
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
    # of 1, and its LipschitzExtension read NaN even at the table point 1.0
    with pytest.raises(ValidationError, match="table values must be finite"):
        FunctionTable(tuple(zip([0.0, 1.0], values)), lipschitz_bound=bound)


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


def test_stored_bound_is_checked():
    # slope 2 exceeds the declared bound 1
    with pytest.raises(ValidationError):
        FunctionTable(((0.0, 0.0), (1.0, 2.0)), lipschitz_bound=1.0)
    FunctionTable(((0.0, 0.0), (1.0, 2.0)), lipschitz_bound=2.0)
    # a NaN bound used to pass, because a NaN excess is no violation
    for bound in (float("nan"), -1.0):
        with pytest.raises(ValidationError, match="nonnegative"):
            FunctionTable(((0.0, 0.0),), lipschitz_bound=bound)
    with pytest.raises(ValidationError, match="nonnegative"):
        FunctionTable(((0.0, 0.0), (1.0, 2.0)), lipschitz_bound=float("nan"))


def test_from_mapping_sorts_keys():
    t = FunctionTable.from_mapping({3.0: 2.0, 0.0: 0.0, 1.0: 1.0})
    assert t.points == ((0.0, 0.0), (1.0, 1.0), (3.0, 2.0))


def test_lipschitz_constant():
    t = FunctionTable.from_mapping({0.0: 0.0, 2.0: 1.0})
    assert t.lipschitz_constant() == pytest.approx(0.5)
    assert FunctionTable(((1.0, 4.0),)).lipschitz_constant() == 0.0


def test_value_at_matches_nearby_location():
    t = FunctionTable.from_mapping({0.0: 0.0, 1.0: 5.0})
    assert t.value_at(1.0 + 1e-12) == 5.0
    assert t(0.0) == 0.0
    with pytest.raises(DomainError):
        t.value_at(0.5)
    with pytest.raises(DomainError):  # a NaN used to return the first table value
        t.value_at(np.nan)


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
    assert _lipschitz_violation(pts, c, lip_tol) == _loop_violation(pts, c, lip_tol)


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
