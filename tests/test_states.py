"""States, Born measures, and the variance identities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varorder import (
    BornMeasure,
    DensityState,
    DimensionMismatchError,
    HermitianObservable,
    LipschitzExtension,
    PreconditionError,
    PureState,
    ValidationError,
    approx_eigen_sandwich,
    born_measure,
    eigendecompose,
    expectation,
    maximal_deviation,
    measure_variance,
    pushforward,
    superposition_variance,
    variance,
    variance_defect,
    witness_search,
)
from varorder.sampling import (
    random_density_matrix,
    random_hermitian,
    random_lipschitz_table,
    random_pure_vector,
    random_unitary,
)
from varorder.states import _variances

DIAG01 = HermitianObservable.from_diag([0.0, 1.0])
E1 = PureState.basis_vector(2, 0)
E2 = PureState.basis_vector(2, 1)
PLUS = PureState.normalized([1.0, 1.0])


# ---------------------------------------------------------------------------
# state construction


def test_pure_state_norm_enforced():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        PureState.normalized([0.0, 0.0])
    with pytest.raises(ValidationError, match="1-dimensional"):
        PureState(np.array([[1.0, 0.0]]))


def test_a_pure_state_keeps_a_frozen_copy_of_its_vector():
    # a read-only complex128 vector used to be shared as it was
    for writeable in (True, False):
        x = np.array([1.0, 0.0], dtype=np.complex128)
        x.setflags(write=writeable)
        state = PureState(x)
        assert not np.shares_memory(state.vector, x)
        assert not state.vector.flags.writeable


@pytest.mark.parametrize("index", [-1, 3, 1.5])
def test_basis_vector_refuses_an_index_outside_range_dim(index):
    # -1 used to count from the end and give e_2, and 3 and 1.5 raised a bare IndexError
    with pytest.raises(ValidationError, match=rf"^basis index {index} is not in range\(3\)$"):
        PureState.basis_vector(3, index)


@pytest.mark.parametrize(
    "entry",
    [complex(0.0, np.inf), complex(np.nan, 0.0), np.inf, -np.inf, np.nan, complex(1.0, np.nan)],
)
def test_pure_state_entries_must_be_finite_in_both_parts(entry):
    # tested only once <x, x> comes out NaN or inf, as it does for any such entry
    with pytest.raises(ValidationError, match="entries must be finite"):
        PureState(np.array([entry, 0.0]))


# 1e200 and 1e308 + 1e308j: finite entries whose squared norm overflows; the complex
# inner product is NaN there, and the refusal names the norm, not the entries
@pytest.mark.parametrize("factor", [1.0 + 2e-12, 1.0 - 2e-12, 1e200, 1e308 + 1e308j])
def test_pure_state_refuses_a_norm_off_one(factor):
    x = random_pure_vector(6, np.random.default_rng(47))
    assert PureState(x).dim == 6
    with pytest.raises(ValidationError, match="norm .* is not 1"):
        PureState(factor * x)


@pytest.mark.parametrize(
    "vec, match",
    [([1e200, 1e200], "norm overflows"), ([1e300j, 1e300], "norm overflows"),
     ([np.inf, 0.0], "entries must be finite"), ([np.nan, 1.0], "entries must be finite")],
)
def test_normalized_refuses_a_nonfinite_norm_without_a_warning(vec, match):
    # [1e200, 1e200] used to warn of an overflow in dot, divide by inf and then report
    # "state vector norm 0.0 is not 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            PureState.normalized(vec)
    big = PureState.normalized([3e150, 4e150]).vector
    assert big.tolist() == (np.array([3e150, 4e150]) / np.linalg.norm([3e150, 4e150])).tolist()


def test_normalized_near_the_float64_limit_is_vec_over_its_norm_without_a_warning():
    # squared norms from a quarter of the float64 maximum to just below it, on a strided
    # column and on its contiguous copy: no overflow warning from the norm's dot products,
    # and the bytes of vec / numpy.linalg.norm(vec)
    top = np.finfo(np.float64).max
    rng = np.random.default_rng(49)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(500):
            n = int(rng.integers(1, 9))
            m = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
            m *= np.sqrt(top * rng.uniform(0.25, 1.0 - 1e-9)) / np.linalg.norm(m[:, 1])
            for v in (m[:, 1], m[:, 1].copy()):
                assert PureState.normalized(v).vector.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_normalized_rescales_a_vector_whose_squared_norm_underflows():
    # [1e-200, 1e-200] used to be refused as the zero vector, and [1e-160, 0] (a subnormal
    # squared norm) with a norm off by 6e-6
    unit = PureState.normalized([1.0, 1.0]).vector
    assert PureState.normalized([1e-200, 1e-200]).vector.tobytes() == unit.tobytes()
    for tiny in (1e-160, 5e-324):
        assert PureState.normalized([tiny, 0.0]).vector.tolist() == [1.0, 0.0]
    for zero in ([0.0, 0.0], [0j, -0.0, 0.0]):
        with pytest.raises(ValidationError, match="zero vector"):
            PureState.normalized(zero)
    # a power of two scales exactly while the entries stay exact, down to the subnormals
    x = np.array([1.0, 2j, -3.0, 0.5 - 1.5j, 0.25])
    ref = PureState.normalized(x).vector.tobytes()
    for k in range(-1070, -499):
        scaled = np.ldexp(x.real, k) + 1j * np.ldexp(x.imag, k)
        assert PureState.normalized(scaled).vector.tobytes() == ref, k
    # at scales 1e-150 to 1e150 it is vec / norm(vec), byte for byte
    rng = np.random.default_rng(48)
    for _ in range(2000):
        n = int(rng.integers(1, 9))
        v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-150, 150)
        assert PureState.normalized(v).vector.tobytes() == (v / np.linalg.norm(v)).tobytes()


def test_density_state_invariants():
    with pytest.raises(ValidationError):
        DensityState(np.diag([0.6, 0.6]))  # trace 1.2
    with pytest.raises(ValidationError):
        DensityState(np.diag([1.5, -0.5]))  # negative eigenvalue
    rho = DensityState.maximally_mixed(3)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


def test_density_state_refuses_a_matrix_that_is_not_hermitian():
    # unit trace and eigenvalues 0.45 and 0.55 of its Hermitian part: only the
    # Hermitian check refuses it
    with pytest.raises(ValidationError) as err:
        DensityState(np.array([[0.5, 0.1], [0.0, 0.5]]))
    assert str(err.value) == "density matrix is not Hermitian: max |M - M*| = 1.000e-01"


def test_density_state_rejects_an_empty_matrix():
    # used to leak numpy's ValueError from max() over a zero-size array
    with pytest.raises(ValidationError):
        DensityState(np.zeros((0, 0)))


def test_density_from_pure_matches_pure_functionals():
    a = random_hermitian(4, seed=41)
    x = PureState(random_pure_vector(4, np.random.default_rng(42)))
    rho = DensityState.from_pure(x)
    assert expectation(a, rho) == pytest.approx(expectation(a, x), abs=1e-12)
    assert variance(a, rho) == pytest.approx(variance(a, x), abs=1e-12)


# ---------------------------------------------------------------------------
# expectation and variance


def test_expectation_examples():
    assert expectation(DIAG01, E1) == 0.0
    assert expectation(DIAG01, PLUS) == pytest.approx(0.5)
    assert expectation(DIAG01, DensityState.maximally_mixed(2)) == pytest.approx(0.5)


def test_expectation_within_spectral_range():
    a = random_hermitian(6, seed=43)
    lams = eigendecompose(a).eigenvalues
    rng = np.random.default_rng(44)
    for _ in range(50):
        x = PureState(random_pure_vector(6, rng))
        assert lams[0] - 1e-10 <= expectation(a, x) <= lams[-1] + 1e-10


def test_expectation_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        expectation(DIAG01, PureState.basis_vector(3, 0))


def test_variance_examples():
    assert variance(DIAG01, E1) == 0.0
    assert variance(DIAG01, PLUS) == pytest.approx(0.25, abs=1e-12)
    scalar = HermitianObservable(2.5 * np.eye(3))
    rho = DensityState(random_density_matrix(3, np.random.default_rng(45)))
    assert variance(scalar, rho) == pytest.approx(0.0, abs=1e-12)


def test_variance_nonnegative_and_zero_on_eigenspaces():
    a = HermitianObservable.from_diag([2.0, 2.0, 5.0])
    inside = PureState.normalized([1.0, 1.0, 0.0])  # supported in one eigenspace
    assert variance(a, inside) == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(46)
    for _ in range(50):
        x = PureState(random_pure_vector(3, rng))
        assert variance(a, x) >= 0.0


# ---------------------------------------------------------------------------
# Born measures


def test_born_measure_examples():
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 1.0]))
    mu = born_measure(dec, PureState.normalized([1.0, 1.0, 1.0]))
    locs, masses = mu.locations, mu.masses
    np.testing.assert_allclose(locs, [0.0, 1.0])
    np.testing.assert_allclose(masses, [1 / 3, 2 / 3], atol=1e-12)

    point = born_measure(eigendecompose(DIAG01), E2)
    assert point.atoms == ((1.0, 1.0),)

    dec3 = eigendecompose(HermitianObservable.from_diag([1.0, 2.0, 7.0]))
    uniform = born_measure(dec3, DensityState.maximally_mixed(3))
    np.testing.assert_allclose(uniform.masses, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_a_measure_stores_its_arrays_frozen():
    mu = BornMeasure(((0.0, 0.25), (2.0, 0.75)))
    assert mu.locations.tolist() == [0.0, 2.0] and mu.masses.tolist() == [0.25, 0.75]
    for name in ("locations", "masses"):
        assert vars(mu)[name] is getattr(mu, name)
        assert not getattr(mu, name).flags.writeable


def test_born_measure_validation():
    with pytest.raises(DimensionMismatchError):
        born_measure(eigendecompose(DIAG01), PureState.basis_vector(3, 0))
    with pytest.raises(ValidationError):
        BornMeasure(((0.0, -0.1), (1.0, 1.1)))  # negative mass
    with pytest.raises(ValidationError):
        BornMeasure(((0.0, 0.5), (1.0, 0.4)))  # mass 0.9
    with pytest.raises(ValidationError):
        BornMeasure(((1.0, 0.5), (0.0, 0.5)))  # decreasing locations
    # a NaN mass used to pass both the sign test and the sum test
    for atoms in (((0.0, np.nan),), ((0.0, np.nan), (1.0, 1.0))):
        with pytest.raises(ValidationError, match="nonnegative"):
            BornMeasure(atoms)


@pytest.mark.parametrize("pairs", [
    [(np.nan, 0.5), (1.0, 0.5)],
    [(0.0, 0.5), (np.inf, 0.5)],
    [(0.0, np.nan), (1.0, 0.5)],  # the NaN atom used to be dropped as dust
])
def test_normalized_refuses_nonfinite_locations_and_nan_masses(pairs):
    with pytest.raises(ValidationError):
        BornMeasure.normalized(pairs)


@pytest.mark.parametrize("f", [
    lambda t: np.nan,
    lambda t: np.nan if t > 0 else t,
    lambda t: np.inf if t > 0 else t,
], ids=["all-nan", "one-nan", "inf"])
def test_pushforward_refuses_a_nonfinite_image(f):
    with pytest.raises(ValidationError):
        pushforward(BornMeasure(((0.0, 0.5), (1.0, 0.5))), f)


def test_normalized_merges_and_drops_dust():
    mu = BornMeasure.normalized([(0.0, 0.5), (0.0, 0.25), (1.0, 0.25), (2.0, 1e-16)])
    assert mu.atoms == ((0.0, 0.75), (1.0, 0.25))
    assert sum(p for _, p in mu.atoms) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError, match="no mass left"):
        BornMeasure.normalized([(0.0, 1e-16), (1.0, 1e-15)])


@pytest.mark.parametrize("pairs", [
    [(0, 0.5), (1, 0.5), (2, -0.3)],  # the negative atom used to be dropped as dust
    [(0, 1), (0, -0.4)],  # used to merge into one atom of mass 1
    [(0, 1), (1e-13, -0.4)],  # used to merge into one atom at -6.7e-14, outside the support
])
def test_normalized_refuses_negative_masses_before_merging(pairs):
    with pytest.raises(ValidationError, match="atom masses must be nonnegative"):
        BornMeasure.normalized(pairs)


def test_normalized_drops_rounding_level_negative_dust():
    mu = BornMeasure.normalized([(0.0, 1.0), (1.0, -1e-15)])
    assert mu.atoms == ((0.0, 1.0),)


def test_a_measure_stores_only_its_arrays_and_reads_the_atoms_back_bit_for_bit():
    given = ((-0.0, 0.125), (np.float64(0.1), 1 / 3), (7, np.float64(0.5 - 1 / 3 + 0.375)))
    mu = BornMeasure(given)
    assert set(vars(mu)) == {"locations", "masses"}
    assert [[type(v) for v in a] for a in mu.atoms] == [[float, float]] * len(given)
    assert [[v.hex() for v in a] for a in mu.atoms] == [[float(v).hex() for v in a] for a in given]


def test_mean():
    mu = BornMeasure(((0.0, 0.25), (2.0, 0.75)))
    assert mu.mean() == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# measure variance: moment route vs double-integral route


def test_measure_variance_examples():
    assert measure_variance(BornMeasure(((0.0, 0.5), (1.0, 0.5)))) == pytest.approx(0.25)
    assert measure_variance(BornMeasure(((3.7, 1.0),))) == pytest.approx(0.0)
    thirds = BornMeasure(((0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)))
    assert measure_variance(thirds) == pytest.approx(2 / 3, abs=1e-12)


def test_measure_variance_against_double_integral():
    rng = np.random.default_rng(47)
    for _ in range(200):
        k = rng.integers(1, 7)
        locs = np.sort(rng.uniform(-5.0, 5.0, size=k))
        masses = rng.dirichlet(np.ones(k))
        mu = BornMeasure.normalized(zip(locs, masses))
        t = mu.locations
        p = mu.masses
        double = 0.5 * float(p @ (t[:, None] - t[None, :]) ** 2 @ p)
        assert measure_variance(mu) == pytest.approx(double, abs=1e-10)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_examples():
    half = BornMeasure(((-1.0, 0.5), (1.0, 0.5)))
    assert pushforward(half, lambda t: t * t).atoms == ((1.0, 1.0),)

    mu = BornMeasure(((0.0, 0.3), (1.0, 0.7)))
    assert pushforward(mu, lambda t: t).atoms == mu.atoms

    spread = BornMeasure(((0.0, 0.5), (2.0, 0.5)))
    halved = pushforward(spread, lambda t: t / 2)
    assert halved.atoms == ((0.0, 0.5), (1.0, 0.5))
    assert measure_variance(spread) == pytest.approx(1.0)
    assert measure_variance(halved) == pytest.approx(0.25)


def test_pushforward_contracts_variance_under_short_maps():
    rng = np.random.default_rng(48)
    for _ in range(100):
        k = rng.integers(2, 7)
        locs = np.sort(rng.uniform(-4.0, 4.0, size=k))
        locs = locs[np.r_[True, np.diff(locs) > 1e-6]]
        masses = rng.dirichlet(np.ones(len(locs)))
        mu = BornMeasure.normalized(zip(locs, masses))
        f = LipschitzExtension(random_lipschitz_table(mu.locations, seed=rng), 1.0)
        assert measure_variance(pushforward(mu, f)) <= measure_variance(mu) + 1e-10


# ---------------------------------------------------------------------------
# defect identity and the sandwich


def test_variance_defect_examples():
    assert variance_defect(DIAG01, E1) == pytest.approx(0.0, abs=1e-15)
    # residual vector (-1/2, 1/2)/sqrt(2) has squared norm 1/4
    assert variance_defect(DIAG01, PLUS) == pytest.approx(0.25, abs=1e-12)
    wide = HermitianObservable.from_diag([0.0, 2.0])
    assert variance_defect(wide, PLUS) == pytest.approx(1.0, abs=1e-12)


def test_defect_equals_variance():
    rng = np.random.default_rng(49)
    for n in (2, 5, 9):
        a = random_hermitian(n, seed=50 + n, scale=2.0)
        for _ in range(50):
            x = PureState(random_pure_vector(n, rng))
            assert variance_defect(a, x) == pytest.approx(variance(a, x), abs=1e-10)


def test_sandwich_examples():
    d, var, err = approx_eigen_sandwich(DIAG01, E1, 0.0)
    assert (d, var, err) == (pytest.approx(0.0, abs=1e-15),) * 3

    d, var, err = approx_eigen_sandwich(DIAG01, PLUS, 0.0)
    assert d == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.25, abs=1e-12)
    assert err == pytest.approx(0.5, abs=1e-12)
    assert 0.5 * d <= var + err**2 <= 2.0 * d

    # eigenvector against the wrong eigenvalue: exact middle term
    d, var, err = approx_eigen_sandwich(DIAG01, E2, 3.0)
    assert d == pytest.approx(4.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)
    assert err == pytest.approx(2.0, abs=1e-12)


def test_sandwich_on_random_triples():
    rng = np.random.default_rng(51)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = random_hermitian(n, seed=rng, scale=2.0)
        x = PureState(random_pure_vector(n, rng))
        lam = float(rng.uniform(-3.0, 3.0))
        d, var, err = approx_eigen_sandwich(a, x, lam)
        assert 0.5 * d <= var + err**2 + 1e-10
        assert var + err**2 <= 2.0 * d + 1e-10


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_sandwich_holds_at_every_eigenvalue_at_large_scales(scale):
    # the slack was an absolute CHECK_TOL, under the moment-form variance's rounding of
    # order u <A^2>: states near eigenvectors raised on 2 of 8 at 1e4 and 8 of 8 at 1e6
    a = random_hermitian(8, seed=1, scale=scale)
    w, v = a.eigenpairs
    for k in range(8):
        x = PureState.normalized(v[:, k] + 1e-9 * v[:, (k + 1) % 8])
        d, var, err = approx_eigen_sandwich(a, x, w[k])
        assert d == pytest.approx(1e-18 * (w[(k + 1) % 8] - w[k]) ** 2, rel=1e-6)


def test_perturbed_eigenvector_defect_decays_quadratically():
    a = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    d_coarse = approx_eigen_sandwich(a, PureState.normalized([1.0, 0.0, 0.0] + 1e-2 * v), 0.0)[0]
    d_fine = approx_eigen_sandwich(a, PureState.normalized([1.0, 0.0, 0.0] + 1e-4 * v), 0.0)[0]
    assert d_fine <= 1e-3 * d_coarse


# ---------------------------------------------------------------------------
# superposition variance


def test_superposition_examples():
    wide = HermitianObservable.from_diag([0.0, 2.0])
    assert superposition_variance(wide, E1, E2, 1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert superposition_variance(DIAG01, E1, E2, 1.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    five = HermitianObservable.from_diag([0.0, 5.0])
    assert superposition_variance(five, E1, E2, 3.0, 4.0) == pytest.approx(5.76, abs=1e-10)


def test_superposition_matches_closed_form_off_diagonal():
    # same statement in a rotated basis
    u = random_unitary(3, seed=52).matrix
    a = HermitianObservable(u @ np.diag([1.0, 1.0, 4.0]) @ u.conj().T)
    x = PureState(u[:, 0])
    y = PureState(u[:, 2])
    alpha, beta = 2.0, -1.5
    expect = alpha**2 * beta**2 * (4.0 - 1.0) ** 2 / (alpha**2 + beta**2) ** 2
    assert superposition_variance(a, x, y, alpha, beta) == pytest.approx(expect, abs=1e-10)


def test_superposition_preconditions():
    with pytest.raises(PreconditionError):
        superposition_variance(DIAG01, PLUS, E2, 1.0, 1.0)  # x not an eigenvector
    minus = PureState.normalized([1.0, -1.0])  # orthogonal to PLUS; neither is an eigenvector
    with pytest.raises(PreconditionError, match="x is not an eigenvector"):
        superposition_variance(DIAG01, PLUS, minus, 1.0, 1.0)
    with pytest.raises(PreconditionError):
        superposition_variance(HermitianObservable.identity(2), E1, E2, 1.0, 1.0)  # same eigenvalue
    with pytest.raises(PreconditionError):
        superposition_variance(DIAG01, E1, E1, 1.0, 1.0)  # not orthogonal
    with pytest.raises(PreconditionError):
        superposition_variance(DIAG01, E1, E2, 0.0, 1.0)  # zero coefficient


# ---------------------------------------------------------------------------
# maximal deviation


def test_maximal_deviation_examples():
    assert maximal_deviation(HermitianObservable.identity(3)) == pytest.approx(0.0)
    assert maximal_deviation(DIAG01) == pytest.approx(0.5)
    assert maximal_deviation(HermitianObservable.from_diag([0.0, 1.0, 3.0])) == pytest.approx(1.5)


def test_maximal_deviation_is_a_tight_upper_bound_for_sampling():
    rng = np.random.default_rng(53)
    vecs = rng.normal(size=(10_000, 2)) + 1j * rng.normal(size=(10_000, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    m = DIAG01.matrix
    e = np.einsum("ri,ij,rj->r", vecs.conj(), m, vecs).real
    e2 = np.einsum("ri,ij,rj->r", vecs.conj(), m @ m, vecs).real
    sampled = float(np.sqrt(np.clip(e2 - e * e, 0.0, None)).max())
    closed = maximal_deviation(DIAG01)
    assert sampled <= closed + 1e-12  # one-sided: sampling never exceeds
    assert closed - sampled <= 1e-3


# ---------------------------------------------------------------------------
# invariance laws


def test_variance_matches_measure_variance():
    rng = np.random.default_rng(54)
    for n in (2, 5, 12):
        a = random_hermitian(n, seed=60 + n, scale=2.0)
        dec = eigendecompose(a)
        for _ in range(20):
            x = PureState(random_pure_vector(n, rng))
            assert variance(a, x) == pytest.approx(
                measure_variance(born_measure(dec, x)), abs=1e-9
            )
            rho = DensityState(random_density_matrix(n, rng))
            assert variance(a, rho) == pytest.approx(
                measure_variance(born_measure(dec, rho)), abs=1e-9
            )
        # the batched moment kernel behind witness_search and
        # state_order_violation, on stacks of pure and density states
        xs = [PureState(random_pure_vector(n, rng)) for _ in range(5)]
        rhos = [DensityState(random_density_matrix(n, rng)) for _ in range(5)]
        for stack, states in (
            (np.array([x.vector for x in xs]), xs),
            (np.array([r.matrix for r in rhos]), rhos),
        ):
            np.testing.assert_allclose(
                _variances(a.matrix, stack),
                [measure_variance(born_measure(dec, s)) for s in states],
                atol=1e-9,
            )
        b = random_hermitian(n, seed=70 + n)
        x, value = witness_search(a, b, restarts=3, steps=5, seed=n)
        born_gap = measure_variance(born_measure(dec, x)) - measure_variance(
            born_measure(eigendecompose(b), x)
        )
        assert value == pytest.approx(born_gap, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 128),
    k=st.integers(-19, 19),  # scale 2**k, about 1e-6 to 1e6
    seed=st.integers(0, 2**32 - 1),
)
def test_one_vector_variance_matches_the_stacked_form_and_the_born_measure(n, k, seed):
    rng = np.random.default_rng(seed)
    a0 = random_hermitian(n, rng)
    a = HermitianObservable(2.0**k * a0.matrix)  # exact: a power of two
    x = random_pure_vector(n, rng)
    one = _variances(a.matrix, x)
    assert np.ndim(one) == 0
    bound = 4 * n * np.finfo(float).eps * a.frobenius_norm**2
    assert abs(one - _variances(a.matrix, x[None])[0]) <= bound
    # the Born route at A itself, each eigenvalue its own atom (no grouping)
    born = measure_variance(born_measure(eigendecompose(a, group_tol=0.0), PureState(x)))
    assert abs(max(0.0, one) - born) <= bound
    assert variance(a, PureState(x)) == max(0.0, float(one))


@pytest.mark.parametrize("scale", [1e2, 1e3, 1e4, 1e6])
@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_measure_variance_checks_its_routes_in_variance_units(n, scale):
    # the moment and double-integral routes agree to rounding of the second
    # moment, ~1e-4 absolute at scale 1e6: an absolute CHECK_TOL refused them
    rng = np.random.default_rng(int(n + np.log10(scale)))
    a = random_hermitian(n, rng, scale=scale)
    dec = eigendecompose(a)
    for _ in range(5):
        x = PureState(random_pure_vector(n, rng))
        var = measure_variance(born_measure(dec, x))
        assert var == pytest.approx(variance(a, x), rel=1e-9)


def test_variance_shift_and_negation_invariance():
    rng = np.random.default_rng(55)
    a = random_hermitian(5, seed=56)
    eye = np.eye(5)
    for _ in range(30):
        rho = DensityState(random_density_matrix(5, rng))
        c = float(rng.uniform(-4.0, 4.0))
        base = variance(a, rho)
        shifted = HermitianObservable(a.matrix + c * eye)
        negated = HermitianObservable(-a.matrix + c * eye)
        assert variance(shifted, rho) == pytest.approx(base, abs=1e-10)
        assert variance(negated, rho) == pytest.approx(base, abs=1e-10)


def test_variance_quadratic_scaling():
    rng = np.random.default_rng(57)
    a = random_hermitian(4, seed=58)
    for _ in range(30):
        rho = DensityState(random_density_matrix(4, rng))
        alpha = float(rng.uniform(-3.0, 3.0))
        scaled = HermitianObservable(alpha * a.matrix)
        assert variance(scaled, rho) == pytest.approx(
            alpha**2 * variance(a, rho), abs=1e-10
        )


def test_variance_unitary_covariance():
    rng = np.random.default_rng(59)
    a = random_hermitian(4, seed=61)
    for k in range(20):
        u = random_unitary(4, seed=1000 + k).matrix
        rho = DensityState(random_density_matrix(4, rng))
        rotated = HermitianObservable(u @ a.matrix @ u.conj().T)
        back = DensityState(u.conj().T @ rho.matrix @ u)
        assert variance(rotated, rho) == pytest.approx(variance(a, back), abs=1e-10)
