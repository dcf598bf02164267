"""Eigensolver, spectral grouping, functional calculus, and comparators.

Two solvers are cross-checked in both directions: the cyclic Jacobi
``jacobi_eigh`` against ``numpy.linalg.eigh``, and the package's LAPACK seam
``linalg._eigh`` against ``jacobi_eigh``, which no production code calls and
which serves as the independent oracle.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varorder import (
    DensityState,
    DimensionMismatchError,
    DomainError,
    EigensolverError,
    FunctionTable,
    HermitianObservable,
    NotHermitianError,
    SpectralDecomposition,
    UnitaryMap,
    ValidationError,
    apply_function,
    commutator_norm,
    decide_order,
    eigendecompose,
    linalg,
    maximal_deviation,
    two_point_lower_set,
    two_spectrum_detector,
)
from varorder.linalg import jacobi_eigh, loewner_leq, resolve_tol
from varorder.sampling import random_hermitian, random_unitary
from varorder.tolerances import ROUND_RTOL

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


# ---------------------------------------------------------------------------
# jacobi_eigh against the reference solver


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16])
def test_jacobi_matches_reference_solver(n):
    m = random_hermitian(n, seed=100 + n, scale=2.0).matrix
    w, v = jacobi_eigh(m)
    w_ref = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    np.testing.assert_allclose(w, w_ref, atol=1e-10 * scale, rtol=0)
    # eigenvector matrix is unitary and diagonalizes the input
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
    np.testing.assert_allclose(
        (v * w) @ v.conj().T, m, atol=1e-10 * scale, rtol=0
    )


def test_jacobi_eigenvalues_ascending():
    m = random_hermitian(9, seed=7).matrix
    w, _ = jacobi_eigh(m)
    assert np.all(np.diff(w) >= 0)


def test_jacobi_real_symmetric_input():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(6, 6))
    m = (g + g.T) / 2
    w, v = jacobi_eigh(m)
    np.testing.assert_allclose(w, np.linalg.eigvalsh(m), atol=1e-10, rtol=0)
    np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-10)


def test_jacobi_sweep_cap_reports_residual():
    m = random_hermitian(4, seed=2).matrix
    with pytest.raises(EigensolverError) as err:
        jacobi_eigh(m, max_sweeps=0)
    assert err.value.residual > 0


# ---------------------------------------------------------------------------
# linalg._eigh (LAPACK) against jacobi_eigh as the oracle


def _degenerate(n):
    u = random_unitary(n, seed=50 + n).matrix
    # a repeated eigenvalue at every n >= 2
    return (u * np.repeat([-1.0, 2.0], [(n - 1) // 2, n - (n - 1) // 2])) @ u.conj().T


def _real_symmetric(n):
    g = np.random.default_rng(60 + n).normal(size=(n, n))
    return (g + g.T) / 2


@pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 64])
@pytest.mark.parametrize(
    "build",
    [lambda n: random_hermitian(n, seed=400 + n, scale=2.0).matrix, _degenerate, _real_symmetric],
    ids=["random", "degenerate", "real-symmetric"],
)
def test_eigh_agrees_with_jacobi_oracle(build, n):
    m = build(n)
    w, v = linalg._eigh(m)
    w_ref, _ = jacobi_eigh(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    np.testing.assert_allclose(w, w_ref, atol=1e-10 * scale, rtol=0)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
    np.testing.assert_allclose((v * w) @ v.conj().T, m, atol=1e-10 * scale, rtol=0)


def test_eigh_solves_a_stack_matrix_by_matrix():
    stack = np.stack([random_hermitian(5, seed=70 + k).matrix for k in range(4)])
    w, v = linalg._eigh(stack)
    assert w.shape == (4, 5) and v.shape == (4, 5, 5)
    for k, m in enumerate(stack):
        wk, vk = linalg._eigh(m)
        np.testing.assert_array_equal(w[k], wk)
        np.testing.assert_array_equal(v[k], vk)


def test_lapack_failure_is_an_eigensolver_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigensolverError, match="did not converge") as err:
        eigendecompose(random_hermitian(3, seed=6))
    assert err.value.residual is None


# ---------------------------------------------------------------------------
# construction and validation


def test_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        HermitianObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(ValidationError):
        HermitianObservable(np.ones((2, 3)))


def test_rejects_an_empty_matrix():
    # used to pass, then fail inside eigendecompose with IndexError from add.reduceat
    with pytest.raises(ValidationError, match="nonempty"):
        HermitianObservable(np.zeros((0, 0)))


def test_rejects_non_finite():
    with pytest.raises(ValidationError):
        HermitianObservable(np.array([[np.nan, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "entry",
    [complex(0.0, np.inf), complex(np.nan, 0.0), complex(-np.inf, 1.0), complex(1.0, np.nan)],
)
def test_finiteness_covers_both_parts_of_an_entry(entry):
    # observables and density matrices test finiteness only once max |M| comes out NaN or
    # inf, and unitary maps only once max |U*U - I| does
    m = np.eye(2, dtype=np.complex128) / 2
    m[0, 1] = entry
    for build in (UnitaryMap, HermitianObservable, DensityState):
        with pytest.raises(ValidationError, match="matrix entries must be finite"):
            build(m)


def test_accepts_tiny_asymmetry_and_symmetrizes():
    eps = 1e-13
    obs = HermitianObservable(np.array([[1.0, eps], [0.0, 2.0]]))
    np.testing.assert_allclose(obs.matrix, obs.matrix.conj().T)


def test_matrix_is_immutable():
    obs = HermitianObservable.from_diag([1.0, 2.0])
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 5.0


# ---------------------------------------------------------------------------
# eigendecompose


def test_decompose_already_diagonal_groups_degenerate():
    dec = eigendecompose(HermitianObservable.from_diag([3.0, 1.0, 1.0]))
    assert dec.eigenvalues.tolist() == [1.0, 3.0]
    assert dec.ranks == (2, 1)


def test_decompose_pauli_x():
    dec = eigendecompose(HermitianObservable(PAULI_X))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    # projectors onto (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
    p_minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    p_plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(dec.projector(0), p_minus, atol=1e-12)
    np.testing.assert_allclose(dec.projector(1), p_plus, atol=1e-12)


def test_decompose_complex_offdiagonal():
    # characteristic polynomial t^2 - 4t + 3 has roots 1 and 3
    obs = HermitianObservable(np.array([[2.0, 1j], [-1j, 2.0]]))
    dec = eigendecompose(obs)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_decompose_group_tol_merges_near_eigenvalues():
    # a repeated eigenvalue, rotated out of the diagonal, comes back split by rounding
    u = random_unitary(3, seed=9).matrix
    obs = HermitianObservable((u * [0.4, 0.4, 1.0]) @ u.conj().T)
    w, _ = obs.eigenpairs
    assert w[0] != w[1]
    dec = SpectralDecomposition(obs)
    assert dec.ranks == (2, 1)
    assert dec.eigenvalues[0] == pytest.approx(0.4, abs=1e-15)  # merged group keeps the mean


def test_group_means_stay_inside_their_groups_at_zero_tol():
    # three 0.1s sum to 0.30000000000000004, whose third is above 0.1: clipped to it
    obs = HermitianObservable.from_diag([0.1, 0.1, 0.1, 1.0])
    dec = SpectralDecomposition(obs)
    assert dec.ranks == (3, 1)
    w, _ = obs.eigenpairs
    assert w[0] <= dec.eigenvalues[0] <= w[2] < w[3] == dec.eigenvalues[1]


@pytest.mark.parametrize("n", [2, 5, 11, 16])
def test_projector_algebra_random(n):
    obs = random_hermitian(n, seed=200 + n)
    dec = eigendecompose(obs)
    eye = np.eye(n)
    m = len(dec.ranks)
    total = np.zeros((n, n), dtype=complex)
    for j in range(m):
        p = dec.projector(j)
        np.testing.assert_allclose(p @ p, p, atol=1e-8)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        total += p
    np.testing.assert_allclose(total, eye, atol=1e-8)
    np.testing.assert_allclose(dec.projector(*range(m)), eye, atol=1e-8)
    for i in range(m):
        for j in range(i + 1, m):
            np.testing.assert_allclose(
                dec.projector(i) @ dec.projector(j), np.zeros((n, n)), atol=1e-8
            )


def test_projector_rejects_out_of_range_groups():
    # an unknown group index used to select no columns and give a zero projector, and
    # 1.7, "1" and True were each read as group 1
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    for groups in ((5,), (-1,), (0, 3), (1.7,), ("1",), (True,)):
        with pytest.raises(ValidationError, match="range\\(3\\)"):
            dec.projector(*groups)
    np.testing.assert_array_equal(dec.projector(np.int64(1)), dec.projector(1))


@pytest.mark.parametrize("n", [3, 8, 16])
def test_reconstruction_from_groups(n):
    obs = random_hermitian(n, seed=300 + n, scale=3.0)
    dec = eigendecompose(obs)
    err = float(np.linalg.norm(dec.assemble(dec.eigenvalues) - obs.matrix))
    assert err <= 1e-8 * max(1.0, obs.frobenius_norm)


def _reference_grouping(w, threshold):
    """The grouping as a closed formula: means of the runs of gaps within ``threshold``,
    clipped into each run, and each entry's residue bin by ``np.where``."""
    splits = w[1:] - w[:-1] > threshold
    bounds = np.concatenate(([0], splits.nonzero()[0] + 1, [w.size]))
    ranks = bounds[1:] - bounds[:-1]
    means = np.add.reduceat(w, bounds[:-1]) / ranks
    lams = np.minimum(np.maximum(means, w[bounds[:-1]]), w[bounds[1:] - 1])
    labels = np.repeat(np.arange(ranks.size), ranks)
    bins = np.where(labels[:, None] == labels, labels, labels + ranks.size)
    return {"eigenvalues": lams, "ranks": tuple(ranks.tolist()), "labels": labels,
            "rank_floats": ranks.astype(np.float64), "residue_bins": bins.ravel()}


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(1, 64),
    kind=st.sampled_from(["distinct", "clusters", "one-group"]),
    exponent=st.integers(-6, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_grouping_is_bit_exact_with_and_without_a_merge(n, kind, exponent, seed):
    # gaps between 1 and 2 all stay split; exact repeats, rotated, differ only by
    # rounding and merge, in clusters of 2 to n or in one group
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        spectrum = np.cumsum(rng.uniform(1.0, 2.0, n))
    elif kind == "clusters":
        sizes = []
        while sum(sizes) < n:
            sizes.append(min(int(rng.integers(2, max(n, 2) + 1)), n - sum(sizes)))
        spectrum = np.repeat(np.cumsum(rng.uniform(1.0, 2.0, len(sizes))), sizes)
    else:
        spectrum = np.full(n, rng.uniform(-2.0, 2.0))
    u = random_unitary(n, seed=seed).matrix
    obs = HermitianObservable((u * (spectrum * 10.0**exponent)) @ u.conj().T)
    w, _ = obs.eigenpairs
    dec = SpectralDecomposition(obs)
    ref = _reference_grouping(w, ROUND_RTOL * obs.frobenius_norm)
    assert dec.ranks == ref["ranks"]
    if kind == "distinct":
        assert dec.ranks == (1,) * n
    elif kind == "one-group":
        assert dec.ranks == (n,)
    for name in ("eigenvalues", "labels", "rank_floats", "residue_bins"):
        got = getattr(dec, name)
        assert got.dtype == ref[name].dtype and got.tobytes() == ref[name].tobytes(), name


def test_the_observable_keeps_one_decomposition_grouped_at_rounding_level():
    obs = random_hermitian(5, seed=4)  # eigenvalue gaps 0.83, 1.59, 0.92, 1.73
    dec = eigendecompose(obs)
    assert eigendecompose(obs) is dec and vars(obs)["_decomposition"] is dec
    fresh = SpectralDecomposition(obs)
    assert dec.ranks == fresh.ranks == (1, 1, 1, 1, 1)
    for name in ("eigenvalues", "vectors", "labels", "residue_bins"):
        assert getattr(dec, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert eigendecompose(obs) is dec


def test_a_chained_group_below_tol_stays_split_and_rebuilds_its_observable():
    # gaps of 6e-9, each within the default tol 1e-8, used to chain into one group
    # 1.8e-8 wide: its mean was off the eigenvalues, and rebuilding A from the
    # identity table on the spectrum was off by 1.47e-8, more than tol
    a = HermitianObservable.from_diag([0.0, 6e-9, 1.2e-8, 1.8e-8, 1.0])
    dec = eigendecompose(a)
    assert dec.ranks == (1, 1, 1, 1, 1)
    w, _ = a.eigenpairs
    rebuilt = apply_function(dec, FunctionTable([(x, x) for x in w.tolist()]))
    assert np.linalg.norm(rebuilt.matrix - a.matrix) <= resolve_tol(None, a)


def test_a_repeat_call_returns_its_decomposition_before_any_array_work(monkeypatch, eigh_calls):
    # eigenvalues 0, 1, 1 + 1e-10 and 3: the close pair is below the default tol
    # (~3e-8) and apart by more than rounding, so it is two groups for every caller
    u = random_unitary(4, seed=8).matrix
    b = HermitianObservable((u * [0.0, 1.0, 1.0 + 1e-10, 3.0]) @ u.conj().T)
    dec = eigendecompose(b)
    assert dec.ranks == (1, 1, 1, 1)
    # the structure routines and the decision read that one decomposition
    assert len(two_point_lower_set(b)) == 7 and not two_spectrum_detector(b)
    assert all(f.decomposition is dec for f in two_point_lower_set(b))
    assert decide_order(b, b).holds and eigendecompose(b) is dec
    assert len(eigh_calls) == 1

    def refuse(*_):
        raise AssertionError("array work on a repeat call")

    # a repeat call solves nothing, builds nothing and does not even read the
    # eigenpairs: unpacking None would raise
    monkeypatch.setattr(linalg, "_eigh", refuse)
    monkeypatch.setattr(linalg.SpectralDecomposition, "__init__", refuse)
    monkeypatch.setitem(vars(b), "eigenpairs", None)
    assert eigendecompose(b) is dec
    assert decide_order(b, b).holds and decide_order(2.0 * b.matrix, b).holds is False


def test_eigendecompose_shares_the_observables_frozen_eigenvectors():
    obs = random_hermitian(4, seed=6)
    dec = eigendecompose(obs)
    for arr in (dec.eigenvalues, dec.vectors, dec.labels):
        assert not arr.flags.writeable
    assert np.shares_memory(dec.vectors, obs.eigenpairs[1])
    assert dec.labels is dec.labels


def test_frobenius_norm_is_computed_once_and_stored():
    obs = random_hermitian(4, seed=7, scale=2.0)
    # set by the constructor, beside the matrix it is computed from
    assert vars(obs)["frobenius_norm"] == float(np.linalg.norm(obs.matrix))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obs.frobenius_norm = 0.0


def test_a_decomposition_stores_its_grouping_arrays_frozen():
    dec = SpectralDecomposition(HermitianObservable.from_diag([0.0, 0.0, 1.0, 3.0]))
    assert dec.labels.tolist() == [0, 0, 1, 2]
    assert dec.rank_floats.tolist() == [2.0, 1.0, 1.0] and dec.rank_floats.dtype == np.float64
    # entry (r, c): column c's group when row r shares it, that group + 3 otherwise
    expected = [[0, 0, 4, 5], [0, 0, 4, 5], [3, 3, 1, 5], [3, 3, 4, 2]]
    assert dec.residue_bins.tolist() == sum(expected, [])
    for name in ("labels", "rank_floats", "residue_bins"):
        assert vars(dec)[name] is getattr(dec, name)
        assert not getattr(dec, name).flags.writeable


GROUPING_ARRAYS = ("labels", "rank_floats", "residue_bins")


@pytest.mark.parametrize(
    "spectrum, ranks",
    [([0.0, 1.0, 3.0, 4.0], (1, 1, 1, 1)), ([0.0, 1.0, 1.0, 4.0], (1, 2, 1)), ([2.0] * 4, (4,))],
    ids=["no-merge", "one-merged-pair", "single-group"],
)
def test_equal_ranks_share_one_frozen_set_of_grouping_arrays(spectrum, ranks):
    # two observables, in different bases and at different scales, with one rank pattern
    first, second = (
        SpectralDecomposition(HermitianObservable(
            (u * (s * np.array(spectrum))) @ u.conj().T))
        for u, s in ((random_unitary(4, seed=11).matrix, 1.0), (random_unitary(4, seed=12).matrix, 3e3))
    )
    assert first.ranks == second.ranks == ranks
    for name in (*GROUPING_ARRAYS, "offsets"):
        assert getattr(first, name) is getattr(second, name)
    # the arrays the constructor built per decomposition before they were shared
    labels = np.repeat(np.arange(len(ranks)), ranks)
    bins = np.where(labels[:, None] == labels, labels, labels + len(ranks)).ravel()
    for name, ref in zip(GROUPING_ARRAYS, (labels, np.array(ranks, dtype=np.float64), bins)):
        got = getattr(first, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0
    # each group's first column, as Python ints: a single group starts at 0
    assert first.offsets == tuple(int(k) for k in np.cumsum((0, *ranks[:-1])))
    assert all(type(k) is int for k in first.offsets)


@pytest.mark.parametrize("b", [random_hermitian(5, seed=13), HermitianObservable.from_diag([1.0, 1.0, 2.0])],
                         ids=["random", "degenerate"])
def test_in_basis_is_v_star_m_v_bit_for_bit(b):
    # the decomposition keeps one eigenvector array; V* is formed where it is used
    dec = eigendecompose(b)
    m = random_hermitian(b.dim, seed=14).matrix
    v = dec.vectors
    assert dec.in_basis(m).tobytes() == (v.conj().T @ m @ v).tobytes()
    assert dec.in_basis(b.matrix).tobytes() == (v.conj().T @ b.matrix @ v).tobytes()
    assert not hasattr(dec, "adjoint")
    assert [f.name for f in dataclasses.fields(dec)] == [
        "eigenvalues", "vectors", "ranks", "labels", "rank_floats", "residue_bins", "offsets"]


def test_a_decomposition_retains_less_than_one_complex_n_by_n_array():
    # eigendecompose of an observable whose eigenpairs are already solved keeps the
    # observable's own vectors and no second eigenvector array; past n = 16 it builds
    # its own residue_bins, n^2 int64 entries, half of one complex n x n array
    n = 128
    eigendecompose(random_hermitian(n, seed=1))  # warm code paths
    obs = random_hermitian(n, seed=2)
    obs.eigenpairs
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        dec = eigendecompose(obs)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dec.vectors is obs.eigenpairs[1]
    assert retained < 16 * n * n


def test_the_grouping_memo_is_bounded():
    # every rank pattern of dimension 8: 2^7 = 128 of them, twice the memo's bound; an
    # entry's residue_bins is 8 n^2 bytes, and only n <= 16 is kept, so 64 * 2 KB at most
    cache = linalg._grouping
    assert cache.cache_info().maxsize == 64
    for bits in range(2**7):
        starts = [0] + [k + 1 for k in range(7) if bits >> k & 1]
        spectrum = np.repeat(np.arange(len(starts), dtype=np.float64), np.diff(starts + [8]))
        dec = SpectralDecomposition(HermitianObservable.from_diag(spectrum))
        assert len(dec.ranks) == len(starts)
        assert cache.cache_info().currsize <= 64
    assert cache.cache_info().currsize == 64
    # past n = 16 each decomposition builds its own arrays, and the memo is untouched
    before = cache.cache_info()
    first, second = (SpectralDecomposition(random_hermitian(17, seed=s)) for s in (14, 15))
    assert first.ranks == second.ranks == (1,) * 17
    assert first.residue_bins is not second.residue_bins
    assert first.residue_bins.tobytes() == second.residue_bins.tobytes()
    assert cache.cache_info()[:2] == before[:2] and cache.cache_info().currsize == 64


@pytest.mark.parametrize("entry", [1e200, 1e308, 1e308 + 1e308j])
def test_an_observable_whose_frobenius_norm_overflows_is_refused(entry):
    # used to construct with an infinite norm: the default tol became inf and
    # every comparison answered True, or NaN once (M + M*) / 2 overflowed; a finite
    # entry is too large, not "not finite", even where dim * max |M| is inf
    for m in (np.diag([entry, -entry, 0.0]), np.diag([entry, -entry])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="matrix too large"):
                HermitianObservable(m)
    with pytest.raises(ValidationError):
        loewner_leq(np.diag([entry, -entry, 0.0]), np.eye(3))
    with pytest.raises(ValidationError):
        maximal_deviation(np.diag([entry, -entry]))


def test_the_size_limit_is_on_dim_times_the_largest_entry():
    # dim * max |M| below MAX_SCALE = 1e153 keeps |M|_F^2 + |N|_F^2 finite
    assert linalg.MAX_SCALE == 1e153
    assert HermitianObservable(np.diag([4.9e152, 0.0])).frobenius_norm == 4.9e152
    with pytest.raises(ValidationError, match="matrix too large"):
        HermitianObservable(np.diag([5e152, 0.0]))


@pytest.mark.parametrize("k", [-600, -1000])
def test_a_tiny_observables_norm_does_not_underflow(k):
    # entries below about 1e-154 have subnormal squares, and below about 1e-162 squares
    # of 0: |A|_F used to read 0 for 2**-600 A, so the grouping threshold was 0 and two
    # eigenvalues of a rotated 2.7e-301 I, apart by rounding, were two groups
    m = random_hermitian(4, seed=9).matrix
    m = HermitianObservable(m / (2 * np.abs(m).max())).matrix  # largest modulus 1/2
    tiny = HermitianObservable(np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k))
    assert tiny.frobenius_norm == math.ldexp(HermitianObservable(m).frobenius_norm, k)
    a = random_unitary(2, seed=0).apply(HermitianObservable.from_diag([2.6680511202447637e-301] * 2))
    assert a.frobenius_norm > 0.0 and eigendecompose(a).ranks == (2,)
    assert not two_spectrum_detector(a)


def test_a_pair_at_scale_1e150_still_decides():
    b = random_hermitian(4, seed=8, scale=1e150)
    w, v = b.eigenpairs
    a = HermitianObservable((v * np.sin(w / 1e150) * 1e150) @ v.conj().T)
    assert decide_order(a, b).holds
    assert not decide_order(HermitianObservable(1.5 * b.matrix), b).holds


def test_one_eigensolve_per_observable_across_partner_norms(eigh_calls):
    b = random_hermitian(3, seed=1)
    dec = eigendecompose(b)
    # shifted partners hold, and their norms raise the default tol
    # 1e-8 * max(1, |A|_F, |B|_F) above B's own default
    for shift in (10.0, 1000.0):
        a = HermitianObservable(b.matrix + shift * np.eye(3))
        assert resolve_tol(None, a, b) > resolve_tol(None, b)
        assert decide_order(a, b).holds
    assert eigendecompose(b) is dec
    assert eigh_calls == [(3, 3)]


def test_maximal_deviation_reuses_the_eigensolve(eigh_calls):
    b = random_hermitian(4, seed=2)
    w = eigendecompose(b).eigenvalues
    assert maximal_deviation(b) == pytest.approx((w[-1] - w[0]) / 2.0, abs=1e-12)
    assert len(eigh_calls) == 1


def test_diameter():
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    assert dec.diameter == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# apply_function


def test_apply_identity():
    obs = HermitianObservable.from_diag([1.0, 2.0])
    out = apply_function(eigendecompose(obs), lambda t: t)
    np.testing.assert_allclose(out.matrix, obs.matrix, atol=1e-12)


def test_apply_square_on_pauli_x_gives_identity():
    dec = eigendecompose(HermitianObservable(PAULI_X))
    out = apply_function(dec, lambda t: t * t)
    np.testing.assert_allclose(out.matrix, np.eye(2), atol=1e-12)


def test_apply_table_relabels_diagonal():
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    out = apply_function(dec, FunctionTable.from_mapping({0.0: 0.0, 1.0: 1.0, 3.0: 2.0}))
    np.testing.assert_allclose(out.matrix, np.diag([0.0, 1.0, 2.0]), atol=1e-12)


def test_apply_is_a_homomorphism():
    obs = random_hermitian(6, seed=11)
    dec = eigendecompose(obs)
    lams = dec.eigenvalues
    f = dict(zip(lams[::-1], lams[::-1] ** 2 - 1.0))  # keys in descending order
    inner = apply_function(dec, FunctionTable.from_mapping(f))
    composed = apply_function(dec, FunctionTable.from_mapping({x: np.cos(f[x]) for x in lams}))
    chained = apply_function(eigendecompose(inner), np.cos)
    np.testing.assert_allclose(composed.matrix, chained.matrix, atol=1e-8)


def test_apply_commutes_with_source():
    obs = random_hermitian(5, seed=12)
    out = apply_function(eigendecompose(obs), np.tanh)
    assert commutator_norm(out, obs) <= 1e-8


def test_assembling_values_equals_applying_their_table():
    # ``dec.assemble(vals)`` is how ``verify_automorphism`` builds ``f(B)``; matching each eigenvalue back to its table point gives the same bytes
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 8):
        for scale in (1e-6, 1e-2, 1.0, 1e3, 1e6):
            dec = eigendecompose(random_hermitian(n, seed=rng, scale=scale))
            vals = rng.uniform(-1.0, 1.0, len(dec.ranks)) * scale
            table = FunctionTable.from_values(dec.eigenvalues, vals)
            direct = HermitianObservable(dec.assemble(vals)).matrix
            assert direct.tobytes() == apply_function(dec, table).matrix.tobytes()


def test_apply_undefined_point_names_eigenvalue():
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    with pytest.raises(DomainError, match=r"of 3\.0 "):
        apply_function(dec, FunctionTable.from_mapping({0.0: 0.0, 1.0: 1.0}))
    with pytest.raises(ValidationError, match="at least one point"):
        FunctionTable.from_mapping({})
    with pytest.raises(ValidationError, match="strictly increasing"):
        FunctionTable.from_mapping({0.0: 0.0, np.nan: 1.0, 3.0: 2.0})
    # a mapping is no function: it must be made a table first
    with pytest.raises(DomainError, match="not callable"):
        apply_function(dec, {0.0: 0.0, 1.0: 1.0, 3.0: 2.0})


# ---------------------------------------------------------------------------
# commutator_norm


def test_commutator_diagonal_pair_is_zero():
    a = HermitianObservable.from_diag([1.0, 2.0])
    b = HermitianObservable.from_diag([3.0, 4.0])
    assert commutator_norm(a, b) == 0.0


def test_commutator_pauli_x_z():
    # XZ - ZX = -2iY, Frobenius norm 2*sqrt(2)
    got = commutator_norm(HermitianObservable(PAULI_X), HermitianObservable(PAULI_Z))
    assert got == pytest.approx(2.8284271247461903, abs=1e-12)


def test_commutator_with_identity_is_zero():
    a = random_hermitian(4, seed=13)
    assert commutator_norm(a, HermitianObservable.identity(4)) <= 1e-14


def test_commutator_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        commutator_norm(HermitianObservable.identity(2), HermitianObservable.identity(3))


# ---------------------------------------------------------------------------
# loewner_leq


def test_loewner_examples():
    a = HermitianObservable.from_diag([0.0, 1.0])
    b = HermitianObservable.from_diag([1.0, 2.0])
    assert loewner_leq(a, b)
    assert not loewner_leq(
        HermitianObservable.from_diag([0.0, 2.0]), HermitianObservable.from_diag([1.0, 1.0])
    )
    assert loewner_leq(a, a)  # reflexive


def test_loewner_agrees_with_quadratic_forms():
    a = random_hermitian(5, seed=21)
    shift = HermitianObservable(a.matrix + 0.5 * np.eye(5))
    assert loewner_leq(a, shift)
    rng = np.random.default_rng(22)
    for _ in range(1000):
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        x /= np.linalg.norm(x)
        qa = (x.conj() @ a.matrix @ x).real
        qb = (x.conj() @ shift.matrix @ x).real
        assert qa <= qb + 1e-9


# ---------------------------------------------------------------------------
# UnitaryMap


def test_unitary_map_validates():
    with pytest.raises(ValidationError):
        UnitaryMap(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatchError, match="3 vs 2"):
        UnitaryMap(np.eye(2)).apply(HermitianObservable.identity(3))


def test_unitary_map_rejects_an_empty_matrix():
    # used to leak numpy's ValueError from max() over a zero-size array
    with pytest.raises(ValidationError, match="nonempty"):
        UnitaryMap(np.zeros((0, 0)))


def test_unitary_map_leaves_the_callers_array_writable_and_keeps_a_copy():
    # a complex128 input used to be frozen in place and then shared
    u = np.eye(2, dtype=np.complex128)
    umap = UnitaryMap(u)
    u[0, 0] = -1.0
    np.testing.assert_array_equal(umap.matrix, np.eye(2))
    assert not umap.matrix.flags.writeable
    # a read-only complex128 input used to be shared as it was
    u.setflags(write=False)
    assert not np.shares_memory(UnitaryMap(u).matrix, u)


def test_unitary_map_refuses_a_finite_matrix_whose_product_overflows():
    # U*U used to overflow with a RuntimeWarning before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            UnitaryMap(np.diag([1e200, 1.0]))
    assert str(err.value) == "matrix is not unitary: max |U*U - I| = inf"


def test_unitary_apply_conjugates():
    u = random_unitary(4, seed=31)
    obs = random_hermitian(4, seed=32)
    got = u.apply(obs)
    np.testing.assert_allclose(
        got.matrix, u.matrix @ obs.matrix @ u.matrix.conj().T, atol=1e-12
    )


def test_antiunitary_apply_conjugates_entries_first():
    u = random_unitary(4, seed=33, antiunitary=True)
    assert u.antiunitary
    obs = random_hermitian(4, seed=34)
    got = u.apply(obs)
    expect = u.matrix @ obs.matrix.conj() @ u.matrix.conj().T
    np.testing.assert_allclose(got.matrix, expect, atol=1e-12)


@pytest.mark.parametrize("flag", ["no", 0.5, 1, None], ids=repr)
def test_the_antiunitary_flag_is_a_bool(flag):
    # a truthy "no" or 0.5 used to be stored as given and to conjugate the entries in apply
    with pytest.raises(ValidationError) as err:
        UnitaryMap(np.eye(2), antiunitary=flag)
    assert str(err.value) == f"antiunitary must be a bool, got {flag!r}"
    with pytest.raises(ValidationError, match="^antiunitary must be a bool"):
        random_unitary(2, seed=0, antiunitary=flag)
    assert UnitaryMap(np.eye(2), antiunitary=np.bool_(True)).antiunitary


def test_antiunitary_spectrum_preserved():
    # conjugation preserves eigenvalues of a Hermitian matrix
    u = random_unitary(3, seed=35, antiunitary=True)
    obs = random_hermitian(3, seed=36)
    np.testing.assert_allclose(
        eigendecompose(u.apply(obs)).eigenvalues,
        eigendecompose(obs).eigenvalues,
        atol=1e-9,
    )
