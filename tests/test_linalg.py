"""Eigensolver, spectral grouping, functional calculus, and comparators.

Two solvers are cross-checked in both directions: the cyclic Jacobi
``jacobi_eigh`` against ``numpy.linalg.eigh``, and the package's LAPACK seam
``linalg._eigh`` against ``jacobi_eigh``, which no production code calls and
which serves as the independent oracle.
"""

import dataclasses
import re
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
    dec = eigendecompose(HermitianObservable.from_diag([3.0, 1.0, 1.0]), group_tol=1e-9)
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
    obs = HermitianObservable.from_diag([0.0, 0.4, 1.0])
    dec = eigendecompose(obs, group_tol=0.5)
    assert dec.ranks == (2, 1)
    assert dec.eigenvalues[0] == pytest.approx(0.2)  # merged group keeps the mean


def test_group_means_stay_inside_their_groups_at_zero_tol():
    # three 0.1s sum to 0.30000000000000004, whose third rounds onto the next group
    obs = HermitianObservable.from_diag([0.1, 0.1, 0.1, np.nextafter(0.1, 1.0)])
    dec = eigendecompose(obs, group_tol=0.0)
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
    # an unknown group index used to select no columns and give a zero projector
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    for groups in ((5,), (-1,), (0, 3)):
        with pytest.raises(ValidationError, match="range\\(3\\)"):
            dec.projector(*groups)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_reconstruction_from_groups(n):
    obs = random_hermitian(n, seed=300 + n, scale=3.0)
    dec = eigendecompose(obs)
    err = float(np.linalg.norm(dec.assemble(dec.eigenvalues) - obs.matrix))
    assert err <= 1e-8 * max(1.0, obs.frobenius_norm)


def _reference_grouping(w, group_tol):
    """The grouping as a closed formula: means of the runs of gaps within ``group_tol``,
    clipped into each run, and each entry's residue bin by ``np.where``."""
    splits = w[1:] - w[:-1] > group_tol
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
    # rounding and merge at both thresholds, in clusters of 2 to n or in one group
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
    for group_tol in (resolve_tol(None, obs), ROUND_RTOL * obs.frobenius_norm):
        dec = eigendecompose(obs, group_tol)
        ref = _reference_grouping(w, group_tol)
        assert dec.ranks == ref["ranks"]
        if kind == "distinct":
            assert dec.ranks == (1,) * n
        elif kind == "one-group":
            assert dec.ranks == (n,)
        for name in ("eigenvalues", "labels", "rank_floats", "residue_bins"):
            got = getattr(dec, name)
            assert got.dtype == ref[name].dtype and got.tobytes() == ref[name].tobytes(), name


def test_decomposition_is_cached_per_threshold():
    obs = random_hermitian(5, seed=4)  # eigenvalue gaps 0.83, 1.59, 0.92, 1.73
    assert eigendecompose(obs) is eigendecompose(obs)
    assert eigendecompose(obs, group_tol=0.5) is eigendecompose(obs, group_tol=0.5)
    # 0.5 splits every gap, as the default does: the same grouping, built again
    half, default = eigendecompose(obs, group_tol=0.5), eigendecompose(obs)
    assert half.ranks == default.ranks == (1, 1, 1, 1, 1)
    assert half.eigenvalues.tobytes() == default.eigenvalues.tobytes()
    assert half.vectors.tobytes() == default.vectors.tobytes()
    # 1.0 merges across the 0.83 and 0.92 gaps
    assert eigendecompose(obs, group_tol=1.0).ranks == (2, 2, 1)


def test_a_repeat_threshold_returns_its_decomposition_before_any_array_work(
    monkeypatch, eigh_calls
):
    # eigenvalues 0, 1, 1 + 1e-10 and 3: the default threshold (~3e-8) merges the close
    # pair, decide_order's ROUND_RTOL * |B|_F (~3e-12) keeps it apart
    u = random_unitary(4, seed=8).matrix
    b = HermitianObservable((u * [0.0, 1.0, 1.0 + 1e-10, 3.0]) @ u.conj().T)
    fine = ROUND_RTOL * b.frobenius_norm
    # interleaved thresholds regroup the one eigensolve into their own grouping
    for t, ranks in ((None, (1, 2, 1)), (fine, (1, 1, 1, 1)), (None, (1, 2, 1)),
                     (2 * fine, (1, 1, 1, 1)), (fine, (1, 1, 1, 1)), (fine, (1, 1, 1, 1)),
                     (None, (1, 2, 1)), (1e-3, (1, 2, 1))):
        assert eigendecompose(b, t).ranks == ranks
    assert len(eigh_calls) == 1
    split = eigendecompose(b, fine)
    assert decide_order(b, b).holds and eigendecompose(b, fine) is split

    def refuse(*_):
        raise AssertionError("array work on a repeat call")

    # a repeat of the last threshold solves nothing, builds nothing and does not
    # even read the eigenpairs: unpacking None would raise
    monkeypatch.setattr(linalg, "_eigh", refuse)
    monkeypatch.setattr(linalg.SpectralDecomposition, "__init__", refuse)
    monkeypatch.setitem(vars(b), "eigenpairs", None)
    assert eigendecompose(b, fine) is split
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
    dec = SpectralDecomposition(HermitianObservable.from_diag([0.0, 0.0, 1.0, 3.0]), 0.0)
    assert dec.labels.tolist() == [0, 0, 1, 2]
    assert dec.rank_floats.tolist() == [2.0, 1.0, 1.0] and dec.rank_floats.dtype == np.float64
    # entry (r, c): column c's group when row r shares it, that group + 3 otherwise
    expected = [[0, 0, 4, 5], [0, 0, 4, 5], [3, 3, 1, 5], [3, 3, 4, 2]]
    assert dec.residue_bins.tolist() == sum(expected, [])
    for name in ("labels", "rank_floats", "residue_bins"):
        assert vars(dec)[name] is getattr(dec, name)
        assert not getattr(dec, name).flags.writeable


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


def test_a_pair_at_scale_1e150_still_decides():
    b = random_hermitian(4, seed=8, scale=1e150)
    w, v = b.eigenpairs
    a = HermitianObservable((v * np.sin(w / 1e150) * 1e150) @ v.conj().T)
    assert decide_order(a, b).holds
    assert not decide_order(HermitianObservable(1.5 * b.matrix), b).holds


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the matrices handed to ``varorder.linalg._eigh``."""
    calls = []
    eigh = linalg._eigh

    def counted(matrix):
        calls.append(np.shape(matrix))
        return eigh(matrix)

    monkeypatch.setattr(linalg, "_eigh", counted)
    return calls


def test_one_eigensolve_per_observable_across_partner_norms(eigh_calls):
    b = random_hermitian(3, seed=1)
    dec = eigendecompose(b)
    # shifted partners hold, and their norms raise the default tol
    # 1e-8 * max(1, |A|_F, |B|_F) above B's own default
    for shift in (10.0, 1000.0):
        a = HermitianObservable(b.matrix + shift * np.eye(3))
        assert resolve_tol(None, a, b) > resolve_tol(None, b)
        assert decide_order(a, b).holds
    assert eigendecompose(b, group_tol=1e-3).ranks == dec.ranks  # same grouping
    assert eigh_calls == [(3, 3)]


def test_maximal_deviation_reuses_the_eigensolve(eigh_calls):
    b = random_hermitian(4, seed=2)
    w = eigendecompose(b).eigenvalues
    assert maximal_deviation(b) == pytest.approx((w[-1] - w[0]) / 2.0, abs=1e-12)
    assert len(eigh_calls) == 1


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_group_tol_must_be_finite_and_nonnegative(tol):
    # a NaN group_tol used to merge the whole spectrum into one group
    with pytest.raises(ValidationError):
        eigendecompose(random_hermitian(3, seed=5), group_tol=tol)
    zero = eigendecompose(HermitianObservable.from_diag([0.0, 0.0, 1.0]), group_tol=0)
    assert zero.ranks == (2, 1)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("build", [SpectralDecomposition, eigendecompose],
                         ids=["SpectralDecomposition", "eigendecompose"])
def test_a_grouping_threshold_is_refused_unless_finite_and_nonnegative(build, tol):
    message = f"tolerance must be finite and >= 0, got {tol!r}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        build(random_hermitian(3, seed=5), tol)


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
    # ``dec.assemble(vals)`` is how ``verify_automorphism`` and ``two_spectrum_detector``
    # build ``f(B)``; matching each eigenvalue back to its table point gives the same bytes
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


def test_antiunitary_spectrum_preserved():
    # conjugation preserves eigenvalues of a Hermitian matrix
    u = random_unitary(3, seed=35, antiunitary=True)
    obs = random_hermitian(3, seed=36)
    np.testing.assert_allclose(
        eigendecompose(u.apply(obs)).eigenvalues,
        eigendecompose(obs).eigenvalues,
        atol=1e-9,
    )
