"""Joint upper bounds, two-point lower sets, gap matrices, automorphisms."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varorder import (
    AutomorphismSpec,
    DegenerateInputError,
    DimensionMismatchError,
    HermitianObservable,
    PreconditionError,
    QMatrix,
    ReconstructionError,
    TwoPointFamily,
    UnitaryMap,
    ValidationError,
    apply_function,
    block_shift_upper_bound,
    class_equal,
    commutator_norm,
    decide_order,
    eigendecompose,
    joint_upper_bound,
    q_matrix,
    reconstruct_metric,
    three_point_class_candidates,
    two_point_lower_set,
    two_spectrum_detector,
    verify_automorphism,
)
from varorder import linalg, structure
from varorder.sampling import (
    random_commuting_pair,
    random_hermitian,
    random_spectrum,
    random_unitary,
)
from varorder.structure import _enumerated_q


# ---------------------------------------------------------------------------
# joint upper bound for commuting pairs


def test_joint_upper_bound_block_arithmetic():
    # blocks of B on A's eigenspaces: diag(2,0) and (3); tau=3, diam=4, beta=17
    a = HermitianObservable.from_diag([1.0, 1.0, 5.0])
    b = HermitianObservable.from_diag([2.0, 0.0, 3.0])
    c = joint_upper_bound(a, b)
    np.testing.assert_allclose(c.matrix, np.diag([19.0, 17.0, 37.0]), atol=1e-12)
    assert decide_order(a, c).holds
    assert decide_order(b, c).holds


def test_joint_upper_bound_of_pair_with_itself():
    # tau=1, diam=1, beta=6; block shifts 6 and 12
    a = HermitianObservable.from_diag([0.0, 1.0])
    c = joint_upper_bound(a, a)
    np.testing.assert_allclose(c.matrix, np.diag([6.0, 13.0]), atol=1e-12)


def test_joint_upper_bound_above_scalar():
    scalar = HermitianObservable(2.0 * np.eye(3))
    b = random_hermitian(3, seed=101)
    c = joint_upper_bound(scalar, b)
    # single block: C is B plus one uniform shift
    np.testing.assert_allclose(c.matrix - b.matrix, (c.matrix - b.matrix)[0, 0] * np.eye(3), atol=1e-9)
    assert decide_order(scalar, c).holds
    assert decide_order(b, c).holds


def test_joint_upper_bound_refuses_operands_of_different_dimensions():
    # each operand was coerced alone, and numpy's matmul raised a bare ValueError
    for a, b in ((np.eye(2), np.diag([1.0, 2.0, 3.0])), (np.diag([1.0, 2.0, 3.0]), np.eye(2))):
        with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
            joint_upper_bound(a, b)


def test_joint_upper_bound_rejects_noncommuting():
    x = HermitianObservable(np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = HermitianObservable.from_diag([1.0, -1.0])
    with pytest.raises(PreconditionError, match="commute"):
        joint_upper_bound(x, z)


@pytest.mark.parametrize("seed", range(10))
def test_joint_upper_bound_verified_on_random_commuting_pairs(seed):
    a, b = random_commuting_pair(3 + seed % 5, seed=110 + seed)
    c = joint_upper_bound(a, b)
    assert decide_order(a, c).holds
    assert decide_order(b, c).holds


@pytest.mark.parametrize("gap", [1e-9, 2e-8])
def test_joint_upper_bound_refuses_a_b_that_mixes_close_eigenspaces(gap):
    # |AB - BA|_F is about gap * mixing, under tol, but the bound keeps only B's
    # blocks on A's eigenspaces, so decide_order(B, C) would fail
    a = HermitianObservable.from_diag([0.0, gap, 1.0])
    for angle in (0.3, 1.0):
        u = np.eye(3)
        u[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        b = HermitianObservable(u @ np.diag([0.0, 1.0, 2.0]) @ u.T)
        assert commutator_norm(a, b) < 2e-8  # tol is 1e-8 |B|_F = 2.2e-8
        with pytest.raises(PreconditionError, match=r"\|PB - BP\|_F = .* exceeds tol") as err:
            joint_upper_bound(a, b)
        # the residue is sqrt(2) times B's entry sin cos between the two eigenvectors
        assert err.value.witness == pytest.approx(math.sqrt(2.0) * math.sin(2.0 * angle) / 2.0)
    b = HermitianObservable.from_diag([5.0, 2.0, 3.0])  # commutes: a bound above both
    c = joint_upper_bound(a, b)
    assert decide_order(a, c).holds and decide_order(b, c).holds


def test_block_shift_candidate_never_tops_both_for_noncommuting():
    for seed in range(10):
        a = random_hermitian(4, seed=130 + seed)
        b = random_hermitian(4, seed=140 + seed)
        for c in (block_shift_upper_bound(a, b), block_shift_upper_bound(b, a)):
            assert not (decide_order(a, c).holds and decide_order(b, c).holds)


def test_joint_upper_bound_forms_b_in_a_basis_once_and_solves_each_block_size_once(
    monkeypatch, eigh_calls
):
    # A's eigenspaces have ranks (1, 2, 1, 3, 2): two blocks of size 1, two of size 2
    # and one of size 3, so one eigensolve of A and then one stack per block size
    ranks = (1, 2, 1, 3, 2)
    u = random_unitary(9, seed=150).matrix
    a = HermitianObservable((u * np.repeat(np.arange(5.0), ranks)) @ u.conj().T)
    rng = np.random.default_rng(151)
    blocks = np.zeros((9, 9), dtype=complex)
    for start, k in zip(np.cumsum((0,) + ranks[:-1]), ranks):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        blocks[start:start + k, start:start + k] = g + g.conj().T
    b = HermitianObservable(u @ blocks @ u.conj().T)
    formed = []
    in_basis = linalg.SpectralDecomposition.in_basis
    monkeypatch.setattr(linalg.SpectralDecomposition, "in_basis",
                        lambda dec, m: formed.append(m.shape) or in_basis(dec, m))
    c = joint_upper_bound(a, b)
    assert formed == [(9, 9)]
    assert eigh_calls == [(9, 9), (2, 1, 1), (2, 2, 2), (1, 3, 3)]
    assert eigendecompose(a).ranks == ranks
    assert np.array_equal(c.matrix, block_shift_upper_bound(a, b).matrix)
    assert decide_order(a, c).holds and decide_order(b, c).holds


# ---------------------------------------------------------------------------
# two-point lower sets


def test_lower_set_threshold_families():
    fams = two_point_lower_set(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    table = {f.eigenvalues: f.threshold for f in fams}
    assert table == {(0.0,): 1.0, (1.0,): 1.0, (3.0,): 2.0}


def test_lower_set_two_point_spectrum():
    fams = two_point_lower_set(HermitianObservable.from_diag([0.0, 1.0]))
    assert len(fams) == 1
    assert fams[0].threshold == pytest.approx(1.0)


def test_lower_set_membership_grid():
    a = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    fam = next(f for f in two_point_lower_set(a) if f.eigenvalues == (3.0,))
    assert decide_order(fam.observable(1.5), a).holds
    assert not decide_order(fam.observable(2.5), a).holds


def test_lower_set_rejects_scalar():
    with pytest.raises(DegenerateInputError):
        two_point_lower_set(HermitianObservable(2.0 * np.eye(3)))


@pytest.mark.parametrize("seed", range(6))
def test_lower_set_thresholds_are_sharp(seed):
    spectrum = random_spectrum(4, seed=150 + seed, min_gap=0.3)
    a = HermitianObservable.from_diag(spectrum)
    mingap = float(np.diff(np.sort(spectrum)).min())
    for fam in two_point_lower_set(a):
        assert decide_order(fam.observable(fam.threshold), a).holds
        assert decide_order(fam.observable(fam.threshold - 0.1 * mingap), a).holds
        assert not decide_order(fam.observable(fam.threshold + 0.1 * mingap), a).holds


def test_lower_set_families_share_one_decomposition():
    # 2^11 - 1 families on a distinct n = 12 spectrum.  One dense 12 x 12
    # projector per family would take 2047 * 2.3 KB = 4.7 MB; the families
    # share one eigenbasis and form a projector only on request.
    two_point_lower_set(HermitianObservable.from_diag([0.0, 1.0, 3.0]))  # warm code paths
    a = HermitianObservable.from_diag(np.arange(12.0) ** 1.5)
    tracemalloc.start()
    try:
        fams = two_point_lower_set(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fams) == 2**11 - 1
    dec = eigendecompose(a)
    assert all(f.decomposition is dec for f in fams)
    for f in fams[::97]:
        np.testing.assert_array_equal(f.projector, dec.projector(*f.indices))
    assert peak < 1_000_000


def test_family_rejects_out_of_range_indices():
    # index -1 used to report eigenvalue 3.0 while the projector was zero
    dec = eigendecompose(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    for indices in ((-1,), (3,), (0, 7), (0.5,)):  # 0.5 used to be read as group 0
        with pytest.raises(ValidationError, match="range\\(3\\)"):
            TwoPointFamily(dec, indices, 1.0)
    with pytest.raises(ValidationError, match="nonempty"):
        TwoPointFamily(dec, (), 1.0)
    for threshold in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="threshold must be positive"):
            TwoPointFamily(dec, (0,), threshold)


def test_lower_set_covers_complements_once():
    # n=4: four singletons and three 2-vs-2 splits, each split listed once
    fams = two_point_lower_set(HermitianObservable.from_diag([0.0, 1.0, 2.0, 4.0]))
    sizes = sorted(len(f.eigenvalues) for f in fams)
    assert sizes == [1, 1, 1, 1, 2, 2, 2]


# ---------------------------------------------------------------------------
# q-matrix


def _upper(q):
    n = q.shape[0]
    return [q[i, j] for i in range(n) for j in range(i + 1, n)]


def test_q_matrix_two_case_rule():
    q = q_matrix([0.0, 1.0, 3.0, 7.0]).values
    # distances below the diameter pass through; the diameter collapses to 7-1
    assert _upper(q) == [1.0, 3.0, 6.0, 2.0, 6.0, 4.0]


def test_q_matrix_three_way_maximum():
    q = q_matrix([0.0, 1.0, 5.0, 6.0]).values
    assert q[0, 3] == q[0, 2] == q[1, 3] == 5.0


def test_q_matrix_arithmetic_progression():
    q = q_matrix([0.0, 1.0, 2.0, 3.0]).values
    assert q[0, 3] == 2.0
    assert _upper(q) == [1.0, 2.0, 2.0, 1.0, 2.0, 1.0]


@pytest.mark.parametrize("seed", range(12))
def test_q_matrix_enumeration_cross_check(seed):
    spectrum = random_spectrum(4 + seed % 5, seed=160 + seed)
    np.testing.assert_allclose(
        q_matrix(spectrum).values,
        q_matrix(spectrum, method="enumerate").values,
        atol=1e-9,
    )


def _loop_enumerated_q(pts):
    # the one-mask-at-a-time loop the blocked enumeration replaced, kept as its reference
    n = len(pts)
    order = np.argsort(pts)
    steps = np.diff(pts[order])
    q = np.zeros((n, n))
    values = np.empty(n)
    for mask in range(2 ** (n - 1) - 1):
        kept = np.array([(mask >> i) & 1 for i in range(n - 1)], dtype=np.float64)
        values[order] = np.concatenate(([0.0], np.cumsum(kept * steps)))
        np.maximum(q, np.abs(values[:, None] - values[None, :]), out=q)
    return q


@pytest.mark.parametrize("seed", range(24))
def test_blocked_enumeration_equals_the_loop(seed):
    # n = 4..12 (up to 2047 masks, eight blocks), unsorted, at scales 1e-6..1e6
    rng = np.random.default_rng(180 + seed)
    n = 4 + seed % 9
    pts = rng.permutation(random_spectrum(n, seed=190 + seed)) * 10.0 ** rng.uniform(-6, 6)
    np.testing.assert_array_equal(_enumerated_q(pts), _loop_enumerated_q(pts))


def test_q_matrix_input_validation():
    with pytest.raises(ValidationError):
        q_matrix([0.0, 1.0, 1.0, 3.0])
    with pytest.raises(ValidationError, match="unknown method 'exact'"):
        q_matrix([0.0, 1.0, 2.0, 3.0], method="exact")
    with pytest.raises(DegenerateInputError):
        q_matrix([0.0, 1.0, 3.0])


@pytest.mark.parametrize(
    "spectrum",
    [[np.inf, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, -np.inf], [0.0, np.nan, 2.0, 3.0],
     [0.0, 1.0, 2.0, 1e308, -1e308]],
    ids=["inf", "minus-inf", "nan", "diameter-overflows"],
)
def test_q_matrix_refuses_a_non_finite_spectrum_before_any_arithmetic(spectrum):
    # these used to warn (an error under the suite's filter) and then blame the gap matrix
    match = "overflows" if np.isfinite(spectrum).all() else "finite and strictly increasing"
    with pytest.raises(ValidationError, match=f"spectrum .*{match}"):
        q_matrix(spectrum)


def test_gap_matrix_symmetrization_does_not_overflow():
    # (q + q.T) / 2 used to give inf entries above ~9e307
    for scale in (2e307, 1e307, 1.0, 3e-300):
        pts = np.array([0.0, 1.0, 3.0, 7.0]) * scale
        q = q_matrix(pts).values
        assert np.isfinite(q).all() and np.array_equal(q, q.T)
        assert q[0, 1] == pts[1] - pts[0] and q[2, 3] == pts[3] - pts[2]
        assert q[0, 3] == (pts[3] - pts[0]) - (pts[1] - pts[0])  # the diameter less the least gap
    big = np.full((4, 4), 1.7e308) - np.diag(np.full(4, 1.7e308))
    assert np.array_equal(QMatrix(big).values, big)


@pytest.mark.parametrize("seed", range(12))
def test_q_matrix_maximum_hit_at_most_three_times(seed):
    q = q_matrix(random_spectrum(4 + seed % 5, seed=170 + seed)).values
    top = q.max()
    hits = int(np.sum(np.triu(q, 1) >= top * (1 - 1e-9)))
    assert 1 <= hits <= 3


# ---------------------------------------------------------------------------
# metric reconstruction


def test_reconstruct_corrects_the_collapsed_diameter():
    d, spectrum = reconstruct_metric(q_matrix([0.0, 1.0, 3.0, 7.0]))
    assert d[0, 3] == pytest.approx(7.0)  # min(1+6, 3+4)
    assert d[1, 3] == pytest.approx(6.0)  # 2+4 through the third point
    np.testing.assert_allclose(spectrum, [0.0, 1.0, 3.0, 7.0], atol=1e-12)


def test_reconstruct_three_pair_case():
    d, spectrum = reconstruct_metric(q_matrix([0.0, 1.0, 5.0, 6.0]))
    assert d[0, 3] == pytest.approx(6.0)
    np.testing.assert_allclose(spectrum, [0.0, 1.0, 5.0, 6.0], atol=1e-12)


def test_reconstruct_arithmetic_progression():
    _, spectrum = reconstruct_metric(q_matrix([0.0, 1.0, 2.0, 3.0]))
    np.testing.assert_allclose(spectrum, [0.0, 1.0, 2.0, 3.0], atol=1e-12)


def test_reflection_gives_the_same_gap_matrix():
    pts = [0.0, 1.0, 3.0, 7.0]
    reflected = [7.0 - p for p in pts]
    np.testing.assert_allclose(q_matrix(pts).values, q_matrix(reflected).values, atol=1e-12)
    d1, s1 = reconstruct_metric(q_matrix(pts))
    d2, s2 = reconstruct_metric(q_matrix(reflected))
    np.testing.assert_allclose(np.sort(d1, axis=None), np.sort(d2, axis=None), atol=1e-12)
    np.testing.assert_allclose(s1, s2, atol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_reconstruction_round_trip(seed):
    spectrum = np.sort(random_spectrum(4 + seed % 5, seed=180 + seed))
    shifted = spectrum - spectrum[0]  # anchor at 0 like the output
    d, recovered = reconstruct_metric(q_matrix(spectrum))
    true_d = np.abs(shifted[:, None] - shifted[None, :])
    np.testing.assert_allclose(d, true_d, atol=1e-9)
    assert np.allclose(recovered, shifted, atol=1e-9) or np.allclose(
        recovered, shifted[-1] - shifted[::-1], atol=1e-9
    )


def test_reconstruct_rejects_flat_gap_matrix():
    # maximum attained six times: no spectrum generates this
    q = np.ones((4, 4)) - np.eye(4)
    with pytest.raises(ReconstructionError, match="attained 6 times"):
        reconstruct_metric(QMatrix(q))
    with pytest.raises(ReconstructionError, match="no positive entries"):
        reconstruct_metric(np.zeros((4, 4)))


def _with_entries(q, entries):
    """A copy of ``q`` with ``entries[(i, j)]`` set at ``(i, j)`` and ``(j, i)``."""
    q = np.array(q, dtype=np.float64)
    for (i, j), v in entries.items():
        q[i, j] = q[j, i] = v
    return q


def _gap_matrix(n, entries, rest=1.0):
    """Zero diagonal, ``rest`` off it, and ``entries``."""
    return _with_entries(rest * (np.ones((n, n)) - np.eye(n)), entries)


@pytest.mark.parametrize(
    "q",
    [
        _gap_matrix(4, {(0, 1): 3.0, (2, 3): 3.0}),  # two maximal pairs with no shared index
        _gap_matrix(5, {(0, 1): 3.0, (1, 2): 3.0, (0, 2): 3.0}),  # three in a triangle
        _gap_matrix(5, {(0, 1): 3.0, (0, 2): 3.0, (0, 3): 3.0}),  # three in a star
        _gap_matrix(4, {(0, 1): 3.0, (0, 2): 3.0}, rest=1.5),  # two sharing index 0
        _with_entries(q_matrix([0.0, 1.0, 3.0, 7.0]).values, {(1, 2): 2.0 + 1e-6}),
        # entry (1, 2) raised by 0.02% at scales 1e-6, 1e-3 and 1: the round trip is
        # compared within GAP_RTOL * max Q, which is relative below scale 1 too
        *(_with_entries(q_matrix(np.array([0.0, 1.0, 3.0, 7.0]) * s).values,
                        {(1, 2): 2.0 * s * 1.0002}) for s in (1e-6, 1e-3, 1.0)),
    ],
    ids=["disjoint-pairs", "triangle", "star", "shared-index", "perturbed-entry",
         "raised-entry-1e-6", "raised-entry-1e-3", "raised-entry-1"],
)
def test_reconstruct_refuses_what_the_round_trip_does_not_rebuild(q):
    # no anchor is chosen from the attainment pattern: the round trip back through
    # q_matrix refuses each of these, whichever row the positions are read from
    with pytest.raises(ReconstructionError, match="not consistent|degenerate"):
        reconstruct_metric(q)


def test_reconstruct_refuses_distances_that_do_not_embed_on_a_line():
    # three entries of the gap matrix of [0, 1, 3, 9] moved by ~1e-8: the positions
    # read off the repaired distances rebuild Q within GAP_RTOL * max Q (6.1e-9 of
    # 8e-9), but the repaired distances are 9.1e-9 off those positions' distances,
    # so the second round trip is the one that refuses
    q = _with_entries(q_matrix([0.0, 1.0, 3.0, 9.0]).values, {
        (0, 1): 0.9999999857497572, (0, 2): 2.999999988830583, (1, 2): 2.0000000091465164,
    })
    with pytest.raises(ReconstructionError, match="do not embed on a line"):
        reconstruct_metric(q)


@settings(deadline=None, max_examples=200)
@given(
    gaps=st.lists(st.integers(2, 9), min_size=2, max_size=10),
    ties=st.sampled_from([0, 1, 2, 3]),
    k=st.integers(-60, 60),
    shift=st.integers(-50, 50),
    perm_seed=st.integers(0, 10_000),
)
def test_reconstruction_with_one_two_or_three_maximal_pairs(gaps, ties, k, shift, perm_seed):
    # integer gaps with a least gap of 1 inside; an end gap set to 1 adds a maximal pair,
    # so `ties` picks 1, 2 or 3 pairs.  Points are integers times 2**k: every sum is exact
    steps = [1 if ties & 1 else gaps[0], 1, *gaps[1:-1], 1 if ties & 2 else gaps[-1]]
    pts = 2.0**k * (shift + np.concatenate(([0.0], np.cumsum(steps))))
    shuffled = np.random.default_rng(perm_seed).permutation(pts)
    q = q_matrix(shuffled)
    assert np.count_nonzero(np.triu(q.values) == q.values.max()) == 1 + (ties & 1) + (ties >> 1)
    d, spectrum = reconstruct_metric(q)
    assert spectrum[0] == 0.0 and not np.signbit(spectrum[0])
    assert (spectrum == pts - pts[0]).all() or (spectrum == pts[-1] - pts[::-1]).all()
    assert np.array_equal(d, np.abs(shuffled[:, None] - shuffled))


def test_reconstruction_reads_a_negative_zero_diagonal_as_zero():
    q = np.array(q_matrix([0.0, 1.0, 3.0, 7.0]).values)
    np.fill_diagonal(q, -0.0)
    _, spectrum = reconstruct_metric(q)
    assert spectrum.tolist() == [0.0, 1.0, 3.0, 7.0] and not np.signbit(spectrum).any()


def test_reconstruct_refuses_an_overflowing_two_hop_sum_without_a_warning():
    # the diameter pair's two-hop sums 1e308 + 1e308 pass the float64 maximum
    q = np.full((4, 4), 1e308)
    np.fill_diagonal(q, 0.0)
    q[0, 1] = q[1, 0] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError):
            reconstruct_metric(QMatrix(q))


def test_qmatrix_type_validation():
    with pytest.raises(ValidationError):
        QMatrix(np.arange(16.0).reshape(4, 4))  # not symmetric
    with pytest.raises(DegenerateInputError):
        QMatrix(np.zeros((3, 3)))
    good = q_matrix([0.0, 1.0, 3.0, 7.0]).values
    for bad, match in (
        (np.zeros((4, 5)), "square"),
        (_with_entries(good, {(0, 1): np.inf}), "finite"),
        (_with_entries(good, {(0, 1): -1.0}), "nonnegative"),
        (good + np.eye(4), "diagonal must be zero"),
    ):
        with pytest.raises(ValidationError, match=match):
            QMatrix(bad)


# ---------------------------------------------------------------------------
# automorphism verification


def test_scaling_map_passes():
    spec = AutomorphismSpec(2.0, UnitaryMap(np.eye(3)))
    report = verify_automorphism(spec, trials=20, dim=3, seed=1)
    assert report.passed
    assert report.trials == 20
    assert report.counterexample is None


def test_permutation_conjugation_passes():
    perm = np.eye(4)[:, [2, 0, 3, 1]]
    spec = AutomorphismSpec(1.0, UnitaryMap(perm))
    assert verify_automorphism(spec, trials=20, dim=4, seed=2).passed


def test_verify_automorphism_decomposes_each_observable_at_most_once(monkeypatch):
    # A = f(B) is built on B's kept decomposition, which decide_order reads again
    built = []
    init = linalg.SpectralDecomposition.__init__

    def spied(dec, observable):
        built.append(observable)
        init(dec, observable)

    monkeypatch.setattr(linalg.SpectralDecomposition, "__init__", spied)
    spec = AutomorphismSpec(2.0, random_unitary(3, seed=194))
    assert verify_automorphism(spec, trials=20, dim=3, seed=6).passed
    assert len(built) >= 40  # A, B and their images, each trial
    assert len({id(obs) for obs in built}) == len(built)


def test_the_counterexample_comes_from_the_last_trial_run():
    # the map is the identity on the first three trials' pairs (two calls per
    # trial), then sends everything to 0, which is below everything
    calls = []

    def late(obs):
        calls.append(obs)
        return obs if len(calls) <= 6 else HermitianObservable(np.zeros((3, 3)))

    report = verify_automorphism(late, trials=30, dim=3, seed=5)
    assert not report.passed and report.trials == 4
    # so the CLI's "trial", trials - 1, indexes the trial that drew the pair
    assert report.counterexample == (calls[6], calls[7])


def test_antiunitary_map_passes():
    u = random_unitary(3, seed=190, antiunitary=True)
    spec = AutomorphismSpec(1.5, u)
    assert verify_automorphism(spec, trials=20, dim=3, seed=3).passed


def test_quadratic_corruption_fails_with_counterexample():
    u = random_unitary(3, seed=191)

    def corrupted(obs):
        m = u.matrix @ obs.matrix @ u.matrix.conj().T
        return HermitianObservable(m + obs.matrix @ obs.matrix)

    report = verify_automorphism(corrupted, trials=30, dim=3, seed=4)
    assert not report.passed
    a, b = report.counterexample
    assert 1 <= report.trials <= 30
    # the recorded pair really breaks the equivalence
    pre = decide_order(a, b).holds
    post = decide_order(corrupted(a), corrupted(b)).holds
    swap_pre = decide_order(b, a).holds
    swap_post = decide_order(corrupted(b), corrupted(a)).holds
    assert pre != post or swap_pre != swap_post


def test_a_map_outside_theorem_2s_form_passes_in_dimension_2():
    # In dimension 2, A <= B exactly when A's traceless part is c times B's with
    # |c| <= 1, so the order compares only collinear traceless parts.  Writing
    # A = a0 I + ax sx + ay sy + az sz, negating ax when ax * az > 0 treats each
    # line +-a by one linear map, so it keeps the order both ways.
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.diag([1.0, -1.0])

    def phi(obs):
        m = obs.matrix
        ax, az = np.trace(m @ sx).real / 2.0, np.trace(m @ sz).real / 2.0
        return HermitianObservable(m - 2.0 * ax * sx if ax * az > 0 else m)

    for seed in range(5):
        assert verify_automorphism(phi, 200, 2, seed=seed).passed
    # A scaled (anti)unitary conjugation psi, even up to the class of each image,
    # phi(X) = +-psi(X) + cI, would put phi(sx + sz) + s phi(sx - sz) in the class
    # of phi(2 sx) for one of s = +-1; phi does so for neither.
    plus, minus = phi(HermitianObservable(sx + sz)), phi(HermitianObservable(sx - sz))
    for s in (1.0, -1.0):
        assert not class_equal(plus.matrix + s * minus.matrix, phi(HermitianObservable(2.0 * sx)))


def test_spec_validation():
    # an infinite scale used to pass, and its image failed only as non-finite entries
    for scale in (0.0, np.inf):
        with pytest.raises(ValidationError, match=f"must be positive and finite, got {scale}"):
            AutomorphismSpec(scale, UnitaryMap(np.eye(2)))
    # dim 3.0 and trials 2.5 used to raise a bare TypeError, and trials True to run one trial
    for dim in (1, 0, -1, 3.0):
        with pytest.raises(ValidationError, match="dimension must be at least 2"):
            verify_automorphism(AutomorphismSpec(1.0, UnitaryMap(np.eye(2))), trials=5, dim=dim)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        verify_automorphism(AutomorphismSpec(1.0, UnitaryMap(np.eye(2))), trials=5, dim=2, seed=-1)
    for trials in (0, -3, 2.5, True):
        with pytest.raises(ValidationError):
            verify_automorphism(AutomorphismSpec(1.0, UnitaryMap(np.eye(2))), trials=trials, dim=2)
    spec = AutomorphismSpec(1.0, UnitaryMap(np.eye(3)))
    assert verify_automorphism(spec, np.int64(2), np.int64(3), seed=np.int64(1)).passed


def test_spec_transform_shape():
    u = random_unitary(3, seed=192)
    spec = AutomorphismSpec(3.0, u)
    obs = random_hermitian(3, seed=193)
    expect = 3.0 * (u.matrix @ obs.matrix @ u.matrix.conj().T)
    np.testing.assert_allclose(spec(obs).matrix, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# two-point spectrum detection


def test_detector_spectral_mode():
    assert two_spectrum_detector(HermitianObservable.from_diag([0.0, 1.0]))
    assert not two_spectrum_detector(HermitianObservable(2.0 * np.eye(2)))
    assert not two_spectrum_detector(HermitianObservable.from_diag([0.0, 1.0, 3.0]))
    assert two_spectrum_detector(np.diag([0.0, 2.0, 2.0]))
    # gaps below tol count as distinct
    for gap in (1e-9, 1e-6):
        assert not two_spectrum_detector(HermitianObservable.from_diag([0.0, gap, 1.0]))


def test_detector_order_mode_matches():
    # the answer read from the order below A, as the docstring derives it: a chain for
    # at most two points; for three or more, whether the hinges at the second
    # eigenvalue are comparable
    for diag in ([0.0, 1.0], [2.0, 2.0], [0.0, 1.0, 3.0], [0.0, 2.0, 2.0],
                 [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 3.0, 4.0, 7.0, 7.0, 9.0]):
        a = HermitianObservable.from_diag(diag)
        dec = eigendecompose(a)
        if len(dec.ranks) <= 2:
            by_order = len(dec.ranks) == 2
        else:
            shifted = dec.eigenvalues - dec.eigenvalues[1]
            up = HermitianObservable(dec.assemble(np.maximum(shifted, 0.0)))
            down = HermitianObservable(dec.assemble(np.minimum(shifted, 0.0)))
            assert decide_order(up, a).holds and decide_order(down, a).holds
            by_order = decide_order(up, down).holds or decide_order(down, up).holds
        assert two_spectrum_detector(a) == by_order == (len(set(diag)) == 2)


@settings(deadline=None, max_examples=60)
@given(
    labels=st.lists(st.integers(0, 4), min_size=2, max_size=16),
    shift=st.floats(-3.0, 3.0),
    k=st.integers(-4, 4),
    seed=st.integers(0, 10_000),
)
# two equal subnormal eigenvalues, rotated 3 ulps of 0.0 apart: the grouping's relative
# threshold, ROUND_RTOL |A|_F, underflowed to 0 and split them
@example(labels=[0, 0], shift=2.2250738585e-313, k=0, seed=0)
def test_detector_counts_the_distinct_points_of_a_rotated_spectrum(labels, shift, k, seed):
    # at most five distinct points among up to 16 eigenvalues, so most spectra repeat
    # some, rotated out of the diagonal at scale 2**k: the repeats differ by rounding
    lams = 2.0**k * (np.array(labels, dtype=float) + shift)
    a = random_unitary(len(labels), seed=seed).apply(HermitianObservable.from_diag(lams))
    assert two_spectrum_detector(a) == (len(set(labels)) == 2)


def test_detector_decides_nothing_and_draws_no_random_numbers(monkeypatch):
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return decide_order(x, y)

    def no_sampling(*args, **kwargs):
        raise AssertionError("the detector draws no random numbers")

    monkeypatch.setattr(structure, "decide_order", counted)
    for name in ("as_rng", "random_lipschitz_values"):
        monkeypatch.setattr(structure, name, no_sampling)
    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    for diag in ([2.0, 2.0], [0.0, 1.0], [0.0, 1.0, 1.0, 0.0], [0.0, 1.0, 3.0],
                 [0.0, 1.0, 3.0, 4.0, 7.0, 7.0, 9.0]):
        answer = two_spectrum_detector(HermitianObservable.from_diag(diag))
        assert answer == (len(set(diag)) == 2)
    assert not calls


def test_spectral_structure_is_scale_covariant():
    # grouped at ROUND_RTOL * |A|_F, not at the default tol, which is absolute below
    # scale 1: the gap 1e-3 * 2^k merged from k = -17 on (a two-point spectrum, one
    # family), and the whole spectrum from k = -30 (a DegenerateInputError)
    a = np.diag([0.0, 1e-3, 1.0])
    at = {}
    for k in range(-40, 41):
        s = HermitianObservable(2.0**k * a)
        at[k] = eigendecompose(s).ranks, two_spectrum_detector(s), len(two_point_lower_set(s))
    assert at[0] == ((1, 1, 1), False, 3)
    assert set(at.values()) == {at[0]}


def test_hinge_images_are_incomparable():
    # both hinges are short maps of A, yet neither is below the other
    a = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    dec = eigendecompose(a)
    f = apply_function(dec, lambda x: max(x - 1.0, 0.0))
    g = apply_function(dec, lambda x: min(x - 1.0, 0.0))
    np.testing.assert_allclose(np.diag(f.matrix).real, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(np.diag(g.matrix).real, [-1.0, 0.0, 0.0])
    assert decide_order(f, a).holds
    assert decide_order(g, a).holds
    assert not decide_order(f, g).holds
    assert not decide_order(g, f).holds


# ---------------------------------------------------------------------------
# three-point class candidates


def _signature(obs):
    return sorted(
        (round(f.threshold, 9), int(round(np.trace(f.projector).real)))
        for f in two_point_lower_set(obs)
    )


def test_candidates_share_the_lower_set_signature():
    a = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    candidates = three_point_class_candidates(a)
    assert len(candidates) == 2
    assert class_equal(a, candidates[0])
    assert not class_equal(a, candidates[1])
    for c in candidates:
        assert _signature(c) == _signature(a)


def test_tied_gaps_add_a_third_candidate():
    a = HermitianObservable.from_diag([0.0, 1.0, 2.0])
    candidates = three_point_class_candidates(a)
    assert len(candidates) == 3
    for i, ci in enumerate(candidates):
        assert _signature(ci) == _signature(a)
        for cj in candidates[i + 1 :]:
            assert not class_equal(ci, cj)


def test_candidates_require_three_point_spectrum():
    with pytest.raises(DegenerateInputError):
        three_point_class_candidates(HermitianObservable.from_diag([0.0, 1.0]))
