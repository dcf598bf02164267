"""Joint upper bounds, two-point lower sets, gap matrices, automorphisms."""

import tracemalloc

import numpy as np
import pytest

from varorder import (
    AutomorphismSpec,
    DegenerateInputError,
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
    decide_order,
    eigendecompose,
    hinge_tables,
    joint_upper_bound,
    q_matrix,
    reconstruct_metric,
    three_point_class_candidates,
    two_point_lower_set,
    two_spectrum_detector,
    verify_automorphism,
)
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


def test_block_shift_candidate_never_tops_both_for_noncommuting():
    for seed in range(10):
        a = random_hermitian(4, seed=130 + seed)
        b = random_hermitian(4, seed=140 + seed)
        for c in (block_shift_upper_bound(a, b), block_shift_upper_bound(b, a)):
            assert not (decide_order(a, c).holds and decide_order(b, c).holds)


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
    for indices in ((-1,), (3,), (0, 7)):
        with pytest.raises(ValidationError, match="range\\(3\\)"):
            TwoPointFamily(dec, indices, 1.0)


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
    with pytest.raises(ReconstructionError):
        reconstruct_metric(QMatrix(q))


def test_qmatrix_type_validation():
    with pytest.raises(ValidationError):
        QMatrix(np.arange(16.0).reshape(4, 4))  # not symmetric
    with pytest.raises(DegenerateInputError):
        QMatrix(np.zeros((3, 3)))


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


def test_spec_validation():
    with pytest.raises(ValidationError):
        AutomorphismSpec(0.0, UnitaryMap(np.eye(2)))
    for dim in (1, 0, -1):
        with pytest.raises(ValidationError, match="dimension must be at least 2"):
            verify_automorphism(AutomorphismSpec(1.0, UnitaryMap(np.eye(2))), trials=5, dim=dim)
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        verify_automorphism(AutomorphismSpec(1.0, UnitaryMap(np.eye(2))), trials=5, dim=2, seed=-1)
    for trials in (0, -3):
        with pytest.raises(ValidationError):
            verify_automorphism(AutomorphismSpec(1.0, UnitaryMap(np.eye(2))), trials=trials, dim=2)


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


def test_detector_order_mode_matches():
    for diag in ([0.0, 1.0], [2.0, 2.0], [0.0, 1.0, 3.0], [0.0, 2.0, 2.0]):
        a = HermitianObservable.from_diag(diag)
        assert two_spectrum_detector(a, method="order") == two_spectrum_detector(a)
    with pytest.raises(ValidationError, match="unknown method 'exact'"):
        two_spectrum_detector(a, method="exact")


def test_hinge_tables_values():
    lams = np.array([0.0, 1.0, 3.0])
    up, down = hinge_tables(lams, 1.0)
    np.testing.assert_allclose(up.values, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(down.values, [-1.0, 0.0, 0.0])
    assert up.lipschitz_constant() <= 1.0
    assert down.lipschitz_constant() <= 1.0


def test_hinge_images_are_incomparable():
    # both hinges are short maps of A, yet neither is below the other
    a = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    dec = eigendecompose(a)
    up, down = hinge_tables(dec.eigenvalues, 1.0)
    f = apply_function(dec, up)
    g = apply_function(dec, down)
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
