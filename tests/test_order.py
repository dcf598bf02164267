"""The order decision procedure, its certificates, witnesses, and oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varorder import (
    DensityState,
    DimensionMismatchError,
    FunctionTable,
    HermitianObservable,
    InternalConsistencyError,
    OracleConfig,
    OrderVerdict,
    PreconditionError,
    PureState,
    ValidationError,
    apply_function,
    canonical_representative,
    check_state_order,
    class_equal,
    decide_order,
    eigendecompose,
    extract_function,
    variance,
    witness_search,
)
from varorder import linalg, order
from varorder.linalg import default_pair_tol, loewner_leq
from varorder.order import FAIL_MARGIN_TOL, _circle_coefficients, state_order_violation
from varorder.sampling import random_hermitian, random_lipschitz_values, random_unitary
from varorder.states import _variances, superposition_variance
from varorder.structure import joint_upper_bound, three_point_class_candidates

PAULI_X = HermitianObservable(np.array([[0.0, 1.0], [1.0, 0.0]]))
PAULI_Z = HermitianObservable(np.array([[1.0, 0.0], [0.0, -1.0]]))
E1, E2 = PureState.basis_vector(2, 0), PureState.basis_vector(2, 1)


def _lipschitz_image(B, seed):
    """A random 1-Lipschitz function of B, with the table used."""
    dec = eigendecompose(B)
    vals = random_lipschitz_values(dec.eigenvalues, seed=seed)
    table = FunctionTable.from_values(dec.eigenvalues, vals, lipschitz_bound=1.0)
    return apply_function(dec, table), table


def _margin(A, B, witness):
    return variance(A, witness) - variance(B, witness)


# ---------------------------------------------------------------------------
# decide_order on pinned instances


def test_holds_with_relabeling_certificate():
    a = HermitianObservable.from_diag([0.0, 1.0, 2.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    verdict = decide_order(a, b)
    assert verdict.holds
    assert verdict.witness is None
    assert verdict.certificate.points == ((0.0, 0.0), (1.0, 1.0), (3.0, 2.0))


def test_fails_on_stretched_gap():
    a = HermitianObservable.from_diag([0.0, 2.0, 3.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    verdict = decide_order(a, b)
    assert not verdict.holds
    assert verdict.certificate is None
    # equal superposition of the first two eigenvectors; margin 1 - 1/4
    np.testing.assert_allclose(
        np.abs(verdict.witness.vector), [2**-0.5, 2**-0.5, 0.0], atol=1e-12
    )
    assert verdict.margin == pytest.approx(0.75, abs=1e-12)
    assert _margin(a, b, verdict.witness) == pytest.approx(0.75, abs=1e-12)


def test_fails_on_noncommuting_pair():
    verdict = decide_order(PAULI_X, PAULI_Z)
    assert not verdict.holds
    # the witness is an eigenvector of Z, where Z has no spread but X does
    assert np.sort(np.abs(verdict.witness.vector)).tolist() == pytest.approx([0.0, 1.0])
    assert verdict.margin == pytest.approx(1.0, abs=1e-12)
    assert _margin(PAULI_X, PAULI_Z, verdict.witness) == pytest.approx(1.0, abs=1e-12)


def test_reflexive_with_identity_certificate():
    a = random_hermitian(4, seed=70)
    verdict = decide_order(a, a)
    assert verdict.holds
    np.testing.assert_allclose(
        verdict.certificate.locations, verdict.certificate.values, atol=1e-12
    )


def test_fails_when_block_is_not_scalar():
    # B is degenerate on span(e1, e2) but A splits that plane
    a = HermitianObservable.from_diag([0.0, 2.0, 0.0])
    b = HermitianObservable.from_diag([1.0, 1.0, 5.0])
    verdict = decide_order(a, b)
    assert not verdict.holds
    np.testing.assert_allclose(
        np.abs(verdict.witness.vector), [2**-0.5, 2**-0.5, 0.0], atol=1e-9
    )
    assert verdict.margin == pytest.approx(1.0, abs=1e-9)


def test_boundary_tight_gap_still_holds():
    # every nonadjacent slope exactly 1: classified as holding, not failing
    a = HermitianObservable.from_diag([0.0, -1.0, 1.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    assert decide_order(a, b).holds


def test_rotated_basis_instance():
    u = random_unitary(5, seed=71).matrix
    b = HermitianObservable(u @ np.diag([0.0, 1.0, 2.0, 4.0, 7.0]) @ u.conj().T)
    a, table = _lipschitz_image(b, seed=72)
    verdict = decide_order(a, b)
    assert verdict.holds
    np.testing.assert_allclose(verdict.certificate.values, table.values, atol=1e-8)


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_tol_bounds_the_commutator_norm_with_each_eigenspace(factor):
    # A couples B's two lowest eigenvectors and is otherwise B itself, so the
    # only residue is |PA - AP|_F for the lowest eigenspace P.
    u = random_unitary(4, seed=73).matrix
    b = HermitianObservable(u @ np.diag([0.0, 1.0, 2.0, 4.0]) @ u.conj().T)
    x = np.outer(u[:, 0], u[:, 1].conj())
    coupling = x + x.conj().T
    p = np.outer(u[:, 0], u[:, 0].conj())
    tol = 1e-3
    eps = factor * tol / np.linalg.norm(p @ coupling - coupling @ p)
    a = HermitianObservable(b.matrix + eps * coupling)
    verdict = decide_order(a, b, tol)
    assert verdict.holds == (factor < 1.0)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        decide_order(PAULI_X, HermitianObservable.identity(3))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
def test_nonfinite_or_negative_tol_is_rejected(tol):
    # the pair fails at the default tol; a NaN or infinite tol used to pass
    # every check and return a certificate
    a, b = random_hermitian(3, 1), random_hermitian(3, 2)
    assert not decide_order(a, b).holds
    for call in (decide_order, extract_function, class_equal, loewner_leq, joint_upper_bound):
        with pytest.raises(ValidationError):
            call(a, b, tol)
    with pytest.raises(ValidationError):
        superposition_variance(PAULI_Z, E1, E2, 1.0, 1.0, tol)
    with pytest.raises(ValidationError):
        three_point_class_candidates(HermitianObservable.from_diag([0.0, 1.0, 3.0]), tol)


def test_zero_tol_is_valid():
    assert decide_order(PAULI_Z, PAULI_Z, 0.0).holds
    assert decide_order(PAULI_Z, PAULI_Z, 0).holds
    assert not decide_order(2.0 * PAULI_Z.matrix, PAULI_Z, 0.0).holds


# ---------------------------------------------------------------------------
# sub-tol eigenvalue clusters: B's eigenspaces are grouped at rounding level


def _in_haar_basis(seed, *spectra) -> list[HermitianObservable]:
    """``U diag(s) U*`` for each spectrum ``s``, with one Haar unitary ``U``."""
    u = random_unitary(len(spectra[0]), seed=seed).matrix
    return [HermitianObservable((u * np.asarray(s)) @ u.conj().T) for s in spectra]


def _certificate_rebuild_error(a, b, table) -> float:
    """How far ``sum_k f(w_k) v_k v_k*`` over ``numpy.linalg.eigh(B)`` is from ``A``,
    with each eigenvalue matched to its nearest table point within ``n * tol``."""
    w, v = np.linalg.eigh(b.matrix)
    xs, ys = table.locations, table.values
    idx = np.abs(w[:, None] - xs).argmin(axis=1)
    assert np.abs(xs[idx] - w).max() <= b.dim * default_pair_tol(a, b)
    return float(np.linalg.norm((v * ys[idx]) @ v.conj().T - a.matrix))


@pytest.mark.parametrize("spacing", [0.5, 0.9])
@pytest.mark.parametrize("n", [8, 32, 64])
def test_a_sub_tol_cluster_is_decided_on_its_eigenvectors(n, spacing):
    # n - 1 eigenvalues a fraction of tol = 1e-8 apart, and one at 1: chaining
    # gaps <= tol made the cluster one group on which even A = B is not
    # scalar, and no witness could clear the floor (InternalConsistencyError)
    (b,) = _in_haar_basis(n, np.append(np.arange(n - 1) * spacing * 1e-8, 1.0))
    gap, tol = spacing * 1e-8, default_pair_tol(b)
    assert gap < tol < (n - 2) * gap  # each gap below tol, the chain wider than it
    for factor in (1.0, -1.0, 0.5):
        a = HermitianObservable(factor * b.matrix)
        verdict = decide_order(a, b)
        assert verdict.holds
        assert _certificate_rebuild_error(a, b, verdict.certificate) <= default_pair_tol(a, b)
    stretched = HermitianObservable(1.5 * b.matrix)
    verdict = decide_order(stretched, b)
    assert not verdict.holds
    assert _margin(stretched, b, verdict.witness) > FAIL_MARGIN_TOL


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(2, 64),
    clusters=st.integers(1, 4),
    spacing=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**31 - 1),
)
def test_lipschitz_images_of_a_clustered_b_hold_and_rebuild(n, clusters, spacing, seed):
    # clusters of eigenvalues spacing * 1e-8 apart (at most the default tol;
    # exact repeats at 0), around centres at least 0.05 apart, and A = f(B)
    # with every slope of f in [-1, 1]
    rng = np.random.default_rng(seed)
    sizes = np.bincount(rng.integers(0, clusters, n), minlength=clusters)
    centres = np.cumsum(rng.uniform(0.05, 1.0, clusters)) - 1.0
    lams = np.concatenate([c + np.arange(k) * spacing * 1e-8 for c, k in zip(centres, sizes)])
    f = np.concatenate(([rng.uniform(-1.0, 1.0)], rng.uniform(-1.0, 1.0, n - 1) * np.diff(lams)))
    b, a = _in_haar_basis(rng, lams, f.cumsum())
    verdict = decide_order(a, b)
    assert verdict.holds
    # bench/check.py's bound: the residues of at most n eigenspaces, tol each
    tol = default_pair_tol(a, b)
    assert _certificate_rebuild_error(a, b, verdict.certificate) <= 2.0 * math.sqrt(n) * tol


# ---------------------------------------------------------------------------
# verdict soundness on random inputs


@pytest.mark.parametrize("seed", range(8))
def test_holds_certificate_reconstructs_a(seed):
    b = random_hermitian(6, seed=80 + seed, scale=2.0)
    a, _ = _lipschitz_image(b, seed=90 + seed)
    verdict = decide_order(a, b)
    assert verdict.holds
    rebuilt = apply_function(eigendecompose(b), verdict.certificate)
    err = float(np.linalg.norm(rebuilt.matrix - a.matrix))
    assert err <= 1e-7 * max(1.0, a.frobenius_norm)
    assert verdict.certificate.lipschitz_constant() <= 1.0 + 1e-8


@pytest.mark.parametrize("seed", range(8))
def test_fail_margins_recompute(seed):
    a = random_hermitian(5, seed=200 + seed)
    b = random_hermitian(5, seed=300 + seed)
    verdict = decide_order(a, b)
    assert not verdict.holds  # independent random pairs are incomparable
    recomputed = _margin(a, b, verdict.witness)
    assert recomputed >= verdict.margin - 1e-12
    assert recomputed > 1e-9


def test_decisions_at_n_128():
    b = random_hermitian(128, seed=128, scale=2.0)
    a, _ = _lipschitz_image(b, seed=129)
    verdict = decide_order(a, b)
    assert verdict.holds
    rebuilt = apply_function(eigendecompose(b), verdict.certificate)
    assert float(np.linalg.norm(rebuilt.matrix - a.matrix)) <= default_pair_tol(a, b)
    c = random_hermitian(128, seed=130, scale=2.0)
    verdict = decide_order(c, b)
    assert not verdict.holds
    assert _margin(c, b, verdict.witness) > FAIL_MARGIN_TOL


PARTNER_FREE = ("labels", "same_group", "rank_floats")


def _verdict_bytes(verdict) -> tuple:
    payload = (
        tuple((x.hex(), y.hex()) for x, y in verdict.certificate.points)
        if verdict.holds
        else verdict.witness.vector.tobytes()
    )
    return verdict.holds, verdict.margin.hex(), payload


def test_a_cached_b_builds_its_partner_free_arrays_once(monkeypatch):
    b0 = random_hermitian(5, seed=41, scale=2.0)
    a = _lipschitz_image(b0, seed=42)[0]
    b = HermitianObservable(b0.matrix)  # nothing cached yet
    # holding and failing partners whose norms span 1e-1..1e3, so the
    # default tol differs from call to call while B's grouping does not
    partners = [
        a,
        HermitianObservable(a.matrix + 1e3 * np.eye(5)),
        HermitianObservable(-0.5 * a.matrix),
        random_hermitian(5, seed=43, scale=0.05),
        random_hermitian(5, seed=44, scale=300.0),
    ]
    built = []
    post_init = linalg.SpectralDecomposition.__post_init__

    def counted(dec):
        built.append(dec)
        post_init(dec)

    monkeypatch.setattr(linalg.SpectralDecomposition, "__post_init__", counted)
    verdicts = [decide_order(p, b) for p in partners]
    (dec,) = built
    cached = {name: vars(dec)[name] for name in PARTNER_FREE}
    verdicts += [decide_order(p, b) for p in partners]
    assert [v.holds for v in verdicts] == [True, True, True, False, False] * 2
    assert built == [dec]
    assert all(vars(dec)[name] is arr for name, arr in cached.items())
    assert not any(arr.flags.writeable for arr in cached.values())
    # the same bytes as deciding each partner against a fresh, uncached B
    fresh = [decide_order(p, HermitianObservable(b.matrix.copy())) for p in partners] * 2
    assert [_verdict_bytes(v) for v in verdicts] == [_verdict_bytes(v) for v in fresh]


def _sweep_b(rng) -> HermitianObservable:
    """A random ``B`` at n = 2..8 and scale 1e-6..1e6: distinct, repeated or scalar spectrum."""
    n, scale = int(rng.integers(2, 9)), 10.0 ** rng.uniform(-6.0, 6.0)
    kind = rng.integers(3)
    if kind == 0:
        lams = rng.standard_normal(n)
    elif kind == 1:
        lams = rng.integers(-2, 3, n).astype(float)
    else:
        lams = np.full(n, rng.standard_normal())
    (b,) = _in_haar_basis(int(rng.integers(1 << 30)), scale * lams)
    return b


@pytest.mark.parametrize("seed", range(4))
def test_tol_zero_decides_the_rounding_level_pairs(seed):
    # tol = 0 used to make every rounding residue of V* A V a failing
    # eigenspace that no witness could clear: decide_order(B, B, tol=0)
    # raised InternalConsistencyError for every B.  The floor
    # ROUND_RTOL * max(|A|_F, |B|_F) holds each exact pair below.
    rng = np.random.default_rng(seed)
    for _ in range(50):
        b = _sweep_b(rng)
        s = float(np.abs(b.eigenpairs[0]).max())
        w, v = b.eigenpairs
        partners = [
            b.matrix,
            -b.matrix,
            0.5 * b.matrix,
            b.matrix + 1e6 * s * np.eye(b.dim),
            (v * (s * np.sin(w / s))) @ v.conj().T,
            np.zeros((b.dim, b.dim)),
        ]
        for a in partners:
            assert decide_order(a, b, tol=0.0).holds
        if s > 1e-2 and np.ptp(w) > 1e-8 * s:
            verdict = decide_order(1.5 * b.matrix, b, tol=0.0)
            assert not verdict.holds
            assert _margin(HermitianObservable(1.5 * b.matrix), b, verdict.witness) > FAIL_MARGIN_TOL


def test_the_decision_tol_is_floored_at_rounding_level():
    a, b = HermitianObservable.from_diag([0.0, 3e6]), HermitianObservable.from_diag([0.0, 4e6])
    assert order.decision_tol(0.0, a, b) == 1e-12 * 4e6
    assert order.decision_tol(1.0, a, b) == 1.0
    # the default is always above the floor
    assert order.decision_tol(None, a, b) == default_pair_tol(a, b)


@pytest.mark.parametrize("entry", [1e200, 1e308])
def test_an_overflowing_norm_is_refused_by_every_comparison(entry):
    # each used to answer: decide_order held with the certificate
    # ((0, 1e200), (1, -1e200), (2, 0)) at the default tol, now inf
    big, small = np.diag([entry, -entry, 0.0]), np.diag([0.0, 1.0, 2.0])
    calls = [
        lambda: decide_order(big, small),
        lambda: class_equal(big, big / 2),
        lambda: check_state_order(big, small, trials=4),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="matrix too large"):
            call()


# ---------------------------------------------------------------------------
# witness_search


def test_search_finds_the_scaling_gap():
    b = HermitianObservable.from_diag([0.0, 1.0])
    a = HermitianObservable.from_diag([0.0, 2.0])
    state, best = witness_search(a, b)
    # g(x) = 3 var_x(B) peaks at the equal superposition with value 3/4
    assert best == pytest.approx(0.75, abs=1e-8)
    np.testing.assert_allclose(np.abs(state.vector), [2**-0.5, 2**-0.5], atol=1e-6)


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1.0, 1e3])
def test_search_finds_the_stretched_gap_at_every_scale(scale):
    # the gradient stop is in variance units: an absolute stop of CHECK_TOL
    # retired every restart before its first step at scale 1e-6 (0.545 s^2)
    a, b = np.diag([0.0, 2.0, 3.0]) * scale, np.diag([0.0, 1.0, 3.0]) * scale
    _, best = witness_search(a, b)
    assert best == pytest.approx(0.75 * scale**2, rel=1e-9, abs=0.0)


def test_search_stays_below_tolerance_when_order_holds():
    b = random_hermitian(5, seed=73)
    a, _ = _lipschitz_image(b, seed=74)
    _, best = witness_search(a, b)
    assert best <= 1e-6


def test_search_beats_the_known_witness():
    a = HermitianObservable.from_diag([0.0, 2.0, 3.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    _, best = witness_search(a, b)
    assert best >= 0.75 - 1e-9


def test_search_is_deterministic():
    a = random_hermitian(4, seed=75)
    b = random_hermitian(4, seed=76)
    cfg = OracleConfig(restarts=8, steps=200, seed=5)
    s1, v1 = witness_search(a, b, cfg)
    s2, v2 = witness_search(a, b, cfg)
    assert v1 == v2
    np.testing.assert_array_equal(s1.vector, s2.vector)


def test_oracle_rejects_empty_or_unseeded_searches():
    # restarts=0 used to die in argmax; a negative seed in numpy's seeding
    for bad in ({"restarts": 0}, {"restarts": -1}, {"steps": -1}):
        with pytest.raises(ValidationError, match=r"restarts >= 1 and steps >= 0"):
            OracleConfig(**bad)
    a = HermitianObservable.from_diag([0.0, 1.0])
    with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
        witness_search(a, a, OracleConfig(seed=-1))
    _, best = witness_search(a, a, OracleConfig(restarts=1, steps=0))
    assert best == pytest.approx(0.0, abs=1e-12)


def test_circle_coefficients_reproduce_the_gap():
    # along cos(t) x + sin(t) d the gap is a trigonometric polynomial in 2t whose
    # five coefficients come from inner products at x and d alone
    rng = np.random.default_rng(300)
    for n, scale in ((2, 1e-3), (3, 1.0), (5, 1e3), (8, 1.0)):
        a = random_hermitian(n, seed=310 + n, scale=scale).matrix
        b = random_hermitian(n, seed=320 + n, scale=scale).matrix
        x = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        x /= np.linalg.norm(x, axis=1)[:, None]
        d = rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n))
        d -= np.einsum("ki,ki->k", x.conj(), d)[:, None] * x
        d /= np.linalg.norm(d, axis=1)[:, None]
        ops = np.stack([a, b]).transpose(0, 2, 1)
        c = _circle_coefficients(x, d, x @ ops, d @ ops)
        norm2 = np.linalg.norm(a) ** 2 + np.linalg.norm(b) ** 2
        for t in rng.uniform(0.0, np.pi, 5):
            y = np.cos(t) * x + np.sin(t) * d
            want = _variances(a, y) - _variances(b, y)
            phi = 2.0 * t
            got = c.T @ [1.0, np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)]
            assert np.abs(got - want).max() <= 1e-12 * norm2


@pytest.mark.parametrize("holding", [False, True], ids=["independent", "holding"])
def test_more_steps_never_lower_the_best(holding):
    # every restart only ever moves to a strictly better point, and a longer
    # search repeats a shorter one's steps first
    b = random_hermitian(6, seed=330, scale=3.0)
    a = _lipschitz_image(b, seed=331)[0] if holding else random_hermitian(6, seed=332)
    bests = [witness_search(a, b, OracleConfig(restarts=4, steps=s, seed=9))[1] for s in (0, 1, 5, 50)]
    assert bests == sorted(bests)
    assert bests[-1] > bests[0]


def test_search_calls_no_eigensolver_and_no_decision(monkeypatch):
    # the oracle is the independent check of decide_order: it must not lean on
    # the eigensolver or on the decision procedure
    def refuse(*args, **kwargs):
        raise AssertionError("witness_search must not call this")

    for module, name in [
        (linalg, "_eigh"),
        (linalg, "eigendecompose"),
        (order, "_eigh"),
        (order, "eigendecompose"),
        (order, "decide_order"),
        (np.linalg, "eigh"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "eig"),
        (np.linalg, "eigvals"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    a = np.diag([0.0, 2.0, 3.0])  # fresh arrays: no observable with cached eigenpairs
    b = np.diag([0.0, 1.0, 3.0])
    _, best = witness_search(a, b, OracleConfig(restarts=4, steps=50, seed=0))
    assert best >= 0.75 - 1e-9


# ---------------------------------------------------------------------------
# extract_function


def test_extract_examples():
    a = HermitianObservable.from_diag([0.0, 1.0, 2.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    assert extract_function(a, b).points == ((0.0, 0.0), (1.0, 1.0), (3.0, 2.0))

    t = extract_function(a, a)
    np.testing.assert_allclose(t.locations, t.values)

    const = extract_function(HermitianObservable(2.0 * np.eye(3)), b)
    np.testing.assert_allclose(const.values, [2.0, 2.0, 2.0])
    assert const.lipschitz_constant() == 0.0


def test_extract_rejects_with_witness():
    a = HermitianObservable.from_diag([0.0, 2.0, 3.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    with pytest.raises(PreconditionError) as err:
        extract_function(a, b)
    w = err.value.witness
    assert isinstance(w, PureState)
    assert _margin(a, b, w) > 1e-9


# ---------------------------------------------------------------------------
# verdict construction invariants


def test_verdict_requires_exactly_one_payload():
    table = FunctionTable(((0.0, 0.0),))
    w = PureState.basis_vector(2, 0)
    with pytest.raises(InternalConsistencyError):
        OrderVerdict(holds=True, certificate=None, witness=None, margin=0.0)
    with pytest.raises(InternalConsistencyError):
        OrderVerdict(holds=False, certificate=table, witness=w, margin=1.0)
    with pytest.raises(InternalConsistencyError):
        OrderVerdict(holds=False, certificate=None, witness=w, margin=1e-12)


# ---------------------------------------------------------------------------
# order laws


def test_preorder_reflexivity():
    for seed in range(5):
        a = random_hermitian(5, seed=400 + seed)
        assert decide_order(a, a).holds


def test_preorder_transitivity_on_chains():
    for seed in range(5):
        c = random_hermitian(6, seed=500 + seed, scale=2.0)
        b, _ = _lipschitz_image(c, seed=600 + seed)
        a, _ = _lipschitz_image(b, seed=700 + seed)
        assert decide_order(b, c).holds
        assert decide_order(a, b).holds
        assert decide_order(a, c).holds


def test_class_members_are_mutually_below():
    rng = np.random.default_rng(77)
    a = random_hermitian(4, seed=78)
    eye = np.eye(4)
    for sign in (1.0, -1.0):
        c = float(rng.uniform(-3.0, 3.0))
        other = HermitianObservable(sign * a.matrix + c * eye)
        assert decide_order(a, other).holds
        assert decide_order(other, a).holds


# ---------------------------------------------------------------------------
# class_equal and canonical_representative


def test_class_equal_examples():
    a = random_hermitian(4, seed=79)
    shifted = HermitianObservable(a.matrix + 3.0 * np.eye(4))
    negated = HermitianObservable(-a.matrix)
    assert class_equal(a, shifted)
    assert class_equal(a, negated)
    assert not class_equal(
        HermitianObservable.from_diag([0.0, 1.0]), HermitianObservable.from_diag([0.0, 2.0])
    )


def test_canonical_examples():
    got = canonical_representative(HermitianObservable.from_diag([1.0, 2.0, 4.0]))
    np.testing.assert_allclose(got.matrix, np.diag([0.0, 1.0, 3.0]), atol=1e-12)

    scalar = canonical_representative(HermitianObservable(4.0 * np.eye(2)))
    np.testing.assert_allclose(scalar.matrix, np.zeros((2, 2)), atol=1e-12)

    # symmetric spectrum: the tie rule keeps the unreflected member
    tie = canonical_representative(HermitianObservable.from_diag([0.0, 1.0]))
    np.testing.assert_allclose(tie.matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_canonical_is_constant_on_classes():
    rng = np.random.default_rng(81)
    a = random_hermitian(5, seed=82)
    base = canonical_representative(a).matrix
    eye = np.eye(5)
    for _ in range(10):
        sign = 1.0 if rng.random() < 0.5 else -1.0
        c = float(rng.uniform(-5.0, 5.0))
        member = HermitianObservable(sign * a.matrix + c * eye)
        np.testing.assert_allclose(canonical_representative(member).matrix, base, atol=1e-9)


def test_canonical_is_idempotent_and_class_equal():
    a = random_hermitian(4, seed=83)
    rep = canonical_representative(a)
    assert class_equal(a, rep)
    np.testing.assert_allclose(canonical_representative(rep).matrix, rep.matrix, atol=1e-12)


# ---------------------------------------------------------------------------
# sampled state-level order


def test_state_order_on_holding_pair():
    a = HermitianObservable.from_diag([0.0, 1.0, 2.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    assert check_state_order(a, b, trials=1000, seed=3)


def test_state_order_finds_a_violation():
    a = HermitianObservable.from_diag([0.0, 2.0, 3.0])
    b = HermitianObservable.from_diag([0.0, 1.0, 3.0])
    assert not check_state_order(a, b, trials=1000, seed=3)
    rho = state_order_violation(a, b, trials=1000, seed=3)
    assert isinstance(rho, DensityState)
    assert variance(a, rho) > variance(b, rho) + 1e-9


def test_state_order_trivial_for_scalars():
    scalar = HermitianObservable(1.5 * np.eye(4))
    b = random_hermitian(4, seed=84)
    assert check_state_order(scalar, b, trials=300, seed=4)
    assert state_order_violation(scalar, b, trials=300, seed=4) is None


def test_state_order_rejects_nonpositive_trials():
    a = HermitianObservable.from_diag([0.0, 2.0, 3.0])
    for trials in (0, -3):
        with pytest.raises(ValidationError):
            state_order_violation(a, a, trials=trials)
        with pytest.raises(ValidationError):
            check_state_order(a, a, trials=trials)


# ---------------------------------------------------------------------------
# memory: decisions work in B's eigenbasis, with no per-eigenspace projectors


def test_decide_order_memory_stays_below_one_projector_per_eigenspace():
    # A fresh simple-spectrum pair at n = 64, decided in a process whose code
    # paths are already warm, so the peak is the eigensolve's and the
    # decision's own.  One dense projector per eigenspace would take
    # 64 * 64 KB = 4 MB; the eigenbasis route needs a few n x n arrays.
    n = 64
    decide_order(*(HermitianObservable.from_diag(np.arange(4.0)),) * 2)
    b = HermitianObservable.from_diag(np.arange(n, dtype=float))
    a = HermitianObservable.from_diag(np.sin(np.arange(n, dtype=float)))
    tracemalloc.start()
    try:
        verdict = decide_order(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.holds
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# decision vs oracle at module scale (full sweep in the acceptance suite)


def test_decision_agrees_with_oracle():
    cfg = OracleConfig(restarts=12, steps=200, seed=0)
    for seed in range(10):
        n = 3 + seed % 4
        b = random_hermitian(n, seed=900 + seed, scale=2.0)
        if seed % 2 == 0:
            a, _ = _lipschitz_image(b, seed=950 + seed)
        else:
            a = random_hermitian(n, seed=990 + seed, scale=2.0)
        verdict = decide_order(a, b)
        _, best = witness_search(a, b, cfg)
        assert verdict.holds == (best <= 1e-6)
