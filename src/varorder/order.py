"""Deciding the variance order between two Hermitian observables.

``A`` is below ``B`` when every state's variance for ``A`` is at most its
variance for ``B``; equivalently ``A = f(B)`` for a 1-Lipschitz ``f`` on the
spectrum of ``B``.  The decision procedure either produces that function as a
certificate or a pure state whose variances witness the failure, never both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    PreconditionError,
    ValidationError,
)
from .functions import FunctionTable, _lipschitz_excess
from .linalg import (
    HermitianObservable,
    _as_observable,
    _as_pair,
    _eigh,
    default_pair_tol,
    eigendecompose,
    resolve_tol,
)
from .sampling import as_rng, complex_gaussian
from .states import DensityState, PureState, _variances
from .tolerances import CHECK_TOL, DUST, FAIL_MARGIN_TOL


@dataclass(frozen=True, eq=False)
class OrderVerdict:
    """Outcome of a variance-order decision.

    Exactly one of ``certificate`` (the 1-Lipschitz table with ``A = f(B)``)
    and ``witness`` (a pure state with strictly larger variance for ``A``)
    is present.  For failing verdicts ``margin`` is the recomputed variance
    gap at the witness and must clear ``FAIL_MARGIN_TOL``.
    """

    holds: bool
    certificate: FunctionTable | None
    witness: PureState | None
    margin: float

    def __post_init__(self):
        if self.holds:
            if self.certificate is None or self.witness is not None:
                raise InternalConsistencyError("holding verdict must carry exactly a certificate")
        else:
            if self.witness is None or self.certificate is not None:
                raise InternalConsistencyError("failing verdict must carry exactly a witness")
            if not self.margin > FAIL_MARGIN_TOL:
                raise InternalConsistencyError(
                    f"witness margin {self.margin!r} does not clear {FAIL_MARGIN_TOL:.0e}; "
                    "refusing to emit an unverifiable counterexample"
                )


def _margin_at(a: HermitianObservable, b: HermitianObservable, vec: np.ndarray):
    """The state ``w`` along ``vec`` and the gap ``variance(a, w) - variance(b, w)``."""
    w = PureState.normalized(vec)
    x = w.vector[None]
    var_a, var_b = (max(0.0, float(_variances(m, x)[0])) for m in (a.matrix, b.matrix))
    return w, var_a - var_b


def decide_order(A, B, tol: float | None = None) -> OrderVerdict:
    """Decide whether ``A`` is below ``B`` in the variance order.

    The procedure eigendecomposes ``B = V diag(lam) V*`` and works on
    ``A' = V* A V``.  On each eigenspace ``g``, with orthogonal projection
    ``P``, it checks that ``A`` commutes with ``P`` (the residue
    ``sqrt(2) |A'[g, not g]|_F`` equals ``|PA - AP|_F``) and is scalar there
    (with scalar value the mean of the diagonal of ``A'[g, g]``), and
    finally that the scalar values are 1-Lipschitz across eigenvalue gaps.
    A single tolerance ``tol`` (default
    ``PAIR_TOL_SCALE * max(1, |A|_F, |B|_F)``; a given one must be finite and
    >= 0) controls the eigenvalue grouping, the residue checks, and the
    Lipschitz slack.  ``B``'s eigenpairs are solved once per observable and
    its grouped decompositions cached per grouping, however many partners it
    is decided against.

    On failure the witness is the eigenbasis candidate of the offending
    eigenspace with the largest variance for ``A`` (ties to the lowest
    index), or an equal superposition across the offending pair; its margin
    is recomputed from scratch and must exceed ``FAIL_MARGIN_TOL``.
    """
    a, b = _as_pair(A, B)
    tol = resolve_tol(tol, a, b)
    dec = eigendecompose(b, group_tol=tol)
    v, lams, labels = dec.vectors, dec.eigenvalues, dec.labels

    # Per-eigenspace checks: commutation and scalarity of A on each group.
    ap = v.conj().T @ a.matrix @ v
    diag = ap.diagonal().real
    scalars = np.bincount(labels, weights=diag) / dec.ranks
    dev = np.abs(ap - np.diag(scalars[labels])) ** 2
    same = labels[:, None] == labels[None, :]
    comm = np.sqrt(2.0 * np.bincount(labels, weights=np.where(same, 0.0, dev).sum(axis=0)))
    scal = np.sqrt(np.bincount(labels, weights=np.where(same, dev, 0.0).sum(axis=0)))
    bad = ((comm > tol) | (scal > tol)).nonzero()[0]
    if bad.size:
        j = int(bad[0])
        cols = labels == j
        defects = (np.abs(ap[:, cols]) ** 2).sum(axis=0) - diag[cols] ** 2
        w, margin = _margin_at(a, b, v[:, cols][:, int(np.argmax(defects))])
        if margin > FAIL_MARGIN_TOL:
            return OrderVerdict(False, None, w, margin)
        # every basis candidate is itself an eigenvector of A; split the
        # block across its extreme eigenvectors instead
        _, wv = _eigh(ap[np.ix_(cols, cols)])
        w2, margin2 = _margin_at(a, b, v[:, cols] @ (wv[:, 0] + wv[:, -1]))
        if margin2 > FAIL_MARGIN_TOL:
            return OrderVerdict(False, None, w2, margin2)
        raise InternalConsistencyError(
            f"eigenspace residues (commutation {comm[j]:.3e}, scalar {scal[j]:.3e}) exceed "
            f"tol {tol:.3e} but no witness clears the margin floor"
        )

    # Pairwise Lipschitz check on the induced eigenvalue table; the worst
    # excess wins, ties to the first pair in (j, k) order.
    excess = _lipschitz_excess(lams, scalars, 1.0) - tol
    worst = int(excess.argmax())
    if excess.flat[worst] > 0:
        j, k = divmod(worst, len(lams))
        first = np.searchsorted(labels, [j, k])
        w, margin = _margin_at(a, b, v[:, first[0]] + v[:, first[1]])
        if margin > FAIL_MARGIN_TOL:
            return OrderVerdict(False, None, w, margin)
        raise InternalConsistencyError(
            f"Lipschitz excess {excess.flat[worst]:.3e} at eigenvalues ({lams[j]!r}, {lams[k]!r}) "
            "but the superposition witness does not clear the margin floor"
        )

    table = FunctionTable.from_values(lams, scalars)
    return OrderVerdict(holds=True, certificate=table, witness=None, margin=0.0)


@dataclass(frozen=True)
class OracleConfig:
    """Settings for the projected-gradient witness oracle."""

    restarts: int = 32
    steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.steps < 0:
            raise ValidationError(f"oracle needs restarts >= 1 and steps >= 0, got {self}")


def witness_search(A, B, cfg: OracleConfig | None = None) -> tuple[PureState, float]:
    """Maximize ``var_x(A) - var_x(B)`` over the unit sphere.

    Multi-restart projected gradient ascent with a line search that starts
    each step at length 1 and halves it; all restarts advance in lockstep as
    one batch.  Returns the best state and its value; ties across restarts
    resolve to the lowest restart index.  Deterministic for a fixed ``cfg.seed``.
    """
    a, b = _as_pair(A, B)
    cfg = cfg or OracleConfig()
    rng = as_rng(cfg.seed)
    am, bm = a.matrix, b.matrix
    a2, b2 = am @ am, bm @ bm
    n, r = a.dim, cfg.restarts

    def value(x: np.ndarray) -> np.ndarray:
        return _variances(am, x) - _variances(bm, x)

    x = complex_gaussian(rng, r, n)
    x /= np.linalg.norm(x, axis=1)[:, None]
    val = value(x)
    active = np.ones(r, dtype=bool)
    for _ in range(cfg.steps):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        xl = x[live]
        xa, xb = xl @ am.T, xl @ bm.T
        ea = np.einsum("ij,ij->i", xl.conj(), xa).real
        eb = np.einsum("ij,ij->i", xl.conj(), xb).real
        grad = 2.0 * (xl @ a2.T - 2.0 * ea[:, None] * xa)
        grad -= 2.0 * (xl @ b2.T - 2.0 * eb[:, None] * xb)
        grad -= np.einsum("ij,ij->i", xl.conj(), grad)[:, None] * xl
        gn = np.linalg.norm(grad, axis=1)
        converged = gn < CHECK_TOL
        active[live[converged]] = False
        live = live[~converged]
        if live.size == 0:
            continue
        dirs = np.zeros_like(x)
        dirs[live] = grad[~converged]
        eta = np.ones(r)
        pend = live
        while pend.size:
            cand = x[pend] + eta[pend, None] * dirs[pend]
            cand /= np.linalg.norm(cand, axis=1)[:, None]
            vc = value(cand)
            improved = vc > val[pend]
            hit = pend[improved]
            x[hit] = cand[improved]
            val[hit] = vc[improved]
            rest = pend[~improved]
            eta[rest] *= 0.5
            dead = rest[eta[rest] < DUST]
            active[dead] = False
            pend = rest[eta[rest] >= DUST]
    best = int(np.argmax(val))
    return PureState.normalized(x[best]), float(val[best])


def extract_function(A, B, tol: float | None = None) -> FunctionTable:
    """The certificate table when ``A`` is below ``B``; error with witness otherwise."""
    verdict = decide_order(A, B, tol)
    if not verdict.holds:
        raise PreconditionError(
            f"A is not below B in the variance order (witness margin {verdict.margin!r})",
            witness=verdict.witness,
        )
    return verdict.certificate


def class_equal(A, B, tol: float | None = None) -> bool:
    """Whether ``B`` equals ``A + cI`` or ``-A + cI`` for some real ``c``."""
    a, b = _as_pair(A, B)
    tol = resolve_tol(tol, a, b)
    eye = np.eye(a.dim)
    for sign in (1.0, -1.0):
        d = b.matrix - sign * a.matrix
        c = float(np.trace(d).real) / a.dim
        if float(np.linalg.norm(d - c * eye)) <= tol:
            return True
    return False


def _lex_spectrum_key(seq1, seq2, tie_tol: float) -> int:
    for (v1, r1), (v2, r2) in zip(seq1, seq2):
        if abs(v1 - v2) > tie_tol:
            return -1 if v1 < v2 else 1
        if r1 != r2:
            return -1 if r1 < r2 else 1
    return 0


def canonical_representative(A) -> HermitianObservable:
    """Canonical member of the class ``{A + cI, -A + cI}``.

    Both shifted candidates ``A - min(spec) I`` and ``-A + max(spec) I`` have
    spectrum anchored at 0; the one whose (eigenvalue, multiplicity) sequence
    is lexicographically smaller wins, with exact ties going to the former.
    Idempotent by construction.
    """
    a = _as_observable(A)
    dec = eigendecompose(a)
    lams, ranks = dec.eigenvalues, dec.ranks
    lmin, lmax = float(lams[0]), float(lams[-1])
    seq1 = [(lam - lmin, rk) for lam, rk in zip(lams, ranks)]
    seq2 = [(lmax - lam, rk) for lam, rk in zip(lams[::-1], ranks[::-1])]
    tie_tol = default_pair_tol(a)
    eye = np.eye(a.dim)
    if _lex_spectrum_key(seq1, seq2, tie_tol) <= 0:
        return HermitianObservable(a.matrix - lmin * eye)
    return HermitianObservable(lmax * eye - a.matrix)


def state_order_violation(
    A, B, trials: int, seed=0, tol: float = FAIL_MARGIN_TOL
) -> DensityState | None:
    """First sampled density matrix with ``var(A) > var(B) + tol``, if any."""
    a, b = _as_pair(A, B)
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    rng = as_rng(seed)
    for start in range(0, trials, 256):
        count = min(256, trials - start)
        g = complex_gaussian(rng, count, a.dim, a.dim)
        rho = g @ g.conj().transpose(0, 2, 1)
        rho /= np.einsum("tii->t", rho).real[:, None, None]
        bad = np.flatnonzero(_variances(a.matrix, rho) > _variances(b.matrix, rho) + tol)
        if bad.size:
            return DensityState(rho[int(bad[0])])
    return None


def check_state_order(A, B, trials: int, seed=0, tol: float = FAIL_MARGIN_TOL) -> bool:
    """Monte Carlo falsifier: no sampled density state violates the order.

    Samples Wishart-style density matrices and checks
    ``var(A) <= var(B) + tol`` at each.  A pass is evidence, not proof; use
    :func:`decide_order` for the exact answer.
    """
    return state_order_violation(A, B, trials, seed=seed, tol=tol) is None
