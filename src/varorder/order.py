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
from .tolerances import CHECK_TOL, FAIL_MARGIN_TOL, ROUND_RTOL


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


def decision_tol(tol: float | None, a: HermitianObservable, b: HermitianObservable) -> float:
    """``resolve_tol(tol, a, b)`` floored at ``ROUND_RTOL * max(|A|_F, |B|_F)``, so that
    rounding residues never fail a decision (at ``tol = 0`` they failed even ``A = B``)."""
    return max(resolve_tol(tol, a, b), ROUND_RTOL * max(a.frobenius_norm, b.frobenius_norm))


def decide_order(A, B, tol: float | None = None) -> OrderVerdict:
    """Decide whether ``A`` is below ``B`` in the variance order.

    The procedure eigendecomposes ``B = V diag(lam) V*`` and works on
    ``A' = V* A V``.  On each eigenspace ``g``, with orthogonal projection
    ``P``, it checks that ``A`` commutes with ``P`` (the residue
    ``sqrt(2) |A'[g, not g]|_F`` equals ``|PA - AP|_F``) and is scalar there
    (with scalar value the mean of the diagonal of ``A'[g, g]``), and
    finally that the scalar values are 1-Lipschitz across eigenvalue gaps.
    The eigenspaces are ``B``'s eigenvalues grouped at rounding level, gaps
    of at most ``ROUND_RTOL * |B|_F``, so a cluster of eigenvalues a fraction
    of ``tol`` apart is never one wide group on which even ``A = B`` is not
    scalar.  The tolerance, :func:`decision_tol` of ``tol`` (default
    ``PAIR_TOL_SCALE * max(1, |A|_F, |B|_F)``; a given one must be finite and
    >= 0), bounds the residue checks and the Lipschitz slack.  ``B``'s
    eigenpairs are solved once per observable and its grouped decompositions
    cached per grouping, however many partners it is decided against.

    On failure the witness is the eigenbasis candidate of the offending
    eigenspace with the largest variance for ``A`` (ties to the lowest
    index), or an equal superposition across the offending pair; its margin
    is recomputed from scratch and must exceed ``FAIL_MARGIN_TOL``.
    """
    a, b = _as_pair(A, B)
    tol = decision_tol(tol, a, b)
    dec = eigendecompose(b, group_tol=ROUND_RTOL * b.frobenius_norm)
    v, lams, labels, same = dec.vectors, dec.eigenvalues, dec.labels, dec.same_group

    # Per-eigenspace checks: commutation and scalarity of A on each group.
    ap = v.conj().T @ a.matrix @ v
    diag = ap.diagonal().real
    scalars = np.bincount(labels, weights=diag) / dec.rank_floats
    # A' less its group scalars, subtracted on a copy's diagonal: no n x n real
    # matrix of scalars, and no complex cast of one
    dev = ap.copy()
    dev.reshape(-1)[:: len(labels) + 1] -= scalars[labels]
    dev = np.abs(dev) ** 2
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
    # excess wins, ties to the first pair in (j, k) order: the excess is
    # symmetric and -tol <= 0 on the diagonal, so a positive one is first met at j < k.
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
    """Settings for :func:`witness_search`: ``restarts`` random starting states,
    at most ``steps`` conjugate-gradient steps each, and the ``seed`` that draws them."""

    restarts: int = 32
    steps: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.steps < 0:
            raise ValidationError(f"oracle needs restarts >= 1 and steps >= 0, got {self}")


# The line search's grid over phi = 2 theta in [0, 2 pi), and the gain basis
# (cos phi - 1, sin phi, cos 2 phi - 1, sin 2 phi) on it: zero at phi = 0.
_PHI = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
_GAIN_BASIS = np.stack([np.cos(_PHI) - 1.0, np.sin(_PHI), np.cos(2 * _PHI) - 1.0, np.sin(2 * _PHI)])
_NEWTON_STEPS = 2


def _circle_coefficients(x: np.ndarray, d: np.ndarray, mx: np.ndarray, md: np.ndarray) -> np.ndarray:
    """Coefficients ``(5, k)`` of ``var(A) - var(B)`` along ``cos(theta) x + sin(theta) d``.

    ``x`` and ``d`` are ``(k, n)`` stacks of unit vectors with ``x_i* d_i = 0``;
    ``mx`` and ``md`` stack their products with ``A`` and with ``B`` as
    ``(2, k, n)``.  For each observable ``M``, ``<M>`` and ``<M^2>`` on the
    circle are ``m0 + m1 cos(phi) + m2 sin(phi)`` at ``phi = 2 theta``, so the
    gap is ``c[0] + c[1] cos(phi) + c[2] sin(phi) + c[3] cos(2 phi) + c[4] sin(2 phi)``.
    """
    xx = np.einsum("ki,ski->sk", x.conj(), mx).real
    dd = np.einsum("ki,ski->sk", d.conj(), md).real
    m0, m1, m2 = (xx + dd) / 2, (xx - dd) / 2, np.einsum("ki,ski->sk", x.conj(), md).real
    sx = np.einsum("ski,ski->sk", mx.conj(), mx).real
    sd = np.einsum("ski,ski->sk", md.conj(), md).real
    sxd = np.einsum("ski,ski->sk", mx.conj(), md).real
    # variance = <M^2> - <M>^2, with <M>^2 expanded into the harmonics of phi
    per = np.stack([
        (sx + sd) / 2 - m0 * m0 - (m1 * m1 + m2 * m2) / 2,
        (sx - sd) / 2 - 2 * m0 * m1,
        sxd - 2 * m0 * m2,
        (m2 * m2 - m1 * m1) / 2,
        -m1 * m2,
    ])
    return per[:, 0] - per[:, 1]


def _best_angle(c: np.ndarray) -> np.ndarray:
    """The ``phi`` maximizing each column's trigonometric polynomial: the best
    point of a grid, then a few Newton steps, each taken only where the
    curvature is negative and clipped to half the grid spacing."""
    k1, k2, k3, k4 = c[1:]
    phi = _PHI[np.argmax(c[1:].T @ _GAIN_BASIS, axis=1)]
    half = np.pi / len(_PHI)
    with np.errstate(divide="ignore", invalid="ignore"):  # no step where the curvature is 0
        for _ in range(_NEWTON_STEPS):
            c1, s1 = np.cos(phi), np.sin(phi)
            c2, s2 = c1 * c1 - s1 * s1, 2 * s1 * c1
            slope = k2 * c1 - k1 * s1 + 2 * (k4 * c2 - k3 * s2)
            curv = -(k1 * c1 + k2 * s1) - 4 * (k3 * c2 + k4 * s2)
            step = np.minimum(np.maximum(slope / -curv, -half), half)
            phi = np.where(curv < 0, phi + step, phi)
    return phi


def witness_search(A, B, cfg: OracleConfig | None = None) -> tuple[PureState, float]:
    """Maximize ``var_x(A) - var_x(B)`` over the unit sphere.

    Riemannian conjugate gradient (Polak-Ribiere+; Absil, Mahony & Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 4 and 8) from
    ``cfg.restarts`` random unit vectors, all advancing in lockstep as one
    batch, for at most ``cfg.steps`` steps.  A step follows the great circle
    through ``x`` in the search direction, on which the objective is a
    trigonometric polynomial of degree 2 in twice the angle
    (:func:`_circle_coefficients`); the circle's best point
    (:func:`_best_angle`) is taken only when a fresh evaluation shows a strict
    gain.  The direction is the gradient plus ``beta`` times the last
    circle's tangent, or the gradient alone when that does not point uphill
    and on every ``2n - 2``-th step.  With ``s2 = |A|_F^2 + |B|_F^2``, the
    scale of the objective, a restart retires when its gradient norm falls
    below ``CHECK_TOL * min(1, s2)`` or a step gains at most ``ROUND_RTOL * s2``.

    Returns the best state and its value; ties across restarts resolve to the
    lowest restart index.  Deterministic for a fixed ``cfg.seed``.  It calls
    no eigensolver and no decision routine, so it checks :func:`decide_order`
    independently.
    """
    a, b = _as_pair(A, B)
    cfg = cfg or OracleConfig()
    rng = as_rng(cfg.seed)
    am, bm = a.matrix, b.matrix
    ops = np.stack([am, bm, am @ am, bm @ bm]).transpose(0, 2, 1)  # x @ ops: Ax, Bx, A^2x, B^2x
    s2 = a.frobenius_norm**2 + b.frobenius_norm**2
    floor = ROUND_RTOL * s2
    stop = (CHECK_TOL * min(1.0, s2)) ** 2  # on the squared gradient norm

    x = complex_gaussian(rng, cfg.restarts, a.dim)
    x /= np.linalg.norm(x, axis=1)[:, None]
    val = _variances(am, x) - _variances(bm, x)
    # the live restarts' state; a row is written back to ``x`` when it retires
    live = np.arange(cfg.restarts)
    xl, vl = x.copy(), val.copy()
    keep = np.ones(cfg.restarts, dtype=bool)
    tangent = g_prev = gg_prev = None
    # steepest ascent again every ``cycle`` steps: the real dimension of the
    # sphere with the phase (on which the gap does not depend) taken out
    cycle = max(1, 2 * a.dim - 2)
    for step in range(cfg.steps):
        px = xl @ ops
        e = np.einsum("ki,ski->sk", xl.conj(), px[:2]).real
        g = 2.0 * (px[2] - px[3] - 2.0 * (e[0, :, None] * px[0] - e[1, :, None] * px[1]))
        g -= np.einsum("ki,ki->k", xl.conj(), g)[:, None] * xl
        gg = np.einsum("ki,ki->k", g.conj(), g).real
        keep &= gg >= stop
        if not keep.all():
            x[live], val[live] = xl, vl
            live, xl, vl, px, g, gg = live[keep], xl[keep], vl[keep], px[:, keep], g[keep], gg[keep]
            if tangent is not None:
                tangent, g_prev, gg_prev = tangent[keep], g_prev[keep], gg_prev[keep]
            if not live.size:
                break
        eta = g
        if step % cycle:
            beta = np.maximum(0.0, (gg - np.einsum("ki,ki->k", g.conj(), g_prev).real) / gg_prev)
            eta = g + beta[:, None] * tangent
            eta -= np.einsum("ki,ki->k", xl.conj(), eta)[:, None] * xl
            uphill = np.einsum("ki,ki->k", eta.conj(), g).real > 0
            eta = np.where(uphill[:, None], eta, g)
        dn = np.sqrt(np.einsum("ki,ki->k", eta.conj(), eta).real)
        dh = eta / dn[:, None]
        theta = _best_angle(_circle_coefficients(xl, dh, px[:2], dh @ ops[:2])) / 2
        cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
        cand = cos * xl + sin * dh
        cand /= np.linalg.norm(cand, axis=1)[:, None]
        vc = _variances(am, cand) - _variances(bm, cand)
        gain = vc - vl
        better = gain > 0
        tangent = dn[:, None] * (cos * dh - sin * xl)
        xl = np.where(better[:, None], cand, xl)
        vl = np.where(better, vc, vl)
        g_prev, gg_prev = g, gg
        keep = gain > floor
    x[live], val[live] = xl, vl
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
