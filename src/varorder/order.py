"""Deciding the variance order between two Hermitian observables.

``A`` is below ``B`` when every state's variance for ``A`` is at most its
variance for ``B``; equivalently ``A = f(B)`` for a 1-Lipschitz ``f`` on the
spectrum of ``B``.  The decision procedure either produces that function as a
certificate or a pure state whose variances witness the failure, never both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from .functions import FunctionTable, _checked_int, _checked_tol, _lipschitz_stage
from .linalg import (
    HermitianObservable,
    _as_observable,
    _as_pair,
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


def _failing(a: HermitianObservable, w: PureState, vb: float):
    """The failing verdict at witness ``w``, whose variance for ``B`` is ``vb``, or ``None``
    when its margin ``variance(a, w) - vb`` does not clear ``FAIL_MARGIN_TOL``."""
    margin = _variances(a.matrix, w.vector) - vb
    return OrderVerdict(False, None, w, margin) if margin > FAIL_MARGIN_TOL else None


def _margin_at(a: HermitianObservable, b: HermitianObservable, vec: np.ndarray):
    """:func:`_failing` at the state ``w`` along ``vec``.  The margin is recomputed from
    ``a.matrix`` and ``b.matrix`` with :func:`variance`'s kernel, one matrix-vector
    product each, so it equals the public two-call form bit for bit."""
    w = PureState.normalized(vec)
    return _failing(a, w, _variances(b.matrix, w.vector))


def _kept_margin_at(a: HermitianObservable, b: HermitianObservable, dec, key):
    """:func:`_margin_at` at a witness that depends on ``B`` alone: basis column ``key`` of
    ``dec = eigendecompose(b)``, or for ``key = (j, k)`` the sum of groups ``j`` and ``k``'s
    first columns.  The state and its variance for ``B`` are kept in ``dec``'s memo,
    which keeps its first ``n`` keys, so a ``B`` met by many partners normalizes each
    witness once; the margin has the same bits as :func:`_margin_at`'s."""
    memo = dec._witnesses
    if (kept := memo.get(key)) is None:
        v, offsets = dec.vectors, dec.offsets
        w = PureState.normalized(
            v[:, key] if isinstance(key, int) else v[:, offsets[key[0]]] + v[:, offsets[key[1]]])
        kept = w, _variances(b.matrix, w.vector)
        if len(memo) < len(v):
            memo[key] = kept
    return _failing(a, *kept)


def _pair_state(ap: np.ndarray, diag: np.ndarray, lams: np.ndarray):
    """The best two-level state over the column pairs ``(q, p)``, ``q != p``, of ``V``.

    With ``z = A'[q, p]`` and ``eta``, ``beta`` half the differences of ``diag`` and of
    ``lams``, the compressions of ``A`` and ``B`` to the pair have Bloch vectors
    ``h = (Re z, -Im z, eta)`` and ``b = (0, 0, beta)``.  Leakage only adds to ``A``'s
    variance, so the gap at Bloch vector ``n`` is at least ``|h|^2 - beta^2 + n.Mn``
    with ``M = bb^T - hh^T``, whose maximum ``bound / 2`` is at ``M``'s top eigenvector
    ``(-eta conj(z), lam + |z|^2)`` (its first two components as one complex number).
    Returns that state in ``V``'s basis at the first pair in row-major order with the
    largest bound, and the bound halved.
    """
    zz = np.abs(ap) ** 2
    eta = (diag[:, None] - diag) / 2
    b2 = ((lams[:, None] - lams) / 2) ** 2
    t = zz + eta**2 - b2
    root = np.sqrt((b2 - eta**2) ** 2 + zz * (2 * (b2 + eta**2) + zz))
    # bound = t + root, taken where t < 0 as the same value's quotient free of cancellation
    bound = np.divide(4 * b2 * zz, root - t, out=t + root, where=t < 0)
    bound.reshape(-1)[:: len(diag) + 1] = -1.0  # (q, q) is no pair
    q, p = divmod(int(bound.argmax()), len(diag))
    # M's top eigenvalue 2 beta^2 |z|^2 / bound, also free of cancellation
    lam = 2 * b2[q, p] * zz[q, p] / bound[q, p] if bound[q, p] > 0 else 0.0
    x, y = -eta[q, p] * ap[q, p].conjugate(), lam + zz[q, p]
    r = np.hypot(abs(x), y)
    # (r + y) e_q + x e_p has Bloch vector (x, y) / r; (x, y) is 0 only when z is
    state = np.zeros(len(diag), dtype=np.complex128)
    state[q], state[p] = (r + y, x) if r else (1.0, 1.0)
    return state, bound[q, p] / 2


def _residue_stage(ap: np.ndarray, labels: np.ndarray, residue_bins: np.ndarray,
                   rank_floats: np.ndarray, tol: float):
    """Whether ``A`` commutes with each eigenspace of ``B`` and is scalar there, read
    from ``A' = V* A V``.

    Group ``j`` is the ``rank_floats[j]`` columns ``labels == j`` of ``V``, which are
    adjacent: ``offsets[j] : offsets[j] + ranks[j]``.  Its scalar is the mean of ``A'``'s
    diagonal there, its scalar residue ``|A'[g, g] - scalar I|_F``, and its commutation
    residue ``sqrt(2) |A'[not g, g]|_F = |PA - AP|_F``, ``P`` its projection.  One
    ``bincount`` of the squared moduli of ``A'`` less its group scalars sums both: bin
    ``labels[c]`` of ``residue_bins`` holds entry ``(r, c)`` when ``labels[r] == labels[c]``,
    bin ``labels[c] + m`` otherwise.  Returns the ``m`` scalars, the residues as the rows
    (scalar, commutation) of a ``(2, m)`` array, and the lowest group with either residue
    above ``tol``, or ``None``.
    """
    m = len(rank_floats)
    scalars = np.bincount(labels, weights=ap.diagonal().real) / rank_floats
    # A' less its group scalars, subtracted on a copy's diagonal: no n x n real
    # matrix of scalars, and no complex cast of one
    dev = ap.copy()
    dev.reshape(-1)[:: len(labels) + 1] -= scalars[labels]
    res = np.bincount(residue_bins, weights=(np.abs(dev) ** 2).ravel(), minlength=2 * m)
    res[m:] *= 2.0  # the bins hold one of the two off-block halves
    np.sqrt(res, out=res)
    over = (res > tol).nonzero()[0]
    return scalars, res.reshape(2, m), int((over % m).min()) if over.size else None


def decide_order(A, B, tol: float | None = None) -> OrderVerdict:
    """Decide whether ``A`` is below ``B`` in the variance order.

    By Theorem 1, ``A`` is below ``B`` exactly when ``A = f(B)`` for a 1-Lipschitz
    ``f`` on ``B``'s spectrum: :func:`_residue_stage` checks that ``A`` commutes with
    each eigenspace of ``B = V diag(lam) V*`` and is scalar there, and
    :func:`_lipschitz_stage` that those scalars are 1-Lipschitz in the eigenvalues,
    grouped at gaps of at most ``ROUND_RTOL * |B|_F``; a holding verdict's certificate
    is their table.  Both stages are bounded by :func:`~varorder.linalg.resolve_tol`
    of ``tol``: by default ``PAIR_TOL_SCALE * max(1, |A|_F, |B|_F)``; a given one must
    be finite and >= 0 and is floored at ``ROUND_RTOL * max(|A|_F, |B|_F)``.

    A failing verdict's witness is the offending eigenspace's column of ``V`` with the
    largest variance for ``A`` (ties to the lowest), else :func:`_pair_state`'s best
    two-level state; past the residue stage, the equal superposition of the offending
    eigenvalue pair's first columns.  Its margin, recomputed by :func:`_margin_at`, must
    exceed ``FAIL_MARGIN_TOL``; when no route's does, ``InternalConsistencyError`` is raised.
    The column and the superposition depend on ``B`` alone, so :func:`_kept_margin_at`
    keeps each, with its variance for ``B``, in ``B``'s decomposition: a ``B`` met by many
    partners normalizes each once, and each decision computes only ``A``'s variance.
    """
    a, b = _as_pair(A, B)
    tol = resolve_tol(tol, a, b)
    dec = eigendecompose(b)
    v, lams = dec.vectors, dec.eigenvalues
    ap = dec.in_basis(a.matrix)
    scalars, res, g = _residue_stage(ap, dec.labels, dec.residue_bins, dec.rank_floats, tol)
    if g is not None:
        col, end, diag = dec.offsets[g], dec.offsets[g] + dec.ranks[g], None
        if end - col > 1:  # a rank-one eigenspace's one column needs no scan
            diag = ap.diagonal().real
            defects = (np.abs(ap[:, col:end]) ** 2).sum(axis=0) - diag[col:end] ** 2
            col += int(np.argmax(defects))
        # a basis column's margin is its leakage, second order in the residue
        verdict = _kept_margin_at(a, b, dec, col) or _margin_at(a, b, v @ _pair_state(
            ap, ap.diagonal().real if diag is None else diag, lams[dec.labels])[0])
        if verdict is None:
            raise InternalConsistencyError(
                f"eigenspace residues (commutation {res[1, g]:.3e}, scalar {res[0, g]:.3e}) exceed "
                f"tol {tol:.3e} but no witness clears the margin floor"
            )
        return verdict
    worst = _lipschitz_stage(lams, scalars, tol)
    if worst is None:
        return OrderVerdict(True, FunctionTable.from_values(lams, scalars), None, 0.0)
    j, k, excess = worst
    superposition = _kept_margin_at(a, b, dec, (j, k))
    if superposition is None:
        raise InternalConsistencyError(
            f"Lipschitz excess {excess:.3e} at eigenvalues ({float(lams[j])!r}, "
            f"{float(lams[k])!r}) but the superposition witness does not clear the margin floor"
        )
    return superposition


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


def witness_search(
    A, B, *, restarts: int = 32, steps: int = 500, seed=0
) -> tuple[PureState, float]:
    """Maximize ``var_x(A) - var_x(B)`` over the unit sphere.

    Riemannian conjugate gradient (Polak-Ribiere+; Absil, Mahony & Sepulchre,
    *Optimization Algorithms on Matrix Manifolds*, 2008, ch. 4 and 8) from
    ``restarts`` (>= 1) random unit vectors drawn from ``seed``, all advancing
    in lockstep as one batch, for at most ``steps`` (>= 0) steps.  A step
    follows the great circle through ``x`` in the search direction, on which
    the objective is a trigonometric polynomial of degree 2 in twice the angle
    (:func:`_circle_coefficients`); the circle's best point
    (:func:`_best_angle`) is taken only when a fresh evaluation shows a strict
    gain.  The direction is the gradient plus ``beta`` times the last
    circle's tangent, or the gradient alone when that does not point uphill
    and on every ``2n - 2``-th step.  With ``s2 = |A|_F^2 + |B|_F^2``, the
    scale of the objective, a restart retires when its gradient norm falls
    below ``CHECK_TOL * min(1, s2)`` or a step gains at most ``ROUND_RTOL * s2``.

    Returns the best state and its value; ties across restarts resolve to the
    lowest restart index.  Deterministic for a fixed ``seed``.  It calls
    no eigensolver and no decision routine, so it checks :func:`decide_order`
    independently.
    """
    a, b = _as_pair(A, B)
    message = f"oracle needs restarts >= 1 and steps >= 0, got restarts={restarts!r}, steps={steps!r}"
    restarts = _checked_int(restarts, 1, math.inf, message)
    steps = _checked_int(steps, 0, math.inf, message)
    rng = as_rng(seed)
    am, bm = a.matrix, b.matrix
    ops = np.stack([am, bm, am @ am, bm @ bm]).transpose(0, 2, 1)  # x @ ops: Ax, Bx, A^2x, B^2x
    s2 = a.frobenius_norm**2 + b.frobenius_norm**2
    floor = ROUND_RTOL * s2
    stop = (CHECK_TOL * min(1.0, s2)) ** 2  # on the squared gradient norm

    x = complex_gaussian(rng, restarts, a.dim)
    x /= np.linalg.norm(x, axis=1)[:, None]
    val = _variances(am, x) - _variances(bm, x)
    # the live restarts' state; a row is written back to ``x`` when it retires
    live = np.arange(restarts)
    xl, vl = x.copy(), val.copy()
    keep = np.ones(restarts, dtype=bool)
    tangent = g_prev = gg_prev = None
    # steepest ascent again every ``cycle`` steps: the real dimension of the
    # sphere with the phase (on which the gap does not depend) taken out
    cycle = max(1, 2 * a.dim - 2)
    for step in range(steps):
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
    """Whether ``B`` equals ``A + cI`` or ``-A + cI`` for some real ``c``, within ``tol``
    in Frobenius norm; ``tol`` is resolved by :func:`~varorder.linalg.resolve_tol` (a
    given one floored at rounding level)."""
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
    tie_tol = resolve_tol(None, a)
    eye = np.eye(a.dim)
    if _lex_spectrum_key(seq1, seq2, tie_tol) <= 0:
        return HermitianObservable(a.matrix - lmin * eye)
    return HermitianObservable(lmax * eye - a.matrix)


def state_order_violation(
    A, B, trials: int, seed=0, tol: float = FAIL_MARGIN_TOL
) -> DensityState | None:
    """Monte Carlo falsifier: the first sampled density state with ``var(A) > var(B) + tol``.

    Samples ``trials`` Wishart-style density matrices; ``None`` when none violates
    the order, which is evidence, not proof: :func:`decide_order` gives the exact answer.
    """
    a, b = _as_pair(A, B)
    tol = _checked_tol(tol)
    trials = _checked_int(trials, 1, math.inf, f"trials must be at least 1, got {trials}")
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
