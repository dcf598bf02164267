"""Hermitian matrices, spectral decompositions, and the functional calculus.

All heavy objects are immutable: construction validates the defining
invariants and stores every value derived from them.  One ownership rule covers
every validated type: it stores only arrays it computed or copied, frozen, so no
caller holds them; a ``SpectralDecomposition`` is built from an observable, not
from arrays, shares that observable's frozen eigenpairs (its one eigenvector
array: ``V*`` is formed where it is used) and, up to dimension 16, shares the
grouping arrays of its rank pattern, built once per pattern in a bounded memo.
Left to first use are an observable's eigenpairs and its one decomposition, since
the ``A`` side of a decision is never solved.  Beside those cached values one thing
changes after construction: a decomposition's private memo of the failing
witnesses that depend on it alone, which :func:`~varorder.order.decide_order`
fills with at most ``n`` entries.  Every eigensolve in the package goes
through :func:`_eigh`, which calls LAPACK through ``numpy.linalg.eigh``; its
answers stay on the checked path (each :class:`SpectralDecomposition` verifies
its grouped reconstruction).  The cyclic Jacobi iteration :func:`jacobi_eigh` is
kept as an independent solver that the tests compare :func:`_eigh` against; no
decision procedure calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    DomainError,
    EigensolverError,
    InternalConsistencyError,
    NotHermitianError,
    ValidationError,
)
from .functions import FunctionTable, _checked_dim, _checked_int, _checked_tol, _freeze, _real_array
from .tolerances import CHECK_TOL, PAIR_TOL_SCALE, ROUND_RTOL

JACOBI_MAX_SWEEPS = 100
# A bound on dim * max |M| far enough below sqrt(float64 max) ~ 1.3e154 that squared
# norms and second moments <M^2>, and sums of a few of them, stay finite.
MAX_SCALE = 1e153
# A squared norm below which squares of entries can be subnormal and lose bits.
MIN_SQUARED_NORM = 2.0**-1000


def _frobenius(x: np.ndarray) -> float:
    """``numpy.linalg.norm(x)`` bit for bit, without its call overhead: the square root
    of ``re . re + im . im`` (``x . x`` when ``x`` is real), the sum that function forms."""
    y = x.ravel(order="K")  # numpy.linalg.norm's operand: a copy only if x is strided
    if y.dtype.kind == "c":
        return math.sqrt(y.real.dot(y.real) + y.imag.dot(y.imag))
    return math.sqrt(y.dot(y))


def _unit_scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """``x * 2**e`` as a new complex array, exactly, and ``e``, which puts the largest
    modulus in [1/2, 1] (zero stays zero), so that the squares of the largest entries
    are normal numbers, not subnormal or 0."""
    e = -int(np.frexp(np.abs(x).max(initial=0.0))[1])
    y = np.empty_like(x, dtype=np.complex128)
    y.real, y.imag = np.ldexp(x.real, e), np.ldexp(x.imag, e)
    return y, e


def _square_matrix(obj) -> np.ndarray:
    """Coerce to a nonempty square complex128 array."""
    m = np.asarray(obj, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValidationError("expected a nonempty matrix")
    return m


def _hermitian_part(obj, error: Callable[[float, float], Exception]) -> np.ndarray:
    """``(M + M*) / 2``; raises ``error(dev, bound)`` when ``dev = max |M - M*|`` exceeds
    ``bound = CHECK_TOL * max(1, |M|_max)``, and :class:`ValidationError` when an entry
    is not finite or ``n |M|_max`` is not below ``MAX_SCALE``, past which sums of
    squares overflow.  The finiteness test runs only once ``|M|_max`` fails the size
    test, as it does when it is NaN or inf, to tell the two refusals apart."""
    m = _square_matrix(obj)
    mh = m.conj().T
    scale = float(np.abs(m).max())
    if not m.shape[0] * scale < MAX_SCALE:
        if not np.isfinite(m).all():
            raise ValidationError("matrix entries must be finite")
        raise ValidationError(
            f"matrix too large: dim * max |M| = {m.shape[0] * scale:.3e} is not below "
            f"{MAX_SCALE:.0e}, so its Frobenius norm could overflow"
        )
    bound = CHECK_TOL * max(1.0, scale)
    dev = float(np.abs(m - mh).max())
    if dev > bound:
        raise error(dev, bound)
    return (m + mh) * 0.5  # exact, as / 2.0 is, and cheaper


@dataclass(frozen=True, eq=False)
class HermitianObservable:
    """A Hermitian matrix, symmetrized once it passes validation; its Frobenius norm is finite."""

    matrix: np.ndarray
    frobenius_norm: float = field(repr=False)

    def __init__(self, matrix):
        m = _hermitian_part(matrix, lambda dev, bound: NotHermitianError(
            f"matrix is not Hermitian: max |M - M*| = {dev:.3e} "
            f"exceeds {CHECK_TOL:.0e} * max(1, |M|_max) = {bound:.3e}"
        ))
        nrm = _frobenius(m)
        if nrm * nrm < MIN_SQUARED_NORM:  # squares may have underflowed: norm the scaled copy
            y, e = _unit_scaled(m)
            nrm = math.ldexp(_frobenius(y), -e)
        vars(self).update(matrix=_freeze(m), frobenius_norm=nrm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_diag(cls, values) -> "HermitianObservable":
        return cls(np.diag(_real_array(values, "diagonal")))

    @classmethod
    def identity(cls, dim: int) -> "HermitianObservable":
        return cls(np.eye(_checked_dim(dim)))

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors from :func:`_eigh`, solved on first use."""
        w, v = _eigh(self.matrix)
        return _freeze(w), _freeze(v)

    @cached_property
    def _decomposition(self) -> "SpectralDecomposition":
        """The decomposition :func:`eigendecompose` returns, built on first use."""
        return SpectralDecomposition(self)


def _as_observable(a) -> HermitianObservable:
    return a if isinstance(a, HermitianObservable) else HermitianObservable(a)


def _as_pair(A, B) -> tuple[HermitianObservable, HermitianObservable]:
    a, b = _as_observable(A), _as_observable(B)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a, b


@lru_cache(maxsize=64)  # kept for n <= 16: 64 patterns of at most 8 n^2 = 2 KB of residue_bins
def _grouping(ranks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """``labels``, ``rank_floats``, ``residue_bins`` and ``offsets`` of ``ranks``, frozen."""
    labels = _freeze(np.repeat(np.arange(len(ranks)), ranks))
    bins = np.where(labels[:, None] == labels, labels, labels + len(ranks))
    rank_floats = _freeze(np.array(ranks, dtype=np.float64))
    return labels, rank_floats, _freeze(bins).ravel(), (0, *accumulate(ranks[:-1]))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Grouped eigendecomposition ``B = V diag(lam) V*`` of an observable.

    Eigenvalues of ``observable.eigenpairs`` within ``ROUND_RTOL * |B|_F`` of each
    other (at least ``8 n math.ulp(0.0)``, for subnormal spectra), apart only by rounding,
    merge into one group carrying their mean, clipped into the group's range; with no
    merge the group ``eigenvalues`` are the observable's own, the same bits.
    ``vectors`` is the observable's frozen eigenvector matrix, each group's columns
    adjacent, in the order of the strictly increasing group eigenvalues, and the one
    eigenvector array kept: :meth:`in_basis` forms ``V* M V``.  ``ranks`` gives the
    number of columns per group.  Construction checks the grouped reconstruction.
    What depends on ``ranks`` alone is, up to ``n = 16``, built once per rank pattern
    and shared by every decomposition with that pattern (a memo of 64 patterns):
    ``labels`` (each column's group), ``rank_floats`` (the ranks as floats), ``offsets``
    (each group's first column, as ints) and ``residue_bins``, the flattened ``n x n``
    bin of each entry ``(r, c)`` of a matrix in this basis: ``labels[c]`` when row ``r``
    is in column ``c``'s group, ``labels[c] + len(ranks)`` otherwise, so one
    ``bincount`` sums each group's in-block and off-block entries apart.

    Outside its fields it keeps a private memo, empty at construction, that
    :func:`~varorder.order.decide_order` fills with the witnesses that depend on ``B``
    alone (a basis column, or the superposition of two groups' first columns), each as
    its normalized state and variance for ``B``: the first ``n`` keys, never
    evicted, so its vectors take no more memory than ``vectors``.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    ranks: tuple[int, ...]
    labels: np.ndarray = field(repr=False)
    rank_floats: np.ndarray = field(repr=False)
    residue_bins: np.ndarray = field(repr=False)
    offsets: tuple[int, ...] = field(repr=False)

    def __init__(self, observable: HermitianObservable):
        w, v = observable.eigenpairs
        floor = max(ROUND_RTOL * observable.frobenius_norm, 8 * len(w) * math.ulp(0.0))
        splits = w[1:] - w[:-1] > floor  # a group ends at True
        if splits.all():  # no merge: each group's mean, clipped, is its one eigenvalue
            lams, ranks, lam_cols, spread = w, (1,) * len(w), w, 0.0
        else:
            bounds = np.concatenate(([0], splits.nonzero()[0] + 1, [len(w)]))
            ranks = tuple((bounds[1:] - bounds[:-1]).tolist())
            means = np.add.reduceat(w, bounds[:-1]) / ranks
            lams = _freeze(np.minimum(np.maximum(means, w[bounds[:-1]]), w[bounds[1:] - 1]))
            lam_cols = np.repeat(lams, ranks)
            spread = _frobenius(w - lam_cols)
        recon_err = _frobenius((v * lam_cols) @ v.conj().T - observable.matrix)
        allowed = spread + resolve_tol(None, observable)
        if not recon_err <= allowed:  # a NaN eigenpair fails too
            raise InternalConsistencyError(
                f"spectral reconstruction off by {recon_err:.3e} (allowed {allowed:.3e})"
            )
        grouping = _grouping if len(w) <= 16 else _grouping.__wrapped__  # built afresh past 16
        labels, rank_floats, bins, offsets = grouping(ranks)
        vars(self).update(eigenvalues=lams, vectors=v, ranks=ranks, labels=labels,
                          rank_floats=rank_floats, residue_bins=bins, offsets=offsets,
                          _witnesses={})  # no field: decide_order's witness memo

    def group_indices(self, groups) -> tuple[int, ...]:
        """``groups`` as ints, each in ``range(len(ranks))`` or a :class:`ValidationError`."""
        message = f"group indices {groups} are not all in range({len(self.ranks)})"
        return tuple(_checked_int(j, 0, len(self.ranks), message) for j in groups)

    def projector(self, *groups: int) -> np.ndarray:
        """Orthogonal projector onto the eigenspaces of the given group indices."""
        basis = self.vectors[:, np.isin(self.labels, self.group_indices(groups))]
        return basis @ basis.conj().T

    @property
    def diameter(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def assemble(self, values) -> np.ndarray:
        """``V diag(values) V*`` with one value per group."""
        cols = np.repeat(np.asarray(values, dtype=np.float64), self.ranks)
        return (self.vectors * cols) @ self.vectors.conj().T

    def in_basis(self, m: np.ndarray) -> np.ndarray:
        """``V* M V``, the matrix ``m`` in this eigenbasis, formed left to right."""
        return self.vectors.conj().T @ m @ self.vectors


def _offdiag_norm(a: np.ndarray) -> float:
    return _frobenius(a - np.diag(np.diag(a)))


def _rotate(a: np.ndarray, v: np.ndarray, p: int, q: int, skip: float) -> None:
    # One Jacobi rotation zeroing a[p, q]; the complex phase is folded into
    # the Givens block so the 2x2 pivot reduces to the real symmetric case.
    apq = a[p, q]
    r = abs(apq)
    if r <= skip:
        return
    phase = apq / r
    theta = 0.5 * math.atan2(2.0 * r, float((a[p, p] - a[q, q]).real))
    c, s = math.cos(theta), math.sin(theta)
    cp, cq = a[:, p].copy(), a[:, q].copy()
    a[:, p] = c * cp + s * np.conj(phase) * cq
    a[:, q] = -s * phase * cp + c * cq
    rp, rq = a[p, :].copy(), a[q, :].copy()
    a[p, :] = c * rp + s * phase * rq
    a[q, :] = -s * np.conj(phase) * rp + c * rq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    vp, vq = v[:, p].copy(), v[:, q].copy()
    v[:, p] = c * vp + s * np.conj(phase) * vq
    v[:, q] = -s * phase * vp + c * vq


def _eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a Hermitian matrix, from LAPACK.

    Calls ``numpy.linalg.eigh`` (lower triangle) on the input as complex128,
    without copying it (LAPACK works on its own copy), so a ``(k, n, n)``
    stack gives ``(k, n)`` eigenvalues and ``(k, n, n)`` vectors.
    A LAPACK failure is raised as :class:`EigensolverError` with no residual.
    """
    try:
        w, v = np.linalg.eigh(np.asarray(matrix, dtype=np.complex128))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"LAPACK eigensolver failed: {exc}") from exc
    return w, v


def jacobi_eigh(matrix, max_sweeps: int = JACOBI_MAX_SWEEPS) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Cyclic Jacobi sweeps run until the off-diagonal Frobenius norm drops
    below ``ROUND_RTOL * |A|_F`` or the sweep cap is hit, in which case an
    :class:`EigensolverError` carrying the residual is raised.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v
    target = ROUND_RTOL * _frobenius(a)
    skip = target / (2.0 * n)
    for _ in range(max_sweeps):
        if _offdiag_norm(a) <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _rotate(a, v, p, q, skip)
    else:
        residual = _offdiag_norm(a)
        if residual > target:
            raise EigensolverError(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps: "
                f"off-diagonal residual {residual:.3e} > target {target:.3e}",
                residual=residual,
            )
    w = a.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def eigendecompose(A) -> SpectralDecomposition:
    """The observable's one :class:`SpectralDecomposition`, grouped at ``ROUND_RTOL * |A|_F``
    (eigenvalues merge only where they differ by rounding), built on first use and kept:
    a repeat call, from :func:`~varorder.order.decide_order` or a structure routine,
    returns the same object with no array work, so every caller sees the same eigenspaces.
    """
    return _as_observable(A)._decomposition


def _table_value(f, lam: float, tol: float) -> float:
    if isinstance(f, FunctionTable):
        return f.value_at(lam, tol=tol)
    try:
        return float(f(lam))
    except DomainError:
        raise
    except Exception as exc:  # noqa: BLE001 - surface as a domain failure
        raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc


def apply_function(
    decomposition: SpectralDecomposition,
    f: FunctionTable | Callable[[float], float],
) -> HermitianObservable:
    """Functional calculus: ``V diag(f(lam)) V*`` over the grouped eigenvalues.

    ``f`` is a :class:`FunctionTable`, whose nearest point to each eigenvalue must lie
    within ``PAIR_TOL_SCALE * max(1, max |lam|)``, or a plain callable.  A mapping is not
    callable (a :class:`DomainError`); :meth:`FunctionTable.from_mapping` makes it a table.
    """
    lams = decomposition.eigenvalues
    tol = _tol_at(float(np.abs(lams).max()))
    values = [_table_value(f, float(lam), tol) for lam in lams]
    return HermitianObservable(decomposition.assemble(values))


def commutator_norm(A, B) -> float:
    """Frobenius norm of ``AB - BA``."""
    a, b = _as_pair(A, B)
    return _frobenius(a.matrix @ b.matrix - b.matrix @ a.matrix)


def _tol_at(scale: float) -> float:
    return PAIR_TOL_SCALE * max(1.0, scale)


def resolve_tol(tol: float | None, *observables: HermitianObservable) -> float:
    """The tolerance of every comparison of ``observables``.

    ``None`` gives the default ``PAIR_TOL_SCALE * max(1, max |X|_F)``.  A given
    ``tol`` must be finite and >= 0 and is floored at ``ROUND_RTOL * max |X|_F``,
    which the default never is below, so that ``tol = 0`` means "as exact as
    floating point allows".
    """
    scale = max(x.frobenius_norm for x in observables)
    if tol is None:
        return _tol_at(scale)
    return max(_checked_tol(tol), ROUND_RTOL * scale)


def loewner_leq(A, B, tol: float | None = None) -> bool:
    """Spectral-order comparison: smallest eigenvalue of ``B - A`` is ``>= -tol``, with
    ``tol`` resolved by :func:`resolve_tol` (a given one floored at rounding level)."""
    a, b = _as_pair(A, B)
    tol = resolve_tol(tol, a, b)
    w, _ = _eigh(b.matrix - a.matrix)
    return bool(w[0] >= -tol)


@dataclass(frozen=True, eq=False)
class UnitaryMap:
    """A unitary matrix, optionally flagged as acting antiunitarily.

    An antiunitary map sends an observable to ``U conj(A) U*``, where the
    conjugate is taken entrywise before the unitary rotation.
    """

    matrix: np.ndarray
    antiunitary: bool = field(default=False)

    def __post_init__(self):
        if not isinstance(self.antiunitary, (bool, np.bool_)):
            raise ValidationError(f"antiunitary must be a bool, got {self.antiunitary!r}")
        u = _square_matrix(self.matrix)
        with np.errstate(invalid="ignore", over="ignore"):  # dev NaN or inf: refused below
            dev = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
        if not dev <= CHECK_TOL:
            if not np.isfinite(u).all():  # a complex entry is finite when both parts are
                raise ValidationError("matrix entries must be finite")
            raise ValidationError(f"matrix is not unitary: max |U*U - I| = {dev:.3e}")
        object.__setattr__(self, "matrix", _freeze(np.array(u)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, A) -> HermitianObservable:
        obs = _as_observable(A)
        if obs.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {obs.dim} vs {self.dim}")
        x = obs.matrix.conj() if self.antiunitary else obs.matrix
        return HermitianObservable(self.matrix @ x @ self.matrix.conj().T)
