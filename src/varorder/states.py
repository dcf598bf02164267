"""States, Born measures, and variance identities for Hermitian observables.

Variances are computed three independent ways across the toolkit (matrix
moments, Born-measure moments, and the double integral); the redundancy is
deliberate and cross-checked both here and in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    PreconditionError,
    ValidationError,
)
from .functions import _check_points, _freeze, _split_pairs
from .linalg import (
    MIN_SQUARED_NORM,
    HermitianObservable,
    SpectralDecomposition,
    _as_observable,
    _eigh,
    _frobenius,
    _hermitian_part,
    resolve_tol,
)
from .tolerances import CHECK_TOL, DUST, ROUND_RTOL


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector; the norm must already be 1 to within ``ROUND_RTOL``."""

    vector: np.ndarray

    def __post_init__(self):
        x = _freeze(np.array(self.vector, dtype=np.complex128))
        if x.ndim != 1 or x.size == 0:
            raise ValidationError(f"state vector must be 1-dimensional, got shape {x.shape}")
        nrm = math.sqrt(np.vdot(x, x).real)  # NaN or inf when an entry is not finite
        if not abs(nrm - 1.0) <= ROUND_RTOL:  # an overflowing vdot gives NaN, refused too
            if not np.isfinite(x).all():
                raise ValidationError("state vector entries must be finite")
            raise ValidationError(f"state vector norm {nrm!r} is not 1 within {ROUND_RTOL:.0e}")
        object.__setattr__(self, "vector", x)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @classmethod
    def normalized(cls, vec) -> "PureState":
        """``vec / numpy.linalg.norm(vec)``; refuses the zero vector, non-finite entries and
        a norm past the float64 maximum, found first on ``<vec, vec>``, whose overflow
        raises no numpy warning.  Below ``MIN_SQUARED_NORM`` that vector is first scaled by
        an exact power of two, so a tiny one normalizes as its scaled-up copy does.  The
        norm is then :func:`~varorder.linalg._frobenius`, ``numpy.linalg.norm``'s bits
        without that function's overhead."""
        x = np.asarray(vec, dtype=np.complex128)
        sq = np.vdot(x, x).real
        if not sq < math.inf:  # inf or NaN
            what = "norm overflows float64" if np.isfinite(x).all() else "entries must be finite"
            raise ValidationError(f"state vector {what}")
        if sq < MIN_SQUARED_NORM:  # largest modulus into [1/2, 1]; zero stays zero
            e = -int(np.frexp(np.abs(x).max(initial=0.0))[1])
            x, y = np.empty_like(x), x
            x.real, x.imag = np.ldexp(y.real, e), np.ldexp(y.imag, e)
        nrm = _frobenius(x)
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(x / nrm)

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "PureState":
        if index not in range(dim):
            raise ValidationError(f"basis index {index} is not in range({dim})")
        x = np.zeros(dim, dtype=np.complex128)
        x[index] = 1.0
        return cls(x)


@dataclass(frozen=True, eq=False)
class DensityState:
    """A density matrix: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _hermitian_part(self.matrix, lambda dev, _: ValidationError(
            f"density matrix is not Hermitian: max |M - M*| = {dev:.3e}"
        ))
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > CHECK_TOL:
            raise ValidationError(f"density matrix trace {tr!r} is not 1 within {CHECK_TOL:.0e}")
        w, _ = _eigh(m)
        if w[0] < -CHECK_TOL:
            raise ValidationError(
                f"density matrix has eigenvalue {float(w[0])!r} below the floor {-CHECK_TOL:.0e}"
            )
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityState":
        x = state.vector
        return cls(np.outer(x, x.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim) / dim)


State = PureState | DensityState


def _check_dims(obs: HermitianObservable, state: State) -> None:
    if obs.dim != state.dim:
        raise DimensionMismatchError(
            f"observable dimension {obs.dim} does not match state dimension {state.dim}"
        )


def expectation(A, state: State) -> float:
    """Expected value of the observable in the given state."""
    obs = _as_observable(A)
    _check_dims(obs, state)
    if isinstance(state, PureState):
        x = state.vector
        return float(np.vdot(x, obs.matrix @ x).real)
    return float(np.trace(state.matrix @ obs.matrix).real)


def _variances(a: np.ndarray, states: np.ndarray):
    """Unclamped ``<A^2> - <A>^2`` at one pure vector or at each state of a stack.

    ``states`` is one pure vector ``(n,)``, a stack of pure vectors ``(k, n)``
    or of density matrices ``(k, n, n)``.  At one vector ``x`` it is one
    matrix-vector product, ``ax = A x``, and two inner products:
    ``<ax, ax> - <x, ax>^2``, returned as a scalar.
    """
    if states.ndim == 1:
        ax = a @ states
        mean = np.vdot(states, ax).real
        return np.vdot(ax, ax).real - mean * mean
    if states.ndim == 2:
        ax = states @ a.T
        mean = np.einsum("ij,ij->i", states.conj(), ax).real
        second = np.einsum("ij,ij->i", ax.conj(), ax).real
    else:
        mean = np.einsum("tij,ji->t", states, a).real
        second = np.einsum("tij,ji->t", states, a @ a).real
    return second - mean * mean


def variance(A, state: State) -> float:
    """Variance ``<A^2> - <A>^2``; clamped at 0 against rounding dust.

    A pure state takes :func:`_variances`' one-vector form, the one that
    :func:`~varorder.order.decide_order` recomputes a witness margin with, so a
    failing verdict's margin is ``variance(A, w) - variance(B, w)`` bit for bit.
    """
    obs = _as_observable(A)
    _check_dims(obs, state)
    if isinstance(state, PureState):
        return max(0.0, float(_variances(obs.matrix, state.vector)))
    return max(0.0, float(_variances(obs.matrix, state.matrix[None])[0]))


@dataclass(frozen=True, eq=False)
class BornMeasure:
    """A finitely supported probability measure on the real line.

    It stores the frozen float64 arrays ``locations`` and ``masses``; ``atoms``
    reads them back as a tuple of ``(location, mass)`` pairs of Python floats.
    """

    locations: np.ndarray
    masses: np.ndarray

    def __init__(self, atoms):
        locs, masses = _split_pairs(atoms)
        _check_points(locs, "measure needs at least one atom", "atom locations")
        if not (masses >= 0).all():  # a NaN mass fails too
            raise ValidationError("atom masses must be nonnegative")
        total = float(masses.sum())
        if abs(total - 1.0) > CHECK_TOL:
            raise ValidationError(f"atom masses sum to {total!r}, not 1 within {CHECK_TOL:.0e}")
        object.__setattr__(self, "locations", _freeze(locs))
        object.__setattr__(self, "masses", _freeze(masses))

    @property
    def atoms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.locations.tolist(), self.masses.tolist()))

    @classmethod
    def normalized(cls, pairs, merge_tol: float = ROUND_RTOL) -> "BornMeasure":
        """Sort, refuse masses below -DUST, merge near-coincident atoms, drop dust, renormalize."""
        pairs = sorted((float(t), float(p)) for t, p in pairs)
        if any(p < -DUST for _, p in pairs):  # refused before a merge can hide it
            raise ValidationError("atom masses must be nonnegative")
        merged: list[list[float]] = []
        for t, p in pairs:
            if merged and t - merged[-1][0] <= merge_tol:
                # fold into the previous atom at the mass-weighted location
                t0, p0 = merged[-1]
                tot = p0 + p
                if tot > 0:
                    merged[-1][0] = (t0 * p0 + t * p) / tot
                merged[-1][1] = tot
            else:
                merged.append([t, p])
        kept = [(t, p) for t, p in merged if not p < DUST]  # a NaN mass is kept, to be refused
        total = sum(p for _, p in kept)
        if total <= 0:
            raise ValidationError("measure has no mass left after dropping empty atoms")
        return cls((t, p / total) for t, p in kept)

    def mean(self) -> float:
        return float(np.dot(self.locations, self.masses))


def born_measure(decomposition: SpectralDecomposition, state: State) -> BornMeasure:
    """Distribution of measurement outcomes: mass ``tr(V_j* rho V_j)`` at each eigenvalue."""
    v = decomposition.vectors
    if v.shape[0] != state.dim:
        raise DimensionMismatchError(
            f"decomposition dimension {v.shape[0]} does not match state {state.dim}"
        )
    if isinstance(state, PureState):
        weights = np.abs(v.conj().T @ state.vector) ** 2
    else:
        weights = np.einsum("ij,ij->j", v.conj(), state.matrix @ v).real
    masses = np.maximum(np.bincount(decomposition.labels, weights=weights), 0.0)
    total = float(masses.sum())
    if abs(total - 1.0) > CHECK_TOL:
        raise InternalConsistencyError(f"eigenspace masses sum to {total!r}, not 1")
    # distinct eigenvalues: nothing merges at 0, so this only drops dust and renormalizes
    return BornMeasure.normalized(zip(decomposition.eigenvalues, masses), merge_tol=0.0)


def measure_variance(mu: BornMeasure) -> float:
    """Variance of a Born measure.

    Both the moment formula ``m2 - m1^2`` and the double integral
    ``(1/2) integral of (t - s)^2 d(mu x mu)`` are evaluated; they must agree
    to ``CHECK_TOL * max(1, m2)``, in variance units relative to the second moment
    ``m2`` whose rounding both carry, or an :class:`InternalConsistencyError` is
    raised.  The moment value is returned.
    """
    t = mu.locations
    p = mu.masses
    m1 = float(np.dot(t, p))
    m2 = float(np.dot(t * t, p))
    moment = m2 - m1 * m1
    diff = t[:, None] - t[None, :]
    double = 0.5 * float(np.einsum("ij,i,j->", diff * diff, p, p))
    if abs(moment - double) > CHECK_TOL * max(1.0, m2):
        raise InternalConsistencyError(
            f"variance formulas disagree: moment {moment!r} vs double integral {double!r}"
        )
    return max(0.0, moment)


def pushforward(mu: BornMeasure, f) -> BornMeasure:
    """Image measure under ``f``: atoms move to ``f(t)``; coinciding atoms merge."""
    new_locs = [float(f(t)) for t in mu.locations]
    merge_tol = ROUND_RTOL * max([1.0] + [abs(v) for v in new_locs])
    return BornMeasure.normalized(zip(new_locs, mu.masses), merge_tol=merge_tol)


def variance_defect(A, state: PureState) -> float:
    """Squared residual ``|Ax - <A>x|^2``; equals the variance at a pure state."""
    obs = _as_observable(A)
    _check_dims(obs, state)
    x = state.vector
    ax = obs.matrix @ x
    e = np.vdot(x, ax).real
    return _frobenius(ax - e * x) ** 2


def approx_eigen_sandwich(A, state: PureState, lam: float) -> tuple[float, float, float]:
    """Eigenvalue-residual sandwich around the variance.

    Returns ``(D, var, err)`` with ``D = |Ax - lam x|^2`` and
    ``err = |<A> - lam|``, after asserting ``D/2 <= var + err^2 <= 2D``
    to ``CHECK_TOL * max(1, <A^2>)``, in variance units relative to the
    second moment ``<A^2> = |Ax|^2`` whose rounding the variance carries.
    """
    obs = _as_observable(A)
    _check_dims(obs, state)
    x = state.vector
    ax = obs.matrix @ x
    d = _frobenius(ax - float(lam) * x) ** 2
    var = variance(obs, state)
    err = abs(float(np.vdot(x, ax).real) - float(lam))
    mid = var + err * err
    slack = CHECK_TOL * max(1.0, float(np.vdot(ax, ax).real))
    if 0.5 * d - mid > slack or mid - 2.0 * d > slack:
        raise InternalConsistencyError(
            f"sandwich violated: D = {d!r}, var + err^2 = {mid!r}"
        )
    return d, var, err


def superposition_variance(
    A,
    x: PureState,
    y: PureState,
    alpha: float,
    beta: float,
    tol: float | None = None,
) -> float:
    """Variance at the normalized superposition of two orthogonal eigenvectors.

    The value is computed directly from the state; the closed form
    ``a^2 b^2 (lam - mu)^2 / (a^2 + b^2)^2`` serves as the oracle in tests.
    Orthogonality, the eigenvector residues and the eigenvalue gap are checked
    against ``tol``, resolved by :func:`~varorder.linalg.resolve_tol` (a given
    one floored at rounding level).
    """
    obs = _as_observable(A)
    _check_dims(obs, x)
    _check_dims(obs, y)
    alpha, beta = float(alpha), float(beta)
    if alpha == 0.0 or beta == 0.0:
        raise PreconditionError("superposition coefficients must both be nonzero")
    tol = resolve_tol(tol, obs)
    overlap = float(abs(np.vdot(x.vector, y.vector)))
    if overlap > tol:
        raise PreconditionError(f"states are not orthogonal: |<x, y>| = {overlap!r}")
    for name, s in (("x", x), ("y", y)):
        defect = math.sqrt(variance_defect(obs, s))
        if defect > tol:
            raise PreconditionError(
                f"{name} is not an eigenvector within {tol:.3e}: residual {defect!r}"
            )
    lam = expectation(obs, x)
    mu = expectation(obs, y)
    if abs(lam - mu) <= tol:
        raise PreconditionError(
            f"eigenvalues must be distinct: {lam!r} and {mu!r} agree within {tol:.3e}"
        )
    z = PureState.normalized(alpha * x.vector + beta * y.vector)
    return variance(obs, z)


def maximal_deviation(A) -> float:
    """Largest standard deviation over all states: half the spectral diameter."""
    w, _ = _as_observable(A).eigenpairs
    return float(w[-1] - w[0]) / 2.0
