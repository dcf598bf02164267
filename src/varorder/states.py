"""States, Born measures, and variance identities for Hermitian observables.

Variances are computed three independent ways across the toolkit (matrix
moments, Born-measure moments, and the double integral); the redundancy is
deliberate and cross-checked both here and in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalConsistencyError,
    PreconditionError,
    ValidationError,
)
from .functions import _check_points, _freeze
from .linalg import (
    HermitianObservable,
    SpectralDecomposition,
    _as_observable,
    _eigh,
    _frozen,
    _hermitian_part,
    resolve_tol,
)
from .tolerances import CHECK_TOL, DUST, ROUND_RTOL


@dataclass(frozen=True, eq=False)
class PureState:
    """A unit vector; the norm must already be 1 to within ``ROUND_RTOL``."""

    vector: np.ndarray

    def __post_init__(self):
        x = _frozen(self.vector, np.complex128)
        if x.ndim != 1 or x.size == 0:
            raise ValidationError(f"state vector must be 1-dimensional, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValidationError("state vector entries must be finite")
        nrm = float(np.linalg.norm(x))
        if abs(nrm - 1.0) > ROUND_RTOL:
            raise ValidationError(f"state vector norm {nrm!r} is not 1 within {ROUND_RTOL:.0e}")
        object.__setattr__(self, "vector", x)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @classmethod
    def normalized(cls, vec) -> "PureState":
        x = np.asarray(vec, dtype=np.complex128)
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(_freeze(x / nrm))

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "PureState":
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
                f"density matrix has eigenvalue {w[0]!r} below the floor {-CHECK_TOL:.0e}"
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


def _variances(a: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Unclamped ``<A^2> - <A>^2`` at each state of a stack.

    ``states`` holds pure vectors ``(k, n)`` or density matrices ``(k, n, n)``.
    """
    if states.ndim == 2:
        ax = states @ a.T
        mean = np.einsum("ij,ij->i", states.conj(), ax).real
        second = np.einsum("ij,ij->i", ax.conj(), ax).real
    else:
        mean = np.einsum("tij,ji->t", states, a).real
        second = np.einsum("tij,ji->t", states, a @ a).real
    return second - mean * mean


def variance(A, state: State) -> float:
    """Variance ``<A^2> - <A>^2``; clamped at 0 against rounding dust."""
    obs = _as_observable(A)
    _check_dims(obs, state)
    x = state.vector if isinstance(state, PureState) else state.matrix
    return max(0.0, float(_variances(obs.matrix, x[None])[0]))


def _clean_atoms(pairs, merge_tol: float) -> tuple[tuple[float, float], ...]:
    pairs = sorted((float(t), float(p)) for t, p in pairs)
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
    return tuple((t, p / total) for t, p in kept)


@dataclass(frozen=True, eq=False)
class BornMeasure:
    """A finitely supported probability measure on the real line.

    ``atoms`` are ``(location, mass)`` pairs; construction also stores them as the
    frozen arrays ``locations`` and ``masses``.
    """

    atoms: tuple[tuple[float, float], ...]
    locations: np.ndarray = field(init=False, repr=False)
    masses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple((float(t), float(p)) for t, p in self.atoms)
        locs = np.array([a[0] for a in atoms])
        _check_points(locs, "measure needs at least one atom", "atom locations")
        masses = np.array([a[1] for a in atoms])
        if not (masses >= 0).all():  # a NaN mass fails too
            raise ValidationError("atom masses must be nonnegative")
        total = float(masses.sum())
        if abs(total - 1.0) > CHECK_TOL:
            raise ValidationError(f"atom masses sum to {total!r}, not 1 within {CHECK_TOL:.0e}")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "locations", _freeze(locs))
        object.__setattr__(self, "masses", _freeze(masses))

    @classmethod
    def normalized(cls, pairs, merge_tol: float = ROUND_RTOL) -> "BornMeasure":
        """Sort, merge near-coincident atoms, drop dust, and renormalize."""
        return cls(_clean_atoms(pairs, merge_tol))

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
    to ``CHECK_TOL`` or an :class:`InternalConsistencyError` is raised.  The moment
    value is returned.
    """
    t = mu.locations
    p = mu.masses
    m1 = float(np.dot(t, p))
    m2 = float(np.dot(t * t, p))
    moment = m2 - m1 * m1
    diff = t[:, None] - t[None, :]
    double = 0.5 * float(np.einsum("ij,i,j->", diff * diff, p, p))
    if abs(moment - double) > CHECK_TOL:
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
    return float(np.linalg.norm(ax - e * x) ** 2)


def approx_eigen_sandwich(A, state: PureState, lam: float) -> tuple[float, float, float]:
    """Eigenvalue-residual sandwich around the variance.

    Returns ``(D, var, err)`` with ``D = |Ax - lam x|^2`` and
    ``err = |<A> - lam|``, after asserting ``D/2 <= var + err^2 <= 2D``
    (to ``CHECK_TOL``).
    """
    obs = _as_observable(A)
    _check_dims(obs, state)
    x = state.vector
    ax = obs.matrix @ x
    d = float(np.linalg.norm(ax - float(lam) * x) ** 2)
    var = variance(obs, state)
    err = abs(float(np.vdot(x, ax).real) - float(lam))
    mid = var + err * err
    if 0.5 * d - mid > CHECK_TOL or mid - 2.0 * d > CHECK_TOL:
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
    """
    obs = _as_observable(A)
    _check_dims(obs, x)
    _check_dims(obs, y)
    alpha, beta = float(alpha), float(beta)
    if alpha == 0.0 or beta == 0.0:
        raise PreconditionError("superposition coefficients must both be nonzero")
    tol = resolve_tol(tol, obs)
    overlap = abs(np.vdot(x.vector, y.vector))
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
