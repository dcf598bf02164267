"""Structure of the variance order: upper bounds, lower sets, and symmetries.

The routines here package the finite-dimensional order theory: commuting
pairs admit a joint upper bound built from shifted blocks, the two-or-fewer
point spectrum elements below a fixed observable form threshold families,
pairwise expectation gaps of those elements determine the spectrum up to
reflection, and order automorphisms are exactly scaled (anti)unitary
conjugations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import (
    DegenerateInputError,
    InternalConsistencyError,
    PreconditionError,
    ReconstructionError,
    ValidationError,
)
from .functions import _check_points
from .linalg import (
    HermitianObservable,
    SpectralDecomposition,
    UnitaryMap,
    _as_observable,
    _as_pair,
    _eigh,
    _freeze,
    commutator_norm,
    eigendecompose,
    resolve_tol,
)
from .order import decide_order
from .sampling import as_rng, random_hermitian, random_lipschitz_values
from .tolerances import GAP_RTOL, ROUND_RTOL


def block_shift_upper_bound(A, B) -> HermitianObservable:
    """Sum of B's diagonal blocks on A's eigenspaces, each shifted apart.

    With blocks ``B_j = P_j B P_j`` and ``beta = 4 tau + diam(spec A) + 1``
    (``tau`` the largest block spectral norm), returns
    ``C = sum_j (B_j + j beta P_j)`` with ``j`` counting eigenspaces from 1
    upward.  ``A`` is always a 1-Lipschitz function of ``C``; ``B`` is one
    exactly when the pair commutes, which :func:`joint_upper_bound` checks.
    """
    a, b = _as_pair(A, B)
    dec = eigendecompose(a)
    v, labels = dec.vectors, dec.labels
    blocks = np.where(labels[:, None] == labels, v.conj().T @ b.matrix @ v, 0.0)
    blocks = (blocks + blocks.conj().T) / 2.0
    tau = max(
        float(np.abs(_eigh(blocks[np.ix_(labels == j, labels == j)])[0]).max())
        for j in range(len(dec.ranks))
    )
    beta = 4.0 * tau + dec.diameter + 1.0
    return HermitianObservable(v @ (blocks + np.diag(beta * (labels + 1.0))) @ v.conj().T)


def joint_upper_bound(A, B, tol: float | None = None) -> HermitianObservable:
    """An observable above both members of a commuting pair.

    Raises :class:`PreconditionError` carrying the commutator norm when the
    pair does not commute to within ``tol``, resolved by
    :func:`~varorder.linalg.resolve_tol` (a given one floored at rounding
    level); no joint upper bound exists in that case.
    """
    a, b = _as_observable(A), _as_observable(B)
    tol = resolve_tol(tol, a, b)
    comm = commutator_norm(a, b)
    if comm > tol:
        raise PreconditionError(
            f"observables do not commute: |AB - BA|_F = {comm!r} exceeds tol {tol:.3e}",
            witness=comm,
        )
    return block_shift_upper_bound(a, b)


@dataclass(frozen=True, eq=False)
class TwoPointFamily:
    """Threshold family ``{t E : 0 <= t <= threshold}`` below a fixed observable.

    ``E`` projects onto the eigenspaces with group ``indices`` in the shared
    ``decomposition`` of the observable; it is formed only on request.
    """

    decomposition: SpectralDecomposition
    indices: tuple[int, ...]
    threshold: float

    def __post_init__(self):
        object.__setattr__(self, "indices", self.decomposition.group_indices(self.indices))
        if not self.indices:
            raise ValidationError("family needs a nonempty eigenvalue subset")
        if not self.threshold > 0:
            raise ValidationError(f"threshold must be positive, got {self.threshold!r}")

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(float(self.decomposition.eigenvalues[j]) for j in self.indices)

    @property
    def projector(self) -> np.ndarray:
        return self.decomposition.projector(*self.indices)

    def observable(self, t: float) -> HermitianObservable:
        return HermitianObservable(float(t) * self.projector)


def two_point_lower_set(A) -> tuple[TwoPointFamily, ...]:
    """All maximal families ``t E`` below ``A`` with at most two spectrum points.

    One family per subset of the spectrum (complement pairs deduplicated:
    the smaller subset is kept, ties go to the one containing the lowest
    eigenvalue).  The threshold is the smallest gap from the subset to its
    complement; members with ``t`` beyond it are no longer below ``A``.
    """
    a = _as_observable(A)
    dec = eigendecompose(a)
    m = len(dec.ranks)
    if m == 1:
        raise DegenerateInputError(
            "spectrum has a single point; everything below it is scalar"
        )
    lams = dec.eigenvalues
    families = []
    for r in range(1, m // 2 + 1):
        for omega in combinations(range(m), r):
            if 2 * r == m and 0 not in omega:
                continue
            rest = [i for i in range(m) if i not in omega]
            t = min(abs(lams[i] - lams[j]) for i in omega for j in rest)
            families.append(TwoPointFamily(dec, omega, float(t)))
    return tuple(families)


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Symmetric nonnegative gap matrix with zero diagonal, n >= 4."""

    values: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.values, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {q.shape}")
        if q.shape[0] < 4:
            raise DegenerateInputError(f"gap matrix needs n >= 4, got n = {q.shape[0]}")
        if not np.all(np.isfinite(q)):
            raise ValidationError("gap matrix entries must be finite")
        # nonnegative first: then |q - q.T| is at most the largest entry and cannot overflow
        if q.min() < 0:
            raise ValidationError("gap matrix entries must be nonnegative")
        if np.abs(q - q.T).max() > ROUND_RTOL * max(1.0, q.max()):
            raise ValidationError("gap matrix must be symmetric")
        if np.diag(q).max() > 0:
            raise ValidationError("gap matrix diagonal must be zero")
        # halved before the sum, which overflows above ~9e307; exact for normal entries
        object.__setattr__(self, "values", _freeze(q / 2.0 + q.T / 2.0))

    @property
    def n(self) -> int:
        return self.values.shape[0]


_MASK_BLOCK = 128


def _enumerated_q(pts: np.ndarray) -> np.ndarray:
    # Brute-force cross-check over the extremal short maps on a finite chain:
    # each adjacent step is taken at full width or collapsed to zero, and at
    # least one step must collapse so the image has fewer points.  Bit i of a
    # mask keeps step i; masks run in blocks of _MASK_BLOCK, so the block's
    # (masks, n, n) difference array stays small.
    n = len(pts)
    order = np.argsort(pts)
    steps = np.diff(pts[order])
    shifts = np.arange(n - 1)
    count = 2 ** (n - 1) - 1  # all-ones (the identity) excluded
    q = np.zeros((n, n))
    for start in range(0, count, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, count))
        values = np.zeros((masks.size, n))
        values[:, order[1:]] = np.cumsum(((masks[:, None] >> shifts) & 1) * steps, axis=1)
        gaps = values[:, :, None] - values[:, None, :]
        np.maximum(q, np.abs(gaps, out=gaps).max(axis=0), out=q)
    return q


def q_matrix(spectrum, method: str = "closed") -> QMatrix:
    """Largest expectation gaps achievable below a spectrum with fewer points.

    For distinct points, entry ``(j, k)`` is ``|p_j - p_k|`` unless that is
    the full diameter, in which case it is ``diameter - min_gap``.  The
    ``"enumerate"`` method recomputes the matrix by brute force over clamp
    functions and verifies agreement with the closed form.
    """
    pts = np.asarray(spectrum, dtype=np.float64).ravel()
    n = len(pts)
    if n < 4:
        raise DegenerateInputError(f"spectrum needs at least 4 points, got {n}")
    s = np.sort(pts)
    _check_points(s, "", "sorted spectrum points")  # distinct and finite; n >= 4, so nonempty
    lo, hi = float(s[0]), float(s[-1])
    diam = hi - lo  # Python floats: an overflow is inf, with no warning
    if diam == math.inf:
        raise ValidationError(f"spectrum diameter {hi!r} - {lo!r} overflows")
    min_gap = float(np.diff(s).min())
    dist = np.abs(pts[:, None] - pts[None, :])
    q = np.where(dist < diam, dist, diam - min_gap)  # |p - p| is +0.0: a zero diagonal
    if method == "enumerate":
        q2 = _enumerated_q(pts)  # its self-gaps are +0.0 too
        if np.abs(q - q2).max() > GAP_RTOL * max(1.0, diam):
            raise InternalConsistencyError(
                "closed-form gap matrix disagrees with the clamp enumeration"
            )
        q = q2
    elif method != "closed":
        raise ValidationError(f"unknown method {method!r}")
    return QMatrix(q)


def reconstruct_metric(Q) -> tuple[np.ndarray, np.ndarray]:
    """Recover pairwise distances and the spectrum from a gap matrix.

    The diameter-clipped entries are exactly those attaining the matrix
    maximum (at most three pairs); they are repaired via two-hop sums
    through third points, after which the largest distance is the diameter
    pair's, and point positions are read off as distances from its smaller
    index.  Returns ``(distances, spectrum)`` with the distance matrix
    indexed like ``Q`` and the spectrum sorted ascending, anchored at 0 (the
    configuration is unique up to reflection and translation).

    Raises :class:`ReconstructionError` when the maximum is attained other
    than 1 to 3 times, or the round trip through :func:`q_matrix` is off by
    more than ``GAP_RTOL * max Q``, relative at every scale.
    """
    qm = Q if isinstance(Q, QMatrix) else QMatrix(Q)
    q = qm.values
    n = qm.n
    qmax = float(q.max())
    if qmax <= 0:
        raise ReconstructionError("gap matrix has no positive entries")
    tie = GAP_RTOL * qmax
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if q[i, j] >= qmax - tie]
    if not 1 <= len(pairs) <= 3:
        raise ReconstructionError(
            f"matrix maximum attained {len(pairs)} times; expected 1, 2, or 3"
        )

    d = q.copy()
    for i, j in pairs:
        # on Python floats, so a two-hop sum past the float64 maximum is inf (refused
        # below) without a numpy overflow warning; q is exactly symmetric, q[k, j] = q[j, k]
        qi, qj = q[i].tolist(), q[j].tolist()
        d[i, j] = d[j, i] = min(qi[k] + qj[k] for k in range(n) if k not in (i, j))

    # the row of the diameter pair's smaller index; + 0.0 reads a -0.0 diagonal as +0.0
    positions = d[min(divmod(int(np.argmax(d)), n))] + 0.0

    try:
        q_check = q_matrix(positions).values
    except (ValidationError, DegenerateInputError) as exc:
        raise ReconstructionError(f"recovered positions are degenerate: {exc}") from exc
    atol = GAP_RTOL * qmax
    if np.abs(q_check - q).max() > atol:
        raise ReconstructionError("gap matrix is not consistent with any point configuration")
    dist_check = np.abs(positions[:, None] - positions[None, :])
    if np.abs(dist_check - d).max() > atol:
        raise ReconstructionError("corrected distances do not embed on a line")
    return d, np.sort(positions)


@dataclass(frozen=True, eq=False)
class AutomorphismSpec:
    """A candidate order automorphism: positive scale times (anti)unitary conjugation."""

    scale: float
    unitary: UnitaryMap

    def __post_init__(self):
        if not self.scale > 0:
            raise ValidationError(f"scale must be positive, got {self.scale!r}")

    def __call__(self, A) -> HermitianObservable:
        return HermitianObservable(self.scale * self.unitary.apply(A).matrix)


@dataclass(frozen=True, eq=False)
class AutomorphismReport:
    """Outcome of sampling-based automorphism verification: the number of
    ``trials`` run, the last of which found the ``counterexample`` if there is one."""

    passed: bool
    trials: int
    counterexample: tuple[HermitianObservable, HermitianObservable] | None = None


def _sampling_dim(dim: int) -> int:
    if dim < 2:
        raise ValidationError(f"dimension must be at least 2, got {dim}")
    return dim


def verify_automorphism(
    phi: AutomorphismSpec | Callable,
    trials: int,
    dim: int,
    seed=0,
) -> AutomorphismReport:
    """Check that a map preserves the variance order in both directions.

    Samples ordered pairs (half of the form ``A = f(B)`` for a random
    1-Lipschitz ``f``, so the order holds; half independent, so it almost
    surely fails) and requires ``decide_order`` to agree before and after
    the map for both orderings of each pair.  Accepts an
    :class:`AutomorphismSpec` or any callable sending Hermitian observables
    to Hermitian observables, so ill-formed maps can be refuted; stops at
    the first counterexample.  A pass is evidence, not proof.  In dimension 2
    the order compares only collinear traceless parts, so maps that are not a
    positive scale times an (anti)unitary conjugation (Theorem 2's form) can
    pass too.
    """
    _sampling_dim(dim)
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    rng = as_rng(seed)
    for t in range(trials):
        b = random_hermitian(dim, rng)
        if t % 2 == 0:
            w, v = b.eigenpairs
            a = HermitianObservable((v * random_lipschitz_values(w, rng)) @ v.conj().T)
        else:
            a = random_hermitian(dim, rng)
        fa = _as_observable(phi(a))
        fb = _as_observable(phi(b))
        for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
            if decide_order(x, y).holds != decide_order(fx, fy).holds:
                return AutomorphismReport(False, t + 1, (a, b))
    return AutomorphismReport(True, trials)


def two_spectrum_detector(A, method: str = "spectral") -> bool:
    """Whether the spectrum has exactly two points.

    The ``"spectral"`` method counts eigenvalue groups.  The ``"order"``
    method answers from the order below ``A``: with at most two spectrum
    points every element below ``A`` is ``alpha A + beta``, so the lower set is
    a chain and only the count is read, with nothing to decide (one point, a
    scalar, gives ``False``); with three or more, the hinges
    ``max(A - l1, 0)`` and ``min(A - l1, 0)`` at the second eigenvalue ``l1``
    are both below ``A``, and the answer is whether :func:`decide_order` finds
    them comparable (at most two decisions, no sampling).
    """
    if method not in ("spectral", "order"):
        raise ValidationError(f"unknown method {method!r}")
    dec = eigendecompose(_as_observable(A))
    m = len(dec.ranks)
    if method == "spectral" or m <= 2:
        return m == 2
    shifted = dec.eigenvalues - dec.eigenvalues[1]
    up = HermitianObservable(dec.assemble(np.maximum(shifted, 0.0)))
    down = HermitianObservable(dec.assemble(np.minimum(shifted, 0.0)))
    return decide_order(up, down).holds or decide_order(down, up).holds


def three_point_class_candidates(A, tol: float | None = None) -> list[HermitianObservable]:
    """All classes sharing the two-point lower set of a three-point observable.

    For gaps ``t1 <= t2`` between consecutive eigenvalues there are two such
    classes in general and a third exactly when the gaps tie (within ``tol``,
    resolved by :func:`~varorder.linalg.resolve_tol`: a given one is floored at
    rounding level); all candidates are returned rather than picking one.
    """
    a = _as_observable(A)
    dec = eigendecompose(a)
    if len(dec.ranks) != 3:
        raise DegenerateInputError(
            f"expected exactly 3 distinct eigenvalues, got {len(dec.ranks)}"
        )
    tol = resolve_tol(tol, a)
    lams = dec.eigenvalues
    t1, t2 = float(lams[1] - lams[0]), float(lams[2] - lams[1])
    flip = t1 > t2  # name the eigenspaces from the end with the smaller gap
    if flip:
        t1, t2 = t2, t1
    values = [[0.0, t1, t1 + t2], [t2, t1 + t2, 0.0]]
    if abs(t1 - t2) <= tol:
        values.append([2.0 * t1, 0.0, t1])
    return [HermitianObservable(dec.assemble(v[::-1] if flip else v)) for v in values]
