"""Seeded benchmark inputs built with numpy alone.

Nothing here imports ``varorder``.  Every observable is ``W diag(v) W*`` for a
Haar unitary ``W`` and a value vector ``v`` that the construction chooses, so
each pair carries the verdict its construction implies and the checker never
has to trust the program under test.  The same ``(workload, seed, chunk)``
always yields byte-identical arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# varorder's documented default pair tolerance: 1e-8 * max(1, |A|_F, |B|_F).
TOL_SCALE = 1e-8
# Below this share of the pair's scale a constructed violation is rounding.
ROUND_SCALE = 1e-12

HOLDS, FAILS, EITHER = "holds", "fails", "either"

WORKLOAD_IDS = {"fresh-small": 1, "fresh-large": 2, "pool-order": 3, "cli": 4}

SMALL_DIMS = tuple(range(2, 9))
LARGE_DIMS = (32, 48, 64)
POOL_DIMS = (3, 4, 5, 6)
KINDS = ("holding", "independent", "stretched", "repeated")


def rng_for(workload: str, seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_IDS[workload], seed, chunk])


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar unitary: QR of a complex Gaussian with the phases of R divided out."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Sorted values in [-1, 1] whose adjacent gaps differ by at most a factor 5."""
    pts = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 1.0, n - 1))))
    pts -= pts.mean()
    return pts / max(1.0, float(np.abs(pts).max()))


def lipschitz_values(rng: np.random.Generator, xs: np.ndarray, stretch_at: int | None = None) -> np.ndarray:
    """Values on sorted ``xs`` with slopes in (-1, 1); slope +-3/2 across gap ``stretch_at``."""
    slopes = rng.uniform(-1.0, 1.0, len(xs) - 1)
    if stretch_at is not None:
        slopes[stretch_at] = 1.5 * (1.0 if rng.random() < 0.5 else -1.0)
    return np.concatenate(([rng.uniform(-1.0, 1.0)], slopes * np.diff(xs))).cumsum()


SCALE_STRATA = 8
# Bit-reversed slice order: any run of consecutive cycles spreads over the whole range.
SLICE_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)


def log_uniform(rng: np.random.Generator, lo_exp: float, hi_exp: float, stratum: int | None = None) -> float:
    """``10 ** u`` for ``u`` uniform on [lo_exp, hi_exp], or on its ``stratum``-th of ``SCALE_STRATA`` slices."""
    if stratum is None:
        return float(10.0 ** rng.uniform(lo_exp, hi_exp))
    width = (hi_exp - lo_exp) / SCALE_STRATA
    lo = lo_exp + (stratum % SCALE_STRATA) * width
    return float(10.0 ** rng.uniform(lo, lo + width))


@dataclass(frozen=True, eq=False)
class Obs:
    """``basis @ diag(values) @ basis*`` together with the matrix itself."""

    basis: np.ndarray
    values: np.ndarray
    matrix: np.ndarray

    @classmethod
    def build(cls, basis: np.ndarray, values) -> "Obs":
        vals = np.asarray(values, dtype=np.float64)
        m = (basis * vals) @ basis.conj().T
        return cls(basis, vals, (m + m.conj().T) / 2.0)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))


def pair_tol(a: Obs, b: Obs) -> float:
    return TOL_SCALE * max(1.0, a.norm, b.norm)


def violation(a: Obs, b: Obs) -> float:
    """How far ``a`` is from a 1-Lipschitz function of ``b``, in the units tol is applied to.

    In ``b``'s eigenbasis, per eigenspace ``G`` of ``b``: the commutation residue
    ``sqrt(2) |P_G a (I - P_G)|_F``, the scalar deviation of the block of ``a`` on
    ``G``, and across eigenspaces the Lipschitz excess ``|f_G - f_H| - |b_G - b_H|``
    of the block means ``f``.  Returns the largest of them.
    """
    xp = np.diag(a.values).astype(np.complex128) if a.basis is b.basis else b.basis.conj().T @ a.matrix @ b.basis
    levels, g = np.unique(b.values, return_inverse=True)
    same = g[:, None] == g[None, :]
    mass = np.abs(xp) ** 2
    comm = math.sqrt(2.0) * np.sqrt(np.bincount(g, (mass * ~same).sum(axis=1), len(levels)))
    diag = xp.diagonal().real
    means = np.bincount(g, diag, len(levels)) / np.bincount(g, minlength=len(levels))
    within = np.bincount(g, (mass * (same & ~np.eye(len(g), dtype=bool))).sum(axis=1), len(levels))
    scal = np.sqrt(within + np.bincount(g, (diag - means[g]) ** 2, len(levels)))
    lip = np.abs(means[:, None] - means[None, :]) - np.abs(levels[:, None] - levels[None, :])
    return float(max(comm.max(), scal.max(), lip.max()))


def expected_verdict(a: Obs, b: Obs) -> str:
    """``holds`` with no violation, ``fails`` beyond tol, and either verdict in between."""
    v = violation(a, b)
    if v <= ROUND_SCALE * max(1.0, a.norm, b.norm):
        return HOLDS
    return FAILS if v > pair_tol(a, b) else EITHER


@dataclass(frozen=True, eq=False)
class Pair:
    """One decision input: is ``a`` below ``b``?"""

    a: Obs
    b: Obs
    kind: str
    expected: str
    tol: float


def make_pair(a: Obs, b: Obs, kind: str) -> Pair:
    return Pair(a, b, kind, expected_verdict(a, b), pair_tol(a, b))


def fresh_pair(rng: np.random.Generator, n: int, kind: str, scale: float) -> Pair:
    """One pair of the fresh-* mix at dimension ``n`` and overall ``scale``."""
    u = haar_unitary(rng, n)
    lams = spectrum(rng, n)
    if kind == "repeated":
        k = int(rng.integers(n - 1))
        lams[k + 1] = lams[k]
    b = Obs.build(u, scale * lams)
    if kind == "independent":
        return make_pair(Obs.build(haar_unitary(rng, n), scale * spectrum(rng, n)), b, kind)
    stretch = int(rng.integers(n - 1)) if kind == "stretched" else None
    distinct, inverse = np.unique(lams, return_inverse=True)
    vals = lipschitz_values(rng, distinct, stretch)[inverse]
    if kind == "repeated" and rng.random() < 0.5:
        # split the repeated eigenspace, so A is not a function of B
        vals[k] += rng.uniform(0.2, 1.0)
    return make_pair(Obs.build(u, scale * vals), b, kind)


def fresh_chunk(workload: str, seed: int, chunk: int, dims: tuple[int, ...], size: int) -> list[Pair]:
    """``size`` fresh pairs; op ``i`` of the run has dimension ``dims[i % len(dims)]``.

    Kinds rotate every ``len(dims)`` ops, so every ``len(dims) * len(KINDS)``
    ops hold each (dimension, kind) once.  Scales are log-uniform over
    1e-6 .. 1e6, each such cycle drawing from the next of ``SCALE_STRATA``
    equal slices in ``SLICE_ORDER``, so that a run's scale mix varies little
    with the seed or the run's length.
    """
    rng = rng_for(workload, seed, chunk)
    cycle = len(dims) * len(KINDS)
    pairs = []
    for i in range(chunk * size, (chunk + 1) * size):
        n = dims[i % len(dims)]
        kind = KINDS[(i // len(dims)) % len(KINDS)]
        pairs.append(fresh_pair(rng, n, kind, log_uniform(rng, -6.0, 6.0, SLICE_ORDER[(i // cycle) % SCALE_STRATA])))
    return pairs


def pool_members(rng: np.random.Generator, n: int, stratum: int) -> list[Obs]:
    """Sixteen related observables around one ``B`` at dimension ``n``.

    ``B``; six Lipschitz images of it; ``-B + c``; the hinge pair at an
    interior eigenvalue; four multiples ``tE`` of a spectral projector of ``B``
    with ``t`` up to the gap it splits; and two independent observables.  The
    scale is log-uniform over 1e-2 .. 1e2, within slice ``stratum``.
    """
    u = haar_unitary(rng, n)
    scale = log_uniform(rng, -2.0, 2.0, stratum)
    lams = spectrum(rng, n)
    vals = [lams]
    vals += [lipschitz_values(rng, lams) for _ in range(6)]
    vals.append(rng.uniform(-1.0, 1.0) - lams)
    pivot = lams[int(rng.integers(1, n - 1))]
    vals += [np.maximum(lams - pivot, 0.0), np.minimum(lams - pivot, 0.0)]
    split = int(rng.integers(n - 1))
    gap = lams[split + 1] - lams[split]
    below = (np.arange(n) <= split).astype(np.float64)
    vals += [t * gap * below for t in (0.25, 0.5, 0.75, 1.0)]
    members = [Obs.build(u, scale * v) for v in vals]
    members += [Obs.build(haar_unitary(rng, n), scale * spectrum(rng, n)) for _ in range(2)]
    return members


def pool_pairs(members: list[Obs]) -> list[tuple[int, int, Pair]]:
    """All ordered pairs ``(i, j)``, ``i != j``, of a pool with their expected verdicts."""
    return [
        (i, j, make_pair(members[i], members[j], "pool"))
        for i in range(len(members))
        for j in range(len(members))
        if i != j
    ]


def q_closed_form(points: np.ndarray) -> np.ndarray:
    """Gap matrix of distinct points: ``|p_j - p_k|``, with ``diameter - min_gap`` at the diameter."""
    s = np.sort(points)
    diam = s[-1] - s[0]
    dist = np.abs(points[:, None] - points[None, :])
    q = np.where(dist < diam, dist, diam - np.diff(s).min())
    np.fill_diagonal(q, 0.0)
    return q


def distinct_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct points in random order with a gap floor of 1/5 of the largest gap."""
    pts = spectrum(rng, n) * log_uniform(rng, -1.0, 1.0)
    return pts[rng.permutation(n)]
