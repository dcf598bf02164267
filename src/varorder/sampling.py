"""Seeded random generators for observables, states, and Lipschitz tables.

Every routine takes either an integer seed or a ``numpy.random.Generator``,
so callers that need reproducibility pass a seed once and thread the
generator through.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .functions import FunctionTable, _check_points, _checked_dim, _checked_real, _checked_seed, _real_array
from .linalg import HermitianObservable, UnitaryMap

if TYPE_CHECKING:  # for annotations only: importing varorder loads no numpy.random
    RngLike = int | np.random.Generator | None


def as_rng(seed: RngLike) -> np.random.Generator:
    if not (seed is None or isinstance(seed, np.random.Generator)):
        seed = _checked_seed(seed)
    return np.random.default_rng(seed)


def complex_gaussian(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_hermitian(dim: int, seed: RngLike = None, scale: float = 1.0) -> HermitianObservable:
    """A GUE-like observable times ``scale``, a finite number, checked before any draw."""
    dim = _checked_dim(dim)
    scale = _checked_real(scale, f"scale must be a finite number, got {scale!r}")
    rng = as_rng(seed)
    g = complex_gaussian(rng, dim, dim)
    return HermitianObservable(scale * (g + g.conj().T) / 2.0)


def random_unitary(dim: int, seed: RngLike = None, antiunitary: bool = False) -> UnitaryMap:
    """Haar-distributed unitary via QR with the standard phase fix."""
    dim, rng = _checked_dim(dim), as_rng(seed)
    q, r = np.linalg.qr(complex_gaussian(rng, dim, dim))
    d = np.diag(r)
    return UnitaryMap(q * (d / np.abs(d)), antiunitary=antiunitary)


def random_pure_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    x = complex_gaussian(rng, _checked_dim(dim))
    return x / np.linalg.norm(x)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Wishart-style density matrix ``G G* / tr(G G*)`` as a plain array."""
    dim = _checked_dim(dim)
    g = complex_gaussian(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_lipschitz_values(
    locations, seed: RngLike = None, constant: float = 1.0
) -> np.ndarray:
    """Random values on sorted locations with slopes bounded by ``constant``: a first value
    in [-1, 1], then the cumulative sum of slopes in ``[-constant, constant]`` times gaps.
    Checked first: locations finite, strictly increasing and at most float64's maximum
    apart, and ``0 <= constant * max(1, span) <= max / 2``, so that no value overflows."""
    xs = _real_array(locations, "locations")
    if xs.ndim != 1 or not xs.size:
        raise ValidationError(f"locations must be nonempty and 1-dimensional, got shape {xs.shape}")
    _check_points(xs, "", "locations")  # nonempty by now
    lo, hi = float(xs[0]), float(xs[-1])
    half = hi / 2 - lo / 2  # half the span, formed on halves: finite
    if not half <= np.finfo(np.float64).max / 2:  # a gap would overflow
        raise ValidationError(f"locations {lo!r} to {hi!r} are more than float64's maximum apart")
    over = f" over the locations' span {2 * half!r}" if half > 0.5 else ""
    message = (f"Lipschitz constant must be a nonnegative number, at most float64's maximum / 2{over}, "
               f"got {constant!r}")
    constant = _checked_real(constant, message, 0.0, np.finfo(np.float64).max / 4 / max(0.5, half))
    rng = as_rng(seed)
    vals = np.empty(len(xs))
    vals[0] = rng.uniform(-1.0, 1.0)
    vals[1:] = rng.uniform(-constant, constant, len(xs) - 1) * np.diff(xs)
    return np.cumsum(vals, out=vals)


def random_lipschitz_table(
    locations, seed: RngLike = None, constant: float = 1.0
) -> FunctionTable:
    return FunctionTable.from_values(locations, random_lipschitz_values(locations, seed, constant))


def random_spectrum(
    n: int,
    seed: RngLike = None,
    low: float = 0.0,
    high: float = 10.0,
    min_gap: float = 0.05,
) -> np.ndarray:
    """Sorted distinct points in [low, high] with pairwise gaps >= min_gap.
    Finite bounds with ``low <= high``, a finite ``high - low`` and a finite ``min_gap >= 0``
    that ``n`` points can meet, ``(n - 1) * min_gap <= high - low``, are checked before any
    draw.  Up to 1000 sorted uniform draws are tried; if none keeps the gap, ``n`` sorted
    uniform amounts in ``[0, slack]``, ``slack = high - low - (n - 1) * min_gap``, spaced
    ``min_gap`` apart (the distribution the draws were conditioned on), with any gap that
    rounding leaves below ``min_gap`` raised an ulp at a time; when that pushes the top
    past ``high``, rounding leaves no room and :class:`ValidationError` is raised."""
    n, rng = _checked_dim(n), as_rng(seed)
    message = (f"no {n} points in [{low!r}, {high!r}] with gaps >= {min_gap!r}: low <= high and "
               "min_gap >= 0 must be finite numbers with (n - 1) * min_gap <= high - low")
    low = _checked_real(low, message)
    high, min_gap = _checked_real(high, message, low), _checked_real(min_gap, message, 0.0)
    if not (n - 1) * min_gap <= high - low < math.inf:
        raise ValidationError(message)
    for _ in range(1000):
        pts = np.sort(rng.uniform(low, high, size=n))
        if n < 2 or np.diff(pts).min() >= min_gap:
            return pts
    slack = high - low - (n - 1) * min_gap
    pts = low + (np.sort(rng.uniform(0.0, slack, size=n)) + min_gap * np.arange(n))
    for i in range(1, n):
        while pts[i] - pts[i - 1] < min_gap:
            pts[i] = np.nextafter(pts[i], math.inf)
    if pts[-1] <= high:
        return pts
    raise ValidationError(
        f"no {n} points in [{low!r}, {high!r}] with gaps >= {min_gap!r} survive rounding: "
        f"floats at this magnitude leave no room for the slack {slack!r}"
    )


def random_commuting_pair(
    dim: int, seed: RngLike = None
) -> tuple[HermitianObservable, HermitianObservable]:
    """Simultaneously diagonalizable pair; A takes values from a pool of
    ``max(2, dim - 1)``, so its spectrum may repeat them."""
    dim, rng = _checked_dim(dim), as_rng(seed)
    u = random_unitary(dim, rng).matrix
    pool = rng.uniform(-3.0, 3.0, size=max(2, dim - 1))
    a_vals = rng.choice(pool, size=dim)
    b_vals = rng.uniform(-3.0, 3.0, size=dim)
    a = HermitianObservable(u @ np.diag(a_vals.astype(complex)) @ u.conj().T)
    b = HermitianObservable(u @ np.diag(b_vals.astype(complex)) @ u.conj().T)
    return a, b
