"""Finite function tables and their Lipschitz extensions to the real line."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError
from .tolerances import LIP_TOL, PAIR_TOL_SCALE


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_points(xs: np.ndarray, empty: str, what: str) -> None:
    """Raise :class:`ValidationError` unless ``xs`` is nonempty, finite and strictly increasing.

    ``empty`` is the message for no values; ``what`` names the values otherwise.
    """
    if not xs.size:
        raise ValidationError(empty)
    # a NaN fails every comparison and an infinity can only end an increasing run, so
    # after the strict order only the endpoints need a finiteness test
    if not ((xs[1:] > xs[:-1]).all() and math.isfinite(xs[0]) and math.isfinite(xs[-1])):
        raise ValidationError(f"{what} must be finite and strictly increasing")


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A real function given on finitely many points.

    ``points`` is a tuple of ``(x, f(x))`` pairs with finite values and finite,
    strictly increasing first coordinates; construction also stores them as the
    frozen arrays ``locations`` and ``values``.  :class:`LipschitzExtension` checks
    that a table is c-Lipschitz.
    """

    points: tuple[tuple[float, float], ...]
    locations: np.ndarray = field(init=False, repr=False)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.points)
        xs = np.array([x for x, _ in pts])
        _check_points(xs, "function table needs at least one point", "table point locations")
        if not all(math.isfinite(y) for _, y in pts):
            raise ValidationError("table values must be finite")
        ys = np.array([y for _, y in pts])
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "locations", _freeze(xs))
        object.__setattr__(self, "values", _freeze(ys))

    @classmethod
    def from_mapping(cls, mapping) -> "FunctionTable":
        return cls(tuple(sorted((float(k), float(v)) for k, v in mapping.items())))

    @classmethod
    def from_values(cls, xs, ys) -> "FunctionTable":
        xs, ys = (np.asarray(v, dtype=np.float64).tolist() for v in (xs, ys))
        if len(xs) != len(ys):
            raise ValidationError(f"{len(xs)} locations but {len(ys)} values")
        return cls(tuple(zip(xs, ys)))

    def lipschitz_constant(self) -> float:
        """Smallest constant c with |f(x)-f(y)| <= c|x-y| on the table points."""
        xs, ys = self.locations, self.values
        if len(xs) < 2:
            return 0.0
        dx = np.abs(xs[:, None] - xs[None, :])
        dy = np.abs(ys[:, None] - ys[None, :])
        mask = dx > 0
        return float((dy[mask] / dx[mask]).max())

    def value_at(self, x: float, tol: float = PAIR_TOL_SCALE) -> float:
        """Value at the table point nearest to ``x`` (within ``tol``)."""
        xs = self.locations
        i = int(np.argmin(np.abs(xs - x)))
        if not abs(xs[i] - x) <= tol:  # a NaN ``x`` matches nothing
            raise DomainError(
                f"no table point within {tol:.3e} of {x!r} (nearest is {xs[i]!r})"
            )
        return self.points[i][1]

    __call__ = value_at


def _lipschitz_excess(xs, ys, c: float) -> np.ndarray:
    """``|y_j - y_k| - c |x_j - x_k|`` for every pair ``(j, k)``: symmetric, and 0 on
    the diagonal for finite ``c``.

    Formed in place in two ``n x n`` arrays; at ``c = 1`` the product is skipped,
    since ``1.0 * g`` is ``g`` bit for bit.
    """
    out = ys[:, None] - ys
    np.abs(out, out)
    gap = xs[:, None] - xs
    np.abs(gap, gap)
    if c != 1.0:
        np.multiply(gap, c, gap)
    return np.subtract(out, gap, out)


def _lipschitz_violation(pts, c: float, tol: float):
    xs, ys = np.array(pts).T
    with np.errstate(invalid="ignore"):  # c = inf: inf * 0 on the diagonal, overwritten
        excess = _lipschitz_excess(xs, ys, c)
    excess[np.tri(len(pts), dtype=bool)] = -np.inf  # a non-finite value gives NaN there too
    j, k = divmod(int(np.nanargmax(excess)), len(pts))  # the first worst pair
    if not (excess[j, k] > tol or c >= 0):  # a negative c fails on any pair; a NaN c on none
        raise ValidationError("Lipschitz constant must be nonnegative")
    return (pts[j], pts[k]) if excess[j, k] > tol else None


@dataclass(frozen=True, eq=False)
class LipschitzExtension:
    """The greatest c-Lipschitz extension of a table to the whole line.

    This is McShane's extension (Bull. Amer. Math. Soc. 40, 1934): evaluation
    takes the pointwise minimum of the cones ``f(x_i) + c|x - x_i|``.  It is
    the upper extension; negate the table values (and the result) to obtain
    the lower one.  Construction raises :class:`PreconditionError` naming a
    violating pair when the table is not c-Lipschitz to within
    ``LIP_TOL * max(max |x|, max |f(x)|)`` over the table, relative at every scale.
    """

    table: FunctionTable
    constant: float

    def __post_init__(self):
        c, t = self.constant, self.table
        slack = LIP_TOL * max(np.abs(t.locations).max(), np.abs(t.values).max())
        bad = _lipschitz_violation(t.points, float(c), slack)
        if bad is not None:
            (x0, y0), (x1, y1) = bad
            raise PreconditionError(
                f"table is not {c}-Lipschitz: |f({x0}) - f({x1})| = {abs(y0 - y1)!r} "
                f"exceeds {c} * |{x0} - {x1}| = {c * abs(x0 - x1)!r}",
                witness=bad,
            )
        object.__setattr__(self, "constant", float(c))

    def __call__(self, x):
        xs = self.table.locations
        ys = self.table.values
        arr = np.asarray(x, dtype=np.float64)
        cones = ys + self.constant * np.abs(arr[..., None] - xs)
        out = cones.min(axis=-1)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

