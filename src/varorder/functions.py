"""Finite function tables and their Lipschitz extensions to the real line."""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _split_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second coordinates of ``(x, y)`` pairs as two new float64 arrays."""
    pairs = tuple(pairs)
    message = "expected (x, y) pairs of two numbers each"
    try:
        xy = np.array(pairs, dtype=np.float64)
    except ValueError as exc:  # ragged pairs
        raise ValidationError(message) from exc
    if pairs and xy.shape[1:] != (2,):  # a pair of other than two numbers, or nested deeper
        raise ValidationError(message)
    xy = xy.reshape(len(pairs), 2)  # no pairs: the caller names what is empty
    return xy[:, 0].copy(), xy[:, 1].copy()


@dataclass(frozen=True, eq=False)
class FunctionTable:
    """A real function given on finitely many points.

    It stores the frozen float64 arrays ``locations``, finite and strictly
    increasing, and ``values``, finite; ``points`` reads them back as a tuple of
    ``(x, f(x))`` pairs of Python floats.  :class:`LipschitzExtension` checks
    that a table is c-Lipschitz.
    """

    locations: np.ndarray
    values: np.ndarray

    def __init__(self, points):
        self._store(*_split_pairs(points))

    def _store(self, xs: np.ndarray, ys: np.ndarray) -> None:
        _check_points(xs, "function table needs at least one point", "table point locations")
        if not np.isfinite(ys).all():
            raise ValidationError("table values must be finite")
        object.__setattr__(self, "locations", _freeze(xs))
        object.__setattr__(self, "values", _freeze(ys))

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.locations.tolist(), self.values.tolist()))

    @classmethod
    def from_mapping(cls, mapping) -> "FunctionTable":
        return cls(sorted((float(k), float(v)) for k, v in mapping.items()))

    @classmethod
    def from_values(cls, xs, ys) -> "FunctionTable":
        xs, ys = np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1:
            raise ValidationError(f"locations {xs.shape} and values {ys.shape} must be 1-D")
        if len(xs) != len(ys):
            raise ValidationError(f"{len(xs)} locations but {len(ys)} values")
        table = cls.__new__(cls)
        table._store(xs, ys)
        return table

    def lipschitz_constant(self) -> float:
        """Smallest constant c with |f(x)-f(y)| <= c|x-y| on the table points.

        On increasing locations a slope across a point is a weighted mean of the
        slopes on either side, so the steepest slope is between neighbours."""
        xs, ys = self.locations / 2, self.values / 2  # halves: no difference overflows
        rise = np.abs(np.diff(ys))
        # halves of a subnormal gap can round together: 0 / 0 is slope 0, rise / 0 is inf,
        # and so is a slope past the float64 maximum
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            slopes = np.where(rise > 0, rise / np.diff(xs), 0.0)
        return float(np.max(slopes, initial=0.0))

    def value_at(self, x: float, tol: float = PAIR_TOL_SCALE) -> float:
        """Value at the table point nearest to ``x`` (within ``tol``)."""
        xs = self.locations
        i = int(np.argmin(np.abs(xs - x)))
        if not abs(xs[i] - x) <= tol:  # a NaN ``x`` matches nothing
            raise DomainError(
                f"no table point within {tol:.3e} of {float(x)!r} (nearest is {float(xs[i])!r})"
            )
        return float(self.values[i])

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


def _lipschitz_violation(xs: np.ndarray, ys: np.ndarray, c: float, tol: float):
    """The first worst pair of points, as Python floats, whose excess passes ``tol``; or None."""
    with np.errstate(invalid="ignore"):  # c = inf: inf * 0 on the diagonal, overwritten
        excess = _lipschitz_excess(xs, ys, c)
    excess[np.tri(len(xs), dtype=bool)] = -np.inf  # a non-finite value gives NaN there too
    j, k = divmod(int(np.nanargmax(excess)), len(xs))  # the first worst pair
    if not (excess[j, k] > tol or c >= 0):  # a negative c fails on any pair; a NaN c on none
        raise ValidationError("Lipschitz constant must be nonnegative")
    return tuple(zip(xs[[j, k]].tolist(), ys[[j, k]].tolist())) if excess[j, k] > tol else None


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
        bad = _lipschitz_violation(t.locations, t.values, float(c), slack)
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

