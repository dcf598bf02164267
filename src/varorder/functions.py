"""Finite function tables and their Lipschitz extensions to the real line."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError
from .tolerances import LIP_TOL, PAIR_TOL_SCALE

_MAX_FLOAT = math.nextafter(math.inf, 0.0)  # the largest finite float


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


def _checked_int(value, low: int, high: float, message: str) -> int:
    """``value`` as an ``int``: an ``int`` or numpy integer, never a ``bool``, with
    ``low <= value < high``; a count, index or seed.  Else :class:`ValidationError`."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and low <= value < high:
        return int(value)
    raise ValidationError(message)


def _checked_dim(dim) -> int:
    return _checked_int(dim, 1, math.inf, f"dimension must be a positive integer, got {dim!r}")


def _checked_seed(seed) -> int:
    return _checked_int(seed, 0, math.inf, f"seed must be a nonnegative integer, got {seed!r}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an ``int``, ``float`` or numpy one, never a ``bool``."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _checked_real(value, message: str, low: float = -_MAX_FLOAT, high: float = _MAX_FLOAT) -> float:
    """``value`` as a ``float``: an ``int``, ``float`` or numpy real, never a ``bool``, in the
    closed ``[low, high]`` (``_checked_int``'s is half-open); else :class:`ValidationError`."""
    big = isinstance(value, int) and abs(value) > _MAX_FLOAT  # past float64's range
    x = float(value) if _is_real(value) and not big else math.nan
    if not low <= x <= high:  # a NaN too
        raise ValidationError(message)
    return x


def _checked_tol(tol) -> float:
    return _checked_real(tol, f"tolerance must be finite and >= 0, got {tol!r}", 0.0)


def _real_array(data, what: str) -> np.ndarray:
    """``data`` as a new float64 array; what is no real array is a :class:`ValidationError`,
    and so is a numpy complex entry, which numpy would cast to its real part."""
    try:
        a = np.array(data)
        complex_entry = a.dtype.kind == "c" or a.dtype.kind == "O" and any(
            isinstance(v, (complex, np.complexfloating)) for v in a.flat)
        if not complex_entry:  # cast from ``data`` itself, so an error names an entry as given
            return a if a.dtype == np.float64 else np.array(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc
    raise ValidationError(f"malformed {what}: entries must be real, got dtype {a.dtype}")


def _split_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """The first and the second coordinates of ``(x, y)`` pairs as two new float64 arrays."""
    pairs = tuple(pairs)
    message = "expected (x, y) pairs of two numbers each"
    try:
        xy = _real_array(pairs, "pairs")
    except ValidationError as exc:  # ragged, complex or too large
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
        xs, ys = _real_array(xs, "locations"), _real_array(ys, "values")
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
        """Value at the table point nearest to the real ``x`` (within ``tol``, finite and >= 0)."""
        if not _is_real(x):
            raise ValidationError(f"table argument must be a real number, got {x!r}")
        if isinstance(x, int) and abs(x) > _MAX_FLOAT:  # as far from every point as inf
            x = math.inf if x > 0 else -math.inf
        xs = self.locations
        with np.errstate(over="ignore"):  # a distance past the float64 maximum is inf
            dist = np.abs(xs - x)
        i = int(np.argmin(dist))
        if not dist[i] <= _checked_tol(tol):  # a NaN ``x`` matches nothing
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
        with np.errstate(over="ignore"):  # an allowance past the float64 maximum is inf
            np.multiply(gap, c, gap)
    return np.subtract(out, gap, out)


def _lipschitz_stage(xs: np.ndarray, ys: np.ndarray, tol: float, c: float = 1.0):
    """The worst pair ``(j, k, excess)`` of ``excess = |ys[j] - ys[k]| - c |xs[j] - xs[k]|
    - tol`` if positive, else ``None``: the table is c-Lipschitz within ``tol``.  Ties go
    to the first pair in ``(j, k)`` order; for finite ``c`` the excess is symmetric and
    ``-tol <= 0`` on the diagonal, so that pair has ``j < k``."""
    excess = _lipschitz_excess(xs, ys, c)
    excess -= tol
    worst = int(excess.argmax())
    if not excess.flat[worst] > 0:
        return None
    return *divmod(worst, len(xs)), excess.flat[worst]


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
        c, t = self.constant, self.table  # c as given, which the messages name
        object.__setattr__(self, "constant", _checked_real(
            c, f"Lipschitz constant must be a nonnegative number, got {c!r}", 0.0, math.inf))
        slack = LIP_TOL * max(np.abs(t.locations).max(), np.abs(t.values).max())
        # on halves, as in lipschitz_constant: no difference overflows; every table is inf-Lipschitz
        worst = (_lipschitz_stage(t.locations / 2, t.values / 2, slack / 2, self.constant)
                 if math.isfinite(c) else None)
        if worst is not None:
            j, k, _ = worst
            bad = tuple(zip(t.locations[[j, k]].tolist(), t.values[[j, k]].tolist()))
            (x0, y0), (x1, y1) = bad
            raise PreconditionError(
                f"table is not {c}-Lipschitz: |f({x0}) - f({x1})| / 2 = {abs(y0 / 2 - y1 / 2)!r} "
                f"exceeds {c} * |{x0} - {x1}| / 2 = {c * abs(x0 / 2 - x1 / 2)!r}",
                witness=bad,
            )

    def __call__(self, x):
        xs, ys = self.table.locations / 2, self.table.values / 2
        arr = _real_array(x, "extension argument")
        # on halves, as in the constructor: no distance overflows; c |x - x_i| is 0 where
        # the distance is, also for c = inf, and a NaN probe stays NaN
        dist = np.abs(arr[..., None] / 2 - xs)
        with np.errstate(over="ignore"):  # a cone or a value past the float64 maximum is inf
            cones = np.multiply(self.constant, dist, out=np.zeros_like(dist), where=dist != 0)
            out = 2 * (ys + cones).min(axis=-1)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out
