"""Exact referees: variances at a pure state in Gaussian rationals, and the distance
from ``A`` to the lower set of ``B`` in dimension 2.

Every float is a rational number, so the variance gap of two float matrices at a
float vector, and the distance of two float 2 x 2 matrices, have exact values; they
are computed here with ``fractions.Fraction``, with no rounding anywhere.
"""

from fractions import Fraction


def _moments(m, x):
    """``x* M x`` and ``|M x|^2`` for a Hermitian ``M``, exactly, with ``x`` as
    pairs of real and imaginary parts."""
    mean = sq = Fraction(0)
    for row, (xr, xi) in zip(m, x):
        yr = yi = Fraction(0)
        for entry, (vr, vi) in zip(row, x):
            er, ei = Fraction(float(entry.real)), Fraction(float(entry.imag))
            yr += er * vr - ei * vi
            yi += er * vi + ei * vr
        mean += xr * yr + xi * yi  # the real part of conj(x_i) (M x)_i
        sq += yr * yr + yi * yi
    return mean, sq


def exact_gap(a, b, vec) -> Fraction:
    """``var(a) - var(b)`` at the state along ``vec``, exactly: with ``s = |x|^2``, each
    variance is ``(s |M x|^2 - (x* M x)^2) / s^2``."""
    x = [(Fraction(float(v.real)), Fraction(float(v.imag))) for v in vec]
    s = sum(xr * xr + xi * xi for xr, xi in x)
    (ma, sa), (mb, sb) = _moments(a, x), _moments(b, x)
    return (s * (sa - sb) - (ma * ma - mb * mb)) / (s * s)


def _pauli(m) -> tuple[Fraction, Fraction, Fraction]:
    """``(x, y, z)`` with ``m = m0 I + x X + y Y + z Z``, exactly, for a 2 x 2 Hermitian
    ``m``: ``x = Re m01``, ``y = -Im m01``, ``z = (m00 - m11) / 2``."""
    m01 = m[0][1]
    return (Fraction(float(m01.real)), -Fraction(float(m01.imag)),
            (Fraction(float(m[0][0].real)) - Fraction(float(m[1][1].real))) / 2)


def exact_distance2(a, b) -> Fraction:
    """``d(A, B)^2 = min |A - f(B)|_F^2`` over 1-Lipschitz ``f``, exactly, for the 2 x 2
    Hermitian matrices ``a`` and ``b``.

    With Pauli vectors ``a`` and ``b`` of their traceless parts, ``f(B)`` is a multiple
    of ``I`` plus ``t`` times ``B``'s traceless part, where ``|t| <= 1`` because ``f``'s
    two values differ by at most ``B``'s eigenvalue gap ``2 |b|``.  The multiple of ``I``
    matches ``A``'s, and ``|x . sigma|_F^2 = 2 |x|^2``, so ``d^2 = 2 |a - t b|^2``
    minimized over ``t`` in ``[-1, 1]``: ``t = clamp(a . b / |b|^2, -1, 1)``, and ``t = 0``
    when ``b = 0``."""
    pa, pb = _pauli(a), _pauli(b)
    bb = sum(q * q for q in pb)
    t = min(max(sum(p * q for p, q in zip(pa, pb)) / bb, -1), 1) if bb else 0
    return 2 * sum((p - t * q) ** 2 for p, q in zip(pa, pb))
