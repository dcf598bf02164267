"""An exact referee for witnesses: variances at a pure state in Gaussian rationals.

Every float is a rational number, so the variance gap of two float matrices at a
float vector has an exact value; it is computed here with ``fractions.Fraction``
real and imaginary parts, with no rounding anywhere.
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
