"""Independent answer checks, in plain numpy.

Each check returns ``None`` for a correct answer and a one-line reason
otherwise.  Answers arrive as plain data (a verdict flag, certificate points,
a witness vector, or a parsed JSON report), so the same checks serve the
in-process and the command-line workloads.
"""

from __future__ import annotations

import math

import numpy as np

from .gen import FAILS, HOLDS, ROUND_SCALE, Pair, q_closed_form

# varorder's documented floor for a witness margin, in variance units.
MARGIN_FLOOR = 1e-9
POINT_RTOL = 1e-9


def _variance(m: np.ndarray, x: np.ndarray) -> float:
    mx = m @ x
    e = float(np.vdot(x, mx).real)
    return float(np.vdot(mx, mx).real) - e * e


def check_witness(pair: Pair, witness) -> str | None:
    x = np.asarray(witness, dtype=np.complex128)
    if x.shape != (pair.b.matrix.shape[0],):
        return f"witness has shape {x.shape}"
    if abs(float(np.linalg.norm(x)) - 1.0) > 1e-9:
        return f"witness norm {float(np.linalg.norm(x))!r} is not 1"
    margin = _variance(pair.a.matrix, x) - _variance(pair.b.matrix, x)
    if not margin > MARGIN_FLOOR:
        return f"witness margin {margin!r} does not exceed {MARGIN_FLOOR:.0e}"
    return None


def check_certificate(pair: Pair, points) -> str | None:
    """A 1-Lipschitz table on eig(B) (within tol) that rebuilds A within tol.

    ``eig(B)`` comes from ``numpy.linalg.eigh``.  Each eigenvalue must lie
    within ``n * tol`` of a table point (a tolerance group spans at most
    ``n - 1`` steps of tol), and ``sum_k f(w_k) v_k v_k*`` must match ``A``
    within ``2 sqrt(n) tol``, the most that per-eigenspace residues of tol
    each can add up to.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pair.b.matrix.shape[0]
    if pts.ndim != 2 or pts.shape[1] != 2 or not 1 <= len(pts) <= n:
        return f"certificate has shape {pts.shape}"
    xs, ys = pts[:, 0], pts[:, 1]
    if np.any(np.diff(xs) <= 0):
        return "certificate locations are not strictly increasing"
    tol = pair.tol
    slack = ROUND_SCALE * max(1.0, pair.a.norm, pair.b.norm)
    w, v = np.linalg.eigh(pair.b.matrix)
    idx = np.abs(w[:, None] - xs[None, :]).argmin(axis=1)
    off = float(np.abs(xs[idx] - w).max())
    if off > n * tol + slack:
        return f"certificate locations miss eig(B) by {off:.3e}"
    if len(set(idx.tolist())) != len(xs):
        return "certificate has a location that is no eigenvalue of B"
    rebuilt = (v * ys[idx]) @ v.conj().T
    err = float(np.linalg.norm(rebuilt - pair.a.matrix))
    if err > 2.0 * math.sqrt(n) * tol + n * slack:
        return f"certificate rebuilds A with error {err:.3e} (tol {tol:.3e})"
    excess = np.abs(ys[:, None] - ys[None, :]) - np.abs(xs[:, None] - xs[None, :])
    if float(excess.max()) > tol + slack:
        return f"certificate is not 1-Lipschitz: excess {float(excess.max()):.3e}"
    return None


def check_decision(pair: Pair, holds: bool, points, witness) -> str | None:
    if pair.expected == HOLDS and not holds:
        return "verdict fails where the construction holds"
    if pair.expected == FAILS and holds:
        return "verdict holds where the construction fails"
    return check_certificate(pair, points) if holds else check_witness(pair, witness)


def check_order_report(pair: Pair, code: int, report: dict, oracle: bool) -> str | None:
    """``check-order`` exit code and JSON report."""
    holds = report.get("holds")
    if code != (0 if holds else 1):
        return f"exit code {code} for holds={holds!r}"
    if oracle and report.get("oracle", {}).get("agrees") is not True:
        return "oracle report missing or disagreeing"
    if holds:
        return check_decision(pair, True, report["certificate"], None)
    wit = np.asarray(report["witness"], dtype=np.float64)
    return check_decision(pair, False, None, wit[:, 0] + 1j * wit[:, 1])


def check_q_report(points: np.ndarray, code: int, report: dict) -> str | None:
    q = np.asarray(report.get("q"), dtype=np.float64)
    ref = q_closed_form(points)
    if code != 0 or q.shape != ref.shape:
        return f"q-matrix exit code {code}, shape {q.shape}"
    diam = float(np.ptp(points))
    if float(np.abs(q - ref).max()) > POINT_RTOL * diam:
        return "q-matrix differs from the closed form"
    return None


def check_reconstruct_report(points: np.ndarray, code: int, report: dict) -> str | None:
    """Spectrum anchored at 0, sorted, equal to the points up to reflection."""
    if code != 0:
        return f"reconstruct-metric exit code {code}"
    got = np.asarray(report.get("spectrum"), dtype=np.float64)
    dist = np.asarray(report.get("distances"), dtype=np.float64)
    atol = POINT_RTOL * float(np.ptp(points))
    ref_dist = np.abs(points[:, None] - points[None, :])
    if dist.shape != ref_dist.shape or float(np.abs(dist - ref_dist).max()) > atol:
        return "reconstructed distances differ from the points"
    for ref in (np.sort(points - points.min()), np.sort(points.max() - points)):
        if got.shape == ref.shape and float(np.abs(got - ref).max()) <= atol:
            return None
    return "reconstructed spectrum differs from the points"


def check_automorphism_report(trials: int, code: int, report: dict) -> str | None:
    if code != 0 or report.get("passed") is not True or report.get("trials") != trials:
        return f"verify-automorphism exit code {code}, report {report.get('passed')!r}"
    return None
