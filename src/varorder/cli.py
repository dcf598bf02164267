"""Command-line interface: JSON files in, JSON reports out.

Matrices are ``{"dim": n, "matrix": [[[re, im], ...], ...]}`` (row-major),
states are ``{"dim": n, "vector": [[re, im], ...]}`` or
``{"dim": n, "density": ...}``, spectra are flat JSON arrays.  Exit codes:
0 success or positive verdict, 1 negative verdict, 2 input error,
3 internal inconsistency (including decision/oracle disagreement).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    EigensolverError,
    InternalConsistencyError,
    PreconditionError,
    ValidationError,
    VarOrderError,
)
from .functions import _checked_int, _checked_seed, _real_array
from .linalg import HermitianObservable, UnitaryMap, resolve_tol
from .order import (
    canonical_representative,
    decide_order,
    extract_function,
    witness_search,
)
from .states import DensityState, PureState, maximal_deviation, variance
from .structure import (
    AutomorphismSpec,
    QMatrix,
    _sampling_dim,
    joint_upper_bound,
    q_matrix,
    reconstruct_metric,
    two_point_lower_set,
    verify_automorphism,
)
from .tolerances import ORACLE_AGREE_TOL


def _dim(data) -> int:
    n = data["dim"]  # no float, string or bool (JSON true) is read as a dimension
    return _checked_int(n, 1, math.inf, f"malformed dim: expected an integer, got {n!r}")


def _complex_field(data: dict, key: str, path: str) -> np.ndarray:
    """``data[key]``'s ``[re, im]`` pairs as a complex ``(dim,)`` or ``(dim, dim)`` array."""
    arr = _real_array(data[key], key)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError(f"malformed {key}: entries must be [re, im] pairs")
    z = arr[..., 0] + 1j * arr[..., 1]
    n = _dim(data)
    if z.shape != ((n,) if key == "vector" else (n, n)):
        raise ValidationError(f"{path}: {key} shape {z.shape} does not match dim {n}")
    return z


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if not isinstance(data, dict) or "matrix" not in data or "dim" not in data:
        raise ValidationError(f"{path}: expected an object with 'dim' and 'matrix'")
    return _complex_field(data, "matrix", path)


def _observable(path: str) -> HermitianObservable:
    return HermitianObservable(load_matrix(path))


def load_state(path: str):
    data = _load_json(path)
    if not isinstance(data, dict) or "dim" not in data:
        raise ValidationError(f"{path}: expected an object with 'dim'")
    _dim(data)  # a malformed dim is reported before a missing or malformed field
    for key, state in (("vector", PureState), ("density", DensityState)):
        if key in data:
            return state(_complex_field(data, key, path))
    raise ValidationError(f"{path}: state needs a 'vector' or 'density' field")


def load_spectrum(arg: str) -> list[float]:
    if os.path.exists(arg):
        pts = _real_array(_load_json(arg), f"spectrum in {arg}")
    else:
        pts = _real_array([tok for tok in arg.split(",") if tok.strip()], f"spectrum {arg!r}")
    if pts.ndim != 1:
        raise ValidationError(f"{arg}: spectrum file must be a flat JSON array")
    return pts.tolist()


def complex_pairs(m: np.ndarray):
    return np.stack((m.real, m.imag), axis=-1).tolist()


def matrix_report(obs: HermitianObservable) -> dict:
    return {"dim": obs.dim, "matrix": complex_pairs(obs.matrix)}


def emit(report: dict) -> None:
    """Print ``report`` as JSON, stamped with the package version."""
    print(json.dumps({**report, "version": __version__}, indent=2))


def cmd_check_order(args) -> int:
    a, b = _observable(args.a), _observable(args.b)
    tol = resolve_tol(args.tol, a, b)
    _checked_seed(args.seed)  # as the oracle checks it, without loading numpy.random
    verdict = decide_order(a, b, tol)
    report = {
        "holds": verdict.holds,
        "certificate": verdict.certificate.points if verdict.holds else None,
        "witness": None if verdict.holds else complex_pairs(verdict.witness.vector),
        "margin": verdict.margin,
        "tol": tol,
    }
    code = 0 if verdict.holds else 1
    if args.oracle_trials:
        _, best = witness_search(a, b, restarts=args.oracle_trials, seed=args.seed)
        # in variance units: never looser than ORACLE_AGREE_TOL, tighter below scale 1
        s2 = a.frobenius_norm**2 + b.frobenius_norm**2
        agrees = verdict.holds == (best <= ORACLE_AGREE_TOL * min(1.0, s2))
        report["oracle"] = {
            "restarts": args.oracle_trials,
            "seed": args.seed,
            "best_value": best,
            "agrees": agrees,
        }
        if not agrees:
            code = 3
    emit(report)
    return code


def cmd_extract_function(args) -> int:
    a, b = _observable(args.a), _observable(args.b)
    try:
        table = extract_function(a, b, args.tol)
    except PreconditionError as exc:  # only a failing order: the error carries its witness
        emit({"error": str(exc), "witness": complex_pairs(exc.witness.vector)})
        return 1
    emit({"points": table.points})
    return 0


def cmd_variance(args) -> int:
    obs = _observable(args.observable)
    state = load_state(args.state)
    emit({"variance": variance(obs, state)})
    return 0


def cmd_joint_upper_bound(args) -> int:
    a, b = _observable(args.a), _observable(args.b)
    bound = joint_upper_bound(a, b, args.tol)
    emit(matrix_report(bound))
    return 0


def cmd_lower_set(args) -> int:
    a = _observable(args.a)
    families = [
        {
            "eigenvalues": list(f.eigenvalues),
            "threshold": f.threshold,
            "projector": complex_pairs(f.projector),
        }
        for f in two_point_lower_set(a)
    ]
    emit({"families": families})
    return 0


def cmd_q_matrix(args) -> int:
    qm = q_matrix(load_spectrum(args.spectrum), method=args.method)
    emit({"n": qm.n, "q": qm.values.tolist()})
    return 0


def cmd_reconstruct_metric(args) -> int:
    data = _load_json(args.q)
    if not isinstance(data, dict) or "q" not in data:
        raise ValidationError(f"{args.q}: expected an object with a 'q' field")
    d, spectrum = reconstruct_metric(QMatrix(data["q"]))
    emit({"distances": d.tolist(), "spectrum": spectrum.tolist()})
    return 0


def cmd_verify_automorphism(args) -> int:
    if args.unitary is None:
        m = np.eye(_sampling_dim(3 if args.dim is None else args.dim))
    else:
        m = load_matrix(args.unitary)
    if args.dim not in (None, len(m)):  # without --unitary, len(m) is args.dim
        raise ValidationError(f"--dim {args.dim} differs from {args.unitary}'s dimension {len(m)}")
    u = UnitaryMap(m, antiunitary=args.antiunitary)
    spec = AutomorphismSpec(args.alpha, u)
    report = verify_automorphism(spec, args.trials, u.dim, seed=args.seed)
    payload = {"passed": report.passed, "trials": report.trials, "counterexample": None}
    if report.counterexample is not None:
        ca, cb = report.counterexample
        payload["counterexample"] = {
            "trial": report.trials - 1,  # the counterexample ends the run
            "a": matrix_report(ca),
            "b": matrix_report(cb),
        }
    emit(payload)
    return 0 if report.passed else 1


def cmd_canonical(args) -> int:
    a = _observable(args.a)
    emit(matrix_report(canonical_representative(a)))
    return 0


def cmd_max_deviation(args) -> int:
    a = _observable(args.a)
    emit({"maximal_deviation": maximal_deviation(a)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varorder",
        description="Variance-order decision procedure and order-structure tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    a = argparse.ArgumentParser(add_help=False)  # the arguments of each command on one A ...
    a.add_argument("a", metavar="A.json")
    ab = argparse.ArgumentParser(add_help=False, parents=[a])  # ... and on a pair A, B
    ab.add_argument("b", metavar="B.json")
    ab.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("check-order", parents=[ab],
                       help="decide whether A is below B in the variance order")
    p.add_argument("--oracle-trials", type=int, default=0, metavar="N",
                   help="also run the gradient oracle with N restarts")
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("extract-function", parents=[ab], help="certificate table when the order holds")

    p = sub.add_parser("variance", help="variance of an observable in a state")
    p.add_argument("observable", metavar="OBS.json")
    p.add_argument("state", metavar="STATE.json")

    sub.add_parser("joint-upper-bound", parents=[ab], help="common upper bound of a commuting pair")
    sub.add_parser("lower-set", parents=[a], help="two-point threshold families below A")

    p = sub.add_parser("q-matrix", help="pairwise gap matrix of a spectrum")
    p.add_argument("spectrum", metavar="SPECTRUM", help="comma-separated values or a JSON file")
    p.add_argument("--method", choices=("closed", "enumerate"), default="closed")

    p = sub.add_parser("reconstruct-metric", help="recover distances and spectrum from a gap matrix")
    p.add_argument("q", metavar="Q.json")

    p = sub.add_parser("verify-automorphism", help="sampling check of an order automorphism")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--unitary", metavar="U.json", default=None)
    p.add_argument("--antiunitary", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--dim", type=int, default=None)  # 3 without --unitary
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("canonical", parents=[a], help="canonical representative of the class of A")
    sub.add_parser("max-deviation", parents=[a], help="largest standard deviation over all states")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]  # x-y runs cmd_x_y
    try:
        return command(args)
    except (InternalConsistencyError, EigensolverError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, VarOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
