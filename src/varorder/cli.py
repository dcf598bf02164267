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


def _numeric(data, what: str):
    """``data`` as a float array; malformed input is a :class:`ValidationError`."""
    try:
        return np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def _pairs_to_complex(data, shape_hint: str) -> np.ndarray:
    arr = _numeric(data, shape_hint)
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise ValidationError(f"malformed {shape_hint}: entries must be [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _dim(data) -> int:
    n = data["dim"]
    if type(n) is not int:  # no float, string or bool (JSON true) is read as a dimension
        raise ValidationError(f"malformed dim: expected an integer, got {n!r}")
    return n


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_matrix(path: str) -> np.ndarray:
    data = _load_json(path)
    if not isinstance(data, dict) or "matrix" not in data or "dim" not in data:
        raise ValidationError(f"{path}: expected an object with 'dim' and 'matrix'")
    m = _pairs_to_complex(data["matrix"], "matrix")
    n = _dim(data)
    if m.shape != (n, n):
        raise ValidationError(f"{path}: matrix shape {m.shape} does not match dim {n}")
    return m


def load_state(path: str):
    data = _load_json(path)
    if not isinstance(data, dict) or "dim" not in data:
        raise ValidationError(f"{path}: expected an object with 'dim'")
    n = _dim(data)
    if "vector" in data:
        x = _pairs_to_complex(data["vector"], "vector")
        if x.shape != (n,):
            raise ValidationError(f"{path}: vector shape {x.shape} does not match dim {n}")
        return PureState(x)
    if "density" in data:
        m = _pairs_to_complex(data["density"], "density")
        if m.shape != (n, n):
            raise ValidationError(f"{path}: density shape {m.shape} does not match dim {n}")
        return DensityState(m)
    raise ValidationError(f"{path}: state needs a 'vector' or 'density' field")


def load_spectrum(arg: str) -> list[float]:
    if os.path.exists(arg):
        pts = _numeric(_load_json(arg), f"spectrum in {arg}")
    else:
        pts = _numeric([tok for tok in arg.split(",") if tok.strip()], f"spectrum {arg!r}")
    if pts.ndim != 1:
        raise ValidationError(f"{arg}: spectrum file must be a flat JSON array")
    return pts.tolist()


def complex_pairs(m: np.ndarray):
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_report(obs: HermitianObservable) -> dict:
    return {"dim": obs.dim, "matrix": complex_pairs(obs.matrix)}


def emit(report: dict) -> None:
    """Print ``report`` as JSON, stamped with the package version."""
    print(json.dumps({**report, "version": __version__}, indent=2))


def cmd_check_order(args) -> int:
    a = HermitianObservable(load_matrix(args.a))
    b = HermitianObservable(load_matrix(args.b))
    tol = resolve_tol(args.tol, a, b)
    verdict = decide_order(a, b, tol)
    report = {
        "holds": verdict.holds,
        "certificate": [list(p) for p in verdict.certificate.points] if verdict.holds else None,
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
    a = HermitianObservable(load_matrix(args.a))
    b = HermitianObservable(load_matrix(args.b))
    try:
        table = extract_function(a, b, args.tol)
    except PreconditionError as exc:  # only a failing order: the error carries its witness
        emit({"error": str(exc), "witness": complex_pairs(exc.witness.vector)})
        return 1
    emit({"points": [list(p) for p in table.points]})
    return 0


def cmd_variance(args) -> int:
    obs = HermitianObservable(load_matrix(args.observable))
    state = load_state(args.state)
    emit({"variance": variance(obs, state)})
    return 0


def cmd_joint_upper_bound(args) -> int:
    a = HermitianObservable(load_matrix(args.a))
    b = HermitianObservable(load_matrix(args.b))
    bound = joint_upper_bound(a, b, args.tol)
    emit(matrix_report(bound))
    return 0


def cmd_lower_set(args) -> int:
    a = HermitianObservable(load_matrix(args.a))
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
    emit({"n": qm.n, "q": [[float(v) for v in row] for row in qm.values]})
    return 0


def cmd_reconstruct_metric(args) -> int:
    data = _load_json(args.q)
    if not isinstance(data, dict) or "q" not in data:
        raise ValidationError(f"{args.q}: expected an object with a 'q' field")
    d, spectrum = reconstruct_metric(QMatrix(_numeric(data["q"], "gap matrix")))
    emit(
        {
            "distances": [[float(v) for v in row] for row in d],
            "spectrum": [float(v) for v in spectrum],
        }
    )
    return 0


def cmd_verify_automorphism(args) -> int:
    if args.unitary is not None:
        u = UnitaryMap(load_matrix(args.unitary), antiunitary=args.antiunitary)
    else:
        u = UnitaryMap(np.eye(_sampling_dim(args.dim)), antiunitary=args.antiunitary)
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
    a = HermitianObservable(load_matrix(args.a))
    emit(matrix_report(canonical_representative(a)))
    return 0


def cmd_max_deviation(args) -> int:
    a = HermitianObservable(load_matrix(args.a))
    emit({"maximal_deviation": maximal_deviation(a)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varorder",
        description="Variance-order decision procedure and order-structure tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-order", help="decide whether A is below B in the variance order")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--oracle-trials", type=int, default=0, metavar="N",
                   help="also run the gradient oracle with N restarts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check_order)

    p = sub.add_parser("extract-function", help="certificate table when the order holds")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_extract_function)

    p = sub.add_parser("variance", help="variance of an observable in a state")
    p.add_argument("observable", metavar="OBS.json")
    p.add_argument("state", metavar="STATE.json")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("joint-upper-bound", help="common upper bound of a commuting pair")
    p.add_argument("a", metavar="A.json")
    p.add_argument("b", metavar="B.json")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_joint_upper_bound)

    p = sub.add_parser("lower-set", help="two-point threshold families below A")
    p.add_argument("a", metavar="A.json")
    p.set_defaults(func=cmd_lower_set)

    p = sub.add_parser("q-matrix", help="pairwise gap matrix of a spectrum")
    p.add_argument("spectrum", metavar="SPECTRUM", help="comma-separated values or a JSON file")
    p.add_argument("--method", choices=("closed", "enumerate"), default="closed")
    p.set_defaults(func=cmd_q_matrix)

    p = sub.add_parser("reconstruct-metric", help="recover distances and spectrum from a gap matrix")
    p.add_argument("q", metavar="Q.json")
    p.set_defaults(func=cmd_reconstruct_metric)

    p = sub.add_parser("verify-automorphism", help="sampling check of an order automorphism")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--unitary", metavar="U.json", default=None)
    p.add_argument("--antiunitary", action="store_true")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_automorphism)

    p = sub.add_parser("canonical", help="canonical representative of the class of A")
    p.add_argument("a", metavar="A.json")
    p.set_defaults(func=cmd_canonical)

    p = sub.add_parser("max-deviation", help="largest standard deviation over all states")
    p.add_argument("a", metavar="A.json")
    p.set_defaults(func=cmd_max_deviation)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InternalConsistencyError, EigensolverError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, VarOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
