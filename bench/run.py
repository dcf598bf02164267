"""varorder benchmark: one workload, one closed-loop client, one JSON result line.

    python3 bench/run.py --workload fresh-small --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` and nowhere else.  A run does a fixed number of ops set by
``--seconds``, so the same seed and seconds attempt the same ops.  With
``--trace 0`` the last line holds the end-to-end metrics; with ``--trace 1``
it holds the per-layer metrics of a separate traced run.  Lines before it
repeat every metric with its unit and the machine facts.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / ".out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fresh-small", "fresh-large", "pool-order", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run length: about this many CPU seconds of ops at the workload's nominal rate")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare_environment() -> None:
    """One BLAS thread and one CPU here and in every child; children import the checkout's src.

    Pinning to one CPU makes the ops and the reference kernel that gauges the
    machine's speed run where the gauge reads it.  A fixed hash seed keeps
    each child's start-up work the same from one process to the next.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if sys.path and Path(sys.path[0]).resolve() == ROOT / "bench":
        sys.path.pop(0)
    sys.path[:0] = [str(SRC), str(ROOT)]


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        **{var: os.environ.get(var) for var in BLAS_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "varorder" / "__init__.py").is_file():
        print(f"error: no varorder package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    prepare_environment()
    import varorder

    if Path(varorder.__file__).resolve().parent != (SRC / "varorder").resolve():
        print(f"error: imported varorder from {varorder.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench import harness, workloads

    OUT.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, ROOT, OUT / f"work-{os.getpid()}")
    try:
        if args.trace:
            metrics, loop, extra = harness.traced(wl, args.seed, args.seconds, ROOT, OUT)
        else:
            metrics, loop, extra = harness.untraced(wl, args.seed, args.seconds, ROOT)
    finally:
        wl.close()
    wrong = loop.status[workloads.WRONG] + loop.probe_wrong
    facts = machine_facts()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"# attempted={loop.attempted} ok={loop.status[workloads.OK]} "
          f"error={loop.status[workloads.ERROR]} wrong={wrong}")
    for reason in loop.reasons:
        print(f"# not ok: {reason}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {**result, "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
