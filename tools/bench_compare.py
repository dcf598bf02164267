"""Compare two checkouts on the benchmark and on per-call layer timings; write one JSON file.

    python3 tools/bench_compare.py --base ../parent --out BENCH_label.json

``--base`` is a second checkout (for example ``git archive`` of the parent
commit); the checkout holding this script is the change.  For each workload
in ``BENCHMARK.json`` and each seed, ``bench/run.py --trace 0`` runs once in
each checkout, the two in alternating order (base first on odd seeds), and
every end-to-end metric is kept with its median, quartiles and the number of
pairs the change wins.  Then each checkout times its own layers in a fresh
process (``--layers DIR``), ``LAYER_ROUNDS`` processes per checkout in
alternating order: CPU seconds per call, the minimum over repeats and
processes, with one BLAS thread on one CPU; ``decide_order_cached_b`` decides an
observable against a ``B`` whose decomposition is already cached, as when one
``B`` meets many partners.  The ``witness_search`` oracle is timed at
the ``cli`` workload's setting, n = 8 with 32 restarts, on one holding and
one failing pair.

Last, each checkout digests its own outputs in a fresh process
(``--digest DIR``): every op of ``DIGEST_WORKLOADS`` at ``DIGEST_SECONDS``
run lengths, for each of ``DIGEST_SEEDS``, and the first ``DIGEST_CLI_CHUNKS``
chunks of the ``cli`` workload run in process, hashed per workload with
sha256.  Equal digests mean the change answers every op with the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
LAYER_DIMS = (5, 64)
ORACLE_DIM = 8
REPEATS = 7
# the host's speed swings for seconds at a time; alternating processes keep
# one slow window from landing on one checkout's layers only
LAYER_ROUNDS = 3
DIGEST_WORKLOADS = ("fresh-small", "fresh-large", "pool-order")
DIGEST_SEEDS = (1, 2, 3)
DIGEST_SECONDS = 20.0
DIGEST_CLI_CHUNKS = 3


def layer_timings(checkout: Path) -> dict:
    """Per-call CPU microseconds of each layer of ``checkout``'s varorder, at each of ``LAYER_DIMS``."""
    sys.path.insert(0, str(checkout / "src"))
    import numpy as np
    import varorder
    from varorder.functions import FunctionTable
    from varorder.linalg import HermitianObservable, SpectralDecomposition, eigendecompose, resolve_tol
    from varorder.order import OracleConfig, _margin_at, decide_order, witness_search

    if not Path(varorder.__file__).resolve().is_relative_to(checkout.resolve()):
        raise SystemExit(f"imported varorder from {varorder.__file__}, not from {checkout}")

    def per_call(fn, calls: int, fresh=None) -> float:
        # ``fresh`` builds one argument per call outside the timed loop
        best = float("inf")
        for _ in range(REPEATS):
            args = [fresh() for _ in range(calls)] if fresh else [None] * calls
            t0 = time.process_time()
            for arg in args:
                fn(arg)
            best = min(best, time.process_time() - t0)
        return 1e6 * best / calls

    def pair(n: int, seed: int):
        """A random ``B`` at dimension ``n`` and ``A = sin(B)``, for which the decision holds."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        raw_b = g + g.conj().T
        w, v = HermitianObservable(raw_b).eigenpairs
        return (v * np.sin(w)) @ v.conj().T, raw_b

    out = {}
    for n in LAYER_DIMS:
        calls = 2000 if n < 16 else 200
        raw_a, raw_b = pair(n, n)
        a, b = HermitianObservable(raw_a), HermitianObservable(raw_b)
        dec = eigendecompose(b)
        lams, vecs, ranks = np.array(dec.eigenvalues), np.array(dec.vectors), dec.ranks
        vals = np.sin(lams)
        probe = vecs[:, 0] + vecs[:, 1]
        out[f"n={n}"] = {
            "HermitianObservable": per_call(lambda _: HermitianObservable(raw_b), calls),
            "resolve_tol": per_call(lambda _: resolve_tol(None, a, b), calls),
            "eigendecompose_fresh": per_call(eigendecompose, calls, lambda: HermitianObservable(raw_b)),
            "eigendecompose_cached": per_call(lambda _: eigendecompose(b), calls),
            "SpectralDecomposition": per_call(lambda _: SpectralDecomposition(lams, vecs, ranks), calls),
            "FunctionTable.from_values": per_call(lambda _: FunctionTable.from_values(lams, vals), calls),
            "_margin_at": per_call(lambda _: _margin_at(a, b, probe), calls),
            "decide_order_fresh": per_call(lambda _: decide_order(raw_a, raw_b), calls),
            "decide_order_cached_b": per_call(lambda _: decide_order(a, b), calls),
        }
    holding = pair(ORACLE_DIM, ORACLE_DIM)
    failing = (pair(ORACLE_DIM, ORACLE_DIM + 1)[1], holding[1])  # an independent A: the order fails
    cfg = OracleConfig(restarts=32)
    out[f"n={ORACLE_DIM}"] = {
        f"witness_search_{name}": per_call(lambda _: witness_search(*ab, cfg), 3)
        for name, ab in (("holding", holding), ("failing", failing))
    }
    return out


def _verdict_bytes(out) -> bytes:
    """A decision's outcome as bytes: holds, margin, certificate or witness, or the error."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}".encode()
    payload = ([(x.hex(), y.hex()) for x, y in out.certificate.points] if out.holds
               else out.witness.vector.tobytes().hex())
    return repr((out.holds, out.margin.hex(), payload)).encode()


def _cli_bytes(out) -> bytes:
    """A command's exit code and stdout, less the oracle's best value."""
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError:
        return repr((out.code, out.stdout)).encode()
    report.get("oracle", {}).pop("best_value", None)
    return repr((out.code, json.dumps(report, sort_keys=True))).encode()


def output_digest(checkout: Path) -> dict:
    """sha256 of ``checkout``'s answer to every op of each digested workload."""
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    from bench import harness, workloads

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in DIGEST_WORKLOADS:
            wl, h = workloads.make(name, checkout, Path(tmp)), hashlib.sha256()
            for seed in DIGEST_SEEDS:
                ops, k = harness.run_length(wl, DIGEST_SECONDS), 0
                while ops > 0:
                    chunk = wl.chunk(seed, k)
                    for item in chunk[:ops]:
                        h.update(_verdict_bytes(wl.run(item)))
                    ops, k = ops - len(chunk), k + 1
            out[name] = h.hexdigest()
        wl, h = workloads.make("cli", checkout, Path(tmp)), hashlib.sha256()
        for seed in DIGEST_SEEDS:
            for k in range(DIGEST_CLI_CHUNKS):
                for item in wl.chunk(seed, k):
                    h.update(_cli_bytes(wl.run_inprocess(item)))
                wl.release(k)
        out["cli"] = h.hexdigest()
    return out


def bench_run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    import numpy as np

    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def compare(base: Path, seeds: int, seconds: float) -> dict:
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = {"base": [], "change": []}
        for seed in range(1, seeds + 1):
            order = [("base", base), ("change", HERE)]
            for side, checkout in order if seed % 2 else order[::-1]:
                runs[side].append(bench_run(checkout, name, seed, seconds))
                print(f"{name} seed {seed} {side}: {runs[side][-1]['metrics']}", file=sys.stderr)
        row = {side: {"attempted": [r["attempted"] for r in rs], "failed": [r["failed"] for r in rs],
                      "correct": all(r["correct"] for r in rs)} for side, rs in runs.items()}
        for metric in spec["end_to_end"]:
            m, sign = metric["name"], 1 if metric["better"] == "higher" else -1
            vals = {side: [r["metrics"][m]["value"] for r in rs] for side, rs in runs.items()}
            for side in runs:
                row[side][m] = summary(vals[side])
            row[m + ".change_wins"] = sum(
                sign * (c - p) > 0 for p, c in zip(vals["base"], vals["change"]))
            row[m + ".median_ratio"] = row["change"][m]["median"] / row["base"][m]["median"]
        workloads[name] = row
    return workloads


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpu_time": "time.process_time",
            **{var: os.environ.get(var) for var in BLAS_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", type=Path, help="checkout of the commit to compare against")
    p.add_argument("--out", type=Path, help="JSON file to write")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--layers", type=Path, help=argparse.SUPPRESS)  # child mode: time one checkout
    p.add_argument("--digest", type=Path, help=argparse.SUPPRESS)  # child mode: hash one's outputs
    args = p.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.layers:
        print(json.dumps(layer_timings(args.layers)))
        return 0
    if args.digest:
        print(json.dumps(output_digest(args.digest.resolve())))
        return 0
    if args.base is None or args.out is None:
        p.error("--base and --out are required")

    def child(mode: str, checkout: Path) -> dict:
        cmd = [sys.executable, str(Path(__file__).resolve()), mode, str(checkout.resolve())]
        return json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)

    def digests() -> dict:
        base, change = child("--digest", args.base), child("--digest", HERE)
        return {name: {"base": base[name], "change": change[name], "equal": base[name] == change[name]}
                for name in base}

    def fastest_layers() -> dict:
        runs = {"base": [], "change": []}
        sides = [("base", args.base), ("change", HERE)]
        for k in range(LAYER_ROUNDS):
            for side, checkout in sides if k % 2 == 0 else sides[::-1]:
                runs[side].append(child("--layers", checkout))
        return {side: {n: {name: min(r[n][name] for r in rs) for name in rs[0][n]} for n in rs[0]}
                for side, rs in runs.items()}

    record = {
        "machine": machine_facts(),
        "seeds": list(range(1, args.seeds + 1)),
        "seconds": args.seconds,
        "order": "base first on odd seeds, change first on even seeds",
        "workloads": compare(args.base.resolve(), args.seeds, args.seconds),
        "layers_us_per_call": fastest_layers(),
        "digest": digests(),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
