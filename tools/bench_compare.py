"""Compare two checkouts on the benchmark and on per-call layer timings; write one JSON file.

    python3 tools/bench_compare.py --base ../parent --out BENCH_label.json

``--base`` is a second checkout (for example ``git archive`` of the parent
commit); the checkout holding this script is the change.  For each workload
in ``BENCHMARK.json`` and each seed from 1 to ``--seeds`` (10),
``bench/run.py --trace 0`` runs once in each checkout, the two in alternating
order (base first on odd seeds), and every end-to-end metric is kept with its
median, quartiles and the number of pairs the change wins.  Then each checkout
times its own layers in a fresh process (``--layers DIR``), ``LAYER_ROUNDS``
processes per checkout in alternating order: CPU seconds per call, the minimum
over repeats and processes, with one BLAS thread on one CPU;
``decide_order_cached_b`` decides an
observable against a ``B`` whose decomposition is already cached, as when one
``B`` meets many partners, and ``decide_order_cached_b_fails`` does the same for
an independent ``A``, for which the order fails, as in most of ``pool-order``'s
decisions; its offending eigenspace has rank one, so the witness is that
eigenspace's one column.  ``decide_order_cached_b_fails_repeated`` decides the same
``A`` against the repeated ``B`` below, also cached, whose offending eigenspace has
rank two, so the witness is the better of two columns, and
``decide_order_cached_b_fails_superposition`` decides ``A = 1.5 B`` against the first
cached ``B``, which fails the Lipschitz stage, so the witness is the superposition of
two eigenvector columns.  On every cached ``_fails`` row the witness depends on ``B``
alone, so a checkout that keeps it with ``B``'s decomposition builds it in the first
call only.  ``SpectralDecomposition``
times that class's construction through the call every checkout shares:
``eigendecompose`` of a new observable whose eigenpairs are already solved, so the
grouping, the reconstruction check and the stored arrays, but no eigensolve.  Each
observable keeps its decomposition and stays in the repeat's argument list, so every
decomposition of a repeat stays alive until the repeat ends.  The
``_repeated`` layers take a ``B`` whose two lowest eigenvalues are equal, like the
benchmark's ``repeated`` pairs, so its grouping merges one pair where the other ``B``
merges none.  The ``decide_order_fails_*`` layers time one failing decision per witness route,
each on fresh arrays against the first ``B``: an independent ``A`` (an
eigenbasis column), ``A = 1.5 B`` (the Lipschitz stage's superposition), and,
against the repeated ``B``, an ``A`` diagonal in that ``B``'s own eigenbasis but
not scalar on the repeated eigenspace, so that every eigenbasis column is an
eigenvector of ``A`` and the residue stage's fallback decides.  ``variance`` is the
public call at the pure state ``_margin_at`` is timed at, the sum of ``B``'s first two
eigenvector columns, normalized.  ``_residue_stage``
and ``_lipschitz_stage``, the two stages of ``decide_order``, are timed on the
holding pair's arrays in ``B``'s eigenbasis, built before the timed loop.  The
``witness_search`` oracle is timed at the ``cli`` workload's setting, n = 8
with 32 restarts (a keyword in both checkouts), on one holding and one
failing pair, and the structure routines at
the ``cli`` workload's sizes: ``q_matrix(method="enumerate")`` on
``Q_POINTS`` points, ``reconstruct_metric`` on the gap matrix of
``RECONSTRUCT_POINTS`` distinct points, and ``verify_automorphism`` of a scaled
unitary conjugation at dimension ``AUTOMORPHISM_DIM`` over
``AUTOMORPHISM_TRIALS`` trials.  ``joint_upper_bound`` is timed at each
``LAYER_CALLS`` dimension on a ``random_commuting_pair``, whose ``A`` repeats
eigenvalues.  The ``process`` rows are the child CPU (user and system,
``RUSAGE_CHILDREN``) of one process, the median over ``REPEATS`` processes, each
run in the checkout with its ``src`` as ``PYTHONPATH``: ``PROCESS_ARGV``'s
command from start to exit, and ``python -c "import varorder"`` for the start-up
alone.

Last, each checkout digests its own outputs in a fresh process
(``--digest DIR``): every op of ``DIGEST_WORKLOADS`` at ``DIGEST_SECONDS``
run lengths, for each of ``DIGEST_SEEDS``, the first ``DIGEST_CLI_CHUNKS``
chunks of the ``cli`` workload run in process, and ``EVERY_SUBCOMMAND``, a fixed
set that runs each of the ten subcommands, its verdicts and its input errors in
process through ``varorder.cli.main`` (among them the two real-valued options
outside their intervals: ``--tol -1`` and ``nan``, ``--alpha 0`` and ``nan``),
hashed per workload (or set) with sha256 twice.  ``digest`` hashes every byte of
each answer, the margin's hex included; equal digests mean the change answers
every op with the same bytes.
``answers`` hashes the same bytes less the margin (for the CLI, less each
report's ``margin`` field), so it stays equal when only a margin's rounding
moves and tells whether the verdicts, certificates, witnesses, exit codes and
errors did; a command whose stdout is not JSON is hashed with its stderr.
``margins`` then gives, per workload, how many margins differ and the largest
relative change, ``|change - base| / |base|``.

``src_lines`` gives each checkout's ``wc -l src/varorder/*.py``: the line
count of every module and their total.  The ``BENCH_*.json`` files at the
repository root are such records; a new comparison adds a file and never edits
an old one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# each layer dimension and its calls per repeat, fewer where a call costs more, so
# that one checkout's layer pass stays under a minute
LAYER_CALLS = {5: 2000, 64: 200, 128: 25}
ORACLE_DIM = 8
ORACLE_RESTARTS = 32
Q_POINTS = 12
RECONSTRUCT_POINTS = 8
AUTOMORPHISM_DIM = 3
AUTOMORPHISM_TRIALS = 50
PROCESS_ARGV = ("-m", "varorder", "q-matrix", "0,1,3,7")
REPEATS = 7
# the host's speed swings for seconds at a time; alternating processes keep
# one slow window from landing on one checkout's layers only
LAYER_ROUNDS = 3
DIGEST_WORKLOADS = ("fresh-small", "fresh-large", "pool-order")
DIGEST_SEEDS = (1, 2, 3)
DIGEST_SECONDS = 20.0
DIGEST_CLI_CHUNKS = 3
EVERY_SUBCOMMAND = "every-subcommand"
EVERY_SUBCOMMAND_SEED = 24


def layer_timings(checkout: Path) -> dict:
    """Per-call CPU microseconds of each layer of ``checkout``'s varorder at each ``LAYER_CALLS`` dimension."""
    sys.path.insert(0, str(checkout / "src"))
    import numpy as np
    import varorder
    from varorder.functions import FunctionTable
    from varorder.linalg import HermitianObservable, eigendecompose, resolve_tol
    from varorder.order import (
        _lipschitz_stage, _margin_at, _residue_stage, decide_order, witness_search,
    )
    from varorder.sampling import random_commuting_pair, random_unitary
    from varorder.states import PureState, variance
    from varorder.structure import (
        AutomorphismSpec, joint_upper_bound, q_matrix, reconstruct_metric, verify_automorphism,
    )

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

    def pair(n: int, seed: int, repeated: bool = False):
        """A random ``B`` at dimension ``n`` and ``A = sin(B)``, for which the decision holds;
        with ``repeated``, ``B``'s second eigenvalue is set to its first."""
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        raw_b = g + g.conj().T
        w, v = HermitianObservable(raw_b).eigenpairs
        if repeated:
            w = np.r_[w[0], w[0], w[2:]]
            raw_b = (v * w) @ v.conj().T
        return (v * np.sin(w)) @ v.conj().T, raw_b

    def solved(raw):
        """A new observable whose eigenpairs are already solved, so no decomposition yet."""
        obs = HermitianObservable(raw)
        obs.eigenpairs
        return obs

    out = {}
    for n, calls in LAYER_CALLS.items():
        raw_a, raw_b = pair(n, n)
        rep_a, rep_b = pair(n, n, repeated=True)
        a, b = HermitianObservable(raw_a), HermitianObservable(raw_b)
        a_fails = HermitianObservable(pair(n, n + 1)[1])  # independent of b, and of rep
        a_stretched = HermitianObservable(1.5 * raw_b)
        rep = HermitianObservable(rep_b)
        dec = eigendecompose(b)
        lams, vecs = np.array(dec.eigenvalues), np.array(dec.vectors)
        vals = np.sin(lams)
        probe = vecs[:, 0] + vecs[:, 1]
        state = PureState.normalized(probe)
        rep_w, rep_v = HermitianObservable(rep_b).eigenpairs
        split = np.sin(rep_w)
        split[1] = split[0] + 1.0
        fails = {
            "basis": (pair(n, n + 1)[1], raw_b),
            "lipschitz": (1.5 * raw_b, raw_b),
            "fallback": ((rep_v * split) @ rep_v.conj().T, rep_b),
        }
        cached = {"cached_b": (a_fails, b), "cached_b_repeated": (a_fails, rep),
                  "cached_b_superposition": (a_stretched, b)}
        for route, ab in {**fails, **cached}.items():
            if decide_order(*ab).holds:
                raise SystemExit(f"the {route} pair at n={n} does not fail")
        out[f"n={n}"] = {
            "HermitianObservable": per_call(lambda _: HermitianObservable(raw_b), calls),
            "resolve_tol": per_call(lambda _: resolve_tol(None, a, b), calls),
            "eigendecompose_fresh": per_call(eigendecompose, calls, lambda: HermitianObservable(raw_b)),
            "eigendecompose_fresh_repeated": per_call(
                eigendecompose, calls, lambda: HermitianObservable(rep_b)),
            "eigendecompose_cached": per_call(lambda _: eigendecompose(b), calls),
            "SpectralDecomposition": per_call(eigendecompose, calls, lambda: solved(raw_b)),
            "FunctionTable.from_values": per_call(lambda _: FunctionTable.from_values(lams, vals), calls),
            "_margin_at": per_call(lambda _: _margin_at(a, b, probe), calls),
            "PureState.normalized": per_call(lambda _: PureState.normalized(probe), calls),
            "variance": per_call(lambda _: variance(a, state), calls),
            "decide_order_fresh": per_call(lambda _: decide_order(raw_a, raw_b), calls),
            "decide_order_fresh_repeated": per_call(lambda _: decide_order(rep_a, rep_b), calls),
            "decide_order_cached_b": per_call(lambda _: decide_order(a, b), calls),
            "decide_order_cached_b_fails": per_call(lambda _: decide_order(a_fails, b), calls),
            "decide_order_cached_b_fails_repeated": per_call(lambda _: decide_order(a_fails, rep), calls),
            "decide_order_cached_b_fails_superposition": per_call(
                lambda _: decide_order(a_stretched, b), calls),
            **{f"decide_order_fails_{route}": per_call(lambda _, ab=ab: decide_order(*ab), calls)
               for route, ab in fails.items()},
        }
        grouped = eigendecompose(b)
        tol = resolve_tol(None, a, b)
        residue_args = (grouped.vectors.conj().T @ a.matrix @ grouped.vectors, grouped.labels,
                        grouped.residue_bins, grouped.rank_floats, tol)
        scalars = _residue_stage(*residue_args)[0]
        commuting = random_commuting_pair(n, seed=n)
        out[f"n={n}"].update({
            "_residue_stage": per_call(lambda _: _residue_stage(*residue_args), calls),
            "_lipschitz_stage": per_call(
                lambda _: _lipschitz_stage(grouped.eigenvalues, scalars, tol), calls),
            "joint_upper_bound": per_call(lambda _: joint_upper_bound(*commuting), calls),
        })
    holding = pair(ORACLE_DIM, ORACLE_DIM)
    failing = (pair(ORACLE_DIM, ORACLE_DIM + 1)[1], holding[1])  # an independent A: the order fails
    out[f"n={ORACLE_DIM}"] = {
        f"witness_search_{name}": per_call(lambda _: witness_search(*ab, restarts=ORACLE_RESTARTS), 3)
        for name, ab in (("holding", holding), ("failing", failing))
    }

    def points(n: int):
        """``n`` distinct points in random order, adjacent gaps between 1 and 2."""
        rng = np.random.default_rng(n)
        return rng.permutation(np.cumsum(rng.uniform(1.0, 2.0, n)))

    spectrum, gaps = points(Q_POINTS), q_matrix(points(RECONSTRUCT_POINTS))
    phi = AutomorphismSpec(2.0, random_unitary(AUTOMORPHISM_DIM, seed=AUTOMORPHISM_DIM))
    out["structure"] = {
        f"q_matrix_enumerate_n={Q_POINTS}": per_call(lambda _: q_matrix(spectrum, "enumerate"), 100),
        f"reconstruct_metric_n={RECONSTRUCT_POINTS}": per_call(lambda _: reconstruct_metric(gaps), 500),
        f"verify_automorphism_dim={AUTOMORPHISM_DIM}": per_call(
            lambda _: verify_automorphism(phi, AUTOMORPHISM_TRIALS, AUTOMORPHISM_DIM), 3
        ),
    }
    out["process"] = {
        f"python {' '.join(argv)}": process_cpu(checkout, argv)
        for argv in (PROCESS_ARGV, ("-c", "import varorder"))
    }
    return out


def process_cpu(checkout: Path, argv) -> float:
    """Median CPU microseconds of ``python *argv`` over ``REPEATS`` processes, each run in
    ``checkout`` with its ``src`` as ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cpu = []
    for _ in range(REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True, check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu.append(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
    return 1e6 * statistics.median(cpu)


def _verdict_bytes(out, margin: bool) -> bytes:
    """A decision's outcome as bytes: holds, margin (if ``margin``), certificate or
    witness, or the error."""
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}".encode()
    payload = ([(x.hex(), y.hex()) for x, y in out.certificate.points] if out.holds
               else out.witness.vector.tobytes().hex())
    return repr((out.holds, out.margin.hex() if margin else None, payload)).encode()


def _cli_report(out) -> dict | None:
    """A command's JSON report less the oracle's best value, or None when stdout is not JSON."""
    try:
        report = json.loads(out.stdout)
    except json.JSONDecodeError:
        return None
    report.get("oracle", {}).pop("best_value", None)
    return report


def _cli_bytes(out, report: dict | None, margin: bool) -> bytes:
    """A command's exit code and stdout, less the oracle's best value and, unless
    ``margin``, the report's margin; with stderr when stdout is not JSON."""
    if report is None:
        return repr((out.code, out.stdout, out.stderr)).encode()
    if not margin:
        report = {key: value for key, value in report.items() if key != "margin"}
    return repr((out.code, json.dumps(report, sort_keys=True))).encode()


def _every_subcommand_inputs(d: Path) -> list[list[str]]:
    """Write ``EVERY_SUBCOMMAND``'s input files to ``d`` and return its argv lists, relative
    to ``d``: each of the ten subcommands on valid input, each verdict and route, and the
    input errors the JSON readers refuse."""
    import numpy as np

    rng = np.random.default_rng(EVERY_SUBCOMMAND_SEED)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def pairs(z) -> list:
        z = np.asarray(z, dtype=complex)
        return np.stack((z.real, z.imag), axis=-1).tolist()

    def write(name: str, data) -> str:
        (d / name).write_text(json.dumps(data), encoding="utf-8")
        return name

    def matrix(name: str, m, dim=None) -> str:
        return write(name, {"dim": len(m) if dim is None else dim, "matrix": pairs(m)})

    argv = []
    for n in (3, 8):
        g = gaussian(n, n)
        w, v = np.linalg.eigh(g + g.conj().T)
        # B, A = sin(B) below it, and C = B^2, which commutes with A
        b, a, c = (matrix(f"{name}{n}.json", (v * f) @ v.conj().T)
                   for name, f in (("b", w), ("a", np.sin(w)), ("c", w**2)))
        g = gaussian(n, n)
        other = matrix(f"other{n}.json", g + g.conj().T)  # independent of B: the order fails
        x, g = gaussian(n), gaussian(n, n)
        vector = write(f"vector{n}.json", {"dim": n, "vector": pairs(x / np.linalg.norm(x))})
        rho = g @ g.conj().T
        density = write(f"density{n}.json", {"dim": n, "density": pairs(rho / np.trace(rho).real)})
        argv += [
            ["check-order", a, b], ["check-order", other, b], ["check-order", b, a],
            ["check-order", a, b, "--oracle-trials", "4", "--seed", "5"],
            ["check-order", other, b, "--oracle-trials", "4", "--seed", "5"],
            ["check-order", other, b, "--tol", "1e-3"],
            ["extract-function", a, b], ["extract-function", other, b],
            ["variance", b, vector], ["variance", b, density],
            ["joint-upper-bound", a, c], ["joint-upper-bound", other, b],
            ["canonical", a], ["max-deviation", other],
        ]
    unitary = matrix("unitary.json", np.linalg.qr(gaussian(3, 3))[0])
    spectrum = write("spectrum.json", np.cumsum(rng.uniform(1.0, 2.0, 12)).tolist())
    q = [[0, 1, 3, 6], [1, 0, 2, 6], [3, 2, 0, 4], [6, 6, 4, 0]]  # the gap matrix of 0, 1, 3, 7
    argv += [
        ["verify-automorphism", "--unitary", unitary, "--alpha", "0.5", "--trials", "10", "--seed", "3"],
        ["verify-automorphism", "--unitary", unitary, "--antiunitary", "--trials", "10"],
        ["verify-automorphism", "--dim", "4", "--trials", "10"],
        ["lower-set", "b3.json"],  # n = 3 only: at n = 8 its report is 0.8 MB
        ["q-matrix", "0,1,3,7,12"], ["q-matrix", spectrum, "--method", "enumerate"],
        ["reconstruct-metric", write("q.json", {"q": q})],
        # input errors: a field not of [re, im] pairs, a shape other than dim, no state field,
        # a dim that is no integer, a non-Hermitian matrix, a missing file, bad gap matrices
        ["max-deviation", write("pairs.json", {"dim": 2, "matrix": [[[1, 0, 0], [0, 0, 0]]] * 2})],
        ["max-deviation", matrix("shape.json", np.eye(2), dim=3)],
        ["variance", "b3.json", write("no-field.json", {"dim": 3})],
        ["variance", "b3.json", write("short.json", {"dim": 3, "vector": [[1, 0], [0, 0]]})],
        ["variance", "b3.json", write("flat.json", {"dim": 3, "density": [[1, 0]]})],
        ["canonical", matrix("dim.json", np.eye(2), dim=True)],
        ["canonical", matrix("upper.json", [[0, 1], [0, 0]])],
        ["canonical", "missing.json"],
        ["q-matrix", "0,1,1,3"],
        ["reconstruct-metric", write("asymmetric.json", {"q": [[0, 1, 2, 3]] * 4})],
        # the two real-valued options outside their intervals
        ["check-order", "a3.json", "b3.json", "--tol", "-1"],
        ["check-order", "a3.json", "b3.json", "--tol", "nan"],
        ["verify-automorphism", "--alpha", "0"], ["verify-automorphism", "--alpha", "nan"],
    ]
    return argv


def output_digest(checkout: Path) -> dict:
    """sha256 of ``checkout``'s answer to every op of each digested workload, with
    (``digest``) and without (``answers``) the margins, and the margins themselves."""
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    from bench import harness, workloads

    out = {"digest": {}, "answers": {}, "margins": {}}

    def record(name: str, answers: list) -> None:
        # ``answers`` holds (bytes with the margin, bytes without it, margin) per op
        for key, pos in (("digest", 0), ("answers", 1)):
            h = hashlib.sha256()
            for item in answers:
                h.update(item[pos])
            out[key][name] = h.hexdigest()
        out["margins"][name] = [item[2] for item in answers]

    with tempfile.TemporaryDirectory() as tmp:
        for name in DIGEST_WORKLOADS:
            wl, answers = workloads.make(name, checkout, Path(tmp)), []
            for seed in DIGEST_SEEDS:
                ops, k = harness.run_length(wl, DIGEST_SECONDS), 0
                while ops > 0:
                    chunk = wl.chunk(seed, k)
                    for item in chunk[:ops]:
                        res = wl.run(item)
                        answers.append((_verdict_bytes(res, True), _verdict_bytes(res, False),
                                        None if isinstance(res, Exception) else res.margin))
                    ops, k = ops - len(chunk), k + 1
            record(name, answers)
        wl, answers = workloads.make("cli", checkout, Path(tmp)), []
        for seed in DIGEST_SEEDS:
            for k in range(DIGEST_CLI_CHUNKS):
                for item in wl.chunk(seed, k):
                    res = wl.run_inprocess(item)
                    report = _cli_report(res)
                    answers.append((_cli_bytes(res, report, True), _cli_bytes(res, report, False),
                                    (report or {}).get("margin")))
                wl.release(k)
        record("cli", answers)
        d, answers = Path(tmp) / "every", []
        d.mkdir()
        cwd = os.getcwd()
        os.chdir(d)  # relative paths: error messages name the same files in either checkout
        try:
            for argv in _every_subcommand_inputs(d):
                res = wl.run_inprocess(workloads.CliItem(argv, None))
                report = _cli_report(res)
                answers.append((_cli_bytes(res, report, True), _cli_bytes(res, report, False),
                                (report or {}).get("margin")))
        finally:
            os.chdir(cwd)
        record(EVERY_SUBCOMMAND, answers)
    return out


def margin_changes(base: list, change: list) -> dict:
    """How many of two runs' margins differ, and the largest relative change among them."""
    pairs = [(p, c) for p, c in zip(base, change) if p is not None and c is not None]
    moved = [(p, c) for p, c in pairs if p != c]
    return {"margins": len(pairs), "changed": len(moved),
            "max_rel_change": max((abs(c - p) / abs(p) if p else math.inf for p, c in moved),
                                  default=0.0)}


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


def src_lines(checkout: Path) -> dict:
    """``wc -l src/varorder/*.py`` of ``checkout``: newlines per module, and the total."""
    counts = {path.name: path.read_bytes().count(b"\n")
              for path in sorted((checkout / "src" / "varorder").glob("*.py"))}
    return {**counts, "total": sum(counts.values())}


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "cpu_time": "time.process_time",
            **{var: os.environ.get(var) for var in BLAS_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
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
        out = {key: {name: {"base": b, "change": change[key][name], "equal": b == change[key][name]}
                     for name, b in base[key].items()}
               for key in ("digest", "answers")}
        out["margins"] = {name: margin_changes(m, change["margins"][name])
                          for name, m in base["margins"].items()}
        return out

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
        **digests(),
        "src_lines": {"base": src_lines(args.base), "change": src_lines(HERE)},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
