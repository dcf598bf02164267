"""The four workloads: how each builds a chunk of inputs, runs one op, and checks it.

An op is one ``decide_order`` call, or one ``python -m varorder`` process.
Each workload has a ``cycle`` (the ops of one balanced mix), a ``rate`` (the
nominal ops per CPU second that sizes a run, see ``harness.run_length``) and
a ``clock`` that op CPU time is read from.  ``chunk(seed, k)`` is the set-up
for ops ``k * size ...``: it generates inputs with :mod:`bench.gen` and,
where the op needs them, builds ``HermitianObservable`` objects or writes
JSON files.  Every chunk is built afresh, so no spectral cache from an
earlier chunk or run reaches a timed call.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from varorder import cli as _cli
from varorder import order as _order
from varorder.errors import VarOrderError
from varorder.linalg import HermitianObservable

from . import check, gen

OK, ERROR, WRONG = "ok", "error", "wrong"

# Nominal ops per CPU second of each workload on a 2-core x86-64 VM (Python
# 3.11, numpy 2.4, one BLAS thread).  They only size a run: a run of
# ``--seconds s`` does about ``s * rate`` ops, rounded to whole cycles.
RATE_SMALL = 390.0
RATE_LARGE = 3.7
RATE_POOL = 2000.0
RATE_CLI = 3.0


def _decide(a, b):
    try:
        return _order.decide_order(a, b)
    except VarOrderError as exc:
        return exc


def _check_verdict(pair: gen.Pair, out) -> tuple[str, str | None]:
    if isinstance(out, VarOrderError):
        return ERROR, f"{pair.kind} n={pair.b.matrix.shape[0]}: {type(out).__name__}: {out}"
    reason = check.check_decision(
        pair,
        out.holds,
        out.certificate.points if out.holds else None,
        None if out.holds else out.witness.vector,
    )
    return (OK, None) if reason is None else (WRONG, f"{pair.kind}: {reason}")


class InProcess:
    """Workloads whose op is one in-process ``decide_order`` call."""

    clock = staticmethod(time.process_time)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def release(self, k: int) -> None:
        pass

    def close(self) -> None:
        pass


class Fresh(InProcess):
    """Fresh pairs as raw complex arrays, so no spectral cache can exist."""

    def __init__(self, name: str, dims: tuple[int, ...], size: int, rate: float):
        self.name, self.dims, self.size, self.rate = name, dims, size, rate
        self.cycle = len(dims) * len(gen.KINDS)

    def chunk(self, seed: int, k: int) -> list[gen.Pair]:
        return gen.fresh_chunk(self.name, seed, k, self.dims, self.size)

    def run(self, pair: gen.Pair):
        return _decide(pair.a.matrix, pair.b.matrix)

    def check(self, pair: gen.Pair, out) -> tuple[str, str | None]:
        return _check_verdict(pair, out)


class Pool(InProcess):
    """All ordered pairs of a pool of sixteen observables built afresh for the chunk."""

    name = "pool-order"
    size = 240
    cycle = size * len(gen.POOL_DIMS)
    rate = RATE_POOL

    def chunk(self, seed: int, k: int) -> list[tuple]:
        # A cycle of four pools holds each dimension once and four evenly spaced
        # scale slices; over eight cycles every dimension meets every slice.
        dims = gen.POOL_DIMS
        stratum = 2 * (k % len(dims)) + k // len(dims)
        members = gen.pool_members(gen.rng_for(self.name, seed, k), dims[k % len(dims)], stratum)
        objs = [HermitianObservable(m.matrix) for m in members]
        return [(objs[i], objs[j], pair) for i, j, pair in gen.pool_pairs(members)]

    def run(self, item):
        return _decide(item[0], item[1])

    def check(self, item, out) -> tuple[str, str | None]:
        return _check_verdict(item[2], out)


@dataclass(frozen=True, eq=False)
class CliItem:
    argv: list[str]
    verify: Callable[[int, dict], str | None]


@dataclass(frozen=True)
class CliOut:
    code: int
    stdout: str
    stderr: str


def _matrix_json(m: np.ndarray) -> dict:
    return {"dim": m.shape[0], "matrix": np.stack([m.real, m.imag], axis=-1).tolist()}


class Cli:
    """Sequential ``python -m varorder`` processes, one command mix per chunk."""

    name = "cli"
    cycle = size = 7
    rate = RATE_CLI

    def __init__(self, root: Path, workdir: Path):
        self.root, self.workdir = root, workdir

    def _write(self, path: Path, data) -> str:
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def chunk(self, seed: int, k: int) -> list[CliItem]:
        rng = gen.rng_for(self.name, seed, k)
        d = self.workdir / f"chunk{k}"
        d.mkdir(parents=True, exist_ok=True)
        items = []

        def order_item(tag: str, pair: gen.Pair, oracle: int) -> CliItem:
            a = self._write(d / f"{tag}-a.json", _matrix_json(pair.a.matrix))
            b = self._write(d / f"{tag}-b.json", _matrix_json(pair.b.matrix))
            argv = ["check-order", a, b]
            if oracle:
                argv += ["--oracle-trials", str(oracle), "--seed", str(int(rng.integers(1 << 30)))]
            return CliItem(argv, lambda code, rep: check.check_order_report(pair, code, rep, bool(oracle)))

        kind = gen.KINDS[k % len(gen.KINDS)]
        items.append(order_item("n4", gen.fresh_pair(rng, 4, kind, gen.log_uniform(rng, -1, 1)), 0))
        items.append(order_item("n32", gen.fresh_pair(rng, 32, kind, gen.log_uniform(rng, -1, 1)), 0))
        for tag in ("holding", "independent"):
            items.append(order_item(f"oracle-{tag}", gen.fresh_pair(rng, 8, tag, gen.log_uniform(rng, -1, 1)), 32))

        u = self._write(d / "u.json", _matrix_json(gen.haar_unitary(rng, 3)))
        alpha = gen.log_uniform(rng, -1, 1)
        argv = ["verify-automorphism", "--trials", "50", "--dim", "3", "--unitary", u,
                "--alpha", repr(alpha), "--seed", str(int(rng.integers(1 << 30)))]
        items.append(CliItem(argv, lambda code, rep: check.check_automorphism_report(50, code, rep)))

        q_pts = gen.distinct_points(rng, 12)
        spec = self._write(d / "spectrum.json", q_pts.tolist())
        items.append(CliItem(["q-matrix", spec, "--method", "enumerate"],
                             lambda code, rep: check.check_q_report(q_pts, code, rep)))

        r_pts = gen.distinct_points(rng, 8)
        q = self._write(d / "q.json", {"q": gen.q_closed_form(r_pts).tolist()})
        items.append(CliItem(["reconstruct-metric", q],
                             lambda code, rep: check.check_reconstruct_report(r_pts, code, rep)))
        return items

    @staticmethod
    def clock() -> float:
        """CPU seconds of this process and of every child it has waited for."""
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + kids.ru_utime + kids.ru_stime

    def run(self, item: CliItem) -> CliOut:
        proc = subprocess.Popen(
            [sys.executable, "-m", "varorder", *item.argv],
            cwd=self.root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        out, err = proc.communicate()
        return CliOut(proc.returncode, out, err)

    def run_inprocess(self, item: CliItem) -> CliOut:
        """The same command through ``varorder.cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _cli.main(item.argv)
        return CliOut(code, out.getvalue(), err.getvalue())

    def check(self, item: CliItem, out: CliOut) -> tuple[str, str | None]:
        where = " ".join(item.argv[:1] + [Path(a).name for a in item.argv[1:]])
        if out.code not in (0, 1):
            return ERROR, f"{where}: exit {out.code}: {out.stderr.strip()[-300:]}"
        try:
            report = json.loads(out.stdout)
        except json.JSONDecodeError as exc:
            return WRONG, f"{where}: unreadable report: {exc}"
        reason = item.verify(out.code, report)
        return (OK, None) if reason is None else (WRONG, f"{where}: {reason}")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def release(self, k: int) -> None:
        shutil.rmtree(self.workdir / f"chunk{k}", ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, root: Path, workdir: Path):
    if name == "fresh-small":
        return Fresh(name, gen.SMALL_DIMS, 224, RATE_SMALL)
    if name == "fresh-large":
        return Fresh(name, gen.LARGE_DIMS, 3, RATE_LARGE)
    if name == "pool-order":
        return Pool()
    if name == "cli":
        return Cli(root, workdir)
    raise ValueError(f"unknown workload {name!r}")

