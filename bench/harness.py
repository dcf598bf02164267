"""Closed-loop runs, the traced run, and the metrics each reports."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from varorder import order as _order

from . import reference, spans
from .workloads import OK, WRONG, Cli

SETUP_REPEATS = 7
# Reference-kernel calls that gauge the machine's speed before each set-up repeat.
SETUP_REF_CALLS = 20
STARTUP_REPEATS = 5
# Share of the traced run's ops that are run again, with and without spans, to price the tracing.
OVERHEAD_SHARE = 0.1
# Traced CPU seconds' worth of ops (at least one whole cycle) rerun under tracemalloc.
ALLOC_SECONDS = 0.2
P99_MIN_OPS = 1000
# Each window of whole cycles holding at least this many CPU seconds of op
# time is scaled to reference speed by the reference-kernel calls made in it,
# so that a slow or fast spell of a shared machine cancels out.
WINDOW_SECONDS = 1.0

IMPORT_PROBE = "import time; t = time.process_time(); import varorder; print(time.process_time() - t)"


@dataclass
class Loop:
    """Per-op CPU seconds, per-op wall seconds and checked outcomes of one closed loop."""

    times: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)
    # (ops done when it ran, CPU seconds) of each reference-kernel call
    refs: list[tuple[int, float]] = field(default_factory=list)
    status: Counter = field(default_factory=Counter)
    reasons: list[str] = field(default_factory=list)
    # wrong answers from the traced run's in-process pass over the cli mix
    probe_wrong: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.attempted - self.status[OK]


def run_length(wl, seconds: float) -> int:
    """Ops in a run: ``seconds`` at the workload's nominal rate, in whole cycles (at least one).

    The count depends only on ``seconds``, so two runs with the same seed
    attempt the same ops and, the program being deterministic, fail the same
    ones.
    """
    return wl.cycle * max(1, round(seconds * wl.rate / wl.cycle))


def closed_loop(wl, seed: int, ops: int, run=None, tracer=None, first=None, gauge=False) -> Loop:
    """One client with no think time: each op starts when the previous one returns.

    Runs exactly ``ops`` ops.  Each op is timed on its own, in CPU seconds of
    ``wl.clock`` (and in wall seconds beside it).  Building a chunk of inputs
    and checking its answers happen between chunks, outside the timed ops.
    With ``gauge``, the reference kernel runs between ops, outside the timed
    ops, for ``reference.REF_SHARE`` of the op CPU time, so every window of
    the run knows the machine's speed while it ran.
    """
    run = run or wl.run
    loop, k, debt = Loop(), 0, 0.0
    chunk = first if first is not None else wl.chunk(seed, 0)
    clock, wall = wl.clock, time.perf_counter
    while True:
        outs = []
        for item in chunk[: ops - loop.attempted]:
            w0 = wall()
            if tracer is None:
                t0 = clock()
                out = run(item)
                dt = clock() - t0
            else:
                out, dt = tracer.run_op(loop.attempted, run, item)
            loop.wall.append(wall() - w0)
            loop.times.append(dt)
            outs.append((item, out))
            debt += dt * reference.REF_SHARE if gauge else 0.0
            while debt > 0.0:
                r = reference.timed()
                loop.refs.append((loop.attempted, r))
                debt -= r
        for item, out in outs:
            status, reason = wl.check(item, out)
            loop.status[status] += 1
            if reason is not None and len(loop.reasons) < 5:
                loop.reasons.append(reason)
        wl.release(k)
        if loop.attempted >= ops:
            return loop
        k += 1
        chunk = wl.chunk(seed, k)


def windows(times: list[float], cycle: int) -> list[slice]:
    """Split the ops into consecutive whole cycles of at least ``WINDOW_SECONDS`` of CPU time.

    A short remainder joins the last full window.
    """
    out, start, spent = [], 0, 0.0
    for end in range(cycle, len(times) + 1, cycle):
        spent += sum(times[end - cycle:end])
        if spent >= WINDOW_SECONDS:
            out.append(slice(start, end))
            start, spent = end, 0.0
    if start < len(times):
        if out:
            out[-1] = slice(out[-1].start, len(times))
        else:
            out.append(slice(0, len(times)))
    return out


def normalised_times(loop: Loop, cycle: int) -> np.ndarray:
    """Per-op CPU seconds scaled to reference speed.

    The ops of a window are divided by ``reference.factor`` of the reference
    kernel calls made during that window's ops.
    """
    at = np.array([i for i, _ in loop.refs])
    ref = np.array([r for _, r in loop.refs])
    out = np.array(loop.times)
    for w in windows(loop.times, cycle):
        out[w] /= reference.factor(ref[(at > w.start) & (at <= w.stop)])
    return out


def _child_seconds(root: Path, argv: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=root, capture_output=True, text=True, check=True)
    return time.perf_counter() - t0, proc.stdout


def untraced(wl, seed: int, seconds: float, root: Path) -> tuple[dict, Loop, dict]:
    """End-to-end metrics, plus figures printed beside them (latency percentiles, failure share).

    Set-up is the CPU time of ``import varorder`` in a fresh interpreter plus
    that of building the first chunk of inputs, each repeat scaled to
    reference speed by reference-kernel calls made just before it, and each
    the median of ``SETUP_REPEATS``.
    """
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        speed = reference.factor([reference.timed() for _ in range(SETUP_REF_CALLS)])
        imports.append(float(_child_seconds(root, ["-c", IMPORT_PROBE])[1]) / speed)
        t0 = time.process_time()
        first = wl.chunk(seed, 0)
        builds.append((time.process_time() - t0) / speed)
    setup_s = statistics.median(imports) + statistics.median(builds)
    loop = closed_loop(wl, seed, run_length(wl, seconds), first=first, gauge=True)
    norm = normalised_times(loop, wl.cycle)
    metrics = {
        "ops_per_cpu_s": (loop.attempted / float(norm.sum()), "1/s"),
        "op_cpu_p50_ms": (float(np.percentile(norm, 50)) * 1e3, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {
        "op_cpu_p90_ms": (float(np.percentile(norm, 90)) * 1e3, "ms"),
        "unscaled_ops_per_cpu_s": (loop.attempted / sum(loop.times), "1/s"),
        "wall_ops_per_s": (loop.attempted / sum(loop.wall), "1/s"),
        "failed_share": (loop.failed / loop.attempted, "share"),
        "ops": (loop.attempted, "count"),
    }
    if loop.attempted >= P99_MIN_OPS:
        extra["op_cpu_p99_ms"] = (float(np.percentile(norm, 99)) * 1e3, "ms")
    return metrics, loop, extra


def _alloc_peak_mb(wl, seed: int, run, ops: int) -> float:
    """Largest tracemalloc peak of one ``decide_order`` call over the first ``ops`` ops."""
    peaks = []
    decide = _order.decide_order

    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return decide(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        with spans.patched({"order.decide_order": measured}):
            closed_loop(wl, seed, ops, run=run)
    finally:
        tracemalloc.stop()
    return max(peaks, default=0) / 2**20


def _overhead_share(wl, seed: int, run, ops: int) -> float:
    """Traced over untraced op time on the first ``ops`` ops, minus 1.

    Each chunk is built twice and run once with spans and once without, the
    side going first alternating, so a slow spell of the machine hits both.
    """
    clock = wl.clock
    totals = {True: 0.0, False: 0.0}
    done = k = 0
    while done < ops:
        for traced_side in (k % 2 == 0, k % 2 == 1):
            items = wl.chunk(seed, k)[: ops - done]
            if traced_side:
                tracer = spans.Tracer()
                with tracer.install():
                    totals[True] += sum(tracer.run_op(i, run, item)[1] for i, item in enumerate(items))
            else:
                for item in items:
                    t0 = clock()
                    run(item)
                    totals[False] += clock() - t0
            wl.release(k)
        done += len(items)
        k += 1
    return totals[True] / totals[False] - 1.0


def _layer_metrics(work: dict, work_ops: int, cli: dict, cli_ops: int) -> dict:
    def calls(table, ops, name):
        return table[name]["calls"] / ops if name in table else 0.0

    def self_ms(table, ops, name):
        return table[name]["self_s"] * 1e3 / ops if name in table else 0.0

    def share(name, note):
        row = work.get(name)
        return row["notes"][note] / row["calls"] if row else 0.0

    m = {}
    for name in ("linalg.eigendecompose", "linalg.jacobi_eigh", "order.decide_order", "states.variance"):
        m[f"{name}.calls"] = (calls(work, work_ops, name), "calls/op")
        m[f"{name}.self_ms"] = (self_ms(work, work_ops, name), "ms/op")
    m["linalg.eigendecompose.repeat_share"] = (share("linalg.eigendecompose", "repeat"), "share")
    m["order.decide_order.witness_share"] = (share("order.decide_order", "fails"), "share")
    m["order.decide_order.error_share"] = (share("order.decide_order", "error"), "share")
    m["functions.FunctionTable.from_values.self_ms"] = (
        self_ms(work, work_ops, "functions.FunctionTable.from_values"), "ms/op")
    for name in ("linalg.apply_function", "order.witness_search", "structure.verify_automorphism",
                 "structure.q_matrix", "structure.reconstruct_metric"):
        m[f"{name}.self_ms"] = (self_ms(cli, cli_ops, name), "ms/op")
    sampling = sum(row["self_s"] for name, row in cli.items() if name.startswith("sampling."))
    m["sampling.self_ms"] = (sampling * 1e3 / cli_ops, "ms/op")
    io_ms = self_ms(cli, cli_ops, "cli.load_matrix") + self_ms(cli, cli_ops, "cli.emit")
    m["cli.io_ms"] = (io_ms, "ms/op")
    return m


def traced(wl, seed: int, seconds: float, root: Path, outdir: Path) -> tuple[dict, Loop, dict]:
    """Per-layer metrics from a traced closed loop over the workload's ops.

    Layers that only the command-line tools reach (``apply_function``,
    ``witness_search``, ``structure``, ``sampling``, the CLI's file I/O) are
    read from the ``cli`` mix: on the ``cli`` workload that is the traced loop
    itself, elsewhere one in-process pass over the mix after the loop, so every
    layer metric is defined on every workload.  CLI commands run in-process
    here, through ``varorder.cli.main``, so their layers can be traced.
    """
    is_cli = isinstance(wl, Cli)
    run = wl.run_inprocess if is_cli else wl.run
    tracer = spans.Tracer()
    with tracer.install():
        loop = closed_loop(wl, seed, run_length(wl, seconds), run=run, tracer=tracer)
    cum = np.cumsum(loop.times)
    m = max(1, int(np.searchsorted(cum, OVERHEAD_SHARE * cum[-1])))
    overhead = _overhead_share(wl, seed, run, m)
    alloc_ops = max(wl.cycle, int(np.searchsorted(cum, ALLOC_SECONDS)))
    peak_mb = _alloc_peak_mb(wl, seed, run, min(alloc_ops, loop.attempted))

    if is_cli:
        cli_spans, cli_ops = tracer.spans, loop.attempted
    else:
        probe = Cli(root, outdir / "probe")
        cli_tracer = spans.Tracer()
        try:
            with cli_tracer.install():
                probe_loop = closed_loop(probe, seed, probe.cycle, run=probe.run_inprocess,
                                         tracer=cli_tracer)
        finally:
            probe.close()
        cli_tracer.dump(outdir / f"spans-{wl.name}-{seed}-cli-mix.jsonl")
        cli_spans, cli_ops = cli_tracer.spans, probe_loop.attempted
        loop.probe_wrong = probe_loop.status[WRONG]
        loop.reasons += probe_loop.reasons

    startup = [_child_seconds(root, ["-m", "varorder", "--version"])[0] for _ in range(STARTUP_REPEATS)]
    tracer.dump(outdir / f"spans-{wl.name}-{seed}.jsonl")

    metrics = _layer_metrics(spans.summarize(tracer.spans), loop.attempted,
                             spans.summarize(cli_spans), cli_ops)
    metrics["order.decide_order.peak_alloc_mb"] = (peak_mb, "MB")
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    metrics["trace.overhead_share"] = (overhead, "share")
    extra = {"traced_ops": (loop.attempted, "ops"), "overhead_ops": (m, "ops")}
    return metrics, loop, extra
