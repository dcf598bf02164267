"""Self-tests of the benchmark: inputs, the independent checker, and the tracer.

Run with ``python -m pytest bench/tests``.
"""

import numpy as np
import pytest

from bench import check, gen, harness, reference, spans, workloads
from varorder import order


def _chunk_bytes(chunk) -> bytes:
    return b"".join(p.a.matrix.tobytes() + p.b.matrix.tobytes() + p.expected.encode() for p in chunk)


@pytest.mark.parametrize("name,dims", [("fresh-small", gen.SMALL_DIMS), ("fresh-large", gen.LARGE_DIMS)])
def test_same_seed_gives_identical_fresh_inputs(name, dims):
    first = _chunk_bytes(gen.fresh_chunk(name, 7, 1, dims, 6))
    assert first == _chunk_bytes(gen.fresh_chunk(name, 7, 1, dims, 6))
    assert first != _chunk_bytes(gen.fresh_chunk(name, 8, 1, dims, 6))


def test_same_seed_gives_identical_pool_and_cli_inputs(tmp_path):
    def pool(seed):
        members = gen.pool_members(gen.rng_for("pool-order", seed, 0), 5, 0)
        return b"".join(m.matrix.tobytes() for m in members)

    assert pool(3) == pool(3) != pool(4)

    def cli_files(seed, where):
        wl = workloads.Cli(tmp_path, tmp_path / where)
        wl.chunk(seed, 0)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / where / "chunk0").iterdir())}

    assert cli_files(3, "x") == cli_files(3, "y") != cli_files(4, "z")


def test_generated_mix_has_every_verdict():
    chunk = gen.fresh_chunk("fresh-small", 0, 0, gen.SMALL_DIMS, 224)
    expected = {p.expected for p in chunk}
    assert {gen.HOLDS, gen.FAILS} <= expected
    assert {p.kind for p in chunk} == set(gen.KINDS)


def _decided(kind):
    pair = gen.fresh_pair(np.random.default_rng(11), 4, kind, 1.0)
    return pair, order.decide_order(pair.a.matrix, pair.b.matrix)


def test_checker_accepts_a_witness_and_flags_a_tampered_one():
    pair, verdict = _decided("independent")
    assert pair.expected == gen.FAILS and not verdict.holds
    assert check.check_decision(pair, False, None, verdict.witness.vector) is None
    # an eigenvector of A has zero variance for A, so it witnesses nothing
    tampered = np.linalg.eigh(pair.a.matrix)[1][:, 0]
    assert check.check_decision(pair, False, None, tampered) is not None
    assert check.check_decision(pair, True, [[0.0, 0.0]], None) is not None


def test_checker_accepts_a_certificate_and_flags_a_tampered_one():
    pair, verdict = _decided("holding")
    assert pair.expected == gen.HOLDS and verdict.holds
    points = [list(p) for p in verdict.certificate.points]
    assert check.check_decision(pair, True, points, None) is None
    points[1][1] += 1e-3
    assert check.check_decision(pair, True, points, None) is not None
    assert check.check_decision(pair, False, None, np.linalg.eigh(pair.b.matrix)[1][:, 0]) is not None


def test_traced_self_times_sum_to_traced_op_time():
    wl = workloads.make("pool-order", None, None)
    tracer = spans.Tracer()
    decide = order.decide_order
    with tracer.install():
        assert order.decide_order is not decide
        loop = harness.closed_loop(wl, 0, 60, tracer=tracer)
    assert order.decide_order is decide
    names = {rec[0] for rec in tracer.spans}
    assert {"op", "order.decide_order", "linalg.eigendecompose", "linalg.jacobi_eigh"} <= names
    own = spans.self_times(tracer.spans)
    assert np.all(own >= 0)
    assert own.sum() == pytest.approx(sum(loop.times), rel=1e-9)
    assert {rec[4] for rec in tracer.spans} == set(range(60))
    summary = spans.summarize(tracer.spans)
    assert summary["linalg.eigendecompose"]["notes"]["repeat"] > 0


def test_runs_are_whole_cycles_of_a_fixed_length():
    wl = workloads.make("fresh-small", None, None)
    ops = harness.run_length(wl, 0.5)
    assert ops % wl.cycle == 0 and ops == harness.run_length(wl, 0.5)
    first = harness.closed_loop(wl, 2, ops)
    again = harness.closed_loop(wl, 2, ops)
    assert first.attempted == again.attempted == ops
    assert first.status == again.status


def test_normalised_times_divide_each_window_by_its_reference_factor():
    loop = harness.Loop(times=[0.6, 0.6, 0.6, 0.6])
    loop.refs = [(1, 2 * reference.REF_SECONDS), (2, 2 * reference.REF_SECONDS), (4, reference.REF_SECONDS)]
    norm = harness.normalised_times(loop, 2)
    assert norm == pytest.approx([0.3, 0.3, 0.6, 0.6])
