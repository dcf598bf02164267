"""End-to-end command-line checks: JSON I/O, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

from varorder import EigensolverError, InternalConsistencyError, VarOrderError


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "varorder", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def write_matrix(path, rows):
    m = np.asarray(rows, dtype=complex)
    payload = {
        "dim": m.shape[0],
        "matrix": [[[z.real, z.imag] for z in row] for row in m],
    }
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def files(tmp_path):
    def matrix(name, rows):
        return str(write_matrix(tmp_path / name, np.diag(rows) if np.ndim(rows) == 1 else rows))

    return tmp_path, matrix


# ---------------------------------------------------------------------------
# check-order


def test_check_order_holds(files):
    _, matrix = files
    res = run_cli("check-order", matrix("a.json", [0.0, 1.0, 2.0]), matrix("b.json", [0.0, 1.0, 3.0]))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["holds"] is True
    assert report["certificate"] == [[0.0, 0.0], [1.0, 1.0], [3.0, 2.0]]
    assert report["witness"] is None


def test_check_order_fails_with_witness(files):
    _, matrix = files
    res = run_cli("check-order", matrix("a.json", [0.0, 2.0, 3.0]), matrix("b.json", [0.0, 1.0, 3.0]))
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["holds"] is False
    assert report["margin"] == pytest.approx(0.75)
    moduli = [abs(complex(re, im)) for re, im in report["witness"]]
    assert moduli == pytest.approx([2**-0.5, 2**-0.5, 0.0], abs=1e-9)


def test_check_order_oracle_cross_check(files):
    _, matrix = files
    res = run_cli(
        "check-order",
        matrix("a.json", [0.0, 1.0, 2.0]),
        matrix("b.json", [0.0, 1.0, 3.0]),
        "--oracle-trials",
        "8",
    )
    assert res.returncode == 0
    oracle = json.loads(res.stdout)["oracle"]
    assert oracle["agrees"] is True
    assert oracle["best_value"] <= 1e-6


@pytest.mark.parametrize("stretch, code", [(2.0, 1), (0.5, 0)], ids=["fails", "holds"])
def test_check_order_oracle_agrees_in_variance_units(files, stretch, code):
    # at scale 1e-3 the failing pair's gap is 7.5e-7, below the absolute
    # ORACLE_AGREE_TOL: a correct "fails" used to be reported as exit 3
    _, matrix = files
    res = run_cli(
        "check-order",
        matrix("a.json", [0.0, stretch * 1e-3]),
        matrix("b.json", [0.0, 1e-3]),
        "--oracle-trials",
        "4",
    )
    assert res.returncode == code
    report = json.loads(res.stdout)
    assert report["holds"] is (code == 0)
    assert report["oracle"]["agrees"] is True
    if code:
        assert report["oracle"]["best_value"] == pytest.approx(report["margin"], rel=1e-9, abs=0.0)


def test_check_order_inconsistency_exit_code(files):
    # a deliberately loose tolerance lets the decision pass while the
    # oracle still finds the 3/4 violation: reported as inconsistency
    _, matrix = files
    res = run_cli(
        "check-order",
        matrix("a.json", [0.0, 2.0, 3.0]),
        matrix("b.json", [0.0, 1.0, 3.0]),
        "--tol",
        "10.0",
        "--oracle-trials",
        "8",
    )
    assert res.returncode == 3
    report = json.loads(res.stdout)
    assert report["holds"] is True
    assert report["oracle"]["agrees"] is False


def test_check_order_at_tol_zero_holds_for_a_equal_to_b(files):
    # tol 0 used to count the rounding residues of V* B V as failing
    # eigenspaces and exit 3; the report gives the tol the decision used
    from varorder.sampling import random_hermitian

    _, matrix = files
    b = random_hermitian(4, seed=3, scale=1e3)
    path = matrix("b.json", b.matrix)
    res = run_cli("check-order", path, path, "--tol", "0")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["holds"] is True
    assert report["tol"] == 1e-12 * b.frobenius_norm


@pytest.mark.parametrize("entry", [1e200, 1e308])
@pytest.mark.parametrize("command", ["check-order", "max-deviation"])
def test_an_overflowing_norm_is_an_input_error(files, command, entry):
    # check-order used to hold at tol inf, and max-deviation printed NaN
    _, matrix = files
    big = matrix("big.json", [entry, -entry, 0.0])
    args = [big, matrix("b.json", [0.0, 1.0, 2.0])] if command == "check-order" else [big]
    res = run_cli(command, *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: matrix too large: dim * max |M| = ")
    assert "Warning" not in res.stderr


@pytest.mark.parametrize(
    "command, tol",
    [
        ("check-order", "nan"),
        ("check-order", "inf"),
        ("check-order", "-1e-3"),
        ("extract-function", "nan"),
        ("joint-upper-bound", "inf"),
    ],
)
def test_nonfinite_or_negative_tol_is_an_input_error(files, command, tol):
    # the pair fails at the default tol; --tol nan and --tol inf used to
    # exit 0 and print a certificate
    _, matrix = files
    a = matrix("a.json", [0.0, 2.0, 3.0])
    b = matrix("b.json", [0.0, 1.0, 3.0])
    res = run_cli(command, a, b, f"--tol={tol}")
    assert res.returncode == 2
    assert res.stdout == ""
    assert "tolerance must be finite and >= 0" in res.stderr


def test_eigensolver_failure_exits_3(files, monkeypatch, capsys):
    # in process, so the patched LAPACK entry point is the one the CLI calls
    from varorder.cli import main

    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    _, matrix = files
    code = main(["check-order", matrix("a.json", [0.0, 1.0, 2.0]), matrix("b.json", [0.0, 1.0, 3.0])])
    assert code == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("internal error: LAPACK eigensolver failed: Eigenvalues did not converge")


def _error_classes(cls=VarOrderError):
    return [cls] + [c for sub in cls.__subclasses__() for c in _error_classes(sub)]


@pytest.mark.parametrize("error", _error_classes(), ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_hierarchy(error, monkeypatch, capsys):
    # every toolkit error is an input error (2) except the two internal ones (3)
    from varorder import cli

    def fail(_):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_max_deviation", fail)
    internal = issubclass(error, (InternalConsistencyError, EigensolverError))
    assert cli.main(["max-deviation", "a.json"]) == (3 if internal else 2)
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("internal error: boom\n" if internal else "error: boom\n")


def test_check_order_is_deterministic(files):
    _, matrix = files
    args = (
        "check-order",
        matrix("a.json", [0.0, 2.0, 3.0]),
        matrix("b.json", [0.0, 1.0, 3.0]),
        "--oracle-trials",
        "8",
        "--seed",
        "7",
    )
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_truncated_json_is_an_input_error(files):
    tmp_path, matrix = files
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "matrix": [[[0')
    res = run_cli("check-order", str(bad), matrix("b.json", [0.0, 1.0]))
    assert res.returncode == 2
    assert res.stderr
    bad.write_text(json.dumps({"dim": "x", "matrix": [[[0.0, 0.0]]]}))
    res = run_cli("check-order", str(bad), matrix("b.json", [0.0, 1.0]))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("dim", [2.7, 2.0, True, "2", [2], None], ids=repr)
def test_dim_must_be_a_json_integer(files, capsys, dim):
    # _dim used to cast through int64: 2.7 and "2" were read as 2, true as 1
    from varorder.cli import main

    tmp_path, matrix = files
    rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    (tmp_path / "a.json").write_text(json.dumps({"dim": dim, "matrix": rows}))
    (tmp_path / "x.json").write_text(json.dumps({"dim": dim, "vector": [[1.0, 0.0], [0.0, 0.0]]}))
    b = matrix("b.json", [0.0, 1.0])
    for argv in (["check-order", str(tmp_path / "a.json"), b], ["variance", b, str(tmp_path / "x.json")]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"malformed dim: expected an integer, got {dim!r}" in out.err


def test_non_hermitian_is_an_input_error(files):
    tmp_path, matrix = files
    res = run_cli(
        "check-order",
        matrix("a.json", [[0.0, 1.0], [0.0, 0.0]]),
        matrix("b.json", [0.0, 1.0]),
    )
    assert res.returncode == 2


def test_dimension_mismatch_is_an_input_error(files):
    _, matrix = files
    res = run_cli("check-order", matrix("a.json", [0.0, 1.0]), matrix("b.json", [0.0, 1.0, 2.0]))
    assert res.returncode == 2


def test_missing_file_is_an_input_error(files):
    _, matrix = files
    res = run_cli("check-order", "/nonexistent/a.json", matrix("b.json", [0.0, 1.0]))
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# extract-function


def test_extract_function_emits_the_table(files):
    _, matrix = files
    res = run_cli("extract-function", matrix("a.json", [0.0, 1.0, 2.0]), matrix("b.json", [0.0, 1.0, 3.0]))
    assert res.returncode == 0
    assert json.loads(res.stdout)["points"] == [[0.0, 0.0], [1.0, 1.0], [3.0, 2.0]]


def test_extract_function_negative_verdict(files):
    _, matrix = files
    res = run_cli("extract-function", matrix("a.json", [0.0, 2.0, 3.0]), matrix("b.json", [0.0, 1.0, 3.0]))
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert "error" in report
    assert report["witness"] is not None


# ---------------------------------------------------------------------------
# variance


def test_variance_of_vector_state(files):
    tmp_path, matrix = files
    state = tmp_path / "x.json"
    r = 2**-0.5
    state.write_text(json.dumps({"dim": 2, "vector": [[r, 0.0], [r, 0.0]]}))
    res = run_cli("variance", matrix("a.json", [0.0, 1.0]), str(state))
    assert res.returncode == 0
    assert json.loads(res.stdout)["variance"] == pytest.approx(0.25)


def test_variance_of_density_state(files):
    tmp_path, matrix = files
    state = tmp_path / "rho.json"
    state.write_text(
        json.dumps({"dim": 2, "density": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]})
    )
    res = run_cli("variance", matrix("a.json", [0.0, 1.0]), str(state))
    assert res.returncode == 0
    assert json.loads(res.stdout)["variance"] == pytest.approx(0.25)


def test_state_without_payload_is_an_input_error(files):
    tmp_path, matrix = files
    state = tmp_path / "x.json"
    state.write_text(json.dumps({"dim": 2}))
    assert run_cli("variance", matrix("a.json", [0.0, 1.0]), str(state)).returncode == 2


# ---------------------------------------------------------------------------
# joint-upper-bound


def test_joint_upper_bound_roundtrip(files):
    _, matrix = files
    res = run_cli("joint-upper-bound", matrix("a.json", [1.0, 1.0, 5.0]), matrix("b.json", [2.0, 0.0, 3.0]))
    assert res.returncode == 0
    report = json.loads(res.stdout)
    got = np.array([[complex(re, im) for re, im in row] for row in report["matrix"]])
    np.testing.assert_allclose(got, np.diag([19.0, 17.0, 37.0]), atol=1e-12)


def test_joint_upper_bound_noncommuting_is_an_input_error(files):
    _, matrix = files
    res = run_cli(
        "joint-upper-bound",
        matrix("a.json", [[0.0, 1.0], [1.0, 0.0]]),
        matrix("b.json", [1.0, -1.0]),
    )
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# lower-set, q-matrix, reconstruct-metric


def test_lower_set_families(files):
    _, matrix = files
    res = run_cli("lower-set", matrix("a.json", [0.0, 1.0, 3.0]))
    assert res.returncode == 0
    fams = json.loads(res.stdout)["families"]
    assert sorted(f["threshold"] for f in fams) == [1.0, 1.0, 2.0]


def test_q_matrix_from_inline_spectrum(files):
    res = run_cli("q-matrix", "0,1,3,7")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["n"] == 4
    q = np.array(report["q"])
    assert q[0, 3] == 6.0
    assert q[1, 3] == 6.0


def test_q_matrix_reconstruct_round_trip(files):
    tmp_path, _ = files
    res = run_cli("q-matrix", "0,1,3,7")
    qfile = tmp_path / "q.json"
    qfile.write_text(res.stdout)
    res2 = run_cli("reconstruct-metric", str(qfile))
    assert res2.returncode == 0
    report = json.loads(res2.stdout)
    assert report["spectrum"] == pytest.approx([0.0, 1.0, 3.0, 7.0])
    assert report["distances"][0][3] == pytest.approx(7.0)


def test_q_matrix_from_spectrum_file(files):
    tmp_path, _ = files
    spec = tmp_path / "spectrum.json"
    spec.write_text("[0, 1, 5, 6]")
    res = run_cli("q-matrix", str(spec))
    assert res.returncode == 0
    assert np.array(json.loads(res.stdout)["q"])[0, 3] == 5.0


def test_q_matrix_duplicate_points_is_an_input_error(files):
    tmp_path, _ = files
    assert run_cli("q-matrix", "0,1,1,3").returncode == 2
    spec = tmp_path / "spectrum.json"
    spec.write_text('["a", 1]')
    res = run_cli("q-matrix", str(spec))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps({"q": [["a"]]}))
    res = run_cli("reconstruct-metric", str(qfile))
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# verify-automorphism, canonical, max-deviation


def test_verify_automorphism_scaling(files):
    res = run_cli("verify-automorphism", "--alpha", "2", "--trials", "10", "--dim", "3")
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert report["passed"] is True
    assert report["trials"] == 10


def test_verify_automorphism_nonpositive_trials_is_an_input_error(files):
    res = run_cli("verify-automorphism", "--trials", "-3")
    assert res.returncode == 2
    assert not res.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-automorphism", "--dim", "0"], "dimension must be at least 2, got 0"),
        (["verify-automorphism", "--dim", "-1"], "dimension must be at least 2, got -1"),
        (["verify-automorphism", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
        (["check-order", "--oracle-trials", "2", "--seed", "-1"], "seed must be a nonnegative"),
        (["check-order", "--oracle-trials", "-1"], "oracle needs restarts >= 1"),
    ],
    ids=["dim-0", "dim-negative", "automorphism-seed", "oracle-seed", "oracle-trials"],
)
def test_out_of_range_arguments_are_input_errors(files, capsys, argv, message):
    # these ended in a numpy traceback with exit 1 ("refuted"), or, for
    # --oracle-trials -1, skipped the oracle and exited 0
    from varorder.cli import main

    _, matrix = files
    if argv[0] == "check-order":
        argv = argv[:1] + [matrix("a.json", [0.0, 1.0, 2.0]), matrix("b.json", [0.0, 1.0, 3.0])] + argv[1:]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert message in out.err


def test_verify_automorphism_with_unitary_file(files):
    _, matrix = files
    perm = matrix("u.json", np.eye(3)[:, [1, 2, 0]])
    res = run_cli("verify-automorphism", "--unitary", perm, "--trials", "10")
    assert res.returncode == 0


def test_verify_automorphism_refuses_a_dim_other_than_the_unitarys(files, capsys):
    # --dim 7 used to be ignored: the 3 x 3 unitary was verified at dimension 3 with exit 0
    from varorder.cli import main

    _, matrix = files
    perm = matrix("u.json", np.eye(3)[:, [1, 2, 0]])
    assert main(["verify-automorphism", "--unitary", perm, "--dim", "7", "--trials", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: --dim 7 differs from {perm}'s dimension 3\n"
    # a --dim equal to the unitary's, and any --dim (default 3) without --unitary, still runs
    for argv in (["--unitary", perm, "--dim", "3"], ["--dim", "4"], []):
        assert main(["verify-automorphism", "--trials", "2", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True


def test_verify_automorphism_refuses_a_unitary_whose_product_overflows(files):
    # U*U used to overflow with a RuntimeWarning printed before the error
    _, matrix = files
    res = run_cli("verify-automorphism", "--unitary", matrix("u.json", [1e200, 1.0]))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == "error: matrix is not unitary: max |U*U - I| = inf\n"


def test_canonical(files):
    _, matrix = files
    res = run_cli("canonical", matrix("a.json", [1.0, 2.0, 4.0]))
    assert res.returncode == 0
    got = np.array(
        [[complex(re, im) for re, im in row] for row in json.loads(res.stdout)["matrix"]]
    )
    np.testing.assert_allclose(got, np.diag([0.0, 1.0, 3.0]), atol=1e-12)


def test_max_deviation(files):
    _, matrix = files
    res = run_cli("max-deviation", matrix("a.json", [0.0, 1.0, 3.0]))
    assert res.returncode == 0
    assert json.loads(res.stdout)["maximal_deviation"] == pytest.approx(1.5)


def test_complex_pairs_gives_the_floats_of_a_per_entry_loop():
    # one tolist() replaced a float() per entry: the same floats, signed zeros included
    from varorder.cli import complex_pairs

    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m[0, 0], m[1, 2] = complex(-0.0, -0.0), complex(0.0, -0.0)
    loop = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    assert json.dumps(complex_pairs(m)) == json.dumps(loop)
    assert json.dumps(complex_pairs(m[0])) == json.dumps(loop[0])


def test_reports_reparse_as_json(files):
    _, matrix = files
    for args in (
        ("check-order", matrix("a.json", [0.0, 1.0, 2.0]), matrix("b.json", [0.0, 1.0, 3.0])),
        ("lower-set", matrix("c.json", [0.0, 1.0, 3.0])),
        ("q-matrix", "0,1,3,7"),
    ):
        out = run_cli(*args).stdout
        report = json.loads(out)
        assert report == json.loads(json.dumps(report))
        assert "version" in report


# ---------------------------------------------------------------------------
# every subcommand's bytes

# Inputs whose answers are exact in floating point: diagonal matrices (LAPACK
# returns their eigenpairs exactly), dyadic states and integer spectra, so the
# pinned bytes hold on every numpy and LAPACK build.
_INPUTS = {
    "a.json": {"dim": 3, "matrix": np.diag([0.0, 1.0, 2.0])},
    "b.json": {"dim": 3, "matrix": np.diag([0.0, 1.0, 3.0])},
    "c.json": {"dim": 3, "matrix": np.diag([0.0, 2.0, 3.0])},
    "d.json": {"dim": 3, "matrix": np.diag([1.0, 1.0, 5.0])},
    "e.json": {"dim": 3, "matrix": np.diag([2.0, 0.0, 3.0])},
    "f.json": {"dim": 3, "matrix": np.diag([1.0, 2.0, 4.0])},
    "obs.json": {"dim": 2, "matrix": np.diag([0.0, 2.0])},
    "u.json": {"dim": 3, "matrix": np.eye(3)[:, [1, 2, 0]]},
    "shape.json": {"dim": 3, "matrix": np.eye(2)},
    "bad-matrix.json": {"dim": 2, "matrix": [[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]] * 2},
    "vector.json": {"dim": 2, "vector": [[0.5, 0.5], [0.5, -0.5]]},
    "bad-vector.json": {"dim": 2, "vector": [[1.0], [0.0]]},
    "density.json": {"dim": 2, "density": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    "bad-density.json": {"dim": 3, "density": [[[1.0, 0.0]]]},
    "no-payload.json": {"dim": 2},
    "spectrum.json": [0, 1, 3, 7],
    "q.json": {"q": [[0, 1, 3, 6], [1, 0, 2, 6], [3, 2, 0, 4], [6, 6, 4, 0]]},
}


def _m(*diag):
    """A diagonal matrix's ``[re, im]`` rows, as a report writes them."""
    return [[[d if i == j else 0.0, 0.0] for j in range(len(diag))] for i, d in enumerate(diag)]


_CERTIFICATE = [[0.0, 0.0], [1.0, 1.0], [3.0, 2.0]]
_WITNESS = [[0.7071067811865475, 0.0], [0.7071067811865475, 0.0], [0.0, 0.0]]
_Q = [[0.0, 1.0, 3.0, 6.0], [1.0, 0.0, 2.0, 6.0], [3.0, 2.0, 0.0, 4.0], [6.0, 6.0, 4.0, 0.0]]
_PASSED = {"passed": True, "trials": 4, "counterexample": None}
_PINNED = [
    (["check-order", "a.json", "b.json"], 0,
     {"holds": True, "certificate": _CERTIFICATE, "witness": None, "margin": 0.0,
      "tol": 3.16227766016838e-08}),
    (["check-order", "c.json", "b.json", "--tol", "0.5"], 1,
     {"holds": False, "certificate": None, "witness": _WITNESS, "margin": 0.75, "tol": 0.5}),
    (["extract-function", "a.json", "b.json"], 0, {"points": _CERTIFICATE}),
    (["extract-function", "c.json", "b.json"], 1,
     {"error": "A is not below B in the variance order (witness margin 0.75)", "witness": _WITNESS}),
    (["variance", "obs.json", "vector.json"], 0, {"variance": 1.0}),
    (["variance", "obs.json", "density.json"], 0, {"variance": 1.0}),
    (["variance", "obs.json", "no-payload.json"], 2,
     "error: no-payload.json: state needs a 'vector' or 'density' field\n"),
    (["variance", "obs.json", "bad-vector.json"], 2,
     "error: malformed vector: entries must be [re, im] pairs\n"),
    (["variance", "obs.json", "bad-density.json"], 2,
     "error: bad-density.json: density shape (1, 1) does not match dim 3\n"),
    (["joint-upper-bound", "d.json", "e.json"], 0, {"dim": 3, "matrix": _m(19.0, 17.0, 37.0)}),
    (["lower-set", "a.json"], 0,
     {"families": [{"eigenvalues": [lam], "threshold": 1.0,
                    "projector": _m(*(float(i == k) for i in range(3)))}
                   for k, lam in enumerate([0.0, 1.0, 2.0])]}),
    (["q-matrix", "0,1,3,7"], 0, {"n": 4, "q": _Q}),
    (["q-matrix", "spectrum.json", "--method", "enumerate"], 0, {"n": 4, "q": _Q}),
    (["reconstruct-metric", "q.json"], 0,
     {"distances": [[0.0, 1.0, 3.0, 7.0], *_Q[1:3], [7.0, 6.0, 4.0, 0.0]],
      "spectrum": [0.0, 1.0, 3.0, 7.0]}),
    (["verify-automorphism", "--trials", "4", "--alpha", "2"], 0, _PASSED),
    (["verify-automorphism", "--trials", "4", "--unitary", "u.json", "--antiunitary"], 0, _PASSED),
    (["canonical", "f.json"], 0, {"dim": 3, "matrix": _m(0.0, 1.0, 3.0)}),
    (["max-deviation", "b.json"], 0, {"maximal_deviation": 1.5}),
    (["max-deviation", "shape.json"], 2,
     "error: shape.json: matrix shape (2, 2) does not match dim 3\n"),
    (["max-deviation", "bad-matrix.json"], 2,
     "error: malformed matrix: entries must be [re, im] pairs\n"),
]


def test_every_subcommand_writes_its_pinned_bytes(tmp_path, monkeypatch, capsys):
    # a report (a dict) is pinned as the exact stdout that emit prints for it; an input
    # error (a string) as the exact stderr, with nothing on stdout
    from varorder import __version__
    from varorder.cli import main

    for name, data in _INPUTS.items():
        if isinstance(data, dict) and isinstance(data.get("matrix"), np.ndarray):
            data = {**data, "matrix": [[[z.real, 0.0] for z in row] for row in data["matrix"]]}
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert {argv[0] for argv, _, _ in _PINNED} == set(
        "check-order extract-function variance joint-upper-bound lower-set q-matrix "
        "reconstruct-metric verify-automorphism canonical max-deviation".split()
    )
    for argv, code, expected in _PINNED:
        got = main(argv)
        out = capsys.readouterr()
        if isinstance(expected, str):
            assert (got, out.out, out.err) == (code, "", expected), argv
        else:
            stdout = json.dumps({**expected, "version": __version__}, indent=2) + "\n"
            assert (got, out.out, out.err) == (code, stdout, ""), argv
