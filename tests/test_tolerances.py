"""The tolerance model: every tolerance in ``src/`` is named once, in ``varorder.tolerances``."""

import ast
import inspect
import re
from contextlib import nullcontext
from pathlib import Path

import pytest

import varorder
from varorder import (
    BornMeasure,
    FunctionTable,
    LipschitzExtension,
    PreconditionError,
    order,
    state_order_violation,
    tolerances,
)

SRC = Path(varorder.__file__).parent


def test_tolerance_values_are_pinned():
    # a loosened (or tightened) tolerance must show up as an edit here
    assert {k: v for k, v in vars(tolerances).items() if k.isupper()} == {
        "PAIR_TOL_SCALE": 1e-8,
        "FAIL_MARGIN_TOL": 1e-9,
        "LIP_TOL": 1e-9,
        "GAP_RTOL": 1e-9,
        "CHECK_TOL": 1e-10,
        "ROUND_RTOL": 1e-12,
        "DUST": 1e-14,
        "ORACLE_AGREE_TOL": 1e-6,
    }
    assert varorder.FAIL_MARGIN_TOL is order.FAIL_MARGIN_TOL is tolerances.FAIL_MARGIN_TOL


def test_the_readme_table_lists_each_tolerance_with_its_value():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", readme, flags=re.M)
    assert len(rows) == len({name for name, _ in rows}) == 8
    assert {name: float(value) for name, value in rows} == {
        k: v for k, v in vars(tolerances).items() if k.isupper()
    }


def test_public_tolerance_defaults_are_unchanged():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert default(FunctionTable.value_at, "tol") == default(FunctionTable.__call__, "tol") == 1e-8
    assert default(state_order_violation, "tol") == 1e-9
    assert default(BornMeasure.normalized, "merge_tol") == 1e-12


@pytest.mark.parametrize("excess, ok", [(0.5e-9, True), (2e-9, False)])
def test_lipschitz_slack_is_lip_tol(excess, ok):
    # LIP_TOL = 1e-9 of slack in |f(x) - f(y)| <= c |x - y|, in the one Lipschitz check of a table
    pts = ((0.0, 0.0), (1.0, 1.0 + excess))
    with nullcontext() if ok else pytest.raises(PreconditionError):
        LipschitzExtension(FunctionTable(pts), 1.0)


def test_no_tolerance_literal_outside_the_model():
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and 0.0 < abs(node.value) <= 1e-5
    ]
    assert found == []
