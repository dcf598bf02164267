"""Every module-level import in src/varorder/, tests/ and tools/ is used by its module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import varorder

SRC = Path(varorder.__file__).parent
TESTS = Path(__file__).resolve().parent
TOOLS = TESTS.parent / "tools"


def _unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound[name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_module_imports():
    # the package __init__ imports to re-export, so it is the one module exempt
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    found = {
        f"{path.parent.name}/{path.name}": unused
        for path in paths
        if (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import json\nimport numpy as np\nfrom .errors import A, B\nnp.eye(A)\n")
    assert _unused_imports(tree) == ["json (line 1)", "B (line 3)"]


def test_importing_varorder_loads_no_numpy_module_that_numpy_did_not():
    # numpy 2 loads numpy.random on first use only; varorder used to force it
    # at import, a cost every ``python -m varorder`` process paid
    probe = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import varorder\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'numpy'))\n"
    )
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout
    assert out.strip() == "[]"
