"""The public surface: every public name and every optional parameter or dataclass field
is added on purpose, and each option has a caller that sets it; the README lists the
names and the subcommands as the code has them."""

import importlib
import inspect
import re
from pathlib import Path

import varorder
from varorder.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"

# A new public name must be added here on purpose; helpers stay in their modules.
NAMES = {
    "AutomorphismReport",
    "AutomorphismSpec",
    "BornMeasure",
    "DegenerateInputError",
    "DensityState",
    "DimensionMismatchError",
    "DomainError",
    "EigensolverError",
    "FAIL_MARGIN_TOL",
    "FunctionTable",
    "HermitianObservable",
    "InternalConsistencyError",
    "LipschitzExtension",
    "NotHermitianError",
    "OrderVerdict",
    "PreconditionError",
    "PureState",
    "QMatrix",
    "ReconstructionError",
    "SpectralDecomposition",
    "TwoPointFamily",
    "UnitaryMap",
    "ValidationError",
    "VarOrderError",
    "apply_function",
    "approx_eigen_sandwich",
    "block_shift_upper_bound",
    "born_measure",
    "canonical_representative",
    "class_equal",
    "commutator_norm",
    "decide_order",
    "eigendecompose",
    "expectation",
    "extract_function",
    "joint_upper_bound",
    "loewner_leq",
    "maximal_deviation",
    "measure_variance",
    "pushforward",
    "q_matrix",
    "reconstruct_metric",
    "state_order_violation",
    "superposition_variance",
    "three_point_class_candidates",
    "two_point_lower_set",
    "two_spectrum_detector",
    "variance",
    "verify_automorphism",
    "witness_search",
}

MODULES = ("linalg", "functions", "states", "order", "structure", "sampling")

# A new keyword or defaulted field must be added here on purpose, with a caller that sets it.
OPTIONS = {
    "functions.FunctionTable.value_at(tol=)",
    "linalg.UnitaryMap.__init__(antiunitary=)",
    "linalg.jacobi_eigh(max_sweeps=)",
    "linalg.loewner_leq(tol=)",
    "states.BornMeasure.normalized(merge_tol=)",
    "states.superposition_variance(tol=)",
    "order.class_equal(tol=)",
    "order.decide_order(tol=)",
    "order.extract_function(tol=)",
    "order.state_order_violation(seed=)",
    "order.state_order_violation(tol=)",
    "order.witness_search(restarts=)",
    "order.witness_search(steps=)",
    "order.witness_search(seed=)",
    "structure.AutomorphismReport.__init__(counterexample=)",
    "structure.joint_upper_bound(tol=)",
    "structure.q_matrix(method=)",
    "structure.three_point_class_candidates(tol=)",
    "structure.verify_automorphism(seed=)",
    "sampling.random_commuting_pair(seed=)",
    "sampling.random_hermitian(seed=)",
    "sampling.random_hermitian(scale=)",
    "sampling.random_lipschitz_table(seed=)",
    "sampling.random_lipschitz_table(constant=)",
    "sampling.random_lipschitz_values(seed=)",
    "sampling.random_lipschitz_values(constant=)",
    "sampling.random_spectrum(seed=)",
    "sampling.random_spectrum(low=)",
    "sampling.random_spectrum(high=)",
    "sampling.random_spectrum(min_gap=)",
    "sampling.random_unitary(seed=)",
    "sampling.random_unitary(antiunitary=)",
}


def _defaulted(qual, fn):
    return [
        f"{qual}({p.name}=)"
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    ]


def public_options() -> list[str]:
    """Each defaulted parameter of the modules' own public functions, methods and
    dataclass ``__init__``s, once per object however many modules import it."""
    owners = {f"varorder.{m}" for m in MODULES}
    objects = {}
    for m in MODULES:
        for name, obj in vars(importlib.import_module(f"varorder.{m}")).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ in owners:
                if not name.startswith("_"):
                    objects[id(obj)] = obj
    found = []
    for obj in objects.values():
        qual = f"{obj.__module__.rpartition('.')[2]}.{obj.__name__}"
        if inspect.isfunction(obj):
            found += _defaulted(qual, obj)
            continue
        for attr, member in vars(obj).items():
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                found += _defaulted(f"{qual}.{attr}", member)
    return found


def test_public_options_are_pinned():
    found = public_options()
    assert len(found) == len(set(found)) == 32
    assert set(found) == OPTIONS


def test_public_names_are_pinned():
    assert len(varorder.__all__) == len(set(varorder.__all__)) == 50
    assert set(varorder.__all__) == NAMES


def test_star_import_binds_no_module():
    scope = {}
    exec("from varorder import *", scope)
    assert not [name for name, obj in scope.items() if inspect.ismodule(obj)]
    assert set(scope) - {"__builtins__"} == NAMES


def readme_section(title: str) -> str:
    """The README's ``## title`` section, up to the next ``## `` heading."""
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_readme_lists_each_public_name_once():
    section = readme_section("Public API")
    assert sorted(re.findall(r"^- `(\w+)", section, flags=re.M)) == sorted(varorder.__all__)
    assert f"binds these {len(NAMES)} names" in section
    assert f"the {len(OPTIONS)} defaulted options" in section


def test_the_readme_shows_each_subcommand():
    choices = re.search(r"\{([\w,-]+)\}", build_parser().format_usage()).group(1).split(",")
    shown = re.findall(r"^varorder ([a-z][\w-]*)", readme_section("Command line"), flags=re.M)
    assert set(shown) == set(choices) and len(choices) == 10


def test_the_readme_names_no_private_identifier():
    # bare (``_eigh``) or dotted (``linalg._frobenius``), in a code span or not; the README
    # states behaviour, and implementation notes live in the docstrings
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"(?:^|(?<=[\s(\[,.`]))_[A-Za-z]\w*", text, flags=re.M) == []
