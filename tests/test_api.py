"""The public options: every optional parameter and dataclass field has a caller that sets it."""

import importlib
import inspect

MODULES = ("linalg", "functions", "states", "order", "structure", "sampling")

# A new keyword or defaulted field must be added here on purpose, with a caller that sets it.
OPTIONS = {
    "functions.FunctionTable.__init__(lipschitz_bound=)",
    "functions.FunctionTable.from_values(lipschitz_bound=)",
    "functions.FunctionTable.value_at(tol=)",
    "linalg.UnitaryMap.__init__(antiunitary=)",
    "linalg.eigendecompose(group_tol=)",
    "linalg.jacobi_eigh(max_sweeps=)",
    "linalg.loewner_leq(tol=)",
    "states.BornMeasure.normalized(merge_tol=)",
    "states.superposition_variance(tol=)",
    "order.OracleConfig.__init__(restarts=)",
    "order.OracleConfig.__init__(steps=)",
    "order.OracleConfig.__init__(seed=)",
    "order.check_state_order(seed=)",
    "order.check_state_order(tol=)",
    "order.class_equal(tol=)",
    "order.decide_order(tol=)",
    "order.extract_function(tol=)",
    "order.state_order_violation(seed=)",
    "order.state_order_violation(tol=)",
    "order.witness_search(cfg=)",
    "structure.AutomorphismReport.__init__(counterexample=)",
    "structure.joint_upper_bound(tol=)",
    "structure.q_matrix(method=)",
    "structure.three_point_class_candidates(tol=)",
    "structure.two_spectrum_detector(method=)",
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
    assert len(found) == len(set(found)) == 39
    assert set(found) == OPTIONS
