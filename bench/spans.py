"""In-memory spans around varorder's layer functions.

The benchmark wraps each layer's public functions wherever a varorder module
has bound them (``varorder.order.eigendecompose``, ``varorder.cli.emit``, ...),
so the program itself is unchanged.  A span is ``[name, start, end, parent,
op, note]``: ``start`` and ``end`` are CPU seconds of the process, ``parent``
indexes the enclosing span (-1 for none), ``op`` is the benchmark operation
it belongs to, and ``note`` records an outcome
(``holds``/``fails``/``error`` for decisions, ``repeat``/``new`` for
eigendecompositions).
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import weakref
from collections import defaultdict

import numpy as np

from varorder.linalg import HermitianObservable

ROOT = "op"

LAYER_FUNCTIONS = (
    ("linalg", "eigendecompose"),
    ("linalg", "jacobi_eigh"),
    ("linalg", "apply_function"),
    ("states", "variance"),
    ("order", "decide_order"),
    ("order", "witness_search"),
    ("structure", "verify_automorphism"),
    ("structure", "q_matrix"),
    ("structure", "reconstruct_metric"),
    ("cli", "load_matrix"),
    ("cli", "emit"),
    ("sampling", "as_rng"),
    ("sampling", "complex_gaussian"),
    ("sampling", "random_hermitian"),
    ("sampling", "random_unitary"),
    ("sampling", "random_pure_vector"),
    ("sampling", "random_density_matrix"),
    ("sampling", "random_lipschitz_values"),
    ("sampling", "random_lipschitz_table"),
    ("sampling", "random_spectrum"),
    ("sampling", "random_commuting_pair"),
)
LAYER_CLASSMETHODS = (("functions", "FunctionTable", "from_values"),)
MODULES = ("linalg", "functions", "states", "order", "structure", "sampling", "cli")


def _modules():
    return [importlib.import_module("varorder")] + [
        importlib.import_module(f"varorder.{m}") for m in MODULES
    ]


@contextlib.contextmanager
def patched(replace: dict[str, object]):
    """Rebind ``"module.function"`` (or ``"module.Class.method"``) everywhere varorder binds it."""
    mods = {m.__name__.rpartition(".")[2]: m for m in _modules()}
    by_id, undo = {}, []
    for qual, new in replace.items():
        parts = qual.split(".")
        if len(parts) == 3:
            cls = getattr(mods[parts[0]], parts[1])
            undo.append((cls, parts[2], cls.__dict__[parts[2]]))
            setattr(cls, parts[2], new)
        else:
            by_id[id(getattr(mods[parts[0]], parts[1]))] = new
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            if id(val) in by_id:
                undo.append((mod, attr, val))
                setattr(mod, attr, by_id[id(val)])
    try:
        yield
    finally:
        for holder, attr, val in reversed(undo):
            setattr(holder, attr, val)


class Tracer:
    """Collects spans in memory; ``install`` wraps every layer function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._seen = weakref.WeakSet()

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.process_time

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                rec[5] = "error"
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, out)
            return out

        return traced

    def _repeat(self, args, _out) -> str:
        obj = args[0]
        if not isinstance(obj, HermitianObservable):
            return "new"
        if obj in self._seen:
            return "repeat"
        self._seen.add(obj)
        return "new"

    def install(self):
        """Context manager that wraps every layer function with a span."""
        notes = {
            "linalg.eigendecompose": self._repeat,
            "order.decide_order": lambda _args, out: "holds" if out.holds else "fails",
        }
        replace = {}
        for mod, fn in LAYER_FUNCTIONS:
            qual = f"{mod}.{fn}"
            orig = getattr(importlib.import_module(f"varorder.{mod}"), fn)
            replace[qual] = self.wrap(qual, orig, notes.get(qual))
        for mod, cls, meth in LAYER_CLASSMETHODS:
            owner = getattr(importlib.import_module(f"varorder.{mod}"), cls)
            qual = f"{mod}.{cls}.{meth}"
            replace[qual] = classmethod(self.wrap(qual, owner.__dict__[meth].__func__))
        return patched(replace)

    def run_op(self, op: int, fn, *args):
        """Run one benchmark operation under a root span; returns (result, CPU seconds)."""
        self.op = op
        first = len(self.spans)
        out = self.wrap(ROOT, fn)(*args)
        rec = self.spans[first]
        return out, rec[2] - rec[1]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Span duration minus the time its child spans cover (children never overlap)."""
    if not spans:
        return np.zeros(0)
    dur = np.array([s[2] - s[1] for s in spans])
    parent = np.array([s[3] for s in spans])
    child = np.zeros(len(spans))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: call count, total self seconds, and note counts."""
    own = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "notes": defaultdict(int)})
    for rec, s in zip(spans, own):
        row = out[rec[0]]
        row["calls"] += 1
        row["self_s"] += float(s)
        if rec[5] is not None:
            row["notes"][rec[5]] += 1
    return out
