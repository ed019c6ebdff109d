"""In-memory spans around the calls into each quboreduce layer.

The tracer replaces the public functions through which the layers call each
other with thin wrappers, in every ``quboreduce`` module namespace that binds
them (so ``experiments.build_circuit`` and ``circuits.build_circuit`` are both
covered).  Nothing under ``src/`` changes.  Each wrapper records a span
(name, start, end, parent span, operation id) and the amount of work the call
did, and only while an operation is open, so output checks made between
operations are never traced.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    work: int = 0


def _len(args, result):
    return len(result)


def _gates(args, result):
    return len(result.gates)


def _assignments(args, result):
    return 1 << args[0].n


def _loaded_bytes(args, result):
    return len(args[1])


def _one(args, result):
    return 1


# (module, attribute, span name, work counter).  Methods are given as
# "Class.method".  Span names follow the module that defines the function.
TARGETS = (
    ("graphs", "sample_graph", "graphs.sample_graph", None),
    ("encoders", "max_clique_qubo", "encoders.encode", None),
    ("encoders", "hamilton_cycle_qubo", "encoders.encode", None),
    ("encoders", "graph_coloring_qubo", "encoders.encode", None),
    ("encoders", "vertex_cover_qubo", "encoders.encode", None),
    ("encoders", "graph_isomorphism_qubo", "encoders.encode", None),
    ("qubo", "all_energies", "qubo.all_energies", _assignments),
    ("qubo", "spectrum", "qubo.spectrum", _len),
    ("qubo", "QuboMatrix.loads", "qubo.loads", _loaded_bytes),
    ("qubo", "QuboMatrix.dumps", "qubo.dumps", _len),
    ("factoring", "get_conflict_list", "factoring.get_conflict_list", _len),
    ("factoring", "get_most_sym_qubits", "factoring.get_most_sym_qubits", None),
    ("factoring", "enhance", "factoring.enhance", _one),
    ("factoring", "factor_out", "factoring.factor_out", None),
    ("factoring", "factoring_trajectory", "factoring.factoring_trajectory", None),
    ("factoring", "default_z", "factoring.default_z", None),
    ("factoring", "verify_equivalence", "factoring.verify_equivalence", None),
    ("circuits", "build_circuit", "circuits.build_circuit", _gates),
    ("circuits", "qubo_to_ising", "circuits.qubo_to_ising", None),
    ("circuits", "depth", "circuits.depth", None),
    ("circuits", "cnot_count", "circuits.cnot_count", None),
    ("circuits", "format_gate_list", "circuits.format_gate_list", _len),
    ("experiments", "run_sweep", "experiments.run_sweep", None),
    ("experiments", "build_problem_qubo", "experiments.build_problem_qubo", None),
    ("experiments", "format_records_csv", "experiments.format_records_csv", _len),
)


class Tracer:
    """Collects spans while installed and while an operation is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            amount = work(args, result) if work is not None else 0
            tracer.spans.append(Span(sid, name, start, end, parent, tracer.op, amount))
            return result

        return traced

    @contextlib.contextmanager
    def record(self, op: str):
        """Open operation ``op`` for the spans recorded inside the block."""
        self.op = op
        try:
            yield
        finally:
            self.op = None

    # -- installing the wrappers

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "quboreduce" or n.startswith("quboreduce.")]
        for mod_name, attr, name, work in TARGETS:
            mod = sys.modules[f"quboreduce.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrap(raw.__func__, name, work))
                else:
                    patched = self._wrap(raw, name, work)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, patched)
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, name, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its children
    cover.  Children may overlap each other or extend past the parent; the
    covered part is the union of their intervals clipped to the parent's."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, call count and summed work."""
    own = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"self_s": 0.0, "calls": 0, "work": 0})
        t["self_s"] += own[s.id]
        t["calls"] += 1
        t["work"] += s.work
    return totals
