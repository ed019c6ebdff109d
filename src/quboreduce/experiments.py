"""Sweep harness: encode a problem setting, factor with growing ancilla
budgets, and record qubit/coupling/CNOT/depth metrics per budget and layer
count.  Output is a flat CSV suitable for any plotting tool.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .circuits import (
    DEFAULT_ORDER,
    GateList,
    QaoaParams,
    _block_schedule,
    build_circuit,
    cost_schedule,
    schedule_metrics,
)
from .encoders import PROBLEMS, encode
from .factoring import _factoring_loop, factor_out
from .graphs import permute_vertices, sample_graph, sample_permutation
from .qubo import ParameterError, QuboMatrix

# (v, e) per problem, three settings each; graph coloring uses K colors.
_SETTINGS_TABLE = {
    "max_clique": [(30, 87), (30, 174), (60, 354)],
    "hamilton_cycles": [(6, 10), (6, 8), (8, 16)],
    "graph_coloring": [(10, 31), (10, 20), (20, 114)],
    "vertex_cover": [(30, 131), (30, 218), (50, 800)],
    "graph_isomorphism": [(6, 10), (6, 8), (8, 16)],
}

_COLORS = 3
DEFAULT_PENALTY = 3
DEFAULT_SEEDS = (0, 1, 2, 3)
DEFAULT_MAX_ANCILLAS = 29
DEFAULT_P_VALUES = (1, 2, 3)


@dataclass(frozen=True)
class ProblemSetting:
    problem: str
    v: int
    e: int
    k: int | None = None
    penalty: float = DEFAULT_PENALTY
    seed: int = 0
    setting: int = 0

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ParameterError(f"unknown problem {self.problem!r}")
        if not 0 <= self.e <= self.v * (self.v - 1) // 2:
            raise ParameterError(f"edge count {self.e} out of range for v={self.v}")
        if (self.k is not None) != (self.problem == "graph_coloring"):
            raise ParameterError("color count k is required exactly for graph_coloring")


@dataclass(frozen=True)
class SweepRecord:
    problem: str
    setting: int
    seed: int
    num_ancillas: int
    p: int
    qubits: int
    couplings: int
    cnots: int
    depth: int


def builtin_settings(
    penalty: float = DEFAULT_PENALTY, seeds: Sequence[int] = DEFAULT_SEEDS
) -> list[ProblemSetting]:
    """All 15 experiment settings, one entry per (setting, seed)."""
    if len(set(seeds)) != len(seeds):
        raise ParameterError(f"duplicate seeds in {list(seeds)}")
    out = []
    for problem in PROBLEMS:
        for idx, (v, e) in enumerate(_SETTINGS_TABLE[problem]):
            k = _COLORS if problem == "graph_coloring" else None
            for seed in seeds:
                out.append(ProblemSetting(problem, v, e, k, penalty, seed, idx))
    return out


def build_problem_qubo(setting: ProblemSetting) -> QuboMatrix:
    g = sample_graph(setting.v, setting.e, setting.seed)
    g2 = None
    if setting.problem == "graph_isomorphism":
        # The second graph is a seeded vertex relabeling of the first.
        g2 = permute_vertices(g, sample_permutation(g.v, setting.seed + 1))
    return encode(setting.problem, g, setting.penalty, setting.k, g2)


def run_sweep(
    setting: ProblemSetting,
    max_ancillas: int,
    p_values: Sequence[int] = DEFAULT_P_VALUES,
    z: float | None = None,
) -> list[SweepRecord]:
    """One record per (ancilla budget, p), factoring with penalty ``z``
    (no ``z`` means ``default_z``).  Each distinct trajectory matrix's cost
    schedule is read off the dense mirror block the factoring loop searched
    (or built from the base matrix when the loop keeps no mirror), and every
    p's CNOT count and depth come from one frontier pass over it, without a
    gate list or a sparse matrix; budgets beyond the available structure
    repeat the saturated matrix's metrics."""
    if any(p < 1 for p in p_values):
        raise ParameterError(f"layer counts must be positive, got {list(p_values)}")
    if len(set(p_values)) != len(p_values):
        raise ParameterError(f"duplicate layer counts in {list(p_values)}")
    q = build_problem_qubo(setting)
    _, blocks = _factoring_loop(q, max_ancillas, z)
    schedules = [_block_schedule(block) for block in blocks] or [cost_schedule(q)]
    metrics = [(s.n, len(s.pairs), schedule_metrics(s, p_values)) for s in schedules]

    records = []
    for budget in range(max_ancillas + 1):
        qubits, couplings, per_p = metrics[min(budget, len(metrics) - 1)]
        for p, (cnots, circuit_depth) in zip(p_values, per_p):
            records.append(
                SweepRecord(
                    problem=setting.problem,
                    setting=setting.setting,
                    seed=setting.seed,
                    num_ancillas=budget,
                    p=p,
                    qubits=qubits,
                    couplings=couplings,
                    cnots=cnots,
                    depth=circuit_depth,
                )
            )
    return records


def sweep_circuit(
    setting: ProblemSetting,
    num_ancillas: int,
    params: QaoaParams,
    order: str = DEFAULT_ORDER,
) -> GateList:
    """The gate list behind the default-z sweep rows at one ancilla budget:
    the circuit of the matrix those rows measure.  In the default order its
    CNOT count and depth are the row's for ``params.p`` layers."""
    q_mod, _ = factor_out(build_problem_qubo(setting), num_ancillas)
    return build_circuit(q_mod, params, order)


def reduction_table(records: Iterable[SweepRecord]) -> list[tuple[str, int, float, float]]:
    """``(problem, setting, couplings %, depth %)`` per (problem, setting),
    sorted: how far the mean over seeds falls from each seed's smallest to
    its largest ``num_ancillas``, in the rows at the largest p of
    ``records``.  A zero mean at the smallest budget reads 0.0."""
    records = sorted(records, key=lambda r: r.num_ancillas)
    top_p = max((r.p for r in records), default=None)
    groups: dict[tuple, dict[int, list[SweepRecord]]] = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r.p == top_p:
            groups[r.problem, r.setting][r.seed].append(r)

    def fall(metric: str, seeds: dict) -> float:
        before = sum(getattr(rows[0], metric) for rows in seeds.values()) / len(seeds)
        after = sum(getattr(rows[-1], metric) for rows in seeds.values()) / len(seeds)
        return 100 * (before - after) / before if before else 0.0

    return [(*key, fall("couplings", seeds), fall("depth", seeds)) for key, seeds in sorted(groups.items())]


CSV_HEADER = tuple(f.name for f in fields(SweepRecord))


def format_records_csv(records: Iterable[SweepRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow([getattr(r, f) for f in CSV_HEADER])
    return buf.getvalue()


def parse_records_csv(text: str) -> list[SweepRecord]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
        raise ParameterError(f"unexpected CSV header {reader.fieldnames}")
    int_fields = set(CSV_HEADER) - {"problem"}
    out = []
    for row in reader:
        # A short row fills its missing fields with None; a long one adds a None key.
        if None in row or None in row.values():
            raise ParameterError(f"CSV line {reader.line_num} needs {len(CSV_HEADER)} fields")
        try:
            record = SweepRecord(**{k: (int(v) if k in int_fields else v) for k, v in row.items()})
            _check_record(record)
        except ValueError as exc:
            raise ParameterError(f"CSV line {reader.line_num}: {exc}") from exc
        out.append(record)
    return out


def _check_record(r: SweepRecord) -> None:
    """Reject a record that no sweep writes: an unknown problem, a negative
    count, no qubit or layer, or CNOTs off the 2 * couplings * p law."""
    if r.problem not in PROBLEMS:
        raise ParameterError(f"unknown problem {r.problem!r}")
    for name in ("setting", "num_ancillas", "p", "qubits", "couplings", "cnots", "depth"):
        least = 1 if name in ("p", "qubits") else 0
        if getattr(r, name) < least:
            raise ParameterError(f"{name} must be at least {least}, got {getattr(r, name)}")
    if r.cnots != 2 * r.couplings * r.p:
        raise ParameterError(f"cnots {r.cnots} != 2 * couplings * p = {2 * r.couplings * r.p}")
