import random

import numpy as np
import pytest

from quboreduce import GateList, Graph, QuboMatrix, SpectrumEntry, complement, max_clique_qubo
from quboreduce.circuits import cost_schedule, schedule_metrics
from quboreduce.experiments import DEFAULT_P_VALUES, SweepRecord, build_problem_qubo
from quboreduce.factoring import factoring_trajectory
from quboreduce.qubo import all_energies, bits_from_index, coupling_count

# Six-vertex demo instance used across the suite.  The clique penalty couples
# every non-edge with weight 3; factoring the (1, 4) pair with its three
# shared neighbors {0, 2, 5} onto ancilla 6 drops the coupling count 9 -> 8.
DEMO_NON_EDGES = [(0, 1), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)]
DEMO_EDGES = [(0, 2), (0, 3), (0, 5), (1, 3), (2, 5), (3, 4)]

DEMO_FACTORED_ENTRIES = {
    (0, 0): -1, (1, 1): 2, (2, 2): -1, (3, 3): -1, (4, 4): 2, (5, 5): -1, (6, 6): 3,
    (0, 6): 3, (1, 4): 9, (1, 6): -6, (2, 3): 3, (2, 6): 3, (3, 5): 3, (4, 6): -6, (5, 6): 3,
}


@pytest.fixture
def demo_graph():
    return Graph(6, frozenset(DEMO_EDGES))


@pytest.fixture
def demo_qubo(demo_graph):
    return max_clique_qubo(demo_graph, 3)


@pytest.fixture
def demo_factored():
    return QuboMatrix(7, DEMO_FACTORED_ENTRIES)


def random_qubo(rng: random.Random, n: int, density: float = 0.5, lo: int = -5, hi: int = 5) -> QuboMatrix:
    """Random integer QUBO with roughly `density` of all upper-triangular
    cells populated."""
    q = QuboMatrix(n)
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                q[i, j] = rng.randint(lo, hi)
    return q


def random_float_qubo(rng: random.Random, n: int) -> QuboMatrix:
    """Random float QUBO whose coefficients span small, tiny and huge
    magnitudes, so energies print in fixed and exponent notation."""
    q = QuboMatrix(n, offset=rng.uniform(-3, 3))
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                q[i, j] = rng.choice((rng.uniform(-5, 5), rng.uniform(-1e-7, 1e-7), rng.uniform(-1e17, 1e17)))
    return q


def reference_all_energies(q: QuboMatrix) -> np.ndarray:
    """all_energies with one 2^n mask per stored coefficient, each added in
    (i, j) order: the bitwise reference for both of its fill paths."""
    idx = np.arange(1 << q.n, dtype=np.int64)
    dtype = np.int64 if q.is_integral else np.float64
    energies = np.full(1 << q.n, q.offset, dtype=dtype)
    for (i, j), v in q.entries():
        both = ((idx >> i) & (idx >> j) & 1).astype(bool)
        energies[both] += v
    return energies


def assert_bitwise_reference(q: QuboMatrix) -> None:
    """all_energies equals the reference in dtype, value and sign of zero."""
    expected = reference_all_energies(q)
    energies = all_energies(q)
    assert energies.dtype == expected.dtype
    assert np.array_equal(energies, expected)
    assert np.array_equal(np.signbit(energies), np.signbit(expected))


def reference_spectrum(q: QuboMatrix) -> list[SpectrumEntry]:
    """The eager spectrum that ``qubo.Spectrum`` replaces: one entry per
    assignment, bits from ``bits_from_index``, energy cast by integrality."""
    energies = all_energies(q)
    order = np.argsort(energies, kind="stable")
    cast = int if q.is_integral else float
    return [SpectrumEntry(bits_from_index(int(m), q.n), cast(energies[m])) for m in order]


def reference_depth(c: GateList) -> int:
    """ASAP depth with a generator max() over each gate's operands: the
    ``circuits.depth`` that the arity-branched pass replaced."""
    frontier = [0] * c.n
    total = 0
    for g in c.gates:
        t = 1 + max(frontier[qb] for qb in g.qubits)
        for qb in g.qubits:
            frontier[qb] = t
        if t > total:
            total = t
    return total


def reference_format_gate_list(c: GateList) -> str:
    """The gate-list text with every gate formatted anew: the
    ``circuits.format_gate_list`` that memoises by gate object replaced."""
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        line = g.kind
        for qb in g.qubits:
            line = f"{line} {qb}"
        lines.append(line if g.angle is None else f"{line} {g.angle:.17g}")
    return "\n".join(lines) + "\n"


def reference_sweep(setting, max_ancillas, p_values=DEFAULT_P_VALUES, z=None) -> list[SweepRecord]:
    """``run_sweep`` as it was before it read schedules off the factoring
    mirror: one ``cost_schedule`` per trajectory matrix, built from the
    matrix's spin form, one frontier pass per p, and the couplings counted
    on the matrix."""
    trajectory, _ = factoring_trajectory(build_problem_qubo(setting), max_ancillas, z)
    metrics = []
    for m in trajectory:
        schedule = cost_schedule(m)
        metrics.append((m.n, coupling_count(m), [schedule_metrics(schedule, [p])[0] for p in p_values]))
    records = []
    for budget in range(max_ancillas + 1):
        qubits, couplings, per_p = metrics[min(budget, len(metrics) - 1)]
        for p, (cnots, depth) in zip(p_values, per_p):
            records.append(SweepRecord(setting.problem, setting.setting, setting.seed, budget, p,
                                       qubits, couplings, cnots, depth))
    return records
