"""QAOA gate-list construction, CNOT counting, depth scheduling, and the
basis-state phase of a diagonal circuit, for checking the cost layer.

The gate set is {H, RX, RZ, CNOT}; each coupling term compiles to
CNOT-RZ-CNOT, so a circuit over a QUBO whose spin form has C couplings and p
layers contains exactly 2*C*p CNOT gates.  Connectivity is all-to-all (no
routing) and every gate occupies one time step on each operand qubit; depth is
the ASAP schedule length of the qubit-dependency DAG.  A ``CostSchedule`` fixes
one cost layer's gate order; ``build_circuit`` emits gates from it and
``schedule_metrics`` reads the CNOT count and depth of every requested layer
count off it in one frontier pass, without building any.  A sweep reads the
schedule off the factoring loop's dense mirror block (``_block_schedule``),
with the same float operations as the spin form, so it builds no
``IsingForm``.  ``Gate`` is immutable, so ``build_circuit`` shares equal
gates: one CNOT object per pair stands at both ends of its CNOT-RZ-CNOT in
every layer, and layers with the same gamma (or beta) are one list of gates
spliced in again.  ``depth`` is one pass over the gates that branches on
their arity.

Angle convention: RZ(theta) = diag(exp(-i theta/2), exp(+i theta/2)), gamma
multiplies the cost layer and beta the mixer.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .qubo import ParameterError, QuboMatrix, _check_json, _check_number

# The gamma and beta of every layer when none are given.
DEFAULT_ANGLE = 0.5

# Operand and angle counts of each gate kind; two operands must be distinct.
_GATE_FIELDS = {"H": (1, 0), "CNOT": (2, 0), "RX": (1, 1), "RZ": (1, 1)}


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        fields = _GATE_FIELDS.get(self.kind)
        if fields is None:
            raise ParameterError(f"unknown gate kind {self.kind!r}")
        operands, angles = fields
        if len(self.qubits) != operands or (self.angle is not None) != angles:
            raise ParameterError(
                f"{self.kind} takes {operands} operand(s) and {angles} angle(s), got {self.qubits} {self.angle}"
            )
        if operands == 2 and self.qubits[0] == self.qubits[1]:
            raise ParameterError(f"{self.kind} needs two distinct operands, got {self.qubits}")
        if angles and not math.isfinite(self.angle):
            raise ParameterError(f"{self.kind} angle must be finite, got {self.angle}")
        if angles and self.angle == 0:  # RZ(-0) is RZ(0): store 0.0, so equal angles print alike
            object.__setattr__(self, "angle", 0.0)


@dataclass
class GateList:
    n: int
    gates: list[Gate] = field(default_factory=list)

    def append(self, gate: Gate) -> None:
        if any(qb < 0 or qb >= self.n for qb in gate.qubits):
            raise ParameterError(f"gate operands {gate.qubits} out of range for n={self.n}")
        self.gates.append(gate)


@dataclass(frozen=True)
class QaoaParams:
    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        _check_json("layer count", self.p, int)
        if self.p < 1:
            raise ParameterError(f"layer count must be positive, got {self.p}")
        if len(self.gammas) != self.p or len(self.betas) != self.p:
            raise ParameterError("need exactly p gammas and p betas")
        for a in (*self.gammas, *self.betas):
            _check_number("QAOA angle", a)
        if not all(math.isfinite(a) for a in (*self.gammas, *self.betas)):
            raise ParameterError(f"QAOA angles must be finite, got gammas {self.gammas} and betas {self.betas}")

    @classmethod
    def constant(cls, p: int, gamma: float = DEFAULT_ANGLE, beta: float = DEFAULT_ANGLE) -> "QaoaParams":
        # Before (gamma,) * p, which a float p or a huge one would fail.
        _check_json("layer count", p, int)
        if p > sys.maxsize:
            raise ParameterError(f"layer count must be at most {sys.maxsize}, got {p}")
        return cls(p, (gamma,) * p, (beta,) * p)


class IsingForm(NamedTuple):
    """Spin form of a QUBO under x_i = (1 - z_i)/2: sum J z z + sum h z + c."""

    h: dict
    couplings: dict
    constant: float


def qubo_to_ising(q: QuboMatrix) -> IsingForm:
    h: dict[int, float] = {}
    jj: dict[tuple[int, int], float] = {}
    c = float(q.offset)
    for (i, j), v in q.entries():
        if i == j:
            h[i] = h.get(i, 0.0) - v / 2
            c += v / 2
        else:
            jj[(i, j)] = v / 4
            h[i] = h.get(i, 0.0) - v / 4
            h[j] = h.get(j, 0.0) - v / 4
            c += v / 4
    h = {i: v for i, v in h.items() if v != 0}
    return IsingForm(h, jj, c)


def _packed(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # Greedy matching: emit rounds of couplings on pairwise-disjoint qubits.
    remaining = pairs
    out = []
    while remaining:
        used: set[int] = set()
        rest = []
        for i, k in remaining:
            if i in used or k in used:
                rest.append((i, k))
            else:
                out.append((i, k))
                used.update((i, k))
        remaining = rest
    return out


DEFAULT_ORDER = "ascending"
# Coupling-pair orders of a cost layer by name, each applied to the sorted pairs.
COUPLING_ORDERS = {DEFAULT_ORDER: lambda pairs: pairs, "packed": _packed}


class CostSchedule(NamedTuple):
    """One cost layer's gate order, shared by the gate list and its metrics:
    an RZ on each qubit of the sorted h support, then CNOT-RZ-CNOT on each
    coupling pair in emission order."""

    n: int
    h_support: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]


def _ising_schedule(q: QuboMatrix, order: str) -> tuple[IsingForm, CostSchedule]:
    if order not in COUPLING_ORDERS:
        raise ParameterError(f"unknown coupling order {order!r}")
    ising = qubo_to_ising(q)
    pairs = COUPLING_ORDERS[order](sorted(ising.couplings))
    return ising, CostSchedule(q.n, tuple(sorted(ising.h)), tuple(pairs))


def cost_schedule(q: QuboMatrix, order: str = DEFAULT_ORDER) -> CostSchedule:
    return _ising_schedule(q, order)[1]


def _block_schedule(a: np.ndarray) -> CostSchedule:
    """The default-order :func:`cost_schedule` of the matrix whose dense
    symmetric form is ``a``, read off the array without a spin form.

    ``qubo_to_ising`` takes row r's h as 0.0 minus each of the row's terms in
    column order, a/4 off the diagonal and a/2 on it; this is the same
    sequence of float operations, and each zero cell subtracts +0.0, which
    changes no value.  float64 holds ``a``'s ints exactly below 2**53, and
    dtype object does Python's own arithmetic.  Every nonzero cell above the
    diagonal is a coupling, in ascending (i, j) order."""
    w = a / 4
    np.fill_diagonal(w, a.diagonal() / 2)
    h = np.subtract.accumulate(np.hstack((np.zeros((len(a), 1), dtype=w.dtype), w)), axis=1)[:, -1]
    i, k = np.nonzero(np.triu(a, 1))
    return CostSchedule(len(a), tuple(np.nonzero(h)[0].tolist()), tuple(zip(i.tolist(), k.tolist())))


def _cost_layer(schedule: CostSchedule, ising: IsingForm, gamma: float, cnots: Sequence[Gate]) -> list[Gate]:
    """Diagonal phase layer exp(-i gamma H_C) up to global phase, with
    ``cnots[m]`` the CNOT of ``schedule.pairs[m]`` at both ends of its
    triple.  The schedule's operands are in range by construction, so the
    gates skip ``GateList.append``'s range check."""
    h, couplings = ising.h, ising.couplings
    gates = [Gate("RZ", (i,), 2 * gamma * h[i]) for i in schedule.h_support]
    for pair, cnot in zip(schedule.pairs, cnots):
        gates += (cnot, Gate("RZ", (pair[1],), 2 * gamma * couplings[pair]), cnot)
    return gates


def _pair_cnots(schedule: CostSchedule) -> list[Gate]:
    return [Gate("CNOT", pair) for pair in schedule.pairs]


def build_cost_layer(q: QuboMatrix, gamma: float) -> GateList:
    ising, schedule = _ising_schedule(q, DEFAULT_ORDER)
    return GateList(q.n, _cost_layer(schedule, ising, gamma, _pair_cnots(schedule)))


def build_circuit(q: QuboMatrix, params: QaoaParams, order: str = DEFAULT_ORDER) -> GateList:
    """Full QAOA circuit: H on every qubit, then p alternating cost and mixer
    layers.  Each distinct gamma's cost layer and each distinct beta's mixer
    is built once and spliced in wherever it recurs."""
    ising, schedule = _ising_schedule(q, order)
    cnots = _pair_cnots(schedule)
    c = GateList(q.n, [Gate("H", (qb,)) for qb in range(q.n)])
    cost_layers: dict[float, list[Gate]] = {}
    mixers: dict[float, list[Gate]] = {}
    for gamma, beta in zip(params.gammas, params.betas):
        if gamma not in cost_layers:
            cost_layers[gamma] = _cost_layer(schedule, ising, gamma, cnots)
        c.gates += cost_layers[gamma]
        if beta not in mixers:
            mixers[beta] = [Gate("RX", (qb,), 2 * beta) for qb in range(q.n)]
        c.gates += mixers[beta]
    return c


def schedule_metrics(schedule: CostSchedule, p_values: Sequence[int]) -> list[tuple[int, int]]:
    """(CNOT count, depth) of ``build_circuit``'s p-layer circuit for each p
    of ``p_values``, in that order, read off the schedule without building a
    gate.  Depth runs ASAP on per-qubit frontiers: H sets each to 1, each RZ
    on the h support and each RX adds 1, and a pair's CNOT-RZ-CNOT sets both
    of its qubits to their maximum plus 3.  The p-layer circuit is a prefix
    of the (p+1)-layer one, so one pass to the largest p reads every depth."""
    if any(p < 1 for p in p_values):
        raise ParameterError(f"layer counts must be positive, got {list(p_values)}")
    frontier = [1] * schedule.n
    depths = [1]  # depths[p] after p layers
    for _ in range(max(p_values, default=0)):
        for i in schedule.h_support:
            frontier[i] += 1
        for i, k in schedule.pairs:
            a, b = frontier[i], frontier[k]
            frontier[i] = frontier[k] = (a if a > b else b) + 3  # faster than max() here
        frontier = [t + 1 for t in frontier]
        depths.append(max(frontier))
    return [(2 * len(schedule.pairs) * p, depths[p]) for p in p_values]


def cnot_count(c: GateList) -> int:
    return sum(1 for g in c.gates if g.kind == "CNOT")


def depth(c: GateList) -> int:
    """ASAP schedule length: gates on disjoint qubits share a time step.  A
    one-qubit gate adds 1 to its qubit's frontier; a two-qubit gate sets
    both of its frontiers to the larger plus 1."""
    frontier = [0] * c.n
    for g in c.gates:
        qubits = g.qubits
        if len(qubits) == 1:
            frontier[qubits[0]] += 1
        else:
            i, k = qubits
            a, b = frontier[i], frontier[k]
            frontier[i] = frontier[k] = (a if a > b else b) + 1
    return max(frontier, default=0)


def basis_phase(c: GateList, x: Sequence[int]) -> complex:
    """Amplitude of |x> after the diagonal circuit ``c`` acts on |x>, by a
    walk of the basis state through the gates: a CNOT flips its target bit
    where its control bit is set, and an RZ(theta) multiplies the amplitude
    by exp(-i theta/2) on bit 0, exp(+i theta/2) on bit 1.  It is 0 if the
    bits do not return to x.  O(gates) at any n; H or RX raises."""
    if len(x) != c.n:
        raise ParameterError(f"basis state length {len(x)} != n={c.n}")
    start = [1 if b else 0 for b in x]
    bits = start.copy()
    amp = 1 + 0j
    for g in c.gates:
        if g.kind == "CNOT":
            ctrl, tgt = g.qubits
            bits[tgt] ^= bits[ctrl]
        elif g.kind == "RZ":
            amp *= cmath.exp((1j if bits[g.qubits[0]] else -1j) * g.angle / 2)
        else:
            raise ParameterError(f"non-diagonal gate {g.kind} in a basis phase walk")
    return amp if bits == start else 0j


# -- Line-oriented text format: header "qubits n", then one line per gate:
#    the kind, its operands and its angle if any ("H q", "RX q angle",
#    "RZ q angle", "CNOT q1 q2").  Angles carry 17 significant digits.

def _gate_line(g: Gate) -> str:
    line = g.kind
    for qb in g.qubits:
        line = f"{line} {qb}"
    return line if g.angle is None else f"{line} {g.angle:.17g}"


def format_gate_list(c: GateList) -> str:
    # Each distinct gate object is formatted once.  The memo is keyed by
    # object, which is faster than hashing the gate's fields.
    memo: dict[int, str] = {}
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        line = memo.get(id(g))
        if line is None:
            line = memo[id(g)] = _gate_line(g)
        lines.append(line)
    return "\n".join(lines) + "\n"
