"""QAOA gate-list construction, CNOT counting, depth scheduling, and a small
dense statevector evaluator for checking the diagonal cost layer.

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

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .qubo import CapacityError, ParameterError, QuboMatrix, _grid_index, index_from_bits

STATEVECTOR_GUARD = 20

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
        if self.p < 1:
            raise ParameterError(f"layer count must be positive, got {self.p}")
        if len(self.gammas) != self.p or len(self.betas) != self.p:
            raise ParameterError("need exactly p gammas and p betas")
        if not all(math.isfinite(a) for a in (*self.gammas, *self.betas)):
            raise ParameterError(f"QAOA angles must be finite, got gammas {self.gammas} and betas {self.betas}")

    @classmethod
    def constant(cls, p: int, gamma: float = DEFAULT_ANGLE, beta: float = DEFAULT_ANGLE) -> "QaoaParams":
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


def _angle_key(angle: float) -> tuple:
    # Equal keys give equal gates: 0.0 == -0.0, but 2 * -0.0 * h prints as -0.
    return type(angle), angle, math.copysign(1.0, angle)


def build_circuit(q: QuboMatrix, params: QaoaParams, order: str = DEFAULT_ORDER) -> GateList:
    """Full QAOA circuit: H on every qubit, then p alternating cost and mixer
    layers.  Each distinct gamma's cost layer and each distinct beta's mixer
    is built once and spliced in wherever it recurs."""
    ising, schedule = _ising_schedule(q, order)
    cnots = _pair_cnots(schedule)
    c = GateList(q.n, [Gate("H", (qb,)) for qb in range(q.n)])
    cost_layers: dict[tuple, list[Gate]] = {}
    mixers: dict[tuple, list[Gate]] = {}
    for gamma, beta in zip(params.gammas, params.betas):
        key = _angle_key(gamma)
        if key not in cost_layers:
            cost_layers[key] = _cost_layer(schedule, ising, gamma, cnots)
        c.gates += cost_layers[key]
        key = _angle_key(beta)
        if key not in mixers:
            mixers[key] = [Gate("RX", (qb,), 2 * beta) for qb in range(q.n)]
        c.gates += mixers[key]
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


_INV_SQRT2 = 1 / np.sqrt(2)


def evolve(c: GateList, state: np.ndarray) -> np.ndarray:
    """Dense statevector evolution of the full gate sequence on the state's
    ``(2,) * n`` grid.  Each gate acts on the two ``_grid_index`` views its
    target bit splits: a one-qubit gate mixes them by its 2x2 matrix, and a
    CNOT swaps them where its control bit is 1.  The trailing ``...`` keeps
    a view writable when the gate fixes every axis."""
    if state.shape != (1 << c.n,):
        raise ParameterError(f"state of shape {state.shape} is not a vector of length 2**{c.n}")
    state = state.astype(complex, copy=True)
    grid = state.reshape((2,) * c.n)
    for g in c.gates:
        ctrl = [(g.qubits[0], 1)] if g.kind == "CNOT" else []
        lo, hi = (grid[_grid_index(c.n, ctrl + [(g.qubits[-1], bit)]) + (...,)] for bit in (0, 1))
        a, b = lo.copy(), hi.copy()
        if g.kind == "CNOT":
            lo[...], hi[...] = b, a
            continue
        if g.kind == "H":
            u00, u01, u10, u11 = _INV_SQRT2, _INV_SQRT2, _INV_SQRT2, -_INV_SQRT2
        elif g.kind == "RX":
            cos, sin = np.cos(g.angle / 2), np.sin(g.angle / 2)
            u00, u01, u10, u11 = cos, -1j * sin, -1j * sin, cos
        else:
            u00, u01, u10, u11 = np.exp(-1j * g.angle / 2), 0, 0, np.exp(1j * g.angle / 2)
        lo[...] = u00 * a + u01 * b
        hi[...] = u10 * a + u11 * b
    return state


def basis_phase(c: GateList, x: Sequence[int], cost_only: bool = False) -> complex:
    """Amplitude of |x> after applying the circuit to |x>.

    With ``cost_only`` the circuit must be diagonal (RZ and CNOT-conjugated RZ
    only) and the returned amplitude is the unit phase picked up by |x>.
    """
    if c.n > STATEVECTOR_GUARD:
        raise CapacityError(f"n={c.n} exceeds statevector guard {STATEVECTOR_GUARD}")
    if len(x) != c.n:
        raise ParameterError(f"basis state length {len(x)} != n={c.n}")
    if cost_only:
        for g in c.gates:
            if g.kind not in ("RZ", "CNOT"):
                raise ParameterError(f"non-diagonal gate {g.kind} under cost_only")
    state = np.zeros(1 << c.n, dtype=complex)
    m = index_from_bits(x)
    state[m] = 1.0
    return complex(evolve(c, state)[m])


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
    # object, not value: Gate(..., 0.0) == Gate(..., -0.0), yet they print
    # differently.
    memo: dict[int, str] = {}
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        line = memo.get(id(g))
        if line is None:
            line = memo[id(g)] = _gate_line(g)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_gate_list(text: str) -> GateList:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "qubits" or not header[1].isdecimal() or int(header[1]) < 1:
        raise ParameterError("gate list must start with a 'qubits n' header, n a positive integer")
    c = GateList(int(header[1]))
    for ln in lines[1:]:
        kind, *fields = ln.split()
        if kind not in _GATE_FIELDS:
            raise ParameterError(f"unknown gate line {ln!r}")
        operands, angles = _GATE_FIELDS[kind]
        if len(fields) != operands + angles:
            raise ParameterError(f"{kind} takes {operands + angles} field(s), got {ln!r}")
        try:
            qubits = tuple(int(f) for f in fields[:operands])
            angle = float(fields[operands]) if angles else None
        except ValueError as exc:
            raise ParameterError(f"gate line {ln!r}: {exc}") from exc
        c.append(Gate(kind, qubits, angle))
    return c
