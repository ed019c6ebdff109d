"""QAOA circuit construction, CNOT counting, depth scheduling, and the
basis-state phase of a diagonal gate list, for checking the cost layer.

The gate set is {H, RX, RZ, CNOT}; each coupling term compiles to
CNOT-RZ-CNOT, so a circuit over a QUBO whose spin form has C couplings and p
layers contains exactly 2*C*p CNOT gates.  Connectivity is all-to-all (no
routing) and every gate occupies one time step on each operand qubit; depth is
the ASAP schedule length of the qubit-dependency DAG.  A ``CostSchedule`` fixes
one cost layer's gate order, and the gate list and its metrics derive from
it.  ``build_circuit`` returns a ``QaoaCircuit`` (the schedule, the spin form
and the layer angles) and builds no gate.  ``format_gate_list`` writes each
distinct gamma's cost layer and each distinct beta's mixer once, and
``cnot_count`` and ``depth`` come from ``schedule_metrics``, the frontier
pass the sweep reads its metrics with.  A sweep reads the schedule off the
factoring loop's dense mirror block (``_block_schedule``), with the same
float operations as the spin form, so it builds no ``IsingForm``.
``QaoaCircuit.gates`` builds ``Gate`` objects for a walk gate by gate;
``basis_phase`` walks explicit gate lists such as ``build_cost_layer``'s.

Angle convention: RZ(theta) = diag(exp(-i theta/2), exp(+i theta/2)), gamma
multiplies the cost layer and beta the mixer.
"""

from __future__ import annotations

import cmath
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .qubo import ParameterError, QuboMatrix, _check_json, _check_number, _finite

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
        if angles:
            _check_angle(self.kind, self.angle)
        if angles and self.angle == 0:  # RZ(-0) is RZ(0): store 0.0, so equal angles print alike
            object.__setattr__(self, "angle", 0.0)


def _check_angle(kind: str, angle) -> None:
    if not _finite(angle):
        raise ParameterError(f"{kind} angle must be finite, got {angle}")


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
        if not all(_finite(a) for a in (*self.gammas, *self.betas)):
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


@dataclass(frozen=True)
class QaoaCircuit:
    """``build_circuit``'s circuit, held as the cost schedule, the spin form
    that gives its RZ angles, and the layer angles, with no gate built."""

    n: int
    schedule: CostSchedule
    ising: IsingForm
    params: QaoaParams

    @cached_property
    def gates(self) -> list[Gate]:
        """The circuit's gates, built on first read.  Equal gates are one
        object: each pair's CNOT at both ends of its triple in every layer,
        and each distinct gamma's cost layer and beta's mixer, spliced in
        wherever it recurs."""
        cnots = _pair_cnots(self.schedule)
        gates = [Gate("H", (qb,)) for qb in range(self.n)]
        cost_layers, mixers = {}, {}
        for gamma, beta in zip(self.params.gammas, self.params.betas):
            if gamma not in cost_layers:
                cost_layers[gamma] = _cost_layer(self.schedule, self.ising, gamma, cnots)
            gates += cost_layers[gamma]
            if beta not in mixers:
                mixers[beta] = [Gate("RX", (qb,), 2 * beta) for qb in range(self.n)]
            gates += mixers[beta]
        return gates


def build_circuit(q: QuboMatrix, params: QaoaParams, order: str = DEFAULT_ORDER) -> QaoaCircuit:
    """Full QAOA circuit: H on every qubit, then p alternating cost and mixer
    layers.  The first angle in emission order that ``Gate`` would refuse
    raises.  Rounding is monotone in magnitude, so one product with the sum
    of the |terms| (not finite if a term is not) clears a cost layer.
    ``2 * float(gamma)`` is ``2 * gamma``, or inf where an int overflows."""
    ising, schedule = _ising_schedule(q, order)
    terms = [ising.h[i] for i in schedule.h_support] + [ising.couplings[pair] for pair in schedule.pairs]
    bound = sum(map(abs, terms))
    for gamma, beta in zip(params.gammas, params.betas):
        scale = 2 * float(gamma)
        if not _finite(scale * bound):
            for v in terms:
                _check_angle("RZ", scale * v)
        _check_angle("RX", 2 * beta)
    return QaoaCircuit(q.n, schedule, ising, params)


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


def cnot_count(c: QaoaCircuit) -> int:
    return 2 * len(c.schedule.pairs) * c.params.p


def depth(c: QaoaCircuit) -> int:
    """ASAP schedule length: gates on disjoint qubits share a time step."""
    return schedule_metrics(c.schedule, [c.params.p])[0][1]


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

def format_gate_list(c: QaoaCircuit) -> str:
    """The circuit's text, with each distinct gamma's cost layer and each
    distinct beta's mixer formatted once and joined in wherever it recurs.
    ``+ 0`` makes a -0.0 angle 0.0, as ``Gate`` stores it, so it prints 0."""
    schedule, h, couplings = c.schedule, c.ising.h, c.ising.couplings
    cost_texts, mixer_texts = {}, {}
    parts = [f"qubits {c.n}\n", *[f"H {qb}\n" for qb in range(c.n)]]
    for gamma, beta in zip(c.params.gammas, c.params.betas):
        if gamma not in cost_texts:
            lines = [f"RZ {i} {2 * gamma * h[i] + 0:.17g}\n" for i in schedule.h_support]
            lines += [f"CNOT {i} {k}\nRZ {k} {2 * gamma * couplings[i, k] + 0:.17g}\nCNOT {i} {k}\n"
                      for i, k in schedule.pairs]
            cost_texts[gamma] = "".join(lines)
        if beta not in mixer_texts:
            angle = f"{2 * beta + 0:.17g}"
            mixer_texts[beta] = "".join([f"RX {qb} {angle}\n" for qb in range(c.n)])
        parts += (cost_texts[gamma], mixer_texts[beta])
    return "".join(parts)
