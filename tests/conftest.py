import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from quboreduce import Gate, GateList, Graph, QuboMatrix, SpectrumEntry, complement, max_clique_qubo
from quboreduce.circuits import (
    build_circuit,
    cnot_count,
    cost_schedule,
    depth,
    format_gate_list,
    qubo_to_ising,
    schedule_metrics,
)
from quboreduce.experiments import DEFAULT_P_VALUES, SweepRecord, build_problem_qubo
from quboreduce import factoring, qubo
from quboreduce.factoring import (
    FactoringReport,
    VerificationVerdict,
    _check_z,
    _factoring_loop,
    _integral_multiples,
    _penalty_cells,
    _step_possible,
    default_z,
    dense_mirror,
    factoring_trajectory,
    get_conflict_list,
    get_most_sym_qubits,
)
from quboreduce.qubo import (
    ENUMERATION_GUARD,
    CapacityError,
    DimensionError,
    ParameterError,
    _check_json,
    _grid_index,
    all_energies,
    coupling_count,
)

# Six-vertex demo instance used across the suite.  The clique penalty couples
# every non-edge with weight 3; factoring the (1, 4) pair with its three
# shared neighbors {0, 2, 5} onto ancilla 6 drops the coupling count 9 -> 8.
DEMO_NON_EDGES = [(0, 1), (0, 4), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)]
DEMO_EDGES = [(0, 2), (0, 3), (0, 5), (1, 3), (2, 5), (3, 4)]


def _overcommits() -> bool:
    """Whether Linux grants every allocation up front (vm.overcommit_memory
    1), so that a tuple of 2**40 items would be filled, not refused."""
    try:
        with open("/proc/sys/vm/overcommit_memory") as f:
            return f.read().strip() == "1"
    except OSError:
        return False


# Layer counts whose angle tuples cannot be allocated: 2**40 pointers take
# 8 TiB, 10**18 more than a 64-bit address space holds.
UNALLOCATABLE_P = [
    pytest.param(2**40, marks=pytest.mark.skipif(_overcommits(), reason="the tuple would be filled")),
    10**18,
]

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


def bits_from_index(m: int, n: int) -> tuple[int, ...]:
    """Unpack assignment index ``m`` into a bit tuple (bit i of m = x_i)."""
    return tuple((m >> i) & 1 for i in range(n))


def min_energy_over_ancillas(q_mod: QuboMatrix, base_n: int, x) -> float:
    """Best energy of ``x`` extended by every possible ancilla assignment:
    verify_equivalence's per-assignment oracle.

    One grid over the ancilla bits holds each extension's energy as a Python
    number, adding the coefficients in (i, j) order, so the result is
    exactly ``qubo.energy`` of the first best extension in ancilla index
    order (ints stay exact past int64).
    """
    if len(x) != base_n or base_n > q_mod.n:
        raise DimensionError(f"base length {len(x)} incompatible with base_n={base_n}, n={q_mod.n}")
    num_anc = q_mod.n - base_n
    if num_anc > ENUMERATION_GUARD:
        raise CapacityError(f"{num_anc} ancillas exceed enumeration guard {ENUMERATION_GUARD}")
    grid = np.full((2,) * num_anc, q_mod.offset, dtype=object)
    for (i, j), v in q_mod.entries():
        if (i < base_n and not x[i]) or (j < base_n and not x[j]):
            continue
        grid[_grid_index(num_anc, ((k - base_n, 1) for k in (i, j) if k >= base_n))] += v
    return min(grid.reshape(-1))


def format_edge_list(g: Graph) -> str:
    """The edge-list text that ``graphs.parse_edge_list`` reads: a ``v m``
    header, then one ``i j`` line per edge in sorted order."""
    lines = [f"{g.v} {len(g.edges)}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


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
    (i, j) order: bitwise what all_energies gives where no sum rounds."""
    idx = np.arange(1 << q.n, dtype=np.int64)
    dtype = np.int64 if q.is_integral else np.float64
    energies = np.full(1 << q.n, q.offset, dtype=dtype)
    for (i, j), v in q.entries():
        both = ((idx >> i) & (idx >> j) & 1).astype(bool)
        energies[both] += v
    return energies


def sums_exact(q: QuboMatrix) -> bool:
    """Whether no sum of q's values rounds in float64: q is integral, or its
    own integral multiple."""
    return q.is_integral or _integral_multiples(q, q) is not None


def exact_energies(q: QuboMatrix) -> list[Fraction]:
    """Every energy, by assignment index, as the exact sum of the offset and
    the stored values of its active coefficients."""
    values = [Fraction(q.offset), *(Fraction(v) for _, v in q.entries())]
    scale = max(f.denominator for f in values)  # each a power of two
    offset, *numerators = (int(f * scale) for f in values)
    idx = np.arange(1 << q.n, dtype=np.int64)
    sums = np.full(1 << q.n, offset, dtype=object)
    for ((i, j), _), m in zip(q.entries(), numerators):
        sums[((idx >> i) & (idx >> j) & 1).astype(bool)] += m
    return [Fraction(int(s), scale) for s in sums]


def assert_energies_match_reference(q: QuboMatrix, widths=None) -> None:
    """all_energies and the blocks of _energy_blocks at each width w (all
    of 1..n by default) against the references.  Where no sum rounds, each
    is bitwise the (i, j)-order reference's slice, in dtype, value and sign
    of zero; otherwise each is float64 and within _energy_error_bound(q, w)
    of the exact energies."""
    exact = sums_exact(q)
    expected = reference_all_energies(q) if exact else exact_energies(q)
    widths = range(1, q.n + 1) if widths is None else widths
    for w, blocks in [(q.n, [(0, all_energies(q))])] + [(w, qubo._energy_blocks(q, w)) for w in widths]:
        bound = Fraction(qubo._energy_error_bound(q, w))
        for h, block in blocks:
            piece = expected[h << w : (h + 1) << w]
            if exact:
                assert block.dtype == piece.dtype
                assert np.array_equal(block, piece)
                assert np.array_equal(np.signbit(block), np.signbit(piece))
            else:
                assert block.dtype == np.float64
                assert all(abs(Fraction(b) - e) <= bound for b, e in zip(block.tolist(), piece)), (w, h)


def reference_spectrum(q: QuboMatrix) -> list[SpectrumEntry]:
    """The eager spectrum that ``qubo.Spectrum`` replaces: one entry per
    assignment, bits from ``bits_from_index``, energy cast by integrality."""
    energies = all_energies(q)
    order = np.argsort(energies, kind="stable")
    cast = int if q.is_integral else float
    return [SpectrumEntry(bits_from_index(int(m), q.n), cast(energies[m])) for m in order]


def verify_tolerance(q: QuboMatrix, q_mod: QuboMatrix) -> float:
    """The tol verify_equivalence holds a pair's differences to: 0 for an
    integral pair or one that is its own integral multiple; else the sum of
    both matrices' error bounds at the widths verify walks them and
    2**-53 * (|offset| + sum |Q[i,j]|) of q_mod."""
    if q.is_integral and q_mod.is_integral or _integral_multiples(q, q_mod) is not None:
        return 0
    w = min(q_mod.n, max(q.n, factoring._VERIFY_BLOCK_BITS))
    rounded = 2.0**-53 * sum(abs(v) for v in (q_mod.offset, *dict(q_mod.entries()).values()))
    return qubo._energy_error_bound(q, q.n) + qubo._energy_error_bound(q_mod, w) + rounded


def replay_valid(bits, steps) -> bool:
    """Whether base assignment ``bits`` is valid: replaying the steps, each
    ancilla the OR of its pair, no factored pair is fully set."""
    extended = list(bits)
    for step in steps:
        bi, bj = extended[step.i], extended[step.j]
        if bi and bj:
            return False
        extended.append(bi | bj)
    return True


def reference_verify(q, q_mod, report):
    """verify_equivalence with one Python replay of the steps per assignment,
    holding the differences to :func:`verify_tolerance`."""
    base_energies = all_energies(q)
    mod_energies = all_energies(q_mod)
    best_mod = mod_energies.reshape(1 << (q_mod.n - q.n), 1 << q.n).min(axis=0)
    tol = verify_tolerance(q, q_mod)
    valid_ok = invalid_ok = True
    for m in range(base_energies.size):
        diff = best_mod[m] - base_energies[m]
        if replay_valid(bits_from_index(m, q.n), report.steps):
            if abs(diff) > tol:
                valid_ok = False
        elif diff < -tol:
            invalid_ok = False
    minimum_ok = bool(abs(mod_energies.min() - base_energies.min()) <= tol)
    return VerificationVerdict(valid_ok, invalid_ok, minimum_ok)


def exact_verdict(q, q_mod, report, margin) -> tuple:
    """verify_equivalence's three fields in exact arithmetic on the stored
    values.  A field is False where one of its margins -- a valid row's
    difference, an invalid row's drop, the gap of the two minima -- exceeds
    ``margin``, True where all of them are 0, and None otherwise, as
    rounding may then decide it."""
    base, mod = exact_energies(q), exact_energies(q_mod)
    rows = 1 << q.n
    best = [min(mod[m::rows]) for m in range(rows)]
    valid = [replay_valid(bits_from_index(m, q.n), report.steps) for m in range(rows)]
    differences = [abs(best[m] - base[m]) for m in range(rows) if valid[m]]
    drops = [base[m] - best[m] for m in range(rows) if not valid[m] and best[m] < base[m]]
    gap = [abs(min(mod) - min(base))]
    return tuple(False if max(v, default=0) > margin else True if not any(v) else None
                 for v in (differences, drops, gap))


def reference_circuit(q: QuboMatrix, params, order) -> GateList:
    """``build_circuit``'s gates added through the range-checked
    ``GateList.append``, one new object per gate."""
    schedule = cost_schedule(q, order)
    ising = qubo_to_ising(q)
    h, couplings = ising.h, ising.couplings
    c = GateList(q.n)
    for qb in range(q.n):
        c.append(Gate("H", (qb,)))
    for gamma, beta in zip(params.gammas, params.betas):
        for i in schedule.h_support:
            c.append(Gate("RZ", (i,), 2 * gamma * h[i]))
        for i, k in schedule.pairs:
            c.append(Gate("CNOT", (i, k)))
            c.append(Gate("RZ", (k,), 2 * gamma * couplings[(i, k)]))
            c.append(Gate("CNOT", (i, k)))
        for qb in range(q.n):
            c.append(Gate("RX", (qb,), 2 * beta))
    return c


def assert_circuit_matches_reference(q: QuboMatrix, params, order) -> str:
    """``build_circuit``'s gates, text, depth and CNOT count against
    ``reference_circuit`` and the per-gate oracles; returns the text."""
    c = build_circuit(q, params, order)
    ref = reference_circuit(q, params, order)
    assert (c.n, c.gates) == (ref.n, ref.gates)
    text = format_gate_list(c)
    assert text == reference_format_gate_list(ref)
    assert read_gate_list(text).gates == c.gates
    assert depth(c) == reference_depth(ref)
    assert cnot_count(c) == sum(g.kind == "CNOT" for g in ref.gates)
    return text


def reference_depth(c: GateList) -> int:
    """ASAP depth of a gate list, with a generator max() over each gate's
    operands: the per-gate walk that ``circuits.depth``, read off the cost
    schedule, must agree with."""
    frontier = [0] * c.n
    total = 0
    for g in c.gates:
        t = 1 + max(frontier[qb] for qb in g.qubits)
        for qb in g.qubits:
            frontier[qb] = t
        if t > total:
            total = t
    return total


_INV_SQRT2 = 1 / np.sqrt(2)


def evolve(c: GateList, state: np.ndarray) -> np.ndarray:
    """Dense statevector evolution of the full gate sequence on the state's
    ``(2,) * n`` grid, the oracle for ``circuits.basis_phase``.  Each gate
    acts on the two ``_grid_index`` views its target bit splits: a one-qubit
    gate mixes them by its 2x2 matrix, and a CNOT swaps them where its
    control bit is 1.  The trailing ``...`` keeps a view writable when the
    gate fixes every axis."""
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


def reference_evolve(c: GateList, state: np.ndarray) -> np.ndarray:
    """Statevector evolution by index arrays: the ``evolve`` that the
    grid-view version replaced.  Each one-qubit gate builds the 2^n
    indices with its qubit's bit 0 and their partners with bit 1; each CNOT
    the indices with the control bit set and the target bit clear."""
    inv_sqrt2 = 1 / np.sqrt(2)

    def apply_single(state, qubit, u00, u01, u10, u11):
        idx = np.arange(state.size)
        lo = idx[(idx >> qubit) & 1 == 0]
        hi = lo | (1 << qubit)
        a, b = state[lo].copy(), state[hi].copy()
        state[lo] = u00 * a + u01 * b
        state[hi] = u10 * a + u11 * b

    state = state.astype(complex, copy=True)
    for g in c.gates:
        if g.kind == "H":
            apply_single(state, g.qubits[0], inv_sqrt2, inv_sqrt2, inv_sqrt2, -inv_sqrt2)
        elif g.kind == "RX":
            cos, sin = np.cos(g.angle / 2), np.sin(g.angle / 2)
            apply_single(state, g.qubits[0], cos, -1j * sin, -1j * sin, cos)
        elif g.kind == "RZ":
            apply_single(state, g.qubits[0], np.exp(-1j * g.angle / 2), 0, 0, np.exp(1j * g.angle / 2))
        elif g.kind == "CNOT":
            ctrl, tgt = g.qubits
            idx = np.arange(state.size)
            on = idx[((idx >> ctrl) & 1 == 1) & ((idx >> tgt) & 1 == 0)]
            flipped = on | (1 << tgt)
            state[on], state[flipped] = state[flipped].copy(), state[on].copy()
    return state


def reference_format_gate_list(c: GateList) -> str:
    """The gate-list text of any gate list, with every gate formatted anew:
    the oracle for ``circuits.format_gate_list``, which formats each layer
    of a ``QaoaCircuit`` off its schedule."""
    lines = [f"qubits {c.n}"]
    for g in c.gates:
        line = g.kind
        for qb in g.qubits:
            line = f"{line} {qb}"
        lines.append(line if g.angle is None else f"{line} {g.angle:.17g}")
    return "\n".join(lines) + "\n"


def read_gate_list(text: str) -> GateList:
    """The gates of ``circuits.format_gate_list`` text: the ``qubits n``
    header, then one ``Gate(kind, ints, float)`` per line, which checks its
    own fields.  The library writes this format but never reads it."""
    header, *lines = text.splitlines()
    label, n = header.split()
    assert label == "qubits"
    gates = []
    for line in lines:
        kind, *fields = line.split()
        angle = float(fields.pop()) if kind in ("RX", "RZ") else None
        gates.append(Gate(kind, tuple(int(f) for f in fields), angle))
    return GateList(int(n), gates)


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


def reference_loads(text: str) -> QuboMatrix:
    """``QuboMatrix.loads`` as it was before it took each entry in one pass:
    three ``_check_json`` calls, the duplicate probe, then a write through
    ``QuboMatrix.__setitem__``.  It does not refuse repeated JSON keys."""
    data = json.loads(text)
    try:
        n = data["n"]
        offset = data["offset"]
        raw = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"malformed QUBO JSON: {exc}") from exc
    _check_json("qubit count n", n, int)
    _check_json("offset", offset, (int, float))
    if not isinstance(raw, list):
        raise ParameterError("QUBO JSON entries must be a list")
    q = QuboMatrix(n, offset=offset)
    seen = set()
    for item in raw:
        if not isinstance(item, list) or len(item) != 3:
            raise ParameterError(f"malformed entry {item!r}")
        i, j, v = item
        _check_json("entry index", i, int)
        _check_json("entry index", j, int)
        _check_json("coefficient", v, (int, float))
        if i > j:
            raise ParameterError(f"entry ({i}, {j}) violates i <= j")
        if (i, j) in seen:
            raise ParameterError(f"duplicate entry for pair ({i}, {j})")
        seen.add((i, j))
        q[i, j] = v
    return q


def reference_step_cells(read, i: int, j: int, a: int, syms, z) -> list:
    """The ``((r, s), value)`` writes of a whole step, as ``factoring``
    listed them before ``enhance`` moved the shared couplings itself: the
    six penalty cells, then per sym its coupling onto the ancilla and two
    zeros."""
    cells = _penalty_cells(read, i, j, a, z)
    for k in syms:
        cells += [((k, a), read((i, k))), ((i, k), 0), ((j, k), 0)]
    return cells


def reference_enhance(q: QuboMatrix, pair, syms, z) -> QuboMatrix:
    """``factoring.enhance`` as it was before it worked on the entry dict:
    every read through ``q[i, k]`` and every write through ``out[cell]``."""
    i, j = pair
    _check_z(z)
    if i == j:
        raise ParameterError(f"pair ({i}, {j}) is not two distinct qubits")
    syms = frozenset(syms)
    if i in syms or j in syms:
        raise ParameterError("syms must exclude the factored pair")
    for k in syms:
        if q[i, k] == 0 or q[i, k] != q[j, k]:
            raise ParameterError(f"qubit {k} does not share identical nonzero couplings")
    out = q.copy(q.n + 1)
    for cell, value in reference_step_cells(q.__getitem__, i, j, q.n, syms, z):
        out[cell] = value
    return out


def reference_dense_mirror(q: QuboMatrix, num_ancillas: int, z) -> np.ndarray:
    """``factoring.dense_mirror`` as it was before it scattered the entry
    dict directly: the cells taken from the sorted ``q.entries()``."""
    items = list(q.entries())
    values = [v for _, v in items]
    room = min(num_ancillas, coupling_count(q))
    ints = sum(abs(v) for v in values if isinstance(v, int)) + (9 * abs(z) * room if isinstance(z, int) else 0)
    dtype = np.float64 if 2 * ints < 2**53 else object
    try:
        a = np.zeros((q.n + room, q.n + room), dtype=dtype)
    except (MemoryError, ValueError) as exc:
        raise CapacityError(f"the dense mirror of {q.n + room} qubits cannot be allocated: {exc}") from exc
    if items:
        rows, cols = np.array([k for k, _ in items]).T
        a[rows, cols] = values
        a[cols, rows] = values
    return a


def reference_factoring_loop(q: QuboMatrix, num_ancillas: int, z, read=None) -> FactoringReport:
    """``factoring._factoring_loop`` as it was before it carried its search:
    a full ``get_conflict_list``, then ``get_most_sym_qubits``, then the
    ``reference_step_cells`` writes into both triangles, at every step."""
    if num_ancillas < 0:
        raise ParameterError(f"ancilla budget must be non-negative, got {num_ancillas}")
    if z is None:
        z = default_z(q)
        if not z:
            raise ParameterError("the default z of a QUBO with no coefficients is 0, so a z must be given")
    _check_z(z)
    report = FactoringReport(q.n, z)
    if not num_ancillas or not _step_possible(q):
        return report  # no step to take: skip the mirror
    mirror = dense_mirror(q, num_ancillas, z)
    for n in range(q.n, q.n + num_ancillas + 1):
        a = mirror[:n, :n]
        if read is not None:
            read(a)
        if n == q.n + num_ancillas:
            break  # budget spent
        cl = get_conflict_list(a)
        if not len(cl):
            break
        step = get_most_sym_qubits(a, cl)
        if len(step.syms) < 3:
            break
        for (r, s), value in reference_step_cells(mirror.item, step.i, step.j, n, step.syms, z):
            mirror[r, s] = mirror[s, r] = value
        report.steps.append(step)
    return report


def loop_outcome(loop, q: QuboMatrix, num_ancillas: int, z):
    """``(report JSON or (error type, message), blocks)`` of one run of a
    factoring loop.  Each block it reads is kept as its dtype, shape and
    digest: the sha256 of its bytes, or of the reprs of its Python numbers
    when its dtype is object."""
    blocks = []

    def read(block):
        data = repr(block.tolist()).encode() if block.dtype == object else block.tobytes()
        blocks.append((block.dtype, block.shape, hashlib.sha256(data).hexdigest()))

    try:
        outcome = loop(q, num_ancillas, z, read).dumps()
    except (ParameterError, CapacityError) as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, blocks


def assert_loop_matches_reference(q: QuboMatrix, num_ancillas: int, z):
    """``_factoring_loop`` against ``reference_factoring_loop``: the same
    report or error and, step by step, the same blocks, bit for bit.
    Returns the shared outcome."""
    outcome = loop_outcome(_factoring_loop, q, num_ancillas, z)
    assert outcome == loop_outcome(reference_factoring_loop, q, num_ancillas, z)
    return outcome
