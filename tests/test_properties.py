"""Property tests: file-format round trips, the enumerated energies, the
conflict list, and the coupling count and landscape of each factoring step,
on small generated inputs."""

import math
from unittest.mock import patch

import numpy as np
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from quboreduce import Gate, GateList, Graph, QuboMatrix, coupling_count, energy, factoring, qubo, spectrum
from quboreduce.circuits import _GATE_FIELDS, _block_schedule, cost_schedule, depth, format_gate_list, parse_gate_list
from quboreduce.factoring import (
    _factoring_loop,
    dense_mirror,
    factor_out,
    factoring_trajectory,
    get_conflict_list,
    is_conflicting,
    verify_equivalence,
)
from quboreduce.graphs import all_pairs, format_edge_list, parse_edge_list
from quboreduce.qubo import all_energies, bits_from_index, min_energy_over_ancillas

from conftest import assert_bitwise_reference, reference_depth, reference_format_gate_list

SMALL = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw):
    v = draw(st.integers(1, 8))
    edges = draw(st.sets(st.sampled_from(all_pairs(v)))) if v > 1 else set()
    return Graph(v, frozenset(edges))


@st.composite
def qubos(draw, coefficients):
    n = draw(st.integers(1, 6))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    entries = draw(st.dictionaries(st.sampled_from(cells), coefficients))
    return QuboMatrix(n, entries, offset=draw(coefficients))


@st.composite
def penalty_qubos(draw, scales=st.just(1)):
    # A reward on every variable and a penalty on many pairs, the shape of
    # the penalty-pair encoders, so that most examples have steps to take.
    # Every coefficient is multiplied by one drawn scale.
    n = draw(st.integers(4, 9))
    scale = draw(scales)
    q = QuboMatrix(n)
    for i in range(n):
        q[i, i] = scale * draw(st.sampled_from((-1, -1, -1, -2)))
    for i, j in all_pairs(n):
        q[i, j] = scale * draw(st.sampled_from((0, 3, 3, 3, 2)))
    return q


@st.composite
def dyadic_qubos(draw):
    # Numerators over one drawn power of two, subnormal steps included, so
    # that most draws sum exactly in float64; small ints and a -0.0 offset
    # ride along.
    scale = draw(st.integers(-1074, 40))
    dyadic = st.integers(-2**12, 2**12).map(lambda m: math.ldexp(m, scale))
    return draw(qubos(dyadic | st.integers(-50, 50) | st.just(-0.0)))


@st.composite
def gate_lists(draw):
    n = draw(st.integers(1, 6))
    c = GateList(n)
    kinds = [kind for kind, (operands, _) in _GATE_FIELDS.items() if operands <= n]
    for kind in draw(st.lists(st.sampled_from(kinds))):
        operands, angles = _GATE_FIELDS[kind]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=operands, max_size=operands, unique=True))
        # Any finite double: subnormals, -0.0 and 17-digit values included.
        angle = draw(st.floats(allow_nan=False, allow_infinity=False)) if angles else None
        c.append(Gate(kind, tuple(qubits), angle))
    return c


@st.composite
def shared_gate_lists(draw):
    # Gates added through GateList.append, then placed again at drawn
    # positions, so that one object can stand at several places, as in
    # build_circuit's lists; or all of them read back by parse_gate_list, one
    # object per line.  0.0 and -0.0 are drawn often: equal, yet printed
    # differently.
    n = draw(st.integers(1, 6))
    pool = GateList(n)
    kinds = [kind for kind, (operands, _) in _GATE_FIELDS.items() if operands <= n]
    angles = st.sampled_from((0.0, -0.0)) | st.floats(allow_nan=False, allow_infinity=False)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        operands, takes_angle = _GATE_FIELDS[kind]
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=operands, max_size=operands, unique=True))
        pool.append(Gate(kind, tuple(qubits), draw(angles) if takes_angle else None))
    positions = st.lists(st.integers(0, len(pool.gates) - 1), max_size=40) if pool.gates else st.just([])
    c = GateList(n, [pool.gates[k] for k in draw(positions)])
    if draw(st.booleans()):
        c = parse_gate_list(reference_format_gate_list(c))
    return c


_INTS = st.integers(-10**6, 10**6)
_FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# Quarters add exactly in float64, so the energies is_conflicting compares
# carry no rounding.
_QUARTERS = st.integers(-400, 400).map(lambda k: k / 4)
# Ints past 2**53, which only a dtype-object mirror holds exactly.
_HUGE_INTS = st.integers(2**53, 2**70) | st.integers(-(2**70), -(2**53))


@SMALL
@given(graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@SMALL
@given(gate_lists())
def test_gate_list_round_trip(c):
    # .17g angles parse back to the same double, the sign of zero included.
    restored = parse_gate_list(format_gate_list(c))
    assert restored == c
    signs = [[math.copysign(1, g.angle) for g in m.gates if g.angle is not None] for m in (restored, c)]
    assert signs[0] == signs[1]


@SMALL
@given(shared_gate_lists())
def test_depth_and_format_match_references(c):
    assert depth(c) == reference_depth(c)
    assert format_gate_list(c) == reference_format_gate_list(c)


@SMALL
@given(qubos(_INTS | _FLOATS))
def test_qubo_json_round_trip(q):
    # Types too: 3 == 3.0, but an int coefficient must not come back a float.
    def typed(m):
        return m.n, type(m.offset), m.offset, [(k, type(v), v) for k, v in m.entries()]

    assert typed(QuboMatrix.loads(q.dumps())) == typed(q)


@SMALL
@given(dyadic_qubos())
def test_all_energies_matches_the_in_order_reference_bitwise(q):
    event("integral" if q.is_integral else "exact floats" if qubo._sums_exact(q) else "in-order floats")
    assert_bitwise_reference(q)


@SMALL
@given(penalty_qubos(), st.none() | st.integers(1, 40))
def test_each_step_removes_all_but_two_of_its_shared_couplings(q, z):
    # Moving |syms| shared couplings of a pair onto an ancilla removes 2|syms|
    # and adds |syms| + 2, the ancilla's couplings to the pair included.
    trajectory, report = factoring_trajectory(q, 4, z)
    event(f"{len(report.steps)} steps")
    for before, after, step in zip(trajectory, trajectory[1:], report.steps):
        assert len(step.syms) >= 3
        assert coupling_count(before) - coupling_count(after) == len(step.syms) - 2


@SMALL
@given(qubos(_INTS | _QUARTERS) | penalty_qubos(st.sampled_from((1, 0.25, 1.5))))
def test_conflict_list_pairs_are_conflicting(q):
    # The row-sum condition is sufficient for the exact semantic test.
    cl = get_conflict_list(dense_mirror(q, 0, 1)).tolist()
    event("some conflicting pairs" if cl else "no conflicting pairs")
    for i, j in cl:
        assert is_conflicting(q, i, j)


@SMALL
@given(penalty_qubos(st.just(1) | st.floats(0.1, 10)))
def test_factoring_at_default_z_preserves_the_landscape(q):
    q_mod, report = factor_out(q, 4)
    assume(report.steps)
    event("float" if not q.is_integral else "integer")
    assert verify_equivalence(q, q_mod, report).all_ok


@SMALL
@given(
    # Small ints let a row's h cancel to exactly 0.
    qubos(st.integers(-4, 4) | _INTS | _FLOATS | _HUGE_INTS | st.sampled_from((5e-324, -5e-324)))
    | dyadic_qubos()
    | penalty_qubos(st.sampled_from((1, 0.25, 1.5, 2**60))),
    st.integers(1, 40),
)
@example(QuboMatrix(2, {(0, 1): 5e-324}), 1)  # stored, though its quarter is 0.0
@example(QuboMatrix(3, {(0, 1): 2**60 + 1, (1, 1): -3, (1, 2): 0.1}), 1)
def test_block_schedule_is_the_cost_schedule(q, z):
    # The h support and pairs read off a dense mirror block equal those of
    # the matrix's spin form: for a fresh mirror of q and for every block the
    # factoring loop searched, each the mirror of the matrix the report's
    # replay builds.  The loop yields one block per trajectory matrix when it
    # builds its mirror, and none when it does not.
    mirror = dense_mirror(q, 0, z)
    event(f"mirror dtype {mirror.dtype}")
    assert _block_schedule(mirror) == cost_schedule(q)
    trajectory, _ = factoring_trajectory(q, 4, z)
    with patch.object(factoring, "dense_mirror", wraps=dense_mirror) as built:
        _, blocks = _factoring_loop(q, 4, z)
        read = 0
        for m, block in zip(trajectory, blocks):
            assert np.array_equal(block, dense_mirror(m, 0, z))
            assert _block_schedule(block) == cost_schedule(m)
            read += 1
        assert next(blocks, None) is None
    event(f"mirror built {built.called}")
    assert (read, built.call_count) in ((0, 0), (len(trajectory), 1))


# Ints, floats whose sums round (0.1 + 0.2 != 0.3), and floats at the 1e17
# scale, where one order of additions loses a small term another keeps.
_ROUNDING = (
    st.sampled_from((0.1, 0.2, 0.3, -0.1, -0.3, 1e17, -1e17, 3e17))
    | st.integers(-5, 5)
    | st.floats(-1e17, 1e17, allow_nan=False)
)


@st.composite
def written_twice(draw):
    # One QUBO's entries, written into two matrices in two drawn orders.
    n = draw(st.integers(1, 6))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    items = list(draw(st.dictionaries(st.sampled_from(cells), _ROUNDING, min_size=1)).items())
    offset = draw(_ROUNDING)
    return tuple(QuboMatrix(n, draw(st.permutations(items)), offset) for _ in range(2))


def _bits_of(value):
    # A float's bits, sign of zero included; an int as itself.
    return value.hex() if isinstance(value, float) else value


_MOTIVATION = [((0, 0), 0.2), ((0, 1), 0.1), ((1, 1), 0.3)]


@SMALL
@given(written_twice(), st.integers(0, 6))
@example((QuboMatrix(2, _MOTIVATION), QuboMatrix(2, [_MOTIVATION[0], _MOTIVATION[2], _MOTIVATION[1]])), 2)
def test_results_do_not_depend_on_write_order(pair, base_n):
    # energy, all_energies, the spectrum and min_energy_over_ancillas of
    # equal matrices are bitwise equal, whatever order wrote the entries.
    a, b = pair
    assert a == b
    n, base_n = a.n, min(base_n, a.n)
    event("float" if not a.is_integral else "integer")
    for m in range(1 << n):
        bits = bits_from_index(m, n)
        assert _bits_of(energy(a, bits)) == _bits_of(energy(b, bits))
    energies_a, energies_b = all_energies(a), all_energies(b)
    assert energies_a.dtype == energies_b.dtype
    assert energies_a.tobytes() == energies_b.tobytes()
    assert [(e.bits, _bits_of(e.energy)) for e in spectrum(a)] == [(e.bits, _bits_of(e.energy)) for e in spectrum(b)]
    for m in range(1 << base_n):
        bits = bits_from_index(m, base_n)
        assert _bits_of(min_energy_over_ancillas(a, base_n, bits)) == _bits_of(min_energy_over_ancillas(b, base_n, bits))
