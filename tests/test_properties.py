"""Property tests: file-format round trips, the QAOA circuit against its
gate-by-gate reference, the enumerated energies, the conflict list, the
factoring loop against its per-step reference, and the coupling count and
landscape of each factoring step, on small generated inputs."""

import dataclasses
import json
import math
import random
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from quboreduce import (
    Gate,
    GateList,
    Graph,
    ParameterError,
    QaoaParams,
    QuboMatrix,
    build_circuit,
    coupling_count,
    energy,
    factoring,
    max_clique_qubo,
    qubo,
    sample_graph,
    spectrum,
)
from quboreduce.circuits import _GATE_FIELDS, COUPLING_ORDERS, _block_schedule, cost_schedule
from quboreduce.experiments import ProblemSetting, build_problem_qubo
from quboreduce.factoring import (
    FactoringReport,
    FactoringStep,
    _factoring_loop,
    default_z,
    dense_mirror,
    factor_out,
    factoring_trajectory,
    get_conflict_list,
    is_conflicting,
    verify_equivalence,
)
from quboreduce.graphs import all_pairs, parse_edge_list
from quboreduce.qubo import all_energies

from conftest import (
    assert_circuit_matches_reference,
    assert_energies_match_reference,
    assert_loop_matches_reference,
    bits_from_index,
    exact_verdict,
    format_edge_list,
    min_energy_over_ancillas,
    random_float_qubo,
    read_gate_list,
    reference_circuit,
    reference_enhance,
    reference_factoring_loop,
    reference_format_gate_list,
    reference_all_energies,
    reference_loads,
    reference_spectrum,
    reference_verify,
    sums_exact,
    verify_tolerance,
)

SMALL = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw):
    v = draw(st.integers(1, 8))
    edges = draw(st.sets(st.sampled_from(all_pairs(v)))) if v > 1 else set()
    return Graph(v, frozenset(edges))


@st.composite
def qubos(draw, coefficients, max_n=6):
    n = draw(st.integers(1, max_n))
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
def dyadic_qubos(draw, max_n=6, scales=st.integers(-1074, 40)):
    # Numerators over one drawn power of two, subnormal steps included, so
    # that most draws sum exactly in float64; small ints and a -0.0 offset
    # ride along.
    scale = draw(scales)
    dyadic = st.integers(-2**12, 2**12).map(lambda m: math.ldexp(m, scale))
    return draw(qubos(dyadic | st.integers(-50, 50) | st.just(-0.0), max_n))


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
def qaoa_params(draw):
    # Few distinct angles, so layers repeat; 0.0 and -0.0 are equal keys that
    # print alike; ints; and angles whose gates overflow.
    p = draw(st.integers(1, 3))
    angles = (st.sampled_from((0.0, -0.0, 0.5, 1e303, -1e308)) | st.integers(-3, 3)
              | st.floats(-4, 4, allow_nan=False))
    return QaoaParams(p, *(tuple(draw(st.lists(angles, min_size=p, max_size=p))) for _ in range(2)))


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
    restored = read_gate_list(reference_format_gate_list(c))
    assert restored == c
    signs = [[math.copysign(1, g.angle) for g in m.gates if g.angle is not None] for m in (restored, c)]
    assert signs[0] == signs[1]


@SMALL
@given(qubos(_INTS, max_n=9) | qubos(_FLOATS, max_n=9), qaoa_params(), st.sampled_from(sorted(COUPLING_ORDERS)))
def test_circuit_matches_the_reference_gate_by_gate(q, params, order):
    # The gates, text, depth and CNOT count read off the schedule against
    # the reference's gates; a refused angle raises the reference's error.
    try:
        reference_circuit(q, params, order)
    except ParameterError as exc:
        event("an angle is refused")
        with pytest.raises(ParameterError) as caught:
            build_circuit(q, params, order)
        assert str(caught.value) == str(exc)
        return
    assert_circuit_matches_reference(q, params, order)


@SMALL
@given(qubos(_INTS | _FLOATS))
def test_qubo_json_round_trip(q):
    # Types too: 3 == 3.0, but an int coefficient must not come back a float.
    def typed(m):
        return m.n, type(m.offset), m.offset, [(k, type(v), v) for k, v in m.entries()]

    assert typed(QuboMatrix.loads(q.dumps())) == typed(q)


def _kind(q: QuboMatrix) -> str:
    return "integral" if q.is_integral else "exact floats" if sums_exact(q) else "rounding floats"


@SMALL
@given(dyadic_qubos())
def test_all_energies_matches_the_in_order_reference_bitwise(q):
    # Bitwise where no sum rounds; a draw whose sums round is within the
    # bound of the exact energies.
    event(_kind(q))
    assert_energies_match_reference(q)


@st.composite
def negative_zero_offset_qubos(draw):
    # Int, dyadic and inexact-float QUBOs, their offset often -0.0.
    q = draw(qubos(_INTS, 7) | qubos(_FLOATS, 7) | dyadic_qubos(7))
    return QuboMatrix(q.n, dict(q.entries()), draw(st.just(-0.0) | st.just(q.offset)))


def _has_negative_zero(values) -> bool:
    values = np.asarray(values, dtype=np.float64)
    return bool(np.signbit(values[values == 0]).any())


@SMALL
@given(negative_zero_offset_qubos())
def test_no_energy_is_a_negative_zero(q):
    # The offset is stored as +0, and a sum of nonzero values that cancels
    # is +0.0, so no energy the library computes has its sign bit set.
    event(_kind(q))
    assert not _has_negative_zero(all_energies(q))
    for w in range(1, q.n + 1):
        assert not any(_has_negative_zero(block) for _, block in qubo._energy_blocks(q, w))
    assert not _has_negative_zero([energy(q, bits_from_index(m, q.n)) for m in range(1 << q.n)])
    for base_n in {0, q.n // 2, q.n}:
        best = [min_energy_over_ancillas(q, base_n, bits_from_index(m, base_n)) for m in range(1 << base_n)]
        assert not _has_negative_zero(best)


@SMALL
@given(qubos(_INTS, 10) | qubos(_FLOATS, 10) | dyadic_qubos(10))
# The offset -0.0 is stored as 0.0, so x = 100 reads 0.0 however the walk
# reaches it, by adding or by subtracting 0.5.
@example(QuboMatrix(3, {(0, 0): 0.5}, offset=-0.0))
def test_energy_blocks_are_slices_of_the_reference(q):
    # At every width: bitwise slices of the (i, j)-order reference where no
    # sum rounds, and within the bound of the exact energies where sums round.
    event(_kind(q))
    assert_energies_match_reference(q)
    for w in range(1, q.n + 1):
        assert sorted(h for h, _ in qubo._energy_blocks(q, w)) == list(range(1 << (q.n - w)))


@SMALL
@given(qubos(_FLOATS, 11) | penalty_qubos(st.just(1.1)))
@example(random_float_qubo(random.Random(0), 11))
def test_the_walk_stays_within_its_bound_up_to_11_qubits(q):
    # Floats that round, on up to 11 qubits at every width: at w = 1 the
    # walk takes 2**10 - 1 Gray-code steps, each adding to the last one's
    # roundings.
    event(_kind(q))
    assert_energies_match_reference(q)


@SMALL
@given(qubos(st.integers(-40, 40), 8) | qubos(_INTS, 8)
       | dyadic_qubos(8) | dyadic_qubos(8, st.integers(-130, 10)))
def test_narrow_blocks_widen_to_slices_of_the_reference(q):
    # The narrow walk of verify_equivalence: small ints walk in int8 or
    # int16, and floats in float64 at every scale, 2**-130 included.
    # Widening is exact, so each block must read as the slice where no sum
    # rounds, and as the float64 block otherwise.
    exact = sums_exact(q)
    expected = reference_all_energies(q) if exact else all_energies(q)
    for w in range(1, q.n + 1):
        wide = {h: block.copy() for h, block in qubo._energy_blocks(q, w)}
        for h, block in qubo._energy_blocks(q, w, narrow=True):
            event(str(block.dtype))
            piece = expected[h << w : (h + 1) << w] if exact else wide[h]
            widened = block.astype(piece.dtype)
            assert np.array_equal(widened, piece)
            assert np.array_equal(np.signbit(widened), np.signbit(piece))


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


@st.composite
def mixed_penalty_qubos(draw, scales):
    # penalty_qubos on up to 12 qubits, with a few couplings made -1 or -2:
    # a step that moves a negative sym raises its Z and can start a pair
    # conflicting, and a sym may equal -2z at z = 1.
    n = draw(st.integers(6, 12))
    scale = draw(scales)
    q = QuboMatrix(n, {(i, i): -scale for i in range(n)})
    for i, j in all_pairs(n):
        q[i, j] = scale * draw(st.sampled_from((0, 3, 3, 3, 2)))
    for cell in draw(st.lists(st.sampled_from(all_pairs(n)), max_size=6)):
        q[cell] = scale * draw(st.sampled_from((-1, -2)))
    return q


@settings(max_examples=200, deadline=None)
@given(
    # ints, dyadic floats, floats that round, and ints past 2**53 (an object
    # mirror)
    penalty_qubos(st.sampled_from((1, 0.25, 0.1, 2**60)))
    | mixed_penalty_qubos(st.sampled_from((1, 0.5, 0.1, 2**60)))
    | qubos(_INTS | _QUARTERS | _FLOATS | _HUGE_INTS, max_n=8),
    st.sampled_from((None, 1, 5e307)),
    st.integers(0, 15),
)
def test_factoring_loop_matches_the_per_step_reference(q, z, budget):
    # The carried search against a full search at every step: the same
    # report or refusal, and bit for bit the same block at every step.
    outcome, blocks = assert_loop_matches_reference(q, budget, z)
    event("refused" if isinstance(outcome, tuple) else f"{len(blocks) - 1 if blocks else 0} steps")
    event(f"mirror dtype {blocks[0][0] if blocks else None}")


def test_factoring_loop_matches_the_reference_on_a_large_max_clique():
    # 200 qubits factored to saturation, 98 steps: each step changes a few
    # rows of a 298-qubit mirror, so the carried search is the faster.
    q = build_problem_qubo(ProblemSetting("max_clique", 200, 10000))
    outcome, blocks = assert_loop_matches_reference(q, 400, None)
    assert len(blocks) == 99 and len(factoring.FactoringReport.loads(outcome).steps) == 98
    seconds = {}
    for loop in (_factoring_loop, reference_factoring_loop, _factoring_loop):
        start = time.perf_counter()
        loop(q, 400, None)
        seconds[loop] = min(seconds.get(loop, math.inf), time.perf_counter() - start)
    assert seconds[_factoring_loop] < seconds[reference_factoring_loop]


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


@st.composite
def scaled_factored_pairs(draw):
    # An integral factored pair, sometimes with one cell of q_mod raised or
    # lowered by one, and an exponent e to scale it by 2**-e.
    q = draw(penalty_qubos())
    q_mod, report = factor_out(q, 3)
    cells = [(i, j) for i in range(q_mod.n) for j in range(i, q_mod.n)]
    for cell, unit in draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from((1, -1))), max_size=1)):
        q_mod[cell] += unit
    return q, q_mod, report, draw(st.integers(0, 40))


def _scaled(m: QuboMatrix, e: int) -> QuboMatrix:
    return QuboMatrix(m.n, {k: math.ldexp(v, -e) for k, v in m.entries()}, math.ldexp(m.offset, -e))


@SMALL
@given(scaled_factored_pairs())
def test_verify_of_a_scaled_pair_is_the_float_compare(case):
    # Scaled by 2**-e, the values are m/D with D at most 2**e.  The pair
    # compares as its integral multiple at every e, so its verdict is the
    # unscaled pair's, a unit change included.
    q, q_mod, report, e = case
    scaled_q, scaled_mod = _scaled(q, e), _scaled(q_mod, e)
    assert factoring._integral_multiples(scaled_q, scaled_mod) is not None
    verdict = verify_equivalence(scaled_q, scaled_mod, report)
    assert verdict == reference_verify(scaled_q, scaled_mod, report)
    event(f"verdict {dataclasses.astuple(verdict)}")
    assert verdict == verify_equivalence(q, q_mod, report)


@st.composite
def float_factored_pairs(draw, max_n=9, max_steps=4):
    # A penalty-shaped or random QUBO whose values are v * 1.1, dyadic v / 4,
    # or a mix, equal values alike so that shared couplings stay shared,
    # factored at the default z or a weak one, sometimes with one cell of
    # q_mod moved by a drawn amount.
    base = draw(penalty_qubos() | mixed_penalty_qubos(st.just(1)) | qubos(st.integers(-5, 5), max_n=6))
    assume(len(base) and base.n <= max_n)
    kind = draw(st.sampled_from(("1.1", "dyadic", "mixed")))
    factors = {"1.1": (1.1,), "dyadic": (0.25,), "mixed": (1.1, 0.25)}[kind]
    factor = {v: draw(st.sampled_from(factors)) for v in sorted(set(dict(base.entries()).values()))}
    q = QuboMatrix(base.n, {k: v * factor[v] for k, v in base.entries()}, 0.0)
    z = draw(st.sampled_from((None, 1 / 1000, 1.1)))
    if z is not None:
        z *= default_z(q)
    q_mod, report = factor_out(q, draw(st.integers(1, max_steps)), z)
    # Most pairs without a step are drawn again.
    assume(report.steps or draw(st.integers(0, 3)) == 0)
    cells = [(i, j) for i in range(q_mod.n) for j in range(i, q_mod.n)]
    for cell, share in draw(st.lists(st.tuples(st.sampled_from(cells), st.sampled_from((1.1, -0.5, 1e-9))),
                                     max_size=1)):
        q_mod[cell] += share
    event(f"{kind}, {len(report.steps)} steps")
    return q, q_mod, report


def _float_max_clique_pair():
    q = max_clique_qubo(sample_graph(10, 20, 0), 3)
    q = QuboMatrix(q.n, {k: v * 1.1 for k, v in q.entries()}, 0.0)
    return q, *factor_out(q, 4)


@settings(max_examples=30, deadline=None)
@given(float_factored_pairs())
# max_clique (10, 20) at seed 0 in units of 1.1, one step at budget 4: an
# absolute tolerance read it as broken from 2**20 up.
@example(_float_max_clique_pair())
def test_the_verdict_does_not_depend_on_the_units(case):
    # Scaling every value by 2**e is exact in float64 for these magnitudes,
    # so only the units move, and the verdict must not.
    q, q_mod, report = case
    verdict = verify_equivalence(q, q_mod, report)
    event(f"verdict {dataclasses.astuple(verdict)}")
    for e in range(-60, 61):
        assert verify_equivalence(_scaled(q, -e), _scaled(q_mod, -e), report) == verdict, e


@settings(max_examples=40, deadline=None)
@given(float_factored_pairs(max_n=10, max_steps=3))
def test_the_verdict_is_the_exact_one_where_rounding_cannot_decide(case):
    # Every energy of base <= 10 and at most 3 steps summed exactly.  A
    # field whose exact margins are 0, or one of them beyond twice tol, is
    # decided: rounding moves each compared difference by less than tol.
    q, q_mod, report = case
    verdict = dataclasses.astuple(verify_equivalence(q, q_mod, report))
    exact = exact_verdict(q, q_mod, report, 2 * verify_tolerance(q, q_mod))
    event(f"exact {exact}")
    for field, exact_field in zip(verdict, exact):
        assert exact_field is None or field == exact_field


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
    # replay builds.  The loop reads one block per trajectory matrix when it
    # builds its mirror, and none when it does not; each block is copied as
    # it is read, before the next step overwrites it.
    mirror = dense_mirror(q, 0, z)
    event(f"mirror dtype {mirror.dtype}")
    assert _block_schedule(mirror) == cost_schedule(q)
    trajectory, _ = factoring_trajectory(q, 4, z)
    blocks = []
    with patch.object(factoring, "dense_mirror", wraps=dense_mirror) as built:
        _factoring_loop(q, 4, z, lambda block: blocks.append(block.copy()))
    for m, block in zip(trajectory, blocks):
        assert np.array_equal(block, dense_mirror(m, 0, z))
        assert _block_schedule(block) == cost_schedule(m)
    event(f"mirror built {built.called}")
    assert (len(blocks), built.call_count) in ((0, 0), (len(trajectory), 1))


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


@SMALL
@given(qubos(st.integers(-3, 3)), st.integers(0, 14) | st.integers(15, 54), st.integers(-(2**61), 2**61) | st.integers(-3, 3))
def test_spectrum_order_is_the_int64_sort_at_every_scale(q, shift, offset):
    # Small ints scaled by 2**shift: spans below 2**8, below 2**16 and past
    # it, sorted as uint8, uint16 or int64 keys.  At most 21 cells of
    # 3 * 2**54 and an offset of 2**61 keep every sum under the 2**62 bound.
    scaled = QuboMatrix(q.n, ((k, v << shift) for k, v in q.entries()), offset)
    energies = all_energies(scaled)
    span = int(energies.max()) - int(energies.min())
    event("uint8" if span < 2**8 else "uint16" if span < 2**16 else "int64")
    entries = [(e.bits, e.energy, type(e.energy)) for e in spectrum(scaled)]
    assert entries == [(e.bits, e.energy, type(e.energy)) for e in reference_spectrum(scaled)]


# One bad entry each, as a function of the qubit count and the entries so
# far: a wrong shape or type, a lower-triangle, repeated or out-of-range
# pair, or a coefficient with no finite float value.
_BAD_ENTRIES = (
    lambda n, entries: [0, 1],
    lambda n, entries: [True, 0, 1],
    lambda n, entries: [0, 0.0, 1],
    lambda n, entries: [0, 0, "1"],
    lambda n, entries: [0, 0, False],
    lambda n, entries: [0, 0, None],
    lambda n, entries: [n - 1, 0, 1] if n > 1 else [1, 0, 1],
    lambda n, entries: [*entries[0][:2], 7] if entries else [0, n, 1],
    lambda n, entries: [0, n, 1],
    lambda n, entries: [-1, 0, 1],
    lambda n, entries: [0, 0, float("nan")],
    lambda n, entries: [n - 1, n - 1, float("-inf")],
    lambda n, entries: [0, n - 1, -(10**400)],
)


@st.composite
def qubo_documents(draw):
    # Entries in any order with int, float, zero and -0.0 values, and at
    # most one bad entry at a drawn place.
    n = draw(st.integers(1, 5))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    values = st.integers(-5, 5) | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((0, 0.0, -0.0))
    pairs = draw(st.lists(st.sampled_from(cells), unique=True))
    entries = [[i, j, draw(values)] for i, j in pairs]
    bad = draw(st.none() | st.sampled_from(_BAD_ENTRIES))
    if bad is not None:
        entries.insert(draw(st.integers(0, len(entries))), bad(n, entries))
    offset = draw(st.integers(-5, 5) | st.floats(-10, 10) | st.just(-0.0))
    return json.dumps({"n": n, "offset": offset, "entries": entries})


def _loaded(load, text):
    """What ``load`` makes of ``text``: the matrix with the repr of each
    number, which tells ints, floats and -0.0 apart, or the refusal."""
    try:
        q = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    return q.n, repr(q.offset), [(k, repr(v)) for k, v in q.entries()], list(q._entries)


@SMALL
@given(qubo_documents())
@example('{"n": 2, "offset": 0, "entries": [[0, 1, 0], [0, 1, 2]]}')
def test_loads_matches_the_reference_loader(text):
    loaded = _loaded(QuboMatrix.loads, text)
    event("refused" if len(loaded) == 2 else "loaded")
    assert loaded == _loaded(reference_loads, text)


def _ancilla_chain(q, pairs, z, moves=()):
    """``(q, q_mod, report)``: ``q`` stepped through ``enhance`` on each pair
    with no syms, then ``delta`` added to each ``(cell, delta)`` of ``moves``
    in ``q_mod``."""
    q_mod = q
    for pair in pairs:
        q_mod = factoring.enhance(q_mod, pair, (), z)
    for cell, delta in moves:
        q_mod[cell] += delta
    return q, q_mod, FactoringReport(q.n, z, [FactoringStep(q.n + k, *pair, ()) for k, pair in enumerate(pairs)])


@st.composite
def ancilla_chains(draw):
    # A QUBO of 3 to 8 qubits, integral, in quarters (walked) or in tenths
    # (filled in order), and 1 to 4 steps on any two earlier qubits, at the
    # strong default z or a weak one.  A step with no syms only adds its
    # penalty, which keeps valid energies and never lowers invalid ones, so
    # q_mod may have one coefficient moved as well.
    n = draw(st.integers(3, 8))
    scale = draw(st.sampled_from((1, 0.25, 0.1)))
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    entries = draw(st.dictionaries(st.sampled_from(cells), st.integers(-5, 5)))
    q = QuboMatrix(n, {k: scale * v for k, v in entries.items()}, scale * draw(st.integers(-5, 5)))
    z = draw(st.sampled_from((default_z(q) or scale, scale)))
    steps = draw(st.integers(1, 4))
    pairs = [tuple(draw(st.lists(st.integers(0, n + k - 1), min_size=2, max_size=2, unique=True))) for k in range(steps)]
    final = [(i, j) for i in range(n + steps) for j in range(i, n + steps)]
    moves = draw(st.lists(st.tuples(st.sampled_from(final), st.sampled_from((1, -1, -8)).map(scale.__mul__)), max_size=1))
    return _ancilla_chain(q, pairs, z, moves)


_THREE_QUBITS = QuboMatrix(3, {(0, 0): -1, (1, 1): -1, (2, 2): -1, (0, 1): 3})


def test_verify_matches_the_reference_on_ancilla_chains():
    # Steps over ancillas and over the qubits of an ancilla's own set, in
    # blocks of one to sixteen rows.  The two examples alone see every
    # verdict field both ways; the drawn chains mostly keep the landscape.
    seen = set()

    @SMALL
    @given(ancilla_chains(), st.integers(0, 4))
    @example(_ancilla_chain(_THREE_QUBITS, [(0, 1)], 6), 0)
    @example(_ancilla_chain(_THREE_QUBITS, [(0, 1), (3, 2)], 6, [((0, 1), -8), ((2, 2), 1)]), 1)
    def check(case, extra_bits):
        q, q_mod, report = case
        with patch.object(factoring, "_VERIFY_BLOCK_BITS", q.n + extra_bits):
            verdict = verify_equivalence(q, q_mod, report)
        assert verdict == reference_verify(q, q_mod, report)
        event(f"verdict {dataclasses.astuple(verdict)}")
        seen.add(dataclasses.astuple(verdict))

    check()
    assert all(set(values) == {False, True} for values in zip(*seen))


@SMALL
@given(
    penalty_qubos() | qubos(_INTS | _FLOATS),
    st.tuples(st.integers(-1, 9), st.integers(-1, 9)),
    st.lists(st.integers(-1, 9), max_size=4),
    st.sampled_from((1, 3, 0.5, 0, True, float("inf"))),
)
# Steps that move int and float couplings; drawn syms seldom share them.
@example(QuboMatrix(6, {(0, 1): 3, (0, 2): 3, (1, 2): 3, (0, 3): -1, (1, 3): -1, (0, 4): 2.0, (1, 4): 2.0}), (1, 0), [4, 2, 3], 1)
@example(QuboMatrix(5, {(1, 2): 1.5, (0, 1): 2, (0, 2): 2, (1, 3): 1.5, (2, 3): 1.5, (4, 4): -1}), (1, 2), [3, 0], 0.5)
def test_enhance_matches_the_reference_enhance(q, pair, syms, z):
    # Drawn pairs and syms, in range or not; most refuse, some step.  A step
    # leaves the same dict: its items in storage order, each value's type.
    before = q.dumps()
    outcome = _loaded(lambda m: factoring.enhance(m, pair, syms, z), q)
    event("refused" if len(outcome) == 2 else "stepped")
    assert outcome == _loaded(lambda m: reference_enhance(m, pair, syms, z), q)
    if len(outcome) != 2:
        stored = [list(f(q, pair, syms, z)._entries.items()) for f in (factoring.enhance, reference_enhance)]
        assert stored[0] == stored[1]
        assert [type(v) for _, v in stored[0]] == [type(v) for _, v in stored[1]]
    assert q.dumps() == before
