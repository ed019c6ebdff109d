import cmath
import math
import random
import sys
from unittest.mock import patch

import numpy as np
import pytest

from quboreduce import (
    CapacityError,
    Gate,
    GateList,
    ParameterError,
    QaoaParams,
    QuboMatrix,
    basis_phase,
    build_circuit,
    build_cost_layer,
    cnot_count,
    coupling_count,
    depth,
    energy,
    qubo_to_ising,
)
from quboreduce import factoring
from quboreduce.circuits import (
    _block_schedule,
    cost_schedule,
    evolve,
    format_gate_list,
    parse_gate_list,
    schedule_metrics,
)
from quboreduce.experiments import build_problem_qubo, builtin_settings
from quboreduce.factoring import _factoring_loop, default_z, dense_mirror, factoring_trajectory
from quboreduce.qubo import bits_from_index

from conftest import random_float_qubo, random_qubo, reference_depth, reference_format_gate_list


class TestQuboToIsing:
    def test_single_diagonal(self):
        ising = qubo_to_ising(QuboMatrix(1, {(0, 0): 1}))
        assert ising.h == {0: -0.5}
        assert ising.couplings == {}
        assert ising.constant == 0.5

    def test_zero_matrix(self):
        ising = qubo_to_ising(QuboMatrix(3))
        assert ising.h == {} and ising.couplings == {} and ising.constant == 0

    def test_single_coupling(self):
        ising = qubo_to_ising(QuboMatrix(2, {(0, 1): 4}))
        assert ising.couplings == {(0, 1): 1.0}
        assert ising.h == {0: -1.0, 1: -1.0}
        assert ising.constant == 1.0

    def test_spin_substitution_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            q = random_qubo(rng, rng.randint(1, 8))
            ising = qubo_to_ising(q)
            for m in range(1 << q.n):
                bits = bits_from_index(m, q.n)
                spins = [1 - 2 * b for b in bits]
                spin_energy = ising.constant
                spin_energy += sum(h * spins[i] for i, h in ising.h.items())
                spin_energy += sum(v * spins[i] * spins[k] for (i, k), v in ising.couplings.items())
                assert spin_energy == pytest.approx(energy(q, bits))

    def test_couplings_match_offdiagonal_support(self):
        rng = random.Random(8)
        q = random_qubo(rng, 7)
        ising = qubo_to_ising(q)
        offdiag = {(i, j) for (i, j), _ in q.entries() if i < j}
        assert set(ising.couplings) == offdiag


class TestBuildCircuit:
    def test_single_qubit_no_cnots(self):
        q = QuboMatrix(1, {(0, 0): -1})
        c = build_circuit(q, QaoaParams.constant(1))
        assert [g.kind for g in c.gates] == ["H", "RZ", "RX"]
        assert cnot_count(c) == 0

    def test_cnot_law_on_demo(self, demo_qubo):
        c = build_circuit(demo_qubo, QaoaParams.constant(3))
        assert cnot_count(c) == 2 * 9 * 3 == 54

    def test_cnot_law_on_demo_factored(self, demo_factored):
        c = build_circuit(demo_factored, QaoaParams.constant(3))
        assert cnot_count(c) == 2 * 8 * 3 == 48

    def test_cnot_law_random(self):
        rng = random.Random(12)
        for _ in range(20):
            q = random_qubo(rng, rng.randint(1, 9))
            p = rng.randint(1, 4)
            c = build_circuit(q, QaoaParams.constant(p))
            assert cnot_count(c) == 2 * coupling_count(q) * p

    def test_packed_order_same_gate_multiset(self, demo_qubo):
        a = build_circuit(demo_qubo, QaoaParams.constant(2), order="ascending")
        b = build_circuit(demo_qubo, QaoaParams.constant(2), order="packed")
        assert sorted(map(repr, a.gates)) == sorted(map(repr, b.gates))

    @pytest.mark.parametrize("order", ["descending", "Ascending", ""])
    def test_rejects_unknown_coupling_order(self, demo_qubo, order):
        with pytest.raises(ParameterError, match="unknown coupling order"):
            cost_schedule(demo_qubo, order)
        with pytest.raises(ParameterError, match="unknown coupling order"):
            build_circuit(demo_qubo, QaoaParams.constant(1), order)

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            QaoaParams(0, (), ())
        with pytest.raises(ParameterError):
            QaoaParams(2, (0.1,), (0.2, 0.3))

    def test_constant_rejects_a_layer_count_past_maxsize(self):
        # (gamma,) * p overflows before allocating anything.
        with pytest.raises(ParameterError, match="layer count"):
            QaoaParams.constant(sys.maxsize + 1)

    @pytest.mark.parametrize("gammas, betas", [
        ((float("nan"),), (0.5,)),
        ((0.5,), (float("inf"),)),
        ((0.5, float("-inf")), (0.5, 0.5)),
        ((0.5, 0.5), (0.5, float("nan"))),
    ])
    def test_rejects_non_finite_angles(self, gammas, betas):
        # A non-finite angle would print as "nan" or "inf", which
        # parse_gate_list rejects.
        with pytest.raises(ParameterError, match="finite"):
            QaoaParams(len(gammas), gammas, betas)

    def test_equal_gates_are_one_object(self, demo_qubo, demo_factored):
        # Pins the sharing, as test_fills_no_second_array pins all_energies'
        # memory: a constant p-layer circuit holds one H and one RX object
        # per qubit, one RZ per h term, and one CNOT and one RZ per pair, each
        # object at every place its gate recurs.
        rng = random.Random(5)
        for q in [demo_qubo, demo_factored, QuboMatrix(1)] + [random_qubo(rng, rng.randint(1, 9)) for _ in range(10)]:
            schedule = cost_schedule(q)
            c = build_circuit(q, QaoaParams.constant(3))
            distinct = 2 * q.n + len(schedule.h_support) + 2 * len(schedule.pairs)
            assert len({id(g) for g in c.gates}) == distinct
            assert len(c.gates) == q.n + 3 * (len(schedule.h_support) + 3 * len(schedule.pairs) + q.n)
            # With three distinct gammas and betas, only the CNOTs recur.
            c = build_circuit(q, QaoaParams(3, (0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))
            distinct = q.n + len(schedule.pairs) + 3 * (len(schedule.h_support) + len(schedule.pairs) + q.n)
            assert len({id(g) for g in c.gates}) == distinct


def reference_circuit(q, params, order):
    """``build_circuit``'s gates added through the range-checked
    ``GateList.append``, as it added them before it skipped that check."""
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


def reference_qubos(rng):
    qubos = [random_qubo(rng, rng.randint(1, 9)) for _ in range(20)]
    qubos += [random_float_qubo(rng, rng.randint(1, 9)) for _ in range(20)]
    for s in builtin_settings(seeds=(0,)):
        if s.setting == 0:
            q = build_problem_qubo(s)
            qubos += factoring_trajectory(q, 29, default_z(q))[0][::7]
    return qubos


def assert_matches_reference(q, params, order):
    c = build_circuit(q, params, order)
    ref = reference_circuit(q, params, order)
    assert c == ref
    text = format_gate_list(c)
    assert text == reference_format_gate_list(ref)
    assert depth(c) == reference_depth(ref)
    return text


class TestBuildCircuitMatchesReference:
    @pytest.mark.parametrize("order", ["ascending", "packed"])
    def test_random_and_builtin_qubos(self, order):
        rng = random.Random(21)
        for q in reference_qubos(rng):
            p = rng.randint(1, 3)
            gammas, betas = ([rng.uniform(-2, 2) for _ in range(p)] for _ in range(2))
            assert_matches_reference(q, QaoaParams(p, tuple(gammas), tuple(betas)), order)

    @pytest.mark.parametrize("params", [
        QaoaParams.constant(1),
        QaoaParams.constant(2),
        QaoaParams.constant(3),
        # Repeated angles that are not all equal.
        QaoaParams(3, (0.3, -1.1, 0.3), (0.7, 0.7, -0.2)),
        # 0.0 == -0.0, but 2 * -0.0 * h prints as -0: the layers must not
        # share their gates.
        QaoaParams(2, (0.0, -0.0), (0.0, -0.0)),
        QaoaParams(2, (-0.0, 0.0), (-0.0, 0.0)),
    ], ids=["constant-1", "constant-2", "constant-3", "repeated", "zero-then-negative-zero",
            "negative-zero-then-zero"])
    def test_constant_repeated_and_signed_zero_angles(self, params):
        rng = random.Random(22)
        for q in reference_qubos(rng):
            for order in ("ascending", "packed"):
                text = assert_matches_reference(q, params, order)
                if 0.0 in params.gammas:
                    # The mixer on -0.0 prints as RX q -0.
                    assert " -0\n" in text


class TestDepth:
    def test_empty_circuit(self):
        assert depth(GateList(3)) == 0

    def test_parallel_single_qubit_gates(self):
        c = GateList(5)
        for qb in range(5):
            c.append(Gate("H", (qb,)))
        assert depth(c) == 1

    def test_dependency_chain(self):
        c = GateList(2)
        c.append(Gate("H", (0,)))
        c.append(Gate("H", (1,)))
        c.append(Gate("CNOT", (0, 1)))
        c.append(Gate("RZ", (1,), 0.3))
        c.append(Gate("CNOT", (0, 1)))
        assert depth(c) == 4

    def test_removing_a_gate_never_increases_depth(self):
        rng = random.Random(14)
        q = random_qubo(rng, 6)
        c = build_circuit(q, QaoaParams.constant(1))
        d = depth(c)
        for skip in range(len(c.gates)):
            reduced = GateList(c.n, c.gates[:skip] + c.gates[skip + 1:])
            assert depth(reduced) <= d

    def test_layer_scaling_bound(self):
        rng = random.Random(15)
        q = random_qubo(rng, 7)
        d1 = depth(build_circuit(q, QaoaParams.constant(1)))
        for p in (2, 3):
            dp = depth(build_circuit(q, QaoaParams.constant(p)))
            assert dp <= p * d1 + 1

    def test_coupling_stage_degree_lower_bound(self):
        rng = random.Random(16)
        for _ in range(10):
            q = random_qubo(rng, 8, density=0.4)
            degree = [0] * q.n
            for (i, j), _ in q.entries():
                if i < j:
                    degree[i] += 1
                    degree[j] += 1
            c = build_circuit(q, QaoaParams.constant(1))
            assert depth(c) >= 2 * max(degree, default=0)


def reference_metrics(q, p, order):
    c = reference_circuit(q, QaoaParams.constant(p), order)
    return cnot_count(c), reference_depth(c)


class TestScheduleMetrics:
    """``schedule_metrics`` against the CNOT count and reference depth of
    the gate list ``build_circuit`` emits from the same schedule, as
    ``reference_circuit`` builds it gate by gate."""

    @staticmethod
    def assert_matches_reference(q):
        for order in ("ascending", "packed"):
            schedule = cost_schedule(q, order)
            expected = {p: reference_metrics(q, p, order) for p in (1, 2, 3)}
            # Every p from one pass, in the caller's order.
            for p_values in ((1, 2, 3), (3, 1), (2,), (3, 2, 1), (1,)):
                assert schedule_metrics(schedule, p_values) == [expected[p] for p in p_values]

    def test_matches_reference_on_builtin_trajectories(self):
        settings = [s for s in builtin_settings(seeds=(0,)) if s.setting == 0]
        assert len(settings) == 5
        for s in settings:
            q = build_problem_qubo(s)
            trajectory, _ = factoring_trajectory(q, 29, default_z(q))
            for m in trajectory:
                self.assert_matches_reference(m)

    def test_matches_reference_on_random_qubos(self):
        rng = random.Random(61)
        for t in range(100):
            n = 1 if t < 4 else rng.randint(2, 10)
            floats = t % 2 == 1
            density = rng.choice((0.2, 0.5, 0.9))
            q = QuboMatrix(n, offset=rng.uniform(-3, 3) if floats else rng.randint(-3, 3))
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < density:
                        q[i, j] = rng.uniform(-5, 5) if floats else rng.randint(-5, 5)
            self.assert_matches_reference(q)

    def test_matches_reference_without_couplings(self):
        q = QuboMatrix(3, {(0, 0): 2, (2, 2): -1})
        assert cost_schedule(q).pairs == ()
        self.assert_matches_reference(q)
        # A coupling of 5e-324 rounds to 0 in the spin form, but it is stored,
        # so the circuit still emits its pair.
        q = QuboMatrix(2, {(0, 1): 5e-324})
        assert cost_schedule(q).pairs == ((0, 1),)
        self.assert_matches_reference(q)

    @pytest.mark.parametrize("p", [0, -2])
    def test_rejects_nonpositive_p(self, p):
        schedule = cost_schedule(QuboMatrix(1, {(0, 0): 1}))
        for p_values in ([p], [1, p], [p, 3]):
            with pytest.raises(ParameterError):
                schedule_metrics(schedule, p_values)

    def test_no_layer_counts_give_no_metrics(self):
        assert schedule_metrics(cost_schedule(QuboMatrix(2, {(0, 1): 1})), ()) == []


class TestBlockSchedule:
    """The schedule ``run_sweep`` reads off a dense mirror block against
    ``cost_schedule`` of the matrix the block holds."""

    def test_every_builtin_trajectory_matrix(self):
        # Every builtin instance has a pair that could step, so the loop
        # builds its mirror and yields one block per trajectory matrix.  zip
        # reads each block before the loop advances.
        for s in builtin_settings():
            q = build_problem_qubo(s)
            z = default_z(q)
            trajectory, _ = factoring_trajectory(q, 29, z)
            with patch.object(factoring, "dense_mirror", wraps=dense_mirror) as built:
                _, blocks = _factoring_loop(q, 29, z)
                for m, block in zip(trajectory, blocks, strict=True):
                    assert np.array_equal(block, dense_mirror(m, 0, z))
                    assert _block_schedule(block) == cost_schedule(m)
            assert built.call_count == 1

    @pytest.mark.parametrize("entries, h_support", [
        # h0 = 0.0 - (-2)/2 - 4/4 cancels, with the diagonal halved.
        ({(0, 0): -2, (0, 1): 4}, (1,)),
        # 0.0 - 1.0 - 2**60 + 2**60 is 0 only left to right: a pairwise sum
        # over the row's eight columns keeps the 1.0.
        ({(0, 0): 2.0, (0, 2): 2.0**62, (0, 3): -(2.0**62), (7, 7): 1.0}, (2, 3, 7)),
    ], ids=["diagonal-halved", "column-order"])
    def test_h_support_drops_rows_that_cancel(self, entries, h_support):
        q = QuboMatrix(8, entries)
        mirror = dense_mirror(q, 0, 1.0)
        assert mirror.dtype == np.float64
        assert cost_schedule(q).h_support == h_support
        assert _block_schedule(mirror) == cost_schedule(q)


def kron_reference(c, state):
    """``evolve`` by dense matrices: each gate a Kronecker product over all
    qubits, qubit k acting on bit k of the index (qubit 0 is the last factor)."""
    eye, flip = np.eye(2), np.array([[0, 1], [1, 0]])

    def full(ops):
        m = np.eye(1)
        for k in reversed(range(c.n)):
            m = np.kron(m, ops.get(k, eye))
        return m

    for g in c.gates:
        if g.kind == "CNOT":
            ctrl, tgt = g.qubits
            u = full({ctrl: np.diag([1, 0])}) + full({ctrl: np.diag([0, 1]), tgt: flip})
        elif g.kind == "H":
            u = full({g.qubits[0]: np.array([[1, 1], [1, -1]]) / np.sqrt(2)})
        else:
            cos, sin = np.cos(g.angle / 2), np.sin(g.angle / 2)
            rot = [[cos, -1j * sin], [-1j * sin, cos]] if g.kind == "RX" else np.diag([cos - 1j * sin, cos + 1j * sin])
            u = full({g.qubits[0]: np.array(rot)})
        state = u @ state
    return state


class TestEvolve:
    @pytest.mark.parametrize("q", [
        QuboMatrix(1, {(0, 0): -1}),
        QuboMatrix(2, {(0, 0): 1, (0, 1): -2, (1, 1): 0.5}),
        QuboMatrix(3, {(0, 0): -1, (0, 1): 2, (0, 2): 1.5, (1, 2): -3, (2, 2): 0.5}, offset=4),
    ], ids=["n1", "n2", "n3"])
    def test_full_circuit_matches_kronecker_reference(self, q):
        gammas, betas = (0.3, -0.7), (0.4, 1.1)
        c = build_circuit(q, QaoaParams(2, gammas, betas))
        start = np.zeros(1 << q.n, dtype=complex)
        start[0] = 1
        state = evolve(c, start)
        assert np.allclose(state, kron_reference(c, start), atol=1e-12)
        # It is the QAOA state: uniform superposition, then per layer the
        # phase exp(-i gamma E(x)) and exp(-i beta X) on every qubit, up to
        # one global phase.
        energies = np.array([energy(q, bits_from_index(m, q.n)) for m in range(1 << q.n)])
        expected = np.full(1 << q.n, (1 << q.n) ** -0.5, dtype=complex)
        for gamma, beta in zip(gammas, betas):
            mixer = np.eye(1)
            for _ in range(q.n):
                mixer = np.kron(mixer, [[np.cos(beta), -1j * np.sin(beta)], [-1j * np.sin(beta), np.cos(beta)]])
            expected = mixer @ (np.exp(-1j * gamma * energies) * expected)
        assert abs(np.vdot(expected, state)) == pytest.approx(1.0, abs=1e-12)


class TestBasisPhase:
    def test_empty_circuit(self):
        assert basis_phase(GateList(3), [0, 1, 0]) == 1

    def test_rz_phase_ratio(self):
        theta = 0.7
        c = GateList(1)
        c.append(Gate("RZ", (0,), theta))
        ratio = basis_phase(c, [1]) / basis_phase(c, [0])
        assert ratio == pytest.approx(cmath.exp(1j * theta))

    def test_cost_layer_phase_ratio_on_demo(self, demo_qubo):
        gamma = 0.37
        c = build_cost_layer(demo_qubo, gamma)
        x = [0, 1, 0, 0, 1, 0]  # energy 1
        y = [0, 1, 0, 0, 0, 0]  # energy -1
        ratio = basis_phase(c, x, cost_only=True) / basis_phase(c, y, cost_only=True)
        assert ratio == pytest.approx(cmath.exp(-1j * gamma * 2))

    def test_cost_layer_is_diagonal_and_encodes_energies(self):
        rng = random.Random(19)
        for _ in range(10):
            q = random_qubo(rng, rng.randint(2, 6))
            gamma = rng.uniform(0.1, 1.5)
            c = build_cost_layer(q, gamma)
            ref = basis_phase(c, (0,) * q.n, cost_only=True)
            e_ref = energy(q, (0,) * q.n)
            for m in range(1 << q.n):
                bits = bits_from_index(m, q.n)
                amp = basis_phase(c, bits, cost_only=True)
                assert abs(amp) == pytest.approx(1.0)
                expected = cmath.exp(-1j * gamma * (energy(q, bits) - e_ref))
                assert amp / ref == pytest.approx(expected, abs=1e-9)

    def test_cost_only_rejects_mixer_gates(self):
        c = GateList(1)
        c.append(Gate("RX", (0,), 0.2))
        with pytest.raises(ParameterError):
            basis_phase(c, [0], cost_only=True)

    def test_guard(self):
        with pytest.raises(CapacityError):
            basis_phase(GateList(25), [0] * 25)


class TestGateValidation:
    def test_cnot_needs_distinct_operands(self):
        with pytest.raises(ParameterError):
            Gate("CNOT", (1, 1))

    def test_rotation_needs_angle(self):
        with pytest.raises(ParameterError):
            Gate("RZ", (0,))

    @pytest.mark.parametrize("kind, qubits, angle", [
        # wrong operand count
        ("H", (), None),
        ("H", (0, 1), None),
        ("RX", (), 0.5),
        ("RX", (0, 1), 0.5),
        ("RZ", (), 0.5),
        ("RZ", (0, 1), 0.5),
        ("CNOT", (0,), None),
        ("CNOT", (0, 1, 2), None),
        # angle present where none is taken, or missing
        ("H", (0,), 0.5),
        ("CNOT", (0, 1), 0.5),
        ("RX", (0,), None),
        ("RZ", (0,), None),
        # equal CNOT operands
        ("CNOT", (1, 1), None),
        # unknown kind
        ("CZ", (0, 1), None),
        ("rz", (0,), 0.5),
        ("", (), None),
        # non-finite angle
        ("RZ", (0,), math.inf),
        ("RX", (1,), -math.inf),
        ("RZ", (0,), math.nan),
    ])
    def test_rejects_malformed_gate(self, kind, qubits, angle):
        with pytest.raises(ParameterError):
            Gate(kind, qubits, angle)

    def test_operands_in_range(self):
        c = GateList(2)
        for gate in (Gate("H", (2,)), Gate("RX", (-1,), 0.5), Gate("RZ", (2,), 0.5), Gate("CNOT", (0, 2)),
                     Gate("CNOT", (-1, 1)), Gate("H", (5,))):
            with pytest.raises(ParameterError):
                c.append(gate)
        assert c.gates == []


class TestGateListFormat:
    def test_round_trip(self, demo_qubo):
        c = build_circuit(demo_qubo, QaoaParams.constant(2, gamma=0.123456789, beta=0.9))
        restored = parse_gate_list(format_gate_list(c))
        assert restored.n == c.n
        assert restored.gates == c.gates

    def test_header_and_lines(self):
        c = GateList(2)
        c.append(Gate("H", (0,)))
        c.append(Gate("RZ", (1,), 0.5))
        c.append(Gate("CNOT", (0, 1)))
        c.append(Gate("RX", (1,), 0.1))
        text = format_gate_list(c)
        assert text.splitlines()[0] == "qubits 2"
        assert "RZ 1 0.5" in text
        assert "CNOT 0 1" in text
        assert text == "qubits 2\nH 0\nRZ 1 0.5\nCNOT 0 1\nRX 1 0.10000000000000001\n"

    def test_rejects_missing_header(self):
        with pytest.raises(ParameterError):
            parse_gate_list("H 0\n")

    @pytest.mark.parametrize("text", [
        "qubits 2\nH\n",
        "qubits 2\nCNOT 0\n",
        "qubits 2\nRZ 0 abc\n",
        "qubits x\n",
        "qubits 2\nH 0 1.5\n",
        "qubits 2\nRZ 0 nan\n",
        "qubits 2\nRX 0 inf\n",
        "qubits 0\n",
        "qubits 2 3\n",
        "qubits 2\nCNOT 0 1.0\n",
        "qubits 2\nH 2\n",
        "qubits 2\nRZ -1 0.5\n",
        "qubits 2\nCNOT 0 2\n",
        "qubits 2\nCZ 0 1\n",
        "qubits 2\nh 0\n",
    ])
    def test_rejects_malformed_line(self, text):
        with pytest.raises(ParameterError):
            parse_gate_list(text)
