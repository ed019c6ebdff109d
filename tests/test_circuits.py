import cmath
import hashlib
import math
import random
import sys
from unittest.mock import patch

import numpy as np
import pytest

from quboreduce import (
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
from quboreduce import circuits, factoring
from quboreduce.circuits import _block_schedule, cost_schedule, format_gate_list, schedule_metrics
from quboreduce.experiments import build_problem_qubo, builtin_settings
from quboreduce.factoring import _factoring_loop, default_z, dense_mirror, factor_out, factoring_trajectory

from conftest import (
    UNALLOCATABLE_P,
    assert_circuit_matches_reference,
    bits_from_index,
    evolve,
    random_float_qubo,
    random_qubo,
    read_gate_list,
    reference_circuit,
    reference_depth,
    reference_evolve,
    reference_format_gate_list,
)

# sha256 of format_gate_list and then "cnots=... depth=...\n" of
# build_circuit(factor_out(q, 29)[0], QaoaParams.constant(p), order) for
# every builtin_settings() instance q, each order of ("ascending", "packed")
# and each p of (1, 3), in that nesting: the CLI `circuit` outputs.
BUILTIN_GATE_LISTS_SHA256 = "db0b659ec8ac6b39cd03e946062fc4543799686e4a93dc399ee2deab0edfb5af"


def test_builtin_gate_lists_are_pinned():
    digest = hashlib.sha256()
    for s in builtin_settings():
        q_mod, _ = factor_out(build_problem_qubo(s), 29)
        for order in ("ascending", "packed"):
            for p in (1, 3):
                c = build_circuit(q_mod, QaoaParams.constant(p), order)
                digest.update(format_gate_list(c).encode())
                digest.update(f"cnots={cnot_count(c)} depth={depth(c)}\n".encode())
    assert digest.hexdigest() == BUILTIN_GATE_LISTS_SHA256


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

    @pytest.mark.parametrize("p", [True, 1.0])
    def test_rejects_a_layer_count_that_is_not_an_int(self, p):
        # isinstance(True, int) holds, but True is no layer count.
        with pytest.raises(ParameterError, match="layer count must be an integer"):
            QaoaParams(p, (0.5,), (0.5,))

    @pytest.mark.parametrize("p", [2.5, 2.0, True, "3"])
    def test_constant_rejects_a_layer_count_that_is_not_an_int(self, p):
        # Refused before (gamma,) * p, which raises TypeError for a float.
        with pytest.raises(ParameterError, match="^layer count must be an integer, got "):
            QaoaParams.constant(p)

    def test_constant_rejects_a_layer_count_past_maxsize(self):
        # (gamma,) * p overflows before allocating anything.
        with pytest.raises(ParameterError, match="layer count"):
            QaoaParams.constant(sys.maxsize + 1)

    @pytest.mark.parametrize("p", UNALLOCATABLE_P)
    def test_constant_rejects_a_layer_count_whose_angles_cannot_be_allocated(self, p):
        # Within sys.maxsize, but (gamma,) * p fails with MemoryError.
        with pytest.raises(ParameterError, match=f"^layer count {p} is too large: its angles cannot be allocated$"):
            QaoaParams.constant(p)

    @pytest.mark.parametrize("gammas, betas", [
        ((float("nan"),), (0.5,)),
        ((0.5,), (float("inf"),)),
        ((0.5, float("-inf")), (0.5, 0.5)),
        ((0.5, 0.5), (0.5, float("nan"))),
    ])
    def test_rejects_non_finite_angles(self, gammas, betas):
        # A non-finite angle would print as "nan" or "inf" in a gate list.
        with pytest.raises(ParameterError, match="finite"):
            QaoaParams(len(gammas), gammas, betas)

    @pytest.mark.parametrize("make", [
        lambda: QaoaParams.constant(1, 10**400),
        lambda: QaoaParams(2, (0.5, 0.5), (0.5, -10**400)),
    ], ids=["gamma", "beta"])
    def test_rejects_an_int_angle_with_no_float_value(self, make):
        with pytest.raises(ParameterError, match="^QAOA angles must be finite, got gammas "):
            make()

    @pytest.mark.parametrize("params, message", [
        # 2 * 10**308 is an int with no float value: the gate's own angle.
        (QaoaParams.constant(1, 0.5, 10**308), f"RX angle must be finite, got {2 * 10**308}"),
        # 2 * 10**308 * h has no float value either; its float limit is -inf,
        # as for the float gamma 1e308.
        (QaoaParams.constant(1, 10**308), "RZ angle must be finite, got -inf"),
    ], ids=["beta", "gamma"])
    def test_an_int_angle_whose_gate_angle_overflows(self, demo_qubo, params, message):
        with pytest.raises(ParameterError) as caught:
            build_circuit(demo_qubo, params)
        assert str(caught.value) == message

    def test_builds_no_gate(self, demo_qubo, demo_factored):
        # The text and the metrics come from the schedule; only .gates makes
        # Gate objects, one per distinct gate.
        for q in (demo_qubo, demo_factored):
            with patch.object(circuits, "Gate", wraps=Gate) as made:
                c = build_circuit(q, QaoaParams(3, (0.1, 0.2, 0.1), (0.3, 0.3, 0.4)), "packed")
                format_gate_list(c), cnot_count(c), depth(c)
                assert made.call_count == 0
                distinct = len({id(g) for g in c.gates})
                assert made.call_count == distinct > 0

    @pytest.mark.parametrize("make", [
        lambda: QaoaParams(1, (True,), (0.5,)),
        lambda: QaoaParams(2, (0.5, 0.5), (0.5, False)),
        lambda: QaoaParams.constant(1, gamma=True),
        lambda: QaoaParams.constant(3, beta=False),
    ], ids=["gamma", "beta", "constant-gamma", "constant-beta"])
    def test_rejects_bool_angles(self, make):
        # A bool is not a number here, as for the layer count and z: True
        # would print angles computed from 1.
        with pytest.raises(ParameterError, match="^QAOA angle must be a number, got (True|False)$"):
            make()

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


def reference_qubos(rng):
    qubos = [random_qubo(rng, rng.randint(1, 9)) for _ in range(20)]
    qubos += [random_float_qubo(rng, rng.randint(1, 9)) for _ in range(20)]
    for s in builtin_settings(seeds=(0,)):
        if s.setting == 0:
            q = build_problem_qubo(s)
            qubos += factoring_trajectory(q, 29, default_z(q))[0][::7]
    return qubos


class TestBuildCircuitMatchesReference:
    @pytest.mark.parametrize("order", ["ascending", "packed"])
    def test_random_and_builtin_qubos(self, order):
        rng = random.Random(21)
        for q in reference_qubos(rng):
            p = rng.randint(1, 3)
            gammas, betas = ([rng.uniform(-2, 2) for _ in range(p)] for _ in range(2))
            assert_circuit_matches_reference(q, QaoaParams(p, tuple(gammas), tuple(betas)), order)

    @pytest.mark.parametrize("params", [
        QaoaParams.constant(1),
        QaoaParams.constant(2),
        QaoaParams.constant(3),
        # Repeated angles that are not all equal.
        QaoaParams(3, (0.3, -1.1, 0.3), (0.7, 0.7, -0.2)),
        # 0.0 == -0.0, and a gate stores a zero angle as 0.0, so no gate
        # prints as -0.
        QaoaParams(2, (0.0, -0.0), (0.0, -0.0)),
        QaoaParams(2, (-0.0, 0.0), (-0.0, 0.0)),
    ], ids=["constant-1", "constant-2", "constant-3", "repeated", "zero-then-negative-zero",
            "negative-zero-then-zero"])
    def test_constant_repeated_and_signed_zero_angles(self, params):
        rng = random.Random(22)
        for q in reference_qubos(rng):
            for order in ("ascending", "packed"):
                text = assert_circuit_matches_reference(q, params, order)
                if 0.0 in params.gammas:
                    assert " -0\n" not in text


class TestZeroAngles:
    @pytest.mark.parametrize("kind", ["RZ", "RX"])
    def test_a_zero_angle_is_stored_as_positive_zero(self, kind):
        gate = Gate(kind, (0,), -0.0)
        assert repr(gate.angle) == "0.0" and math.copysign(1, gate.angle) == 1
        assert gate == Gate(kind, (0,), 0.0)

    def test_zero_angles_print_as_0(self):
        # h0 = -1 and J01 = 0.5: a gamma of 0.0 gives RZ angles -0.0 and 0.0,
        # and a beta of -0.0 gives RX angles -0.0.  Each prints as 0.
        q = QuboMatrix(2, {(0, 0): 1, (0, 1): 2, (1, 1): -1})
        c = build_circuit(q, QaoaParams(1, (0.0,), (-0.0,)))
        expected = "qubits 2\nH 0\nH 1\nRZ 0 0\nCNOT 0 1\nRZ 1 0\nCNOT 0 1\nRX 0 0\nRX 1 0\n"
        assert format_gate_list(c) == reference_format_gate_list(c) == expected

    def test_zero_and_negative_zero_gammas_share_one_cost_layer(self):
        q = QuboMatrix(3, {(0, 0): -1.0, (0, 1): 2.0, (1, 2): -3.0, (2, 2): 0.5})
        c = build_circuit(q, QaoaParams(2, (0.0, -0.0), (0.0, -0.0)))
        # H on each qubit, then cost layer, mixer, cost layer, mixer.
        layer = (len(c.gates) - q.n) // 2 - q.n
        first = c.gates[q.n : q.n + layer]
        second = c.gates[2 * q.n + layer : 2 * q.n + 2 * layer]
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert "-0" not in format_gate_list(c)


class TestDepth:
    def test_empty_gate_list(self):
        assert reference_depth(GateList(3)) == 0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_parallel_single_qubit_gates(self, p):
        # No spin-form term: the H layer and each mixer are one step each.
        c = build_circuit(QuboMatrix(5), QaoaParams.constant(p))
        assert {g.kind for g in c.gates} == {"H", "RX"}
        assert depth(c) == reference_depth(c) == p + 1

    def test_dependency_chain(self):
        # h0 = h1 = 0 and J01 = 1: H, then CNOT-RZ-CNOT on both qubits, then RX.
        q = QuboMatrix(2, {(0, 0): -2, (0, 1): 4, (1, 1): -2})
        c = build_circuit(q, QaoaParams.constant(1))
        assert [g.kind for g in c.gates] == ["H", "H", "CNOT", "RZ", "CNOT", "RX", "RX"]
        assert depth(c) == reference_depth(c) == 5

    def test_removing_a_gate_never_increases_depth(self):
        rng = random.Random(14)
        q = random_qubo(rng, 6)
        c = build_circuit(q, QaoaParams.constant(1))
        d = depth(c)
        for skip in range(len(c.gates)):
            reduced = GateList(c.n, c.gates[:skip] + c.gates[skip + 1:])
            assert reference_depth(reduced) <= d

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
    return sum(g.kind == "CNOT" for g in c.gates), reference_depth(c)


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
        # builds its mirror and reads one block per trajectory matrix.  Each
        # is copied as it is read, before the next step overwrites it.
        for s in builtin_settings():
            q = build_problem_qubo(s)
            z = default_z(q)
            trajectory, _ = factoring_trajectory(q, 29, z)
            blocks = []
            with patch.object(factoring, "dense_mirror", wraps=dense_mirror) as built:
                _factoring_loop(q, 29, z, lambda block: blocks.append(block.copy()))
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

    @pytest.mark.parametrize("c, shape", [
        (GateList(3, [Gate("H", (2,))]), 4),
        (GateList(2), 3),
        (GateList(2, [Gate("CNOT", (0, 1))]), 8),
        (GateList(1, [Gate("RZ", (0,), 0.5)]), 1),
        (GateList(2, [Gate("H", (0,))]), (2, 2)),
    ], ids=["short", "no-gates", "long", "one-amplitude", "not-a-vector"])
    def test_rejects_state_of_wrong_shape(self, c, shape):
        with pytest.raises(ParameterError, match=f"not a vector of length 2\\*\\*{c.n}"):
            evolve(c, np.ones(shape))


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


def assert_bitwise(state, expected):
    assert state.dtype == expected.dtype == complex
    assert np.array_equal(state.view(np.uint64), expected.view(np.uint64))


def random_gate(rng: random.Random, n: int) -> Gate:
    kind = rng.choice(["H", "RX", "RZ", "CNOT"] if n > 1 else ["H", "RX", "RZ"])
    if kind == "CNOT":
        return Gate(kind, tuple(rng.sample(range(n), 2)))
    return Gate(kind, (rng.randrange(n),), None if kind == "H" else rng.uniform(-2 * math.pi, 2 * math.pi))


class TestEvolveMatchesReference:
    """``evolve`` on grid views is bitwise the index-array evolution."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_gate_sequences(self, seed):
        rng = random.Random(seed)
        n = 1 + seed % 8
        c = GateList(n, [random_gate(rng, n) for _ in range(rng.randint(1, 40))])
        start = random_state(np.random.default_rng(seed), n)
        assert_bitwise(evolve(c, start), reference_evolve(c, start))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_qaoa_circuits(self, seed):
        rng = random.Random(seed)
        n = 1 + seed
        p = rng.randint(1, 3)
        angles = tuple(rng.uniform(-3, 3) for _ in range(2 * p))
        c = build_circuit(random_qubo(rng, n), QaoaParams(p, angles[:p], angles[p:]))
        start = random_state(np.random.default_rng(seed), n)
        assert_bitwise(evolve(c, start), reference_evolve(c, start))

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("gate", [
        lambda n: Gate("H", (0,)),
        lambda n: Gate("H", (n - 1,)),
        lambda n: Gate("RX", (0,), 0.9),
        lambda n: Gate("RX", (n - 1,), -1.3),
        lambda n: Gate("RZ", (0,), 2.1),
        lambda n: Gate("RZ", (n - 1,), -0.4),
    ], ids=["H-lowest", "H-highest", "RX-lowest", "RX-highest", "RZ-lowest", "RZ-highest"])
    def test_one_qubit_gate_on_lowest_and_highest_qubit(self, gate, n):
        c = GateList(n, [gate(n)])
        start = random_state(np.random.default_rng(n), n)
        assert_bitwise(evolve(c, start), reference_evolve(c, start))

    @pytest.mark.parametrize("n", [2, 3, 6])
    @pytest.mark.parametrize("pair", [
        lambda n: (0, n - 1),
        lambda n: (n - 1, 0),
        lambda n: (n // 2 - 1, n // 2),
        lambda n: (n // 2, n // 2 - 1),
    ], ids=["ctrl<tgt-outer", "ctrl>tgt-outer", "ctrl<tgt-inner", "ctrl>tgt-inner"])
    def test_cnot_in_both_directions(self, pair, n):
        c = GateList(n, [Gate("CNOT", pair(n))])
        start = random_state(np.random.default_rng(n), n)
        state = evolve(c, start)
        assert_bitwise(state, reference_evolve(c, start))
        assert not np.array_equal(state, start)


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
        ratio = basis_phase(c, x) / basis_phase(c, y)
        assert ratio == pytest.approx(cmath.exp(-1j * gamma * 2))

    def test_cost_layer_is_diagonal_and_encodes_energies(self):
        rng = random.Random(19)
        for _ in range(10):
            q = random_qubo(rng, rng.randint(2, 6))
            gamma = rng.uniform(0.1, 1.5)
            c = build_cost_layer(q, gamma)
            ref = basis_phase(c, (0,) * q.n)
            e_ref = energy(q, (0,) * q.n)
            for m in range(1 << q.n):
                bits = bits_from_index(m, q.n)
                amp = basis_phase(c, bits)
                assert abs(amp) == pytest.approx(1.0)
                expected = cmath.exp(-1j * gamma * (energy(q, bits) - e_ref))
                assert amp / ref == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(12))
    def test_walk_matches_statevector(self, seed):
        # The walk against the statevector oracle: equal to 1e-12 at every
        # basis state, and exactly 0 where an unpaired CNOT moves the bits.
        rng = random.Random(seed)
        n = 1 + seed % 9
        q = random_float_qubo(rng, n) if seed % 2 else random_qubo(rng, n)
        layer = build_cost_layer(q, rng.uniform(-1.5, 1.5))
        circuits = [layer]
        if n > 1:
            extra = Gate("CNOT", tuple(rng.sample(range(n), 2)))
            circuits.append(GateList(n, layer.gates + [extra]))
        for c in circuits:
            for m in range(1 << n):
                start = np.zeros(1 << n, dtype=complex)
                start[m] = 1
                expected = evolve(c, start)[m]
                amp = basis_phase(c, bits_from_index(m, n))
                assert abs(amp - expected) <= 1e-12
                if expected == 0:
                    assert amp == 0
        if n > 1:
            # The unpaired CNOT moves every state whose control bit is set.
            assert any(basis_phase(circuits[1], bits_from_index(m, n)) == 0 for m in range(1 << n))

    def test_64_qubit_cost_layer(self):
        rng = random.Random(64)
        q = random_qubo(rng, 64, density=0.2)
        gamma = 0.41
        c = build_cost_layer(q, gamma)
        zero = (0,) * 64
        ref, e_ref = basis_phase(c, zero), energy(q, zero)
        for _ in range(16):
            bits = tuple(rng.randint(0, 1) for _ in range(64))
            expected = cmath.exp(-1j * gamma * (energy(q, bits) - e_ref))
            assert abs(basis_phase(c, bits) / ref - expected) <= 1e-9

    @pytest.mark.parametrize("gate", [Gate("H", (0,)), Gate("RX", (0,), 0.2)], ids=["H", "RX"])
    def test_rejects_mixer_gates(self, gate):
        c = GateList(1)
        c.append(gate)
        with pytest.raises(ParameterError):
            basis_phase(c, [0])

    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError, match="basis state length 2 != n=3"):
            basis_phase(GateList(3), [0, 1])


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

    @pytest.mark.parametrize("kind", ["RZ", "RX"])
    def test_rejects_an_int_angle_with_no_float_value(self, kind):
        with pytest.raises(ParameterError, match=f"^{kind} angle must be finite, got {10**400}$"):
            Gate(kind, (0,), 10**400)

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
        restored = read_gate_list(format_gate_list(c))
        assert restored.n == c.n
        assert restored.gates == c.gates

    def test_header_and_lines(self):
        # h = {1: -0.5} and J01 = 0.5; 2 * 0.05 is 0.10000000000000001 to 17 digits.
        q = QuboMatrix(2, {(0, 0): -1.0, (0, 1): 2.0})
        text = format_gate_list(build_circuit(q, QaoaParams.constant(1, gamma=0.5, beta=0.05)))
        assert text.splitlines()[0] == "qubits 2"
        assert "RZ 1 0.5" in text
        assert "CNOT 0 1" in text
        assert text == ("qubits 2\nH 0\nH 1\nRZ 1 -0.5\nCNOT 0 1\nRZ 1 0.5\nCNOT 0 1\n"
                        "RX 0 0.10000000000000001\nRX 1 0.10000000000000001\n")
