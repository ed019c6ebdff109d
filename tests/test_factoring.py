import dataclasses
import hashlib
import itertools
import math
import random
import re
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from quboreduce import (
    FactoringReport,
    Graph,
    ParameterError,
    QuboMatrix,
    coupling_count,
    default_z,
    energy,
    enhance,
    factor_out,
    get_conflict_list,
    get_most_sym_qubits,
    graph_coloring_qubo,
    graph_isomorphism_qubo,
    hamilton_cycle_qubo,
    max_clique_qubo,
    sample_graph,
    spectrum,
    vertex_cover_qubo,
    verify_equivalence,
)
from quboreduce import factoring, qubo
from quboreduce.experiments import ProblemSetting, build_problem_qubo, builtin_settings, run_sweep
from quboreduce.factoring import (
    FactoringStep,
    VerificationVerdict,
    dense_mirror,
    factoring_trajectory,
    is_conflicting,
)
from quboreduce.graphs import permute_vertices, sample_permutation
from quboreduce.qubo import CapacityError, all_energies

from conftest import (
    assert_energies_match_reference,
    assert_loop_matches_reference,
    bits_from_index,
    exact_verdict,
    min_energy_over_ancillas,
    random_qubo,
    reference_dense_mirror,
    reference_enhance,
    reference_factoring_loop,
    reference_verify,
    verify_tolerance,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def dense(q, z=1):
    """The array the searches take, for ``q`` alone."""
    return dense_mirror(q, 0, z)


def pairs(cl):
    return [tuple(p) for p in cl.tolist()]


def oracle_conflict_list(q):
    """get_conflict_list as the sparse entries give it, one Python sum per entry."""
    z_row = [0] * q.n
    for (i, j), v in q.entries():
        if v < 0:
            z_row[i] += v
            if i != j:
                z_row[j] += v
    return sorted(
        (i, j)
        for (i, j), v in q.entries()
        if i < j and v > -z_row[i] - z_row[j]
    )


def oracle_most_sym_qubits(q, cl):
    """get_most_sym_qubits over dict rows read in one pass of the entries."""
    # Symmetric off-diagonal rows, so row j never holds j; uncoupled qubits read as {}.
    rows = defaultdict(dict)
    for (a, b), v in q.entries():
        if a != b:
            rows[a][b] = v
            rows[b][a] = v
    best, best_syms = (0, 1), []
    for i, j in cl:
        row_j = rows[j]
        syms = [k for k, v in rows[i].items() if row_j.get(k) == v]
        if len(syms) >= len(best_syms):
            best, best_syms = (i, j), syms
    return FactoringStep(q.n, *best, tuple(sorted(best_syms)))


def oracle_trajectory(q, num_ancillas, z):
    """factoring_trajectory with the oracle searches on each sparse matrix."""
    trajectory, steps = [q], []
    for _ in range(num_ancillas):
        cl = oracle_conflict_list(trajectory[-1])
        step = oracle_most_sym_qubits(trajectory[-1], cl)
        if not cl or len(step.syms) < 3:
            break
        trajectory.append(enhance(trajectory[-1], (step.i, step.j), step.syms, z))
        steps.append(step)
    return trajectory, FactoringReport(q.n, z, steps)


def assert_searches_match_oracles(trajectory, z):
    for m in trajectory:
        a = dense(m, z)
        cl = oracle_conflict_list(m)
        assert pairs(get_conflict_list(a)) == cl
        assert get_most_sym_qubits(a, cl) == oracle_most_sym_qubits(m, cl)


class TestGetConflictList:
    def test_diagonal_only(self):
        q = QuboMatrix(3, {(0, 0): -1, (1, 1): 2, (2, 2): -3})
        assert pairs(get_conflict_list(dense(q))) == []

    def test_demo_instance(self, demo_qubo):
        # every row sum of negatives is -1, and 3 > 2 for each coupling
        assert pairs(get_conflict_list(dense(demo_qubo))) == sorted(
            (i, j) for (i, j), _ in demo_qubo.entries() if i < j
        )

    def test_coupling_below_threshold(self):
        q = QuboMatrix(2, {(0, 0): -1, (1, 1): -1, (0, 1): 1})
        assert pairs(get_conflict_list(dense(q))) == []  # 1 > 2 is false

    def test_rows_past_the_first_block(self):
        # 420 rows of float64 span two 1 MB row blocks, the second from row
        # 312.  Column 0 sums to -1 adding row by row, since -1 - 2**-53
        # rounds to -1 twice, but to -1 - 2**-52 when rows 400 and 410 are
        # added up first; the (0, 1) coupling conflicts only with the first.
        # Cell (350, 100) lies below the diagonal but right of row 350's
        # place in its block (38), so only the block's offset drops it.
        q = QuboMatrix(420, {(0, 0): -1.0, (0, 400): -(2.0**-53), (0, 410): -(2.0**-53)})
        q[0, 1] = 1 + 2.0**-52
        q[100, 350] = 2.0
        cl = pairs(get_conflict_list(dense(q)))
        assert cl == oracle_conflict_list(q)
        assert cl == [(0, 1), (100, 350)]

    def test_semantic_test_matches_reference(self):
        # Every ordered pair, i == j included, of integer and float QUBOs.
        rng = random.Random(23)
        results = set()
        for t in range(60):
            n = rng.randint(1, 7)
            q = random_qubo(rng, n, density=rng.uniform(0.3, 0.9))
            if t % 2:
                q = QuboMatrix(n, {k: c + rng.uniform(-0.5, 0.5) for k, c in q.entries()}, offset=0.25)
            for i in range(n):
                for j in range(n):
                    result = is_conflicting(q, i, j)
                    assert result == reference_is_conflicting(q, i, j), (t, i, j)
                    results.add(result)
        assert results == {False, True}

    @pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 1)])
    def test_semantic_test_rejects_out_of_range_pair(self, pair):
        with pytest.raises(ParameterError):
            is_conflicting(QuboMatrix(3, {(0, 1): 1}), *pair)

    def test_agrees_with_semantic_test(self):
        # the row-sum condition is sufficient for a semantic conflict
        rng = random.Random(21)
        checked = 0
        for _ in range(40):
            q = random_qubo(rng, rng.randint(2, 7))
            for i, j in pairs(get_conflict_list(dense(q))):
                assert is_conflicting(q, i, j)
                checked += 1
        assert checked > 0


def reference_is_conflicting(q, i, j):
    """is_conflicting with one Python comparison per assignment."""
    energies = all_energies(q)
    bi, bj = 1 << i, 1 << j
    for m in range(energies.size):
        if m & bi and m & bj:
            e_both = energies[m]
            others = (energies[m ^ bi], energies[m ^ bj], energies[m ^ bi ^ bj])
            if not all(e_both > e for e in others):
                return False
    return True


class TestGetMostSymQubits:
    def test_demo_instance(self, demo_qubo):
        a = dense(demo_qubo)
        step = get_most_sym_qubits(a, get_conflict_list(a))
        assert step == FactoringStep(6, 1, 4, (0, 2, 5))

    def test_empty_list_returns_sentinel(self, demo_qubo):
        assert get_most_sym_qubits(dense(demo_qubo), []) == FactoringStep(6, 0, 1, ())

    def test_no_shared_couplings(self):
        q = QuboMatrix(3, {(0, 0): -1, (1, 1): -1, (0, 1): 5, (1, 2): 2})
        assert get_most_sym_qubits(dense(q), [(0, 1)]) == FactoringStep(3, 0, 1, ())

    def test_tie_goes_to_later_pair(self):
        # two disjoint blocks, each pair sharing 3 neighbors with equal weights
        q = QuboMatrix(10)
        for i, j, shared in [(0, 1, (2, 3, 4)), (5, 6, (7, 8, 9))]:
            q[i, i] = q[j, j] = -1
            q[i, j] = 5
            for k in shared:
                q[i, k] = q[j, k] = 2
        assert get_most_sym_qubits(dense(q), [(0, 1), (5, 6)]) == FactoringStep(10, 5, 6, (7, 8, 9))

    def test_uncoupled_qubit_shares_nothing(self):
        q = QuboMatrix(3, {(0, 0): -1, (0, 1): 5})
        assert get_most_sym_qubits(dense(q), [(0, 2)]) == FactoringStep(3, 0, 2, ())
        assert get_most_sym_qubits(dense(q), [(2, 0)]) == FactoringStep(3, 2, 0, ())


    def test_matches_reference_on_builtin_trajectories(self):
        # Both searches, on every matrix of all 60 (setting, seed) instances.
        for setting in builtin_settings():
            q = build_problem_qubo(setting)
            z = default_z(q)
            trajectory, _ = factoring_trajectory(q, 29, z)
            assert_searches_match_oracles(trajectory, z)

    def test_matches_reference_with_ties(self):
        # Coefficients from a small set make many pairs share equally many
        # qubits, so the scan order decides; every ordered pair is scanned.
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(3, 9)
            q = QuboMatrix(n)
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.6:
                        q[i, j] = rng.choice((-2, -1, 1, 2))
            cl = [(i, j) for i in range(n) for j in range(n) if i != j]
            rng.shuffle(cl)
            cl = cl[: rng.randint(0, len(cl))]
            assert get_most_sym_qubits(dense(q), cl) == oracle_most_sym_qubits(q, cl)


class TestEnhance:
    def test_demo_instance(self, demo_qubo, demo_factored):
        out = enhance(demo_qubo, (1, 4), {0, 2, 5}, 3)
        assert out == demo_factored

    def test_coupling_accounting(self, demo_qubo):
        out = enhance(demo_qubo, (1, 4), {0, 2, 5}, 3)
        # pair already coupled: -2*|syms| removed, |syms| moved, +2 ancilla penalties
        assert coupling_count(out) == coupling_count(demo_qubo) - 3 + 2
        assert coupling_count(out) == 8

    def test_empty_syms_preserves_valid_energies(self):
        q = QuboMatrix(2, {(0, 0): -1, (1, 1): -1, (0, 1): 5})
        out = enhance(q, (0, 1), set(), 7)
        assert out.n == 3
        for m in range(4):
            bits = bits_from_index(m, 2)
            if not (bits[0] and bits[1]):
                assert min_energy_over_ancillas(out, 2, bits) == energy(q, bits)

    def test_energies_do_not_depend_on_syms_order(self):
        # Float coefficients whose sums round, so an energy that followed the
        # order of the writes would differ in its last bits; q is written in
        # two orders too.
        q = QuboMatrix(6, {(0, 0): -0.1, (1, 1): -0.2, (2, 5): 0.3, (5, 5): 0.7})
        for k, v in zip((2, 3, 4), (0.1, 0.2, 0.3)):
            q[0, k] = q[1, k] = v
        reversed_q = QuboMatrix(6, reversed(list(q.entries())))
        outs = [
            enhance(m, (0, 1), syms, 0.7) for m in (q, reversed_q) for syms in itertools.permutations((2, 3, 4))
        ]
        energies = [all_energies(out) for out in outs]
        assert all(out == outs[0] for out in outs)
        assert all(np.array_equal(e, energies[0]) for e in energies)
        assert_energies_match_reference(outs[0], widths=())

    def test_refuses_a_cell_that_z_makes_non_finite(self):
        # Only (0, 1) overflows, written through the pair given as (1, 0).
        q = QuboMatrix(2, {(0, 1): 1e308})
        with pytest.raises(ParameterError, match=re.escape("non-finite coefficient at (0, 1)")):
            enhance(q, (1, 0), (), 4e307)

    def test_rejects_bad_syms(self, demo_qubo):
        with pytest.raises(ParameterError):
            enhance(demo_qubo, (1, 4), {1, 2}, 3)
        with pytest.raises(ParameterError):
            enhance(demo_qubo, (1, 4), {3}, 3)  # (1,3) and (4,3) not shared

    def test_rejects_nonpositive_z(self, demo_qubo):
        with pytest.raises(ParameterError):
            enhance(demo_qubo, (1, 4), {0, 2, 5}, 0)

    def test_rejects_a_pair_of_one_qubit(self):
        # No factoring step has i == j, and FactoringReport.loads refuses one.
        q = QuboMatrix(3, {(1, 1): 2, (0, 1): 3, (0, 2): 3, (1, 2): 3})
        with pytest.raises(ParameterError, match=re.escape("pair (1, 1) is not two distinct qubits")):
            enhance(q, (1, 1), [0, 2], 1)

    # The demo step factors (1, 4) with syms {0, 2, 5} on six qubits.
    @pytest.mark.parametrize("pair, syms, z, message", [
        ((1, 4), {0, 2, 9}, 3, "index pair (1, 9) out of range for n=6"),
        ((1, 4), {0, 2, 6}, 3, "index pair (1, 6) out of range for n=6"),
        ((1, 4), {-1, 2, 5}, 3, "index pair (-1, 1) out of range for n=6"),
        ((1, 7), (), 3, "index pair (7, 7) out of range for n=6"),
        ((1, 7), {0, 2, 5}, 3, "index pair (0, 7) out of range for n=6"),
        ((7, 4), {0, 2, 5}, 3, "index pair (0, 7) out of range for n=6"),
        ((7, 1), (), 3, "index pair (7, 7) out of range for n=6"),
        ((-1, 4), (), 3, "index pair (-1, -1) out of range for n=6"),
        ((1, 6), (), 3, "index pair (6, 6) out of range for n=6"),
        ((1, 4), {3}, 3, "qubit 3 does not share identical nonzero couplings"),
        ((1, 4), {0, 2, 3}, 3, "qubit 3 does not share identical nonzero couplings"),
        ((1, 4), {1, 2}, 3, "syms must exclude the factored pair"),
        ((1, 4), {0, 2, 4}, 3, "syms must exclude the factored pair"),
        ((1, 1), (), 3, "pair (1, 1) is not two distinct qubits"),
        ((1, 4), {0, 2, 5}, 0, "penalty z must be positive and finite, got 0"),
        ((1, 4), {0, 2, 5}, -3, "penalty z must be positive and finite, got -3"),
        ((1, 4), {0, 2, 5}, True, "penalty z must be a number, got True"),
        ((1, 4), {0, 2, 5}, "3", "penalty z must be a number, got '3'"),
    ])
    def test_single_fault_messages(self, demo_qubo, pair, syms, z, message):
        before = demo_qubo.dumps()
        with pytest.raises(ParameterError) as info:
            enhance(demo_qubo, pair, syms, z)
        assert type(info.value) is ParameterError
        assert str(info.value) == message
        assert demo_qubo.dumps() == before

    @pytest.mark.parametrize("z", [float("inf"), float("-inf"), float("nan"), 10**400])
    def test_rejects_non_finite_z(self, demo_qubo, z):
        with pytest.raises(ParameterError, match="must be positive and finite"):
            enhance(demo_qubo, (1, 4), {0, 2, 5}, z)


class TestAgainstReferences:
    """``enhance`` and ``dense_mirror`` against the code they replace, on
    every builtin (setting, seed) instance at budget 29."""

    def test_factor_out_is_the_replay_through_reference_enhance(self, monkeypatch):
        for setting in builtin_settings():
            q = build_problem_qubo(setting)
            before = q.dumps()
            q_mod, report = factor_out(q, 29, default_z(q))
            assert q.dumps() == before
            with monkeypatch.context() as patched:
                patched.setattr(factoring, "enhance", reference_enhance)
                ref_mod, ref_report = factor_out(q, 29, default_z(q))
            assert (q_mod.dumps(), report.dumps()) == (ref_mod.dumps(), ref_report.dumps()), setting

    def test_dense_mirror_is_the_reference_array(self):
        for setting in builtin_settings():
            q = build_problem_qubo(setting)
            z = default_z(q)
            for m in (q, factor_out(q, 29, z)[0]):
                a, ref = dense_mirror(m, 29, z), reference_dense_mirror(m, 29, z)
                assert a.dtype == ref.dtype and a.shape == ref.shape
                assert a.tobytes() == ref.tobytes(), setting

    @pytest.mark.parametrize("q, z", [
        (QuboMatrix(3, {(2, 2): -1, (0, 1): 2**60 + 1, (0, 0): 0.5, (1, 2): -(2**54)}), 3),
        (QuboMatrix(3, {(1, 2): 2.5, (0, 0): -1, (0, 2): 3}), 2**52),
    ], ids=["ints-above-2**53", "int-z"])
    def test_dense_mirror_of_python_numbers_is_the_reference_array(self, q, z):
        a, ref = dense_mirror(q, 2, z), reference_dense_mirror(q, 2, z)
        assert a.dtype == ref.dtype == object
        assert [(type(x), x) for x in a.ravel()] == [(type(x), x) for x in ref.ravel()]


class TestFactorOut:
    def test_demo_instance(self, demo_qubo, demo_factored):
        q_mod, report = factor_out(demo_qubo, 1, 3)
        assert q_mod == demo_factored
        assert report.base_n == 6 and report.final_n == 7
        assert len(report.steps) == 1
        step = report.steps[0]
        assert (step.i, step.j) == (1, 4)
        assert step.syms == (0, 2, 5)
        assert step.ancilla == 6

    def test_zero_budget(self, demo_qubo):
        q_mod, report = factor_out(demo_qubo, 0, 3)
        assert q_mod == demo_qubo
        assert report.steps == []

    @pytest.mark.parametrize("budget, message", [
        (2.0, "ancilla budget must be an integer, got 2.0"),
        (True, "ancilla budget must be an integer, got True"),
        ("2", "ancilla budget must be an integer, got '2'"),
        (-2, "ancilla budget must be non-negative, got -2"),
    ])
    def test_refuses_a_budget_that_is_not_a_count(self, demo_qubo, budget, message):
        # Before any search, and for the mirror alone too.
        for call in (
            lambda: factor_out(demo_qubo, budget, 3),
            lambda: factoring_trajectory(demo_qubo, budget),
            lambda: run_sweep(builtin_settings(seeds=[0])[0], budget, [1]),
            lambda: dense_mirror(demo_qubo, budget, 3),
        ):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                call()

    def test_stops_below_three_shared(self):
        # conflicting pair with only two shared neighbors: nothing to factor
        q = QuboMatrix(4, {(0, 0): -1, (1, 1): -1, (0, 1): 5, (0, 2): 2, (1, 2): 2, (0, 3): 2, (1, 3): 2})
        q_mod, report = factor_out(q, 10, 5)
        assert q_mod == q
        assert report.steps == []

    def test_rerun_on_saturated_output_is_stable(self, demo_qubo):
        q_mod, report = factor_out(demo_qubo, 29, 33)
        again, report2 = factor_out(q_mod, 29, 33)
        assert again == q_mod
        assert report2.steps == []

    def test_coupling_count_strictly_decreases_per_step(self):
        g = sample_graph(10, 18, seed=13)
        q = max_clique_qubo(g, 3)
        trajectory, report = factoring_trajectory(q, 20, default_z(q))
        for before, after, step in zip(trajectory, trajectory[1:], report.steps):
            drop = coupling_count(before) - coupling_count(after)
            assert drop == len(step.syms) - 2
            assert drop >= 1

    def test_report_json_round_trip(self, demo_qubo):
        _, report = factor_out(demo_qubo, 1, 3)
        restored = FactoringReport.loads(report.dumps())
        assert restored == report

    def test_every_builtin_report_round_trips(self):
        for s in builtin_settings():
            _, report = factor_out(build_problem_qubo(s), 29)
            assert FactoringReport.loads(report.dumps()) == report

    def test_report_size_is_its_steps(self, demo_qubo):
        step = FactoringStep(6, 1, 4, (0, 2, 5))
        report = FactoringReport(6, 3, [step])
        assert (report.final_n, report.num_ancillas) == (7, 1)
        with pytest.raises(TypeError):
            FactoringReport(6, 9, 3, [step])  # no final_n to disagree with the steps
        with pytest.raises(ParameterError, match="1 steps do not take 6 qubits to 9"):
            FactoringReport.loads(report.dumps().replace('"final_n": 7', '"final_n": 9'))
        # A 9-qubit matrix fails the size check against one step from 6 qubits.
        with pytest.raises(ParameterError, match="report does not match"):
            verify_equivalence(demo_qubo, QuboMatrix(9), report)

    def test_z_that_overflows_a_cell_is_refused_as_enhance_refuses_it(self):
        # The first step factors (12, k) onto ancilla 30, and -2z overflows.
        [setting] = [s for s in builtin_settings(seeds=[0]) if s.problem == "max_clique" and s.setting == 0]
        q = build_problem_qubo(setting)
        [step] = factor_out(q, 1)[1].steps
        message = re.escape("non-finite coefficient at (12, 30)")
        for call in (
            lambda: factor_out(q, 3, 1e308),
            lambda: factoring_trajectory(q, 3, 1e308),
            lambda: run_sweep(setting, 3, [1], 1e308),
            lambda: enhance(q, (step.i, step.j), step.syms, 1e308),
        ):
            with pytest.raises(ParameterError, match=message):
                call()

    @pytest.mark.parametrize("budget", [3, 29])
    def test_z_whose_row_sums_overflow_matches_the_oracles(self, budget):
        # Every cell at z = 5e307 is finite, but two -2z cells in one row sum
        # to -inf: the dense search must agree with Python float sums, and
        # raise no overflow warning (the suite makes one an error).
        [setting] = [s for s in builtin_settings(seeds=[0]) if s.problem == "max_clique" and s.setting == 0]
        q, z = build_problem_qubo(setting), 5e307
        trajectory, report = factoring_trajectory(q, budget, z)
        assert (trajectory, report) == oracle_trajectory(q, budget, z)
        assert len(report.steps) >= 3
        assert factor_out(q, budget, z) == (trajectory[-1], report)
        found = []
        assert factoring._factoring_loop(q, budget, z, lambda a: found.append(pairs(get_conflict_list(a)))) == report
        assert found == [oracle_conflict_list(m) for m in trajectory]
        couplings = [r.couplings for r in run_sweep(setting, budget, [1], z)]
        assert couplings[: len(trajectory)] == [coupling_count(m) for m in trajectory]

    def test_is_end_of_trajectory(self):
        q = max_clique_qubo(sample_graph(10, 18, seed=13), 3)
        trajectory, report = factoring_trajectory(q, 20, default_z(q))
        assert len(trajectory) > 1
        assert factor_out(q, 20, default_z(q)) == (trajectory[-1], report)

    @pytest.mark.parametrize("penalty", [3, 2.5])
    def test_omitted_z_is_default_z(self, penalty):
        q = max_clique_qubo(sample_graph(10, 18, seed=13), penalty)
        explicit = factor_out(q, 20, default_z(q))
        assert explicit[1].steps and explicit[1].z == default_z(q)
        for q_mod, report in (factor_out(q, 20), factor_out(q, 20, None)):
            assert (q_mod.dumps(), report.dumps()) == (explicit[0].dumps(), explicit[1].dumps())
        assert factoring_trajectory(q, 20)[1] == explicit[1]
        assert factor_out(q, 20, 3)[0].dumps() != explicit[0].dumps()

    @pytest.mark.parametrize("budget, chain", [(29, False), (0, True), (29, True)],
                             ids=["diagonal-only", "budget-0", "chain-budget-29"])
    def test_builds_no_mirror_when_no_step_is_possible(self, monkeypatch, budget, chain):
        # The mirror of these 3,000 qubits would take 72 MB.  The loop cannot
        # take a step with no budget, nor with no coupled pair of qubits that
        # have four couplings each; a chain's qubits have at most two.
        n = 3000
        q = QuboMatrix(n, {(i, i): -1 for i in range(n)})
        if chain:
            for i in range(n - 1):
                q[i, i + 1] = 3

        def no_mirror(*args):
            raise AssertionError("dense_mirror called")

        monkeypatch.setattr(factoring, "dense_mirror", no_mirror)
        trajectory, report = factoring_trajectory(q, budget, 5)
        assert len(trajectory) == 1 and trajectory[0] is q
        assert report == FactoringReport(n, 5)
        assert factor_out(q, budget) == (q, FactoringReport(n, default_z(q)))

    @pytest.mark.parametrize("n", [5 * 10**8, 4 * 10**9], ids=["memory-error", "array-too-big"])
    def test_mirror_that_cannot_be_allocated_is_a_capacity_error(self, n):
        # No address space holds either mirror, so numpy refuses it before it
        # touches memory: with MemoryError at 5e8 qubits, and past about
        # 1.07e9 with ValueError ("array is too big").  Qubits 0..5 are all
        # coupled, so a step is possible and the loop builds the mirror.
        q = QuboMatrix(n, {(i, k): 2 for i in range(6) for k in range(i + 1, 6)})
        with pytest.raises(CapacityError, match=f"the dense mirror of {n + 2} qubits cannot be allocated"):
            dense_mirror(q, 2, 3)
        with pytest.raises(CapacityError):
            factor_out(q, 2)

    def test_omitted_z_of_zero_matrix_is_rejected(self):
        # default_z is 0 here, and the z > 0 check still applies to it.
        with pytest.raises(ParameterError):
            factor_out(QuboMatrix(3), 2)

    def test_mirror_is_built_when_one_pair_can_step(self, monkeypatch):
        # Qubits 0 and 1 share couplings to 2, 3 and 4: four couplings each.
        q = QuboMatrix(5, {(0, 1): 5, **{(i, k): 2 for i in (0, 1) for k in (2, 3, 4)}})
        built = []
        monkeypatch.setattr(factoring, "dense_mirror", lambda *args: built.append(args) or dense_mirror(*args))
        _, report = factoring_trajectory(q, 3)
        assert len(built) == 1 and report.steps == [FactoringStep(5, 0, 1, (2, 3, 4))]
        q[0, 1] = 0  # no coupled pair is left with four couplings on each qubit
        assert factoring_trajectory(q, 3)[1].steps == [] and len(built) == 1

    @pytest.mark.parametrize("z", [float("inf"), float("-inf"), float("nan"), 10**400])
    def test_rejects_non_finite_z(self, demo_qubo, z):
        vertex_cover = vertex_cover_qubo(sample_graph(30, 131, seed=0), 3)
        for q in (demo_qubo, vertex_cover):  # one that factors, one that does not
            with pytest.raises(ParameterError, match="must be positive and finite"):
                factoring_trajectory(q, 5, z)

    def test_rejects_a_bool_z(self, demo_qubo):
        # The report would hold "z": true, which FactoringReport.loads refuses.
        for call in (
            lambda: factor_out(demo_qubo, 2, True),
            lambda: factoring_trajectory(demo_qubo, 2, True),
            lambda: enhance(demo_qubo, (1, 4), {0, 2, 5}, True),
            lambda: run_sweep(builtin_settings(seeds=[0])[0], 2, [1], True),
        ):
            with pytest.raises(ParameterError, match="penalty z must be a number, got True"):
                call()

    @pytest.mark.parametrize("z", ["Infinity", "-Infinity", "NaN", "0", "-5", "1" + "0" * 400])
    def test_report_rejects_z_the_loop_rejects(self, z):
        with pytest.raises(ParameterError, match="must be positive and finite"):
            FactoringReport.loads('{"base_n": 4, "final_n": 4, "z": %s, "steps": []}' % z)

    @pytest.mark.parametrize("base_n", [0, -2])
    def test_report_rejects_a_base_n_no_matrix_has(self, base_n):
        # QuboMatrix refuses n < 1, so no pair of matrices matches such a report.
        with pytest.raises(ParameterError, match=f"^base_n must be positive, got {base_n}$"):
            FactoringReport.loads('{"base_n": %d, "final_n": %d, "z": 1, "steps": []}' % (base_n, base_n))

    @pytest.mark.parametrize("z", [0, -1])
    def test_rejects_nonpositive_z_when_nothing_factors(self, z):
        q = vertex_cover_qubo(sample_graph(30, 131, seed=0), 3)
        assert factoring_trajectory(q, 5, default_z(q))[1].steps == []
        with pytest.raises(ParameterError):
            factoring_trajectory(q, 5, z)
        with pytest.raises(ParameterError):
            factor_out(q, 5, z)


def reference_run(q, budget, z):
    """The reference loop's report and a copy of every block it read."""
    blocks = []
    report = reference_factoring_loop(q, budget, z, lambda a: blocks.append(a.copy()))
    return report, blocks


class TestCarriedSearch:
    """The loop's carried search against the reference loop, which searches
    the whole block at every step, on each path of its update: the same
    report, and bit for bit the same block at every step."""

    def test_syms_with_equal_values(self):
        # On an edgeless graph every coupling is the penalty 3 and every pair
        # conflicts, so two syms of a step conflict before and after it and
        # their count falls by [c_k = c_k'] = 1.
        q = max_clique_qubo(Graph(8, frozenset()), 3)
        report, blocks = reference_run(q, 6, None)
        step = report.steps[0]
        k, k2 = step.syms[:2]
        assert blocks[0][step.i, k] == blocks[0][step.i, k2]
        assert all((k, k2) in pairs(get_conflict_list(a)) for a in blocks[:2])
        assert len(report.steps) == 4
        assert_loop_matches_reference(q, 6, None)

    def test_diagonal_above_its_threshold_is_no_pair(self):
        # Qubit 0's diagonal 50 exceeds -2 Z[0] = 0; a cell on the diagonal
        # of a touched row is never counted as a pair.
        q = max_clique_qubo(Graph(8, frozenset()), 3)
        q[0, 0] = 50
        report, _ = reference_run(q, 6, None)
        assert 0 in report.steps[0].syms and len(report.steps) == 4
        assert_loop_matches_reference(q, 6, None)

    def test_sym_equal_to_minus_2z(self):
        # The syms couple -2 = -2z to both pairs, so the ancilla of the first
        # step couples -2 to i, j and every sym alike.
        q = QuboMatrix(8, {(i, i): -1 for i in range(8)})
        q[0, 1] = q[2, 3] = 30
        for i in range(4):
            for k in (4, 5, 6, 7):
                q[i, k] = -2
        report, blocks = reference_run(q, 5, 1)
        assert [(s.i, s.j, s.syms) for s in report.steps] == [(2, 3, (4, 5, 6, 7)), (0, 1, (4, 5, 6, 7))]
        assert blocks[1][8].tolist() == [0, 0, -2, -2, -2, -2, -2, -2, 1]
        assert_loop_matches_reference(q, 5, 1)

    def test_pair_that_starts_to_conflict_is_counted_afresh(self):
        # Moving the -1 syms 2, 3, 4 of (0, 1) onto one ancilla raises Z[2]
        # from -3 to -2, so (2, 5) at 4 starts to conflict; it shares 6, 7
        # and 8 and is the next step.
        q = QuboMatrix(9, {(i, i): -1 for i in range(9)})
        q[0, 1], q[2, 5] = 20, 4
        for k in (2, 3, 4):
            q[0, k] = q[1, k] = -1
        for k in (6, 7, 8):
            q[2, k] = q[5, k] = 1
        report, blocks = reference_run(q, 5, 1)
        assert [pairs(get_conflict_list(a)) for a in blocks[:2]] == [[(0, 1)], [(0, 1), (2, 5)]]
        assert [(s.i, s.j, s.syms) for s in report.steps] == [(0, 1, (2, 3, 4)), (2, 5, (6, 7, 8))]
        assert_loop_matches_reference(q, 5, 1)

    def test_pick_ties_go_to_the_last_pair_in_row_major_order(self):
        # After (10, 11) and its five syms, (1, 8), (2, 5) and (2, 6) each
        # share 17, 18 and 19: a tie on two rows, the later row's pairs in
        # lower columns, and a tie within row 2.  The pick is (2, 6), not
        # the first pair nor the pair in the highest column.
        q = QuboMatrix(20, {(i, i): -1 for i in range(20)})
        q[10, 11] = q[1, 8] = q[2, 5] = q[2, 6] = 50
        for k in range(12, 17):
            q[10, k] = q[11, k] = 1
        for k in (17, 18, 19):
            q[1, k] = q[8, k] = 2
            q[2, k] = q[5, k] = q[6, k] = 3
        report, blocks = reference_run(q, 5, None)
        tied = [(1, 8), (2, 5), (2, 6)]
        assert set(tied) <= set(pairs(get_conflict_list(blocks[1])))
        assert {get_most_sym_qubits(blocks[1], [p]).syms for p in tied} == {(17, 18, 19)}
        assert [(s.i, s.j) for s in report.steps] == [(10, 11), (2, 6), (1, 8)]
        assert_loop_matches_reference(q, 5, None)

    def test_first_search_counts_each_pair_once(self, monkeypatch):
        # The first search counts its conflict list once and hands on only
        # pairs with the top count; take's own counts come after it.
        count, listed, counted = factoring._shared_counts, [], []

        def shim_count(a, i, j):
            counted[-1].append(np.stack((i, j), axis=1))
            return count(a, i, j)

        def shim_list(a):
            listed.append((a.copy(), get_conflict_list(a)))
            counted.append([])
            return listed[-1][1]

        def shim_take(search, step, z):
            counted.append([])
            return take(search, step, z)

        take = factoring._CarriedSearch.take
        monkeypatch.setattr(factoring, "_shared_counts", shim_count)
        monkeypatch.setattr(factoring, "get_conflict_list", shim_list)
        monkeypatch.setattr(factoring._CarriedSearch, "take", shim_take)
        for setting in builtin_settings():
            listed.clear()
            counted.clear()
            factoring._factoring_loop(build_problem_qubo(setting), 29, None)
            if not listed:
                continue
            [(a, cl)] = listed
            counts = count(a, cl[:, 0], cl[:, 1])
            ties = set(pairs(cl[counts == counts.max()])) if len(cl) else set()
            handed = Counter(pairs(np.concatenate([cl[:0], *counted[0]])))
            assert not Counter(pairs(cl)) - handed
            extra = handed - Counter(pairs(cl))
            assert set(extra) <= ties and set(extra.values()) <= {1}

    def test_builtin_instances(self):
        for setting in builtin_settings():
            assert_loop_matches_reference(build_problem_qubo(setting), 29, None)

    def test_mirror_whose_first_search_runs_in_blocks(self):
        # 400 qubits: each search block holds fewer rows than the mirror.
        q = build_problem_qubo(ProblemSetting("hamilton_cycles", 20, 120))
        assert q.n == 400 and len(list(factoring._blocks(q.n, q.n))) == 2
        report, _ = assert_loop_matches_reference(q, 4, None)
        assert len(FactoringReport.loads(report).steps) == 4


class TestDefaultZ:
    def test_demo_instance(self, demo_qubo):
        assert default_z(demo_qubo) == 9 * 3 + 6 * 1

    def test_zero_matrix(self):
        assert default_z(QuboMatrix(4)) == 0

    def test_two_terms(self):
        assert default_z(QuboMatrix(2, {(0, 0): -1, (0, 1): 3})) == 4

    def test_floats_add_left_to_right(self):
        # Each 1.0 is lost against 1e16, as a left fold loses it; the
        # compensated sum of Python 3.12 and later would keep both.
        assert default_z(QuboMatrix(3, {(0, 0): 1e16, (1, 1): 1.0, (2, 2): 1.0})) == 1e16


class TestVerifyEquivalence:
    def test_demo_strong_penalty(self, demo_qubo):
        q_mod, report = factor_out(demo_qubo, 1, 9)
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict.valid_energies_preserved
        assert verdict.invalid_energies_nondecreasing
        assert verdict.minimum_preserved

    def test_demo_weak_penalty_keeps_minimum(self, demo_qubo):
        q_mod, report = factor_out(demo_qubo, 1, 3)
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert not verdict.invalid_energies_nondecreasing
        assert verdict.minimum_preserved

    def test_empty_report(self, demo_qubo):
        _, report = factor_out(demo_qubo, 0, 3)
        verdict = verify_equivalence(demo_qubo, demo_qubo, report)
        assert verdict.all_ok

    @pytest.mark.parametrize("step, message", [
        (FactoringStep(3, 5, 0, (1,)), "step 0 pair (5, 0) is not two distinct earlier qubits"),
        (FactoringStep(3, -1, 0, (1,)), "step 0 pair (-1, 0) is not two distinct earlier qubits"),
        (FactoringStep(4, 1, 0, (2,)), "step 0 ancilla must be 3, got 4"),
        (FactoringStep(3, True, 0, (2,)), "step 0 i must be an integer, got True"),
    ], ids=["pair-past-the-ancilla", "negative-pair", "ancilla", "bool-i"])
    def test_refuses_a_hand_built_step_before_any_grid(self, monkeypatch, step, message):
        # FactoringReport.loads refuses these steps; a report built in code
        # reaches verify unchecked, where bits[-1] would read another bit.
        monkeypatch.setattr(factoring, "_energy_blocks", None)
        monkeypatch.setattr(factoring, "all_energies", None)
        q = QuboMatrix(3, {(0, 0): -1, (1, 1): -1, (2, 2): -1, (0, 1): 3})
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            verify_equivalence(q, QuboMatrix(4), FactoringReport(3, 1, [step]))

    def test_mismatched_report_rejected(self, demo_qubo, demo_factored):
        _, report = factor_out(demo_qubo, 0, 3)
        with pytest.raises(ParameterError):
            verify_equivalence(demo_qubo, demo_factored, report)

    def test_changed_diagonal_breaks_valid_energies(self, demo_qubo):
        # Valid assignments with x3 = 1 cost one more; the minimum has x3 = 0.
        q_mod, report = factor_out(demo_qubo, 1, 9)
        q_mod[3, 3] += 1
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict == VerificationVerdict(False, True, True)

    def test_changed_diagonal_breaks_minimum(self, demo_qubo):
        # The unique minimum (1, 0, 1, 0, 0, 1) has x0 = 1, so it rises from -3 to -2.
        q_mod, report = factor_out(demo_qubo, 1, 9)
        q_mod[0, 0] += 1
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict == VerificationVerdict(False, True, False)

    @pytest.mark.parametrize("pair", [(3, 6), (6, 0)])
    def test_step_on_an_earlier_ancilla(self, demo_qubo, pair):
        # The loop makes no such step on the builtin instances.  The second
        # ancilla is the OR of a base qubit and the first ancilla.
        q_mod, report = _step_on_an_earlier_ancilla(demo_qubo, pair)
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict == reference_verify(demo_qubo, q_mod, report)
        assert verdict.all_ok

    def test_matches_reference(self):
        # Encoded instances factored at the safe penalty and at weak ones, in
        # integer and float form, so every verdict field is seen both ways.
        seen = set()
        for label, q, q_mod, report in _reference_cases():
            verdict = verify_equivalence(q, q_mod, report)
            assert verdict == reference_verify(q, q_mod, report), label
            seen.add(dataclasses.astuple(verdict))
        assert all(set(values) == {False, True} for values in zip(*seen))

    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_small_blocks_match_reference(self, demo_qubo, monkeypatch, rows):
        # These instances fit one block of 2**16 energies.  With the floor at
        # the base size plus log2(rows), each block holds that many rows of
        # base assignments.  The blocks are walked for integral and dyadic
        # matrices (the earlier-ancilla reports couple two ancillas), and
        # filled in (i, j) order for the rest.
        cases = list(_reference_cases())
        for label, q, q_mod, report in cases[::3]:
            inexact = QuboMatrix(q.n, {k: 0.1 * c for k, c in q.entries()}, offset=0.3)
            for z in (default_z(inexact), 0.5):
                cases.append((label + ("0.1", z), inexact, *factor_out(inexact, 6, z)))
        for pair in ((3, 6), (6, 0)):
            cases.append((pair, demo_qubo, *_step_on_an_earlier_ancilla(demo_qubo, pair)))
        for label, q, q_mod, report in cases:
            monkeypatch.setattr(factoring, "_VERIFY_BLOCK_BITS", q.n + rows.bit_length() - 1)
            assert verify_equivalence(q, q_mod, report) == reference_verify(q, q_mod, report), label

    @pytest.mark.parametrize("scale, z, dtypes", [
        (1, 20, (np.int8, np.int16)),
        (0.25, 2**20, (np.int8, np.int32)),
    ], ids=["int8-int16", "quarters-int8-int32"])
    @pytest.mark.parametrize("block_bits", [6, 16], ids=["walked", "one-block"])
    def test_factored_matrix_walks_wider_than_the_base(self, demo_qubo, monkeypatch, scale, z, dtypes, block_bits):
        # The penalty z alone takes q_mod past int8's total; the verdict, also
        # of a broken q_mod, is the reference's.  The quarter-scaled pair is
        # compared as its integral multiple with D = 4.
        monkeypatch.setattr(factoring, "_VERIFY_BLOCK_BITS", block_bits)
        q = QuboMatrix(demo_qubo.n, {k: scale * v for k, v in demo_qubo.entries()}, scale * demo_qubo.offset)
        q_mod, report = factor_out(q, 1, z)
        walked = []
        blocks = factoring._energy_blocks
        monkeypatch.setattr(factoring, "_energy_blocks", lambda m, *a, **k: walked.append(m) or blocks(m, *a, **k))
        assert verify_equivalence(q, q_mod, report) == reference_verify(q, q_mod, report) == VerificationVerdict(
            True, True, True)
        for m, multiple, dtype in zip((q_mod, q), walked, dtypes[::-1]):
            assert multiple.is_integral
            assert multiple == QuboMatrix(m.n, {k: round(v / scale) for k, v in m.entries()}, round(m.offset / scale))
            assert {block.dtype for _, block in blocks(multiple, q.n, narrow=True)} == {np.dtype(dtype)}
        q_mod[0, 0] += scale
        assert verify_equivalence(q, q_mod, report) == reference_verify(q, q_mod, report) == VerificationVerdict(
            False, True, False)

    @pytest.mark.parametrize("e", [29, 30, 60, 1030])
    def test_a_unit_of_2_to_the_minus_e_shows_at_any_e(self, demo_qubo, e):
        # Scaled by 2**-e, raising a diagonal by one unit costs valid rows
        # 2**-e more.  At every D = 2**e, subnormal steps included, the pair
        # compares as its integral multiple and the change shows.
        q_mod, report = factor_out(demo_qubo, 1, 9)
        q_mod[3, 3] += 1
        q, q_mod = (QuboMatrix(m.n, {k: math.ldexp(v, -e) for k, v in m.entries()}, 0.0) for m in (demo_qubo, q_mod))
        assert factoring._integral_multiples(q, q_mod) is not None
        verdict = verify_equivalence(q, q_mod, report)
        assert verdict == reference_verify(q, q_mod, report)
        assert verdict == VerificationVerdict(False, True, True)

    def test_a_tiny_dyadic_value_verifies(self):
        # 2**-1030 has D = 2**1030, past the largest float: the pair compares
        # as its integral multiple, 1, and no product of D is taken in float.
        q = QuboMatrix(2, {(0, 0): 2.0**-1030})
        assert verify_equivalence(q, q, FactoringReport(2, 1.0)).all_ok

    def test_integral_base_with_a_float_factored_matrix(self, demo_qubo):
        # z = 16.5 writes halves into the step's cells, so the pair compares
        # as its multiple by D = 2, and a change of half a unit shows.
        q_mod, report = factor_out(demo_qubo, 1, 16.5)
        doubled = factoring._integral_multiples(demo_qubo, q_mod)
        assert doubled == [QuboMatrix(m.n, {k: int(2 * v) for k, v in m.entries()}) for m in (demo_qubo, q_mod)]
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict == reference_verify(demo_qubo, q_mod, report) == VerificationVerdict(True, True, True)
        q_mod[3, 3] += 0.5
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict == reference_verify(demo_qubo, q_mod, report) == VerificationVerdict(False, True, True)

    def test_an_int_that_float_rounds_stays_on_the_float_path(self):
        # float(2**60 + 1) is 2.0**60.  Taken as 2**60 + 1 over 1, the int
        # sums past 2**53, so the pair is never scaled, and the float64
        # compare reads the two energies as equal, as it always has.
        q = QuboMatrix(2, {(0, 0): 2**60 + 1, (1, 1): -1})
        q_mod = QuboMatrix(2, {(0, 0): 2.0**60, (1, 1): -1.0})
        report = FactoringReport(2, 1, [])
        assert factoring._integral_multiples(q, q_mod) is None
        verdict = verify_equivalence(q, q_mod, report)
        assert verdict == reference_verify(q, q_mod, report) == VerificationVerdict(True, True, True)

    @pytest.mark.parametrize("value", [lambda k: k % 7 - 3, lambda k: (k % 7 - 3) / 4, lambda k: 1 / (k + 3)],
                             ids=["int", "dyadic", "rounding"])
    def test_holds_no_array_of_all_factored_energies(self, value):
        # 16 base qubits and 5 ancillas: blocks of 2^16 energies, so the walk
        # holds the block and five linear terms, not all 2^21 energies.
        base, anc = 16, 5
        q = QuboMatrix(base, {(k % base, (3 * k) % base): value(k) for k in range(40)})
        q_mod = QuboMatrix(base + anc, {(k % (base + anc), (5 * k) % (base + anc)): value(k) for k in range(60)})
        report = FactoringReport(base, 1, [FactoringStep(base + k, k, k + 1, ()) for k in range(anc)])
        tracemalloc.start()
        try:
            verify_equivalence(q, q_mod, report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (2 * anc + 8) * 2**base * 8

    @pytest.mark.parametrize("scale", [1, 0.75], ids=["int", "float"])
    @pytest.mark.parametrize("extra_bits", [0, 1], ids=["one-row-blocks", "two-row-blocks"])
    def test_steps_over_ancillas_match_reference(self, demo_qubo, monkeypatch, scale, extra_bits):
        # Hand-built chains with no syms: an ancilla paired with the low and
        # the high qubit of its own set, two ancillas, two ancillas sharing
        # a base qubit, and sets of four or more bits against one, which
        # write all but the all-clear view.  Each matrix is checked sound,
        # with each base qubit's diagonal raised in turn, which a row wrongly
        # marked invalid would hide, and with the first pair's coupling
        # lowered, so that every verdict field is seen both ways.
        chains = {
            "own-low-bit": [(1, 4), (6, 1)],
            "own-high-bit": [(1, 4), (6, 4)],
            "two-ancillas": [(1, 4), (2, 5), (6, 7)],
            "shared-bit": [(1, 4), (4, 5), (6, 7), (8, 4)],
            "four-bit-set": [(0, 1), (6, 2), (7, 3), (8, 4)],
            "long-chain": [(0, 1), (6, 2), (7, 3), (8, 4), (9, 2), (10, 5), (11, 8)],
        }
        q = QuboMatrix(6, {k: scale * v for k, v in demo_qubo.entries()}, scale * demo_qubo.offset)
        monkeypatch.setattr(factoring, "_VERIFY_BLOCK_BITS", q.n + extra_bits)
        seen = set()
        for label, pairs in chains.items():
            for z in (default_z(q), scale):
                q_mod = q
                for pair in pairs:
                    q_mod = enhance(q_mod, pair, (), z)
                report = FactoringReport(q.n, z, [FactoringStep(q.n + k, *p, ()) for k, p in enumerate(pairs)])
                changed = [q_mod.copy(q_mod.n) for _ in range(q.n + 1)]
                for r in range(q.n):
                    changed[r][r, r] += scale
                changed[-1][pairs[0]] -= 8 * scale
                for m in [q_mod, *changed]:
                    verdict = verify_equivalence(q, m, report)
                    assert verdict == reference_verify(q, m, report), (label, z)
                    seen.add(dataclasses.astuple(verdict))
        assert all(set(values) == {False, True} for values in zip(*seen))

    def test_integral_compare_holds_no_int64_array_of_the_base(self):
        # 16 base qubits and 3 ancillas, both walked in int8: the walk holds
        # a block and three terms, 4 * 2^16 bytes.  After it, the folded
        # minima, the base energies, the validity mask and the compares take
        # a byte per assignment each; one int64 array of 2^16 energies,
        # 8 * 2^16 bytes, would pass the bound on its own.
        base, anc = 16, 3
        q = QuboMatrix(base, {(k % base, (3 * k) % base): k % 7 - 3 for k in range(40)})
        q_mod = QuboMatrix(base + anc, {(k % (base + anc), (5 * k) % (base + anc)): k % 7 - 3 for k in range(60)})
        report = FactoringReport(base, 1, [FactoringStep(base + k, k, k + 1, ()) for k in range(anc)])
        for m in (q, q_mod):
            assert {block.dtype for _, block in qubo._energy_blocks(m, base, narrow=True)} == {np.dtype(np.int8)}
        tracemalloc.start()
        try:
            verdict = verify_equivalence(q, q_mod, report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == reference_verify(q, q_mod, report)
        assert peak < (anc + 1) * 2**base + 4 * 2**base

    def test_energies_whose_difference_overflows(self):
        # Both energies of x0 = 1 are finite, and their difference is -inf.
        q = QuboMatrix(1, {(0, 0): 1.5e308})
        q_mod = QuboMatrix(1, {(0, 0): -1.5e308})
        verdict = verify_equivalence(q, q_mod, FactoringReport(1, 1, []))
        assert verdict == VerificationVerdict(False, True, False)

    @pytest.mark.parametrize("e", [-40, 0, 10, 20, 30, 40])
    def test_the_verdict_does_not_depend_on_the_units(self, e):
        # max_clique (10, 20) at seed 0 with coefficients 1.1 * v * 2**e,
        # factored by one step at the default z.  Scaling by 2**e is exact,
        # so only the units move; an absolute tolerance failed from e = 20.
        q = _scaled_max_clique(2.0**e)
        q_mod, report = factor_out(q, 4)
        assert len(report.steps) == 1
        assert verify_equivalence(q, q_mod, report).all_ok

    @pytest.mark.parametrize("scale, z_share, verdict", [
        (1e6, 1, VerificationVerdict(True, True, True)),
        (1e-12, 1 / 1000, VerificationVerdict(False, False, False)),
    ], ids=["1e6-default-z", "1e-12-weak-z"])
    def test_the_verdict_is_the_exact_one(self, scale, z_share, verdict):
        # At 1.1e6 the rounding of the energy sums reaches 7e-9 on valid rows,
        # which keep their exact energies.  At 1.1e-12 and a thousandth of the
        # default z, valid rows move by up to 1.6e-11 and invalid rows drop
        # by up to 4.9e-11 in exact arithmetic, far above the rounding.
        q = _scaled_max_clique(scale)
        q_mod, report = factor_out(q, 4, default_z(q) * z_share)
        assert verify_equivalence(q, q_mod, report) == verdict
        margin = 2 * verify_tolerance(q, q_mod)
        assert exact_verdict(q, q_mod, report, margin) == dataclasses.astuple(verdict)


def _scaled_max_clique(scale: float) -> QuboMatrix:
    """max_clique (10, 20) at seed 0 with each coefficient v * 1.1 * scale."""
    q = max_clique_qubo(sample_graph(10, 20, 0), 3)
    return QuboMatrix(q.n, {k: v * 1.1 * scale for k, v in q.entries()}, 0.0)


def _reference_cases():
    """40 encoded instances, a third of them in float form, each factored at
    ``default_z``, 3, 1.5 and 0.5, as (label, q, q_mod, report)."""
    rng = random.Random(5)
    for t in range(40):
        v = rng.randint(5, 10)
        q = max_clique_qubo(sample_graph(v, rng.randint(v, v * (v - 1) // 2 - 3), seed=t), 3)
        if t % 3 == 0:
            q = QuboMatrix(q.n, {k: 0.75 * c for k, c in q.entries()}, offset=0.5)
        for z in (default_z(q), 3, 1.5, 0.5):
            yield (t, z), q, *factor_out(q, 6, z)


def _step_on_an_earlier_ancilla(q, pair):
    """``q`` factored on (1, 4) with syms {0, 2, 5}, then on ``pair``, which
    takes the first ancilla, 6, with no syms."""
    z = default_z(q)
    q_mod = enhance(enhance(q, (1, 4), {0, 2, 5}, z), pair, set(), z)
    return q_mod, FactoringReport(6, z, [FactoringStep(6, 1, 4, (0, 2, 5)), FactoringStep(7, *pair, ())])


def _factor_and_verify(q, budget):
    z = default_z(q)
    if z == 0:
        return None
    q_mod, report = factor_out(q, budget, z)
    return verify_equivalence(q, q_mod, report)


class TestLandscapePreservationProperty:
    """Factoring with the coefficient-sum penalty never changes valid
    energies, never improves invalid ones, and keeps the global minimum."""

    def test_random_integer_qubos(self):
        rng = random.Random(2024)
        for _ in range(50):
            n = rng.randint(2, 10)
            q = random_qubo(rng, n, density=rng.uniform(0.3, 0.9))
            verdict = _factor_and_verify(q, budget=6)
            if verdict is not None:
                assert verdict.all_ok

    def test_encoder_outputs(self):
        g6 = sample_graph(6, 7, seed=31)
        g10 = sample_graph(10, 21, seed=32)
        g4 = sample_graph(4, 4, seed=33)
        g3 = sample_graph(3, 3, seed=34)
        cases = [
            max_clique_qubo(g10, 3),
            vertex_cover_qubo(g10, 3),
            graph_coloring_qubo(g4, 3, 3),
            hamilton_cycle_qubo(g3, 3),
            graph_isomorphism_qubo(g3, permute_vertices(g3, sample_permutation(3, 1)), 3),
            max_clique_qubo(g6, 3),
        ]
        for q in cases:
            verdict = _factor_and_verify(q, budget=6)
            assert verdict is not None and verdict.all_ok, q


class TestFactorStep:
    def test_returns_none_when_saturated(self):
        q = QuboMatrix(3, {(0, 0): -1, (1, 1): -1})
        assert factoring_trajectory(q, 1, 5) == ([q], FactoringReport(3, 5))

    def test_needs_three_shared_qubits(self):
        # (0, 1) conflicts and shares qubits 2 and 3; a third, 4, makes it eligible.
        q = QuboMatrix(5, {(0, 0): -1, (1, 1): -1, (0, 1): 5})
        for k in (2, 3):
            q[0, k] = q[1, k] = 2
        assert factoring_trajectory(q, 1, 9)[1].steps == []
        q[0, 4] = q[1, 4] = 2
        assert factoring_trajectory(q, 1, 9)[1].steps == [FactoringStep(5, 0, 1, (2, 3, 4))]

    def test_single_step_matches_factor_out(self, demo_qubo, demo_factored):
        trajectory, report = factoring_trajectory(demo_qubo, 1, 3)
        assert len(report.steps) == 1
        assert trajectory[-1] == demo_factored


class TestSearchesMatchOracles:
    """The array searches against the sparse code they replace, on every
    matrix of each trajectory."""

    def test_benchmark_factor_inputs(self):
        # The largest builtin settings and the two float weighted cliques.
        for name, text in workloads.factor_setup(23).data["texts"]:
            q = QuboMatrix.loads(text)
            z = default_z(q)
            trajectory, report = factoring_trajectory(q, 29, z)
            assert (trajectory, report) == oracle_trajectory(q, 29, z), name
            assert_searches_match_oracles(trajectory, z)

    @pytest.mark.parametrize("diagonal, couplings, z, dtype", [
        ((-1, -1.0), (2, 3, 3.0, 2.5), 7, np.float64),
        ((-1.0, -2.25), (2.5, 3.5, 3.5), 7, np.float64),
        ((-1.0, -2.25), (2.5, 3.5, 3.5), 2**55 + 1, object),
        ((-1, -(2**59) - 3), (2**60 + 1, 2**60 + 1, float(2**60), 3), 2**54 + 3, object),
        # 1e17 + 5 rounds to a multiple of 16, in float64 as in Python.
        ((-1e17, -1e17 - 16.0), (2e17 + 48.0, 2e17 + 48.0, 2.5e17), 5, np.float64),
    ], ids=["ints-and-floats", "int-z-on-floats", "huge-int-z-on-floats", "ints-above-2**53", "int-z-on-huge-floats"])
    def test_random_matrices(self, diagonal, couplings, z, dtype):
        # Penalty-shaped, so that most matrices take steps.
        rng = random.Random(11)
        steps = 0
        for _ in range(40):
            n = rng.randint(4, 11)
            q = QuboMatrix(n, {(i, i): rng.choice(diagonal) for i in range(n)})
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        q[i, j] = rng.choice(couplings)
            assert dense_mirror(q, 6, z).dtype == dtype
            trajectory, report = factoring_trajectory(q, 6, z)
            assert (trajectory, report) == oracle_trajectory(q, 6, z)
            assert_searches_match_oracles(trajectory, z)
            steps += len(report.steps)
        assert steps >= 20

    def test_float64_would_round_ints_above_2_53(self):
        # 2**53 + 1 has no float64 value: as floats, the coupling would
        # equal its threshold and two unequal couplings would compare equal.
        big = 2**53 + 1
        q = QuboMatrix(5, {(0, 0): -(2**53), (0, 1): big})
        for k in (2, 3, 4):
            q[0, k], q[1, k] = big, float(2**53)
        a = dense(q)
        assert a.dtype == object
        assert pairs(get_conflict_list(a)) == oracle_conflict_list(q)
        assert get_most_sym_qubits(a, [(0, 1)]) == FactoringStep(5, 0, 1, ())
        rounded = a.astype(np.float64)
        assert (0, 1) not in pairs(get_conflict_list(rounded))
        assert get_most_sym_qubits(rounded, [(0, 1)]).syms == (2, 3, 4)

    def test_mirror_takes_float64_when_it_is_exact(self, demo_qubo):
        assert dense(demo_qubo).dtype == np.float64
        assert dense_mirror(demo_qubo, 29, 2**47).dtype == object
        floats = QuboMatrix(2, {(0, 0): -1e300, (0, 1): 2.0})
        assert dense_mirror(floats, 29, 1e300).dtype == np.float64
        assert dense_mirror(floats, 29, 2**53).dtype == object
        # Huge float cells with a small int z: only int cells count.
        huge = QuboMatrix(8, {(0, 0): 2.0, (0, 2): 2.0**62, (0, 3): -(2.0**62)})
        for z in (1, 1.0):
            assert dense_mirror(huge, 0, z).dtype == np.float64
        assert dense_mirror(QuboMatrix(3, {(0, 0): 3e15, (1, 2): 2e15}), 0, 3).dtype == np.float64

    def test_mirror_has_room_for_one_ancilla_per_coupling(self, demo_qubo):
        assert dense_mirror(demo_qubo, 29, 3).shape == (6 + 9, 6 + 9)
        assert dense_mirror(demo_qubo, 2, 3).shape == (8, 8)
        assert dense_mirror(QuboMatrix(3, {(0, 0): -1}), 29, 3).shape == (3, 3)


# sha256 over report.dumps() and the final matrix's dumps() of every builtin
# (setting, seed) instance, factored at budget 29 with default_z.  Any change
# to a trajectory, a report or the JSON formats changes it.
BUILTIN_TRAJECTORIES_SHA256 = "d040c9abf1db5012fc299586d132ace6ed7ffb5abbbd8add22a097bc55d250d8"


def test_builtin_trajectories_are_pinned():
    h = hashlib.sha256()
    for setting in builtin_settings():
        q = build_problem_qubo(setting)
        q_mod, report = factor_out(q, 29, default_z(q))
        h.update(report.dumps().encode())
        h.update(q_mod.dumps().encode())
    assert h.hexdigest() == BUILTIN_TRAJECTORIES_SHA256
