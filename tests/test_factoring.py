import dataclasses
import hashlib
import itertools
import random
import re
import sys
from collections import defaultdict
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
    min_energy_over_ancillas,
    sample_graph,
    spectrum,
    vertex_cover_qubo,
    verify_equivalence,
)
from quboreduce import factoring
from quboreduce.experiments import build_problem_qubo, builtin_settings, run_sweep
from quboreduce.factoring import (
    FactoringStep,
    VerificationVerdict,
    dense_mirror,
    factoring_trajectory,
    is_conflicting,
)
from quboreduce.graphs import permute_vertices, sample_permutation
from quboreduce.qubo import FLOAT_TOL, all_energies, bits_from_index

from conftest import random_qubo

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
        assert energies[0].tolist() == [energy(outs[0], bits_from_index(m, 7)) for m in range(1 << 7)]

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

    @pytest.mark.parametrize("z", [float("inf"), float("-inf"), float("nan"), 10**400])
    def test_rejects_non_finite_z(self, demo_qubo, z):
        with pytest.raises(ParameterError, match="must be positive and finite"):
            enhance(demo_qubo, (1, 4), {0, 2, 5}, z)


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

    @pytest.mark.parametrize("z", ["Infinity", "-Infinity", "NaN", "0", "-5", "1" + "0" * 400])
    def test_report_rejects_z_the_loop_rejects(self, z):
        with pytest.raises(ParameterError, match="must be positive and finite"):
            FactoringReport.loads('{"base_n": 4, "final_n": 4, "z": %s, "steps": []}' % z)

    @pytest.mark.parametrize("z", [0, -1])
    def test_rejects_nonpositive_z_when_nothing_factors(self, z):
        q = vertex_cover_qubo(sample_graph(30, 131, seed=0), 3)
        assert factoring_trajectory(q, 5, default_z(q))[1].steps == []
        with pytest.raises(ParameterError):
            factoring_trajectory(q, 5, z)
        with pytest.raises(ParameterError):
            factor_out(q, 5, z)


class TestDefaultZ:
    def test_demo_instance(self, demo_qubo):
        assert default_z(demo_qubo) == 9 * 3 + 6 * 1

    def test_zero_matrix(self):
        assert default_z(QuboMatrix(4)) == 0

    def test_two_terms(self):
        assert default_z(QuboMatrix(2, {(0, 0): -1, (0, 1): 3})) == 4


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
        z = default_z(demo_qubo)
        q_mod = enhance(enhance(demo_qubo, (1, 4), {0, 2, 5}, z), pair, set(), z)
        report = FactoringReport(6, z, [FactoringStep(6, 1, 4, (0, 2, 5)), FactoringStep(7, *pair, ())])
        verdict = verify_equivalence(demo_qubo, q_mod, report)
        assert verdict == reference_verify(demo_qubo, q_mod, report)
        assert verdict.all_ok

    def test_matches_reference(self):
        # Encoded instances factored at the safe penalty and at weak ones, in
        # integer and float form, so every verdict field is seen both ways.
        rng = random.Random(5)
        seen = set()
        for t in range(40):
            v = rng.randint(5, 10)
            q = max_clique_qubo(sample_graph(v, rng.randint(v, v * (v - 1) // 2 - 3), seed=t), 3)
            if t % 3 == 0:
                q = QuboMatrix(q.n, {k: 0.75 * c for k, c in q.entries()}, offset=0.5)
            for z in (default_z(q), 3, 1.5, 0.5):
                q_mod, report = factor_out(q, 6, z)
                verdict = verify_equivalence(q, q_mod, report)
                assert verdict == reference_verify(q, q_mod, report), (t, z)
                seen.add(dataclasses.astuple(verdict))
        assert all(set(values) == {False, True} for values in zip(*seen))


def reference_verify(q, q_mod, report):
    """verify_equivalence with one Python replay of the steps per assignment."""
    base_energies = all_energies(q)
    mod_energies = all_energies(q_mod)
    best_mod = mod_energies.reshape(1 << (q_mod.n - q.n), 1 << q.n).min(axis=0)
    tol = 0 if q.is_integral and q_mod.is_integral else FLOAT_TOL

    def classify_valid(bits):
        extended = list(bits)
        for step in report.steps:
            bi, bj = extended[step.i], extended[step.j]
            if bi and bj:
                return False
            extended.append(bi | bj)
        return True

    valid_ok = invalid_ok = True
    for m in range(base_energies.size):
        diff = best_mod[m] - base_energies[m]
        if classify_valid(bits_from_index(m, q.n)):
            if abs(diff) > tol:
                valid_ok = False
        elif diff < -tol:
            invalid_ok = False
    minimum_ok = bool(abs(mod_energies.min() - base_energies.min()) <= tol)
    return VerificationVerdict(valid_ok, invalid_ok, minimum_ok)


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
