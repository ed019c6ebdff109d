import hashlib
import re
from itertools import chain

import pytest

from quboreduce import (
    ParameterError,
    ProblemSetting,
    SweepRecord,
    builtin_settings,
    experiments,
    reduction_table,
    run_sweep,
)
from quboreduce.circuits import QaoaParams, build_circuit, cnot_count, depth
from quboreduce.experiments import (
    CSV_HEADER,
    build_problem_qubo,
    format_records_csv,
    parse_records_csv,
    sweep_circuit,
)
from quboreduce.factoring import default_z, factoring_trajectory
from quboreduce.qubo import coupling_count

from conftest import DEMO_EDGES, reference_sweep

# sha256 of the CSV of run_sweep(s, 29) over every builtin_settings() entry,
# in order: every sweep row's qubits, couplings, CNOTs and depth.
BUILTIN_SWEEP_CSV_SHA256 = "a8ea8d5d926190965e67d6cd1d994ba54404f24635f3e239e5356a90fd3eac2a"


@pytest.fixture(scope="module")
def builtin_sweeps():
    return [(s, run_sweep(s, 29)) for s in builtin_settings()]


def test_builtin_sweep_csv_is_pinned(builtin_sweeps):
    text = format_records_csv(chain.from_iterable(records for _, records in builtin_sweeps))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_SWEEP_CSV_SHA256


def demo_setting(**overrides):
    # 6-vertex, 6-edge clique instance; seed picked below in tests that need
    # the exact demo graph.
    defaults = dict(problem="max_clique", v=6, e=6, penalty=3, seed=0, setting=0)
    defaults.update(overrides)
    return ProblemSetting(**defaults)


class TestProblemSetting:
    def test_rejects_unknown_problem(self):
        with pytest.raises(ParameterError):
            ProblemSetting("tsp", 5, 4)

    def test_rejects_edge_overflow(self):
        with pytest.raises(ParameterError):
            ProblemSetting("max_clique", 4, 7)

    def test_color_count_only_for_coloring(self):
        with pytest.raises(ParameterError):
            ProblemSetting("max_clique", 5, 4, k=3)
        with pytest.raises(ParameterError):
            ProblemSetting("graph_coloring", 5, 4)


class TestBuiltinSettings:
    def test_fifteen_settings_four_seeds(self):
        settings = builtin_settings()
        assert len(settings) == 15 * 4
        assert {s.problem for s in settings} == {
            "max_clique", "hamilton_cycles", "graph_coloring", "vertex_cover", "graph_isomorphism",
        }

    def test_max_clique_rows(self):
        rows = sorted(
            {(s.setting, s.v, s.e) for s in builtin_settings() if s.problem == "max_clique"}
        )
        assert rows == [(0, 30, 87), (1, 30, 174), (2, 60, 354)]

    def test_coloring_carries_three_colors(self):
        for s in builtin_settings():
            if s.problem == "graph_coloring":
                assert s.k == 3
            else:
                assert s.k is None

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(ParameterError):
            builtin_settings(seeds=[0, 1, 0])

    def test_hamilton_third_setting(self):
        rows = {(s.setting, s.v, s.e) for s in builtin_settings() if s.problem == "hamilton_cycles"}
        assert (2, 8, 16) in rows
        q = build_problem_qubo(
            ProblemSetting("hamilton_cycles", 8, 16, seed=0, setting=2)
        )
        assert q.n == 64


class TestRunSweep:
    def test_demo_poc_sweep(self):
        # seed 9115 reproduces the 6-vertex demo graph exactly
        from quboreduce import sample_graph
        seed = 9115
        assert sample_graph(6, 6, seed).edges == frozenset(DEMO_EDGES)
        records = run_sweep(demo_setting(seed=seed), max_ancillas=1, p_values=[3], z=3)
        assert [(r.num_ancillas, r.couplings, r.cnots) for r in records] == [
            (0, 9, 54),
            (1, 8, 48),
        ]
        assert records[0].qubits == 6 and records[1].qubits == 7

    def test_zero_budget_is_baseline(self):
        setting = demo_setting(seed=3)
        records = run_sweep(setting, max_ancillas=0, p_values=[1, 2])
        q = build_problem_qubo(setting)
        assert all(r.qubits == q.n and r.couplings == coupling_count(q) for r in records)

    def test_couplings_non_increasing_and_cnot_law(self):
        records = run_sweep(demo_setting(v=8, e=10, seed=5), max_ancillas=6, p_values=[1, 3])
        for p in (1, 3):
            rows = [r for r in records if r.p == p]
            assert all(a.couplings >= b.couplings for a, b in zip(rows, rows[1:]))
        assert all(r.cnots == 2 * r.couplings * r.p for r in records)

    def test_saturation_repeats_metrics(self):
        # tiny instance with no factorable structure
        records = run_sweep(demo_setting(v=3, e=3, seed=0), max_ancillas=4, p_values=[1])
        assert len(records) == 5
        assert len({(r.qubits, r.couplings, r.depth) for r in records}) == 1
        assert [r.num_ancillas for r in records] == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("setting, budget", [
        (demo_setting(v=8, e=10, seed=5), 3),
        (ProblemSetting("hamilton_cycles", 4, 5, seed=0), 6),
        (ProblemSetting("graph_isomorphism", 4, 4, seed=1), 8),
    ])
    def test_rows_match_circuit_of_trajectory_matrix(self, setting, budget):
        # reference: build the circuit of every (budget, p) row afresh
        q = build_problem_qubo(setting)
        trajectory, _ = factoring_trajectory(q, budget, default_z(q))
        last = len(trajectory) - 1
        assert 0 < last < budget  # factors, then saturates before the budget
        records = run_sweep(setting, budget, p_values=[1, 2, 3])
        assert len(records) == 3 * (budget + 1)
        for r in records:
            q_mod = trajectory[min(r.num_ancillas, last)]
            circuit = build_circuit(q_mod, QaoaParams.constant(r.p))
            assert (r.qubits, r.couplings) == (q_mod.n, coupling_count(q_mod))
            assert (r.cnots, r.depth) == (cnot_count(circuit), depth(circuit))

    def test_cnots_are_two_per_stored_coupling_per_layer(self):
        # A penalty of 5e-324 is stored as 9 couplings whose spin-form quarter
        # underflows to 0; each still compiles to CNOT-RZ-CNOT.
        setting = demo_setting(penalty=5e-324, seed=3)
        q = build_problem_qubo(setting)
        records = run_sweep(setting, 1, p_values=[1, 2])
        assert {(r.qubits, r.couplings) for r in records} == {(q.n, 9)}
        assert all(r.cnots == 2 * 9 * r.p for r in records)
        for r in records:
            circuit = build_circuit(q, QaoaParams.constant(r.p))
            assert (r.cnots, r.depth) == (cnot_count(circuit), depth(circuit))

    @pytest.mark.parametrize("p_values", [[0], [-2], [2, 0]])
    def test_rejects_nonpositive_p_before_factoring(self, p_values, monkeypatch):
        def unreachable(*args):
            raise AssertionError("factored before checking p")

        monkeypatch.setattr(experiments, "_factoring_loop", unreachable)
        with pytest.raises(ParameterError):
            run_sweep(demo_setting(), 1, p_values=p_values)

    @pytest.mark.parametrize("p_values", [[True], [1, 2.0]])
    def test_rejects_a_p_that_is_not_an_int_before_factoring(self, p_values, monkeypatch):
        # A bool p would be written to the CSV as True, which parse_records_csv refuses.
        def unreachable(*args):
            raise AssertionError("factored before checking p")

        monkeypatch.setattr(experiments, "_factoring_loop", unreachable)
        with pytest.raises(ParameterError, match="layer count must be an integer"):
            run_sweep(ProblemSetting("max_clique", 8, 12), 1, p_values=p_values)

    def test_matches_reference_on_every_builtin_instance(self, builtin_sweeps):
        assert len(builtin_sweeps) == 60
        for s, records in builtin_sweeps:
            assert records == reference_sweep(s, 29)

    @pytest.mark.parametrize("setting, budget, p_values, z", [
        (demo_setting(v=8, e=10, seed=5), 0, (1, 2, 3), None),  # no budget: no mirror
        (demo_setting(v=3, e=3, seed=0), 4, (2, 1), None),  # no step possible: no mirror
        (demo_setting(v=8, e=10, seed=5), 6, (3, 1), 5),
        (ProblemSetting("hamilton_cycles", 4, 5, seed=0), 6, (2,), None),
        (demo_setting(penalty=5e-324, seed=3), 2, (1, 3), None),
        (demo_setting(penalty=2**60, seed=9115), 2, (3, 2, 1), None),  # dtype-object mirror
    ])
    def test_matches_reference_on_small_instances(self, setting, budget, p_values, z):
        assert run_sweep(setting, budget, p_values, z) == reference_sweep(setting, budget, p_values, z)

    def test_no_layer_counts_give_no_rows(self):
        assert run_sweep(demo_setting(v=8, e=10, seed=5), 3, ()) == []

    def test_rejects_duplicate_p(self):
        with pytest.raises(ParameterError):
            run_sweep(demo_setting(), 1, p_values=[2, 2])

    @pytest.mark.parametrize("setting", [
        demo_setting(v=8, e=10, seed=5),
        ProblemSetting("graph_isomorphism", 4, 4, seed=1),
    ])
    def test_omitted_z_is_default_z(self, setting):
        explicit = run_sweep(setting, 4, [1, 2], z=default_z(build_problem_qubo(setting)))
        assert len({r.qubits for r in explicit}) > 1  # the instance factors
        assert run_sweep(setting, 4, [1, 2]) == explicit

    @pytest.mark.parametrize("z", [0, -1])
    def test_rejects_nonpositive_z_when_nothing_factors(self, z):
        setting = ProblemSetting("vertex_cover", 30, 131, seed=0)
        assert {r.qubits for r in run_sweep(setting, 2, [1])} == {30}  # nothing factors
        with pytest.raises(ParameterError):
            run_sweep(setting, 2, [1], z=z)


class TestSweepCircuit:
    @pytest.mark.parametrize("setting, budget", [
        (demo_setting(v=8, e=10, seed=5), 3),
        (ProblemSetting("hamilton_cycles", 4, 5, seed=0), 6),
        (ProblemSetting("graph_isomorphism", 4, 4, seed=1), 8),
    ])
    def test_metrics_are_the_rows(self, setting, budget):
        # every budget, saturated ones included, and every p
        records = run_sweep(setting, budget, p_values=[1, 2, 3])
        assert len({r.qubits for r in records}) > 1  # the instance factors
        for r in records:
            circuit = sweep_circuit(setting, r.num_ancillas, QaoaParams.constant(r.p))
            assert (circuit.n, cnot_count(circuit), depth(circuit)) == (r.qubits, r.cnots, r.depth)

    def test_is_the_circuit_of_the_factored_matrix(self):
        setting = demo_setting(v=8, e=10, seed=5)
        q = build_problem_qubo(setting)
        q_mod = factoring_trajectory(q, 2, default_z(q))[0][-1]
        params = QaoaParams.constant(2, gamma=0.3, beta=0.7)
        for order in ("ascending", "packed"):
            expected = build_circuit(q_mod, params, order=order)
            assert sweep_circuit(setting, 2, params, order=order).gates == expected.gates

    def test_rejects_negative_budget(self):
        with pytest.raises(ParameterError):
            sweep_circuit(demo_setting(), -1, QaoaParams.constant(1))

    @pytest.mark.parametrize("budget", [2.0, True])
    def test_rejects_a_budget_that_is_not_an_int(self, budget):
        with pytest.raises(ParameterError, match=f"ancilla budget must be an integer, got {budget}"):
            sweep_circuit(demo_setting(), budget, QaoaParams.constant(1))
        with pytest.raises(ParameterError, match=f"ancilla budget must be an integer, got {budget}"):
            run_sweep(demo_setting(), budget)


def row(seed, budget, p, couplings, depth, problem="max_clique", setting=0):
    return SweepRecord(problem, setting, seed, budget, p, 6 + budget, couplings, 2 * couplings * p, depth)


class TestReductionTable:
    def test_builtin_table(self, builtin_sweeps):
        table = reduction_table(chain.from_iterable(records for _, records in builtin_sweeps))
        assert [(problem, setting, round(c, 1), round(d, 1)) for problem, setting, c, d in table] == [
            ("graph_coloring", 0, 17.1, 34.3),
            ("graph_coloring", 1, 3.3, 9.4),
            ("graph_coloring", 2, 25.0, 39.5),
            ("graph_isomorphism", 0, 50.9, 40.4),
            ("graph_isomorphism", 1, 51.4, 36.6),
            ("graph_isomorphism", 2, 53.0, 36.3),
            ("hamilton_cycles", 0, 31.1, 32.1),
            ("hamilton_cycles", 1, 35.0, 43.6),
            ("hamilton_cycles", 2, 37.0, 48.5),
            ("max_clique", 0, 49.7, 31.6),
            ("max_clique", 1, 36.3, 32.4),
            ("max_clique", 2, 54.2, 30.4),
            ("vertex_cover", 0, 0.0, 0.0),
            ("vertex_cover", 1, 0.0, 0.0),
            ("vertex_cover", 2, 0.0, 0.0),
        ]

    def test_falls_of_the_means_over_seeds(self):
        # Seed 0 falls 10 -> 5 and seed 1 stays at 30: the mean falls 20 -> 17.5,
        # 12.5%, where the mean of the two falls would be 25%.  Rows come in
        # any order.
        records = [row(1, 2, 1, 30, 40), row(0, 2, 1, 5, 12), row(0, 0, 1, 10, 20), row(1, 0, 1, 30, 40)]
        assert reduction_table(records) == [("max_clique", 0, 12.5, 100 * (30 - 26) / 30)]

    def test_reads_the_largest_p_of_the_file(self):
        records = [row(0, 0, 1, 10, 20), row(0, 1, 1, 5, 10), row(0, 0, 2, 10, 40), row(0, 1, 2, 5, 30)]
        assert reduction_table(records) == [("max_clique", 0, 50.0, 25.0)]

    def test_one_budget_reads_zero(self):
        assert reduction_table([row(0, 3, 1, 10, 20), row(1, 3, 1, 12, 30)]) == [("max_clique", 0, 0.0, 0.0)]

    def test_zero_couplings_at_the_smallest_budget_read_zero(self):
        records = [row(0, 0, 1, 0, 1), row(0, 1, 1, 0, 1),
                   row(0, 0, 1, 0, 2, setting=1), row(0, 4, 1, 0, 1, setting=1)]
        assert reduction_table(records) == [("max_clique", 0, 0.0, 0.0), ("max_clique", 1, 0.0, 50.0)]

    def test_one_row_per_problem_and_setting_in_order(self):
        records = [row(0, 0, 1, 4, 8, "vertex_cover", 1), row(0, 0, 1, 4, 8, "max_clique", 2),
                   row(0, 0, 1, 4, 8, "max_clique", 1)]
        assert [key[:2] for key in reduction_table(records)] == [
            ("max_clique", 1), ("max_clique", 2), ("vertex_cover", 1),
        ]

    def test_no_records_give_no_rows(self):
        assert reduction_table([]) == []


class TestCsvFormat:
    def test_round_trip(self):
        records = run_sweep(demo_setting(seed=1), max_ancillas=2, p_values=[1, 2])
        assert parse_records_csv(format_records_csv(records)) == records

    def test_header(self):
        text = format_records_csv([])
        assert text.splitlines()[0] == "problem,setting,seed,num_ancillas,p,qubits,couplings,cnots,depth"

    def test_rejects_wrong_header(self):
        with pytest.raises(ParameterError):
            parse_records_csv("a,b,c\n1,2,3\n")

    def test_builtin_sweep_parses_to_its_records(self, builtin_sweeps):
        records = list(chain.from_iterable(records for _, records in builtin_sweeps))
        assert parse_records_csv(format_records_csv(records)) == records

    @pytest.mark.parametrize("seed", [-7, 0, 2**70])
    def test_any_integer_seed_is_read(self, seed):
        [record] = parse_records_csv(format_records_csv([row(seed, 1, 2, 5, 9)]))
        assert record.seed == seed

    @pytest.mark.parametrize("line, message", [
        ("not_a_problem,0,0,0,1,30,87,174,5", "unknown problem 'not_a_problem'"),
        ("max_clique,-1,0,0,1,30,87,174,5", "setting must be at least 0, got -1"),
        ("max_clique,0,0,-1,1,30,87,174,5", "num_ancillas must be at least 0, got -1"),
        ("max_clique,0,0,0,1,30,-87,-174,5", "couplings must be at least 0, got -87"),
        ("max_clique,0,0,0,1,30,0,-2,5", "cnots must be at least 0, got -2"),
        ("max_clique,0,0,0,1,30,87,174,-5", "depth must be at least 0, got -5"),
        ("max_clique,0,0,0,0,30,87,0,5", "p must be at least 1, got 0"),
        ("max_clique,0,0,0,1,0,87,174,5", "qubits must be at least 1, got 0"),
        ("max_clique,0,0,0,2,30,87,174,5", "cnots 174 != 2 * couplings * p = 348"),
    ], ids=["problem", "setting", "num_ancillas", "couplings", "cnots", "depth", "p", "qubits", "cnot-law"])
    def test_rejects_a_row_no_sweep_writes(self, line, message):
        text = ",".join(CSV_HEADER) + "\nmax_clique,0,0,0,1,30,87,174,5\n" + line + "\n"
        with pytest.raises(ParameterError, match=re.escape(f"CSV line 3: {message}")):
            parse_records_csv(text)


class TestGraphIsomorphismModes:
    def test_permuted_mode_yields_solvable_instance(self):
        from quboreduce import spectrum
        setting = ProblemSetting("graph_isomorphism", 3, 2, seed=1)
        q = build_problem_qubo(setting)
        assert spectrum(q)[0].energy == -3
