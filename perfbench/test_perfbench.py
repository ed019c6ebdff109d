"""Self-tests of the benchmark: span arithmetic, output checks and a smoke
pass of every workload.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402
from quboreduce import circuits, experiments, factoring, qubo  # noqa: E402


def span(sid, start, end, parent=None, name="x"):
    return spans.Span(sid, name, start, end, parent, "op")


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        tree = [
            span(0, 0.0, 10.0, name="root"),
            span(1, 1.0, 4.0, 0),
            span(2, 3.0, 6.0, 0),  # overlaps span 1
            span(3, 9.0, 12.0, 0),  # runs past its parent's end
            span(4, 2.0, 3.0, 1),  # grandchild of the root
        ]
        own = spans.self_times(tree)
        # The root's children cover [1, 6] and [9, 10]: 6 of its 10 seconds.
        assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 1.0}

    def test_child_inside_an_earlier_child_is_not_counted_twice(self):
        tree = [span(0, 0.0, 10.0), span(1, 1.0, 8.0, 0), span(2, 2.0, 3.0, 0)]
        assert spans.self_times(tree)[0] == 3.0

    def test_layer_totals_sum_by_name(self):
        tree = [span(0, 0.0, 4.0, name="a"), span(1, 1.0, 2.0, 0, "b"), span(2, 5.0, 6.0, name="b")]
        totals = spans.layer_totals(tree)
        assert totals["a"] == {"self_s": 3.0, "calls": 1, "work": 0}
        assert totals["b"] == {"self_s": 2.0, "calls": 2, "work": 0}


class TestTracer:
    def test_spans_nest_and_wrappers_are_removed(self):
        original = experiments.build_circuit
        loads = vars(qubo.QuboMatrix)["loads"]
        tracer = spans.Tracer()
        q = qubo.QuboMatrix(3, {(0, 0): -1, (0, 1): 2, (1, 2): 2})
        with tracer:
            assert experiments.build_circuit is not original
            circuits.build_circuit(q, circuits.QaoaParams.constant(1))  # no open operation
            with tracer.record("op1"):
                circuits.build_circuit(q, circuits.QaoaParams.constant(1))
                qubo.QuboMatrix.loads(q.dumps())
        assert experiments.build_circuit is original
        assert circuits.build_circuit is original
        assert vars(qubo.QuboMatrix)["loads"] is loads
        names = [s.name for s in tracer.spans]
        assert names == ["circuits.qubo_to_ising", "circuits.build_circuit", "qubo.dumps", "qubo.loads"]
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["circuits.qubo_to_ising"].parent == by_name["circuits.build_circuit"].id
        assert by_name["circuits.build_circuit"].parent is None
        assert all(s.op == "op1" for s in tracer.spans)
        assert by_name["qubo.loads"].work == by_name["qubo.dumps"].work == len(q.dumps())


def smoke_records():
    setting = experiments.ProblemSetting("max_clique", 8, 12, seed=0)
    return experiments.run_sweep(setting, 3, (1, 2))


def factored_smoke():
    inputs = w.factor_setup(0, smoke=True)
    text = inputs.data["texts"][0][1]
    mod_text, report_text, gate_text, _, _ = w.factor_one(text, 3, 2)
    q = qubo.QuboMatrix.loads(text)
    return q, qubo.QuboMatrix.loads(mod_text), factoring.FactoringReport.loads(report_text), gate_text


class TestOutputChecks:
    def test_sweep_accepts_real_rows(self):
        assert w.sweep_problems(smoke_records(), 3, (1, 2)) == []

    def test_sweep_rejects_wrong_cnot_count(self):
        rows = smoke_records()
        rows[4] = dataclasses.replace(rows[4], cnots=rows[4].cnots + 2)
        assert w.sweep_problems(rows, 3, (1, 2))

    def test_sweep_rejects_rising_couplings(self):
        rows = smoke_records()
        last = rows[-1]
        rows[-1] = dataclasses.replace(last, couplings=rows[0].couplings + 1, cnots=2 * (rows[0].couplings + 1) * last.p)
        assert w.sweep_problems(rows, 3, (1, 2))

    def test_factor_accepts_real_output(self):
        q, q_mod, report, gate_text = factored_smoke()
        assert report.steps
        assert w.factor_problems(q, q_mod, report, gate_text, 2) == []

    def test_factor_rejects_one_flipped_coupling(self):
        q, q_mod, report, gate_text = factored_smoke()
        (i, j), v = next((k, v) for k, v in q_mod.entries() if k[0] < k[1])
        q_mod[i, j] = v + 1
        assert w.factor_problems(q, q_mod, report, gate_text, 2)

    def test_factor_rejects_a_report_that_cannot_be_replayed(self):
        q, q_mod, report, gate_text = factored_smoke()
        step = report.steps[0]
        report.steps[0] = dataclasses.replace(step, syms=step.syms + (step.i,))
        assert w.factor_problems(q, q_mod, report, gate_text, 2)

    def test_factor_rejects_missing_cnot(self):
        q, q_mod, report, gate_text = factored_smoke()
        cut = gate_text.index("\nCNOT ")
        broken = gate_text[:cut] + gate_text[gate_text.index("\n", cut + 1):]
        assert w.factor_problems(q, q_mod, report, broken, 2)

    def test_exhaustive_rejects_false_verdict(self):
        assert w.verdict_problems(factoring.VerificationVerdict(True, True, True)) == []
        assert w.verdict_problems(factoring.VerificationVerdict(True, False, True))

    def test_exhaustive_rejects_wrong_first_energy(self):
        assert w.spectrum_problems(-3, -3) == []
        assert w.spectrum_problems(-2, -3)


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_smoke_pass_is_correct_and_traced_digest_matches(name):
    setup, run_pass = w.WORKLOADS[name]
    inputs = setup(0, smoke=True)
    assert inputs.instances
    plain = w.PassRecorder()
    run_pass(inputs, plain)
    tracer = spans.Tracer()
    traced = w.PassRecorder(tracer)
    with tracer:
        run_pass(inputs, traced)
    assert plain.attempted == traced.attempted > 0
    assert plain.failed == traced.failed == {}
    assert plain.digest == traced.digest
    assert plain.tallies == traced.tallies
    assert tracer.spans and {s.op.split(":")[0] for s in tracer.spans} == {"pass"}


def test_failed_operation_is_counted_not_raised():
    rec = w.PassRecorder()
    assert rec.run("boom", lambda: 1 / 0) is None
    rec.check("other", ["bad output"])
    assert rec.attempted == 1 and set(rec.failed) == {"boom", "other"}


def test_pass_time_sums_each_operations_best_round():
    fast_a, fast_b = w.PassRecorder(), w.PassRecorder()
    fast_a.op_seconds = {"a": 1.0, "b": 5.0}
    fast_b.op_seconds = {"a": 3.0, "b": 2.0}
    assert run.best_pass_s([fast_a, fast_b]) == 3.0


def test_calibrated_pass_divides_each_operation_by_its_calibration():
    first, second = w.PassRecorder(), w.PassRecorder()
    first.op_seconds, first.calibration_seconds = {"a": 2.0, "b": 1.0}, {"a": 0.5, "b": 0.1}
    second.op_seconds, second.calibration_seconds = {"a": 4.0, "b": 1.0}, {"a": 1.0, "b": 0.1}
    assert run.calibrated_pass([first, second]) == pytest.approx(4.0 + 10.0)


def test_best_layers_adds_the_fixed_spans_to_the_fastest_round():
    fixed = {"a": {"self_s": 1.0, "calls": 1, "work": 10}}
    rounds = [
        {"a": {"self_s": 4.0, "calls": 2, "work": 5}, "b": {"self_s": 1.0, "calls": 1, "work": 0}},
        {"a": {"self_s": 3.0, "calls": 2, "work": 5}, "b": {"self_s": 2.0, "calls": 1, "work": 0}},
    ]
    assert run.best_layers(fixed, rounds) == {
        "a": {"self_s": 4.0, "calls": 3, "work": 15},
        "b": {"self_s": 1.0, "calls": 1, "work": 0},
    }


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = run.per_layer_metrics({}, {}, 0.0, 0.0, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert spec["workloads"] and {x["name"] for x in spec["workloads"]} == set(w.WORKLOADS)
