"""The benchmark's three workloads: inputs, operations and output checks.

Each workload has a ``setup(seed, smoke)`` that builds its inputs from the
workload seed alone and a ``run_pass(inputs, rec)`` that runs every
operation once through a :class:`PassRecorder`.  The recorder times each
operation, counts it as attempted, and counts it as failed when it raises or
its output check reports a problem.  Checks run between operations, outside
the timed region, as does the calibration loop timed around each operation
(see :func:`calibration_seconds`).  ``smoke=True`` selects tiny seed-fixed
sizes for the self-tests and the warm-up.

All calls into the program go through module attributes
(``experiments.run_sweep``, ``qubo.QuboMatrix.loads``, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from quboreduce import circuits, encoders, experiments, factoring, graphs, qubo

# sweep: settings 0 and 1 of every builtin problem, the paper's budgets and p.
SWEEP_SETTINGS = (0, 1)
SWEEP_BUDGET = 29
SWEEP_P = (1, 2, 3)

# factor: the largest builtin setting of each problem plus two weighted QUBOs.
FACTOR_BUDGET = 29
FACTOR_P = 3
WCLIQUE_2LEVEL = (60, 354)
WCLIQUE_CONTINUOUS = (80, 1000)

# exhaustive: two max_clique instances near the enumeration guard, one with
# integer and one with float coefficients.  (17, 60) factors exactly four
# steps on every seed tried, so the verified size does not depend on the seed.
EXHAUSTIVE_GRAPH = (17, 60)
EXHAUSTIVE_BUDGET = 4
EXHAUSTIVE_P = 1


CALIBRATION_ARRAY = np.arange(1 << 20, dtype=np.float64)


def calibration_loop() -> int:
    """Fixed work that uses no part of the program: dict updates, frozenset
    intersections and float arithmetic in Python, then elementwise numpy
    passes over an 8 MB array, as the program's own code mixes them."""
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 613] = counts.get(i % 613, 0) + i
    sets = [frozenset(range(k, k + 24)) for k in range(50)]
    shared = sum(len(a & b) for a, b in zip(sets, sets[1:]))
    total = 0.0
    for i in range(1000):
        total += (i * 0.5) % 7.0
    x = CALIBRATION_ARRAY * 1.5
    x += CALIBRATION_ARRAY
    return shared + len(counts) + int(total) + int((x > 3).sum())


def calibration_seconds(samples: int = 3) -> float:
    """Median seconds of ``calibration_loop``: how fast the machine runs
    this process at the moment."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class PassRecorder:
    """Times, checks and digests the operations of one pass."""

    def __init__(self, tracer=None, label: str = "pass"):
        self.tracer = tracer
        self.label = label
        self.seconds = 0.0
        self.op_seconds: dict[str, float] = {}
        self.calibration_seconds: dict[str, float] = {}
        self.attempted = 0
        self.failed: dict[str, list[str]] = {}
        self.tallies: dict[str, int] = {}
        self._digest = hashlib.sha256()

    def run(self, op: str, fn, *args):
        """Run one operation; its result, or None when it raised.  Garbage
        left by earlier operations is collected first, and the calibration
        is timed before and after; neither counts in the operation's time."""
        self.attempted += 1
        gc.collect()
        before = calibration_seconds()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                with self.tracer.record(f"{self.label}:{op}"):
                    result = fn(*args)
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed.setdefault(op, []).append(f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            took = time.perf_counter() - start
            self.seconds += took
            self.op_seconds[op] = self.op_seconds.get(op, 0.0) + took
            speed = (before + calibration_seconds()) / 2
            self.calibration_seconds[op] = self.calibration_seconds.get(op, 0.0) + speed
        return result

    def check(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed.setdefault(op, []).extend(problems)

    def emit(self, text: str) -> None:
        self._digest.update(text.encode())

    def tally(self, **counts: int) -> None:
        for key, value in counts.items():
            self.tallies[key] = self.tallies.get(key, 0) + value

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


@dataclass
class Inputs:
    """What setup hands to the passes, plus what it emitted itself."""

    data: dict
    instances: list[dict] = field(default_factory=list)
    emitted: list[str] = field(default_factory=list)
    tallies: dict[str, int] = field(default_factory=dict)


def weighted_clique(v: int, e: int, seed, penalty) -> qubo.QuboMatrix:
    """max_clique-shaped float QUBO: diagonal -U(0.5, 1.5) rounded to three
    places, and ``penalty(rng)`` on every non-edge of a sampled (v, e) graph."""
    rng = random.Random(seed)
    g = graphs.sample_graph(v, e, rng.randrange(2**32))
    q = qubo.QuboMatrix(v)
    for i in range(v):
        q[i, i] = -round(rng.uniform(0.5, 1.5), 3)
    for i, j in graphs.complement(g).sorted_edges():
        q[i, j] = penalty(rng)
    return q


def as_float(q: qubo.QuboMatrix) -> qubo.QuboMatrix:
    """The same matrix with every coefficient and the offset as a float."""
    return qubo.QuboMatrix(q.n, ((k, float(v)) for k, v in q.entries()), float(q.offset))


def format_spectrum(entries) -> str:
    """Spectrum text as the ``spectrum`` CLI command writes it."""
    return "".join(f"{''.join(map(str, e.bits))} {e.energy}\n" for e in entries)


def format_verdict(verdict) -> str:
    return json.dumps(
        {
            "valid_energies_preserved": verdict.valid_energies_preserved,
            "invalid_energies_nondecreasing": verdict.invalid_energies_nondecreasing,
            "minimum_preserved": verdict.minimum_preserved,
        }
    ) + "\n"


# -- output checks: each returns the list of problems found, empty when fine


def sweep_problems(records, budget: int, p_values) -> list[str]:
    """cnots == 2*couplings*p on every row, couplings never increase with the
    budget, and one row per (budget, p)."""
    problems = []
    if len(records) != (budget + 1) * len(p_values):
        problems.append(f"{len(records)} rows, expected {(budget + 1) * len(p_values)}")
    last: dict[int, int] = {}
    for r in records:
        if r.cnots != 2 * r.couplings * r.p:
            problems.append(f"budget {r.num_ancillas} p {r.p}: cnots {r.cnots} != 2*{r.couplings}*{r.p}")
        if r.p in last and r.couplings > last[r.p]:
            problems.append(f"couplings rise to {r.couplings} at budget {r.num_ancillas}, p {r.p}")
        last[r.p] = r.couplings
    return problems


def factor_problems(q, q_mod, report, gate_text: str, p: int) -> list[str]:
    """Replaying the report's steps through ``enhance`` rebuilds ``q_mod``
    exactly, each step lowers the coupling count by |syms| - 2, and the gate
    list holds 2*couplings*p CNOTs."""
    problems = []
    current = q
    for k, step in enumerate(report.steps):
        if step.ancilla != current.n:
            problems.append(f"step {k}: ancilla {step.ancilla} != {current.n}")
            return problems
        try:
            nxt = factoring.enhance(current, (step.i, step.j), step.syms, report.z)
        except qubo.ParameterError as exc:
            problems.append(f"step {k}: {exc}")
            return problems
        drop = qubo.coupling_count(current) - qubo.coupling_count(nxt)
        if drop != len(step.syms) - 2:
            problems.append(f"step {k}: couplings drop by {drop}, expected {len(step.syms) - 2}")
        current = nxt
    if current != q_mod:
        problems.append("replaying the report does not rebuild the output matrix")
    cnots = gate_text.count("\nCNOT ")
    if cnots != 2 * qubo.coupling_count(q_mod) * p:
        problems.append(f"gate list has {cnots} CNOTs, expected 2*{qubo.coupling_count(q_mod)}*{p}")
    return problems


def verdict_problems(verdict) -> list[str]:
    return [] if verdict.all_ok else [f"verdict fails: {verdict}"]


def spectrum_problems(first_energy, lowest) -> list[str]:
    """The sorted spectrum starts at the minimum of ``all_energies``."""
    return [] if first_energy == lowest else [f"first spectrum energy {first_energy} != minimum {lowest}"]


def depth_monotone_groups(records) -> int:
    """(problem, setting, p) groups whose depth never rises with the budget."""
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.problem, r.setting, r.p), []).append(r)
    count = 0
    for rows in groups.values():
        rows.sort(key=lambda r: r.num_ancillas)
        if all(a.depth >= b.depth for a, b in zip(rows, rows[1:])):
            count += 1
    return count


# -- sweep: experiments.run_sweep per setting, then the CSV of every row


def sweep_setup(seed: int, smoke: bool = False) -> Inputs:
    if smoke:
        settings = [
            experiments.ProblemSetting("max_clique", 8, 12, seed=seed),
            experiments.ProblemSetting("vertex_cover", 6, 7, seed=seed, setting=1),
        ]
        budget, p_values = 3, (1, 2)
    else:
        settings = [
            s for s in experiments.builtin_settings(seeds=(seed,)) if s.setting in SWEEP_SETTINGS
        ]
        budget, p_values = SWEEP_BUDGET, SWEEP_P
    instances = [{"name": f"{s.problem}/{s.setting}", "v": s.v, "e": s.e} for s in settings]
    return Inputs({"settings": settings, "budget": budget, "p_values": p_values}, instances)


def sweep_pass(inputs: Inputs, rec: PassRecorder) -> None:
    budget, p_values = inputs.data["budget"], inputs.data["p_values"]
    rows = []
    for s in inputs.data["settings"]:
        op = f"run_sweep {s.problem}/{s.setting}"
        records = rec.run(op, experiments.run_sweep, s, budget, p_values)
        if records is None:
            continue
        rec.check(op, sweep_problems(records, budget, p_values))
        rows.extend(records)
        rec.tally(
            couplings=sum(r.couplings for r in records if r.num_ancillas == budget and r.p == p_values[0]),
            cnots=sum(r.cnots for r in records),
            depth=sum(r.depth for r in records),
        )
    rows.sort(key=lambda r: (r.problem, r.setting, r.seed, r.num_ancillas, r.p))
    text = rec.run("format_records_csv", experiments.format_records_csv, rows)
    if text is not None:
        rec.check("format_records_csv", [] if text.count("\n") == len(rows) + 1 else ["CSV row count"])
        rec.emit(text)
    rec.tally(depth_monotone_groups=depth_monotone_groups(rows))


# -- factor: the CLI path factor -> circuit --p 3, in-process


def factor_setup(seed: int, smoke: bool = False) -> Inputs:
    if smoke:
        settings = [experiments.ProblemSetting("max_clique", 10, 20, seed=seed)]
        two_level = continuous = (10, 20)
        budget, p = 3, 2
    else:
        settings = [s for s in experiments.builtin_settings(seeds=(seed,)) if s.setting == 2]
        two_level, continuous = WCLIQUE_2LEVEL, WCLIQUE_CONTINUOUS
        budget, p = FACTOR_BUDGET, FACTOR_P
    named = [(f"{s.problem}/{s.setting}", experiments.build_problem_qubo(s)) for s in settings]
    named.append(
        ("wclique-2level", weighted_clique(*two_level, f"wclique-2level/{seed}", lambda r: r.choice((2.5, 3.5))))
    )
    named.append(
        ("wclique-continuous", weighted_clique(*continuous, f"wclique-continuous/{seed}", lambda r: r.uniform(2, 3)))
    )
    texts = [(name, q.dumps()) for name, q in named]
    return Inputs(
        {"texts": texts, "budget": budget, "p": p},
        [{"name": name, "n": q.n, "entries": len(q)} for name, q in named],
        [text for _, text in texts],
    )


def factor_one(text: str, budget: int, p: int):
    q = qubo.QuboMatrix.loads(text)
    z = factoring.default_z(q)
    q_mod, report = factoring.factor_out(q, budget, z)
    mod_text = q_mod.dumps()
    report_text = report.dumps()
    c = circuits.build_circuit(q_mod, circuits.QaoaParams.constant(p))
    gate_text = circuits.format_gate_list(c)
    return mod_text, report_text, gate_text, circuits.cnot_count(c), circuits.depth(c)


def factor_pass(inputs: Inputs, rec: PassRecorder) -> None:
    budget, p = inputs.data["budget"], inputs.data["p"]
    for name, text in inputs.data["texts"]:
        op = f"factor {name}"
        out = rec.run(op, factor_one, text, budget, p)
        if out is None:
            continue
        mod_text, report_text, gate_text, cnots, depth = out
        q_mod = qubo.QuboMatrix.loads(mod_text)
        report = factoring.FactoringReport.loads(report_text)
        rec.check(op, factor_problems(qubo.QuboMatrix.loads(text), q_mod, report, gate_text, p))
        for emitted in out[:3]:
            rec.emit(emitted)
        rec.tally(couplings=qubo.coupling_count(q_mod), cnots=cnots, depth=depth)


# -- exhaustive: verify_equivalence on two pre-factored instances, spectrum


def exhaustive_setup(seed: int, smoke: bool = False) -> Inputs:
    v, e = (8, 14) if smoke else EXHAUSTIVE_GRAPH
    budget = 2 if smoke else EXHAUSTIVE_BUDGET
    other = random.Random(f"max_clique-float/{seed}").randrange(2**32)
    base = encoders.max_clique_qubo(graphs.sample_graph(v, e, seed), 3)
    floated = as_float(encoders.max_clique_qubo(graphs.sample_graph(v, e, other), 3))
    inputs = Inputs({"instances": [], "base": base.dumps()})
    for name, q in (("max_clique", base), ("max_clique-float", floated)):
        q_mod, report = factoring.factor_out(q, budget, factoring.default_z(q))
        texts = (q.dumps(), q_mod.dumps(), report.dumps())
        inputs.data["instances"].append((name, texts))
        inputs.instances.append({"name": name, "n": q.n, "final_n": q_mod.n, "entries": len(q)})
        inputs.emitted.extend(texts)
        for m in (q, q_mod):
            c = circuits.build_circuit(m, circuits.QaoaParams.constant(EXHAUSTIVE_P))
            inputs.emitted.append(circuits.format_gate_list(c))
            for key, value in (("cnots", circuits.cnot_count(c)), ("depth", circuits.depth(c))):
                inputs.tallies[key] = inputs.tallies.get(key, 0) + value
    return inputs


def verify_one(texts):
    q = qubo.QuboMatrix.loads(texts[0])
    q_mod = qubo.QuboMatrix.loads(texts[1])
    report = factoring.FactoringReport.loads(texts[2])
    return factoring.verify_equivalence(q, q_mod, report), q_mod


def spectrum_one(text: str):
    q = qubo.QuboMatrix.loads(text)
    return qubo.spectrum(q), q


def exhaustive_pass(inputs: Inputs, rec: PassRecorder) -> None:
    for name, texts in inputs.data["instances"]:
        op = f"verify {name}"
        out = rec.run(op, verify_one, texts)
        if out is None:
            continue
        verdict, q_mod = out
        rec.check(op, verdict_problems(verdict))
        rec.emit(format_verdict(verdict))
        rec.tally(couplings=qubo.coupling_count(q_mod))
    out = rec.run("spectrum", spectrum_one, inputs.data["base"])
    if out is not None:
        entries, q = out
        rec.check("spectrum", spectrum_problems(entries[0].energy, qubo.all_energies(q).min()))
        rec.emit(format_spectrum(entries))


WORKLOADS = {
    "sweep": (sweep_setup, sweep_pass),
    "factor": (factor_setup, factor_pass),
    "exhaustive": (exhaustive_setup, exhaustive_pass),
}
