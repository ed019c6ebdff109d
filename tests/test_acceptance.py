"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and the reduction percentage table; ``quboreduce table --csv
sweep.csv`` prints the same table for a sweep CSV, beside the paper's.
"""

import random
import time
from cmath import exp
from collections import defaultdict

import pytest

from quboreduce import (
    Graph,
    QaoaParams,
    basis_phase,
    build_circuit,
    build_cost_layer,
    builtin_settings,
    cnot_count,
    complement,
    coupling_count,
    default_z,
    energy,
    factor_out,
    graph_coloring_qubo,
    graph_isomorphism_qubo,
    hamilton_cycle_qubo,
    max_clique_qubo,
    reduction_table,
    run_sweep,
    sample_graph,
    spectrum,
    vertex_cover_qubo,
    verify_equivalence,
)
from quboreduce.graphs import permute_vertices, sample_permutation
from quboreduce.qubo import QuboMatrix, all_energies

from conftest import DEMO_EDGES, DEMO_FACTORED_ENTRIES, bits_from_index, min_energy_over_ancillas, random_qubo


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    """All builtin settings, 4 seeds, budgets 0..29, p in {1,2,3}."""
    records = []
    for setting in builtin_settings():
        records.extend(run_sweep(setting, 29, [1, 2, 3]))
    return records


def test_criterion_1_demo_round_trip():
    start = time.perf_counter()
    g = Graph(6, frozenset(DEMO_EDGES))
    q = max_clique_qubo(g, 3)
    expected_left = QuboMatrix(6, {(i, i): -1 for i in range(6)})
    for i, j in complement(g).sorted_edges():
        expected_left[i, j] = 3
    q_mod, report = factor_out(q, 1, 3)
    expected_right = QuboMatrix(7, DEMO_FACTORED_ENTRIES)
    elapsed = time.perf_counter() - start
    ok = (
        q == expected_left
        and q_mod == expected_right
        and coupling_count(q) == 9
        and coupling_count(q_mod) == 8
        and q.n == 6
        and q_mod.n == 7
        and elapsed < 1.0
    )
    _report(1, ok, f"encode/factor round trip exact, 9->8 couplings, 6->7 qubits ({elapsed:.3f}s)")


def test_criterion_2_landscape_preservation_suite():
    start = time.perf_counter()
    failures = []

    def check(tag, q, budget=6):
        z = default_z(q)
        if z == 0:
            return
        q_mod, rep = factor_out(q, budget, z)
        verdict = verify_equivalence(q, q_mod, rep)
        if not verdict.all_ok:
            failures.append((tag, verdict))

    rng = random.Random(777)
    for trial in range(50):
        n = rng.randint(2, 10)
        check(f"random-{trial}", random_qubo(rng, n, density=rng.uniform(0.3, 0.9)))

    g10 = sample_graph(10, 22, seed=41)
    g12 = sample_graph(12, 40, seed=42)
    g4 = sample_graph(4, 5, seed=43)
    g3 = sample_graph(3, 3, seed=44)
    check("max_clique", max_clique_qubo(g12, 3))
    check("vertex_cover", vertex_cover_qubo(g10, 3))
    check("graph_coloring", graph_coloring_qubo(g4, 3, 3))
    check("hamilton_cycles", hamilton_cycle_qubo(g3, 3))
    check(
        "graph_isomorphism",
        graph_isomorphism_qubo(g3, permute_vertices(g3, sample_permutation(3, 2)), 3),
    )

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120
    _report(2, ok, f"50 random + 5 encoder instances, failures={failures} ({elapsed:.1f}s)")


def test_criterion_3_penalty_spectra():
    start = time.perf_counter()
    g = Graph(6, frozenset(DEMO_EDGES))
    q = max_clique_qubo(g, 3)
    assert q.is_integral

    q9, _ = factor_out(q, 1, 9)
    all_nondecreasing = all(
        min_energy_over_ancillas(q9, 6, bits_from_index(m, 6)) >= energy(q, bits_from_index(m, 6))
        for m in range(64)
    )

    q3, rep3 = factor_out(q, 1, 3)
    i, j = rep3.steps[0].i, rep3.steps[0].j
    some_invalid_improves = any(
        min_energy_over_ancillas(q3, 6, bits) < energy(q, bits)
        for m in range(64)
        for bits in [bits_from_index(m, 6)]
        if bits[i] and bits[j]
    )
    minimum_kept = int(all_energies(q3).min()) == spectrum(q)[0].energy == -3

    elapsed = time.perf_counter() - start
    ok = all_nondecreasing and some_invalid_improves and minimum_kept and elapsed < 1.0
    _report(
        3,
        ok,
        "strong penalty never lowers any of the 64 energies; weak penalty lowers an "
        f"invalid one yet keeps the -3 minimum ({elapsed:.3f}s)",
    )


def test_criterion_4_cnot_law(full_sweep):
    violations = [r for r in full_sweep if r.cnots != 2 * r.couplings * r.p]
    _report(4, not violations, f"cnots == 2*couplings*p for all {len(full_sweep)} sweep rows")


def test_criterion_5_sweep_trends(full_sweep):
    start = time.perf_counter()
    groups = defaultdict(list)
    for r in full_sweep:
        groups[(r.problem, r.setting, r.seed, r.p)].append(r)
    for rows in groups.values():
        rows.sort(key=lambda r: r.num_ancillas)

    couplings_monotone = all(
        all(a.couplings >= b.couplings for a, b in zip(rows, rows[1:]))
        for rows in groups.values()
    )
    depth_violations = sorted(
        key
        for key, rows in groups.items()
        if not all(a.depth >= b.depth for a, b in zip(rows, rows[1:]))
    )

    # percent reductions, budget 29 vs baseline, p = 3, mean over seeds
    table = reduction_table(full_sweep)
    print("\nreduction table (problem, setting, couplings %, depth %)", *table, sep="\n")
    [(_, _, ham_c, ham_d)] = [row for row in table if row[:2] == ("hamilton_cycles", 2)]
    thresholds_ok = ham_c >= 25 and ham_d >= 15

    elapsed = time.perf_counter() - start
    ok = couplings_monotone and not depth_violations and thresholds_ok and elapsed < 600
    _report(
        5,
        ok,
        f"couplings monotone={couplings_monotone}, depth monotone groups="
        f"{len(groups) - len(depth_violations)}/{len(groups)}, "
        f"largest cycle-cover setting reductions couplings={ham_c:.1f}% depth={ham_d:.1f}%",
    )


def test_criterion_6_diagonal_phase():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(2, 8)
        q = random_qubo(rng, n, density=rng.uniform(0.3, 0.8))
        gamma = rng.uniform(0.05, 1.5)
        layer = build_cost_layer(q, gamma)
        ref_bits = (0,) * n
        ref_amp = basis_phase(layer, ref_bits)
        ref_e = energy(q, ref_bits)
        for _ in range(16):
            m = rng.randrange(1 << n)
            bits = bits_from_index(m, n)
            amp = basis_phase(layer, bits)
            expected = exp(-1j * gamma * (energy(q, bits) - ref_e))
            worst = max(worst, abs(amp / ref_amp - expected))
    ok = worst < 1e-9
    _report(6, ok, f"cost-layer phase differences match -gamma*dH, worst error {worst:.2e}")


def test_criterion_7_factoring_scaling():
    def dense(n, seed):
        return random_qubo(random.Random(seed), n, density=1.0, lo=-3, hi=3)

    def best_time(n):
        q = dense(n, 1)
        z = default_z(q)
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            factor_out(q, n, z)
            dt = time.perf_counter() - t0
            best = dt if best is None or dt < best else best
        return best

    t50 = best_time(50)
    t100 = best_time(100)
    ratio = t100 / t50
    ok = ratio <= 10 and t100 < 30
    _report(7, ok, f"dense factoring t(50)={t50 * 1e3:.2f}ms t(100)={t100 * 1e3:.2f}ms ratio={ratio:.1f}x")
