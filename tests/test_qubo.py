import dataclasses
import json
import random
import sys
import tracemalloc
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest

from quboreduce import (
    CapacityError,
    DimensionError,
    ParameterError,
    QuboMatrix,
    Spectrum,
    SpectrumEntry,
    coupling_count,
    energy,
    max_clique_qubo,
    min_energy_over_ancillas,
    sample_graph,
    spectrum,
)
from quboreduce import factoring, qubo
from quboreduce.factoring import FactoringReport, FactoringStep, is_conflicting, verify_equivalence
from quboreduce.qubo import ENUMERATION_GUARD, all_energies, bits_from_index, index_from_bits

from conftest import assert_bitwise_reference, random_float_qubo, random_qubo, reference_all_energies, reference_spectrum

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import as_float  # noqa: E402


def dense_energy(q: QuboMatrix, x) -> float:
    """Independent oracle: dense upper-triangular matrix product."""
    m = np.zeros((q.n, q.n))
    for (i, j), v in q.entries():
        m[i, j] = v
    v = np.array(x)
    return float(v @ m @ v) + q.offset


class TestQuboMatrix:
    def test_normalizes_lower_triangular_writes(self):
        q = QuboMatrix(3)
        q[2, 0] = 5
        assert q[0, 2] == 5
        assert list(q.entries()) == [((0, 2), 5)]

    def test_zero_write_deletes(self):
        q = QuboMatrix(2, {(0, 1): 4})
        q[0, 1] = 0
        assert len(q) == 0
        assert q[0, 1] == 0

    def test_rejects_non_finite(self):
        q = QuboMatrix(2)
        with pytest.raises(ParameterError):
            q[0, 1] = float("inf")

    def test_rejects_integer_without_float_value(self):
        q = QuboMatrix(2)
        with pytest.raises(ParameterError):
            q[0, 1] = 10**400
        with pytest.raises(ParameterError):
            QuboMatrix(2, offset=-(10**400))
        q[0, 1] = 10**300  # large, but a float exists
        assert q[0, 1] == 10**300

    def test_rejects_out_of_range(self):
        q = QuboMatrix(2)
        with pytest.raises(ParameterError):
            q[0, 2] = 1

    def test_integer_coefficients_stay_exact(self):
        q = QuboMatrix(2, {(0, 0): -1, (0, 1): 3})
        assert q.is_integral
        assert isinstance(energy(q, [1, 1]), int)

    def test_copy_enlarges(self):
        q = QuboMatrix(2, {(0, 1): 1})
        big = q.copy(4)
        assert big.n == 4
        assert big[0, 1] == 1
        with pytest.raises(ParameterError):
            q.copy(1)


class TestEnergy:
    def test_all_zeros(self, demo_qubo):
        assert energy(demo_qubo, [0] * 6) == 0

    def test_single_bit(self, demo_qubo):
        assert energy(demo_qubo, [0, 1, 0, 0, 0, 0]) == -1

    def test_coupled_pair(self, demo_qubo):
        # -1 - 1 + 3 from the two diagonals plus one penalty coupling
        assert energy(demo_qubo, [0, 1, 0, 0, 1, 0]) == 1

    def test_length_mismatch(self, demo_qubo):
        with pytest.raises(DimensionError):
            energy(demo_qubo, [0, 1])

    def test_matches_dense_oracle_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 12)
            q = random_qubo(rng, n)
            for _ in range(20):
                x = [rng.randint(0, 1) for _ in range(n)]
                assert energy(q, x) == dense_energy(q, x)


class TestCouplingCount:
    def test_demo_instance(self, demo_qubo):
        assert coupling_count(demo_qubo) == 9

    def test_demo_factored(self, demo_factored):
        assert coupling_count(demo_factored) == 8

    def test_zero_matrix(self):
        assert coupling_count(QuboMatrix(5)) == 0

    def test_invariant_under_index_order(self):
        a = QuboMatrix(3, {(0, 2): 1, (1, 2): 2})
        b = QuboMatrix(3)
        b[2, 0] = 1
        b[2, 1] = 2
        assert coupling_count(a) == coupling_count(b) == 2


class TestSpectrum:
    def test_single_qubit(self):
        sp = spectrum(QuboMatrix(1, {(0, 0): -1}))
        assert [(e.bits, e.energy) for e in sp] == [((1,), -1), ((0,), 0)]

    def test_demo_instance(self, demo_qubo):
        sp = spectrum(demo_qubo)
        assert len(sp) == 64
        assert sp[0].energy == -3
        assert sp[0].bits == (1, 0, 1, 0, 0, 1)

    def test_first_entry_bounds_all_zeros(self):
        rng = random.Random(3)
        for _ in range(10):
            q = random_qubo(rng, rng.randint(1, 8))
            sp = spectrum(q)
            assert sp[0].energy <= energy(q, [0] * q.n)

    def test_is_permutation_of_all_energies(self):
        rng = random.Random(5)
        for _ in range(10):
            q = random_qubo(rng, rng.randint(1, 10))
            sp = spectrum(q)
            expected = sorted(energy(q, bits_from_index(m, q.n)) for m in range(1 << q.n))
            assert [e.energy for e in sp] == expected

    def test_ties_sorted_by_assignment_index(self):
        q = QuboMatrix(2)  # all energies zero
        sp = spectrum(q)
        assert [index_from_bits(e.bits) for e in sp] == [0, 1, 2, 3]

    def test_guard(self):
        with pytest.raises(CapacityError):
            spectrum(QuboMatrix(30))


def typed(entries) -> tuple:
    # 3 == 3.0 and np.int64(1) == 1: compare the types too.
    entries = list(entries)
    return (
        entries,
        {type(e) for e in entries},
        {type(e.bits) for e in entries},
        {type(b) for e in entries for b in e.bits},
        {type(e.energy) for e in entries},
    )


class TestSpectrumMatchesReference:
    @pytest.mark.parametrize("chunk", [1, 3, qubo._SPECTRUM_CHUNK], ids=lambda c: f"chunk{c}")
    def test_random_integer_and_float_qubos(self, monkeypatch, chunk):
        monkeypatch.setattr(qubo, "_SPECTRUM_CHUNK", chunk)
        rng = random.Random(11)
        for t in range(40):
            n = rng.randint(1, 10)
            q = random_float_qubo(rng, n) if t % 2 else random_qubo(rng, n)
            q.offset = q.offset if t % 2 else rng.randint(-3, 3)
            sp = spectrum(q)
            ref = reference_spectrum(q)
            assert len(sp) == len(ref) == 1 << n
            assert typed(sp) == typed(ref), t

    def test_exhaustive_workload_max_clique(self):
        # The 17-qubit base instance of the benchmark's exhaustive workload at
        # seed 23, with integer and with float coefficients.
        q = max_clique_qubo(sample_graph(17, 60, 23), 3)
        floated = QuboMatrix(q.n, ((k, float(v)) for k, v in q.entries()), float(q.offset))
        for m in (q, floated):
            assert typed(spectrum(m)) == typed(reference_spectrum(m))

    def test_indexing_and_slicing_across_chunks(self, monkeypatch):
        monkeypatch.setattr(qubo, "_SPECTRUM_CHUNK", 5)
        q = random_float_qubo(random.Random(2), 6)
        sp = spectrum(q)
        ref = reference_spectrum(q)
        assert isinstance(sp, Sequence) and isinstance(sp, Spectrum)
        assert len(sp) == 64
        for k in [0, 4, 5, 9, 10, 63, -1, -5, -6, -64, np.int64(7)]:
            assert typed([sp[k]]) == typed([ref[k]]), k
        for key in [slice(None), slice(3, 12), slice(4, 6), slice(-7, None), slice(None, None, -1),
                    slice(60, 2, -3), slice(1, 64, 7), slice(70, 80), slice(10, 3)]:
            assert typed(sp[key]) == typed(ref[key]), key
        for k in [64, -65, 10**6]:
            with pytest.raises(IndexError):
                sp[k]
        with pytest.raises(TypeError):
            sp["0"]
        with pytest.raises(TypeError):
            sp[1.0]
        # A sequence, not a one-shot iterator.
        assert list(sp) == list(sp) == ref
        assert list(reversed(sp)) == ref[::-1]
        assert ref[17] in sp and sp.index(ref[17]) == 17

    def test_read_only_entries(self):
        sp = spectrum(QuboMatrix(2, {(0, 1): 1}))
        entry = sp[0]
        assert hash(entry) == hash(SpectrumEntry((0, 0), 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.energy = 5
        with pytest.raises(TypeError):
            sp[0] = entry
        assert [f.name for f in dataclasses.fields(SpectrumEntry)] == ["bits", "energy"]


class TestMinEnergyOverAncillas:
    def test_no_ancillas_reduces_to_energy(self, demo_qubo):
        rng = random.Random(0)
        for _ in range(10):
            x = [rng.randint(0, 1) for _ in range(6)]
            assert min_energy_over_ancillas(demo_qubo, 6, x) == energy(demo_qubo, x)

    def test_single_bit_with_ancilla(self, demo_factored):
        # best ancilla value 1: 2 + 3 - 6 = -1
        assert min_energy_over_ancillas(demo_factored, 6, [0, 1, 0, 0, 0, 0]) == -1

    def test_all_zeros_with_ancilla(self, demo_factored):
        assert min_energy_over_ancillas(demo_factored, 6, [0] * 6) == 0

    def test_guard(self):
        q = QuboMatrix(30)
        with pytest.raises(CapacityError):
            min_energy_over_ancillas(q, 2, [0, 0])

    def test_matches_one_energy_call_per_extension(self):
        # Values and types: ints past int64 stay exact ints, and an offset of
        # -0.0 survives an extension with no active coefficient.
        rng = random.Random(23)
        values = (
            lambda: rng.randint(-5, 5),
            lambda: rng.uniform(-5, 5),
            lambda: rng.choice((rng.randint(-3, 3), rng.randint(-12, 12) / 4, 0.1)),
            lambda: rng.choice((-1, 1)) * rng.randint(2**62, 2**70),
        )
        for t in range(400):
            value = values[t % len(values)]
            n = rng.randint(1, 9)
            base_n = rng.randint(0, n)
            q_mod = QuboMatrix(n, offset=rng.choice((0, -0.0, 0.0, value())))
            for _ in range(rng.randint(0, n * (n + 1) // 2)):
                q_mod[rng.randrange(n), rng.randrange(n)] = value()
            x = [rng.randint(0, 1) for _ in range(base_n)]
            got = min_energy_over_ancillas(q_mod, base_n, x)
            expected = reference_min_energy_over_ancillas(q_mod, base_n, x)
            assert (type(got), repr(got)) == (type(expected), repr(expected)), t

    @pytest.mark.parametrize("entries, offset, best", [
        ({(1, 1): 1, (2, 2): 1, (1, 2): -2}, -0.0, "-0.0"),
        ({(1, 1): 1.5, (2, 2): 1, (1, 2): -2.5}, 0, "0"),
    ], ids=["-0.0-before-0.0", "0-before-0.0"])
    def test_first_of_equal_minima_wins(self, entries, offset, best):
        # Ancilla assignment 0 (no active coefficient) ties with 3 (0.0).
        q_mod = QuboMatrix(3, entries, offset)
        assert repr(min_energy_over_ancillas(q_mod, 1, [1])) == best
        assert repr(reference_min_energy_over_ancillas(q_mod, 1, [1])) == best

    def test_guard_counts_ancillas_only(self):
        q_mod = QuboMatrix(ENUMERATION_GUARD + 6, {(0, 0): -1, (0, 28): 2, (28, 29): -4, (29, 29): 1, (3, 29): 5})
        xs = ([1, 0, 0, 1] + [0] * 24, [0] * 28)
        assert [min_energy_over_ancillas(q_mod, 28, x) for x in xs] == [-1, -3]
        assert [reference_min_energy_over_ancillas(q_mod, 28, x) for x in xs] == [-1, -3]


def reference_min_energy_over_ancillas(q_mod: QuboMatrix, base_n: int, x) -> float:
    """min_energy_over_ancillas as one energy call per ancilla assignment."""
    num_anc = q_mod.n - base_n
    best = None
    for a in range(1 << num_anc):
        e = energy(q_mod, tuple(x) + bits_from_index(a, num_anc))
        if best is None or e < best:
            best = e
    return best


class TestAllEnergies:
    def test_matches_pointwise_evaluation(self):
        rng = random.Random(9)
        q = random_qubo(rng, 6)
        energies = all_energies(q)
        for m in range(64):
            assert energies[m] == energy(q, bits_from_index(m, 6))

    def test_integer_dtype_for_integral_matrices(self, demo_qubo):
        assert all_energies(demo_qubo).dtype == np.int64

    def test_matches_reference_bitwise(self):
        # Entries go in in random order, so float sums differ unless each
        # element adds the coefficients in the same (storage) order.
        rng = random.Random(17)
        for t in range(240):
            n = rng.randint(1, 12)
            floats = t % 2 == 1
            q = QuboMatrix(n, offset=rng.uniform(-3, 3) if floats else rng.randint(-3, 3))
            for _ in range(rng.randint(0, n * (n + 1))):
                i, j = rng.randrange(n), rng.randrange(n)
                q[i, j] = rng.uniform(-5, 5) if floats else rng.randint(-5, 5)
            assert q.is_integral != floats
            expected = reference_all_energies(q)
            energies = all_energies(q)
            assert energies.dtype == expected.dtype
            assert np.array_equal(energies, expected), t
            if n <= 10:
                order = np.lexsort((np.arange(expected.size), expected))
                assert [index_from_bits(e.bits) for e in spectrum(q)] == order.tolist()

    @pytest.mark.parametrize("value", [
        lambda rng: float(rng.randint(-9, 9)),
        lambda rng: rng.randint(-20, 20) / 4,
        lambda rng: rng.choice((2.5, 3.5, -2.5, -3.5)),
        lambda rng: rng.randint(-3, 3) * 5e-324,
        lambda rng: rng.choice((rng.randint(-5, 5), rng.randint(-8, 8) / 8)),
    ], ids=["integer-valued", "quarters", "2.5-3.5", "5e-324", "mixed"])
    @pytest.mark.parametrize("offset", [-0.0, 0.0, 0, 1.5])
    def test_exact_floats_match_reference_bitwise(self, value, offset):
        # These sums are exact, so all_energies may add them in any order; the
        # result must still be the in-order reference, down to -0.0 on the
        # assignments with no active coefficient.
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 9)
            q = QuboMatrix(n, offset=offset)
            for _ in range(rng.randint(0, n * (n + 1))):
                q[rng.randrange(n), rng.randrange(n)] = value(rng)
            assert_bitwise_reference(q)

    def test_float_max_clique_matches_reference_bitwise(self):
        q = as_float(max_clique_qubo(sample_graph(17, 60, 23), 3))
        assert qubo._sums_exact(q)
        assert_bitwise_reference(q)

    @pytest.mark.parametrize("entries, doubled", [
        ({(0, 0): 2.0**52, (1, 1): 2.0**52 - 3, (1, 2): 2.0, (2, 2): 1.0}, False),
        ({(0, 0): 2.0**51, (1, 1): 2.0**51 - 1.5, (1, 2): 0.5, (2, 2): 1.0}, False),
        ({(0, 0): 2.0**52, (1, 1): 2.0**52 - 4, (1, 2): 2.0, (2, 2): 1.0}, True),
    ], ids=["at-2**53", "halves-at-2**53", "below"])
    def test_float_sums_reaching_2_53_add_in_order(self, entries, doubled, monkeypatch):
        # The bound counts numerators over the largest denominator: 2**52 in
        # halves is 2**53 of them.
        calls = []
        fill = qubo._fill_by_doubling
        monkeypatch.setattr(qubo, "_fill_by_doubling", lambda *args: calls.append(fill(*args)))
        q = QuboMatrix(3, entries, offset=0.0)
        assert_bitwise_reference(q)
        assert bool(calls) == doubled

    @pytest.mark.parametrize("value", [lambda k: k % 7 - 3, lambda k: (k % 7 - 3) / 4, lambda k: 1 / (k + 3)],
                             ids=["int", "dyadic", "in-order"])
    def test_fills_no_second_array(self, value):
        n = 20
        q = QuboMatrix(n, {(k % n, (3 * k) % n): value(k) for k in range(40)})
        tracemalloc.start()
        try:
            energies = all_energies(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < energies.nbytes * 9 // 8

    @pytest.mark.parametrize("entries, offset", [
        ({(0, 0): 2**62, (1, 1): 2**62, (0, 1): 1}, 0),
        ({(0, 0): 10**29}, 0),
        ({(0, 0): -(2**61), (1, 1): -(2**61)}, 0),
        ({(0, 0): 1}, 2**62 - 1),
    ], ids=["above", "1e29", "negative-at", "offset-at"])
    def test_rejects_integer_sum_reaching_int64_bound(self, entries, offset):
        q = QuboMatrix(2, entries, offset)
        for enumerate_all in (all_energies, spectrum):
            with pytest.raises(CapacityError):
                enumerate_all(q)

    def test_just_under_int64_bound_is_exact(self):
        # |offset| + sum |Q[i,j]| = 2**62 - 1, and x = (1, 1, 0) reaches 2**62 - 2.
        q = QuboMatrix(3, {(0, 0): 2**61, (1, 1): 2**61 - 4, (0, 1): 1, (2, 2): -1}, offset=1)
        energies = all_energies(q)
        assert energies.dtype == np.int64
        assert energies.tolist() == [energy(q, bits_from_index(m, 3)) for m in range(8)]
        assert energies.max() == 2**62 - 2


def _above_guard_report():
    n = ENUMERATION_GUARD
    return QuboMatrix(n), QuboMatrix(n + 1), FactoringReport(n, 1, [FactoringStep(n, 0, 1, ())])


@pytest.mark.parametrize("call", [
    lambda: all_energies(QuboMatrix(ENUMERATION_GUARD + 1)),
    lambda: spectrum(QuboMatrix(ENUMERATION_GUARD + 1)),
    lambda: is_conflicting(QuboMatrix(ENUMERATION_GUARD + 1), 0, 1),
    lambda: verify_equivalence(*_above_guard_report()),
    lambda: min_energy_over_ancillas(QuboMatrix(ENUMERATION_GUARD + 1), 0, []),
], ids=["all_energies", "spectrum", "is_conflicting", "verify_equivalence", "min_energy_over_ancillas"])
def test_enumeration_guard_refuses_before_any_grid(call, monkeypatch):
    # With numpy and energy() unreachable, any enumeration work fails with
    # something other than CapacityError.
    monkeypatch.setattr(qubo, "np", None)
    monkeypatch.setattr(factoring, "np", None)
    monkeypatch.setattr(qubo, "energy", None)
    with pytest.raises(CapacityError, match=f"exceeds? enumeration guard {ENUMERATION_GUARD}$"):
        call()


class TestJsonFormat:
    def test_round_trip(self, demo_qubo):
        restored = QuboMatrix.loads(demo_qubo.dumps())
        assert restored == demo_qubo

    def test_entries_sorted(self, demo_qubo):
        data = json.loads(demo_qubo.dumps())
        pairs = [(i, j) for i, j, _ in data["entries"]]
        assert pairs == sorted(pairs)

    def test_rejects_duplicates(self):
        text = json.dumps({"n": 2, "offset": 0, "entries": [[0, 1, 1], [0, 1, 2]]})
        with pytest.raises(ParameterError):
            QuboMatrix.loads(text)

    def test_rejects_non_finite(self):
        with pytest.raises((ParameterError, ValueError)):
            QuboMatrix.from_json_dict({"n": 1, "offset": 0, "entries": [[0, 0, float("nan")]]})

    @pytest.mark.parametrize("doc", [
        '{"n": 1, "offset": 0, "entries": [[0, 0, 1%s]]}' % ("0" * 400),
        '{"n": 1, "offset": -1%s, "entries": []}' % ("0" * 400),
    ], ids=["coefficient", "offset"])
    def test_rejects_integer_without_float_value(self, doc):
        with pytest.raises(ParameterError):
            QuboMatrix.loads(doc)

    def test_rejects_lower_triangular(self):
        text = json.dumps({"n": 2, "offset": 0, "entries": [[1, 0, 1]]})
        with pytest.raises(ParameterError):
            QuboMatrix.loads(text)
