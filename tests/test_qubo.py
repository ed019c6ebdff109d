import dataclasses
import json
import random
import re
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
    sample_graph,
    spectrum,
)
from quboreduce import factoring, qubo
from quboreduce.factoring import FactoringReport, FactoringStep, is_conflicting, verify_equivalence
from quboreduce.qubo import ENUMERATION_GUARD, all_energies

from conftest import (
    assert_bitwise_reference,
    bits_from_index,
    min_energy_over_ancillas,
    random_float_qubo,
    random_qubo,
    reference_all_energies,
    reference_spectrum,
)

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

    @pytest.mark.parametrize("entries, offset", [
        ({(0, 0): True}, 0), ({(0, 1): False}, 0), ({}, True), ({}, False),
    ], ids=["true-coefficient", "false-coefficient", "true-offset", "false-offset"])
    def test_rejects_bools(self, entries, offset):
        # dumps would write them as true/false, which loads refuses.
        with pytest.raises(ParameterError, match="must be a number"):
            QuboMatrix(2, entries, offset=offset)
        q = QuboMatrix(2)
        with pytest.raises(ParameterError, match="must be a number"):
            q[1, 0] = True
        assert len(q) == 0

    @pytest.mark.parametrize("value", ["1", None, b"1", 1j, [1]], ids=["str", "none", "bytes", "complex", "list"])
    def test_rejects_non_numbers(self, value):
        # math.isfinite alone would raise a bare TypeError for each of these.
        with pytest.raises(ParameterError, match=f"^offset must be a number, got {re.escape(repr(value))}$"):
            QuboMatrix(2, offset=value)
        with pytest.raises(ParameterError, match=f"^coefficient at \\(0, 1\\) must be a number, got {re.escape(repr(value))}$"):
            QuboMatrix(2, {(0, 1): value})
        q = QuboMatrix(2, {(0, 0): 1}, offset=2)
        with pytest.raises(ParameterError, match=f"^offset must be a number, got {re.escape(repr(value))}$"):
            q.offset = value
        with pytest.raises(ParameterError, match="must be a number"):
            q[1, 0] = value
        assert q == QuboMatrix(2, {(0, 0): 1}, offset=2)

    def test_accepts_numpy_numbers(self):
        q = QuboMatrix(2, {(0, 0): np.int64(3), (0, 1): np.float32(0.5)}, offset=np.float64(0.25))
        assert q[0, 0] == 3 and q[0, 1] == 0.5 and q.offset == 0.25

    def test_rejects_out_of_range(self):
        q = QuboMatrix(2)
        with pytest.raises(ParameterError):
            q[0, 2] = 1

    def test_integer_coefficients_stay_exact(self):
        q = QuboMatrix(2, {(0, 0): -1, (0, 1): 3})
        assert q.is_integral
        assert isinstance(energy(q, [1, 1]), int)

    def test_zero_offset_is_stored_without_a_sign(self):
        # A zero offset is +0, as a zero coefficient is not stored; an int 0
        # stays an int.
        q = QuboMatrix(2, offset=-0.0)
        assert repr(q.offset) == "0.0" and not np.signbit(q.offset)
        assert '"offset": 0.0' in q.dumps()
        loaded = QuboMatrix.loads('{"n": 2, "offset": -0.0, "entries": [[0, 1, 1.5]]}')
        assert repr(loaded.offset) == "0.0"
        assert loaded.dumps() == '{"n": 2, "offset": 0.0, "entries": [[0, 1, 1.5]]}'
        assert repr(QuboMatrix(2, offset=0).offset) == "0"
        assert repr(q.copy(3).offset) == "0.0"

    def test_offset_assignment_keeps_the_constructor_rules(self):
        # A -0.0 offset would give -0.0 energies, a NaN would reach
        # _sums_exact, and True would dump as true, which loads refuses.
        q = QuboMatrix(2, {(0, 0): 1.5})
        q.offset = -0.0
        assert repr(q.offset) == "0.0"
        assert not np.signbit(all_energies(q)).any()
        for value in (float("nan"), float("-inf"), 10**400):
            with pytest.raises(ParameterError, match="^offset must be finite$"):
                q.offset = value
        for value in (True, False):
            with pytest.raises(ParameterError, match="^offset must be a number, got "):
                q.offset = value
        assert repr(q.offset) == "0.0"
        q.offset = 3
        assert repr(q.offset) == "3" and q == QuboMatrix.loads(q.dumps())
        q.offset = -2.25
        assert all_energies(q).tolist() == [-2.25, -0.75, -2.25, -0.75]

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
        assert [sum(b << i for i, b in enumerate(e.bits)) for e in sp] == [0, 1, 2, 3]

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


def _spanning(n: int, span: int, offset: int) -> QuboMatrix:
    # Energies from offset (all zeros) to offset + span (all ones), with ties.
    entries = {(0, 0): span - 2, (1, 2): 1, (n - 1, n - 1): 1} if span else {}
    return QuboMatrix(n, entries, offset)


@pytest.fixture
def sorts(monkeypatch):
    # The key dtype of each np.argsort call, and the traced peak as it starts.
    calls = []
    argsort = np.argsort

    def recording_argsort(keys, kind):
        calls.append((keys.dtype, tracemalloc.get_traced_memory()[1]))
        return argsort(keys, kind=kind)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    return calls


class TestSpectrumSortKeys:
    # An integral spectrum sorts energy - min as uint8 or uint16 keys when the
    # span fits, else the int64 energies; the order must be the same.
    @pytest.mark.parametrize("q, key_type", [
        (_spanning(5, 0, 7), np.uint8),
        (_spanning(5, 2**8 - 1, -3), np.uint8),
        (_spanning(5, 2**8, 0), np.uint16),
        (_spanning(5, 2**16 - 1, -40_000), np.uint16),
        (_spanning(5, 2**16, 2), np.int64),
        (QuboMatrix(1, {(0, 0): -3}, -5), np.uint8),
        (QuboMatrix(1, {(0, 0): 2**16}, -1), np.int64),
        (QuboMatrix(1), np.uint8),
        (_spanning(6, 300, -(2**62 - 303)), np.uint16),
        (_spanning(6, 300, 2**62 - 303), np.uint16),
        (QuboMatrix(3, {(0, 0): 2**61, (1, 1): 2**61 - 4, (0, 1): 1, (2, 2): -1}, 1), np.int64),
        (QuboMatrix(3, {(0, 0): -(2**61), (1, 1): 4 - 2**61, (0, 1): -1, (2, 2): 1}, -1), np.int64),
    ], ids=["span0", "span255", "span256", "span65535", "span65536", "n1-negative", "n1-wide", "n1-zero",
            "near-min-int", "near-max-int", "just-under-bound", "just-under-bound-negated"])
    def test_order_matches_the_int64_sort(self, sorts, q, key_type):
        sp = spectrum(q)
        assert [k for k, _ in sorts] == [key_type]
        assert typed(sp) == typed(reference_spectrum(q))

    def test_float_signed_zero_ties_keep_their_order(self):
        # The offset -0.0 is stored as 0.0, so every zero energy reads 0.0,
        # and the ties break by assignment index.
        q = QuboMatrix(4, {(0, 0): 0.5, (1, 1): -0.5, (2, 3): 0.25, (2, 2): -0.25}, offset=-0.0)
        sp = spectrum(q)
        ref = reference_spectrum(q)
        assert typed(sp) == typed(ref)
        assert [(e.bits, repr(e.energy)) for e in sp] == [(e.bits, repr(e.energy)) for e in ref]
        zeros = [e for e in sp if e.energy == 0]
        assert {repr(e.energy) for e in zeros} == {"0.0"}
        indices = [sum(b << i for i, b in enumerate(e.bits)) for e in zeros]
        assert len(indices) > 1 and indices == sorted(indices)

    def test_builds_no_int64_keys(self, sorts):
        # Up to the sort, spectrum holds the int64 energies E (512 KiB at 16
        # qubits), the uint8 keys (E/8) and at most two cast buffers of 8192
        # int64 values each (E/4) that np.subtract writes through: 1.375 E.
        # An int64 temporary of energy - min, as (energies - low).astype(...)
        # makes, adds E more, so 1.5 E separates the two.  The peak is read
        # as the sort starts: the sort's own int64 result would hide it after.
        q = QuboMatrix(16, {(k % 16, (5 * k) % 16): k % 5 - 2 for k in range(40)})
        energies = all_energies(q)
        assert int(energies.max()) - int(energies.min()) < 2**8
        tracemalloc.start()
        try:
            spectrum(q)
        finally:
            tracemalloc.stop()
        [(key_type, peak)] = sorts
        assert key_type == np.uint8
        assert peak < energies.nbytes * 3 // 2


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
        # -0.0, stored as 0.0, gives an extension with no active coefficient
        # the energy 0.0.
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
        ({(1, 1): 1, (2, 2): 1, (1, 2): -2}, -0.0, "0.0"),
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
                assert [sum(b << i for i, b in enumerate(e.bits)) for e in spectrum(q)] == order.tolist()

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
        # result must still be the in-order reference, bit for bit.
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

    def test_exact_floats_with_a_negative_zero_offset_walk(self, monkeypatch):
        # The offset is stored as 0.0, so the walk's subtractions cannot
        # turn a -0.0 energy into +0.0, and every w < n walks.
        calls = []
        in_order = qubo._in_order_blocks
        monkeypatch.setattr(qubo, "_in_order_blocks", lambda *args: calls.append(args) or in_order(*args))
        q = QuboMatrix(4, {(0, 0): 0.5, (1, 2): -0.25, (2, 3): 0.75, (3, 3): -1.5}, offset=-0.0)
        assert qubo._sums_exact(q)
        expected = reference_all_energies(q)
        for w in range(1, q.n):
            for h, block in qubo._energy_blocks(q, w):
                assert np.array_equal(block, expected[h << w : (h + 1) << w])
                assert not np.signbit(block[block == 0]).any()
        assert calls == []

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

    @pytest.mark.parametrize("entries, offset", [
        ({(0, 0): 1e308, (0, 1): 1e308, (1, 1): 1e308}, 0),
        ({(0, 0): -1e308, (1, 1): -1e308}, 0),
        ({(1, 1): 1.7e308}, 1.7e308),
        # The last coefficient brings the sum back below 1.8e308, but the
        # (i, j)-order partial sum has overflowed already.
        ({(0, 0): 1e308, (0, 1): 1e308, (1, 1): -1e308}, 0.5),
    ], ids=["positive", "negative", "offset", "partial-sum"])
    def test_rejects_float_energy_that_overflows(self, entries, offset):
        q = QuboMatrix(2, entries, offset)
        assert not qubo._sums_exact(q)
        for enumerate_all in (all_energies, spectrum, lambda q: is_conflicting(q, 0, 1)):
            with pytest.raises(CapacityError, match="^an energy of this QUBO overflows float64$"):
                enumerate_all(q)
        with pytest.raises(CapacityError, match="overflows float64"):
            verify_equivalence(q, q, FactoringReport(2, 1, []))

    def test_float_energy_at_the_float64_maximum_is_kept(self):
        top = np.finfo(np.float64).max
        q = QuboMatrix(2, {(0, 0): top / 2, (1, 1): top / 2}, 0.0)
        assert all_energies(q).tolist() == [0.0, top / 2, top / 2, top]


def _narrow_blocks(q: QuboMatrix, w: int) -> list[tuple[int, np.ndarray]]:
    return [(h, block.copy()) for h, block in qubo._energy_blocks(q, w, narrow=True)]


def _at_total(total: int, sign: int) -> QuboMatrix:
    # |offset| + sum |Q[i,j]| = total, and x = (1, 1, 1) reaches sign * total.
    third = total // 3
    entries = {(0, 0): third, (1, 1): third, (0, 2): 1, (1, 2): 1, (2, 2): total - 2 * third - 3}
    return QuboMatrix(3, {k: sign * v for k, v in entries.items()}, sign)


class TestNarrowWalk:
    """verify_equivalence walks the factored energies in the narrowest
    exact dtype; each block, widened, is the slice of all_energies."""

    @pytest.mark.parametrize("total, dtype", [
        (2**7 - 1, np.int8), (2**7, np.int16),
        (2**15 - 1, np.int16), (2**15, np.int32),
        (2**31 - 1, np.int32), (2**31, np.int64),
    ])
    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    def test_integer_bounds(self, total, dtype, sign):
        q = _at_total(total, sign)
        expected = reference_all_energies(q)
        assert expected[-1] == sign * total
        for w in (1, 2, 3):
            for h, block in _narrow_blocks(q, w):
                assert block.dtype == dtype
                assert np.array_equal(block.astype(np.int64), expected[h << w : (h + 1) << w])
        assert all_energies(q).dtype == np.int64

    @pytest.mark.parametrize("q, walked", [
        # Numerators over the largest denominator, 4: 1 + (2**24 - 2), then 1 + (2**24 - 1).
        (QuboMatrix(2, {(0, 0): 0.25, (1, 1): (2**24 - 2) / 4}, 0.0), True),
        (QuboMatrix(2, {(0, 0): 0.25, (1, 1): (2**24 - 1) / 4}, 0.0), True),
        # Scales of 2**-126 and 2**-127, the edge of float32's normal range.
        (QuboMatrix(2, {(0, 0): 3 * 2.0**-126, (1, 1): -(2.0**-126)}, 0.0), True),
        (QuboMatrix(2, {(0, 0): 3 * 2.0**-127, (1, 1): -(2.0**-127)}, 0.0), True),
        (QuboMatrix(2, {(0, 0): 0.1, (1, 1): 0.25}, 0.0), False),
    ], ids=["units-2**24-1", "units-2**24", "scale-2**126", "scale-2**127", "in-order"])
    def test_float_bounds(self, q, walked, monkeypatch):
        # A narrow float walk is float64 at every unit count and scale, and a
        # matrix whose sums can round is filled in (i, j) order instead.
        calls = []
        in_order = qubo._in_order_blocks
        monkeypatch.setattr(qubo, "_in_order_blocks", lambda *args: calls.append(args) or in_order(*args))
        expected = reference_all_energies(q)
        for w in (1, 2):
            for h, block in _narrow_blocks(q, w):
                assert block.dtype == np.float64
                piece = expected[h << w : (h + 1) << w]
                assert np.array_equal(block, piece)
                assert np.array_equal(np.signbit(block), np.signbit(piece))
        assert bool(calls) != walked

    def test_exhaustive_workload_instances(self):
        # The benchmark's 21-qubit factored max_clique at seed 23 walks in
        # int16.  Its float twin verifies as its integral multiple, with
        # D = 1 the same matrix, so it walks in int16 too.
        q = max_clique_qubo(sample_graph(17, 60, 23), 3)
        q_mod, _ = factoring.factor_out(q, 4, factoring.default_z(q))
        expected = all_energies(q_mod)
        float_q, float_mod = factoring._integral_multiples(as_float(q), as_float(q_mod))
        assert float_q.is_integral and float_mod.is_integral
        assert (float_q, float_mod) == (q, q_mod)
        for m in (q_mod, float_mod):
            for h, block in qubo._energy_blocks(m, 17, narrow=True):
                assert block.dtype == np.int16
                assert np.array_equal(block, expected[h << 17 : (h + 1) << 17])


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
        with pytest.raises(ParameterError, match=r"^non-finite coefficient at \(0, 0\)$"):
            QuboMatrix.loads('{"n": 1, "offset": 0, "entries": [[0, 0, NaN]]}')

    @pytest.mark.parametrize("doc, message", [
        ('{"n": 2, "offset": 0, "entries": [[0, 1]]}', "malformed entry [0, 1]"),
        ('{"n": 2, "offset": 0, "entries": [7]}', "malformed entry 7"),
        ('{"n": 2, "offset": 0, "entries": [[true, 1, 2]]}', "entry index must be an integer, got True"),
        ('{"n": 2, "offset": 0, "entries": [[0.0, 1, 2]]}', "entry index must be an integer, got 0.0"),
        ('{"n": 2, "offset": 0, "entries": [[0, 1.0, 2]]}', "entry index must be an integer, got 1.0"),
        ('{"n": 2, "offset": 0, "entries": [[0, 1, "2"]]}', "coefficient must be a number, got '2'"),
        ('{"n": 2, "offset": 0, "entries": [[0, 1, false]]}', "coefficient must be a number, got False"),
        ('{"n": 2, "offset": 0, "entries": [[1, 0, 2]]}', "entry (1, 0) violates i <= j"),
        ('{"n": 2, "offset": 0, "entries": [[0, 1, 1], [0, 1, 2]]}', "duplicate entry for pair (0, 1)"),
        ('{"n": 2, "offset": 0, "entries": [[0, 1, 0], [0, 1, 2]]}', "duplicate entry for pair (0, 1)"),
        ('{"n": 2, "offset": 0, "entries": [[0, 2, 1]]}', "index pair (0, 2) out of range for n=2"),
        ('{"n": 2, "offset": 0, "entries": [[-1, 1, 1]]}', "index pair (-1, 1) out of range for n=2"),
        ('{"n": 1, "offset": 0, "entries": [[0, 0, NaN]]}', "non-finite coefficient at (0, 0)"),
        ('{"n": 1, "offset": 0, "entries": [[0, 0, Infinity]]}', "non-finite coefficient at (0, 0)"),
        ('{"n": 1, "offset": 0, "entries": [[0, 0, 1%s]]}' % ("0" * 400), "non-finite coefficient at (0, 0)"),
        ('{"n": 0, "offset": 0, "entries": []}', "qubit count must be positive, got 0"),
        ('{"n": 2.5, "offset": 0, "entries": []}', "qubit count n must be an integer, got 2.5"),
        ('{"n": 2, "offset": "0", "entries": []}', "offset must be a number, got '0'"),
        ('{"n": 2, "offset": NaN, "entries": []}', "offset must be finite"),
        ('{"n": 2, "offset": 0, "entries": {}}', "QUBO JSON entries must be a list"),
        ('{"n": 2, "offset": 0}', "malformed QUBO JSON: 'entries'"),
    ])
    def test_single_fault_messages(self, doc, message):
        with pytest.raises(ParameterError) as info:
            QuboMatrix.loads(doc)
        assert type(info.value) is ParameterError
        assert str(info.value) == message

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
