"""Sparse symmetric QUBO matrices and exhaustive energy evaluation.

A QUBO instance is ``minimize offset + sum_{i<=j} x_i x_j Q[i,j]`` over binary
vectors ``x``.  Coefficients are stored upper-triangular; writing to ``(j, i)``
with ``j > i`` is normalized to ``(i, j)``, and writing an exact zero deletes
the entry so that coupling counts always reflect the stored structure.

Indices are 0-based throughout.  Integer coefficients are kept as Python ints,
so integer-valued QUBOs evaluate with exact arithmetic.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

# Largest qubit count for which full 2^n enumeration is permitted.
ENUMERATION_GUARD = 24

# Integral matrices enumerate in int64.  Keeping |offset| + sum |Q[i,j]| below
# 2**62 bounds every energy, and every difference of two, inside int64.
_INT_ENERGY_BOUND = 2**62

# A float64 holds k * 2**-e exactly for every integer |k| < 2**53, so sums of
# dyadic numbers whose numerators over one 2**e stay below this never round.
_FLOAT_EXACT_BOUND = 2**53

# Comparison tolerance for QUBOs with non-integer coefficients.
FLOAT_TOL = 1e-9

# Spectrum entries are unpacked this many at a time, so reading them holds a
# few hundred kB of scratch arrays at any n.
_SPECTRUM_CHUNK = 2048


class DimensionError(ValueError):
    """Solution length does not match the matrix size."""


class CapacityError(ValueError):
    """Requested exhaustive enumeration exceeds the configured guard."""


class ParameterError(ValueError):
    """Invalid argument or malformed input data."""


Bits = Sequence[int]


def bits_from_index(m: int, n: int) -> tuple[int, ...]:
    """Unpack assignment index ``m`` into a bit tuple (bit i of m = x_i)."""
    return tuple((m >> i) & 1 for i in range(n))


def index_from_bits(bits: Bits) -> int:
    """Inverse of :func:`bits_from_index`."""
    m = 0
    for i, b in enumerate(bits):
        if b:
            m |= 1 << i
    return m


class QuboMatrix:
    """Symmetric real QUBO matrix with sparse upper-triangular storage."""

    __slots__ = ("n", "offset", "_entries")

    def __init__(
        self,
        n: int,
        entries: Mapping[tuple[int, int], float] | Iterable[tuple[tuple[int, int], float]] | None = None,
        offset: float = 0,
    ):
        if n < 1:
            raise ParameterError(f"qubit count must be positive, got {n}")
        if not _finite(offset):
            raise ParameterError("offset must be finite")
        self.n = n
        self.offset = offset
        self._entries: dict[tuple[int, int], float] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for (i, j), value in items:
                self[i, j] = value

    def _key(self, i: int, j: int) -> tuple[int, int]:
        if i > j:
            i, j = j, i
        if i < 0 or j >= self.n:
            raise ParameterError(f"index pair ({i}, {j}) out of range for n={self.n}")
        return (i, j)

    def __setitem__(self, key: tuple[int, int], value: float) -> None:
        k = self._key(*key)
        if value == 0:
            self._entries.pop(k, None)
            return
        if not _finite(value):
            raise ParameterError(f"non-finite coefficient at {k}")
        self._entries[k] = value

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self._entries.get(self._key(*key), 0)

    def entries(self) -> Iterator[tuple[tuple[int, int], float]]:
        """Stored (pair, coefficient) items, sorted by (i, j)."""
        return iter(sorted(self._entries.items(), key=operator.itemgetter(0)))

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuboMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.offset == other.offset
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"QuboMatrix(n={self.n}, entries={len(self._entries)}, offset={self.offset})"

    def copy(self, n: int) -> "QuboMatrix":
        """Copy enlarged to ``n`` qubits (trailing isolated qubits)."""
        if n < self.n:
            raise ParameterError("copy cannot shrink a matrix")
        out = QuboMatrix(n, offset=self.offset)
        out._entries = dict(self._entries)
        return out

    @property
    def is_integral(self) -> bool:
        """True when the offset and every coefficient are Python ints."""
        if not isinstance(self.offset, int):
            return False
        return all(isinstance(v, int) for v in self._entries.values())

    # -- JSON file format: {"n": int, "offset": number, "entries": [[i, j, v], ...]}

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "offset": self.offset,
            "entries": [[i, j, v] for (i, j), v in self.entries()],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuboMatrix":
        try:
            n = data["n"]
            offset = data["offset"]
            raw = data["entries"]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed QUBO JSON: {exc}") from exc
        _check_json("qubit count n", n, int)
        _check_json("offset", offset, (int, float))
        if not isinstance(raw, list):
            raise ParameterError("QUBO JSON entries must be a list")
        q = cls(n, offset=offset)
        seen = set()
        for item in raw:
            if not isinstance(item, list) or len(item) != 3:
                raise ParameterError(f"malformed entry {item!r}")
            i, j, v = item
            _check_json("entry index", i, int)
            _check_json("entry index", j, int)
            _check_json("coefficient", v, (int, float))
            if i > j:
                raise ParameterError(f"entry ({i}, {j}) violates i <= j")
            if (i, j) in seen:
                raise ParameterError(f"duplicate entry for pair ({i}, {j})")
            seen.add((i, j))
            q[i, j] = v
        return q

    @classmethod
    def loads(cls, text: str) -> "QuboMatrix":
        return cls.from_json_dict(json.loads(text))


def _finite(value) -> bool:
    # An int too large for a float (say 10**400) has no float value at all.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_json(what: str, value, kinds: type | tuple[type, ...]) -> None:
    # JSON true/false load as bool, a subclass of int; neither is a number here.
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "an integer" if kinds is int else "a number"
        raise ParameterError(f"{what} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class SpectrumEntry:
    bits: tuple[int, ...]
    energy: float


def energy(q: QuboMatrix, x: Bits) -> float:
    """Energy offset + sum_{i<=j} x_i x_j Q[i,j] of a binary assignment, the
    active coefficients added to the offset in (i, j) order."""
    if len(x) != q.n:
        raise DimensionError(f"solution length {len(x)} != n={q.n}")
    total = q.offset
    for (i, j), v in q.entries():
        if x[i] and x[j]:
            total += v
    return total


def coupling_count(q: QuboMatrix) -> int:
    """Number of stored off-diagonal entries."""
    return sum(1 for (i, j) in q._entries if i < j)


def _grid_index(n: int, fixed: Iterable[tuple[int, int]]) -> tuple:
    """Index into a ``(2,) * n`` grid setting bit k to b per (k, b), later pairs
    winning.  Bit k is axis n - 1 - k, so the flat index is the assignment."""
    index = [slice(None)] * n
    for k, b in fixed:
        index[n - 1 - k] = b
    return tuple(index)


def all_energies(q: QuboMatrix) -> np.ndarray:
    """Energies of all 2^n assignments, indexed so bit i of the index is x_i.

    Integer-valued QUBOs produce an int64 array (exact arithmetic), others a
    float64 array.  Both fill the flat result in place by bit doubling: for
    k = 0..n-1, slice ``[2^k, 2^(k+1))`` first receives bit k's linear term
    under every assignment of the lower bits -- ``Q[k,k]``, doubled once per
    lower bit b by adding ``Q[b,k]``, or copied when that pair is not
    stored -- and then adds the energies ``[0, 2^k)`` of those lower bits.
    That is O(2^n) work in about n^2/2 array operations.

    Doubling adds each energy's coefficients in another order than (i, j).
    It is used only where that cannot change a bit: for integral matrices,
    and for float matrices whose offset and coefficients are m/d with d a
    power of two and sum |m|*(D/d) < 2**53, D the largest d, so that every
    partial sum is exact.  Every other float matrix adds each coefficient,
    in (i, j) order, to the assignments with both of its bits set.  Either
    way each energy is bitwise the offset plus its active coefficients in
    (i, j) order, as :func:`energy` adds them.  That includes the sign of
    zero: an assignment with no active coefficient keeps the offset's zero,
    which is why each float term starts from -0.0; one whose active
    coefficients cancel reads +0.0.
    """
    if q.n > ENUMERATION_GUARD:
        raise CapacityError(f"n={q.n} exceeds enumeration guard {ENUMERATION_GUARD}")
    integral = q.is_integral
    if integral:
        total = abs(q.offset) + sum(abs(v) for v in q._entries.values())
        if total >= _INT_ENERGY_BOUND:
            raise CapacityError(f"|offset| + sum |Q[i,j]| = {total} reaches the int64 enumeration bound 2**62")
    energies = np.empty(1 << q.n, dtype=np.int64 if integral else np.float64)
    if integral or _sums_exact(q):
        _fill_by_doubling(q, energies, 0 if integral else -0.0)
    else:
        grid = energies.reshape((2,) * q.n)
        grid[...] = q.offset
        for (i, j), v in q.entries():
            grid[_grid_index(q.n, ((i, 1), (j, 1)))] += v
    return energies


def _sums_exact(q: QuboMatrix) -> bool:
    """True when every sum of the offset and any coefficients is exact in
    float64, whatever the order of the additions.  The values are taken as
    the float64 numbers the energy array adds, whose ratios m/d all have a
    power of two d."""
    ratios = [float(v).as_integer_ratio() for v in (q.offset, *q._entries.values())]
    scale = max(d for _, d in ratios)
    return sum(abs(m) * (scale // d) for m, d in ratios) < _FLOAT_EXACT_BOUND


def _fill_by_doubling(q: QuboMatrix, energies: np.ndarray, zero) -> None:
    entries = q._entries
    energies[0] = q.offset
    for k in range(q.n):
        half = 1 << k
        term = energies[half : 2 * half]
        term[0] = entries.get((k, k), zero)
        for b in range(k):
            low = term[: 1 << b]
            v = entries.get((b, k))
            if v is None:
                term[1 << b : 2 << b] = low
            else:
                np.add(low, v, out=term[1 << b : 2 << b])
        term += energies[:half]


class Spectrum(Sequence):
    """All 2^n assignments of a QUBO sorted by energy, ties by assignment
    index, as a read-only sequence of :class:`SpectrumEntry`.

    It holds the :func:`all_energies` array and its stable sort order, and
    unpacks entries from them a chunk at a time as they are read: bits as a
    tuple of ints, the energy as an int for an integral QUBO, else a float.
    """

    __slots__ = ("n", "_energies", "_order")

    def __init__(self, n: int, energies: np.ndarray, order: np.ndarray):
        self.n = n
        self._energies = energies
        self._order = order

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(self._entries(self._order[key]))
        [entry] = self._entries(self._order[[operator.index(key)]])
        return entry

    def __iter__(self) -> Iterator[SpectrumEntry]:
        return self._entries(self._order)

    def chunks(self) -> Iterator[tuple[np.ndarray, list]]:
        """The entries in order as successive (bits, energies) chunks: bits an
        (m, n) array of 0/1 with x_i in column i, energies a list of m
        Python numbers."""
        return self._unpack(self._order)

    def _unpack(self, order: np.ndarray) -> Iterator[tuple[np.ndarray, list]]:
        shifts = np.arange(self.n)
        for start in range(0, len(order), _SPECTRUM_CHUNK):
            idx = order[start : start + _SPECTRUM_CHUNK]
            yield (idx[:, None] >> shifts) & 1, self._energies[idx].tolist()

    def _entries(self, order: np.ndarray) -> Iterator[SpectrumEntry]:
        for bits, energies in self._unpack(order):
            yield from map(SpectrumEntry, map(tuple, bits.tolist()), energies)


def spectrum(q: QuboMatrix) -> Spectrum:
    """All 2^n assignments sorted by energy, ties by assignment index.  The
    energies are computed and sorted here; entries are built as read."""
    energies = all_energies(q)
    return Spectrum(q.n, energies, np.argsort(energies, kind="stable"))


def min_energy_over_ancillas(q_mod: QuboMatrix, base_n: int, x: Bits) -> float:
    """Best energy of ``x`` extended by every possible ancilla assignment.

    One grid over the ancilla bits holds each extension's energy as a Python
    number, adding the coefficients in (i, j) order, so the result is
    exactly :func:`energy` of the first best extension in ancilla index
    order (ints stay exact past int64).
    """
    if len(x) != base_n or base_n > q_mod.n:
        raise DimensionError(f"base length {len(x)} incompatible with base_n={base_n}, n={q_mod.n}")
    num_anc = q_mod.n - base_n
    if num_anc > ENUMERATION_GUARD:
        raise CapacityError(f"{num_anc} ancillas exceed enumeration guard {ENUMERATION_GUARD}")
    grid = np.full((2,) * num_anc, q_mod.offset, dtype=object)
    for (i, j), v in q_mod.entries():
        if (i < base_n and not x[i]) or (j < base_n and not x[j]):
            continue
        grid[_grid_index(num_anc, ((k - base_n, 1) for k in (i, j) if k >= base_n))] += v
    return min(grid.reshape(-1))
