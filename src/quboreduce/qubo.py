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
import numbers
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


class QuboMatrix:
    """Symmetric real QUBO matrix with sparse upper-triangular storage."""

    __slots__ = ("n", "_offset", "_entries")

    def __init__(
        self,
        n: int,
        entries: Mapping[tuple[int, int], float] | Iterable[tuple[tuple[int, int], float]] | None = None,
        offset: float = 0,
    ):
        if n < 1:
            raise ParameterError(f"qubit count must be positive, got {n}")
        self.n = n
        self.offset = offset
        self._entries: dict[tuple[int, int], float] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for (i, j), value in items:
                self[i, j] = value

    @property
    def offset(self) -> float:
        return self._offset

    @offset.setter
    def offset(self, value: float) -> None:
        _check_number("offset", value)
        if not _finite(value):
            raise ParameterError("offset must be finite")
        self._offset = value + 0  # -0.0 + 0 is 0.0: a zero offset has no sign

    def _key(self, i: int, j: int) -> tuple[int, int]:
        if i > j:
            i, j = j, i
        if i < 0 or j >= self.n:
            raise _out_of_range(i, j, self.n)
        return (i, j)

    def __setitem__(self, key: tuple[int, int], value: float) -> None:
        k = self._key(*key)
        # First, as False == 0 would delete the entry and a str has no float
        # value; an int or float skips it, as formatting the label is slow.
        if type(value) is not int and type(value) is not float:
            _check_number(f"coefficient at {k}", value)
        self._write(k, value)

    def _write(self, k: tuple[int, int], value: float) -> None:
        """Store ``value`` at ``k``, a pair already normalised and in range:
        a zero deletes the entry, a non-finite value is refused."""
        if value == 0:
            self._entries.pop(k, None)
        elif _finite(value):
            self._entries[k] = value
        else:
            raise ParameterError(f"non-finite coefficient at {k}")

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

    def dumps(self) -> str:
        entries = [[i, j, v] for (i, j), v in self.entries()]
        return json.dumps({"n": self.n, "offset": self.offset, "entries": entries})

    @classmethod
    def loads(cls, text: str) -> "QuboMatrix":
        data = json.loads(text, object_pairs_hook=_unique_keys)
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
        # Every pair read, zero or not, so that a zero entry counts as a duplicate too.
        seen = set()
        for item in raw:
            if type(item) is not list or len(item) != 3:
                raise ParameterError(f"malformed entry {item!r}")
            i, j, v = item
            # json.loads yields exact types, and true/false load as bool, not int.
            if type(i) is not int:
                _check_json("entry index", i, int)
            if type(j) is not int:
                _check_json("entry index", j, int)
            if type(v) is not int and type(v) is not float:
                _check_json("coefficient", v, (int, float))
            if i > j:
                raise ParameterError(f"entry ({i}, {j}) violates i <= j")
            k = (i, j)
            if k in seen:
                raise ParameterError(f"duplicate entry for pair ({i}, {j})")
            seen.add(k)
            if i < 0 or j >= n:
                raise _out_of_range(i, j, n)
            q._write(k, v)
        return q


def _finite(value) -> bool:
    # An int too large for a float (say 10**400) has no float value at all.
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _out_of_range(i: int, j: int, n: int) -> ParameterError:
    return ParameterError(f"index pair ({i}, {j}) out of range for n={n}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads alone keeps the last of a repeated key's values.
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParameterError(f'duplicate key "{key}"')
        data[key] = value
    return data


def _check_json(what: str, value, kinds: type | tuple[type, ...]) -> None:
    # JSON true/false load as bool, a subclass of int; neither is a number here.
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = "an integer" if kinds is int else "a number"
        raise ParameterError(f"{what} must be {expected}, got {value!r}")


def _check_number(what: str, value) -> None:
    # A bool would be written to JSON as true/false, which the loaders refuse;
    # a str or None has no float value for _finite to test.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{what} must be a number, got {value!r}")


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
    (i, j) order, as :func:`energy` adds them.

    A float sum that overflows raises ``CapacityError``; the int64 bound and
    the exact float sums keep the doubling fill's sums finite.  The array is
    the single block of :func:`_energy_blocks` with ``w = n``.
    """
    [(_, energies)] = _energy_blocks(q, q.n)
    return energies


def _energy_blocks(q: QuboMatrix, w: int, narrow: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """The energies of :func:`all_energies` as 2^(n-w) blocks of 2^w, each
    yielded as ``(h, block)``: block h holds the assignments whose bits
    w..n-1 read h, and is bitwise the slice ``[h * 2^w, (h + 1) * 2^w)`` of
    that array.  The guard and the int64 bound are checked at the call,
    before any array exists.  A block is overwritten once the next one is
    drawn.

    Where doubling fills the array, it fills block 0, and the walk visits
    the other high assignments in Gray-code order: setting or clearing high
    bit k adds or subtracts k's linear term over the low bits and k's
    couplings to the other high bits that are set.  Each partial result is
    a signed sum of stored values, exact in any order.  The walk holds the
    block and the n - w linear terms, (n - w + 1) * 2^w entries.  Every
    other float matrix fills each block in (i, j) order as
    :func:`all_energies` does, adding a coefficient whose high bits are all
    set to its view of the low bits.

    With ``narrow`` an integral matrix walks in the smallest of int8 to
    int64 that holds +-(|offset| + sum |Q[i,j]|), so it moves fewer bytes;
    a narrow block, widened, is the same slice of :func:`all_energies`.
    Float matrices walk in float64 either way: verify_equivalence hands an
    exactly-summing float pair over as its integral multiple.
    """
    if q.n > ENUMERATION_GUARD:
        raise CapacityError(f"n={q.n} exceeds enumeration guard {ENUMERATION_GUARD}")
    if q.is_integral:
        total = abs(q.offset) + sum(abs(v) for v in q._entries.values())
        if total >= _INT_ENERGY_BOUND:
            raise CapacityError(f"|offset| + sum |Q[i,j]| = {total} reaches the int64 enumeration bound 2**62")
        # A signed type holds one more negative value than positive ones, so
        # the type of -1 - total is the narrowest that holds +total too.
        return _walked_blocks(q, w, np.min_scalar_type(-1 - total) if narrow else np.int64)
    return _walked_blocks(q, w, np.float64) if _sums_exact(q) else _in_order_blocks(q, w)


def _dyadic(q: QuboMatrix) -> tuple[list[tuple[int, int]], int]:
    """The offset and the coefficients, in storage order, as ratios m/d of
    the float64 numbers the energy array adds, each d a power of two, and D
    the largest d.  An int is taken as (v, 1): float(v) rounds only past
    2**53, where no sum test of these ratios passes either way."""
    ratios = [(v, 1) if isinstance(v, int) else float(v).as_integer_ratio() for v in (q.offset, *q._entries.values())]
    return ratios, max(d for _, d in ratios)


def _sums_exact(q: QuboMatrix) -> bool:
    """True when every sum of the offset and any coefficients is exact in
    float64, whatever the order of the additions: with :func:`_dyadic`'s
    ratios m/d and D, sum |m|*(D/d) < 2**53."""
    ratios, scale = _dyadic(q)
    return sum(abs(m) * (scale // d) for m, d in ratios) < _FLOAT_EXACT_BOUND


def _walked_blocks(q: QuboMatrix, w: int, dtype) -> Iterator[tuple[int, np.ndarray]]:
    entries = q._entries
    # One allocation for the block and the terms: numpy asks for huge pages
    # from 4 MB up, which spares most page faults of the fresh memory.
    block, *terms = np.empty((q.n - w + 1, 1 << w), dtype=dtype)
    _fill_by_doubling(q, block)
    yield 0, block
    for k, term in enumerate(terms):
        _linear_term(entries, w + k, term)
    # Each high bit's couplings to the other high bits, as (bit, value).
    links = [[] for _ in terms]
    for (i, j), v in entries.items():
        if w <= i < j:
            links[i - w].append((j - w, v))
            links[j - w].append((i - w, v))
    h = 0
    for g in range(1, 1 << len(terms)):
        k = (g & -g).bit_length() - 1
        h ^= 1 << k
        step = np.add if h >> k & 1 else np.subtract
        step(block, terms[k], out=block)
        shared = [v for b, v in links[k] if h >> b & 1]
        if shared:
            step(block, sum(shared), out=block)
        yield h, block


def _fill_by_doubling(q: QuboMatrix, energies: np.ndarray) -> None:
    energies[0] = q.offset
    for k in range(energies.size.bit_length() - 1):
        half = 1 << k
        term = energies[half : 2 * half]
        _linear_term(q._entries, k, term)
        term += energies[:half]


def _linear_term(entries: dict, k: int, term: np.ndarray) -> None:
    """Fill ``term`` with bit k's linear term ``Q[k,k] + sum_b x_b Q[b,k]``
    under every assignment of the bits b below log2(len(term)): ``Q[k,k]``,
    doubled once per bit b by adding ``Q[b,k]``, or copied when that pair is
    not stored."""
    term[0] = entries.get((k, k), 0)
    for b in range(term.size.bit_length() - 1):
        low = term[: 1 << b]
        v = entries.get((b, k))
        if v is None:
            term[1 << b : 2 << b] = low
        else:
            np.add(low, v, out=term[1 << b : 2 << b])


def _in_order_blocks(q: QuboMatrix, w: int) -> Iterator[tuple[int, np.ndarray]]:
    # Per coefficient: the high bits it needs set, and its view of the block.
    steps = []
    for (i, j), v in q.entries():
        high = sum(1 << (k - w) for k in {i, j} if k >= w)
        steps.append((high, _grid_index(w, ((k, 1) for k in (i, j) if k < w)), v))
    energies = np.empty(1 << w, dtype=np.float64)
    grid = energies.reshape((2,) * w)
    for h in range(1 << (q.n - w)):
        grid[...] = q.offset
        try:
            with np.errstate(over="raise"):
                for high, index, v in steps:
                    if h & high == high:
                        grid[index] += v
        except FloatingPointError as exc:
            raise CapacityError("an energy of this QUBO overflows float64") from exc
        yield h, energies


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
    energies are computed and sorted here; entries are built as read.

    Integral energies whose max - min is below 2**16 sort as uint8 or uint16
    keys ``energy - min``, written straight into the key array, which numpy's
    stable sort orders by radix.  The shift is exact and keeps the order, so
    the permutation is the one a stable sort of the int64 energies gives.
    At 24 qubits that takes 0.5 s instead of 2.4 s but about 96 MB more peak
    memory, for the radix sort's index buffer and the keys.  Float energies
    and wider spans sort as they are.
    """
    energies = all_energies(q)
    keys = energies
    if energies.dtype == np.int64:
        low = energies.min()
        span = int(energies.max()) - int(low)
        if span < 2**16:
            keys = np.empty(len(energies), dtype=np.min_scalar_type(span))
            np.subtract(energies, low, out=keys, casting="unsafe")
    return Spectrum(q.n, energies, np.argsort(keys, kind="stable"))

