"""Ancilla-based factoring of shared coupling structure in QUBO matrices.

Two coupled qubits whose joint activation is never energetically favorable
("conflicting") and that share identical nonzero couplings to at least three
other qubits can have that shared structure moved onto a single ancilla qubit.
A penalty of weight ``z`` constrains the ancilla to equal the OR of the pair,
so the energies of all valid assignments are preserved while the number of
couplings strictly decreases.

The conflict test here is the syntactic row-sum sufficient condition used by
the factoring loop; the exact semantic test (exhaustive, small n only) is
available separately as :func:`is_conflicting` for validation.
"""

from __future__ import annotations

import json
import operator
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain

import numpy as np

from .qubo import (
    CapacityError,
    FLOAT_TOL,
    ParameterError,
    QuboMatrix,
    _FLOAT_EXACT_BOUND,
    _check_json,
    _check_number,
    _dyadic,
    _energy_blocks,
    _finite,
    _grid_index,
    _out_of_range,
    _unique_keys,
    all_energies,
    coupling_count,
)


@dataclass(frozen=True)
class FactoringStep:
    ancilla: int
    i: int
    j: int
    syms: tuple[int, ...]


@dataclass
class FactoringReport:
    base_n: int
    z: float
    steps: list[FactoringStep] = field(default_factory=list)

    @property
    def final_n(self) -> int:
        return self.base_n + len(self.steps)

    @property
    def num_ancillas(self) -> int:
        return len(self.steps)

    def dumps(self) -> str:
        steps = [{"ancilla": s.ancilla, "i": s.i, "j": s.j, "syms": sorted(s.syms)} for s in self.steps]
        return json.dumps({"base_n": self.base_n, "final_n": self.final_n, "z": self.z, "steps": steps})

    @classmethod
    def loads(cls, text: str) -> "FactoringReport":
        data = json.loads(text, object_pairs_hook=_unique_keys)
        try:
            base_n, final_n, z, raw = data["base_n"], data["final_n"], data["z"], data["steps"]
            _check_json("base_n", base_n, int)
            if base_n < 1:
                raise ParameterError(f"base_n must be positive, got {base_n}")
            _check_json("final_n", final_n, int)
            _check_json("z", z, (int, float))
            _check_z(z)
            if not isinstance(raw, list) or not all(isinstance(s, dict) for s in raw):
                raise ParameterError("report steps must be a list of objects")
            if len(raw) != final_n - base_n:
                raise ParameterError(f"{len(raw)} steps do not take {base_n} qubits to {final_n}")
            steps = [FactoringStep(s["ancilla"], s["i"], s["j"], tuple(s["syms"])) for s in raw]
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed factoring report: {exc}") from exc
        for k, step in enumerate(steps):
            _check_step(base_n, k, step)
            for v in step.syms:
                _check_json(f"step {k} syms element", v, int)
            outside = all(0 <= v < step.ancilla and v not in (step.i, step.j) for v in step.syms)
            if len(step.syms) < 3 or len(set(step.syms)) != len(step.syms) or not outside:
                raise ParameterError(
                    f"step {k} syms {list(step.syms)} are not three or more distinct earlier qubits outside the pair"
                )
        return cls(base_n, z, steps)


def _check_step(base_n: int, k: int, step: FactoringStep) -> None:
    """Refuse step ``k`` of a report on ``base_n`` qubits unless the fields
    that :func:`verify_equivalence` indexes by are ints and in place."""
    for what in ("ancilla", "i", "j"):
        _check_json(f"step {k} {what}", getattr(step, what), int)
    if step.ancilla != base_n + k:
        raise ParameterError(f"step {k} ancilla must be {base_n + k}, got {step.ancilla}")
    if not (0 <= step.i < step.ancilla and 0 <= step.j < step.ancilla) or step.i == step.j:
        raise ParameterError(f"step {k} pair ({step.i}, {step.j}) is not two distinct earlier qubits")


# Rows per block in the searches, so that no temporary exceeds about 1 MB.
_BLOCK_BYTES = 1 << 20

# verify_equivalence reads the factored energies in blocks of 2^w, w at
# least the base size and at least this (unless the whole array is
# smaller), so a small base with many ancillas still makes few passes.
_VERIFY_BLOCK_BITS = 16


def _blocks(rows: int, width: int):
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def dense_mirror(q: QuboMatrix, num_ancillas: int, z) -> np.ndarray:
    """Dense symmetric copy of ``q`` with room for ``num_ancillas`` more qubits,
    the array that :func:`get_conflict_list` and :func:`get_most_sym_qubits`
    search; a step removes at least one coupling, so at most
    ``coupling_count(q)`` rows and columns are added.

    float64 does Python's own float arithmetic at any size, but holds ints
    exactly only up to 2**53.  When the int coefficients and the int cells an
    int ``z`` adds (at most 9|z| a step) could push a partial sum past that,
    the array holds the Python numbers themselves (dtype object).  An array
    that numpy cannot allocate raises CapacityError.
    """
    values = list(q._entries.values())
    room = min(num_ancillas, coupling_count(q))
    ints = sum(abs(v) for v in values if isinstance(v, int)) + (9 * abs(z) * room if isinstance(z, int) else 0)
    dtype = np.float64 if 2 * ints < 2**53 else object
    try:
        a = np.zeros((q.n + room, q.n + room), dtype=dtype)
    except (MemoryError, ValueError) as exc:  # ValueError: numpy's "array is too big"
        raise CapacityError(f"the dense mirror of {q.n + room} qubits cannot be allocated: {exc}") from exc
    if values:
        # Each cell is stored once, so the scatter needs no order.
        rows, cols = np.array(list(q._entries)).T
        a[rows, cols] = values
        a[cols, rows] = values
    return a


def get_conflict_list(a: np.ndarray) -> np.ndarray:
    """Coupled pairs (i, j) whose coupling exceeds the negative energy
    available to both rows: a[i,j] > -Z[i] - Z[j], as an (m, 2) array with
    i < j in ascending order.

    Z[i] sums the negative coefficients of row i of the symmetric ``a``,
    diagonal included, from row 0 down, the order the sparse entries run.
    """
    n = len(a)
    found = []
    # Near the float64 limit a row sum may overflow to -inf, as a Python float
    # sum does, so the pairs stay those the sparse search finds.
    with np.errstate(over="ignore"):
        # accumulate adds row by row, whatever the shape; sum may add pairwise.
        z_row = np.zeros(n, dtype=a.dtype)
        for rows in _blocks(n, n):
            z_row = np.add.accumulate(np.vstack((z_row, np.minimum(a[rows], 0))), axis=0)[-1]
        for rows in _blocks(n, n):
            block = a[rows]
            hit = (block != 0) & (block > -z_row[rows, None] - z_row)
            i, j = np.nonzero(np.triu(hit, rows.start + 1))
            found.append(np.stack((i + rows.start, j), axis=1))
    return np.concatenate(found) if found else np.empty((0, 2), dtype=np.intp)


def get_most_sym_qubits(a: np.ndarray, cl) -> FactoringStep:
    """The step onto ancilla ``len(a)`` for the pair from ``cl`` sharing
    identical nonzero couplings with the most other qubits, syms sorted.
    Ties go to the pair scanned last; an empty list yields the sentinel
    ``FactoringStep(len(a), 0, 1, ())``."""
    n = len(a)
    pairs = np.asarray(cl, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return FactoringStep(n, 0, 1, ())
    counts = np.empty(len(pairs), dtype=np.intp)
    for block in _blocks(len(pairs), n):
        i, j = pairs[block, 0], pairs[block, 1]
        row_i = a[i]
        shared = (row_i == a[j]) & (row_i != 0)
        # Off the diagonal only: column j of row i is their own coupling.
        at = np.arange(len(i))
        shared[at, i] = shared[at, j] = False
        counts[block] = shared.sum(axis=1)
    best = len(counts) - 1 - int(np.argmax(counts[::-1]))
    i, j = pairs[best].tolist()
    syms = np.nonzero((a[i] == a[j]) & (a[i] != 0))[0].tolist()
    return FactoringStep(n, i, j, tuple(k for k in syms if k not in (i, j)))


def _check_z(z) -> None:
    _check_number("penalty z", z)
    if not (_finite(z) and z > 0):
        raise ParameterError(f"penalty z must be positive and finite, got {z}")


def _step_possible(q: QuboMatrix) -> bool:
    """Whether some coupled pair has at least four couplings on each of its
    qubits: its own and three to shared qubits, the least a step takes."""
    couplings = [k for k in q._entries if k[0] != k[1]]
    degree = Counter(chain.from_iterable(couplings))
    return any(degree[i] >= 4 and degree[j] >= 4 for i, j in couplings)


def _pair(r: int, s: int) -> tuple[int, int]:
    return (r, s) if r <= s else (s, r)


def _step_cells(read, i: int, j: int, a: int, syms, z) -> list:
    """The ``((r, s), value)`` writes of the step factoring ``(i, j)`` onto
    ancilla ``a``, old cells read as ``read((r, s))``.  A cell that ``z``
    makes non-finite raises ParameterError, as writing it to a QuboMatrix
    would."""
    cells = [((i, i), read((i, i)) + z), ((j, j), read((j, j)) + z), ((a, a), z)]
    cells += [((i, a), -2 * z), ((j, a), -2 * z), ((i, j), read((i, j)) + 2 * z)]
    for (r, s), value in cells:
        if not _finite(value):
            raise ParameterError(f"non-finite coefficient at {_pair(r, s)}")
    for k in syms:
        cells += [((k, a), read((i, k))), ((i, k), 0), ((j, k), 0)]
    return cells


def enhance(q: QuboMatrix, pair: tuple[int, int], syms, z) -> QuboMatrix:
    """Append one ancilla qubit and move the shared couplings of ``pair`` onto
    it, adding the OR-consistency penalty of weight ``z``.

    Each index is range-checked once; the first pair read out of range is
    named as ``q[r, s]`` names it: ``(i, k)`` then ``(j, k)`` for each sym in
    turn, then ``(i, i)`` and ``(j, j)``.  The cells are read from the entry
    dict and written through the matrix's one write rule."""
    i, j = pair
    _check_z(z)
    if i == j:
        raise ParameterError(f"pair ({i}, {j}) is not two distinct qubits")
    syms = frozenset(syms)
    if i in syms or j in syms:
        raise ParameterError("syms must exclude the factored pair")
    n, entries = q.n, q._entries
    i_in, j_in = 0 <= i < n, 0 <= j < n
    for k in syms:
        if not (i_in and 0 <= k < n):
            raise _out_of_range(*_pair(i, k), n)
        v = entries.get(_pair(i, k), 0)
        if v == 0:
            raise ParameterError(f"qubit {k} does not share identical nonzero couplings")
        if not j_in:
            raise _out_of_range(*_pair(j, k), n)
        if v != entries.get(_pair(j, k), 0):
            raise ParameterError(f"qubit {k} does not share identical nonzero couplings")
    for r in (i, j):
        if not 0 <= r < n:
            raise _out_of_range(r, r, n)
    out = q.copy(n + 1)
    for (r, s), value in _step_cells(lambda rs: entries.get(_pair(*rs), 0), i, j, n, syms, z):
        out._write(_pair(r, s), value)
    return out


def default_z(q: QuboMatrix):
    """Sum of absolute values of all stored coefficients; always a safe
    penalty weight for energy-landscape preservation.  Added left to right,
    as ``sum`` did before Python 3.12, so z does not depend on the version."""
    return reduce(operator.add, (abs(v) for _, v in q.entries()), 0)


def _factoring_loop(q: QuboMatrix, num_ancillas: int, z, read=None) -> FactoringReport:
    """Run the factoring loop to its end and return its report.  No ``z``
    means :func:`default_z` of ``q``.

    The loop keeps only the dense mirror, writing each step's cells into both
    triangles.  ``read``, when given, is called with the mirror's leading
    ``(n, n)`` block once per trajectory matrix, before the next step
    overwrites it; it is not called when the loop builds no mirror (no
    budget, or no pair that could step)."""
    if num_ancillas < 0:
        raise ParameterError(f"ancilla budget must be non-negative, got {num_ancillas}")
    if z is None:
        z = default_z(q)
        if not z:
            raise ParameterError("the default z of a QUBO with no coefficients is 0, so a z must be given")
    _check_z(z)
    report = FactoringReport(q.n, z)
    if not num_ancillas or not _step_possible(q):
        return report  # no step to take: skip the mirror
    mirror = dense_mirror(q, num_ancillas, z)
    for n in range(q.n, q.n + num_ancillas + 1):
        a = mirror[:n, :n]
        if read is not None:
            read(a)
        if n == q.n + num_ancillas:
            break  # budget spent
        cl = get_conflict_list(a)
        if not len(cl):
            break
        step = get_most_sym_qubits(a, cl)
        if len(step.syms) < 3:
            break
        for (r, s), value in _step_cells(mirror.item, step.i, step.j, n, step.syms, z):
            mirror[r, s] = mirror[s, r] = value
        report.steps.append(step)
    return report


def _replayed(q: QuboMatrix, num_ancillas: int, z) -> tuple[FactoringReport, Iterator[QuboMatrix]]:
    """The factoring loop's report and its trajectory, replayed through
    :func:`enhance`, which checks each step's shared couplings again."""
    report = _factoring_loop(q, num_ancillas, z)
    return report, accumulate(report.steps, lambda m, s: enhance(m, (s.i, s.j), s.syms, report.z), initial=q)


def factoring_trajectory(
    q: QuboMatrix, num_ancillas: int, z=None
) -> tuple[list[QuboMatrix], FactoringReport]:
    """Repeatedly factor the largest shared structure until no eligible pair
    remains or the ancilla budget is exhausted.  trajectory[k] is the matrix
    after k ancillas.  No ``z`` means :func:`default_z` of ``q``."""
    report, trajectory = _replayed(q, num_ancillas, z)
    return list(trajectory), report


def factor_out(q: QuboMatrix, num_ancillas: int, z=None) -> tuple[QuboMatrix, FactoringReport]:
    """The last matrix of :func:`factoring_trajectory`, with its report."""
    report, trajectory = _replayed(q, num_ancillas, z)
    return deque(trajectory, maxlen=1)[0], report


def is_conflicting(q: QuboMatrix, i: int, j: int) -> bool:
    """Exact semantic conflict test by exhaustive enumeration: every
    assignment with both bits set is strictly worse than its three
    neighbors differing only on bits i and j."""
    if not (0 <= i < q.n and 0 <= j < q.n):
        raise _out_of_range(i, j, q.n)
    energies = all_energies(q).reshape((2,) * q.n)
    corners = ((1, 1), (0, 1), (1, 0), (0, 0))
    both, *others = (energies[_grid_index(q.n, ((i, a), (j, b)))] for a, b in corners)
    return bool((both > np.maximum.reduce(others)).all())


@dataclass(frozen=True)
class VerificationVerdict:
    valid_energies_preserved: bool
    invalid_energies_nondecreasing: bool
    minimum_preserved: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.valid_energies_preserved
            and self.invalid_energies_nondecreasing
            and self.minimum_preserved
        )


def _best_over_ancillas(blocks: Iterator[tuple[int, np.ndarray]], base_n: int) -> np.ndarray:
    """Each base assignment's least energy over the ancilla assignments,
    folded over the blocks.  The assignment index packs base bits low and
    ancilla bits high, so each block is whole rows of 2^base_n; a block of
    one row is folded as it is, with no copy.  A function, so that no view
    of the last block outlives the fold."""
    best = None
    for _, block in blocks:
        rows = block.reshape(-1, 1 << base_n)
        if best is None:
            best = rows.min(axis=0)
        else:
            np.minimum(best, rows[0] if len(rows) == 1 else rows.min(axis=0), out=best)
    return best


def _valid_assignments(base_n: int, steps: list[FactoringStep]) -> np.ndarray:
    """Whether each of the 2^base_n base assignments is valid: replaying the
    steps, each ancilla the OR of its pair, no factored pair is fully set.

    Each qubit is the OR of a set of base bits: a base qubit of itself, an
    ancilla of the union of its pair's sets.  A step on (i, j) is violated
    where some bit of S_i and some bit of S_j are set, and writes False
    there through :func:`_grid_index` views of the mask, so no other array
    of its size exists.  It splits "some bit of the smaller set is set" into the disjoint
    views of :func:`_some_bit_set`.  In each view P, the larger set's bits
    that P leaves free decide: if P sets one of them, all of P is invalid;
    if three or fewer, their own disjoint views within P are; if more, all
    of P but the view where all of them are clear, which is kept and written
    back.  A pair of base qubits takes one write of a quarter, and no step
    more than three writes per bit of its smaller set.
    """
    valid = np.ones(1 << base_n, dtype=bool)
    grid = valid.reshape((2,) * base_n)
    sets = [(k,) for k in range(base_n)]
    for step in steps:
        small, large = sorted((sets[step.i], sets[step.j]), key=len)
        for k, fixed in enumerate(_some_bit_set(small)):
            free = [c for c in large if c not in small[:k]]
            if small[k] in free:
                grid[_grid_index(base_n, fixed)] = False
            elif len(free) <= 3:
                for more in _some_bit_set(free):
                    grid[_grid_index(base_n, fixed + more)] = False
            else:
                clear = _grid_index(base_n, fixed + [(c, 0) for c in free])
                kept = grid[clear].copy()
                grid[_grid_index(base_n, fixed)] = False
                grid[clear] = kept
        sets.append(tuple(sorted(set(small) | set(large), reverse=True)))
    return valid


def _some_bit_set(bits) -> list[list[tuple[int, int]]]:
    """``(bit, value)`` fixes of disjoint views whose union is "some bit of
    ``bits`` is set": per bit, that bit set and the bits before it clear.
    Bits run highest first, so the larger views fix the outer axes."""
    return [[(c, 0) for c in bits[:k]] + [(b, 1)] for k, b in enumerate(bits)]


def _integral_multiples(q: QuboMatrix, q_mod: QuboMatrix) -> list[QuboMatrix] | None:
    """``D * q`` and ``D * q_mod`` as integral matrices, D the largest of
    both matrices' :func:`_dyadic` denominators, when FLOAT_TOL * D < 1 and
    each has sum |m|*(D/d) < 2**53; otherwise None."""
    (q_ratios, q_scale), (mod_ratios, mod_scale) = _dyadic(q), _dyadic(q_mod)
    scale = max(q_scale, mod_scale)
    multiples = []
    for m, ratios in ((q, q_ratios), (q_mod, mod_ratios)):
        offset, *values = (k * (scale // d) for k, d in ratios)
        if FLOAT_TOL * scale >= 1 or abs(offset) + sum(map(abs, values)) >= _FLOAT_EXACT_BOUND:
            return None
        multiple = QuboMatrix(m.n, offset=offset)
        multiple._entries = dict(zip(m._entries, values))
        multiples.append(multiple)
    return multiples


def verify_equivalence(q: QuboMatrix, q_mod: QuboMatrix, report: FactoringReport) -> VerificationVerdict:
    """Exhaustively compare the base matrix with its factored counterpart.

    Checks that best-ancilla energies of valid base assignments are preserved
    exactly, that invalid assignments never improve, and that the global
    minima agree.

    The factored energies are read as blocks of 2^w, w the larger of the
    base size and ``_VERIFY_BLOCK_BITS`` (at most ``final_n``), and their
    minimum over the ancilla assignments is folded in block by block, so no
    2^final_n array is held.  The blocks are walked and folded in the
    narrowest dtype that holds them exactly.

    A float pair is compared as its integral multiple by D, the common
    power-of-two denominator of its values m/d, when FLOAT_TOL * D < 1 and
    each matrix has sum |m|*(D/d) < 2**53.  Its float energies are then
    exactly E_int / D, so two that differ do so by at least 1/D >
    FLOAT_TOL, and the verdict is the float compare's.  An integral pair's
    base energies are walked narrow too, and the two are compared in their
    own dtypes with ``!=``, ``<`` and ``==``: no difference is taken, so
    none can overflow.  Every other pair subtracts the float64 (or int64)
    base energies from the folded minima, and holds the differences to
    ``FLOAT_TOL``.  Validity masks the compares; see
    :func:`_valid_assignments`.
    """
    if q.n != report.base_n or q_mod.n != report.final_n:
        raise ParameterError("report does not match the supplied matrices")
    for k, step in enumerate(report.steps):
        _check_step(q.n, k, step)

    exact = q.is_integral and q_mod.is_integral
    if not exact and (multiples := _integral_multiples(q, q_mod)):
        (q, q_mod), exact = multiples, True
    # q_mod is the larger, so its blocks refuse first, before any grid.  The
    # base is drawn after the fold, so the walk and the base are never held
    # together.
    blocks = _energy_blocks(q_mod, min(q_mod.n, max(q.n, _VERIFY_BLOCK_BITS)), narrow=True)
    base_blocks = _energy_blocks(q, q.n, narrow=exact)
    best_mod = _best_over_ancillas(blocks, q.n)
    [(_, base_energies)] = base_blocks
    valid = _valid_assignments(q.n, report.steps)

    if exact:
        valid_ok = not np.any(valid & (best_mod != base_energies))
        invalid_ok = not np.any(~valid & (best_mod < base_energies))
        return VerificationVerdict(valid_ok, invalid_ok, bool(best_mod.min() == base_energies.min()))

    # Two finite float energies may differ by more than float64 holds; the
    # difference is then +-inf, which gives the right verdict.
    with np.errstate(over="ignore"):
        diff = best_mod - base_energies
        lowest_gap = best_mod.min() - base_energies.min()
    invalid_ok = not np.any(~valid & (diff < -FLOAT_TOL))
    valid_ok = not np.any(valid & (np.abs(diff, out=diff) > FLOAT_TOL))
    return VerificationVerdict(valid_ok, invalid_ok, bool(abs(lowest_gap) <= FLOAT_TOL))
