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


def _check_budget(num_ancillas) -> None:
    _check_json("ancilla budget", num_ancillas, int)
    if num_ancillas < 0:
        raise ParameterError(f"ancilla budget must be non-negative, got {num_ancillas}")


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
    _check_budget(num_ancillas)
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
        cells = np.fromiter(chain.from_iterable(q._entries), dtype=np.intp, count=2 * len(values))
        rows, cols = cells.reshape(-1, 2).T
        a[rows, cols] = values
        a[cols, rows] = values
    return a


def _column_sums(m: np.ndarray) -> np.ndarray:
    """Z of each column of ``m``: the sum of its negative coefficients, added
    from row 0 down, the order the sparse entries run."""
    z = np.zeros((1, m.shape[1]), dtype=m.dtype)
    # accumulate adds row by row, whatever the shape; sum may add pairwise.
    for rows in _blocks(len(m), m.shape[1]):
        z = np.add.accumulate(np.concatenate((z[-1:], np.minimum(m[rows], 0))), axis=0)
    return z[-1]


def _conflicts(block: np.ndarray, z_rows: np.ndarray, z_cols: np.ndarray) -> np.ndarray:
    """Whether each cell of ``block`` is a conflicting coupling: nonzero, and
    above the negative energy available to its row and column,
    a[r,c] > -Z[r] - Z[c]."""
    return (block != 0) & (block > -z_rows[:, None] - z_cols)


def _shared_counts(a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """For each pair (i[p], j[p]), the number of other qubits to which both
    couple with one identical nonzero value."""
    counts = np.empty(len(i), dtype=np.intp)
    for block in _blocks(len(i), a.shape[1]):
        bi, bj = i[block], j[block]
        row_i = a[bi]
        shared = (row_i == a[bj]) & (row_i != 0)
        # Off the diagonal only: column j of row i is their own coupling.
        at = np.arange(len(bi))
        shared[at, bi] = shared[at, bj] = False
        counts[block] = shared.sum(axis=1)
    return counts


def _step_at(a: np.ndarray, i: int, j: int) -> FactoringStep:
    """The step onto ancilla ``len(a)`` for the pair (i, j), syms sorted."""
    syms = np.nonzero((a[i] == a[j]) & (a[i] != 0))[0].tolist()
    return FactoringStep(len(a), i, j, tuple(k for k in syms if k not in (i, j)))


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
        z = _column_sums(a)
        for rows in _blocks(n, n):
            i, j = np.nonzero(np.triu(_conflicts(a[rows], z[rows], z), rows.start + 1))
            found.append(np.stack((i + rows.start, j), axis=1))
    return np.concatenate(found) if found else np.empty((0, 2), dtype=np.intp)


def get_most_sym_qubits(a: np.ndarray, cl) -> FactoringStep:
    """The step onto ancilla ``len(a)`` for the pair from ``cl`` sharing
    identical nonzero couplings with the most other qubits, syms sorted.
    Ties go to the pair scanned last; an empty list yields the sentinel
    ``FactoringStep(len(a), 0, 1, ())``."""
    pairs = np.asarray(cl, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        return FactoringStep(len(a), 0, 1, ())
    counts = _shared_counts(a, pairs[:, 0], pairs[:, 1])
    best = len(counts) - 1 - int(np.argmax(counts[::-1]))
    return _step_at(a, *pairs[best].tolist())


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


class _CarriedSearch:
    """The loop's two searches on the mirror's leading ``(n, n)`` block,
    carried from step to step.

    The first search goes through :func:`get_conflict_list` and
    :func:`get_most_sym_qubits`.  When it finds a step, the search keeps,
    beside the mirror, each column's Z (see :func:`_column_sums`) and, in
    the upper triangle of an array of the narrowest unsigned dtype that
    holds the mirror's size, the shared count of every conflicting pair (0
    for any other pair).  :meth:`take` writes a step and updates both from
    the rows it wrote; see :func:`_factoring_loop`."""

    def __init__(self, mirror: np.ndarray):
        self.mirror = mirror
        self.z = None
        self.counts = None

    def next_step(self, n: int) -> FactoringStep:
        """The step the reference searches take on the leading ``(n, n)``
        block, or the sentinel ``FactoringStep(n, 0, 1, ())`` when no
        conflicting pair shares three or more qubits."""
        if self.counts is not None:
            return self._pick(n)
        a = self.mirror[:n, :n]
        cl = get_conflict_list(a)
        if not len(cl):
            return FactoringStep(n, 0, 1, ())
        step = get_most_sym_qubits(a, cl)
        if len(step.syms) >= 3:
            size = len(self.mirror)
            self.z = np.zeros(size, dtype=self.mirror.dtype)
            with np.errstate(over="ignore"):
                self.z[:n] = _column_sums(a)
            self.counts = np.zeros((size, size), dtype=np.min_scalar_type(size))
            self.counts[cl[:, 0], cl[:, 1]] = _shared_counts(a, cl[:, 0], cl[:, 1])
        return step

    def _pick(self, n: int) -> FactoringStep:
        # The largest count, ties to the last pair in row-major order, as
        # get_most_sym_qubits scans the conflict list.  A pair that does not
        # conflict counts 0, so it is never the pick of a step.
        counts = self.counts[:n, :n]
        row_best = counts.max(axis=1)
        top = row_best.max()
        if top < 3:
            return FactoringStep(n, 0, 1, ())
        i = n - 1 - int(np.argmax(row_best[::-1] == top))
        j = n - 1 - int(np.argmax(counts[i, ::-1] == top))
        return _step_at(self.mirror[:n, :n], i, j)

    def take(self, step: FactoringStep, z) -> None:
        """Write ``step``'s cells into both triangles of the mirror and bring
        Z and the counts up to date on the rows and columns it wrote."""
        m, col_z, counts = self.mirror, self.z, self.counts
        i, j, anc = step.i, step.j, step.ancilla
        n = anc + 1
        touched = np.array([i, j, anc, *step.syms], dtype=np.intp)
        syms = touched[3:]
        penalty = _step_cells(m.item, i, j, anc, (), z)
        # Before the writes: each sym's coupling c_k to the pair and the
        # counts on its row, read from both sides of the upper triangle.
        c = m[i, syms]
        held = counts[syms, :anc] + counts[:anc, syms].T
        for (r, s), value in penalty:
            m[r, s] = m[s, r] = value
        m[syms, anc] = m[anc, syms] = c
        m[touched[:2, None], syms] = m[syms[:, None], touched[:2]] = 0
        # The touched rows are the touched columns: the mirror is symmetric.
        rows = m[touched, :n]
        with np.errstate(over="ignore"):
            col_z[touched] = _column_sums(rows.T)
            after = _conflicts(rows, col_z[touched], col_z[:n])
        after[np.arange(len(touched)), touched] = False
        # A pair (k, v) with a count, k a sym, conflicted before the step;
        # if it still does, it keeps its count less [c_k = a'[v, x]] over x
        # in (i, j, ancilla), read after the writes (held - lost may wrap
        # only where a pair is not kept).  Every other conflicting pair on a
        # touched row is counted afresh.
        kept = after[3:, :anc] & (held > 0)
        lost = (c[:, None] == rows[0, :anc]).view(np.uint8)
        lost += c[:, None] == rows[1, :anc]
        lost += c[:, None] == rows[2, :anc]
        value = np.zeros(after.shape, dtype=counts.dtype)
        value[3:, :anc] = (held - lost) * kept
        after[3:, :anc] &= ~kept
        ps, vs = np.nonzero(after)
        value[ps, vs] = _shared_counts(m[:n, :n], touched[ps], vs)
        # Each pair into the upper triangle: a touched row right of its
        # diagonal, a touched column above it.
        upper = np.arange(n) > touched[:, None]
        counts[touched, :n] = value * upper
        counts[:n, touched] = (value * ~upper).T


def _factoring_loop(q: QuboMatrix, num_ancillas: int, z, read=None) -> FactoringReport:
    """Run the factoring loop to its end and return its report.  No ``z``
    means :func:`default_z` of ``q``.

    The loop keeps the dense mirror, writing each step's cells into both
    triangles, and a :class:`_CarriedSearch` beside it.  ``read``, when
    given, is called with the mirror's leading ``(n, n)`` block once per
    trajectory matrix, before the next step overwrites it; it is not called
    when the loop builds no mirror (no budget, or no pair that could step).

    A step on (i, j) onto ancilla a with syms S writes cells only inside
    T x T, T = {i, j, a} + S, so the searches change only there:

    - Z of a column outside T gains a zero, from the new row a.  Z of each
      column in T is summed again from row 0 down, the order the whole
      search adds in, so no float bit moves.
    - A cell outside the rows and columns of T keeps its value and both Z,
      so its conflict test keeps its outcome.
    - A pair (v, w) with v, w outside T keeps its rows, which have no
      coupling to a, so it keeps its shared count.
    - Row k in S loses c_k = a[i, k] at columns i and j and gains it at
      column a.  So a pair (k, v), v outside {i, j, a}, that conflicts
      before and after the step loses [c_k = a'[v, x]] summed over x in
      (i, j, a), a' the matrix after the step: [c_k = a[v, i]] +
      [c_k = a[v, j]] for v outside T, whose cell at a is 0, and
      [c_k = c_v] for v in S, whose cells at i and j are 0 and at a c_v.
    - Every other conflicting pair on a row of T is counted afresh: those
      on rows i, j and a, and those whose count before the step was 0.  A
      pair that does not conflict counts 0, so a count tells that the pair
      conflicted, and a pair that starts to conflict is counted afresh.
    """
    _check_budget(num_ancillas)
    if z is None:
        z = default_z(q)
        if not z:
            raise ParameterError("the default z of a QUBO with no coefficients is 0, so a z must be given")
    _check_z(z)
    report = FactoringReport(q.n, z)
    if not num_ancillas or not _step_possible(q):
        return report  # no step to take: skip the mirror
    mirror = dense_mirror(q, num_ancillas, z)
    search = _CarriedSearch(mirror)
    for n in range(q.n, q.n + num_ancillas + 1):
        if read is not None:
            read(mirror[:n, :n])
        if n == q.n + num_ancillas:
            break  # budget spent
        step = search.next_step(n)
        if len(step.syms) < 3:
            break
        search.take(step, z)
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
