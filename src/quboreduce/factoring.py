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
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .qubo import (
    CapacityError,
    ENUMERATION_GUARD,
    FLOAT_TOL,
    ParameterError,
    QuboMatrix,
    _check_json,
    _finite,
    _grid_index,
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

    def to_json_dict(self) -> dict:
        return {
            "base_n": self.base_n,
            "final_n": self.final_n,
            "z": self.z,
            "steps": [
                {"ancilla": s.ancilla, "i": s.i, "j": s.j, "syms": sorted(s.syms)}
                for s in self.steps
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "FactoringReport":
        try:
            base_n, final_n, z, raw = data["base_n"], data["final_n"], data["z"], data["steps"]
            _check_json("base_n", base_n, int)
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
            for what in ("ancilla", "i", "j"):
                _check_json(f"step {k} {what}", getattr(step, what), int)
            for v in step.syms:
                _check_json(f"step {k} syms element", v, int)
            if step.ancilla != base_n + k:
                raise ParameterError(f"step {k} ancilla must be {base_n + k}, got {step.ancilla}")
            if not (0 <= step.i < step.ancilla and 0 <= step.j < step.ancilla) or step.i == step.j:
                raise ParameterError(f"step {k} pair ({step.i}, {step.j}) is not two distinct earlier qubits")
            outside = all(0 <= v < step.ancilla and v not in (step.i, step.j) for v in step.syms)
            if len(step.syms) < 3 or len(set(step.syms)) != len(step.syms) or not outside:
                raise ParameterError(
                    f"step {k} syms {list(step.syms)} are not three or more distinct earlier qubits outside the pair"
                )
        return cls(base_n, z, steps)

    @classmethod
    def loads(cls, text: str) -> "FactoringReport":
        return cls.from_json_dict(json.loads(text))


# Rows per block in the searches, so that no temporary exceeds about 1 MB.
_BLOCK_BYTES = 1 << 20


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
    the array holds the Python numbers themselves (dtype object).
    """
    items = list(q.entries())
    values = [v for _, v in items]
    room = min(num_ancillas, coupling_count(q))
    ints = sum(abs(v) for v in values if isinstance(v, int)) + (9 * abs(z) * room if isinstance(z, int) else 0)
    dtype = np.float64 if 2 * ints < 2**53 else object
    a = np.zeros((q.n + room, q.n + room), dtype=dtype)
    if items:
        rows, cols = np.array([k for k, _ in items]).T
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
    # accumulate adds row by row, whatever the shape; sum may add pairwise.
    z_row = np.zeros(n, dtype=a.dtype)
    for rows in _blocks(n, n):
        z_row = np.add.accumulate(np.vstack((z_row, np.minimum(a[rows], 0))), axis=0)[-1]
    found = []
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
    if not (_finite(z) and z > 0):
        raise ParameterError(f"penalty z must be positive and finite, got {z}")


def _step_possible(q: QuboMatrix) -> bool:
    """Whether some coupled pair has at least four couplings on each of its
    qubits: its own and three to shared qubits, the least a step takes."""
    couplings = [k for k in q._entries if k[0] != k[1]]
    degree = Counter(chain.from_iterable(couplings))
    return any(degree[i] >= 4 and degree[j] >= 4 for i, j in couplings)


def _step_cells(read, i: int, j: int, a: int, syms, z) -> list:
    """The ``((r, s), value)`` writes of the step factoring ``(i, j)`` onto
    ancilla ``a``, old cells read as ``read((r, s))``.  A cell that ``z``
    makes non-finite raises ParameterError, as writing it to a QuboMatrix
    would."""
    cells = [((i, i), read((i, i)) + z), ((j, j), read((j, j)) + z), ((a, a), z)]
    cells += [((i, a), -2 * z), ((j, a), -2 * z), ((i, j), read((i, j)) + 2 * z)]
    for (r, s), value in cells:
        if not _finite(value):
            raise ParameterError(f"non-finite coefficient at {(min(r, s), max(r, s))}")
    for k in syms:
        cells += [((k, a), read((i, k))), ((i, k), 0), ((j, k), 0)]
    return cells


def enhance(q: QuboMatrix, pair: tuple[int, int], syms, z) -> QuboMatrix:
    """Append one ancilla qubit and move the shared couplings of ``pair`` onto
    it, adding the OR-consistency penalty of weight ``z``."""
    i, j = pair
    _check_z(z)
    syms = frozenset(syms)
    if i in syms or j in syms:
        raise ParameterError("syms must exclude the factored pair")
    for k in syms:
        if q[i, k] == 0 or q[i, k] != q[j, k]:
            raise ParameterError(f"qubit {k} does not share identical nonzero couplings")
    out = q.copy(q.n + 1)
    for cell, value in _step_cells(q.__getitem__, i, j, q.n, syms, z):
        out[cell] = value
    return out


def default_z(q: QuboMatrix):
    """Sum of absolute values of all stored coefficients; always a safe
    penalty weight for energy-landscape preservation."""
    return sum(abs(v) for _, v in q.entries())


def _factoring_loop(q: QuboMatrix, num_ancillas: int, z) -> tuple[FactoringReport, Iterator[np.ndarray]]:
    """The factoring loop, checked and started: its report, which gains each
    step as the loop takes it, and an iterator over the trajectory.  No ``z``
    means :func:`default_z` of ``q``.

    The loop keeps only the dense mirror, writing each step's cells into both
    triangles, and yields its leading ``(n, n)`` block per trajectory matrix.
    It yields nothing when it builds no mirror (no budget, or no pair that
    could step).  A block is a view that the next step overwrites, so read
    it before advancing the iterator."""
    if num_ancillas < 0:
        raise ParameterError(f"ancilla budget must be non-negative, got {num_ancillas}")
    if z is None:
        z = default_z(q)
    _check_z(z)
    report = FactoringReport(q.n, z)
    return report, _mirrored_steps(q, num_ancillas, report)


def _mirrored_steps(q: QuboMatrix, num_ancillas: int, report: FactoringReport):
    if not num_ancillas or not _step_possible(q):
        return  # no step to take: skip the mirror
    mirror = dense_mirror(q, num_ancillas, report.z)
    for n in range(q.n, q.n + num_ancillas):
        a = mirror[:n, :n]
        yield a
        cl = get_conflict_list(a)
        if not len(cl):
            return
        step = get_most_sym_qubits(a, cl)
        if len(step.syms) < 3:
            return
        for (r, s), value in _step_cells(mirror.item, step.i, step.j, n, step.syms, report.z):
            mirror[r, s] = mirror[s, r] = value
        report.steps.append(step)
    yield mirror[: report.final_n, : report.final_n]


def _replayed(q: QuboMatrix, num_ancillas: int, z) -> tuple[FactoringReport, Iterator[QuboMatrix]]:
    """The factoring loop's report and its trajectory, replayed through
    :func:`enhance`, which checks each step's shared couplings again."""
    report, blocks = _factoring_loop(q, num_ancillas, z)
    deque(blocks, maxlen=0)
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
    if q.n > ENUMERATION_GUARD:
        raise CapacityError(f"n={q.n} exceeds enumeration guard {ENUMERATION_GUARD}")
    if not (0 <= i < q.n and 0 <= j < q.n):
        raise ParameterError(f"index pair ({i}, {j}) out of range for n={q.n}")
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


def verify_equivalence(q: QuboMatrix, q_mod: QuboMatrix, report: FactoringReport) -> VerificationVerdict:
    """Exhaustively compare the base matrix with its factored counterpart.

    Checks that best-ancilla energies of valid base assignments are preserved
    exactly, that invalid assignments never improve, and that the global
    minima agree.
    """
    if q.n != report.base_n or q_mod.n != report.final_n:
        raise ParameterError("report does not match the supplied matrices")
    if q_mod.n > ENUMERATION_GUARD:
        raise CapacityError(f"n={q_mod.n} exceeds enumeration guard {ENUMERATION_GUARD}")

    base_energies = all_energies(q)
    mod_energies = all_energies(q_mod)
    num_anc = q_mod.n - q.n
    # Assignment index packs base bits low, ancilla bits high.
    best_mod = mod_energies.reshape(1 << num_anc, 1 << q.n).min(axis=0)

    exact = q.is_integral and q_mod.is_integral
    tol = 0 if exact else FLOAT_TOL

    # Replay the steps on all base assignments at once, each ancilla the OR of
    # its pair: valid iff no factored pair ends up fully set.  Bit k is a
    # boolean array on axis -1-k, broadcast against the (2,) * base_n grid.
    bits = [np.array([False, True]).reshape((2,) + (1,) * k) for k in range(q.n)]
    valid = np.ones((2,) * q.n, dtype=bool)
    for step in report.steps:
        bi, bj = bits[step.i], bits[step.j]
        valid &= ~(bi & bj)
        bits.append(bi | bj)
    valid = valid.reshape(-1)

    diff = best_mod - base_energies
    valid_ok = not np.any(np.abs(diff[valid]) > tol)
    invalid_ok = not np.any(diff[~valid] < -tol)
    minimum_ok = bool(abs(best_mod.min() - base_energies.min()) <= tol)
    return VerificationVerdict(valid_ok, invalid_ok, minimum_ok)
