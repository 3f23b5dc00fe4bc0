"""Amplitude algebra for explicit qubit registers.

Registers are canonical sparse superpositions over computational basis
states: a width m and a map from basis index u in [0, 2**m) to a complex
amplitude.  Wire 1 is the most significant bit of a basis index, so the
m-bit binary word of u reads left to right as wires 1..m.

Gates are tensor compositions of named primitive unitaries.  apply_gate
makes one pass over the amplitudes per non-identity factor; identity factors
are skipped.  The scatter pass sends each stored amplitude through the
nonzero entries of its column of the factor's matrix.  The dense pass holds
all 2**width amplitudes in a numpy vector and forms each row of the factor's
block as a sum over that row's nonzero entries, in the column order the
scatter adds them in.  It is taken on registers of DENSE_MIN_WIDTH to
DENSE_MAX_WIDTH wires, and there only when the scatter's moves (estimated
from the support, grown by each factor's column fan-out) exceed the dense
pass's price.  Narrower registers, and wider ones such as a sparse 60-wire
register, stay on the scatter.

Projective measurement of a wire set I follows the Born rule: outcome word w
occurs with probability equal to the squared mass on the basis indices whose
bits at the wires of I spell w, and the surviving amplitudes are renormalized
by 1/sqrt(p_w).  measure buckets the stored amplitudes by their bits at I in
one pass in index order, so every branch costs only its own support.
measure_one takes the same buckets and probabilities, lets a caller pick one
branch, and builds only that branch's post-state.

factor_split splits a register whose stored amplitudes all share their left
bits r exactly and without numpy: |r> with amplitude 1, and the stored
amplitudes with the left bits dropped (a register measured on the wires it
splits off is one).  Any other register takes a rank-1 test over the stored
amplitudes: the pivot's column gives a dense left vector of 2**left_width
entries and its row a sparse right row.  Their outer product is compared
with the stored amplitudes on the right row's columns; off those columns it
is zero, so every stored amplitude there must itself be within the
tolerance.  No 2**width array is built.  The test's result is kept on the
register, so is_product and the factor_split after it run it once.  Basis
indices are int64 in that test, which is what bounds register widths by
MAX_WIDTH.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

# Amplitudes at or below this modulus are treated as zero and dropped.
EPS_ZERO = 1e-12
# Tolerance for unit-norm checks (probabilities and amplitude vectors).
EPS_NORM = 1e-9
# Tolerance for U @ U.conj().T == identity.
UNITARY_TOL = 1e-9
# Widest register: every basis index must fit the int64 indices of the
# sparse split.
MAX_WIDTH = 63
# apply_gate takes the dense pass only on registers of DENSE_MIN_WIDTH to
# DENSE_MAX_WIDTH wires (a 2**16 vector is 1 MB), and there only when the
# scatter would make more moves than the dense pass is priced at: per
# non-identity factor, _DENSE_ENTRY_MOVES per matrix entry it may touch plus
# one per _DENSE_AMPS_PER_MOVE amplitudes of the vector.  The prices are
# timings of both passes on widths 4-16 (Python 3.11, numpy 2.4, x86-64): a
# scatter move took about 0.3 us, the numpy calls for one matrix entry about
# 20 moves, and 64 amplitudes of a dense pass about one.
DENSE_MIN_WIDTH = 4
DENSE_MAX_WIDTH = 16
_DENSE_ENTRY_MOVES = 20
_DENSE_AMPS_PER_MOVE = 64


class ArityMismatchError(ValueError):
    """Gate arity does not match the register width it is applied to."""


class RegisterWidthError(ValueError):
    """A register is wider than MAX_WIDTH wires."""


class IndexOutOfRangeError(ValueError):
    """A measured wire index lies outside [1, width]."""


class GateError(ValueError):
    """A gate matrix is not a square power-of-two unitary."""


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class GateAtom:
    """A named primitive gate with an explicit unitary matrix."""

    name: str
    matrix: tuple[tuple[complex, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if n == 0 or any(len(row) != n for row in self.matrix):
            raise GateError(f"gate {self.name}: matrix must be square")
        arity = n.bit_length() - 1
        if 1 << arity != n:
            raise GateError(f"gate {self.name}: dimension {n} is not a power of two")
        mat = tuple(tuple(complex(z) for z in row) for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        u = np.array(mat, dtype=complex)
        if not np.allclose(u @ u.conj().T, np.eye(n), atol=UNITARY_TOL, rtol=0.0):
            raise GateError(f"gate {self.name}: matrix is not unitary")

    @property
    def arity(self) -> int:
        return len(self.matrix).bit_length() - 1


@lru_cache(maxsize=None)
def _atom_columns(atom: GateAtom) -> tuple[tuple[tuple[int, complex], ...], ...] | None:
    """Per column c, the (row, entry) pairs with a nonzero entry; None for an
    identity matrix, which apply_gate skips."""
    mat = atom.matrix
    n = len(mat)
    if all(mat[r][c] == (1 if r == c else 0) for r in range(n) for c in range(n)):
        return None
    return tuple(tuple((r, mat[r][c]) for r in range(n) if mat[r][c] != 0)
                 for c in range(n))


@lru_cache(maxsize=None)
def _atom_rows(atom: GateAtom) -> tuple[tuple[tuple[int, complex], ...], ...]:
    """Per row r, the (column, entry) pairs with a nonzero entry, in column
    order."""
    mat = atom.matrix
    n = len(mat)
    return tuple(tuple((c, mat[r][c]) for c in range(n) if mat[r][c] != 0)
                 for r in range(n))


@dataclass(frozen=True)
class GateExpr:
    """Tensor composition of primitive gates, acting on ``arity`` wires."""

    atoms: tuple[GateAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise GateError("empty gate expression")

    @property
    def arity(self) -> int:
        return sum(atom.arity for atom in self.atoms)

    def tensor(self, other: "GateExpr") -> "GateExpr":
        return GateExpr(self.atoms + other.atoms)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(atom.name for atom in self.atoms)


_S2 = 1.0 / math.sqrt(2.0)

HADAMARD = GateAtom("H", ((complex(_S2), complex(_S2)),
                          (complex(_S2), complex(-_S2))))
PAULI_X = GateAtom("X", ((0j, 1 + 0j), (1 + 0j, 0j)))
PAULI_Z = GateAtom("Z", ((1 + 0j, 0j), (0j, -1 + 0j)))
IDENTITY = GateAtom("I", ((1 + 0j, 0j), (0j, 1 + 0j)))
# Control is wire 1 (the more significant bit), target is wire 2.
CNOT = GateAtom("cnot", ((1 + 0j, 0j, 0j, 0j),
                         (0j, 1 + 0j, 0j, 0j),
                         (0j, 0j, 0j, 1 + 0j),
                         (0j, 0j, 1 + 0j, 0j)))

BUILTIN_GATES: dict[str, GateAtom] = {
    a.name: a for a in (HADAMARD, PAULI_X, PAULI_Z, IDENTITY, CNOT)
}


def gate(*names: str) -> GateExpr:
    """Tensor of builtin gates by name, e.g. gate('H', 'I', 'I')."""
    return GateExpr(tuple(BUILTIN_GATES[n] for n in names))


def identity_gate(width: int) -> GateExpr:
    return GateExpr((IDENTITY,) * width)


# ---------------------------------------------------------------------------
# Qubit registers


def _probability(entries) -> float:
    """The squared mass of (index, amplitude) pairs, inf past the float
    range: m * m overflows to inf where m ** 2 raises OverflowError."""
    try:
        return sum(m * m for m in (abs(a) for _, a in entries))
    except OverflowError:  # a modulus past the float range
        return math.inf


def _modulus(a: complex) -> float:
    """abs(a), or inf where the modulus is past the float range."""
    try:
        return abs(a)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class QubitValue:
    """Canonical sparse superposition over a ``width``-wire register.

    ``amps`` holds (basis index, amplitude) pairs sorted by index; duplicate
    indices are merged and entries with modulus <= EPS_ZERO are dropped at
    construction, so zero-amplitude summands never survive.  Normalization is
    not enforced here (the well-formedness checker reports it); every value
    produced by tensor/apply_gate/measure is unit norm.
    """

    width: int
    amps: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        width = self.width
        if width < 1:
            raise ValueError(f"register width must be >= 1, got {width}")
        if width > MAX_WIDTH:
            raise RegisterWidthError(
                f"register width {width} exceeds the maximum of {MAX_WIDTH} wires")
        dim = 1 << width
        if isinstance(self.amps, Mapping):
            # distinct keys: nothing to merge
            amps = self.amps
            if amps and not (0 <= min(amps) and max(amps) < dim):
                u = next(u for u in amps if not 0 <= u < dim)
                raise ValueError(f"basis index {u} out of range for width {width}")
            merged = {u: 0j + complex(a) for u, a in amps.items()}
        else:
            merged = {}
            for u, a in self.amps:
                if not 0 <= u < dim:
                    raise ValueError(f"basis index {u} out of range for width {width}")
                merged[u] = merged.get(u, 0j) + complex(a)
        try:
            cleaned = tuple(sorted((u, a) for u, a in merged.items() if abs(a) > EPS_ZERO))
        except OverflowError:
            # a modulus past the float range is inf, so its amplitude is kept
            cleaned = tuple(sorted((u, a) for u, a in merged.items()
                                   if _modulus(a) > EPS_ZERO))
        object.__setattr__(self, "amps", cleaned)

    def amp(self, u: int) -> complex:
        for v, a in self.amps:
            if v == u:
                return a
        return 0j

    def support(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.amps)

    def norm_sq(self) -> float:
        return _probability(self.amps)

    def is_unit(self, tol: float = EPS_NORM) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def to_dense(self) -> np.ndarray:
        vec = np.zeros(1 << self.width, dtype=complex)
        for u, a in self.amps:
            vec[u] = a
        return vec

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "amps": [[u, a.real, a.imag] for u, a in self.amps],
        }

    @classmethod
    def from_json(cls, data: dict) -> "QubitValue":
        return cls(data["width"], [(u, complex(re, im)) for u, re, im in data["amps"]])


def _canonical(width: int, amps: tuple[tuple[int, complex], ...]) -> QubitValue:
    """A register from pairs that are canonical already (indices distinct,
    sorted and in range; complex amplitudes of modulus above EPS_ZERO),
    built without canonicalizing them again."""
    q = object.__new__(QubitValue)
    object.__setattr__(q, "width", width)
    object.__setattr__(q, "amps", amps)
    return q


def basis_state(width: int, index: int) -> QubitValue:
    return QubitValue(width, ((index, 1 + 0j),))


def ket(bits: str) -> QubitValue:
    """Basis state from a bit string, wire 1 first: ket('01') is |01>."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    return basis_state(len(bits), int(bits, 2))


def uniform_state(width: int) -> QubitValue:
    a = complex(1.0 / math.sqrt(1 << width))
    return QubitValue(width, tuple((u, a) for u in range(1 << width)))


def amps_close(a: QubitValue, b: QubitValue, tol: float) -> bool:
    """Amplitude-wise comparison with absolute tolerance per basis index; an
    index missing from one register counts as amplitude 0 there.  One merge
    pass over the two sorted amplitude tuples."""
    if a.width != b.width:
        return False
    xs, ys = a.amps, b.amps
    i = j = 0
    while i < len(xs) and j < len(ys):
        u, za = xs[i]
        v, zb = ys[j]
        if u == v:
            diff = za - zb
            i += 1
            j += 1
        elif u < v:
            diff = za
            i += 1
        else:
            diff = zb
            j += 1
        if abs(diff) > tol:
            return False
    return all(not abs(z) > tol for _, z in xs[i:] + ys[j:])


def tensor(a: QubitValue, b: QubitValue) -> QubitValue:
    """Kronecker product; a occupies the left (more significant) wires."""
    width = a.width + b.width
    out: dict[int, complex] = {}
    for ua, za in a.amps:
        for ub, zb in b.amps:
            out[(ua << b.width) | ub] = za * zb
    return QubitValue(width, out)


def _scatter(g: GateExpr, q: QubitValue) -> dict[int, complex]:
    """apply_gate's amplitudes by scatter: per non-identity factor, each
    stored amplitude moves through the nonzero entries of its column."""
    entries: dict[int, complex] = dict(q.amps)
    right = q.width
    for atom in g.atoms:
        k = atom.arity
        right -= k
        columns = _atom_columns(atom)
        if columns is None:
            continue
        block = (1 << k) - 1
        outside = ~(block << right)
        moves = [tuple((r << right, z) for r, z in col) for col in columns]
        new: dict[int, complex] = {}
        for u, a in entries.items():
            if abs(a) <= EPS_ZERO:  # cancelled in an earlier factor
                continue
            base = u & outside
            for offset, z in moves[(u >> right) & block]:
                v = base | offset
                new[v] = new.get(v, 0j) + z * a
        entries = new
    return entries


@np.errstate(all="ignore")  # non-finite amplitudes pass silently, as in the scatter
def _dense(g: GateExpr, q: QubitValue) -> dict[int, complex]:
    """apply_gate's amplitudes by dense passes over a 2**width vector: per
    non-identity factor, each row of its block is the sum over the row's
    nonzero entries in column order, as the scatter adds them; what a factor
    cancels to EPS_ZERO or below is zeroed before the next one."""
    vec = None
    right = q.width
    for atom in g.atoms:
        k = atom.arity
        right -= k
        if _atom_columns(atom) is None:
            continue
        if vec is None:
            us, zs = zip(*q.amps)
            vec = np.zeros(1 << q.width, dtype=complex)
            vec[list(us)] = zs
        else:
            vec[np.abs(vec) <= EPS_ZERO] = 0  # cancelled in an earlier factor
        src = vec.reshape(-1, 1 << k, 1 << right)
        out = np.empty_like(src)
        for r, ((c, z), *rest) in enumerate(_atom_rows(atom)):
            row = out[:, r]
            np.multiply(src[:, c], z, out=row)
            for c, z in rest:
                row += z * src[:, c]
        vec = out.reshape(-1)
    if vec is None:
        return dict(q.amps)
    nonzero = np.flatnonzero(vec)
    return dict(zip(nonzero.tolist(), vec[nonzero].tolist()))


def _use_dense(g: GateExpr, q: QubitValue) -> bool:
    """Whether apply_gate takes the dense pass.  The scatter's moves are
    estimated from the support, which each factor multiplies by its column
    fan-out up to 2**width."""
    if not DENSE_MIN_WIDTH <= q.width <= DENSE_MAX_WIDTH:
        return False
    dim = 1 << q.width
    support = len(q.amps)
    moves = price = 0
    for atom in g.atoms:
        columns = _atom_columns(atom)
        if columns is None:
            continue
        fan_out = max(map(len, columns))
        moves += support * fan_out
        support = min(support * fan_out, dim)
        price += (_DENSE_ENTRY_MOVES * fan_out << atom.arity) + dim // _DENSE_AMPS_PER_MOVE
    return moves > price


def apply_gate(g: GateExpr, q: QubitValue) -> QubitValue:
    """Apply the unitary of g to q: one pass over the amplitudes per
    non-identity factor, dense or scatter as _use_dense chooses."""
    if g.arity != q.width:
        raise ArityMismatchError(
            f"gate of arity {g.arity} applied to a width-{q.width} register")
    entries = _dense(g, q) if _use_dense(g, q) else _scatter(g, q)
    return QubitValue(q.width, entries)


# ---------------------------------------------------------------------------
# Measurement


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a projective measurement: word w, its probability, and
    the renormalized post-measurement register."""

    outcome: int
    probability: float
    post: QubitValue


def _buckets(q: QubitValue,
             indices: frozenset[int] | set[int]) -> tuple[list[int], dict[int, list]]:
    """The sorted measured wires, and the (index, amplitude) pairs of q
    bucketed by their bits at those wires, in one pass in index order.  A
    bucket's key is ``u & mask``, so sorted keys are in outcome-word order."""
    idx = sorted(indices)
    if not idx:
        raise IndexOutOfRangeError("measured index set must be nonempty")
    if idx[0] < 1 or idx[-1] > q.width:
        raise IndexOutOfRangeError(
            f"measured indices {idx} not within [1, {q.width}]")
    mask = 0
    for i in idx:
        mask |= 1 << (q.width - i)
    buckets: dict[int, list[tuple[int, complex]]] = {}
    for u, a in q.amps:
        key = u & mask
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [(u, a)]
        else:
            bucket.append((u, a))
    return idx, buckets


def _branches(q: QubitValue, indices: frozenset[int] | set[int]
              ) -> tuple[list[int], list[tuple[int, list, float]]]:
    """The sorted measured wires, and (bucket key, entries, probability) for
    every outcome with probability above EPS_ZERO, in outcome-word order."""
    idx, buckets = _buckets(q, indices)
    branches = []
    for key in sorted(buckets):
        entries = buckets[key]
        p = _probability(entries)
        if p > EPS_ZERO:
            branches.append((key, entries, p))
    return idx, branches


def _outcome(q: QubitValue, idx: list[int], key: int, entries: list,
             p: float) -> MeasurementOutcome:
    """The branch of one bucket: its word and the renormalized post-state."""
    scale = 1.0 / math.sqrt(p)
    post = QubitValue(q.width, {u: a * scale for u, a in entries})
    word = 0
    for i in idx:
        word = (word << 1) | ((key >> (q.width - i)) & 1)
    return MeasurementOutcome(word, p, post)


def measure(q: QubitValue, indices: frozenset[int] | set[int]) -> list[MeasurementOutcome]:
    """All measurement branches of the wires in ``indices`` with nonzero
    probability, in increasing outcome-word order.

    Probabilities sum to 1 (within EPS_NORM) for a unit-norm register; each
    post-state is unit norm.  Branches with p <= EPS_ZERO are omitted since
    their post-state (a division by sqrt(p)) is undefined.
    """
    idx, branches = _branches(q, indices)
    return [_outcome(q, idx, *branch) for branch in branches]


def measure_one(q: QubitValue, indices: frozenset[int] | set[int],
                choose: Callable[[list[float]], int]) -> MeasurementOutcome:
    """The branch of ``measure(q, indices)`` at the index ``choose`` picks
    from the branch probabilities (in outcome-word order); only that branch's
    post-state is built.  A single branch is returned without asking."""
    idx, branches = _branches(q, indices)
    pick = 0 if len(branches) == 1 else choose([p for _, _, p in branches])
    return _outcome(q, idx, *branches[pick])


def outcome_count(q: QubitValue, indices: frozenset[int] | set[int]) -> int:
    """len(measure(q, indices)), counted without building any post-state."""
    return len(_branches(q, indices)[1])


# ---------------------------------------------------------------------------
# Product splitting


def _rank1(q: QubitValue, left_width: int,
           tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rank-1 test behind factor_split: (left vector, right columns,
    right row) with q = left (x) right within ``tol`` per basis index, or None.

    Rows are the left ``left_width`` bits of a basis index, columns the rest.
    The pivot is the first amplitude of largest modulus; the left vector is
    its column (dense, 2**left_width entries) and the right row is its row
    divided by the pivot (sparse: the stored columns only).  Outside the
    right row's columns the outer product is zero, so there the residual is
    the stored modulus itself.
    """
    right_width = q.width - left_width
    n = len(q.amps)
    us, zs = zip(*q.amps)
    index = np.fromiter(us, dtype=np.int64, count=n)
    amps = np.fromiter(zs, dtype=complex, count=n)
    rows = index >> right_width
    cols = index & ((1 << right_width) - 1)
    mags = np.abs(amps)
    p = int(mags.argmax())
    a_vec = np.zeros(1 << left_width, dtype=complex)
    in_col = cols == cols[p]
    a_vec[rows[in_col]] = amps[in_col]
    in_row = rows == rows[p]
    b_cols = cols[in_row]
    b_vec = amps[in_row] / amps[p]
    slot = np.minimum(np.searchsorted(b_cols, cols), len(b_cols) - 1)
    hit = b_cols[slot] == cols
    if not hit.all() and mags[~hit].max() > tol:
        return None
    stored = np.zeros((1 << left_width, len(b_cols)), dtype=complex)
    stored[rows[hit], slot[hit]] = amps[hit]
    if np.abs(np.outer(a_vec, b_vec) - stored).max() > tol:
        return None
    return a_vec, b_cols, b_vec


# The attribute that keeps a register's last rank-1 test: ((left_width, tol),
# result).  Like the memos of qlam.syntax it is not a field, so equality,
# hashing and repr never see it.
_RANK1 = "_rank1_memo"


def _split_parts(q: QubitValue, left_width: int, tol: float
                 ) -> int | tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """How q splits with ``left_width`` wires on the left: the row (left
    bits) that every stored amplitude shares, as an int; else _rank1's parts,
    kept on q so that a test and the split after it share one run; None when
    q is entangled across the cut (or holds no amplitude)."""
    if not 0 < left_width < q.width:
        raise ValueError(f"split width {left_width} not inside (0, {q.width})")
    if not q.amps:
        return None
    shift = q.width - left_width
    row = q.amps[0][0] >> shift
    if q.amps[-1][0] >> shift == row:  # indices are sorted: one row holds them all
        return row
    key = (left_width, tol)
    memo = getattr(q, _RANK1, None)
    if memo is None or memo[0] != key:
        memo = (key, _rank1(q, left_width, tol))
        object.__setattr__(q, _RANK1, memo)
    return memo[1]


def is_product(q: QubitValue, left_width: int, tol: float = EPS_NORM) -> bool:
    """Whether factor_split(q, left_width, tol) succeeds, decided without
    building either factor."""
    return _split_parts(q, left_width, tol) is not None


def factor_split(q: QubitValue, left_width: int,
                 tol: float = EPS_NORM) -> tuple[QubitValue, QubitValue] | None:
    """Split q into a product a (x) b with a of ``left_width`` wires.

    Returns None when q is entangled across the cut.  The left factor is unit
    norm and its lowest-index amplitude is made real positive, pushing any
    global phase (and q's norm) into the right factor.  A register whose
    stored amplitudes share one row r splits exactly: |r> with amplitude 1,
    and the stored amplitudes with their left bits dropped.
    """
    parts = _split_parts(q, left_width, tol)
    if parts is None:
        return None
    right_width = q.width - left_width
    if isinstance(parts, int):
        mask = (1 << right_width) - 1
        return (basis_state(left_width, parts),
                _canonical(right_width, tuple((u & mask, a) for u, a in q.amps)))
    a_vec, b_cols, b_vec = parts
    na = np.linalg.norm(a_vec)
    a_vec = a_vec / na
    b_vec = b_vec * na
    first = np.flatnonzero(np.abs(a_vec) > EPS_ZERO)[0]
    phase = a_vec[first] / abs(a_vec[first])
    a_vec /= phase
    b_vec *= phase
    left = QubitValue(left_width, dict(enumerate(a_vec.tolist())))
    right = QubitValue(right_width, dict(zip(b_cols.tolist(), b_vec.tolist())))
    return left, right
