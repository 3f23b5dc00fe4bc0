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
register, stay on the scatter.  What a pass reads of a gate never changes,
so it is worked out once: a GateAtom and a GateExpr compute their arity and
their hash at construction, and an atom keeps its nonzero column and row
tables and, per shift (the wires to its right), the scatter's move tables,
on the atom itself.  An atom is shared by every expression built over it
(the parser builds a new GateExpr for every tensor it folds).  A gate is
hashed wherever a term's shape key is, and the kept hash spares each of
those a pass over every matrix entry.

Which amplitudes a register keeps is decided by ``_kept``, in the same pass
that finds the register's key support: the indices whose amplitude modulus
exceeds KEY_AMP_THRESHOLD, or None when one lies within _KEY_BAND of it
(qlam.syntax.shape_key hashes terms by it).  QubitValue merges and
range-checks its input first; the kernels whose pairs are already distinct
and in index order (the scatter pass, a measurement's post-states, a
tensor product and a rank-1 split's factors) go to ``_from_sorted``, which
applies only ``_kept``.  Both keep the support on the register.  The dense
gate pass applies the same rule in numpy, ``_kept_vector``, before its
amplitudes leave numpy.  It takes moduli with np.hypot of the parts, which
rounds as Python's abs does; np.abs can differ in the last bit, and at
EPS_ZERO that would make the two passes keep different amplitudes.  The
exact split hands its right factor the parent's support with the left bits
masked off, since its amplitudes are the parent's, and its left factor |r>
the support (r,).  Any other register reads its support once, in
``_key_support``.

Projective measurement of a wire set I follows the Born rule: outcome word w
occurs with probability equal to the squared mass on the basis indices whose
bits at the wires of I spell w, and the surviving amplitudes are renormalized
by 1/sqrt(p_w).  measure buckets the stored amplitudes by their bits at I in
one pass in index order, so every branch costs only its own support.  A
caller's ``pick`` sees the branch probabilities before any post-state is
built and names the branches to build: a sampler draws one, and an ensemble
step can refuse a fan-out past its cap.

factor_split splits wire 1 off a register, the one split the split rule
makes.  A register whose stored amplitudes all share their wire-1 bit r
splits exactly and without numpy: |r> with amplitude 1, and the stored
amplitudes with that bit dropped (a register measured on wire 1 is one).
Any other register takes a rank-1 test over the stored amplitudes: the
pivot's column gives the two-entry left vector and its row a sparse right
row.  Their outer product is compared with the stored amplitudes on the
right row's columns; off those columns it is zero, so every stored
amplitude there must itself be within EPS_NORM.  No 2**width array is
built.  The finished pair of factors, or None, is kept on the register, so
is_product (head_rule's test) and the factor_split of the contraction after
it work it out once.  Basis indices are int64 in that test, which is what
bounds register widths by MAX_WIDTH.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

# Amplitudes at or below this modulus are treated as zero and dropped.
EPS_ZERO = 1e-12
# Tolerance for unit-norm checks (probabilities and amplitude vectors).
EPS_NORM = 1e-9
# Tolerance for U @ U.conj().T == identity.
UNITARY_TOL = 1e-9
# Absolute tolerance per basis index when two terms' registers are compared
# (qlam.syntax.alpha_eq).
AMP_TOL = 1e-9
# A register's key support is the indices whose amplitude modulus exceeds
# this threshold.  It sits far above AMP_TOL, so a tolerance-close
# perturbation can only move an amplitude across it when the amplitude
# already lies within the tolerance band around it, where no support is
# given.
KEY_AMP_THRESHOLD = 1e-6
# That band: twice AMP_TOL on each side of the threshold, a margin for float
# rounding in amps_close.
_KEY_BAND = 2 * AMP_TOL
# Widest register: every basis index must fit the int64 indices of the
# sparse split.
MAX_WIDTH = 63
# Most amplitudes a register may store (a gate that makes 2**20 peaks at
# about 380 MB in `qlam run`).  Only tensor and the scatter pass can pass it:
# the dense pass holds 2**DENSE_MAX_WIDTH, and measure and splits shrink.
MAX_AMPLITUDES = 1 << 20
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


class RegisterSizeError(ValueError):
    """A register would store more than MAX_AMPLITUDES amplitudes."""


class IndexOutOfRangeError(ValueError):
    """A measured wire index lies outside [1, width]."""


class GateError(ValueError):
    """A gate matrix is not a square power-of-two unitary."""


class ZeroMassError(ValueError):
    """A measured register has no branch of probability above EPS_ZERO."""


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class GateAtom:
    """A named primitive gate with an explicit unitary matrix.

    What apply_gate reads of it is computed once and kept on it, in
    attributes that are not fields, so equality, hashing and repr never see
    them (like the register memos below): ``arity``; ``_columns``, per
    column c the (row, entry) pairs with a nonzero entry, or None for an
    identity matrix, which apply_gate skips; ``_rows``, per row r the
    (column, entry) pairs with a nonzero entry, in column order; and
    ``_moves_memo``, the scatter's tables by shift (see _moves), filled as
    shifts are asked for.  ``_hash`` keeps the hash of the fields, taken
    once the matrix is normalized, and ``__hash__`` returns it.
    """

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
        if not all(cmath.isfinite(z) for row in mat for z in row):
            raise GateError(f"gate {self.name}: matrix entry is not finite")
        object.__setattr__(self, "matrix", mat)
        u = np.array(mat, dtype=complex)
        with np.errstate(all="ignore"):  # a product past the float range is not close
            unitary = np.allclose(u @ u.conj().T, np.eye(n), atol=UNITARY_TOL, rtol=0.0)
        if not unitary:
            raise GateError(f"gate {self.name}: matrix is not unitary")
        object.__setattr__(self, "arity", arity)
        identity = all(mat[r][c] == (1 if r == c else 0) for r in range(n) for c in range(n))
        object.__setattr__(self, "_columns", None if identity else tuple(
            tuple((r, mat[r][c]) for r in range(n) if mat[r][c] != 0) for c in range(n)))
        object.__setattr__(self, "_rows", tuple(
            tuple((c, mat[r][c]) for c in range(n) if mat[r][c] != 0) for r in range(n)))
        object.__setattr__(self, "_moves_memo", {})
        object.__setattr__(self, "_hash", hash((self.name, mat)))

    def __hash__(self) -> int:
        return self._hash


def _moves(atom: GateAtom, right: int) -> tuple[int, int, tuple]:
    """The scatter's tables for a non-identity atom with ``right`` wires to
    its right: its block mask, the mask of the bits outside its block, and
    per column the (row << right, entry) moves.  Made once per shift and
    kept on the atom."""
    out = atom._moves_memo.get(right)
    if out is None:
        block = (1 << atom.arity) - 1
        out = atom._moves_memo[right] = (
            block, ~(block << right),
            tuple(tuple((r << right, z) for r, z in col) for col in atom._columns))
    return out


@dataclass(frozen=True)
class GateExpr:
    """Tensor composition of primitive gates, acting on ``arity`` wires.
    Its arity and hash are computed once, here."""

    atoms: tuple[GateAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise GateError("empty gate expression")
        object.__setattr__(self, "arity", sum(atom.arity for atom in self.atoms))
        object.__setattr__(self, "_hash", hash((self.atoms,)))

    def __hash__(self) -> int:
        return self._hash

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


# The attribute that keeps a register's key support (see _key_support).
# Like the memos of qlam.syntax it is not a field, so equality, hashing and
# repr never see it.
_SUPPORT = "_key_support_memo"
_UNSET = object()  # a memo not computed yet, where None is a result


def _kept(pairs: Iterable[tuple[int, complex]]
          ) -> tuple[tuple[tuple[int, complex], ...], tuple[int, ...] | None]:
    """The pairs whose amplitudes a register keeps, in the given order, and
    the key support of the register they make, from one pass.

    Each amplitude is kept as 0j + a (which turns a -0.0 part into 0.0),
    unless its modulus (inf past the float range) is EPS_ZERO or less.  The
    support is the indices of the kept amplitudes whose modulus exceeds
    KEY_AMP_THRESHOLD, or None when one lies within _KEY_BAND of it: d > B
    or d < -B is abs(d) > B for d = modulus - KEY_AMP_THRESHOLD.
    """
    kept = []
    support: list[int] | None = []
    for u, a in pairs:
        z = 0j + a
        try:
            m = abs(z)
        except OverflowError:
            m = math.inf
        if m > EPS_ZERO:
            kept.append((u, z))
            if support is not None:
                d = m - KEY_AMP_THRESHOLD
                if d > _KEY_BAND:
                    support.append(u)
                elif not d < -_KEY_BAND:
                    support = None
    return tuple(kept), None if support is None else tuple(support)


def _check_width(width: int) -> None:
    if width < 1:
        raise ValueError(f"register width must be >= 1, got {width}")
    if width > MAX_WIDTH:
        raise RegisterWidthError(
            f"register width {width} exceeds the maximum of {MAX_WIDTH} wires")


def _check_size(count: int) -> None:
    if count > MAX_AMPLITUDES:
        raise RegisterSizeError(
            f"register of {count} amplitudes exceeds the maximum of {MAX_AMPLITUDES}")


@dataclass(frozen=True)
class QubitValue:
    """Canonical sparse superposition over a ``width``-wire register.

    ``amps`` is given as (basis index, amplitude) pairs or as a dict, and
    holds the pairs sorted by index; duplicate indices are merged and the
    amplitudes ``_kept`` drops are gone at construction, so zero-amplitude
    summands never survive.  The key support ``_kept`` finds is kept on the
    register (see _key_support).  Normalization is not enforced here (the
    well-formedness checker reports it); every value produced by
    tensor/apply_gate/measure is unit norm.
    """

    width: int
    amps: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        width = self.width
        _check_width(width)
        dim = 1 << width
        amps = self.amps
        merged: dict[int, complex] = {}
        for u, a in (amps.items() if isinstance(amps, dict) else amps):
            if not 0 <= u < dim:
                raise ValueError(f"basis index {u} out of range for width {width}")
            merged[u] = merged.get(u, 0j) + complex(a)
        amps, support = _kept(sorted(merged.items()))
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, _SUPPORT, support)

    def norm_sq(self) -> float:
        return _probability(self.amps)

    def is_unit(self) -> bool:
        return abs(self.norm_sq() - 1.0) <= EPS_NORM


def _canonical(width: int, amps: tuple[tuple[int, complex], ...],
               support: tuple[int, ...] | None | object = _UNSET) -> QubitValue:
    """A register from pairs that are canonical already (indices distinct,
    sorted and in range; complex amplitudes of modulus above EPS_ZERO),
    built without canonicalizing them again, with its key support if the
    caller knows it."""
    q = object.__new__(QubitValue)
    object.__setattr__(q, "width", width)
    object.__setattr__(q, "amps", amps)
    if support is not _UNSET:
        object.__setattr__(q, _SUPPORT, support)
    return q


def _from_sorted(width: int, pairs: Iterable[tuple[int, complex]]) -> QubitValue:
    """A register from pairs whose indices are distinct, sorted and in
    range: the register QubitValue builds from them, key support included,
    without its merge and range check."""
    return _canonical(width, *_kept(pairs))


def _key_support(q: QubitValue) -> tuple[int, ...] | None:
    """The key support of q (see _kept), kept on the register.  Every
    register built by QubitValue or _from_sorted has it from its one pass,
    and factor_split's exact split hands the right factor its share of its
    parent's; any other register (a dense gate pass's, one built by
    _canonical) is read once here."""
    support = getattr(q, _SUPPORT, _UNSET)
    if support is _UNSET:
        support = _kept(q.amps)[1]
        object.__setattr__(q, _SUPPORT, support)
    return support


def basis_state(width: int, index: int) -> QubitValue:
    return QubitValue(width, ((index, 1 + 0j),))


def ket(bits: str) -> QubitValue:
    """Basis state from a bit string, wire 1 first: ket('01') is |01>."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bit string {bits!r}")
    return basis_state(len(bits), int(bits, 2))


def amps_close(a: QubitValue, b: QubitValue, tol: float) -> bool:
    """Amplitude-wise comparison with absolute tolerance per basis index; an
    index missing from one register counts as amplitude 0 there.  One merge
    pass over the two sorted amplitude tuples."""
    if a.width != b.width:
        return False
    xs, ys = a.amps, b.amps
    i = j = 0
    try:
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
    except OverflowError:  # a difference past the float range exceeds tol
        return False


def tensor(a: QubitValue, b: QubitValue) -> QubitValue:
    """Kronecker product; a occupies the left (more significant) wires."""
    width = a.width + b.width
    _check_width(width)
    _check_size(len(a.amps) * len(b.amps))
    return _from_sorted(width, [((ua << b.width) | ub, za * zb)
                                for ua, za in a.amps for ub, zb in b.amps])


def _scatter(g: GateExpr, q: QubitValue) -> dict[int, complex]:
    """apply_gate's amplitudes by scatter: per non-identity factor, each
    stored amplitude moves through the nonzero entries of its column.  A
    factor's output that keeps more than MAX_AMPLITUDES raises."""
    entries: dict[int, complex] = dict(q.amps)
    right = q.width
    for atom in g.atoms:
        right -= atom.arity
        if atom._columns is None:
            continue
        block, outside, moves = _moves(atom, right)
        new: dict[int, complex] = {}
        for u, a in entries.items():
            try:
                if abs(a) <= EPS_ZERO:  # cancelled in an earlier factor
                    continue
            except OverflowError:  # a modulus past the float range is kept
                pass
            base = u & outside
            for offset, z in moves[(u >> right) & block]:
                v = base | offset
                new[v] = new.get(v, 0j) + z * a
        if len(new) > MAX_AMPLITUDES:
            _check_size(sum(_modulus(a) > EPS_ZERO for a in new.values()))
        entries = new
    return entries


@np.errstate(all="ignore")
def _kept_vector(vec: np.ndarray) -> tuple[tuple[int, complex], ...]:
    """The (index, amplitude) pairs _kept keeps of a complex vector, found
    in numpy: 0j is added to every entry, and the moduli are np.hypot of the
    parts, which rounds as abs does, inf past the float range and NaN
    included (np.abs may differ in the last bit)."""
    vec = vec + 0j
    keep = np.flatnonzero(np.hypot(vec.real, vec.imag) > EPS_ZERO)
    return tuple(zip(keep.tolist(), vec[keep].tolist()))


@np.errstate(all="ignore")  # non-finite amplitudes pass silently, as in the scatter
def _dense(g: GateExpr, q: QubitValue) -> tuple[tuple[int, complex], ...]:
    """apply_gate's amplitudes by dense passes over a 2**width vector, as
    (index, amplitude) pairs in index order: per non-identity factor, each
    row of its block is the sum over the row's nonzero entries in column
    order, as the scatter adds them; what a factor cancels to EPS_ZERO or
    below is zeroed before the next one, the moduli taken as in
    _kept_vector.  The result is the pairs _kept_vector keeps."""
    vec = None
    right = q.width
    for atom in g.atoms:
        k = atom.arity
        right -= k
        if atom._columns is None:
            continue
        if vec is None:
            us, zs = zip(*q.amps)
            vec = np.zeros(1 << q.width, dtype=complex)
            vec[list(us)] = zs
        else:
            vec[np.hypot(vec.real, vec.imag) <= EPS_ZERO] = 0  # cancelled in an earlier factor
        src = vec.reshape(-1, 1 << k, 1 << right)
        out = np.empty_like(src)
        for r, ((c, z), *rest) in enumerate(atom._rows):
            row = out[:, r]
            np.multiply(src[:, c], z, out=row)
            for c, z in rest:
                row += z * src[:, c]
        vec = out.reshape(-1)
    if vec is None:
        return q.amps
    return _kept_vector(vec)


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
        columns = atom._columns
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
    if _use_dense(g, q):
        return _canonical(q.width, _dense(g, q))
    return _from_sorted(q.width, sorted(_scatter(g, q).items()))


# ---------------------------------------------------------------------------
# Measurement


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a projective measurement: word w, its probability, and
    the renormalized post-measurement register."""

    outcome: int
    probability: float
    post: QubitValue


# Gets a measurement's branch probabilities, in outcome-word order, and
# returns the indices of the branches to build.
Pick = Callable[[list[float]], Iterable[int]]


def measure(q: QubitValue, indices: frozenset[int] | set[int],
            pick: Pick | None = None) -> list[MeasurementOutcome]:
    """The measurement branches of the wires in ``indices`` with nonzero
    probability, in increasing outcome-word order: all of them, or the ones
    at the indices ``pick`` returns, whose post-states alone are built.

    Probabilities sum to 1 (within EPS_NORM) for a unit-norm register; each
    post-state is unit norm.  Branches with p <= EPS_ZERO are omitted since
    their post-state (a division by sqrt(p)) is undefined; if none is left,
    ZeroMassError is raised before ``pick`` is asked.  The amplitudes are
    bucketed by their bits at the measured wires in one pass in index
    order; a bucket's key is ``u & mask``, so sorted keys are in outcome-word
    order.
    """
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
    for pair in q.amps:
        key = pair[0] & mask
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [pair]
        else:
            bucket.append(pair)
    branches = []
    for key in sorted(buckets):
        entries = buckets[key]
        p = _probability(entries)
        if p > EPS_ZERO:
            branches.append((key, entries, p))
    if not branches:
        raise ZeroMassError(f"every branch of wires {idx} has probability <= {EPS_ZERO}")
    if pick is not None:
        branches = [branches[i] for i in pick([p for _, _, p in branches])]
    out = []
    for key, entries, p in branches:
        scale = 1.0 / math.sqrt(p)
        word = 0
        for i in idx:
            word = (word << 1) | ((key >> (q.width - i)) & 1)
        post = _from_sorted(q.width, [(u, a * scale) for u, a in entries])
        out.append(MeasurementOutcome(word, p, post))
    return out


# ---------------------------------------------------------------------------
# Product splitting


@np.errstate(all="ignore")  # amplitudes near the float limit fail the test silently
def _rank1(q: QubitValue) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rank-1 test behind factor_split: (left vector, right columns,
    right row) with q = left (x) right within EPS_NORM per basis index and
    the left vector of unit norm, or None.

    Rows are the bit of wire 1 of a basis index, columns the rest.  The
    pivot is the first amplitude of largest modulus; the left vector is its
    column (two entries) and the right row is its row divided by the pivot
    (sparse: the stored columns only).  Outside the right row's columns the
    outer product is zero, so there the residual is the stored modulus
    itself.  A residual that is NaN, or a left vector whose norm is past the
    float range, fails the test: amplitudes that large cannot be split in
    floats.
    """
    right_width = q.width - 1
    n = len(q.amps)
    us, zs = zip(*q.amps)
    index = np.fromiter(us, dtype=np.int64, count=n)
    amps = np.fromiter(zs, dtype=complex, count=n)
    rows = index >> right_width
    cols = index & ((1 << right_width) - 1)
    mags = np.abs(amps)
    p = int(mags.argmax())
    a_vec = np.zeros(2, dtype=complex)
    in_col = cols == cols[p]
    a_vec[rows[in_col]] = amps[in_col]
    in_row = rows == rows[p]
    b_cols = cols[in_row]
    b_vec = amps[in_row] / amps[p]
    slot = np.minimum(np.searchsorted(b_cols, cols), len(b_cols) - 1)
    hit = b_cols[slot] == cols
    if not hit.all() and mags[~hit].max() > EPS_NORM:
        return None
    stored = np.zeros((2, len(b_cols)), dtype=complex)
    stored[rows[hit], slot[hit]] = amps[hit]
    na = np.linalg.norm(a_vec)
    if not (np.abs(np.outer(a_vec, b_vec) - stored).max() <= EPS_NORM and np.isfinite(na)):
        return None
    return a_vec / na, b_cols, b_vec * na


# The attribute that keeps a register's split; like the other memos it is
# not a field, so equality, hashing and repr never see it.
_SPLIT = "_split_memo"


def _split(q: QubitValue) -> tuple[QubitValue, QubitValue] | None:
    """factor_split's result, worked out once and kept on q."""
    if q.width < 2:
        raise ValueError(f"cannot split wire 1 off a register of width {q.width}")
    split = getattr(q, _SPLIT, _UNSET)
    if split is not _UNSET:
        return split
    split = None
    right_width = q.width - 1
    if q.amps and q.amps[0][0] >> right_width == q.amps[-1][0] >> right_width:
        # indices are sorted: one row holds them all
        row = q.amps[0][0] >> right_width
        mask = (1 << right_width) - 1
        support = getattr(q, _SUPPORT, _UNSET)
        if support is not None and support is not _UNSET:
            support = tuple(u & mask for u in support)  # q's amplitudes: q's support, masked
        split = (_canonical(1, ((row, 1 + 0j),), (row,)),
                 _canonical(right_width, tuple([(u & mask, a) for u, a in q.amps]), support))
    elif q.amps and (parts := _rank1(q)) is not None:
        a_vec, b_cols, b_vec = parts
        first = np.flatnonzero(np.hypot(a_vec.real, a_vec.imag) > EPS_ZERO)[0]
        phase = a_vec[first] / abs(a_vec[first])
        split = (_from_sorted(1, list(enumerate((a_vec / phase).tolist()))),
                 _from_sorted(right_width, list(zip(b_cols.tolist(), (b_vec * phase).tolist()))))
    object.__setattr__(q, _SPLIT, split)
    return split


def is_product(q: QubitValue) -> bool:
    """Whether factor_split(q) succeeds."""
    return _split(q) is not None


def factor_split(q: QubitValue) -> tuple[QubitValue, QubitValue] | None:
    """Split wire 1 off q: q = a (x) b with a one wire wide, or None when q
    is entangled across that cut (or holds no amplitude).  A register of
    fewer than 2 wires is a ValueError.

    The left factor is unit norm and its lowest-index amplitude is made real
    positive, pushing any global phase (and q's norm) into the right factor.
    A register whose stored amplitudes share their wire-1 bit r splits
    exactly: |r> with amplitude 1, and the stored amplitudes with that bit
    dropped.
    """
    return _split(q)
