"""Amplitude algebra for explicit qubit registers.

Registers are canonical sparse superpositions over computational basis
states: a width m and a map from basis index u in [0, 2**m) to a complex
amplitude.  Wire 1 is the most significant bit of a basis index, so the
m-bit binary word of u reads left to right as wires 1..m.

Gates are tensor compositions of named primitive unitaries and are applied
factor by factor on the sparse map.  Projective measurement of a wire set I
follows the Born rule: outcome word w occurs with probability equal to the
squared mass on the coincidence set of w, and the surviving amplitudes are
renormalized by 1/sqrt(p_w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

# Amplitudes at or below this modulus are treated as zero and dropped.
EPS_ZERO = 1e-12
# Tolerance for unit-norm checks (probabilities and amplitude vectors).
EPS_NORM = 1e-9
# Tolerance for U @ U.conj().T == identity.
UNITARY_TOL = 1e-9


class ArityMismatchError(ValueError):
    """Gate arity does not match the register width it is applied to."""


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
def _atom_matrix(atom: GateAtom) -> np.ndarray:
    mat = np.array(atom.matrix, dtype=complex)
    mat.flags.writeable = False
    return mat


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
        if self.width < 1:
            raise ValueError(f"register width must be >= 1, got {self.width}")
        items: Iterable[tuple[int, complex]]
        if isinstance(self.amps, Mapping):
            items = self.amps.items()
        else:
            items = self.amps
        merged: dict[int, complex] = {}
        for u, a in items:
            if not 0 <= u < (1 << self.width):
                raise ValueError(f"basis index {u} out of range for width {self.width}")
            merged[u] = merged.get(u, 0j) + complex(a)
        cleaned = tuple(sorted((u, a) for u, a in merged.items() if abs(a) > EPS_ZERO))
        object.__setattr__(self, "amps", cleaned)

    def amp(self, u: int) -> complex:
        for v, a in self.amps:
            if v == u:
                return a
        return 0j

    def support(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.amps)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for _, a in self.amps)

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


def apply_gate(g: GateExpr, q: QubitValue) -> QubitValue:
    """Apply the unitary of g to q, factor by factor on the sparse map."""
    if g.arity != q.width:
        raise ArityMismatchError(
            f"gate of arity {g.arity} applied to a width-{q.width} register")
    entries: dict[int, complex] = dict(q.amps)
    left = 0
    for atom in g.atoms:
        k = atom.arity
        right = q.width - left - k
        mat = _atom_matrix(atom)
        size = 1 << k
        low_mask = (1 << right) - 1
        # Group amplitudes by the bits outside this factor's wire block.
        buckets: dict[int, np.ndarray] = {}
        for u, a in entries.items():
            rest = ((u >> (right + k)) << right) | (u & low_mask)
            vec = buckets.get(rest)
            if vec is None:
                vec = buckets[rest] = np.zeros(size, dtype=complex)
            vec[(u >> right) & (size - 1)] = a
        new: dict[int, complex] = {}
        for rest, vec in buckets.items():
            out = mat @ vec
            hi = (rest >> right) << (right + k)
            lo = rest & low_mask
            for mid in range(size):
                z = out[mid]
                if abs(z) > EPS_ZERO:
                    new[hi | (mid << right) | lo] = z
        entries = new
        left += k
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


def coincidence_set(w: int, m: int, indices: frozenset[int] | set[int]) -> frozenset[int]:
    """Basis indices of an m-wire register whose bits at the measured wire
    positions spell the outcome word w.

    The j-th bit of w (most significant first) constrains the j-th smallest
    wire index in ``indices``.  The result always has 2**(m - |indices|)
    elements.
    """
    idx = sorted(indices)
    if not idx:
        raise IndexOutOfRangeError("measured index set must be nonempty")
    if idx[0] < 1 or idx[-1] > m:
        raise IndexOutOfRangeError(
            f"measured indices {idx} not within [1, {m}]")
    if not 0 <= w < (1 << len(idx)):
        raise ValueError(f"outcome word {w} out of range for {len(idx)} wires")
    fixed = 0
    for j, i in enumerate(idx):
        bit = (w >> (len(idx) - 1 - j)) & 1
        fixed |= bit << (m - i)
    free_shifts = [m - i for i in range(1, m + 1) if i not in set(idx)]
    out = set()
    for assign in range(1 << len(free_shifts)):
        u = fixed
        for k, shift in enumerate(free_shifts):
            if (assign >> k) & 1:
                u |= 1 << shift
        out.add(u)
    return frozenset(out)


def measure(q: QubitValue, indices: frozenset[int] | set[int]) -> list[MeasurementOutcome]:
    """All measurement branches of the wires in ``indices`` with nonzero
    probability, in increasing outcome-word order.

    Probabilities sum to 1 (within EPS_NORM) for a unit-norm register; each
    post-state is unit norm.  Branches with p <= EPS_ZERO are omitted since
    their post-state (a division by sqrt(p)) is undefined.
    """
    idx = sorted(indices)
    if not idx:
        raise IndexOutOfRangeError("measured index set must be nonempty")
    if idx[0] < 1 or idx[-1] > q.width:
        raise IndexOutOfRangeError(
            f"measured indices {idx} not within [1, {q.width}]")
    outcomes = []
    for w in range(1 << len(idx)):
        keep = coincidence_set(w, q.width, indices)
        p = sum(abs(a) ** 2 for u, a in q.amps if u in keep)
        if p <= EPS_ZERO:
            continue
        scale = 1.0 / math.sqrt(p)
        post = QubitValue(q.width, {u: a * scale for u, a in q.amps if u in keep})
        outcomes.append(MeasurementOutcome(w, p, post))
    return outcomes


def factor_split(q: QubitValue, left_width: int,
                 tol: float = EPS_NORM) -> tuple[QubitValue, QubitValue] | None:
    """Split q into a product a (x) b with a of ``left_width`` wires.

    Returns None when q is entangled across the cut.  Both factors are unit
    norm and the left factor's lowest-index amplitude is made real positive,
    pushing any global phase into the right factor.
    """
    if not 0 < left_width < q.width:
        raise ValueError(f"split width {left_width} not inside (0, {q.width})")
    right_width = q.width - left_width
    mat = q.to_dense().reshape((1 << left_width, 1 << right_width))
    i_star, j_star = np.unravel_index(np.argmax(np.abs(mat)), mat.shape)
    pivot = mat[i_star, j_star]
    if abs(pivot) <= EPS_ZERO:
        return None
    a_vec = mat[:, j_star].copy()
    b_vec = mat[i_star, :] / pivot
    if np.max(np.abs(np.outer(a_vec, b_vec) - mat)) > tol:
        return None
    na = np.linalg.norm(a_vec)
    a_vec /= na
    b_vec *= na
    first = np.flatnonzero(np.abs(a_vec) > EPS_ZERO)[0]
    phase = a_vec[first] / abs(a_vec[first])
    a_vec /= phase
    b_vec *= phase
    left = QubitValue(left_width, {u: complex(z) for u, z in enumerate(a_vec)})
    right = QubitValue(right_width, {u: complex(z) for u, z in enumerate(b_vec)})
    return left, right
