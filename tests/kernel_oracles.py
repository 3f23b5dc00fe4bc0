"""Reference implementations of the quantum kernels: the dense, per-factor
and per-word versions that ``qlam.quantum`` replaced with one-pass sparse
kernels.  They are kept only as test oracles.

- ``coincidence_set`` lists the basis indices whose measured bits spell an
  outcome word; ``measure_per_word`` scans every amplitude once per word.
- ``apply_gate_dense`` multiplies each factor's matrix into zero-padded
  buckets of the bits outside its wire block.
- ``factor_split_dense`` reshapes the register's ``densesim`` vector into
  a dense 2**left_width x 2**right_width matrix, so it must only see narrow
  registers.

``unitary_reference`` is GateAtom's unitary test in numpy: np.allclose of
U U^dagger with the identity, absolute tolerance UNITARY_TOL.

``gate`` tensors builtin gates by name, ``uniform_state`` builds the
equal superposition the tests measure and split, and
``key_support_reference`` reads a register's key support with one
comparison per amplitude against the band, the rule ``quantum.key_support``
must match.
"""

from __future__ import annotations

import math

import numpy as np

from qlam.densesim import from_amplitudes
from qlam.quantum import (
    AMP_TOL,
    BUILTIN_GATES,
    EPS_NORM,
    EPS_ZERO,
    ArityMismatchError,
    GateExpr,
    IndexOutOfRangeError,
    KEY_AMP_THRESHOLD,
    UNITARY_TOL,
    MeasurementOutcome,
    QubitValue,
)


def gate(*names: str) -> GateExpr:
    """Tensor of builtin gates by name, e.g. gate('H', 'I', 'I')."""
    return GateExpr(tuple(BUILTIN_GATES[n] for n in names))


def uniform_state(width: int) -> QubitValue:
    """The equal superposition of all 2**width basis states."""
    a = complex(1.0 / math.sqrt(1 << width))
    return QubitValue(width, tuple((u, a) for u in range(1 << width)))


def unitary_reference(matrix) -> bool:
    """Whether every entry of U U^dagger lies within UNITARY_TOL of the
    identity's (absolute), by np.allclose; a product past the float range
    is not close."""
    u = np.array(matrix, dtype=complex)
    with np.errstate(all="ignore"):
        return bool(np.allclose(u @ u.conj().T, np.eye(len(u)), atol=UNITARY_TOL, rtol=0))


def key_support_reference(q: QubitValue) -> tuple[int, ...] | None:
    """The indices of q whose amplitude modulus (inf past the float range)
    exceeds KEY_AMP_THRESHOLD, or None when one lies within twice AMP_TOL
    of it."""
    support = []
    for u, a in q.amps:
        try:
            modulus = abs(a)
        except OverflowError:
            modulus = math.inf
        if not abs(modulus - KEY_AMP_THRESHOLD) > 2 * AMP_TOL:
            return None
        if modulus > KEY_AMP_THRESHOLD:
            support.append(u)
    return tuple(support)


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


def measure_per_word(q: QubitValue, indices) -> list[MeasurementOutcome]:
    """measure, one coincidence set and one scan of the amplitudes per word."""
    idx = sorted(indices)
    if not idx:
        raise IndexOutOfRangeError("measured index set must be nonempty")
    if idx[0] < 1 or idx[-1] > q.width:
        raise IndexOutOfRangeError(
            f"measured indices {idx} not within [1, {q.width}]")
    outcomes = []
    for w in range(1 << len(idx)):
        keep = coincidence_set(w, q.width, indices)
        p = sum(m * m for m in (abs(a) for u, a in q.amps if u in keep))
        if p <= EPS_ZERO:
            continue
        scale = 1.0 / math.sqrt(p)
        post = QubitValue(q.width, {u: a * scale for u, a in q.amps if u in keep})
        outcomes.append(MeasurementOutcome(w, p, post))
    return outcomes


def apply_gate_dense(g: GateExpr, q: QubitValue) -> QubitValue:
    """apply_gate, factor by factor: a dense matrix product per bucket of the
    bits outside the factor's wire block."""
    if g.arity != q.width:
        raise ArityMismatchError(
            f"gate of arity {g.arity} applied to a width-{q.width} register")
    entries: dict[int, complex] = dict(q.amps)
    left = 0
    for atom in g.atoms:
        k = atom.arity
        right = q.width - left - k
        mat = np.array(atom.matrix, dtype=complex)
        size = 1 << k
        low_mask = (1 << right) - 1
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


def factor_split_dense(q: QubitValue, left_width: int) -> tuple[QubitValue, QubitValue] | None:
    """factor_split on the dense 2**left_width x 2**right_width matrix.  Its
    pivot and residuals are taken with Python's complex arithmetic and abs,
    as the kernel takes them: numpy's complex product may fuse multiply-adds
    and np.abs may differ in the last bit, and a residual of about EPS_NORM
    rests its verdict on that bit."""
    if not 0 < left_width < q.width:
        raise ValueError(f"split width {left_width} not inside (0, {q.width})")
    right_width = q.width - left_width
    mat = from_amplitudes(q.width, q.amps).vector.reshape((1 << left_width, 1 << right_width))
    rows = mat.tolist()
    flat = [z for row in rows for z in row]
    i_star, j_star = divmod(max(range(len(flat)), key=lambda k: abs(flat[k])), len(rows[0]))
    pivot = rows[i_star][j_star]
    if abs(pivot) <= EPS_ZERO:
        return None
    a_list = [row[j_star] for row in rows]
    b_list = [z / pivot for z in rows[i_star]]
    if max(abs(a * b - z) for a, row in zip(a_list, rows) for b, z in zip(b_list, row)) > EPS_NORM:
        return None
    a_vec, b_vec = np.array(a_list), np.array(b_list)
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
