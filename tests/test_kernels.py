"""The one-pass kernels of ``qlam.quantum`` against the dense and per-word
reference implementations in ``kernel_oracles``."""

import dataclasses
import math
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

import qlam.quantum as quantum
from qlam.quantum import (
    BUILTIN_GATES,
    DENSE_MAX_WIDTH,
    DENSE_MIN_WIDTH,
    EPS_NORM,
    EPS_ZERO,
    KEY_AMP_THRESHOLD,
    MAX_WIDTH,
    UNITARY_TOL,
    GateAtom,
    GateError,
    GateExpr,
    QubitValue,
    RegisterSizeError,
    RegisterWidthError,
    ZeroMassError,
    amps_close,
    apply_gate,
    basis_state,
    factor_split,
    is_product,
    ket,
    measure,
    tensor,
)

from qlam.syntax import QubitConst, shape_key

from kernel_oracles import (
    apply_gate_dense,
    factor_split_dense,
    gate,
    key_support_reference,
    measure_per_word,
    uniform_state,
    unitary_reference,
)


@st.composite
def register(draw, min_width: int = 1, max_width: int = 9):
    """A unit-norm register of 1..64 stored amplitudes, or a uniform state."""
    width = draw(st.integers(min_width, max_width))
    dim = 1 << width
    if draw(st.integers(0, 9)) == 0:
        return uniform_state(width)
    support = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=min(64, dim)))
    parts = st.floats(-1, 1, allow_nan=False)
    raw = [complex(draw(parts), draw(parts)) for _ in support]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    if norm < 1e-3:
        return basis_state(width, min(support))
    return QubitValue(width, {u: a / norm for u, a in zip(sorted(support), raw)})


@st.composite
def builtin_gate(draw, width: int):
    """A random tensor of builtin gates of total arity ``width``."""
    atoms = []
    left = width
    while left:
        names = ["H", "X", "Z", "I"] + (["cnot"] if left >= 2 else [])
        atom = BUILTIN_GATES[draw(st.sampled_from(names))]
        atoms.append(atom)
        left -= atom.arity
    return GateExpr(tuple(atoms))


# ---------------------------------------------------------------------------
# register construction


def test_dict_and_pairs_build_the_same_register():
    """Both paths drop amplitudes at or below EPS_ZERO and turn negative
    zeros into positive ones."""
    pairs = [(3, complex(-0.0, 0.6)), (0, complex(0.8, -0.0)), (1, 1e-13)]
    from_dict = QubitValue(2, dict(pairs))
    assert from_dict == QubitValue(2, pairs)
    assert from_dict.amps == ((0, 0.8 + 0j), (3, 0.6j))
    assert math.copysign(1.0, from_dict.amps[0][1].imag) == 1.0
    assert math.copysign(1.0, from_dict.amps[1][1].real) == 1.0


_AMPLITUDE_PARTS = st.one_of(st.floats(-1, 1, allow_nan=False), st.sampled_from(
    [0.0, -0.0, 1e-13, -1e-12, 1e-12 * (1 + 2**-52), 1e308, -1.5e308, math.inf]))


@given(st.integers(1, 6), st.data())
def test_sorted_pairs_build_the_register_qubitvalue_builds(width, data):
    """The kernels' constructor keeps, drops and sign-normalizes each
    amplitude exactly as QubitValue does, bit for bit, including a modulus
    past the float range."""
    support = sorted(data.draw(st.sets(st.integers(0, (1 << width) - 1), max_size=8)))
    pairs = [(u, complex(data.draw(_AMPLITUDE_PARTS), data.draw(_AMPLITUDE_PARTS)))
             for u in support]
    got = quantum._from_sorted(width, pairs)
    want = QubitValue(width, pairs)
    assert got.width == want.width
    assert repr(got.amps) == repr(want.amps)


def test_dict_register_keeps_the_range_check():
    with pytest.raises(ValueError, match="basis index 4 out of range for width 2"):
        QubitValue(2, {0: 1.0, 4: 0.0})
    with pytest.raises(ValueError, match="basis index -1 out of range"):
        QubitValue(2, {-1: 1.0})


def test_register_width_limit():
    assert QubitValue(MAX_WIDTH, {(1 << MAX_WIDTH) - 1: 1.0}).width == MAX_WIDTH
    with pytest.raises(RegisterWidthError, match=f"maximum of {MAX_WIDTH} wires"):
        QubitValue(MAX_WIDTH + 1, {0: 1.0})
    with pytest.raises(RegisterWidthError):
        tensor(basis_state(MAX_WIDTH, 0), ket("0"))


def test_tensor_size_limit_fails_before_building(monkeypatch):
    monkeypatch.setattr(quantum, "MAX_AMPLITUDES", 8)
    monkeypatch.setattr(quantum, "_from_sorted", None)  # building would raise TypeError
    three = QubitValue(2, {0: 0.6, 1: 0.8, 3: 1e-3})
    with pytest.raises(RegisterSizeError, match="register of 9 amplitudes exceeds the maximum of 8"):
        tensor(three, three)


def test_scatter_size_limit_counts_what_a_factor_keeps(monkeypatch):
    """A factor whose output keeps more than MAX_AMPLITUDES fails; one whose
    output cancels back to the limit does not, though it adds more keys."""
    monkeypatch.setattr(quantum, "MAX_AMPLITUDES", 4)
    assert 3 < DENSE_MIN_WIDTH  # the scatter pass
    with pytest.raises(RegisterSizeError, match="register of 8 amplitudes"):
        apply_gate(gate("H", "H", "H"), ket("000"))
    back = apply_gate(gate("H", "H", "I"), uniform_state(3))
    assert amps_close(back, QubitValue(3, {0: 2 ** -0.5, 1: 2 ** -0.5}), 1e-12)
    assert len(apply_gate(gate("H", "H", "I"), ket("000")).amps) == 4


# ---------------------------------------------------------------------------
# apply_gate


@st.composite
def unitary_atom(draw, arity: int):
    """A random unitary on ``arity`` wires with complex entries and dense
    columns (the QR factor of a complex Gaussian matrix), or for arity 0 a
    phase [[z]] with |z| = 1."""
    if arity == 0:
        z = draw(st.sampled_from([-1, 1j, complex(math.cos(0.3), math.sin(0.3))]))
        return GateAtom("P", ((z,),))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = 1 << arity
    qr, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    u = qr * (np.diag(r) / np.abs(np.diag(r)))
    return GateAtom("U", tuple(tuple(complex(z) for z in row) for row in u))


@given(st.integers(1, 3), st.data())
def test_unitary_check_matches_numpy_oracle(arity, data):
    """A random unitary of 1-3 wires with one entry moved by 0.5 to 2 times
    UNITARY_TOL is a gate exactly when the numpy oracle says it is unitary.
    Draws within 1e-14 of the tolerance are left out: there the oracle's
    BLAS product may fuse multiply-adds and round the other way."""
    matrix = [list(row) for row in data.draw(unitary_atom(arity)).matrix]
    r, c = data.draw(st.tuples(*[st.integers(0, len(matrix) - 1)] * 2))
    size = UNITARY_TOL * data.draw(st.sampled_from([0.5, 0.9, 1.1, 2.0]))
    angle = data.draw(st.floats(0, 2 * math.pi))
    matrix[r][c] += size * complex(math.cos(angle), math.sin(angle))
    u = np.array(matrix)
    off = np.abs(u @ u.conj().T - np.eye(len(u))).max()
    assume(abs(off - UNITARY_TOL) > 1e-14)
    try:
        GateAtom("U", tuple(map(tuple, matrix)))
    except GateError:
        assert not unitary_reference(matrix)
    else:
        assert unitary_reference(matrix)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e154, 1e200, 2.0**1023])
def test_unitary_check_past_the_float_range(x):
    """An entry whose products pass the float range, on the diagonal or off
    it as a complex entry whose modulus may pass it too, is not unitary: a
    GateError, with no warning and no OverflowError, as the oracle says."""
    for matrix in (((x, 0j), (0j, 1 + 0j)), ((1 + 0j, 0j), (complex(x, x), 1 + 0j))):
        assert not unitary_reference(matrix)
        with pytest.raises(GateError, match="not unitary"):
            GateAtom("G", matrix)


def _both_passes(g: GateExpr, q: QubitValue) -> list[QubitValue]:
    """apply_gate, then its scatter and its dense pass each forced."""
    return [apply_gate(g, q), QubitValue(q.width, quantum._scatter(g, q)),
            QubitValue(q.width, quantum._dense(g, q))]


@given(st.data())
def test_apply_gate_matches_dense_oracle(data):
    """Bit-identical amplitudes to the per-bucket matrix product, through
    apply_gate and through each of its passes whichever it would choose:
    with builtin gates every output sums at most two terms, so the order of
    the sum does not show."""
    q = data.draw(register(max_width=10))
    g = data.draw(builtin_gate(q.width))
    want = apply_gate_dense(g, q)
    assert _both_passes(g, q) == [want] * 3


@given(st.data())
@settings(max_examples=60)
def test_apply_gate_matches_dense_oracle_on_any_unitary(data):
    """Random unitaries with complex entries, dense columns and 0-arity
    phases: both passes agree with the oracle within 1e-12 (a sum of more
    than two terms may round differently in another order)."""
    q = data.draw(register(max_width=7))
    atoms = []
    left = q.width
    while left:
        atoms.append(data.draw(unitary_atom(data.draw(st.integers(1, min(2, left))))))
        left -= atoms[-1].arity
    for _ in range(data.draw(st.integers(0, 2))):
        atoms.insert(data.draw(st.integers(0, len(atoms))), data.draw(unitary_atom(0)))
    g = GateExpr(tuple(atoms))
    want = apply_gate_dense(g, q)
    for got in _both_passes(g, q):
        assert amps_close(got, want, 1e-12)


def test_apply_gate_chooses_by_size():
    """Dense where the scatter would make many moves; the scatter on narrow
    registers, on sparse work and above DENSE_MAX_WIDTH."""
    wide = DENSE_MAX_WIDTH - 4
    assert quantum._use_dense(gate(*["H"] * wide), basis_state(wide, 0))
    assert quantum._use_dense(gate(*["X"] * wide), uniform_state(wide))
    assert not quantum._use_dense(gate("H", *["I"] * (wide - 1)), basis_state(wide, 0))
    assert not quantum._use_dense(gate(*["X"] * wide), basis_state(wide, 3))
    narrow = DENSE_MIN_WIDTH - 1
    assert not quantum._use_dense(gate(*["H"] * narrow), uniform_state(narrow))
    dense3 = GateAtom("U", tuple(tuple(complex(z) for z in row)
                                 for row in np.linalg.qr(np.ones((8, 8)) + np.eye(8))[0]))
    assert not quantum._use_dense(GateExpr((dense3,)), uniform_state(narrow))
    over = DENSE_MAX_WIDTH + 1
    assert not quantum._use_dense(gate(*["H"] * over), basis_state(over, 0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amps", [{0: complex(math.inf, 0), 3: 1.0}, {0: 1e308, 1: 1e308, 7: 1.0}])
def test_apply_gate_passes_agree_past_the_float_range(amps):
    """Amplitudes past the float range go through both passes the same way
    and without a numpy warning."""
    q = QubitValue(8, amps)
    for g in (gate(*["H"] * 8), gate("H", *["I"] * 7)):
        assert len({tuple(dict(got.amps)) for got in _both_passes(g, q)}) == 1


def test_apply_gate_on_a_sparse_60_wire_register(tmp_path, capsys):
    """H on wire 1 of a 60-wire basis state stays on the scatter: two
    amplitudes, through apply_gate and through `qlam run`."""
    from qlam.cli import main

    width = 60
    start = time.perf_counter()
    got = apply_gate(gate("H", *["I"] * (width - 1)), basis_state(width, 5))
    assert time.perf_counter() - start < 1.0
    assert [u for u, _ in got.amps] == [5, (1 << (width - 1)) | 5]
    path = tmp_path / "wide.qlam"
    path.write_text(f"main = ({'*'.join(['H'] + ['I'] * (width - 1))}) !|{'0' * width}>;\n")
    start = time.perf_counter()
    code = main(["run", str(path)])
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("!|") == 2


def test_apply_gate_drops_what_a_factor_cancels():
    """The first H leaves about 7e-14 on |10>, below EPS_ZERO: it is dropped
    before the second H adds |10> and |11>, as the dense oracle drops it."""
    q = QubitValue(2, {0: 0.5, 1: 0.5, 2: 0.5 + 1e-13, 3: -0.5})
    got = apply_gate(gate("H", "H"), q)
    assert got == apply_gate_dense(gate("H", "H"), q)
    amps = dict(got.amps)
    assert amps.get(2, 0j) == -amps.get(3, 0j)


def _seeded_register(width: int, seed: int) -> QubitValue:
    """A unit-norm register of up to 16 stored complex amplitudes."""
    rng = np.random.default_rng(seed)
    support = rng.choice(1 << width, size=min(16, 1 << width), replace=False)
    raw = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    raw /= np.linalg.norm(raw)
    return QubitValue(width, dict(zip(support.tolist(), raw.tolist())))


def test_one_atom_object_serves_every_shift():
    """The scatter's move tables are kept on the atom per shift.  One
    builtin atom object at every shift of widths 1-10, alone or at every
    shift of one expression, and a user atom equal to it by value, give
    both passes the dense oracle's amplitudes bit for bit."""
    hadamard, cnot, ident = BUILTIN_GATES["H"], BUILTIN_GATES["cnot"], BUILTIN_GATES["I"]
    user = GateAtom("H", hadamard.matrix)
    assert user == hadamard and hash(user) == hash(hadamard) and user is not hadamard
    for width in range(1, 11):
        q = _seeded_register(width, width)
        exprs = [GateExpr((hadamard,) * width),
                 GateExpr(tuple((user, hadamard)[i % 2] for i in range(width)))]
        for atom in (hadamard, user, BUILTIN_GATES["X"], cnot):
            for left in range(width - atom.arity + 1):
                exprs.append(GateExpr((ident,) * left + (atom,)
                                      + (ident,) * (width - left - atom.arity)))
        for g in exprs:
            assert _both_passes(g, q) == [apply_gate_dense(g, q)] * 3
    assert set(hadamard._moves_memo) >= set(range(10))
    assert user._moves_memo is not hadamard._moves_memo


def test_gate_memos_leave_equality_hash_and_repr():
    """An atom and an expression whose tables were made and used still
    equal, hash and print as fresh copies: arity and the tables are not
    fields."""
    def fresh() -> GateExpr:
        return GateExpr((GateAtom("H", BUILTIN_GATES["H"].matrix), BUILTIN_GATES["cnot"]))

    g = fresh()
    atom = g.atoms[0]
    before = repr(g), hash(g), repr(atom), hash(atom)
    q = _seeded_register(3, 0)
    assert _both_passes(g, q) == [apply_gate_dense(g, q)] * 3
    assert atom._moves_memo and g.arity == 3  # the memos are there
    assert {"arity", "_columns", "_rows", "_moves_memo"} <= set(vars(atom))
    assert [f.name for f in dataclasses.fields(GateAtom)] == ["name", "matrix"]
    assert [f.name for f in dataclasses.fields(GateExpr)] == ["atoms"]
    assert (repr(g), hash(g), repr(atom), hash(atom)) == before
    copy = fresh()
    assert g == copy and copy == g and atom == copy.atoms[0]
    assert (repr(copy), hash(copy)) == (repr(g), hash(g))
    assert dataclasses.replace(g, atoms=g.atoms[:1]).arity == 1


def test_gate_hash_is_kept_and_follows_the_fields():
    """An atom and an expression hash once, at construction, to the hash
    of their fields: two equal expressions built separately hash alike,
    and an atom with the same matrix under another name is another gate."""
    hadamard, cnot = BUILTIN_GATES["H"], BUILTIN_GATES["cnot"]

    def built() -> GateExpr:
        return GateExpr((GateAtom("cnot", cnot.matrix), GateAtom("H", hadamard.matrix)))

    a, b = built(), built()
    assert a == b and a is not b and hash(a) == hash(b)
    assert hash(a) == hash(GateExpr((cnot, hadamard))) == hash((a.atoms,)) == a._hash
    atom = a.atoms[1]
    assert hash(atom) == hash((atom.name, atom.matrix)) == atom._hash
    # the matrix is normalized to complex entries before it is hashed
    assert hash(GateAtom("X", ((0, 1), (1, 0)))) == hash(BUILTIN_GATES["X"])
    renamed = GateAtom("Hadamard", hadamard.matrix)
    assert renamed != hadamard and renamed.matrix == hadamard.matrix
    assert GateExpr((renamed,)) != GateExpr((hadamard,))


def test_apply_gate_skips_identity_factors():
    q = QubitValue(3, {1: 0.6, 6: 0.8j})
    assert apply_gate(GateExpr((BUILTIN_GATES["I"],) * 3), q) == q


# The amplitude the first H of H*H*I*I leaves on |0000> of _AT_EPS_ZERO_REGISTER:
# abs and np.hypot give it a modulus one ulp above EPS_ZERO, np.abs EPS_ZERO.
_AT_EPS_ZERO = complex(1.3061603022962767e-12, -5.421671925755923e-13) * complex(quantum._S2)
_AT_EPS_ZERO_REGISTER = QubitValue(4, ((0, complex(1.3061603022962767e-12, -5.421671925755923e-13)),
                                       (4, 0.6 + 0j), (12, 0.8 + 0j)))


def test_apply_gate_passes_agree_at_eps_zero():
    """Both passes keep the amplitude one ulp above EPS_ZERO, so the second
    H adds it into |0000> in both, bit for bit."""
    g = gate("H", "H", "I", "I")
    assert abs(_AT_EPS_ZERO) > EPS_ZERO >= np.abs(np.array([_AT_EPS_ZERO]))[0]
    got = [repr(r.amps) for r in _both_passes(g, _AT_EPS_ZERO_REGISTER)]
    assert got == [repr(apply_gate_dense(g, _AT_EPS_ZERO_REGISTER).amps)] * 3
    assert _both_passes(g, _AT_EPS_ZERO_REGISTER)[0].amps[0] == (
        0, complex(0.7000000000006529, -2.710835962877961e-13))


# Parts at the edges of the keep rule: signed zeros, the parts of
# _AT_EPS_ZERO, parts past the float range, and NaN.
_EDGE_PARTS = st.one_of(st.floats(-1, 1), st.sampled_from(
    [0.0, -0.0, _AT_EPS_ZERO.real, _AT_EPS_ZERO.imag, EPS_ZERO, 1e308, -1e308, math.inf,
     math.nan]))
_EDGE_VALUES = [_AT_EPS_ZERO, complex(-0.0, -0.0), complex(1e308, 1e308), complex(math.nan, 0.5)]


@given(st.lists(st.builds(complex, _EDGE_PARTS, _EDGE_PARTS), max_size=12))
def test_numpy_keep_rule_is_kept(values):
    """The dense pass's keep rule keeps, drops and sign-normalizes each
    amplitude as _kept does, bit for bit, in a vector of any length (numpy
    may take another loop for a short one)."""
    values = values + _EDGE_VALUES
    for vec in [values] + [[z] for z in values]:
        got = quantum._kept_vector(np.array(vec, dtype=complex))
        assert repr(got) == repr(quantum._kept(list(enumerate(vec))))


@given(st.one_of(st.complex_numbers(allow_nan=True, allow_infinity=True),
                 st.builds(complex, _EDGE_PARTS, _EDGE_PARTS), st.sampled_from(_EDGE_VALUES)))
def test_hypot_is_the_modulus_abs_gives(z):
    """The dense pass's keep rule rests on this: np.hypot of the parts is
    abs's modulus bit for bit (inf where abs overflows).  A platform where
    they differ fails here rather than changing outputs."""
    with np.errstate(all="ignore"):
        got = float(np.hypot(z.real, z.imag))
    want = quantum._modulus(z)
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# measure


@given(register(), st.data())
def test_measure_matches_per_word_oracle(q, data):
    """Identical outcome words, probabilities and post amplitudes."""
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1))
    assert measure(q, indices) == measure_per_word(q, indices)


@given(register(), st.data())
def test_measure_builds_the_branches_pick_returns(q, data):
    """pick sees every branch probability, in outcome-word order, and
    measure returns the branches at the indices it returns, in its order."""
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1))
    every = measure(q, indices)
    chosen = data.draw(st.lists(st.integers(0, len(every) - 1), max_size=4))
    seen = []
    got = measure(q, indices, lambda ps: seen.append(ps) or chosen)
    assert seen == [[o.probability for o in every]]
    assert got == [every[i] for i in chosen]


def test_measure_builds_no_branch_pick_leaves_out(monkeypatch):
    built = []
    monkeypatch.setattr(quantum, "MeasurementOutcome", lambda *args: built.append(args[0]))
    measure(uniform_state(4), {1, 2, 3}, lambda ps: ())
    assert built == []
    measure(uniform_state(4), {1, 2, 3}, lambda ps: [5, 2])
    assert built == [5, 2]


def test_measure_leaves_out_zero_probability_words():
    q = QubitValue(2, {0: 1.0, 3: 1e-7})
    assert [o.outcome for o in measure(q, {1})] == [0]
    assert len(measure(uniform_state(3), {1, 3})) == 4


@given(register(min_width=6, max_width=12), st.data())
def test_measure_matches_per_word_oracle_bit_for_bit(q, data):
    """Probabilities and post-state amplitudes repr for repr, on registers
    of 6-12 wires."""
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1, max_size=3))

    def reprs(outcomes):
        return [(o.outcome, repr(o.probability), repr(o.post.amps)) for o in outcomes]

    assert reprs(measure(q, indices)) == reprs(measure_per_word(q, indices))


def test_measure_past_the_float_range():
    """A squared modulus past the float range is inf, not OverflowError."""
    q = QubitValue(2, {0: 1e200, 3: 1.0})
    assert [(o.outcome, o.probability) for o in measure(q, {1})] == [(0, math.inf), (1, 1.0)]


# ---------------------------------------------------------------------------
# factor_split


def _same_split(q: QubitValue) -> None:
    got = factor_split(q)
    want = factor_split_dense(q, 1)
    assert (got is None) == (want is None)
    assert is_product(q) == (want is not None)
    if want is not None:
        for mine, ref in zip(got, want):
            assert mine.width == ref.width
            assert dict(mine.amps).keys() == dict(ref.amps).keys()
            assert amps_close(mine, ref, 1e-12)


@given(register(min_width=2))
def test_factor_split_matches_dense_oracle_on_any_register(q):
    """Mostly entangled registers: the same decision."""
    _same_split(q)


@given(register(max_width=1), register(max_width=10))
def test_factor_split_matches_dense_oracle_on_products(a, b):
    """Unit-norm factors, the right one of up to 10 wires: near unit norm
    every residual's rounding lies far below EPS_NORM, so the verdict does
    not rest on how the product rounds (near 1e150 it would)."""
    q = tensor(a, b)
    assert factor_split(q) is not None
    _same_split(q)


@given(st.one_of(st.text("01", min_size=1, max_size=1).map(ket), register(max_width=1)),
       register(max_width=10), st.data())
@settings(max_examples=100)
def test_factor_split_matches_dense_oracle_near_tolerance(a, b, data):
    """A product moved by a residual of about EPS_NORM at one basis index,
    stored or not, splits or not exactly as the dense oracle decides.  With
    a ket on the left the product is one row: a nudge on that row keeps it
    one row, a nudge off it falls back to the rank-1 test.  A nudge of
    exactly EPS_NORM makes the verdict the last bit of a residual, which the
    oracle rounds as the kernel does."""
    q = tensor(a, b)
    u = data.draw(st.integers(0, (1 << q.width) - 1))
    size = EPS_NORM * data.draw(st.sampled_from([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]))
    angle = data.draw(st.floats(0, 2 * math.pi))
    nudged = QubitValue(q.width, list(q.amps) + [(u, size * complex(math.cos(angle),
                                                                    math.sin(angle)))])
    _same_split(nudged)


@pytest.mark.parametrize("amps", [{0: 1e308 + 1e308j, 2: 1j}, {0: 2.0**1023, 2: 2.0**1023}])
def test_no_rank1_split_past_the_float_range(amps):
    """A NaN residual (a pivot of infinite modulus) and a left vector whose
    norm is past the float range both fail the rank-1 test, so is_product
    and factor_split agree and neither raises."""
    q = QubitValue(2, amps)
    with np.errstate(all="ignore"):
        assert not is_product(q)
        assert factor_split(q) is None


@pytest.mark.parametrize("amps", [{0: 1e308 + 1e308j, 2: 1j}, {0: 2.0**1023, 2: 2.0**1023}])
def test_rank1_past_the_float_range_warns_nothing(amps):
    q = QubitValue(2, amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_product(q)
        assert factor_split(q) is None


def test_one_row_register_splits_exactly(monkeypatch):
    """Stored amplitudes that share their left bits r split into |r> with
    amplitude exactly 1 and the stored amplitudes unchanged, without the
    rank-1 test."""
    monkeypatch.setattr(quantum, "_rank1", None)  # calling it would raise
    amps = {0b10001: complex(0.6, 1e-17) / 3, 0b10110: 0.8 / 3 + 0j,
            0b10111: complex(-2, 2 ** 0.5) / 3}
    q = QubitValue(5, amps)
    assert is_product(q)
    left, right = factor_split(q)
    assert left.amps == ((0b1, 1 + 0j),)
    assert right.amps == tuple((u & 0b1111, a) for u, a in q.amps)
    assert right == QubitValue(4, {u & 0b1111: a for u, a in amps.items()})


def test_factor_split_of_a_wide_basis_state():
    """Width 40 splits without a 2**40 array (the dense oracle could not)."""
    q = basis_state(40, 0)
    assert is_product(q)
    assert factor_split(q) == (ket("0"), basis_state(39, 0))
    left, right = factor_split(basis_state(40, (1 << 39) | 5))
    assert left == ket("1") and right == basis_state(39, 5)


def test_factor_split_ignores_entries_below_tolerance():
    """A stored amplitude off the product's support but within the tolerance
    does not stop the split."""
    q = QubitValue(2, {0: 1.0, 3: EPS_NORM / 2})
    assert EPS_NORM / 2 > EPS_ZERO
    _same_split(q)
    assert factor_split(q) == (ket("0"), ket("0"))


# ---------------------------------------------------------------------------
# key supports, read when a shape key asks for them

# Parts on, inside and outside the key band around KEY_AMP_THRESHOLD (2e-9
# wide, 2e-3 relative), and parts past the float range.
_KEY_PARTS = st.one_of(st.floats(-1, 1), st.sampled_from(
    [KEY_AMP_THRESHOLD * f for f in (1, 1 + 1e-3, 1 - 1e-3, 1 + 3e-3, 1 - 3e-3)]
    + [0.0, -0.0, 1e-13, 1e308]))


def _gate_passes(g: GateExpr, q: QubitValue) -> list[QubitValue]:
    """apply_gate's registers with its scatter pass and, on a register that
    stores an amplitude, its dense pass each forced."""
    out = []
    for dense in (False, True) if q.amps else (False,):
        with mock.patch.object(quantum, "_use_dense", lambda *_: dense):
            out.append(apply_gate(g, q))
    return out


def _built_from(q: QubitValue) -> list[QubitValue]:
    """What the kernels build from q: both passes of two gates, the
    post-states of its first and last wire, and its split."""
    out = (_gate_passes(gate(*["H"] * q.width), q)
           + _gate_passes(gate("X", *["I"] * (q.width - 1)), q))
    try:
        out += [o.post for o in measure(q, {1})] + [o.post for o in measure(q, {q.width})]
    except ZeroMassError:
        pass
    if q.width > 1:
        out += factor_split(q) or ()
    return out


@given(st.integers(1, 6), st.data())
def test_kernels_hand_over_the_key_support_a_fresh_copy_reads(width, data):
    """Every register QubitValue, both gate passes, measure and both kinds
    of split build has the key support the per-amplitude reference reads,
    None near the threshold included, and the one a fresh copy of it reads.
    One row of amplitudes makes the split exact."""
    dim = 1 << width
    row = data.draw(st.integers(0, dim - 1)) & ~((1 << (width - 1)) - 1)
    indices = data.draw(st.one_of(
        st.sets(st.integers(0, dim - 1), max_size=8),
        st.sets(st.integers(row, row + (1 << (width - 1)) - 1), max_size=8)))
    pairs = [(u, complex(data.draw(_KEY_PARTS), data.draw(_KEY_PARTS))) for u in sorted(indices)]
    q = QubitValue(width, pairs)
    with np.errstate(all="ignore"):  # the rank-1 test on amplitudes near the float limit
        built = [q] + _built_from(q)
    for got in built:
        want = key_support_reference(got)
        assert quantum.key_support(got) == want
        assert quantum.key_support(quantum._canonical(got.width, got.amps)) == want


def test_exact_split_hands_over_none_near_the_threshold():
    q = QubitValue(3, {0b100: 0.5, 0b101: KEY_AMP_THRESHOLD, 0b111: 0.5})
    assert quantum.key_support(q) is None
    left, right = factor_split(q)
    assert quantum.key_support(left) == (0b1,)
    assert quantum.key_support(right) is None
    q = QubitValue(3, {0b100: 0.6, 0b101: 1e-7, 0b111: 0.8})
    assert quantum.key_support(factor_split(q)[1]) == (0b00, 0b11)


def test_no_register_holds_a_key_support_until_a_shape_key_reads_it():
    """QubitValue, tensor, both gate passes, measure and both kinds of
    split build registers with no support memo; shape_key reads the
    support once and keeps it on the register."""
    q = QubitValue(4, {0b0101: 0.6, 0b1101: 0.8j})  # both rows: the rank-1 split
    exact = ket("1011")  # one row: the exact split
    built = [q, exact, tensor(q, exact)] + _built_from(q) + _built_from(exact)
    assert [quantum._SUPPORT in vars(r) for r in built] == [False] * len(built)
    for r in built:
        shape_key(QubitConst(r))
        assert vars(r)[quantum._SUPPORT] == key_support_reference(r)


# ---------------------------------------------------------------------------
# reduction's use of the kernels


def test_step_at_matches_once(monkeypatch):
    """step_at matches with one head_rule call, on the redex, and contracts
    without a second test.  A one-row register splits without the rank-1
    test; any other fired split runs it once, for the walk's test, the
    step's match and the contract's split together."""
    import qlam.reduction as reduction
    from qlam.parser import parse_term

    tests, splits, matched = [], [], []
    rank1, split, head_rule = quantum._rank1, reduction.factor_split, reduction.head_rule
    monkeypatch.setattr(quantum, "_rank1", lambda *args: tests.append(args) or rank1(*args))
    monkeypatch.setattr(reduction, "factor_split",
                        lambda *args: splits.append(args) or split(*args))

    def counted_head_rule(t):
        matched.append(t)
        return head_rule(t)

    for source, rank1_runs in [
            ("let a * b = !|0> * ((0.6,0)!|0> + (0.8,0)!|1>) in b", 0),
            ("let a * b = ((0.6,0)!|0> + (0.8,0)!|1>) * !|1> in a", 1)]:
        term = parse_term(source)
        tests.clear()
        splits.clear()
        monkeypatch.setattr(reduction, "head_rule", head_rule)
        redex = reduction.strategy_redex(term)
        assert redex == ((), "split") and len(tests) == rank1_runs and splits == []
        monkeypatch.setattr(reduction, "head_rule", counted_head_rule)
        matched.clear()
        [(target, _)] = reduction.step_at(term, *redex)
        assert len(matched) == 1 and matched[0] is term
        assert len(tests) == rank1_runs and len(splits) == 1
        assert amps_close(target.value, QubitValue(1, {0: 0.6, 1: 0.8}), 1e-12)


def test_a_contraction_substitutes_once(monkeypatch):
    """A fired beta or split makes one substitute call, which enters no
    walk under descend, also where a binder is renamed apart and the
    variable occurs twice."""
    import qlam.reduction as reduction
    import qlam.syntax as syntax
    from qlam.parser import parse_term

    calls = []
    substitute = reduction.substitute
    monkeypatch.setattr(reduction, "substitute",
                        lambda *args: calls.append(args) or substitute(*args))

    def no_descend(_walk):
        raise AssertionError("substitute entered descend")

    monkeypatch.setattr(syntax, "descend", no_descend)
    for source, rule in [(r"(\x. \y. x y) y", "beta"),
                         (r"(\!x. \y. x x y) !y", "!beta1"),
                         (r"(\!x. x x) !|0>", "!beta2"),
                         ("let a * b = !|01> in b a a", "split")]:
        term = parse_term(source)
        calls.clear()
        [(target, _)] = reduction.step_at(term, (), rule)
        assert len(calls) == 1, source
        assert target != term


@given(register(min_width=2))
def test_register_memos_leave_equality_hash_and_repr(q):
    """A register whose split and key support were computed still equals,
    hashes and prints as a fresh copy, and splits the same again."""
    copy = QubitValue(q.width, q.amps)
    before = repr(q), hash(q)
    first = factor_split(q)
    assert is_product(q) == (first is not None)
    shape_key(QubitConst(q))
    assert vars(q)  # the memos are there
    assert (repr(q), hash(q)) == before
    assert q == copy and copy == q
    assert hash(copy) == hash(q) and repr(copy) == repr(q)
    assert factor_split(q) == first == factor_split(copy)
