"""The one-pass kernels of ``qlam.quantum`` against the dense and per-word
reference implementations in ``kernel_oracles``."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import qlam.quantum as quantum
from qlam.quantum import (
    BUILTIN_GATES,
    DENSE_MAX_WIDTH,
    DENSE_MIN_WIDTH,
    EPS_NORM,
    EPS_ZERO,
    MAX_WIDTH,
    GateAtom,
    GateExpr,
    QubitValue,
    RegisterWidthError,
    amps_close,
    apply_gate,
    basis_state,
    factor_split,
    gate,
    is_product,
    ket,
    measure,
    outcome_count,
    tensor,
    uniform_state,
)

from qlam.syntax import QubitConst, shape_key

from kernel_oracles import apply_gate_dense, factor_split_dense, measure_per_word


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
        assert len({got.support() for got in _both_passes(g, q)}) == 1


def test_apply_gate_on_a_sparse_60_wire_register(tmp_path, capsys):
    """H on wire 1 of a 60-wire basis state stays on the scatter: two
    amplitudes, through apply_gate and through `qlam run`."""
    from qlam.cli import main

    width = 60
    start = time.perf_counter()
    got = apply_gate(gate("H", *["I"] * (width - 1)), basis_state(width, 5))
    assert time.perf_counter() - start < 1.0
    assert got.support() == {5, (1 << (width - 1)) | 5}
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
    assert got.amp(2) == -got.amp(3)


def test_apply_gate_skips_identity_factors():
    q = QubitValue(3, {1: 0.6, 6: 0.8j})
    assert apply_gate(GateExpr((BUILTIN_GATES["I"],) * 3), q) == q


# ---------------------------------------------------------------------------
# measure


@given(register(), st.data())
def test_measure_matches_per_word_oracle(q, data):
    """Identical outcome words, probabilities and post amplitudes."""
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1))
    got = measure(q, indices)
    assert got == measure_per_word(q, indices)
    assert outcome_count(q, indices) == len(got)


def test_outcome_count_leaves_out_zero_probability_words():
    q = QubitValue(2, {0: 1.0, 3: 1e-7})
    assert [o.outcome for o in measure(q, {1})] == [0]
    assert outcome_count(q, {1}) == 1
    assert outcome_count(uniform_state(3), {1, 3}) == 4


def test_measure_past_the_float_range():
    """A squared modulus past the float range is inf, not OverflowError."""
    q = QubitValue(2, {0: 1e200, 3: 1.0})
    assert outcome_count(q, {1}) == 2
    assert [(o.outcome, o.probability) for o in measure(q, {1})] == [(0, math.inf), (1, 1.0)]


# ---------------------------------------------------------------------------
# factor_split


def _same_split(q: QubitValue, left_width: int) -> None:
    got = factor_split(q, left_width)
    want = factor_split_dense(q, left_width)
    assert (got is None) == (want is None)
    assert is_product(q, left_width) == (want is not None)
    if want is not None:
        for mine, ref in zip(got, want):
            assert mine.width == ref.width
            assert mine.support() == ref.support()
            assert amps_close(mine, ref, 1e-12)


@given(register(min_width=2))
def test_factor_split_matches_dense_oracle_on_any_register(q):
    """Mostly entangled registers: the same decision at every cut."""
    for left_width in range(1, q.width):
        _same_split(q, left_width)


@given(register(max_width=4), register(max_width=5))
def test_factor_split_matches_dense_oracle_on_products(a, b):
    q = tensor(a, b)
    assert factor_split(q, a.width) is not None
    _same_split(q, a.width)


@given(st.one_of(st.text("01", min_size=1, max_size=3).map(ket), register(max_width=3)),
       register(max_width=4), st.data())
@settings(max_examples=100)
def test_factor_split_matches_dense_oracle_near_tolerance(a, b, data):
    """A product moved by a residual of about EPS_NORM at one basis index,
    stored or not, splits or not exactly as the dense oracle decides.  With
    a ket on the left the product is one row: a nudge on that row keeps it
    one row, a nudge off it falls back to the rank-1 test."""
    q = tensor(a, b)
    u = data.draw(st.integers(0, (1 << q.width) - 1))
    size = EPS_NORM * data.draw(st.sampled_from([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]))
    angle = data.draw(st.floats(0, 2 * math.pi))
    nudged = QubitValue(q.width, list(q.amps) + [(u, size * complex(math.cos(angle),
                                                                    math.sin(angle)))])
    _same_split(nudged, a.width)


def test_one_row_register_splits_exactly(monkeypatch):
    """Stored amplitudes that share their left bits r split into |r> with
    amplitude exactly 1 and the stored amplitudes unchanged, without the
    rank-1 test."""
    monkeypatch.setattr(quantum, "_rank1", None)  # calling it would raise
    amps = {0b10001: complex(0.6, 1e-17) / 3, 0b10110: 0.8 / 3 + 0j,
            0b10111: complex(-2, 2 ** 0.5) / 3}
    q = QubitValue(5, amps)
    assert is_product(q, 2)
    left, right = factor_split(q, 2)
    assert left.amps == ((0b10, 1 + 0j),)
    assert right.amps == tuple((u & 0b111, a) for u, a in q.amps)
    assert right == QubitValue(3, {u & 0b111: a for u, a in amps.items()})


def test_factor_split_of_a_wide_basis_state():
    """Width 40 splits without a 2**40 array (the dense oracle could not)."""
    q = basis_state(40, 0)
    assert is_product(q, 1)
    assert factor_split(q, 1) == (ket("0"), basis_state(39, 0))
    left, right = factor_split(basis_state(40, (1 << 39) | 5), 1)
    assert left == ket("1") and right == basis_state(39, 5)


def test_factor_split_ignores_entries_below_tolerance():
    """A stored amplitude off the product's support but within the tolerance
    does not stop the split."""
    q = QubitValue(2, {0: 1.0, 3: EPS_NORM / 2})
    assert EPS_NORM / 2 > EPS_ZERO
    _same_split(q, 1)
    assert factor_split(q, 1) == (ket("0"), ket("0"))


# ---------------------------------------------------------------------------
# reduction's use of the kernels


def test_step_at_matches_once(monkeypatch):
    """step_at validates and contracts in one match: no head_rule call.  A
    one-row register splits without the rank-1 test; any other fired split
    runs it once, for the walk's test and the contract's split together."""
    import qlam.reduction as reduction
    from qlam.parser import parse_term

    tests, splits = [], []
    rank1, split, head_rule = quantum._rank1, reduction.factor_split, reduction.head_rule
    monkeypatch.setattr(quantum, "_rank1", lambda *args: tests.append(args) or rank1(*args))
    monkeypatch.setattr(reduction, "factor_split",
                        lambda *args: splits.append(args) or split(*args))

    def no_head_rule(_t):
        raise AssertionError("step_at matched the redex twice")

    for source, rank1_runs in [
            ("let a * b = !|0> * ((0.6,0)!|0> + (0.8,0)!|1>) in b", 0),
            ("let a * b = ((0.6,0)!|0> + (0.8,0)!|1>) * !|1> in a", 1)]:
        term = parse_term(source)
        tests.clear()
        splits.clear()
        monkeypatch.setattr(reduction, "head_rule", head_rule)
        redex = reduction.strategy_redex(term)
        assert redex == ((), "split") and len(tests) == rank1_runs and splits == []
        monkeypatch.setattr(reduction, "head_rule", no_head_rule)
        [step] = reduction.step_at(term, *redex)
        assert len(tests) == rank1_runs and len(splits) == 1
        assert amps_close(step.target.value, QubitValue(1, {0: 0.6, 1: 0.8}), 1e-12)


@given(register(min_width=2))
def test_register_memos_leave_equality_hash_and_repr(q):
    """A register whose split and key support were computed still equals,
    hashes and prints as a fresh copy, and splits the same again."""
    copy = QubitValue(q.width, q.amps)
    before = repr(q), hash(q)
    first = factor_split(q, 1)
    assert is_product(q, 1) == (first is not None)
    shape_key(QubitConst(q))
    assert vars(q)  # the memos are there
    assert (repr(q), hash(q)) == before
    assert q == copy and copy == q
    assert hash(copy) == hash(q) and repr(copy) == repr(q)
    assert factor_split(q, 1) == first == factor_split(copy, 1)
