"""The one-pass sparse kernels of ``qlam.quantum`` against the dense and
per-word reference implementations in ``kernel_oracles``."""

import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qlam.quantum import (
    BUILTIN_GATES,
    EPS_NORM,
    EPS_ZERO,
    MAX_WIDTH,
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


@given(st.data())
def test_apply_gate_matches_dense_oracle(data):
    """Bit-identical amplitudes to the per-bucket matrix product."""
    q = data.draw(register())
    g = data.draw(builtin_gate(q.width))
    assert apply_gate(g, q) == apply_gate_dense(g, q)


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


@given(register(max_width=3), register(max_width=4), st.data())
@settings(max_examples=100)
def test_factor_split_matches_dense_oracle_near_tolerance(a, b, data):
    """A product moved by a residual of about EPS_NORM at one basis index,
    stored or not, splits or not exactly as the dense oracle decides."""
    q = tensor(a, b)
    u = data.draw(st.integers(0, (1 << q.width) - 1))
    size = EPS_NORM * data.draw(st.sampled_from([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 2.0]))
    angle = data.draw(st.floats(0, 2 * math.pi))
    nudged = QubitValue(q.width, list(q.amps) + [(u, size * complex(math.cos(angle),
                                                                    math.sin(angle)))])
    _same_split(nudged, a.width)


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
    """step_at validates and contracts in one match: no head_rule call, and
    a fired split runs the rank-1 test twice (the walk's and the contract's),
    not three times."""
    import qlam.quantum as quantum
    import qlam.reduction as reduction
    from qlam.parser import parse_term

    term = parse_term("let a * b = !|0> * ((0.6,0)!|0> + (0.8,0)!|1>) in b")
    tests, splits = [], []
    rank1, split = quantum._rank1, reduction.factor_split
    monkeypatch.setattr(quantum, "_rank1", lambda *args: tests.append(args) or rank1(*args))
    monkeypatch.setattr(reduction, "factor_split",
                        lambda *args: splits.append(args) or split(*args))
    redex = reduction.strategy_redex(term)
    assert redex == ((), "split") and len(tests) == 1 and splits == []

    def no_head_rule(_t):
        raise AssertionError("step_at matched the redex twice")

    monkeypatch.setattr(reduction, "head_rule", no_head_rule)
    [step] = reduction.step_at(term, *redex)
    assert len(tests) == 2 and len(splits) == 1
    assert amps_close(step.target.value, QubitValue(1, {0: 0.6, 1: 0.8}), 1e-12)
