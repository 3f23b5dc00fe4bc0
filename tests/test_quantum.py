import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qlam import densesim as ds
from qlam.quantum import (
    BUILTIN_GATES,
    EPS_NORM,
    ArityMismatchError,
    GateAtom,
    GateError,
    GateExpr,
    IndexOutOfRangeError,
    QubitValue,
    amps_close,
    apply_gate,
    basis_state,
    factor_split,
    ket,
    measure,
    tensor,
)

from conftest import coincidence_brute, random_register
from kernel_oracles import coincidence_set, gate, uniform_state

S2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# registers


def test_register_drops_zero_amplitudes():
    q = QubitValue(1, {0: 0.8, 1: 0.0})
    assert {u for u, _ in q.amps} == {0}


def test_register_keeps_an_amplitude_whose_modulus_overflows():
    """A modulus past the float range counts as inf: the amplitude is kept
    and the squared mass is inf, with no OverflowError."""
    huge = complex(1e308, 1.5e308)
    q = QubitValue(1, {0: huge, 1: 1e-13})
    assert q.amps == ((0, huge),)
    assert q.norm_sq() == math.inf and not q.is_unit()


def test_register_merges_duplicates():
    q = QubitValue(1, [(0, 0.3), (0, 0.3), (1, math.sqrt(1 - 0.36))])
    assert abs(dict(q.amps).get(0, 0j) - 0.6) < 1e-15


def test_register_rejects_bad_index():
    with pytest.raises(ValueError):
        QubitValue(1, {2: 1.0})


def test_amps_close_missing_index_is_zero():
    a = QubitValue(2, {0: 1.0, 3: 1e-10})
    assert amps_close(a, QubitValue(2, {0: 1.0}), 1e-9)
    assert amps_close(QubitValue(2, {0: 1.0}), a, 1e-9)
    assert not amps_close(a, QubitValue(2, {0: 1.0}), 1e-11)
    assert not amps_close(a, QubitValue(1, {0: 1.0}), 1.0)


@given(random_register(max_width=3), st.data())
def test_amps_close_matches_per_index_scan(q, data):
    """The merge pass agrees with comparing the amplitudes at every index
    of the two supports."""
    width = q.width
    extra = data.draw(st.sets(st.integers(0, (1 << width) - 1), max_size=3))
    scale = data.draw(st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8, 0.1]))
    other = QubitValue(width, [(u, a + data.draw(st.floats(-scale, scale))) for u, a in q.amps]
                       + [(u, data.draw(st.floats(-scale, scale))) for u in extra])
    tol = data.draw(st.sampled_from([1e-12, 1e-9, 1e-7]))
    mine, theirs = dict(q.amps), dict(other.amps)
    expected = all(abs(mine.get(u, 0j) - theirs.get(u, 0j)) <= tol for u in mine.keys() | theirs)
    assert amps_close(q, other, tol) == expected
    assert amps_close(other, q, tol) == expected


# ---------------------------------------------------------------------------
# tensor


def test_tensor_basis():
    assert tensor(ket("0"), ket("1")) == ket("01")


def test_tensor_distributes():
    plus = QubitValue(1, {0: S2, 1: S2})
    got = tensor(plus, ket("0"))
    assert amps_close(got, QubitValue(2, {0: S2, 2: S2}), 1e-12)


def test_tensor_base_with_superposition():
    sup = QubitValue(1, {0: 0.6, 1: 0.8})
    got = tensor(ket("0"), sup)
    assert amps_close(got, QubitValue(2, {0: 0.6, 1: 0.8}), 1e-12)


# ---------------------------------------------------------------------------
# gates


def test_hadamard_on_zero():
    got = apply_gate(gate("H"), ket("0"))
    assert amps_close(got, QubitValue(1, {0: S2, 1: S2}), 1e-12)


def test_cnot_makes_shared_pair():
    got = apply_gate(gate("cnot"), apply_gate(gate("H", "I"), ket("00")))
    assert amps_close(got, QubitValue(2, {0: S2, 3: S2}), 1e-12)


def test_z_flips_one_component_sign():
    q = QubitValue(1, {0: 0.6, 1: 0.8})
    got = apply_gate(gate("Z"), q)
    assert amps_close(got, QubitValue(1, {0: 0.6, 1: -0.8}), 1e-12)


def test_x_padded_with_identity():
    assert apply_gate(gate("X", "I"), ket("10")) == ket("00")


def test_arity_mismatch_raises():
    with pytest.raises(ArityMismatchError):
        apply_gate(gate("H"), ket("00"))


def test_builtin_gates_unitary():
    for atom in BUILTIN_GATES.values():
        u = np.array(atom.matrix)
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < 1e-9


def test_non_unitary_matrix_rejected():
    with pytest.raises(GateError):
        GateAtom("bad", ((1 + 0j, 0j), (0j, 2 + 0j)))
    with pytest.raises(GateError):
        GateAtom("bad", ((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j)))


@pytest.mark.parametrize("entry, why", [(math.inf, "matrix entry is not finite"),
                                         (complex(0, math.nan), "matrix entry is not finite"),
                                         (1e200, "matrix is not unitary")])
def test_gate_past_the_float_range_rejected_without_a_warning(entry, why):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateError, match=why):
            GateAtom("G", ((entry, 0j), (0j, 1 + 0j)))


@given(random_register(max_width=3))
def test_gate_preserves_norm(q):
    g = GateExpr(tuple(BUILTIN_GATES["H"] for _ in range(q.width)))
    assert apply_gate(g, q).is_unit()


@given(random_register(max_width=3))
def test_matrix_oracle_agreement(q):
    """Sparse application matches a plain dense matrix product."""
    names = ["H", "X", "Z"][: q.width] + ["I"] * max(0, q.width - 3)
    g = gate(*names)
    want = ds.dense_apply(g, ds.from_amplitudes(q.width, q.amps)).vector
    got = ds.from_amplitudes(q.width, apply_gate(g, q).amps).vector
    assert abs(want - got).max() < 1e-9


# ---------------------------------------------------------------------------
# coincidence sets


def test_coincidence_worked_example():
    assert coincidence_set(2, 5, {2, 3, 5}) == {4, 6, 20, 22}


def test_coincidence_single_wire():
    assert coincidence_set(0, 1, {1}) == {0}


def test_coincidence_derived_value():
    # brute-force string filter gives {5, 7} for w=3, m=3, I={1,3}
    assert coincidence_brute(3, 3, {1, 3}) == {5, 7}
    assert coincidence_set(3, 3, {1, 3}) == {5, 7}


def test_coincidence_rejects_bad_indices():
    with pytest.raises(IndexOutOfRangeError):
        coincidence_set(0, 2, {3})
    with pytest.raises(IndexOutOfRangeError):
        coincidence_set(0, 2, set())


@given(st.data())
def test_coincidence_against_brute_force(data):
    m = data.draw(st.integers(1, 7))
    indices = data.draw(st.sets(st.integers(1, m), min_size=1))
    w = data.draw(st.integers(0, (1 << len(indices)) - 1))
    assert coincidence_set(w, m, indices) == coincidence_brute(w, m, indices)


@given(st.data())
def test_coincidence_partition(data):
    """Cardinality 2**(m-|I|) for each word; distinct words partition the space."""
    m = data.draw(st.integers(1, 6))
    indices = data.draw(st.sets(st.integers(1, m), min_size=1))
    seen = set()
    for w in range(1 << len(indices)):
        cs = coincidence_set(w, m, indices)
        assert len(cs) == 1 << (m - len(indices))
        assert not (cs & seen)
        seen |= cs
    assert seen == set(range(1 << m))


# ---------------------------------------------------------------------------
# measurement


def test_measure_base_state_is_fixpoint():
    outs = measure(ket("0"), {1})
    assert len(outs) == 1
    assert outs[0].outcome == 0 and outs[0].probability == pytest.approx(1.0)
    assert outs[0].post == ket("0")


def test_measure_born_rule_by_hand():
    outs = measure(QubitValue(1, {0: 0.6, 1: 0.8}), {1})
    assert [o.outcome for o in outs] == [0, 1]
    assert outs[0].probability == pytest.approx(0.36, abs=1e-9)
    assert outs[1].probability == pytest.approx(0.64, abs=1e-9)
    assert amps_close(outs[0].post, ket("0"), 1e-12)
    assert amps_close(outs[1].post, ket("1"), 1e-12)


def test_measure_uniform_five_wire_example():
    outs = measure(uniform_state(5), {2, 3, 5})
    assert len(outs) == 8
    w2 = next(o for o in outs if o.outcome == 2)
    assert w2.probability == pytest.approx(1 / 8, abs=1e-9)
    post = dict(w2.post.amps)
    assert post.keys() == {4, 6, 20, 22}
    for u in (4, 6, 20, 22):
        assert abs(post[u] - 0.5) < 1e-9


def test_measure_rejects_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        measure(ket("0"), {2})


@given(random_register(max_width=4), st.data())
def test_measure_probabilities_sum_to_one(q, data):
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1))
    outs = measure(q, indices)
    assert abs(sum(o.probability for o in outs) - 1.0) <= EPS_NORM
    for o in outs:
        assert o.post.is_unit()


@given(random_register(max_width=4), st.data())
def test_measure_idempotent(q, data):
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1))
    for o in measure(q, indices):
        again = measure(o.post, indices)
        assert len(again) == 1
        assert again[0].outcome == o.outcome
        assert again[0].probability == pytest.approx(1.0, abs=1e-9)
        assert amps_close(again[0].post, o.post, 1e-9)


# ---------------------------------------------------------------------------
# factorization


def test_factor_split_product_state():
    sup = QubitValue(1, {0: 0.6, 1: 0.8})
    left, right = factor_split(tensor(ket("0"), sup))
    assert amps_close(left, ket("0"), 1e-9)
    assert amps_close(right, sup, 1e-9)


def test_factor_split_entangled_returns_none():
    pair = QubitValue(2, {0: S2, 3: S2})
    assert factor_split(pair) is None


def test_factor_split_pushes_phase_right():
    sup = QubitValue(1, {0: 0.6, 1: 0.8})
    state = tensor(basis_state(1, 1), sup)
    phased = QubitValue(2, {u: -a for u, a in state.amps})
    left, right = factor_split(phased)
    assert amps_close(left, ket("1"), 1e-9)
    assert amps_close(right, QubitValue(1, {0: -0.6, 1: -0.8}), 1e-9)


@given(random_register(max_width=1), random_register(max_width=2))
@settings(max_examples=40)
def test_factor_split_recovers_product(a, b):
    parts = factor_split(tensor(a, b))
    assert parts is not None
    left, right = parts
    assert amps_close(tensor(left, right), tensor(a, b), 1e-9)
