import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from qlam import densesim as ds
from qlam.quantum import measure

from conftest import random_register
from kernel_oracles import gate

S2 = 1 / math.sqrt(2)


def test_dense_apply_hadamard():
    got = ds.dense_apply(gate("H"), ds.basis(1, 0))
    assert np.allclose(got.vector, [S2, S2])


def test_dense_apply_identity():
    state = ds.from_amplitudes(2, [(0, 0.6), (3, 0.8)])
    got = ds.dense_apply(gate("I", "I"), state)
    assert np.allclose(got.vector, state.vector)


def test_dense_pair_sequence():
    state = ds.basis(2, 0)
    state = ds.dense_apply(gate("H", "I"), state)
    state = ds.dense_apply(gate("cnot"), state)
    assert np.allclose(state.vector, [S2, 0, 0, S2])


def test_dense_measure_single_base():
    outs = ds.dense_measure(ds.basis(1, 0), {1})
    assert len(outs) == 1
    w, p, post = outs[0]
    assert w == 0 and p == pytest.approx(1.0)
    assert np.allclose(post.vector, [1, 0])


def test_dense_measure_uniform_five_wires():
    state = ds.DenseState(5, np.full(32, 1 / math.sqrt(32), dtype=complex))
    outs = ds.dense_measure(state, {2, 3, 5})
    w2 = next(o for o in outs if o[0] == 2)
    assert w2[1] == pytest.approx(1 / 8, abs=1e-9)
    assert set(np.flatnonzero(np.abs(w2[2].vector) > 1e-12)) == {4, 6, 20, 22}


@given(random_register(max_width=4), st.data())
def test_dense_agrees_with_sparse_measure(q, data):
    indices = data.draw(st.sets(st.integers(1, q.width), min_size=1))
    sparse = measure(q, indices)
    dense = ds.dense_measure(ds.from_amplitudes(q.width, q.amps), indices)
    assert [o.outcome for o in sparse] == [w for w, _, _ in dense]
    for o, (_, p, post) in zip(sparse, dense):
        assert abs(o.probability - p) < 1e-9
        assert np.abs(ds.from_amplitudes(q.width, o.post.amps).vector - post.vector).max() < 1e-9
