"""Acceptance suite: one test per criterion, each printing a pass line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; `-v` alone shows one pass/fail line per criterion from the test
names.  Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from qlam import densesim as ds
from qlam.confluence import GenConfig, check_diamond, generate
from qlam.ensemble import det_step, evaluate, min_ensemble, sample, singleton, strategy_chooser
from qlam.parser import parse_program, parse_term
from qlam.quantum import (
    QubitValue,
    amps_close,
    ket,
    measure,
    tensor,
)
from qlam.reduction import RULESET_S, RULESET_ST, RULESET_T, enumerate_redexes, step_at
from qlam.syntax import App, Bang, BangLam, Lam, MeasConst, QubitConst, Var, alpha_eq
from qlam.wellformed import check

from conftest import teleport_source
from kernel_oracles import factor_split_dense, gate, uniform_state

PSI = QubitValue(1, {0: 0.6, 1: 0.8})


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE CRITERION {n}: PASS - {text}")


def test_criterion_1_measurement_worked_example():
    start = time.perf_counter()
    outcomes = measure(uniform_state(5), {2, 3, 5})
    assert len(outcomes) == 8
    w2 = next(o for o in outcomes if o.outcome == 2)
    post = dict(w2.post.amps)
    assert post.keys() == {4, 6, 20, 22}
    assert abs(w2.probability - 1 / 8) <= 1e-9
    for u in (4, 6, 20, 22):
        assert abs(post[u] - 0.5) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"uniform 5-wire measurement of {{2,3,5}}: 8 outcomes, outcome 2 "
              f"on {{4,6,20,22}} at p=1/8 ({elapsed:.3f}s)")


def test_criterion_2_ensemble_mass_preserved():
    start = time.perf_counter()
    corpus = generate(GenConfig(count=1000, seed=2))
    chooser = strategy_chooser(RULESET_ST)
    checked = 0
    for term in corpus:
        ens = singleton(term)
        for _ in range(50):
            if all(chooser(t) is None for t, _ in ens.entries):
                break
            ens = det_step(ens, chooser)
            assert abs(ens.mass() - 1.0) <= 1e-7
            checked += 1
            ens = min_ensemble(ens)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(2, f"mass 1 +/- 1e-7 across {checked} ensemble steps over 1000 terms "
              f"({elapsed:.1f}s)")


def test_criterion_3_strong_confluence_of_t():
    start = time.perf_counter()
    corpus = generate(GenConfig(count=1000, max_size=12, seed=0))
    failures = 0
    pairs = 0
    for term in corpus:
        rep = check_diamond(term, RULESET_T, RULESET_T, pair_cap=10_000)
        failures += len(rep.failures)
        pairs += rep.pairs_checked
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0
    report(3, f"T-vs-T diamond over 1000 terms: {pairs} move pairs, 0 failures "
              f"({elapsed:.1f}s)")


def test_criterion_4_strong_commutation_of_s_and_t():
    start = time.perf_counter()
    corpus = generate(GenConfig(count=1000, max_size=12, seed=0))
    # the two proof-shaped regression seeds must be present in the corpus
    assert any(
        isinstance(t, App) and isinstance(t.fun, Lam)
        and isinstance(t.arg, App) and isinstance(t.arg.fun, MeasConst)
        for t in corpus
    ), "no (\\x. t') (M_I q) regression shape in corpus"
    assert any(
        isinstance(t, App) and isinstance(t.fun, App)
        and isinstance(t.fun.fun, MeasConst)
        and isinstance(t.arg, App) and isinstance(t.arg.fun, MeasConst)
        for t in corpus
    ), "no (M q1) (M q2) regression shape in corpus"
    failures = 0
    pairs = 0
    for term in corpus:
        rep = check_diamond(term, RULESET_S, RULESET_T, pair_cap=10_000)
        failures += len(rep.failures)
        pairs += rep.pairs_checked
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0
    report(4, f"S-vs-T commutation over 1000 terms: {pairs} move pairs, 0 failures "
              f"({elapsed:.1f}s)")


def test_criterion_5_teleportation():
    start = time.perf_counter()
    program = parse_program(teleport_source(PSI))
    assert check(program.main).verdict
    result = evaluate(program.main)
    assert result.status == "Converged"
    assert len(result.ensemble) == 4

    # direct dense circuit simulation of the same wire plan
    dense = ds.from_amplitudes(3, tensor(tensor(PSI, ket("0")), ket("0")).amps)
    for g in (gate("I", "H", "I"), gate("I", "cnot"), gate("cnot", "I"), gate("H", "I", "I")):
        dense = ds.dense_apply(g, dense)
    oracle = {}
    for w, p, post in ds.dense_measure(dense, {1, 2}):
        if w & 1:
            post = ds.dense_apply(gate("I", "I", "X"), post)
        if w >> 1:
            post = ds.dense_apply(gate("I", "I", "Z"), post)
        oracle[w] = (p, post)

    for term, p in result.ensemble.entries:
        assert p == pytest.approx(0.25, abs=1e-7)
        state = term.value
        parts = factor_split_dense(state, 2)
        assert parts is not None, "final register is not bits (x) payload"
        bits, payload = parts
        assert amps_close(payload, PSI, 1e-7), "receiver wire differs from the input"
        [(w, _)] = bits.amps
        oracle_p, oracle_post = oracle[w]
        assert abs(p - oracle_p) <= 1e-7
        assert np.abs(ds.from_amplitudes(3, state.amps).vector - oracle_post.vector).max() <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(5, f"teleportation: 4 branches at p=0.25, receiver wire equals the "
              f"input in each, matching the dense oracle ({elapsed:.3f}s)")


def test_criterion_6_duplication_behaviors():
    start = time.perf_counter()
    s2 = f"{1 / math.sqrt(2):.17g}"
    half = f"(({s2},0)!|0> + ({s2},0)!|1>)"

    # cloning: rejected outright
    cloning = parse_term(r"(\x. x x) (M{1} " + half + ")")
    assert not check(cloning).verdict

    violations = 0
    rng = np.random.default_rng(6)
    for trial in range(60):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        q = QubitValue(1, {0: complex(amps[0]), 1: complex(amps[1])})
        m_app = App(MeasConst(frozenset({1})), QubitConst(q))

        # copying: no nonlinear beta step before the measurement fires
        copying = App(BangLam("x", App(Var("x"), Var("x"))), m_app)
        rules_before = {rule for _, rule in enumerate_redexes(copying, RULESET_ST)}
        if rules_before != {"M"}:
            violations += 1
        for target, _ in step_at(copying, (1,), "M"):
            after = {rule for _, rule in enumerate_redexes(target, RULESET_ST)}
            if "!beta2" not in after:
                violations += 1

        # promotion: the distribution equals two independent measurements
        promotion = App(BangLam("x", App(Var("x"), Var("x"))), Bang(m_app))
        got = evaluate(promotion)
        outs = measure(q, {1})
        expected = {}
        for a in outs:
            for b in outs:
                key = (a.outcome, b.outcome)
                expected[key] = a.probability * b.probability
        if got.status != "Converged" or len(got.ensemble) != len(expected):
            violations += 1
            continue
        for term, p in got.ensemble.entries:
            key = (_bit_of(term.fun), _bit_of(term.arg))
            if abs(expected[key] - p) > 1e-9:
                violations += 1

    # the worked uniform case: four application terms at 1/4 each
    uniform = parse_term(f"(\\!x. x x) !(M{{1}} {half})")
    got = evaluate(uniform)
    assert len(got.ensemble) == 4
    for term, p in got.ensemble.entries:
        assert isinstance(term, App)
        assert p == pytest.approx(0.25, abs=1e-9)

    assert violations == 0
    elapsed = time.perf_counter() - start
    report(6, f"cloning rejected, copying measures first, promotion copies the "
              f"measurement: 0 violations over 60 random registers ({elapsed:.1f}s)")


def _bit_of(term) -> int:
    assert isinstance(term, QubitConst) and term.value.width == 1
    [(bit, _)] = term.value.amps
    return bit


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    max_dp = 0.0
    max_damp = 0.0
    for trial in range(1000):
        m = int(rng.integers(1, 9))
        dim = 1 << m
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amps /= np.linalg.norm(amps)
        q = QubitValue(m, {u: complex(a) for u, a in enumerate(amps)})
        k = int(rng.integers(1, m + 1))
        indices = set(int(i) for i in rng.choice(np.arange(1, m + 1), size=k, replace=False))
        sparse = measure(q, indices)
        dense = ds.dense_measure(ds.from_amplitudes(m, q.amps), indices)
        assert [o.outcome for o in sparse] == [w for w, _, _ in dense]
        for o, (_, p, post) in zip(sparse, dense):
            max_dp = max(max_dp, abs(o.probability - p))
            damp = np.abs(ds.from_amplitudes(m, o.post.amps).vector - post.vector).max()
            max_damp = max(max_damp, float(damp))
    elapsed = time.perf_counter() - start
    assert max_dp < 1e-9
    assert max_damp < 1e-9
    assert elapsed < 30.0
    report(7, f"sparse vs dense measurement on 1000 random registers: "
              f"max dp={max_dp:.2e}, max damp={max_damp:.2e} ({elapsed:.1f}s)")


def test_criterion_8_sampling_frequency():
    start = time.perf_counter()
    term = parse_term("M{1} ((0.6,0)!|0> + (0.8,0)!|1>)")
    one = QubitValue(1, {1: 1.0})
    hits = 0
    for seed in range(100_000):
        outcome = sample(term, seed)
        if alpha_eq(outcome, QubitConst(one)):
            hits += 1
    freq = hits / 100_000
    elapsed = time.perf_counter() - start
    assert abs(freq - 0.64) <= 0.01
    assert elapsed < 10.0
    report(8, f"frequency of outcome 1 over 1e5 seeded samples: {freq:.4f} "
              f"({elapsed:.1f}s)")
