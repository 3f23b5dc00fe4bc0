import itertools
import math
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qlam.ensemble import (
    PROB_TOL,
    EnsembleCapError,
    StepLimitError,
    TermEnsemble,
    det_step,
    equivalent,
    equivalent_canonical,
    evaluate,
    leftmost_chooser,
    min_ensemble,
    rightmost_chooser,
    sample,
    singleton,
    strategy_chooser,
)
from qlam.parser import parse_term
from qlam.reduction import (
    RULESET_ST,
    RULESET_T,
    enumerate_redexes,
    head_rule,
    step_at,
    strategy_redex,
)
from qlam.quantum import (
    QubitValue,
    ZeroMassError,
    amps_close,
    apply_gate,
    ket,
    measure,
)
from qlam.syntax import (
    AMP_TOL,
    App,
    Bang,
    BangLam,
    GateConst,
    If,
    Lam,
    MeasConst,
    QubitConst,
    Var,
    alpha_eq,
    pretty,
)

from conftest import (
    generated_term,
    near_threshold_register,
    perturb_registers,
    random_terms,
    rename_binders,
)
from kernel_oracles import gate, uniform_state

S2 = f"{1 / math.sqrt(2):.17g}"
BIASED = "((0.6,0)!|0> + (0.8,0)!|1>)"
OMEGA = parse_term(r"(\!x. x !x) !(\!x. x !x)")


# ---------------------------------------------------------------------------
# ensembles and canonicalization


def test_singleton():
    e = singleton(Var("t"))
    assert e.entries == ((Var("t"), 1.0),)
    assert min_ensemble(e) == e


def test_singleton_skips_only_its_own_checks(monkeypatch):
    """{<t, 1>} is valid by construction, so singleton builds it without
    TermEnsemble's checks, and it equals the checked ensemble.  The
    checked constructor still runs them."""
    checks = []
    post_init = TermEnsemble.__post_init__
    monkeypatch.setattr(TermEnsemble, "__post_init__",
                        lambda self: checks.append(self) or post_init(self))
    t = parse_term(r"\x. x")
    e = singleton(t)
    assert checks == []
    assert e == TermEnsemble(((t, 1.0),)) and len(checks) == 1
    assert e.entries == ((t, 1.0),) and e.mass() == 1.0
    with pytest.raises(ValueError, match="mass"):
        TermEnsemble(((t, 0.5),))


def test_min_merges_duplicates():
    e = TermEnsemble(((Var("a"), 0.5), (Var("a"), 0.25), (Var("b"), 0.25)))
    got = min_ensemble(e)
    assert [(pretty(t), p) for t, p in got.entries] == [("a", 0.75), ("b", 0.25)]


def test_min_idempotent():
    e = TermEnsemble(((Var("a"), 0.5), (Var("a"), 0.25), (Var("b"), 0.25)))
    assert min_ensemble(min_ensemble(e)) == min_ensemble(e)


def test_min_merges_alpha_classes():
    e = TermEnsemble(((parse_term(r"\x. x"), 0.5), (parse_term(r"\y. y"), 0.5)))
    got = min_ensemble(e)
    assert len(got) == 1
    assert got.entries[0][1] == pytest.approx(1.0)


def test_singleton_equivalent_to_split_copies():
    t = Var("t")
    assert equivalent(singleton(t), TermEnsemble(((t, 0.5), (t, 0.5))))


def test_mass_must_be_one():
    with pytest.raises(ValueError):
        TermEnsemble(((Var("a"), 0.5),))
    with pytest.raises(ValueError):
        TermEnsemble(((Var("a"), -0.25), (Var("b"), 1.25)))


@pytest.mark.parametrize("probabilities", [
    (math.nan,),
    (0.5, 0.5, math.nan),
    (math.nan, 0.5, 0.5),
    (0.0, 1.0),
])
def test_entry_probability_must_be_positive(probabilities):
    """Each probability lies in (0, 1]: a NaN one is refused as well, though
    both ``nan <= 0`` and a NaN mass's distance from 1 compare False."""
    with pytest.raises(ValueError, match="entry probabilities must be positive"):
        TermEnsemble(tuple((Var(f"t{i}"), p) for i, p in enumerate(probabilities)))


def test_equivalence_examples():
    e = TermEnsemble(((Var("a"), 0.5), (Var("a"), 0.25), (Var("b"), 0.25)))
    assert equivalent(e, e)
    assert equivalent(e, TermEnsemble(((Var("a"), 0.75), (Var("b"), 0.25))))
    lop = TermEnsemble(((parse_term("!|0>"), 0.36), (parse_term("!|1>"), 0.64)))
    even = TermEnsemble(((parse_term("!|0>"), 0.5), (parse_term("!|1>"), 0.5)))
    assert not equivalent(lop, even)


@given(generated_term(), generated_term())
@settings(max_examples=40)
def test_equivalence_symmetric(a, b):
    ea, eb = singleton(a), singleton(b)
    assert equivalent(ea, eb) == equivalent(eb, ea)


# ---------------------------------------------------------------------------
# bucketed canonicalization against the pairwise scan


def pairwise_min_ensemble(e):
    """Oracle: every entry against every earlier group, in creation order."""
    groups = []
    for term, p in e.entries:
        for group in groups:
            if alpha_eq(group[0], term):
                group[1] += p
                break
        else:
            groups.append([term, p])
    return TermEnsemble(tuple((t, p) for t, p in groups))


def pairwise_equivalent(a, b):
    """Oracle: canonicalize both sides pairwise, then match every entry of
    one against every remaining entry of the other."""
    ma, mb = pairwise_min_ensemble(a), pairwise_min_ensemble(b)
    if len(ma) != len(mb):
        return False
    remaining = list(mb.entries)
    for term, p in ma.entries:
        for i, (other, q) in enumerate(remaining):
            if abs(p - q) <= PROB_TOL and alpha_eq(term, other):
                del remaining[i]
                break
        else:
            return False
    return True


def _threshold_classes():
    """Registers whose amplitude sits on the key threshold (no key), on the
    edge of the keyless band (copies fall on either side of it), or five
    tolerances above or below it (keyed, with or without that index)."""
    out = []
    for offset in (0.0, 2 * AMP_TOL, -2 * AMP_TOL, 5 * AMP_TOL, -5 * AMP_TOL):
        reg = QubitConst(near_threshold_register(offset))
        out += [reg, App(GateConst(gate("I", "I")), reg), Lam("x", App(Var("x"), reg))]
    return out


# Base terms of the drawn ensembles: generated terms plus threshold registers.
# Renamed and perturbed copies of one base form an alpha-class.
CLASSES = random_terms(seed=5, n=24) + _threshold_classes()


def _variant(base, variant, seed, scale):
    term = rename_binders(base, "r") if variant & 1 else base
    if variant & 2:
        term = perturb_registers(term, random.Random(seed), scale * AMP_TOL)
    return term


@st.composite
def ensemble_specs(draw, max_entries=12):
    """(class, variant, seed, weight) rows; variant bit 1 renames binders,
    bit 2 perturbs registers."""
    n = draw(st.integers(1, max_entries))
    return [(draw(st.integers(0, len(CLASSES) - 1)), draw(st.integers(0, 3)),
             draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8)))
            for _ in range(n)]


def build_ensemble(spec, scale):
    total = sum(w for *_, w in spec)
    return TermEnsemble(tuple((_variant(CLASSES[c], v, seed, scale), w / total)
                              for c, v, seed, w in spec))


@given(ensemble_specs(), st.sampled_from([0.2, 0.6, 0.8]))
@settings(max_examples=80)
def test_min_ensemble_matches_pairwise_scan(spec, scale):
    """Same groups, same representatives, same order, same float sums, also
    when perturbations make closeness non-transitive (scale 0.6 and 0.8)."""
    e = build_ensemble(spec, scale)
    assert min_ensemble(e).entries == pairwise_min_ensemble(e).entries


@given(ensemble_specs(), st.data(), st.sampled_from([0.2, 0.6, 0.8]))
@settings(max_examples=100)
def test_equivalent_matches_pairwise_scan(spec, data, scale):
    """The bucketed equivalence agrees with the oracle.  With well-separated
    classes (copies within 0.2 tolerances of their base) it is also
    symmetric, and a reshuffled, re-split copy of an ensemble is equivalent
    to it."""
    a = build_ensemble(spec, scale)
    same = data.draw(st.booleans())
    if same:
        # shuffle, redraw the copies, and split the first row in two halves
        # (weights doubled, so they stay integers): the same distribution
        rows = [(c, data.draw(st.integers(0, 3)), seed + 1, 2 * w)
                for c, _, seed, w in data.draw(st.permutations(spec))]
        c, v, seed, w = rows[0]
        rows[:1] = [(c, v, seed, w // 2), (c, 3 - v, seed + 1, w // 2)]
        b = build_ensemble(rows, scale)
    else:
        b = build_ensemble(data.draw(ensemble_specs()), scale)
    got = equivalent(a, b)
    assert got == pairwise_equivalent(a, b)
    assert equivalent_canonical(min_ensemble(a), min_ensemble(b)) == got
    if scale == 0.2:
        assert got == equivalent(b, a)
        assert got or not same


def test_equivalent_matches_each_entry_once():
    """Two canonical entries close to one entry of the other side (closeness
    is not transitive) cannot both match it."""
    def reg(shift):
        x = 0.6 + shift * AMP_TOL
        return QubitConst(QubitValue(1, {0: math.sqrt(1 - x * x), 1: x}))

    ma = TermEnsemble(((reg(0.0), 0.5), (reg(1.6), 0.5)))
    mb = TermEnsemble(((reg(0.8), 0.5), (Var("z"), 0.5)))
    assert min_ensemble(ma) == ma
    assert not equivalent_canonical(ma, mb)
    assert not equivalent(ma, mb)
    assert not pairwise_equivalent(ma, mb)


@given(ensemble_specs(), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_min_ensemble_independent_of_entry_order(spec, rng):
    e = build_ensemble(spec, 0.2)
    entries = list(e.entries)
    rng.shuffle(entries)
    shuffled = TermEnsemble(tuple(entries))
    assert len(min_ensemble(shuffled)) == len(min_ensemble(e))
    assert equivalent(min_ensemble(shuffled), min_ensemble(e))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9: min_ensemble joins an entry to "
                   "the first close group, and closeness is not transitive")
def test_min_ensemble_of_a_tolerance_chain_does_not_depend_on_entry_order():
    """Three unit 1-wire registers whose |0> amplitudes are 1/sqrt(2),
    1/sqrt(2) + 0.6e-9 and 1/sqrt(2) + 1.2e-9, each with probability 1/3:
    a and b are close, b and c are close, a and c are not.  Orders abc, acb,
    cab and cba merge to 2 entries, bac and bca to 1."""
    registers = {}
    for name, shift in zip("abc", (0.0, 0.6e-9, 1.2e-9)):
        zero = math.sqrt(0.5) + shift
        registers[name] = QubitConst(QubitValue(1, {0: zero, 1: math.sqrt(1 - zero * zero)}))
    merged = [min_ensemble(TermEnsemble(tuple((registers[name], 1 / 3) for name in order)))
              for order in itertools.permutations("abc")]
    for x, y in itertools.combinations(merged, 2):
        assert equivalent(x, y)


# ---------------------------------------------------------------------------
# determinized steps


def test_strategy_chooser_takes_only_the_full_rule_set():
    assert strategy_chooser(RULESET_ST) is strategy_redex
    with pytest.raises(ValueError, match="S\\+T, not T"):
        strategy_chooser(RULESET_T)


def test_det_step_measurement():
    e = singleton(parse_term(f"M{{1}} {BIASED}"))
    got = det_step(e, leftmost_chooser(RULESET_T))
    assert [(pretty(t), pytest.approx(p, abs=1e-9)) for t, p in got.entries] == \
        [("!|0>", 0.36), ("!|1>", 0.64)]


def test_det_step_idles_on_normal_forms():
    e = TermEnsemble(((parse_term("!|0>"), 0.5), (parse_term("!|1>"), 0.5)))
    assert det_step(e, strategy_chooser()) is e


def test_det_step_cap():
    e = singleton(parse_term(
        "M{1,2} ((0.5,0)!|00> + (0.5,0)!|01> + (0.5,0)!|10> + (0.5,0)!|11>)"))
    with pytest.raises(EnsembleCapError):
        det_step(e, leftmost_chooser(RULESET_T), cap=2)


def test_det_step_cap_fails_before_any_post_state(monkeypatch):
    """A measurement that would pass the cap raises before it builds a
    branch; the entries already stepped count against the cap."""
    import qlam.quantum as quantum

    built = []
    monkeypatch.setattr(quantum, "MeasurementOutcome", lambda *args: built.append(args))
    full = App(MeasConst(frozenset({1, 2, 3})), QubitConst(uniform_state(3)))
    with pytest.raises(EnsembleCapError, match="ensemble exceeded 7 entries"):
        evaluate(full, cap=7)
    e = TermEnsemble(((parse_term("!|0>"), 0.5), (full, 0.5)))
    with pytest.raises(EnsembleCapError, match="ensemble exceeded 8 entries"):
        det_step(e, strategy_chooser(), cap=8)
    assert built == []
    monkeypatch.undo()
    assert len(det_step(e, strategy_chooser(), cap=9)) == 9
    assert len(evaluate(full, cap=8).ensemble) == 8


@given(generated_term(), st.integers(0, 2**31))
@settings(max_examples=60)
def test_det_step_preserves_mass_any_chooser(t, chooser_seed):
    """Mass stays 1 whichever redex (or none) each entry fires."""
    rng = random.Random(chooser_seed)

    def chooser(term):
        options = enumerate_redexes(term, RULESET_ST)
        if not options or rng.random() < 0.3:
            return None
        return rng.choice(options)

    e = singleton(t)
    for _ in range(6):
        e = det_step(e, chooser)
        assert abs(e.mass() - 1.0) <= 1e-7
        e = min_ensemble(e)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_if_one():
    res = evaluate(parse_term("if !|1> then a else b"))
    assert res.status == "Converged"
    assert [(pretty(t), p) for t, p in res.ensemble.entries] == [("b", 1.0)]


def test_evaluate_promotion_four_branches():
    t = parse_term(f"(\\!x. x x) !(M{{1}} (({S2},0)!|0> + ({S2},0)!|1>))")
    res = evaluate(t)
    assert res.status == "Converged"
    assert len(res.ensemble) == 4
    for _, p in res.ensemble.entries:
        assert p == pytest.approx(0.25, abs=1e-9)


def test_evaluate_diverging_term_hits_step_limit():
    res = evaluate(OMEGA, max_steps=100)
    assert res.status == "StepLimit"
    assert res.steps == 100


def test_evaluate_zero_budget():
    normal = parse_term("!|0>")
    res = evaluate(normal, max_steps=0)
    assert res.status == "Converged" and res.ensemble == singleton(normal)
    res = evaluate(parse_term(r"(\x. x) !|0>"), max_steps=0)
    assert res.status == "StepLimit"


@given(generated_term())
@settings(max_examples=50)
def test_chooser_invariance_at_convergence(t):
    """Converging evaluations agree across redex choosers."""
    left = evaluate(t, max_steps=60, chooser=leftmost_chooser(RULESET_ST))
    right = evaluate(t, max_steps=60, chooser=rightmost_chooser(RULESET_ST))
    if left.status == "Converged" and right.status == "Converged":
        assert equivalent(left.ensemble, right.ensemble)


# ---------------------------------------------------------------------------
# sampling


def test_sample_single_branch():
    assert pretty(sample(parse_term("M{1} !|0>"), seed=3)) == "!|0>"


def test_sample_deterministic_per_seed():
    t = parse_term(f"M{{1}} {BIASED}")
    assert sample(t, seed=11) == sample(t, seed=11)


def test_sample_draws_only_at_two_or_more_branches():
    """A one-branch measurement costs no draw: the seed's first draw goes to
    the two-branch measurement after it."""
    t = parse_term(f"M{{1}} (M{{2}} ({BIASED} * !|0>))")
    (first,) = measure(t.arg.arg.value, {2})
    ps = [o.probability for o in measure(first.post, {1})]
    for seed in range(40):
        (word,) = random.Random(seed).choices(range(2), weights=ps)
        assert pretty(sample(t, seed)) == f"!|{word}0>"


def test_sample_step_limit():
    with pytest.raises(StepLimitError):
        sample(OMEGA, seed=0, max_steps=50)


@pytest.mark.parametrize("source", [r"(\x. H x) ((\y. y) !|0>)", r"M{1} ((\x. H x) !|0>)"])
def test_step_budget_is_exact(source):
    """A term that needs exactly n steps reaches its normal form with a
    budget of n and not with n - 1, evaluated or sampled."""
    t = parse_term(source)
    n = evaluate(t).steps
    assert n >= 2
    assert evaluate(t, max_steps=n).status == "Converged"
    assert evaluate(t, max_steps=n - 1).status == "StepLimit"
    assert sample(t, seed=0, max_steps=n) == sample(t, seed=0)
    with pytest.raises(StepLimitError):
        sample(t, seed=0, max_steps=n - 1)


def test_sample_zero_budget():
    normal = parse_term("!|0>")
    assert sample(normal, seed=0, max_steps=0) == normal
    with pytest.raises(StepLimitError):
        sample(parse_term(r"(\x. x) !|0>"), seed=0, max_steps=0)


def test_sample_frequency_smoke():
    t = parse_term(f"M{{1}} {BIASED}")
    ones = sum(1 for s in range(3000) if pretty(sample(t, seed=s)) == "!|1>")
    assert 0.64 == pytest.approx(ones / 3000, abs=0.05)


def sample_all_branches(t, seed, max_steps=10_000, trace=None):
    """The sampler that builds every branch of a measurement and then keeps
    one, drawn with ``rng.choices`` over the steps: the reference for
    ``sample``, which draws first and builds one branch."""
    rng = random.Random(seed)
    term = t
    for step_index in range(max_steps):
        redex = strategy_redex(term)
        if redex is None:
            return term
        steps = step_at(term, *redex)
        if len(steps) == 1:
            chosen = steps[0]
        else:
            chosen = rng.choices(steps, weights=[p for _, p in steps])[0]
        if trace is not None:
            trace(step_index, 0, *redex, *chosen)
        term = chosen[0]
    if strategy_redex(term) is None:
        return term
    raise StepLimitError(f"no normal form within {max_steps} steps")


@st.composite
def wide_measurement(draw):
    """M over some wires of a register of up to 10 wires with up to 40
    random amplitudes, bare or under a copying context."""
    width = draw(st.integers(1, 10))
    support = draw(st.sets(st.integers(0, (1 << width) - 1), min_size=1, max_size=40))
    raw = [complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))) for _ in support]
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    if norm < 1e-3:
        raw, norm = [1.0] * len(raw), math.sqrt(len(raw))
    q = QubitValue(width, {u: a / norm for u, a in zip(sorted(support), raw)})
    wires = draw(st.sets(st.integers(1, width), min_size=1))
    m = App(MeasConst(frozenset(wires)), QubitConst(q))
    return m if draw(st.booleans()) else App(BangLam("x", App(Var("x"), Var("x"))), Bang(m))


def _sampled(run, t, seed):
    steps = []
    try:
        result = run(t, seed, max_steps=200, trace=lambda *step: steps.append(step))
    except StepLimitError:
        result = None
    return result, steps


@given(st.one_of(generated_term(), wide_measurement()), st.integers(0, 2**32 - 1))
@settings(max_examples=80)
def test_sample_matches_build_everything_sampler(t, seed):
    """The same draws, the same steps (targets, probabilities, rules,
    positions) and the same result as the sampler that builds every branch."""
    assert _sampled(sample, t, seed) == _sampled(sample_all_branches, t, seed)


def test_sample_builds_only_the_drawn_branch(monkeypatch):
    """An 18-wire full measurement samples one basis state: one
    MeasurementOutcome is built, not 2**18."""
    import qlam.quantum as quantum

    n = 18
    wires = ",".join(str(i) for i in range(1, n + 1))
    t = parse_term(f"M{{{wires}}} (({'*'.join(['H'] * n)}) !|{'0' * n}>)")
    built = []
    outcome = quantum.MeasurementOutcome

    def counted(*args):
        built.append(args[0])
        return outcome(*args)

    monkeypatch.setattr(quantum, "MeasurementOutcome", counted)
    result = sample(t, seed=0)
    assert len(built) == 1
    assert result == QubitConst(QubitValue(n, {built[0]: 1.0}))


# ---------------------------------------------------------------------------
# registers at the edge of the float range


def test_zero_mass_measurement_is_a_named_error():
    """Every branch at or below EPS_ZERO: measure raises before asking pick,
    and sample and evaluate raise the same error."""
    source = "M{1} (1e-7,0)!|0>"
    asked = []
    with pytest.raises(ZeroMassError):
        measure(parse_term(source).arg.value, {1}, asked.append)
    assert asked == []
    with pytest.raises(ZeroMassError):
        sample(parse_term(source), 0)
    with pytest.raises(ZeroMassError):
        evaluate(parse_term(source))


HUGE = QubitValue(1, {0: complex(1e308, 1.5e308)})


def test_modulus_past_the_float_range_raises_no_overflow():
    """A modulus past the float range counts as inf wherever a register is
    compared, scattered or tested for a base bit."""
    assert not amps_close(HUGE, ket("0"), AMP_TOL)
    assert not alpha_eq(QubitConst(HUGE), QubitConst(ket("0")))
    ens = TermEnsemble(((QubitConst(HUGE), 0.5), (QubitConst(ket("0")), 0.5)))
    assert min_ensemble(ens) == ens
    flipped = QubitValue(1, {1: complex(1e308, 1.5e308)})
    assert apply_gate(gate("X"), HUGE) == flipped
    result = evaluate(App(GateConst(gate("X")), QubitConst(HUGE)))
    assert result.ensemble.entries == ((QubitConst(flipped), 1.0),)
    assert head_rule(If(QubitConst(HUGE), Var("a"), Var("b"))) is None
