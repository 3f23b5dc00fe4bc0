import math
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import qlam.reduction as reduction
from qlam.confluence import GenConfig, generate
from qlam.ensemble import equivalent, evaluate
from qlam.parser import parse_term
from qlam.quantum import QubitValue
from qlam.reduction import (
    RULESET_S,
    RULESET_ST,
    RULESET_T,
    NoRedexError,
    enumerate_redexes,
    head_rule,
    step_at,
    strategy_redex,
    stuck_sites,
)
from qlam.syntax import (
    App,
    If,
    Lam,
    LetTensor,
    MeasConst,
    QubitConst,
    Var,
    alpha_eq,
    pretty,
    substitute,
)
from qlam.wellformed import check

from conftest import generated_term, random_register
from reduction_oracles import (
    enumerate_redexes_reference,
    preorder_reference,
    strategy_redex_reference,
    stuck_sites_reference,
)
from syntax_oracles import subterm_at

S2 = f"{1 / math.sqrt(2):.17g}"
BIASED = "((0.6,0)!|0> + (0.8,0)!|1>)"


# ---------------------------------------------------------------------------
# single steps


def test_if_zero_takes_first_arm():
    steps = step_at(parse_term("if !|0> then a else b"), (), "if-0")
    assert [(pretty(t), p) for t, p in steps] == [("a", 1.0)]


def test_if_one_takes_second_arm():
    steps = step_at(parse_term("if !|1> then a else b"), (), "if-1")
    assert [(pretty(t), p) for t, p in steps] == [("b", 1.0)]


def test_measurement_steps_follow_born_rule():
    steps = step_at(parse_term(f"M{{1}} {BIASED}"), (), "M")
    assert [pretty(t) for t, _ in steps] == ["!|0>", "!|1>"]
    assert steps[0][1] == pytest.approx(0.36, abs=1e-9)
    assert steps[1][1] == pytest.approx(0.64, abs=1e-9)


def test_beta_identity():
    steps = step_at(parse_term(r"(\x. x) !|1>"), (), "beta")
    assert [(pretty(t), p) for t, p in steps] == [("!|1>", 1.0)]


def test_beta_not_value_restricted():
    # a linear beta redex fires even while its argument still reduces
    t = parse_term(r"(\x. H x) (M{1} " + BIASED + ")")
    assert ((), "beta") in enumerate_redexes(t, RULESET_S)
    assert ((1,), "M") in enumerate_redexes(t, RULESET_T)


def test_nonlinear_beta_on_bang_substitutes_payload():
    t = parse_term(r"(\!x. x x) !(M{1} " + BIASED + ")")
    [(target, _)] = step_at(t, (), "!beta1")
    want = parse_term(f"(M{{1}} {BIASED}) (M{{1}} {BIASED})")
    assert alpha_eq(target, want)


def test_nonlinear_beta_on_register():
    t = parse_term(r"(\!x. x x) !|0>")
    [(target, _)] = step_at(t, (), "!beta2")
    assert pretty(target) == "!|0> !|0>"


def test_unitary_step():
    t = parse_term("H !|0>")
    [(target, _)] = step_at(t, (), "U")
    assert alpha_eq(target, parse_term(f"({S2},0)!|0> + ({S2},0)!|1>"))


def test_split_step():
    t = parse_term("let a * b = !|0> * !|1> in b")
    [(target, _)] = step_at(t, (), "split")
    assert pretty(target) == "!|1>"


def test_no_redex_error():
    with pytest.raises(NoRedexError):
        step_at(parse_term("x"), (), "beta")


@pytest.mark.parametrize("pos", [(-1,), (-2,), (2,), (5,), (1, -1), (0, 0, 0)])
def test_step_at_rejects_a_position_outside_the_term(pos):
    """A beta redex sits at (1,), but no negative index counts from the end
    and no index past the last child reaches it."""
    t = parse_term(r"(\x. x) ((\y. y) !|0>)")
    with pytest.raises(NoRedexError, match=re.escape(f"no subterm at {pos}")):
        step_at(t, pos, "beta")


def test_stuck_measurement_error():
    with pytest.raises(NoRedexError, match="not a register constant"):
        step_at(parse_term("M{1} x"), (), "M")


# ---------------------------------------------------------------------------
# redex enumeration


def test_enumerate_single_beta():
    assert enumerate_redexes(parse_term(r"(\x. x) !|0>"), RULESET_ST) == [((), "beta")]


def test_enumerate_both_measurement_positions():
    t = parse_term(f"(M{{1}} {BIASED}) (M{{1}} {BIASED})")
    assert enumerate_redexes(t, RULESET_T) == [((0,), "M"), ((1,), "M")]


def test_enumerate_inside_conditional():
    t = parse_term(f"if M{{1}} {BIASED} then a else ((\\x. x) !|0>)")
    got = enumerate_redexes(t, RULESET_ST)
    assert ((0,), "M") in got
    assert ((2,), "beta") in got


def test_enumerate_under_binder():
    t = parse_term(r"\y. (\x. x) y")
    assert enumerate_redexes(t, RULESET_ST) == [((0,), "beta")]


def test_no_enumeration_under_bang():
    t = parse_term(f"!(M{{1}} {BIASED})")
    assert enumerate_redexes(t, RULESET_ST) == []


def test_superposed_condition_is_stuck():
    t = parse_term(f"if {BIASED} then a else b")
    assert enumerate_redexes(t, RULESET_ST) == []
    assert stuck_sites(t) == [((), "conditional on a non-base register")]


def test_phased_bit_condition_is_stuck():
    # a measured bit can carry a phase; the conditional only fires on an
    # exact base qubit
    t = If(QubitConst(QubitValue(1, {1: -1.0})), Var("a"), Var("b"))
    assert head_rule(t) is None


def test_nonlinear_beta_never_fires_on_linear_argument():
    assert enumerate_redexes(parse_term(r"(\!x. !|0>) (\y. y)"), RULESET_ST) == []
    t = App(parse_term(r"\!x. !|0>"), Var("y"))
    assert enumerate_redexes(t, RULESET_ST) == []


def test_entangled_split_is_stuck():
    t = parse_term(f"let a * b = (({S2},0)!|00> + ({S2},0)!|11>) in a")
    assert enumerate_redexes(t, RULESET_ST) == []
    assert stuck_sites(t) == [((), "split of an entangled register")]


def test_arity_mismatch_is_stuck():
    t = parse_term("(H*H) !|0>")
    assert enumerate_redexes(t, RULESET_ST) == []
    assert stuck_sites(t)[0][1].startswith("gate arity")


@given(generated_term())
def test_probability_completeness(t):
    """Each (position, rule) pair's branch probabilities sum to 1."""
    for pos, rule in enumerate_redexes(t, RULESET_ST):
        steps = step_at(t, pos, rule)
        assert abs(sum(p for _, p in steps) - 1.0) <= 1e-9
        for _, p in steps:
            assert p > 0
            assert (p == 1.0) or rule == "M"


# ---------------------------------------------------------------------------
# measurement is context independent


_HOLE_CONTEXTS = [
    (Var("hole"), ()),
    (App(Lam("y", Var("y")), Var("hole")), (1,)),
    (App(Var("hole"), QubitConst(QubitValue(1, {0: 1.0}))), (0,)),
    (Lam("z", App(Var("z"), Var("hole"))), (0, 1)),
    (If(Var("hole"), Var("a"), Var("b")), (0,)),
]


@given(random_register(max_width=2), st.sampled_from(_HOLE_CONTEXTS))
@settings(max_examples=60)
def test_measurement_steps_commute_with_context(q, ctx):
    """Plugging a measurement redex into a one-hole linear context leaves
    its branch probabilities and results untouched."""
    context, hole_pos = ctx
    m_term = App(MeasConst(frozenset({1})), QubitConst(q))
    direct = step_at(m_term, (), "M")
    plugged = substitute(context, {"hole": m_term})
    in_context = step_at(plugged, hole_pos, "M")
    assert len(direct) == len(in_context)
    for (d, dp), (c, cp) in zip(direct, in_context):
        assert dp == pytest.approx(cp, abs=1e-12)
        assert alpha_eq(c, substitute(context, {"hole": d}))


def test_split_binders_sharing_a_name_take_the_right_factor():
    """``let a * a = v in a`` is alpha-equivalent to ``let x * y = v in y``,
    both check, and both reduce to the right factor."""
    value = parse_term("!|01>")
    shared = LetTensor("a", "a", value, Var("a"))
    distinct = LetTensor("x", "y", value, Var("y"))
    assert alpha_eq(shared, distinct)
    assert check(shared).verdict and check(distinct).verdict
    got, want = evaluate(shared).ensemble, evaluate(distinct).ensemble
    assert equivalent(got, want)
    assert [pretty(t) for t, _ in got.entries] == ["!|1>"]


# ---------------------------------------------------------------------------
# deterministic strategy


def test_strategy_reduces_argument_first():
    t = parse_term(r"(\x. x) ((\y. y) !|0>)")
    assert strategy_redex(t) == ((1,), "beta")


def test_strategy_function_position_before_argument():
    t = parse_term(r"((\f. f) (\x. x)) ((\y. y) !|0>)")
    assert strategy_redex(t) == ((0,), "beta")


def test_strategy_falls_back_under_binders():
    t = parse_term(r"\y. (\x. x) y")
    assert strategy_redex(t) == ((0,), "beta")


def test_strategy_does_not_enter_bang():
    t = parse_term(f"(\\!x. x x) !(M{{1}} {BIASED})")
    assert strategy_redex(t) == ((), "!beta1")


def test_normal_form_detection():
    assert strategy_redex(parse_term("!|0>")) is None
    assert strategy_redex(parse_term(f"if {BIASED} then a else b")) is None
    assert strategy_redex(parse_term(r"(\x. x) !|0>")) is not None


def test_rule_sets_are_disjoint_and_cover():
    assert not (RULESET_S & RULESET_T)
    assert RULESET_ST == RULESET_S | RULESET_T
    assert "M" in RULESET_T and "beta" in RULESET_S


# ---------------------------------------------------------------------------
# the one redex walk against the walks it replaced


def _with_successors(t):
    """t and every term one step from it."""
    out = [t]
    for pos, rule in enumerate_redexes_reference(t, RULESET_ST):
        out += [target for target, _ in step_at(t, pos, rule)]
    return out


def _assert_walk_agrees(t):
    assert strategy_redex(t) == strategy_redex_reference(t)
    for rules in (RULESET_S, RULESET_T, RULESET_ST):
        assert enumerate_redexes(t, rules) == enumerate_redexes_reference(t, rules)
    assert stuck_sites(t) == stuck_sites_reference(t)


@given(generated_term(max_size=14))
def test_redex_walk_agrees_with_reference(t):
    """strategy_redex (fallback included), enumerate_redexes and stuck_sites
    answer as the recursive call-by-value walk and the preorder walk did, on
    generated terms and every one-step successor."""
    for u in _with_successors(t):
        _assert_walk_agrees(u)


def test_redex_walk_agrees_with_reference_on_seed_corpus():
    terms = [u for t in generate(GenConfig(seed=0)) for u in _with_successors(t)]
    assert len(terms) > 1000
    for u in terms:
        _assert_walk_agrees(u)


def test_strategy_tries_each_redex_candidate_once(monkeypatch):
    """One strategy_redex call runs head_rule at most once per node, and
    only on App, If and LetTensor nodes."""
    seen = []

    def counted(term):
        seen.append(term)
        return head_rule(term)

    monkeypatch.setattr(reduction, "head_rule", counted)
    t = parse_term(r"f (\y. (\x. x) y)")
    assert strategy_redex(t) == ((1, 0), "beta")
    assert len(seen) == 2
    assert all(type(u) is App for u in seen) and seen[0] is not seen[1]
    for t in generate(GenConfig(seed=0)):
        seen.clear()
        strategy_redex(t)
        candidates = [u for _, u in preorder_reference(t) if type(u) in (App, If, LetTensor)]
        assert len(seen) <= len(candidates)
        assert all(type(u) in (App, If, LetTensor) for u in seen)


def test_redex_walk_and_step_on_a_deep_chain():
    """A 10,000-level chain H (H (... !|0>)), built without the parser,
    steps at depth 9,999 and walks without RecursionError."""
    depth = 10_000
    h = parse_term("H")
    t = QubitConst(QubitValue(1, {0: 1.0}))
    for _ in range(depth):
        t = App(h, t)
    deepest = (1,) * (depth - 1)
    assert strategy_redex(t) == (deepest, "U")
    [(target, _)] = step_at(t, deepest, "U")
    assert len(subterm_at(target, deepest).value.amps) == 2
    assert enumerate_redexes(t, RULESET_ST) == [(deepest, "U")]
    assert stuck_sites(t) == []
