import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from qlam.confluence import _Gen
from qlam.parser import parse_term, parse_term_with_notes
from qlam.reduction import RULESET_ST, enumerate_redexes, step_at
from qlam.syntax import (
    App,
    Bang,
    BangLam,
    If,
    Lam,
    LetTensor,
    QubitConst,
    Var,
    alpha_eq,
)
from qlam.quantum import QubitValue
from qlam.wellformed import check

from conftest import generated_term, rename_binders
from syntax_oracles import positions, replace_at
from wellformed_oracles import check_reference

S2 = f"{1 / math.sqrt(2):.17g}"
HALF_SUP = f"(({S2},0)!|0> + ({S2},0)!|1>)"


# ---------------------------------------------------------------------------
# linearity


def test_cloning_rejected_linear_used_twice():
    report = check(parse_term(r"(\x. x x) (M{1} " + HALF_SUP + ")"))
    assert not report.verdict
    assert any("'x'" in msg and "2 times" in msg for _, _, msg in report.violations)


def test_linear_variable_must_be_used():
    assert not check(parse_term(r"\x. !|0>")).verdict


def test_linear_once_accepted():
    assert check(parse_term(r"\x. H x")).verdict


def test_linear_in_both_arms_rejected():
    assert not check(parse_term(r"\x. if !|0> then x else x")).verdict


def test_linear_in_one_arm_rejected():
    # either arm may be discarded by the conditional rules, so a linear
    # resource may not live in an arm at all
    report = check(parse_term(r"\x. if !|0> then x else !|1>"))
    assert not report.verdict
    assert any("arm" in msg for _, _, msg in report.violations)


def test_linear_in_condition_accepted():
    assert check(parse_term(r"\x. if x then !|0> else !|1>")).verdict


def test_nonlinear_variable_reusable():
    assert check(parse_term(r"\!x. x x")).verdict
    assert check(parse_term(r"\!x. !|0>")).verdict


def test_free_variable_single_use_tolerated():
    assert check(parse_term("H x")).verdict


def test_free_variable_double_use_rejected():
    assert not check(parse_term("x x")).verdict


def test_split_binders_are_nonlinear():
    assert check(parse_term("let a * b = v in a a")).verdict
    assert check(parse_term("let a * b = v in !|0>")).verdict


def test_bang_over_linear_variable_rejected():
    report = check(parse_term(r"\x. (\!z. z) !x"))
    assert not report.verdict
    assert any(rule == "bang" for _, rule, _ in report.violations)


def test_bang_over_nonlinear_variable_accepted():
    assert check(parse_term(r"\!x. (\!z. z) !x")).verdict


# ---------------------------------------------------------------------------
# nonlinear application restriction


def test_copying_accepted_measurement_must_fire_first():
    term = parse_term(r"(\!x. x x) (M{1} " + HALF_SUP + ")")
    assert check(term).verdict
    # no nonlinear beta step exists until the measurement collapses
    rules = [rule for _, rule in enumerate_redexes(term, RULESET_ST)]
    assert rules == ["M"]


def test_promotion_accepted():
    assert check(parse_term(r"(\!x. x x) !(M{1} " + HALF_SUP + ")")).verdict


def test_nonlinear_applied_to_register_accepted():
    assert check(parse_term(r"(\!x. x x) !|0>")).verdict


def test_nonlinear_applied_to_bare_variable_rejected():
    report = check(parse_term(r"\y. (\!x. !|0>) y"))
    assert any(rule == "nonlinear-application" for _, rule, _ in report.violations)


def test_nonlinear_applied_to_abstraction_rejected():
    report = check(parse_term(r"(\!x. !|0>) (\y. y)"))
    assert not report.verdict


def test_nonlinear_applied_to_gate_rejected():
    assert not check(parse_term(r"(\!x. !|0>) H")).verdict


def test_nonlinear_applied_to_banged_gate_accepted():
    assert check(parse_term(r"(\!x. !|0>) !H")).verdict


# ---------------------------------------------------------------------------
# register rules


def test_normalized_superposition_accepted():
    assert check(parse_term("(0.6,0)(!|0>*!|0>) + (0.8,0)(!|0>*!|1>)")).verdict


def test_unnormalized_rejected():
    report = check(parse_term("(0.6,0)!|0> + (0.9,0)!|1>"))
    assert not report.verdict
    assert any(rule == "superposition" for _, rule, _ in report.violations)


def test_overflowing_mass_reported():
    report = check(parse_term("(1e300,0)!|0> + (1e300,0)!|1>"))
    assert not report.verdict
    assert report.violations == [
        ((), "superposition", "register amplitudes have squared mass inf, expected 1")]


def test_mixed_tensor_canonicalized_then_accepted():
    # written as a base qubit tensored with a superposition: well-formed in
    # canonical form, flagged by the strict surface notes as written
    term, notes = parse_term_with_notes("!|0> * ((0.6,0)!|0> + (0.8,0)!|1>)")
    assert check(term).verdict
    assert notes


def test_is_normalized_values():
    assert QubitValue(1, ((0, 1),)).is_unit()
    assert QubitValue(1, ((0, 1 / math.sqrt(2)), (1, 1 / math.sqrt(2)))).is_unit()
    assert QubitValue(1, ((0, 0.6), (1, 0.8j))).is_unit()
    assert not QubitValue(1, ((0, 0.6), (1, 0.9))).is_unit()


# ---------------------------------------------------------------------------
# properties


@given(generated_term())
def test_generated_terms_are_well_formed(t):
    assert check(t).verdict


@given(generated_term())
def test_check_stable_under_renaming(t):
    renamed = rename_binders(t, "u")
    assert alpha_eq(t, renamed)
    assert check(renamed).verdict == check(t).verdict


@given(generated_term())
@settings(max_examples=80)
def test_subject_reduction(t):
    """Every one-step successor of a generated well-formed term stays
    well-formed, whichever rule fires."""
    assert check(t).verdict
    for pos, rule in enumerate_redexes(t, RULESET_ST):
        for target, _ in step_at(t, pos, rule):
            report = check(target)
            assert report.verdict, (rule, pos, report.violations)


# ---------------------------------------------------------------------------
# the one-walk check against the two-walk reference


def assert_same_report(t):
    got, want = check(t), check_reference(t)
    assert got.verdict == want.verdict
    assert got.violations == want.violations


# names the generator also binds (v1, v2, ...), so wrappers shadow its
# binders and capture its variables
_NAMES = ("x", "y", "v1", "v2", "v3")
_ZERO = QubitConst(QubitValue(1, ((0, 1),)))


def _wrap(kind: str, x: str, t, rng: random.Random):
    """t inside a context of the given kind; most kinds make it ill-formed."""
    match kind:
        case "unused":  # \x. t
            return Lam(x, t)
        case "nonlinear":  # \!x. t
            return BangLam(x, t)
        case "duplicate":  # (\x. x x) t
            return App(Lam(x, App(Var(x), Var(x))), t)
        case "bang-capture":  # \x. !(x t)
            return Lam(x, Bang(App(Var(x), t)))
        case "arm":  # \x. if t then x else !|0>, either arm
            arms = (Var(x), _ZERO) if rng.random() < 0.5 else (_ZERO, Var(x))
            return Lam(x, If(t, *arms))
        case "free-twice":  # x t x
            return App(App(Var(x), t), Var(x))
        case "nonlinear-app":  # (\!x. x x) t
            return App(BangLam(x, App(Var(x), Var(x))), t)
        case "split":  # let x * y = !|00> in t
            return LetTensor(x, "y", QubitConst(QubitValue(2, ((0, 1),))), t)
        case "unnormalized":  # t (0.6,0)!|0>
            return App(t, QubitConst(QubitValue(1, ((0, 0.6),))))
        case "plant":  # t with one subterm replaced by x
            pos = rng.choice(list(positions(t)))
            return replace_at(t, pos, Var(x))
    raise ValueError(kind)


_KINDS = ("unused", "nonlinear", "duplicate", "bang-capture", "arm", "free-twice",
          "nonlinear-app", "split", "unnormalized", "plant")


@st.composite
def unfiltered_term(draw):
    """A generator term that has not been through check, under up to three
    random wrappers."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    t = _Gen(rng, draw(st.integers(1, 3))).gen(draw(st.integers(1, 12)), (), ())
    for _ in range(draw(st.integers(0, 3))):
        t = _wrap(draw(st.sampled_from(_KINDS)), draw(st.sampled_from(_NAMES)), t, rng)
    return t


@given(unfiltered_term())
@settings(max_examples=300)
def test_check_matches_reference(t):
    assert_same_report(t)


@pytest.mark.parametrize("source", [
    r"\x. \x. x",
    r"\x. (\!x. x x) !|0>",
    r"\!x. \x. !x",
    r"\x. \!x. !x",
    r"\!x. \x. x x",
    r"\x. let x * y = !|00> in x x",
    r"\x. !(let x * y = !|00> in x)",
    r"\y. let x * y = !|00> in y y",
    r"let a * b = !|00> in b b",
    r"\x. (\x. x) x",
    r"\x. (\!z. z) !(\x. x)",
    r"\x. if !|0> then (\x. x) else x",
    r"x (\x. x) x",
    r"(\z. z z) (H y)",
    r"\x. !(x y)",
])
def test_check_matches_reference_on_shadowing(source):
    assert_same_report(parse_term(source))
