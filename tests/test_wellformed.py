import math

from hypothesis import given, settings

from qlam.parser import parse_term, parse_term_with_notes
from qlam.reduction import RULESET_ST, enumerate_redexes, step_at
from qlam.syntax import alpha_eq
from qlam.wellformed import Context, check, is_normalized

from conftest import generated_term, rename_binders

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


def test_mixed_tensor_canonicalized_then_accepted():
    # written as a base qubit tensored with a superposition: well-formed in
    # canonical form, flagged by the strict surface notes as written
    term, notes = parse_term_with_notes("!|0> * ((0.6,0)!|0> + (0.8,0)!|1>)")
    assert check(term).verdict
    assert notes


def test_is_normalized_values():
    assert is_normalized([1], 1e-9)
    assert is_normalized([1 / math.sqrt(2), 1 / math.sqrt(2)], 1e-9)
    assert is_normalized([0.6, 0.8j], 1e-9)
    assert not is_normalized([0.6, 0.9], 1e-9)


# ---------------------------------------------------------------------------
# context bookkeeping


def test_context_rejects_duplicate_linear():
    ctx = Context().extended("x", "linear")
    assert ctx.lookup("x") == "linear"
    try:
        ctx.extended("x", "linear")
    except ValueError:
        pass
    else:
        raise AssertionError("duplicate linear entry accepted")


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
        for step in step_at(t, pos, rule):
            report = check(step.target)
            assert report.verdict, (rule, pos, report.violations)
