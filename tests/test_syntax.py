import random

from hypothesis import given
import hypothesis.strategies as st

from qlam.parser import parse_term
from qlam.quantum import QubitValue
from qlam.syntax import (
    AMP_TOL,
    KEY_AMP_THRESHOLD,
    App,
    Bang,
    Lam,
    LetTensor,
    QubitConst,
    Var,
    alpha_eq,
    free_vars,
    positions,
    pretty,
    replace_at,
    shape_key,
    substitute,
    subterm_at,
    term_size,
)

from conftest import generated_term, near_threshold_register, perturb_registers, rename_binders


# ---------------------------------------------------------------------------
# alpha-equivalence


def test_alpha_renamed_identity():
    assert alpha_eq(parse_term(r"\x. x"), parse_term(r"\y. y"))


def test_alpha_capture_distinguishes():
    assert not alpha_eq(parse_term(r"\x. \y. x"), parse_term(r"\y. \x. x"))


def test_alpha_free_variables_by_name():
    assert alpha_eq(Var("a"), Var("a"))
    assert not alpha_eq(Var("a"), Var("b"))


def test_alpha_qubit_zero_amplitude_dropped():
    # a zero summand is removable, so these registers are the same constant
    with_zero = QubitConst(QubitValue(1, {0: 1.0, 1: 0.0}))
    without = QubitConst(QubitValue(1, {0: 1.0}))
    assert alpha_eq(with_zero, without)


def test_alpha_qubit_tolerance():
    a = QubitConst(QubitValue(1, {0: 0.6, 1: 0.8}))
    b = QubitConst(QubitValue(1, {0: 0.6 + 1e-12, 1: 0.8}))
    c = QubitConst(QubitValue(1, {0: 0.8, 1: 0.6}))
    assert alpha_eq(a, b)
    assert not alpha_eq(a, c)


@given(generated_term())
def test_alpha_reflexive(t):
    assert alpha_eq(t, t)


@given(generated_term(), generated_term())
def test_alpha_symmetric(a, b):
    assert alpha_eq(a, b) == alpha_eq(b, a)


@given(generated_term())
def test_alpha_invariant_under_renaming(t):
    renamed = rename_binders(t, "w")
    assert alpha_eq(t, renamed)


# ---------------------------------------------------------------------------
# shape keys


def test_shape_key_binder_levels():
    assert shape_key(parse_term(r"\x. x")) == shape_key(parse_term(r"\y. y"))
    assert shape_key(parse_term(r"\x. \y. x")) != shape_key(parse_term(r"\x. \y. y"))
    assert shape_key(Var("a")) != shape_key(Var("b"))
    assert shape_key(parse_term(r"\x. x")) != shape_key(parse_term(r"\!x. x"))


def test_shape_key_let_tensor_binds_two_levels():
    q = "(0.6,0)!|00> + (0.8,0)!|01>"
    left = shape_key(parse_term(f"let a * b = {q} in a"))
    assert left == shape_key(parse_term(f"let c * d = {q} in c"))
    assert left != shape_key(parse_term(f"let a * b = {q} in b"))
    # a repeated name (which the parser rejects) binds the right level, as
    # in alpha_eq
    value = parse_term(q)
    assert shape_key(LetTensor("a", "a", value, Var("a"))) == \
        shape_key(parse_term(f"let a * b = {q} in b"))


def test_shape_key_register_support():
    big = QubitConst(QubitValue(1, {0: 0.6, 1: 0.8}))
    assert shape_key(big) == shape_key(QubitConst(QubitValue(1, {0: 0.8, 1: -0.6})))
    assert shape_key(big) != shape_key(QubitConst(QubitValue(2, {0: 0.6, 1: 0.8})))
    assert shape_key(big) != shape_key(QubitConst(QubitValue(1, {0: 1.0})))


def test_shape_key_none_near_threshold():
    for offset in (0.0, 0.9 * AMP_TOL, -0.9 * AMP_TOL):
        assert shape_key(QubitConst(near_threshold_register(offset))) is None
        assert shape_key(App(Var("f"), QubitConst(near_threshold_register(offset)))) is None
    above = QubitConst(near_threshold_register(5 * AMP_TOL))
    below = QubitConst(near_threshold_register(-5 * AMP_TOL))
    assert None not in (shape_key(above), shape_key(below))
    assert shape_key(above) != shape_key(below)
    # a tolerance as wide as the threshold keys no register, but still keys
    # terms without one
    assert shape_key(above, tol=KEY_AMP_THRESHOLD) is None
    assert shape_key(parse_term(r"\x. x"), tol=KEY_AMP_THRESHOLD) is not None


@given(generated_term(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.5))
def test_shape_key_agrees_with_alpha_eq(t, seed, scale):
    """Alpha-equivalent copies (renamed binders, registers moved by up to
    1.5 tolerances per component) share a key unless one of them has none;
    terms with different keys are never alpha-equivalent."""
    copy = perturb_registers(rename_binders(t, "k"), random.Random(seed), scale * AMP_TOL)
    keys = shape_key(t), shape_key(copy)
    if alpha_eq(t, copy) and None not in keys:
        assert keys[0] == keys[1]
    if scale == 0.0:
        assert keys[0] == keys[1]


@given(generated_term(), generated_term())
def test_shape_key_separates_only_inequivalent_terms(a, b):
    ka, kb = shape_key(a), shape_key(b)
    if None not in (ka, kb) and ka != kb:
        assert not alpha_eq(a, b)
    assert hash(ka) == hash(shape_key(a))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_variable():
    bang_zero = parse_term("!|0>")
    assert substitute(Var("x"), "x", bang_zero) == bang_zero


def test_substitute_avoids_capture():
    # (\y. x)[y/x] must rename the binder, not capture
    body = Lam("y", Var("x"))
    got = substitute(body, "x", Var("y"))
    assert isinstance(got, Lam)
    assert got.var != "y"
    assert got.body == Var("y")
    assert "y" in free_vars(got)


def test_substitute_duplicates_into_nonlinear_positions():
    body = App(Var("x"), Var("x"))
    m = parse_term("M{1} ((0.6,0)!|0> + (0.8,0)!|1>)")
    got = substitute(body, "x", m)
    assert got == App(m, m)


def test_substitute_shadowed_binder_untouched():
    t = parse_term(r"\x. x")
    assert substitute(t, "x", Var("z")) == t


@given(generated_term())
def test_substitute_free_var_contract(t):
    """Substituting into a closed term changes nothing; gluing t under a
    fresh binder keeps free variables empty."""
    assert free_vars(t) == frozenset()
    assert substitute(t, "zz", Var("ww")) == t


def test_substitute_under_bang_keeps_payload():
    t = Bang(Var("x"))
    assert substitute(t, "x", Var("y")) == Bang(Var("y"))


@given(generated_term(), generated_term())
def test_substitute_free_variable_sets(body_part, rep_part):
    """Free variables after substitution are exactly those of the
    replacement plus the body's others; nothing gets captured."""
    body = App(Var("hole"), body_part)
    replacement = App(rep_part, Var("leaked"))
    got = substitute(body, "hole", replacement)
    assert free_vars(got) == {"leaked"}


# ---------------------------------------------------------------------------
# positions


def test_positions_and_replace():
    t = parse_term(r"(\x. x) !|1>")
    assert subterm_at(t, (0,)) == Lam("x", Var("x"))
    swapped = replace_at(t, (1,), Var("z"))
    assert subterm_at(swapped, (1,)) == Var("z")
    assert subterm_at(swapped, (0,)) == Lam("x", Var("x"))


@given(generated_term())
def test_positions_cover_every_subterm(t):
    poss = list(positions(t))
    assert poss[0] == ()
    assert len(poss) == term_size(t)
    for pos in poss:
        subterm_at(t, pos)  # must not raise


# ---------------------------------------------------------------------------
# pretty-printing round trip


def test_pretty_identity_lambda():
    assert pretty(parse_term(r"\x. x")) == r"\x. x"


def test_pretty_measurement_sorted():
    assert pretty(parse_term("M{2,1}")) == "M{1,2}"


def test_pretty_qubit_deterministic_order():
    t = parse_term("(0.8,0)!|1> + (0.6,0)!|0>")
    assert pretty(t) == "(0.6,0)!|0> + (0.8,0)!|1>"


@given(generated_term())
def test_round_trip(t):
    assert alpha_eq(parse_term(pretty(t)), t)


def test_round_trip_corpus_programs():
    from conftest import PROGRAMS
    from qlam.parser import parse_program

    for path in sorted(PROGRAMS.glob("*.qlam")):
        program = parse_program(path.read_text())
        for _, term in program.defs:
            # reparse each definition's canonical form (user gates in scope)
            reparsed = parse_term(pretty(term), gates=program.gates)
            assert alpha_eq(reparsed, term)
