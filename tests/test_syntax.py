import itertools
import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from qlam import syntax
from qlam.ensemble import TermEnsemble, evaluate, min_ensemble
from qlam.parser import parse_program, parse_term
from qlam.quantum import PAULI_X, PAULI_Z, GateAtom, GateExpr, QubitValue, _canonical, ket
from qlam.syntax import (
    AMP_TOL,
    App,
    Bang,
    BangLam,
    GateConst,
    If,
    Lam,
    LetTensor,
    QubitConst,
    Var,
    alpha_eq,
    children,
    format_amplitude,
    format_qubit,
    free_vars,
    height,
    pretty,
    shape_key,
    substitute,
    with_children,
)

from conftest import (
    PROGRAMS,
    generated_term,
    let_chain,
    near_threshold_register,
    perturb_registers,
    random_register,
    random_terms,
    rename_binders,
    term_height,
)
from kernel_oracles import gate
from syntax_oracles import (
    alpha_eq_reference,
    free_vars_reference,
    positions,
    pretty_reference,
    replace_at,
    shape_key_reference,
    substitute_reference,
    subterm_at,
)


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


def test_shape_key_past_the_float_range():
    """An amplitude modulus past the float range counts as inf: the key is
    that of an alpha-equivalent copy, and min_ensemble merges the two."""
    def term(x):
        return Lam(x, App(Var(x), QubitConst(QubitValue(1, {0: complex(1e308, 1.5e308)}))))

    a, b = term("x"), term("y")
    assert alpha_eq(a, b)
    assert shape_key(a) is not None
    assert shape_key(a) == shape_key(b)
    assert min_ensemble(TermEnsemble(((a, 0.5), (b, 0.5)))).entries == ((a, 1.0),)


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


@given(generated_term(), generated_term(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.5))
def test_shape_walk_matches_reference(a, b, seed, scale):
    """On unrelated terms and on renamed copies whose registers moved by up
    to 1.5 tolerances per component, alpha_eq agrees with the recursive
    reference, shape_key is None exactly when the reference key is, and two
    keys are equal exactly when the reference keys are."""
    copy = perturb_registers(rename_binders(a, "k"), random.Random(seed), scale * AMP_TOL)
    terms = (a, b, copy)
    keys = [shape_key(t) for t in terms]
    references = [shape_key_reference(t) for t in terms]
    for key, reference in zip(keys, references):
        assert (key is None) == (reference is None)
    for i, j in itertools.combinations(range(3), 2):
        assert alpha_eq(terms[i], terms[j]) == alpha_eq_reference(terms[i], terms[j])
        assert (keys[i] == keys[j]) == (references[i] == references[j])


@given(generated_term(), generated_term())
def test_shape_key_is_kept_on_the_term(a, b):
    """A term is keyed once: asked again, shape_key hands back the same
    object, None included, without walking the term.  The kept keys still
    agree with the reference keys."""
    calls = []
    walk = syntax._shape
    terms = [a, b, App(a, QubitConst(near_threshold_register(0.0)))]
    keys = [shape_key(t) for t in terms]
    assert keys[2] is None
    try:
        syntax._shape = lambda t: calls.append(t) or walk(t)
        assert all(shape_key(t) is key for t, key in zip(terms, keys))
    finally:
        syntax._shape = walk
    assert calls == []
    references = [shape_key_reference(t) for t in terms]
    for key, reference in zip(keys, references):
        assert (key is None) == (reference is None)
    assert (keys[0] == keys[1]) == (references[0] == references[1])


def _gate(name, matrix):
    return GateConst(GateExpr((GateAtom(name, matrix),)))


def test_shape_walk_hand_built_cases():
    """Gates compare by matrix, not name; a free variable never matches a
    bound one, also where its name was bound in an earlier scope; a
    LetTensor whose two binders share a name binds the right one, as in the
    reference."""
    q = "(0.6,0)!|00> + (0.8,0)!|01>"
    value = parse_term(q)
    x_gate, z_gate = _gate("U", PAULI_X.matrix), _gate("U", PAULI_Z.matrix)
    cases = [
        (x_gate, z_gate, False),
        (x_gate, _gate("U", PAULI_X.matrix), True),
        (Lam("x", Var("x")), Lam("y", Var("x")), False),
        (Lam("x", App(Var("x"), Var("y"))), Lam("y", App(Var("y"), Var("y"))), False),
        (Lam("x", Var("0")), Lam("x", Var("x")), False),
        # a name is free again once its binder's scope is left
        (App(Lam("x", Var("x")), Var("x")), App(Lam("y", Var("y")), Var("x")), True),
        (App(Lam("x", Var("x")), Lam("y", Var("x"))),
         App(Lam("x", Var("x")), Lam("y", Var("y"))), False),
        (LetTensor("x", "y", Var("x"), Var("x")), LetTensor("a", "b", Var("x"), Var("a")), True),
        (LetTensor("a", "a", value, Var("a")), parse_term(f"let c * d = {q} in d"), True),
        (LetTensor("a", "a", value, Var("a")), parse_term(f"let c * d = {q} in c"), False),
    ]
    for a, b, expected in cases:
        assert alpha_eq(a, b) == alpha_eq_reference(a, b) == expected
        assert alpha_eq(b, a) == expected
        assert (shape_key(a) == shape_key(b)) == expected
    assert shape_key_reference(x_gate) == shape_key_reference(z_gate)


def _deep_chain(prefix, amplitude=1.0):
    """A term nesting 20,001 levels, built with constructors: 10,000
    abstractions, each over an application of the next level to a variable
    bound by it or by a binder further out, around one register."""
    count = 10_000
    t = QubitConst(QubitValue(1, ((0, amplitude),)))
    for i in range(count):
        t = Lam(f"{prefix}{i}", App(t, Var(f"{prefix}{min(2 * i, count - 1)}")))
    return t


def test_deep_terms_compare_without_recursion():
    """Terms far deeper than the parser's recursion limit compare, key and
    canonicalize without one Python frame per level."""
    a, b = _deep_chain("a"), _deep_chain("b")
    assert alpha_eq(a, b)
    assert not alpha_eq(a, _deep_chain("c", -1.0))
    assert shape_key(a) is not None and shape_key(a) == shape_key(b)
    merged = min_ensemble(TermEnsemble(((a, 0.5), (b, 0.5))))
    assert len(merged) == 1
    assert merged.entries[0][0] is a and merged.entries[0][1] == 1.0


# ---------------------------------------------------------------------------
# substitution


def test_substitute_variable():
    bang_zero = parse_term("!|0>")
    assert substitute(Var("x"), {"x": bang_zero}) == bang_zero


def test_substitute_avoids_capture():
    # (\y. x)[y/x] must rename the binder, not capture
    body = Lam("y", Var("x"))
    got = substitute(body, {"x": Var("y")})
    assert isinstance(got, Lam)
    assert got.var != "y"
    assert got.body == Var("y")
    assert "y" in free_vars(got)


def test_substitute_duplicates_into_nonlinear_positions():
    body = App(Var("x"), Var("x"))
    m = parse_term("M{1} ((0.6,0)!|0> + (0.8,0)!|1>)")
    got = substitute(body, {"x": m})
    assert got == App(m, m)


def test_substitute_shadowed_binder_untouched():
    t = parse_term(r"\x. x")
    assert substitute(t, {"x": Var("z")}) == t


@given(generated_term())
def test_substitute_free_var_contract(t):
    """Substituting into a closed term changes nothing; gluing t under a
    fresh binder keeps free variables empty."""
    assert free_vars(t) == frozenset()
    assert substitute(t, {"zz": Var("ww")}) == t


def test_substitute_under_bang_keeps_payload():
    t = Bang(Var("x"))
    assert substitute(t, {"x": Var("y")}) == Bang(Var("y"))


@given(generated_term(), generated_term())
def test_substitute_free_variable_sets(body_part, rep_part):
    """Free variables after substitution are exactly those of the
    replacement plus the body's others; nothing gets captured."""
    body = App(Var("hole"), body_part)
    replacement = App(rep_part, Var("leaked"))
    got = substitute(body, {"hole": replacement})
    assert free_vars(got) == {"leaked"}


# ---------------------------------------------------------------------------
# positions


def test_positions_and_replace():
    t = parse_term(r"(\x. x) !|1>")
    assert subterm_at(t, (0,)) == Lam("x", Var("x"))
    swapped = replace_at(t, (1,), Var("z"))
    assert subterm_at(swapped, (1,)) == Var("z")
    assert subterm_at(swapped, (0,)) == Lam("x", Var("x"))


@pytest.mark.parametrize("pos", [(-1,), (-2,), (2,), (5,), (1, -1), (0, 0, 0)])
def test_positions_outside_the_term_are_rejected(pos):
    """An index the node has no child at is an IndexError, a negative one
    included: no position counts from the end."""
    t = parse_term(r"(\x. x) ((\y. y) !|0>)")
    with pytest.raises(IndexError):
        subterm_at(t, pos)
    with pytest.raises(IndexError):
        replace_at(t, pos, Var("z"))


# ---------------------------------------------------------------------------
# pretty-printing round trip


def test_pretty_identity_lambda():
    assert pretty(parse_term(r"\x. x")) == r"\x. x"


def test_pretty_measurement_sorted():
    assert pretty(parse_term("M{2,1}")) == "M{1,2}"


def test_pretty_qubit_deterministic_order():
    t = parse_term("(0.8,0)!|1> + (0.6,0)!|0>")
    assert pretty(t) == "(0.6,0)!|0> + (0.8,0)!|1>"


# Few distinct values, so amplitudes repeat: signed zeros, NaN, and parts
# that print alike or apart.
_REPEATED_PARTS = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1 / 3, 1e-13, math.nan])


@given(st.integers(1, 6), st.data())
def test_format_qubit_formats_each_amplitude_as_format_amplitude_does(width, data):
    """Formatting each distinct amplitude once gives the text of formatting
    every amplitude on its own: +-0.0 parts, which compare equal, print
    alike, and NaN amplitudes (built directly, as no kernel keeps one) are
    each formatted for themselves."""
    indices = sorted(data.draw(st.sets(st.integers(0, (1 << width) - 1), min_size=2)))
    amps = tuple((u, complex(data.draw(_REPEATED_PARTS), data.draw(_REPEATED_PARTS)))
                 for u in indices)
    want = " + ".join(f"{format_amplitude(a)}!|{u:0{width}b}>" for u, a in amps)
    assert format_qubit(_canonical(width, amps)) == want


def test_format_qubit_prints_signed_zeros_and_nan_alike():
    nan = complex(math.nan, 0.5)
    amps = ((0, 0.5 + 0j), (1, complex(0.5, -0.0)), (2, complex(-0.0, 0.5)), (3, 0.5j),
            (4, nan), (5, complex(math.nan, 0.5)), (6, nan))
    assert format_qubit(_canonical(3, amps)) == " + ".join(
        [f"(0.5,0)!|{u:03b}>" for u in (0, 1)] + [f"(0,0.5)!|{u:03b}>" for u in (2, 3)]
        + [f"(nan,0.5)!|{u:03b}>" for u in (4, 5, 6)])


@pytest.mark.parametrize("width", [1, 3])
def test_pretty_empty_register_parses_back(width):
    t = QubitConst(QubitValue(width, ()))
    assert pretty(t) == f"(0,0)!|{'0' * width}>"
    assert alpha_eq(parse_term(pretty(t)), t)


@given(st.one_of(generated_term(), random_register().map(QubitConst)))
def test_round_trip(t):
    assert alpha_eq(parse_term(pretty(t)), t)


@given(st.one_of(generated_term(), random_register().map(QubitConst)))
def test_pretty_matches_recursive_printer(t):
    """Byte for byte, also under bangs the parser would have collapsed."""
    for term in (t, Bang(t), App(Bang(Bang(t)), Bang(t))):
        assert pretty(term) == pretty_reference(term)


def test_pretty_prints_any_depth():
    t = Var("y")
    for _ in range(20_000):
        t = App(GateConst(gate("H")), t)
    t = Bang(Lam("y", If(t, Bang(Bang(QubitConst(ket("0")))), t)))
    text = pretty(t)
    assert text.startswith("!(\\y. if (H (H (")
    assert text.count("H") == 40_000


def test_pretty_prints_a_run_of_bangs_at_once():
    """A run of bangs prints as one prefix over an atomic operand and as
    nested parenthesized bangs over any other, as the recursive printer
    prints it, and stops at a node printed as a name."""
    f, g, h = Var("f"), Var("g"), Var("h")
    assert pretty(App(f, Bang(Bang(App(g, h))))) == "f (!(!(g h)))"
    assert pretty(App(f, Bang(Bang(h)))) == "f !!h"
    for source in ["h", "g h", r"\x. x", "M{1}", "H", "H*H", "!|0>",
                   "(0.6,0)!|0> + (0.8,0)!|1>"]:
        t = parse_term(source)
        for _ in range(4):
            t = Bang(t)
            for term in (t, App(f, t), App(t, f)):
                assert pretty(term) == pretty_reference(term)
    named = Bang(App(g, h))
    assert pretty(Bang(Bang(named)), {id(named): "d"}) == "!!d"


def test_round_trip_corpus_programs():
    from conftest import PROGRAMS
    from qlam.parser import parse_program

    for path in sorted(PROGRAMS.glob("*.qlam")):
        program = parse_program(path.read_text())
        for _, term in program.defs:
            # reparse each definition's canonical form (user gates in scope)
            reparsed = parse_term(pretty(term), gates=program.gates)
            assert alpha_eq(reparsed, term)


# ---------------------------------------------------------------------------
# sharing substitution and the free-variable memo


@st.composite
def substitution_cases(draw):
    """(body, var, replacement): a generated term with renamed binders and
    a free ``hole`` planted at a random position, a variable that is the
    hole or one of the binders, and a replacement whose free variables are
    drawn from the binder names (so enclosing binders must be renamed) and
    from primed names (so fresh_name must skip them)."""
    t = rename_binders(draw(generated_term()), "v")
    pos = draw(st.sampled_from(list(positions(t))))
    body = replace_at(t, pos, App(Var("hole"), subterm_at(t, pos)))
    if draw(st.booleans()):
        pos = draw(st.sampled_from(list(positions(body))))
        body = replace_at(body, pos, App(subterm_at(body, pos), Var("hole")))
    binders = sorted(_binder_names(t))
    names = binders + [n + "'" for n in binders] + ["hole", "other"]
    var = draw(st.sampled_from(["hole"] + binders))
    replacement = draw(generated_term())
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        replacement = App(replacement, Var(name))
    return body, var, replacement


def _binder_names(t):
    names = set()
    for pos in positions(t):
        match subterm_at(t, pos):
            case Lam(x, _) | BangLam(x, _):
                names.add(x)
            case LetTensor(x, y, _, _):
                names.update((x, y))
    return names


@given(substitution_cases())
def test_substitute_matches_reference(case):
    body, var, replacement = case
    got = substitute(body, {var: replacement})
    assert got == substitute_reference(body, var, replacement)
    assert free_vars(got) == free_vars_reference(got)


@given(substitution_cases())
def test_free_vars_memo_matches_reference(case):
    body, _, replacement = case
    for t in (body, replacement):
        for pos in positions(t):
            sub = subterm_at(t, pos)
            assert free_vars(sub) == free_vars_reference(sub)
            assert height(sub) == term_height(sub)
        assert free_vars(t) == free_vars_reference(t)  # read back from the memo


def test_one_walk_keeps_free_variables_and_height(monkeypatch):
    """height walks a term once, and that walk leaves free_vars no node to
    walk: on a parsed program, whose parse measured its height, and on a
    copy of it built from fresh nodes."""
    main = parse_program((PROGRAMS / "teleport.qlam").read_text()).main

    def rebuild(t):
        return with_children(t, tuple(map(rebuild, children(t))))

    walks = []
    annotate = syntax._annotate
    monkeypatch.setattr(syntax, "_annotate", lambda t: walks.append(t) or annotate(t))
    copy = rebuild(main)
    assert height(main) == height(copy) == term_height(main)
    assert len(walks) == 1 and walks[0] is copy
    for t in (main, copy):
        for pos in positions(t):
            sub = subterm_at(t, pos)
            assert free_vars(sub) == free_vars_reference(sub)
    assert len(walks) == 1


def test_substitute_renames_each_binder_kind_as_reference():
    """The capture-avoiding renames of Lam, BangLam and LetTensor, with
    primed names taken, agree with the reference."""
    pair = App(Var("y"), Var("y'"))
    cases = [
        (Lam("y", App(Var("x"), Var("y"))), "x", pair),
        (BangLam("y", App(Var("x"), Var("y"))), "x", pair),
        (LetTensor("y", "z", Var("w"), App(App(Var("x"), Var("y")), Var("z"))), "x",
         App(pair, Var("z"))),
        (LetTensor("y", "z", Var("x"), App(Var("x"), Var("z"))), "x", pair),
    ]
    for body, var, replacement in cases:
        got = substitute(body, {var: replacement})
        assert got == substitute_reference(body, var, replacement)
        assert free_vars(got) == free_vars(replacement) | (free_vars(body) - {var})
    assert substitute(cases[0][0], {"x": pair}) == Lam("y''", App(pair, Var("y''")))


def test_substitute_returns_untouched_subterms_themselves():
    f = parse_term(r"\y. y")
    a = App(Var("g"), Var("x"))
    one = parse_term("!|1>")
    got = substitute(App(f, a), {"x": one})
    assert got.fun is f
    assert got.arg == App(Var("g"), one)
    closed = parse_term(r"(\x. x) (M{1} !|0>)")
    assert substitute(closed, {"x": one}) is closed
    shadowed = Lam("x", a)
    assert substitute(shadowed, {"x": one}) is shadowed


@st.composite
def two_name_cases(draw):
    """(body, x, y): a generated term with renamed binders and a variable
    of each of the names x != y planted at a random position.  The names
    are drawn from two unbound names and the binder names, so a planted
    variable may be bound, and a binder may shadow x or y."""
    body = rename_binders(draw(generated_term()), "v")
    names = ["x", "y"] + sorted(_binder_names(body))
    x, y = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    for name in (x, y):
        pos = draw(st.sampled_from(list(positions(body))))
        body = replace_at(body, pos, App(Var(name), subterm_at(body, pos)))
    return body, x, y


@given(two_name_cases(), generated_term(), generated_term())
def test_simultaneous_substitution_matches_reference_in_sequence(case, r1, r2):
    """With closed replacements, substituting two names at once is
    substituting one after the other."""
    body, x, y = case
    got = substitute(body, {x: r1, y: r2})
    assert got == substitute_reference(substitute_reference(body, x, r1), y, r2)
    assert free_vars(got) == free_vars_reference(got)


def test_substitute_is_simultaneous():
    x, y = Var("x"), Var("y")
    assert substitute(App(x, y), {"x": y, "y": x}) == App(y, x)
    # each binder is renamed apart from every replacement live in its body
    got = substitute(Lam("y", App(App(x, Var("z")), y)), {"x": y, "z": Var("y'")})
    assert got == Lam("y''", App(App(y, Var("y'")), Var("y''")))


def test_split_binders_sharing_a_name_bind_it_to_the_right():
    """In ``let a * a = v in u`` the name a in u is the right binder's, for
    a rename apart (in substitute and its oracle) and for rename_binders as
    for free_vars and alpha_eq."""
    value = parse_term("!|01>")
    shared = LetTensor("a", "a", value, App(Var("a"), Var("z")))
    got = substitute(shared, {"z": Var("a")})
    assert got == LetTensor("a'", "a''", value, App(Var("a''"), Var("a")))
    assert got == substitute_reference(shared, "z", Var("a"))
    assert alpha_eq(got, LetTensor("x", "y", value, App(Var("y"), Var("a"))))
    assert rename_binders(shared, "w") == LetTensor("w1", "w2", value, App(Var("w2"), Var("z")))


def test_free_vars_sets_are_shared():
    body = App(Var("f"), Var("g"))
    assert free_vars(Lam("y", body)) is free_vars(body)
    assert free_vars(parse_term(r"\x. x")) is free_vars(parse_term("H !|0>"))
    assert free_vars(App(parse_term("!|0>"), body)) is free_vars(body)
    assert free_vars(Var("f")) is free_vars(body.fun)


@given(st.integers(0, 2**32 - 1))
def test_free_vars_memo_leaves_equality_hash_and_repr(seed):
    """A term whose free variables and shapes were computed still equals,
    hashes and prints as a fresh copy on which they were not."""
    (t,), (copy,) = random_terms(seed, 1), random_terms(seed, 1)
    t, copy = App(Var("hole"), t), App(Var("hole"), copy)
    before = repr(t), hash(t)
    for pos in positions(t):
        free_vars(subterm_at(t, pos))
        shape_key(subterm_at(t, pos))
    assert (repr(t), hash(t)) == before
    assert t == copy and copy == t
    assert hash(copy) == hash(t) and repr(copy) == repr(t)


@pytest.mark.parametrize("depth", [50, 100, 200])
def test_let_chain_evaluation_rebuilds_a_linear_number_of_nodes(monkeypatch, depth):
    """Each beta step of a let-chain rebuilds only the path to the one
    occurrence of its variable: at most 3 nodes per let over the whole
    evaluation (an always-rebuild substitution makes depth * (depth + 1))."""
    import qlam.syntax as syntax

    calls = []
    rebuild = syntax.with_children

    def counted(t, new):
        calls.append(1)
        return rebuild(t, new)

    main = parse_program(let_chain(depth)).main
    monkeypatch.setattr(syntax, "with_children", counted)
    result = evaluate(main)
    assert result.status == "Converged"
    assert len(calls) <= 3 * depth
