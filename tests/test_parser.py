import math

import pytest

from qlam.parser import (
    _MAX_OPEN,
    MAX_NESTING,
    ParseError,
    parse_program,
    parse_term,
    parse_term_with_notes,
)
from qlam.quantum import QubitValue
from qlam.syntax import (
    App,
    Bang,
    BangLam,
    GateConst,
    If,
    Lam,
    LetTensor,
    MeasConst,
    QubitConst,
    Var,
    pretty,
)

from conftest import NESTED, OPEN, let_chain, term_height

S2 = 1 / math.sqrt(2)


# ---------------------------------------------------------------------------
# core forms


def test_identity_abstraction():
    assert parse_term(r"\x. x") == Lam("x", Var("x"))


def test_nonlinear_abstraction():
    assert parse_term(r"\!x. x") == BangLam("x", Var("x"))


def test_let_desugars_to_application():
    got = parse_term("let x = y in x")
    assert got == App(Lam("x", Var("x")), Var("y"))


def test_let_bang_desugars_to_nonlinear_application():
    got = parse_term("let !x = y in x x")
    assert got == App(BangLam("x", App(Var("x"), Var("x"))), Var("y"))


def test_measurement_of_tensor_constant():
    got = parse_term("M{1,2} (!|0> * !|1>)")
    assert got == App(MeasConst(frozenset({1, 2})), QubitConst(QubitValue(2, {1: 1.0})))


def test_multibit_ket_sugar():
    assert parse_term("!|01>") == parse_term("!|0> * !|1>")


def test_application_left_associative():
    assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))


def test_if_branches():
    got = parse_term("if c then a else b")
    assert got == If(Var("c"), Var("a"), Var("b"))


def test_destructuring_let():
    got = parse_term("let x * y = v in x")
    assert got == LetTensor("x", "y", Var("v"), Var("x"))


def test_nary_destructuring_nests():
    got = parse_term("let x * y * z = v in z")
    assert isinstance(got, LetTensor)
    assert got.left == "x"
    inner = got.body
    assert isinstance(inner, LetTensor)
    assert inner.left == "y" and inner.right == "z"
    assert inner.value == Var(got.right)


def test_bang_of_application():
    got = parse_term("!(M{1} !|0>)")
    assert got == Bang(App(MeasConst(frozenset({1})), QubitConst(QubitValue(1, {0: 1.0}))))


def test_bang_on_register_collapses():
    assert parse_term("!!|0>") == parse_term("!|0>")
    assert parse_term("!((0.6,0)!|0> + (0.8,0)!|1>)") == parse_term("(0.6,0)!|0> + (0.8,0)!|1>")


# ---------------------------------------------------------------------------
# register expressions


def test_superposition_folds():
    got = parse_term("(0.6,0)!|0> + (0.8,0)!|1>")
    assert got == QubitConst(QubitValue(1, {0: 0.6, 1: 0.8}))


def test_complex_scalar():
    got = parse_term("(0,1)!|1>")
    assert got == QubitConst(QubitValue(1, {1: 1j}))


def test_tensor_distributes_over_sum():
    got = parse_term("!|0> * ((0.6,0)!|0> + (0.8,0)!|1>)")
    assert got == QubitConst(QubitValue(2, {0: 0.6, 1: 0.8}))


def test_gate_tensor():
    got = parse_term("H*I*cnot")
    assert isinstance(got, GateConst)
    assert got.gate.names == ("H", "I", "cnot")
    assert got.gate.arity == 4


def test_gate_application_contraction():
    got = parse_term("(H !|0>) * !|0>")
    want = App(GateConst(parse_term("H*I").gate), QubitConst(QubitValue(2, {0: 1.0})))
    assert got == want


def test_nested_contraction():
    got = parse_term("(X (H !|0>)) * !|1>")
    # innermost layer first: (X*I) ((H*I) |01>)
    assert pretty(got) == "(X*I) ((H*I) !|01>)"


def test_duplicate_amplitudes_merge():
    got = parse_term(f"({S2:.17g},0)!|0> + ({S2:.17g},0)!|0>")
    assert isinstance(got, QubitConst)
    assert abs(got.value.amp(0) - 2 * S2) < 1e-12


# ---------------------------------------------------------------------------
# errors


def test_tensor_of_variables_rejected():
    with pytest.raises(ParseError, match="cannot be tensored"):
        parse_term(r"\x. (\y. y * y) x")


def test_sum_of_non_registers_rejected():
    with pytest.raises(ParseError, match="qubit constants"):
        parse_term("x + y")


def test_scalar_on_lambda_rejected():
    with pytest.raises(ParseError, match="scalar"):
        parse_term(r"(0.5,0)(\x. x)")


def test_arity_mismatch_inside_tensor():
    with pytest.raises(ParseError, match="arity"):
        parse_term("(cnot !|0>) * !|0>")


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_term("let x = in x")
    assert exc.value.line == 1
    assert exc.value.col == 9


def test_error_expected_set():
    with pytest.raises(ParseError) as exc:
        parse_term(r"\x x")
    assert "." in exc.value.expected


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_term("(a b")


def test_wire_index_zero_rejected():
    with pytest.raises(ParseError, match=">= 1"):
        parse_term("M{0}")


def test_binder_cannot_shadow_gate():
    with pytest.raises(ParseError, match="gate"):
        parse_term(r"\H. H")


# ---------------------------------------------------------------------------
# strict-surface notes


def test_unbanged_ket_noted():
    _, notes = parse_term_with_notes("|0>")
    assert any("without" in msg for _, _, msg in notes)


def test_banged_forms_clean():
    _, notes = parse_term_with_notes("(0.6,0)!|0> + (0.8,0)!|1>")
    assert notes == []


def test_tensor_over_sum_noted():
    _, notes = parse_term_with_notes("!|0> * ((0.6,0)!|0> + (0.8,0)!|1>)")
    assert any("tensor" in msg for _, _, msg in notes)


# ---------------------------------------------------------------------------
# program files


def test_program_defs_inline():
    prog = parse_program("""
        id x = x;
        main = id !|0>;
    """)
    assert prog.main == App(Lam("x", Var("x")), QubitConst(QubitValue(1, {0: 1.0})))


def test_program_multiparam_and_bang_param():
    prog = parse_program("ex b !t = if b then t else X t;\nmain = ex;")
    assert isinstance(prog.main, Lam)
    assert isinstance(prog.main.body, BangLam)


def test_program_gate_declaration():
    prog = parse_program("""
        gate S = [[1, 0], [0, (0,1)]];
        main = S !|1>;
    """)
    assert isinstance(prog.main, App)
    assert prog.main.fun.gate.names == ("S",)
    assert prog.gates["S"].matrix[1][1] == 1j


def test_program_non_unitary_gate_rejected():
    with pytest.raises(ParseError, match="unitary"):
        parse_program("gate B = [[1, 1], [0, 1]];\nmain = !|0>;")


def test_program_duplicate_definition_rejected():
    with pytest.raises(ParseError, match="already defined"):
        parse_program("f = !|0>;\nf = !|1>;")


def test_program_without_main():
    prog = parse_program("f = !|0>;")
    assert prog.main is None
    assert prog.defs[0][0] == "f"


def test_comments_ignored():
    prog = parse_program("# header\nmain = !|0>; # trailing\n")
    assert prog.main == QubitConst(QubitValue(1, {0: 1.0}))


def test_program_forward_reference_is_a_variable():
    # names resolve top-down; an unknown name stays a variable
    prog = parse_program("main = mystery;")
    assert prog.main == Var("mystery")


def test_teleport_template_parses():
    from conftest import teleport_source

    prog = parse_program(teleport_source(QubitValue(1, {0: 0.6, 1: 0.8})))
    assert prog.main is not None


# ---------------------------------------------------------------------------
# nesting limit


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_limit_is_exact(shape):
    """Each shape builds a term of exactly MAX_NESTING levels, which
    parses, and one level deeper is a ParseError, not a RecursionError."""
    assert term_height(parse_program(NESTED[shape](MAX_NESTING)).main) == MAX_NESTING
    with pytest.raises(ParseError, match=f"term nested deeper than {MAX_NESTING} levels"):
        parse_program(NESTED[shape](MAX_NESTING + 1))


@pytest.mark.parametrize("shape", sorted(OPEN))
def test_open_construct_limit_is_exact(shape):
    """Parentheses and scalar prefixes build no level of the term, but the
    parser recurses into each; one past _MAX_OPEN is a ParseError."""
    assert term_height(parse_program(OPEN[shape](_MAX_OPEN)).main) == 1
    with pytest.raises(ParseError, match=f"source nested deeper than {_MAX_OPEN} levels"):
        parse_program(OPEN[shape](_MAX_OPEN + 1))


def test_nesting_error_points_at_the_token_past_the_limit():
    with pytest.raises(ParseError) as info:
        parse_program(OPEN["parentheses"](2000))
    # "main = " is 7 columns, so the first parenthesis is at column 8
    assert (info.value.line, info.value.col) == (1, 8 + _MAX_OPEN)
    # a term too deep is reported at the name of its definition
    with pytest.raises(ParseError) as info:
        parse_program("id = \\x. x;\n" + let_chain(600))
    assert (info.value.line, info.value.col) == (2, 1)
    with pytest.raises(ParseError) as info:
        parse_term("(\\x. x) " * 3000 + "!|0>")
    assert (info.value.line, info.value.col) == (1, 1)
    # a split of more names than the limit is reported at its let, before
    # its desugaring recurses once a name
    names = "*".join(f"a{i}" for i in range(5000))
    with pytest.raises(ParseError, match="term nested deeper") as info:
        parse_program(f"main = \\!v. let {names} = v in a0;")
    assert (info.value.line, info.value.col) == (1, 13)


def test_nesting_counts_inlined_definitions():
    """A definition brings its own levels to each use: two chains of n
    lets each fit, but one used inside the other does not."""
    n = MAX_NESTING // 3

    def chain(name, tail):
        lets = "".join(f"let {name}{i} = H {name}{i - 1} in " for i in range(1, n + 1))
        return f"{name} {name}0 = {lets}{tail};\n"
    program = chain("a", f"a{n}") + chain("b", f"b{n}")
    assert len(parse_program(program).defs) == 2
    with pytest.raises(ParseError, match="term nested deeper") as info:
        parse_program(chain("a", f"a{n}") + chain("b", f"a b{n}"))
    assert (info.value.line, info.value.col) == (2, 1)


def test_nesting_levels_close_with_their_construct():
    """Terms side by side do not add up: a sum of deep summands and a
    program of deep definitions parse."""
    deep = _MAX_OPEN - 1
    summands = ["(" * deep + f"!|{bit}>" + ")" * deep for bit in "0101"]
    assert parse_term(" + ".join(summands)) == parse_term("(2,0)!|0> + (2,0)!|1>")
    deep_def = "(" * _MAX_OPEN + "!|0>" + ")" * _MAX_OPEN
    program = parse_program("".join(f"d{i} = {deep_def};\n" for i in range(3)))
    assert len(program.defs) == 3
