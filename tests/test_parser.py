import inspect
import math
import pkgutil
import re
import sys
from importlib import import_module
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import qlam
import qlam.parser
from qlam.confluence import regression_seeds
from qlam.ensemble import evaluate
from qlam.parser import (
    _MAX_OPEN,
    _SYMBOLS,
    KEYWORDS,
    MAX_NESTING,
    ParseError,
    Program,
    _line_col,
    _newlines,
    _offsets,
    _Parser,
    _tokenize,
    parse_program,
    parse_term,
    parse_term_with_notes,
)
from qlam.quantum import GateAtom, QubitValue, RegisterSizeError, RegisterWidthError
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
    alpha_eq,
    free_vars,
    height,
    pretty,
)
from qlam.wellformed import check

from conftest import NESTED, OPEN, PROGRAMS, let_chain, random_terms, rename_binders, term_height
from parser_oracles import parse_with_walks, tokenize_reference
from test_cli_fuzz import FUZZ, mutated_program, token_stream

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
    assert abs(dict(got.value.amps).get(0, 0j) - 2 * S2) < 1e-12


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
# error and note pins: the exact text of each ParseError (message, line:col
# and expected set) and the strict-surface notes, source by source


PARSE_ERRORS = [
    # unexpected characters, after a token, a newline and comments
    ("program", "main = !|0> $;", "1:13: unexpected character '$'"),
    ("program", "main = !|0>;\n  @", "2:3: unexpected character '@'"),
    ("program", "# a comment\n# another ? one\n main = ~;", "3:9: unexpected character '~'"),
    ("program", "main = !|0>; # trailing\n`", "2:1: unexpected character '`'"),
    ("term", "|2>", "1:1: unexpected character '|'"),
    # every expect site of the term grammar
    ("term", r"\x x", "1:4: unexpected name 'x' (expected one of: .)"),
    ("term", r"\ . x", "1:3: unexpected sym '.' (expected one of: name)"),
    ("term", r"\!. x", "1:3: unexpected sym '.' (expected one of: name)"),
    ("term", "let x y in x", "1:7: unexpected name 'y' (expected one of: =)"),
    ("term", "let x = y x", "1:12: unexpected eof '' (expected one of: in)"),
    ("term", "let !x y in x", "1:8: unexpected name 'y' (expected one of: =)"),
    ("term", "let !x = y y", "1:13: unexpected eof '' (expected one of: in)"),
    ("term", "let x * = v in x", "1:9: unexpected sym '=' (expected one of: name)"),
    ("term", "if c a else b", "1:8: unexpected keyword 'else' (expected one of: then)"),
    ("term", "if c then a b", "1:14: unexpected eof '' (expected one of: else)"),
    ("term", "(a b", "1:5: unexpected eof '' (expected one of: ))"),
    ("term", "(1,0 !|0>", "1:6: unexpected sym '!' (expected one of: ))"),
    ("term", "(1,) !|0>", "1:4: unexpected sym ')' (expected one of: number)"),
    ("term", "(1,0 x", "1:6: unexpected name 'x' (expected one of: ))"),
    ("term", "M{}", "1:3: unexpected sym '}' (expected one of: number)"),
    ("term", "M{1,}", "1:5: unexpected sym '}' (expected one of: number)"),
    ("term", "M{1 2}", "1:5: unexpected number '2' (expected one of: })"),
    ("term", "a )", "1:3: unexpected sym ')' (expected one of: eof)"),
    ("term", "", "1:1: expected a term (expected one of: term)"),
    # eof inside a let or a conditional
    ("term", "let x = in x", "1:9: expected a term (expected one of: term)"),
    ("term", "let x = y in", "1:13: expected a term (expected one of: term)"),
    ("term", "let !x = y in\n", "2:1: expected a term (expected one of: term)"),
    ("term", "if c then", "1:10: expected a term (expected one of: term)"),
    # register expressions
    ("term", r"\x. (\y. y * y) x",
     "1:10: tensor operands must be qubit constants or gate applications over them "
     "(variables cannot be tensored)"),
    ("term", "x + y", "1:1: '+' combines qubit constants only"),
    ("term", "!|0> + !|00>", "1:8: superposition mixes widths 1 and 2"),
    ("term", r"(0.5,0)(\x. x)", "1:1: scalar product applies to qubit constants only"),
    ("term", "(1,0) x", "1:1: scalar product applies to qubit constants only"),
    ("term", "(cnot !|0>) * !|0>", "1:1: gate of arity 2 applied to 1 wire(s) inside a tensor"),
    ("term", "!|0> * (H !|00>)", "1:8: gate of arity 1 applied to 2 wire(s) inside a tensor"),
    # wire indices and binders
    ("term", "M{0}", "1:3: wire index must be >= 1, got 0"),
    ("term", "M{1.5}", "1:3: wire index must be an integer, got 1.5"),
    ("term", "M{-2}", "1:3: wire index must be >= 1, got -2"),
    ("term", r"\H. H", "1:2: 'H' names a gate and cannot be bound"),
    ("term", "let cnot = x in x", "1:5: 'cnot' names a gate and cannot be bound"),
    ("term", "let a * b * a = v in a", "1:13: duplicate names in destructuring pattern"),
    # duplicate definitions and gates
    ("program", "f = !|0>;\nf = !|1>;", "2:1: 'f' is already defined"),
    ("program", "H = !|0>;", "1:1: 'H' is already defined"),
    ("program", "gate H = [[1, 0], [0, 1]];", "1:6: gate 'H' is already defined"),
    ("program", "gate S = [[1, 0], [0, 1]];\ngate S = [[1, 0], [0, 1]];",
     "2:6: gate 'S' is already defined"),
    ("program", "gate S = [[1, 0], [0, 1]];\nS = !|0>;", "2:1: 'S' is already defined"),
    ("program", "f = \\x. x;\nmain = \\f. f;", "2:9: 'f' names a definition and cannot be bound"),
    # gate declarations: matrices and every expect site
    ("program", "gate B = [[1, 1], [0, 1]];\nmain = !|0>;", "1:6: gate B: matrix is not unitary"),
    ("program", "gate B = [[1, 0, 0], [0, 1, 0], [0, 0, 1]];",
     "1:6: gate B: dimension 3 is not a power of two"),
    ("program", "gate B = [[1, 0], [0, 1, 0]];", "1:6: gate B: matrix must be square"),
    ("program", "gate = [[1]];", "1:6: unexpected sym '=' (expected one of: name)"),
    ("program", "gate B [[1]];", "1:8: unexpected sym '[' (expected one of: =)"),
    ("program", "gate B = [[1]]", "1:15: unexpected eof '' (expected one of: ;)"),
    ("program", "gate B = [1];", "1:11: unexpected number '1' (expected one of: [)"),
    ("program", "gate B = [[1] [0]];", "1:15: unexpected sym '[' (expected one of: ])"),
    ("program", "gate B = [[1, 0];", "1:17: unexpected sym ';' (expected one of: ])"),
    ("program", "gate B = [[(1 0)]];", "1:15: unexpected number '0' (expected one of: ,)"),
    ("program", "gate B = [[(1, x)]];", "1:16: unexpected name 'x' (expected one of: number)"),
    ("program", "gate B = [[(1, 0]];", "1:17: unexpected sym ']' (expected one of: ))"),
    ("program", "gate B = [[x]];", "1:12: unexpected name 'x' (expected one of: number)"),
    # definitions
    ("program", "main !|0>;", "1:7: unexpected ket '|0>' (expected one of: name)"),
    ("program", "main = !|0>", "1:12: unexpected eof '' (expected one of: ;)"),
    ("program", "= !|0>;", "1:1: unexpected sym '=' (expected one of: name)"),
    ("program", "main = let x = !|0> in", "1:23: expected a term (expected one of: term)"),
    ("program", "main =\n  let x = H !|0> in\n  let y = H x in",
     "3:17: expected a term (expected one of: term)"),
    ("program", "main = let x * y = !|00> in", "1:28: expected a term (expected one of: term)"),
    # CRLF sources: a carriage return is a column of its line
    ("program", "id x = x;\r\nmain = id !|0> $;\r\n", "2:16: unexpected character '$'"),
    ("program", "main =\r\n  let x = H !|0> in\r\n  M{0} x;\r\n",
     "3:5: wire index must be >= 1, got 0"),
    ("program", "f = \\x. x;\r\n\r\nmain = (cnot !|0>) * !|1>;",
     "3:8: gate of arity 2 applied to 1 wire(s) inside a tensor"),
    ("program", "main = !|0>;\r\n  # note\r\n  @", "3:3: unexpected character '@'"),
    # a gate named after an earlier definition
    ("program", "f = \\x. x;\ngate f = [[0, 1], [1, 0]];\nmain = f !|0>;",
     "2:6: gate 'f' is already defined"),
]


@pytest.mark.parametrize("entry, source, message", PARSE_ERRORS,
                         ids=[f"{entry}-{n}" for n, (entry, _, _) in enumerate(PARSE_ERRORS)])
def test_parse_error_text(entry, source, message):
    parse = parse_program if entry == "program" else parse_term
    with pytest.raises(ParseError) as info:
        parse(source)
    assert str(info.value) == message


def test_duplicate_destructuring_name_is_reported_where_it_is_written():
    """At the repeated name, before the value is read: the value here would
    be a parse error of its own."""
    with pytest.raises(ParseError) as info:
        parse_program("main =\n  let a * b *\n    c * b = ( in a;")
    assert str(info.value) == "3:9: duplicate names in destructuring pattern"


# Where an amplitude with an infinite or NaN part arises: at the literal or
# scalar product, the summand, or the tensor factor.
NON_FINITE = [
    ("(1e309,0)!|0>", 1),
    ("(1e400,0)!|0> + (-1e400,0)!|0>", 1),
    ("(1e308,1e308)(1e308,1e308)!|0>", 1),
    ("(1,0)((1e308,1e308)(1e308,1e308)!|0>)", 7),
    ("(1e308,0)!|0> + (1e308,0)!|0>", 17),
    ("!|1> + (1e308,0)!|0> + (1e308,0)!|0>", 24),
    ("(1e200,0)!|0> * (1e200,0)!|1>", 17),
    ("!|0> * (1e200,0)!|0> * (H (1e200,0)!|1>)", 24),
]


@pytest.mark.parametrize("source, col", NON_FINITE)
def test_non_finite_amplitude_is_a_parse_error(source, col):
    with pytest.raises(ParseError) as info:
        parse_term(source)
    assert str(info.value) == f"1:{col}: amplitude overflows the float range"


def test_modulus_past_the_float_range_still_parses():
    """Finite parts whose modulus overflows are kept (as inf mass), so check
    can report them."""
    (u, a), = parse_term("(1e308,1.5e308)!|0>").value.amps
    assert (u, a) == (0, complex(1e308, 1.5e308))


STRICT_NOTES = [
    ("|0>", [(1, 1, "base qubit written without '!'")]),
    ("!|0> * ((0.6,0)!|0> + (0.8,0)!|1>)",
     [(1, 8, "tensor over a non-base register expression")]),
    ("!((0.6,0)!|0> + (0.8,0)!|1>)", [(1, 1, "bang on a non-base register expression")]),
    ("(1,0)((0.6,0)!|0> + (0.8,0)!|1>)",
     [(1, 1, "scalar over a non-base register expression")]),
    ("(1,0)(0,1)!|0>", []),
    ("(H !|0>) * !|1>", [(1, 1, "tensor over a non-base register expression")]),
    ("(H |0>) * (X !|1>)",
     [(1, 4, "base qubit written without '!'"),
      (1, 1, "tensor over a non-base register expression"),
      (1, 11, "tensor over a non-base register expression")]),
    ("!|0> * |1>\r\n  + (0,0)|1> * !|1>",
     [(1, 8, "base qubit written without '!'"), (2, 10, "base qubit written without '!'")]),
    ("(0.6,0)!|0> + (0.8,0)!|1>", []),
    ("!!|0>", [(1, 1, "bang on a non-base register expression")]),
]


@pytest.mark.parametrize("source, notes", STRICT_NOTES)
def test_strict_notes_exact(source, notes):
    assert parse_term_with_notes(source)[1] == notes


def test_program_strict_notes_exact():
    program = parse_program("main = |0>;\r\nf = (H !|0>) * !|1>;\n# c\n"
                            "g = !|1> * !((0.6,0)!|0> + (0.8,0)!|1>);")
    assert program.strict_notes == [
        (1, 8, "base qubit written without '!'"),
        (2, 5, "tensor over a non-base register expression"),
        (4, 12, "bang on a non-base register expression"),
        (4, 12, "tensor over a non-base register expression"),
    ]


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
# no trampoline


def test_no_walk_runs_on_a_trampoline():
    """No module of qlam defines descend and no parser method is a
    generator; check, free_vars, height, substitute and evaluate run on the
    regression seeds and on generated terms, and on copies of them whose
    binders substitute renamed (fresh nodes, so free_vars and height walk
    them)."""
    modules = [import_module(f"qlam.{m.name}") for m in pkgutil.iter_modules(qlam.__path__)]
    assert qlam.parser in modules
    assert not [m.__name__ for m in modules if hasattr(m, "descend")]
    assert not inspect.getmembers(_Parser, inspect.isgeneratorfunction)
    for t in [*regression_seeds(), *random_terms(0, 20)]:
        copy = rename_binders(t, "v")
        assert height(copy) == height(t) == term_height(t)
        assert free_vars(copy) == free_vars(t)
        assert alpha_eq(copy, t)
        assert check(copy).verdict == (not check(t).violations)
        assert evaluate(copy).status == evaluate(t).status


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


def doubling_chain(n: int) -> str:
    """Definitions d0 = \\x. x and d_i = d_{i-1} d_{i-1}: main's term spans
    2**n applications but is n + 2 shared nodes, one per definition."""
    lines = ["d0 = \\x. x;"] + [f"d{i} = d{i - 1} d{i - 1};" for i in range(1, n + 1)]
    return "\n".join(lines + [f"main = d{n} !|0>;"]) + "\n"


def test_shared_definitions_are_measured_once(monkeypatch):
    """Each node's height is computed once, so a definition used twice by
    each of the next ones is not walked again at every level."""
    import qlam.parser
    import qlam.syntax

    calls = 0
    children = qlam.syntax.children

    def counted(t):
        nonlocal calls
        calls += 1
        assert calls <= 10_000, "the height walk expands shared definitions"
        return children(t)

    monkeypatch.setattr(qlam.syntax, "children", counted)
    # and in case the parser walks the term with children imported by name
    monkeypatch.setattr(qlam.parser, "children", counted, raising=False)
    program = parse_program(doubling_chain(40))
    assert calls <= 4 * 42
    assert term_height(program.defs[2][1]) == 4
    calls = 0
    # d_i nests i + 2 levels, so d_{MAX_NESTING - 1} is the first too deep
    with pytest.raises(ParseError, match=f"term nested deeper than {MAX_NESTING} levels") as info:
        parse_program(doubling_chain(MAX_NESTING))
    assert (info.value.line, info.value.col) == (MAX_NESTING, 1)
    assert calls <= 4 * MAX_NESTING


# ---------------------------------------------------------------------------
# the tokenizer against its finditer oracle

# Token texts, texts that start a token but are not one, and characters
# that start none: a Unicode decimal digit starts a number, as \d matches it.
_FRAGMENTS = (*sorted(KEYWORDS), *sorted(_SYMBOLS), "x", "y'", "_q1", "H", "M", "cnot",
              "main", "|0>", "|01>", "|", "|2>", "-", "0", "1", "12", "-3", "0.5", "-1.25",
              "1e3", "2E-2", "-4.5e+1", "1.", "1e", "٣", "-٣", "@", "$", "~", "é",
              "\x0b", "?", '"')
# What may stand between two tokens and keep them apart.
_SEPARATORS = (" ", "  ", "\t", "\n", "\r\n", "\r", "# note\n", "#\r\n", " #\n\n")
# Also what merges two tokens, and a comment that swallows the next one.
_GAPS = ("", *_SEPARATORS, "# x")
# Sources that parse: two with strict-surface notes of every kind, and the
# bundled programs.
_NOTED = (
    "gate G = [[0, (1, 0)], [1, 0]];\nf x = H x;\n"
    "main = let a * b = (H |0>) * ((0.6,0)!|0> + (0.8,0)!|1>) in "
    "f (if a then !((1,0)((0.6,0)!|0> + (0.8,0)!|1>)) else b);\n",
    "main = let !x = M{1, 2} (cnot ((H*I) !|00>)) in \\!y. (x y) !(!|1>);\n",
)
_BUNDLED = tuple(path.read_text(encoding="utf-8") for path in sorted(PROGRAMS.glob("*.qlam")))


def _outcome(parse, source):
    """A parse's ParseError (text, line and column), or its strict notes."""
    try:
        result = parse(source)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    return "ok", result.strict_notes if hasattr(result, "strict_notes") else result[1]


def _with_oracle(parse, source):
    """The parse with the oracle's tags and texts, and every position read
    from the oracle's eager offsets."""
    def line_col(parser, i):
        return _line_col(_newlines(parser.source), tokenize_reference(parser.source)[2][i])

    with mock.patch.object(qlam.parser, "_tokenize", lambda s: tokenize_reference(s)[:2]), \
            mock.patch.object(qlam.parser._Parser, "line_col", line_col):
        return _outcome(parse, source)


@st.composite
def token_soup(draw):
    """Fragments between gaps, in any order."""
    parts = draw(st.lists(st.tuples(st.sampled_from(_GAPS), st.sampled_from(_FRAGMENTS)),
                          max_size=30))
    return "".join(gap + text for gap, text in parts) + draw(st.sampled_from(_GAPS))


@st.composite
def respaced_source(draw):
    """A skeleton's tokens between drawn gaps that keep them apart, with at
    most one token replaced by a fragment: most parse, with notes, and the
    rest fail at a drawn place."""
    skeleton = draw(st.one_of(st.sampled_from(_NOTED), st.sampled_from(_BUNDLED)))
    texts = tokenize_reference(skeleton)[1][:-1]
    if draw(st.booleans()):
        texts[draw(st.integers(0, len(texts) - 1))] = draw(st.sampled_from(_FRAGMENTS))
    gaps = st.sampled_from(_SEPARATORS)
    return "".join(draw(gaps) + text for text in texts) + draw(st.sampled_from(_GAPS))


def _check_tokens(source):
    try:
        want = tokenize_reference(source)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            _tokenize(source)
        assert (str(info.value), info.value.line, info.value.col) == (str(exc), exc.line, exc.col)
        return
    assert _tokenize(source) == want[:2]
    assert _offsets(source, len(want[2])) == want[2]


@given(st.one_of(token_soup(), respaced_source()))
@settings(max_examples=300)
def test_tokenize_matches_finditer_oracle(source):
    """The same tags and texts as the finditer tokenizer, the same offsets
    when they are asked for, and the same ParseError at a bad character."""
    _check_tokens(source)


@given(st.one_of(respaced_source(), token_soup()))
@settings(max_examples=200)
def test_positions_match_finditer_oracle(source):
    """parse_program and parse_term report every ParseError and strict note
    at the line and column they report with the oracle's eager offsets."""
    for parse in (parse_program, parse_term_with_notes):
        assert _outcome(parse, source) == _with_oracle(parse, source)


def test_tokenize_tags_every_decimal_digit_as_a_number():
    """Each character \\d matches starts a number, as in the oracle."""
    digits = re.findall(r"\d", "".join(map(chr, range(sys.maxunicode + 1))))
    assert len(digits) > 10
    for d in digits:
        _check_tokens(d)
        _check_tokens(f"-{d}{d}.{d}e-{d} x")


def test_clean_parse_works_out_no_offsets():
    """A source without a note or an error never works out its tokens'
    offsets."""
    source = (PROGRAMS / "teleport.qlam").read_text(encoding="utf-8")
    with mock.patch.object(qlam.parser, "_offsets", side_effect=AssertionError("offsets")):
        assert parse_program(source).strict_notes == []


# ---------------------------------------------------------------------------
# the grammar against its walk oracle

# Programs at each nesting and open-construct limit, and one past it.
_LIMITS = tuple(shapes[name](limit + past)
                for shapes, limit in ((NESTED, MAX_NESTING), (OPEN, _MAX_OPEN))
                for name in sorted(shapes) for past in (0, 1))


def _parsed(parse, source):
    """A parse's declarations (names, and pretty texts of terms) and
    strict notes, or for parse_term_with_notes its term's pretty text and
    notes; or the error it raised, with its text and expected set."""
    try:
        result = parse(source)
    except (ParseError, RegisterSizeError, RegisterWidthError) as exc:
        return type(exc), str(exc), getattr(exc, "expected", None)
    if isinstance(result, Program):
        return ([(name, d if type(d) is GateAtom else pretty(d)) for name, d in result.declarations],
                result.strict_notes)
    return pretty(result[0]), result[1]


@settings(FUZZ, max_examples=300)
@given(source=st.one_of(token_stream, token_stream.map(lambda s: f"main = {s};"),
                        mutated_program(), respaced_source(), st.sampled_from(_LIMITS)))
def test_grammar_matches_walk_oracle(source):
    """parse_program and parse_term_with_notes read every source as the
    walk grammar does: the same declarations, terms and strict notes, or
    the same error."""
    for parse in (parse_program, parse_term_with_notes):
        assert _parsed(parse, source) == _parsed(lambda s: parse_with_walks(parse, s), source)
