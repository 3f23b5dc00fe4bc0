r"""Concrete syntax for terms and program files.

Term grammar (ASCII, LL with one layered precedence ladder):

    term     := '\' '!'? NAME '.' term
              | 'let' '!' NAME '=' term 'in' term
              | 'let' NAME ('*' NAME)* '=' term 'in' term
              | 'if' term 'then' term 'else' term
              | sum
    sum      := tensor ('+' tensor)*            superposition of registers
    tensor   := app ('*' app)*                  register or gate tensor
    app      := prim+                           application, left associative
    prim     := '(' NUM ',' NUM ')' prim        scalar product re+im*i
              | '!' prim
              | NAME | KET | 'M' '{' INT (',' INT)* '}' | '(' term ')'
    KET      := '|' [01]+ '>'                   multi-bit kets tensor their wires

Sugar handled here:
  * ``let x = t in u`` is ``(\x. u) t`` and ``let !x = t in u`` is
    ``(\!x. u) t``.
  * ``let x1 * ... * xk = t in u`` nests binary splits, first wire leftmost.
  * ``+``, ``*`` and scalars over register constants fold into one canonical
    constant at parse time.
  * a tensor whose operands are gate applications over constants contracts
    to one padded gate over the combined register, e.g.
    ``(H !|0>) * !|0>`` becomes ``(H*I) !|00>``.

Tensoring anything that is not (a gate application chain over) a register
constant is a parse error: variables cannot be tensored.

Program files hold ``gate NAME = [[...]];`` declarations and definitions
``name arg... = term;``.  Definitions are macros: multi-argument heads
desugar to nested abstractions (a ``!arg`` parameter binds nonlinearly) and
every use site is inlined.

A parsed term may nest at most MAX_NESTING levels: the nodes on its
longest path from the root to a leaf, counted on the term that is built
(a ``let`` builds two, the application and the abstraction, and an inlined
definition brings its own levels).  Each definition and ``main`` is
measured once it is built, and a deeper one is a ParseError at its name.
The parser's own recursion is bounded separately, by the constructs open
at a token, so that parentheses or prefixes without end are a ParseError
too.  Parsing raises Python's recursion limit to cover the parser and the
term walkers that still recurse once per level (``check``, ``free_vars``,
``substitute``, ``pretty``, ``term_size``, and the dataclass ``==``,
``hash`` and ``repr``) on any term it accepts; it never lowers it.

The parser also collects *strict surface* notes: places where a register
constant was written outside the normal form (unbanged kets, tensors over
sums or scalars, nested scalars).  Lenient checking ignores them; the CLI's
--strict-wf turns them into well-formedness violations.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from .quantum import (
    BUILTIN_GATES,
    GateAtom,
    GateError,
    GateExpr,
    QubitValue,
    identity_gate,
    ket,
    tensor as qtensor,
)
from .syntax import (
    App,
    Bang,
    BangLam,
    GateConst,
    If,
    Lam,
    LetTensor,
    MeasConst,
    QubitConst,
    Term,
    Var,
    children,
    free_vars,
    fresh_name,
)

KEYWORDS = {"let", "in", "if", "then", "else", "gate"}

# Deepest a parsed term may nest, in nodes on its longest root-to-leaf path.
# A chain of 300 lets nests 602 levels, one of 400 lets 802.
MAX_NESTING = 900
# Constructs (lambdas, lets, conditionals, parentheses, bangs and scalar
# prefixes) the parser may have open at one token.  ``pretty`` opens at most
# two per level of the term it prints, so the printed form of every term the
# parser accepts parses again.
_MAX_OPEN = 2 * MAX_NESTING
# An open construct costs the parser at most two frames, and the recursive
# term walkers (check, free_vars, substitute, pretty, term_size, and the
# dataclass ==, hash and repr) take at most a few a level of the term;
# Python's default limit of 1000 covers neither.
_RECURSION_LIMIT = 8 * MAX_NESTING

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ket>\|[01]+>)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>[\\.!(){}\[\],;=*+])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


@dataclass(frozen=True)
class Token:
    kind: str  # number | ket | name | keyword | sym | eof
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        text = m.group()
        col = pos - line_start + 1
        if kind == "ws":
            nl = text.count("\n")
            if nl:
                line += nl
                line_start = pos + text.rindex("\n") + 1
        elif kind != "comment":
            if kind == "name" and text in KEYWORDS:
                kind = "keyword"
            tokens.append(Token(kind, text, line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


@dataclass
class Program:
    """A parsed source file: user gate table, definitions in order (bodies
    fully inlined), the ``main`` term if present, and strict-surface notes."""

    gates: dict[str, GateAtom]
    defs: list[tuple[str, Term]]
    main: Term | None
    strict_notes: list[tuple[int, int, str]] = field(default_factory=list)


class _Parser:
    def __init__(self, tokens: list[Token], gates: dict[str, GateAtom], defs: dict[str, Term]):
        self.tokens = tokens
        self.i = 0
        self.gates = gates
        self.defs = defs
        self.strict_notes: list[tuple[int, int, str]] = []
        self.depth = 0  # constructs open at the current token
        if sys.getrecursionlimit() < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        self.i += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            want = text if text is not None else kind
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                             frozenset((want,)))
        return self.next()

    def fail(self, message: str, expected: frozenset[str] = frozenset()):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col, expected)

    def note(self, tok: Token, message: str) -> None:
        self.strict_notes.append((tok.line, tok.col, message))

    def open_level(self, tok: Token) -> None:
        """Open one construct at ``tok``; a ParseError there past _MAX_OPEN.
        Closing it lowers ``depth`` again."""
        self.depth += 1
        if self.depth > _MAX_OPEN:
            raise ParseError(f"source nested deeper than {_MAX_OPEN} levels", tok.line, tok.col)

    # -- term grammar

    def parse_term(self) -> Term:
        """term, with the sum, tensor and application loops run in this one
        frame, so that a parenthesis costs the parser two frames (this one
        and _prim's)."""
        if self.at("sym", "\\"):
            return self._lambda()
        if self.at("keyword", "let"):
            return self._let()
        if self.at("keyword", "if"):
            return self._if()
        summands: list[Term] = []
        summand_toks: list[Token] = []
        while True:
            factors: list[Term] = []
            factor_toks: list[Token] = []
            while True:
                factor_toks.append(self.peek())
                term = self._prim()
                while self._starts_prim():
                    term = App(term, self._prim())
                factors.append(term)
                if not self.at("sym", "*"):
                    break
                self.next()
            summand_toks.append(factor_toks[0])
            summands.append(factors[0] if len(factors) == 1
                            else self._fold_tensor(factors, factor_toks))
            if not self.at("sym", "+"):
                break
            self.next()
        if len(summands) == 1:
            return summands[0]
        return _fold_sum(summands, summand_toks)

    def _binder_name(self) -> str:
        tok = self.expect("name")
        if tok.text in self.gates or tok.text in BUILTIN_GATES:
            raise ParseError(f"{tok.text!r} names a gate and cannot be bound", tok.line, tok.col)
        if tok.text in self.defs:
            raise ParseError(f"{tok.text!r} names a definition and cannot be bound",
                             tok.line, tok.col)
        return tok.text

    def _lambda(self) -> Term:
        self.open_level(self.expect("sym", "\\"))
        nonlinear = False
        if self.at("sym", "!"):
            self.next()
            nonlinear = True
        name = self._binder_name()
        self.expect("sym", ".")
        body = self.parse_term()
        self.depth -= 1
        return BangLam(name, body) if nonlinear else Lam(name, body)

    def _let(self) -> Term:
        let_tok = self.expect("keyword", "let")
        self.open_level(let_tok)
        if self.at("sym", "!"):
            self.next()
            name = self._binder_name()
            self.expect("sym", "=")
            value = self.parse_term()
            self.expect("keyword", "in")
            body = self.parse_term()
            self.depth -= 1
            return App(BangLam(name, body), value)
        names = [self._binder_name()]
        while self.at("sym", "*"):
            self.next()
            names.append(self._binder_name())
        self.expect("sym", "=")
        value = self.parse_term()
        self.expect("keyword", "in")
        body = self.parse_term()
        self.depth -= 1
        if len(names) == 1:
            return App(Lam(names[0], body), value)
        if len(set(names)) != len(names):
            self.fail("duplicate names in destructuring pattern")
        # the desugaring recurses once a name and walks the body, which sits
        # under a split for each name but the last
        _check_height(body, let_tok, len(names) - 1)
        return _nest_splits(names, value, body)

    def _if(self) -> Term:
        self.open_level(self.expect("keyword", "if"))
        cond = self.parse_term()
        self.expect("keyword", "then")
        then = self.parse_term()
        self.expect("keyword", "else")
        orelse = self.parse_term()
        self.depth -= 1
        return If(cond, then, orelse)

    def _fold_tensor(self, items: list[Term], toks: list[Token]) -> Term:
        if all(isinstance(it, GateConst) for it in items):
            expr = items[0].gate
            for it in items[1:]:
                expr = expr.tensor(it.gate)
            return GateConst(expr)
        # Register tensor, possibly through gate applications (a gate applied
        # to part of a wider register contracts to the gate padded with I).
        peeled = []
        for tok, item in zip(toks, items):
            chain: list[GateExpr] = []
            t = item
            while isinstance(t, App) and isinstance(t.fun, GateConst):
                chain.append(t.fun.gate)
                t = t.arg
            if not isinstance(t, QubitConst):
                raise ParseError(
                    "tensor operands must be qubit constants or gate applications "
                    "over them (variables cannot be tensored)", tok.line, tok.col)
            width = t.value.width
            for g in reversed(chain):
                if g.arity != width:
                    raise ParseError(
                        f"gate of arity {g.arity} applied to {width} wire(s) "
                        "inside a tensor", tok.line, tok.col)
            if chain or len(t.value.amps) > 1:
                self.note(tok, "tensor over a non-base register expression")
            peeled.append((chain, t.value))
        base = peeled[0][1]
        for _, value in peeled[1:]:
            base = qtensor(base, value)
        term: Term = QubitConst(base)
        depth = max(len(chain) for chain, _ in peeled)
        for layer in range(1, depth + 1):
            factors = None
            for chain, value in peeled:
                # layer counts from the innermost application outward
                g = chain[len(chain) - layer] if layer <= len(chain) else identity_gate(value.width)
                factors = g if factors is None else factors.tensor(g)
            term = App(GateConst(factors), term)
        return term

    def _starts_prim(self) -> bool:
        tok = self.peek()
        if tok.kind in ("name", "ket"):
            return True
        return tok.kind == "sym" and tok.text in ("!", "(")

    def _prim(self) -> Term:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            if self.peek(1).kind == "number":
                return self._scalar()
            self.open_level(self.next())
            inner = self.parse_term()
            self.expect("sym", ")")
            self.depth -= 1
            return inner
        if tok.kind == "sym" and tok.text == "!":
            self.next()
            if self.at("ket"):
                kt = self.next()
                return QubitConst(ket(kt.text[1:-1]))
            self.open_level(tok)
            inner = self._prim()
            self.depth -= 1
            if isinstance(inner, QubitConst):
                self.note(tok, "bang on a non-base register expression")
                return inner
            return Bang(inner)
        if tok.kind == "ket":
            self.next()
            self.note(tok, "base qubit written without '!'")
            return QubitConst(ket(tok.text[1:-1]))
        if tok.kind == "name":
            if tok.text == "M" and self.peek(1).kind == "sym" and self.peek(1).text == "{":
                return self._measurement()
            self.next()
            if tok.text in self.gates:
                return GateConst(GateExpr((self.gates[tok.text],)))
            if tok.text in BUILTIN_GATES:
                return GateConst(GateExpr((BUILTIN_GATES[tok.text],)))
            if tok.text in self.defs:
                return self.defs[tok.text]
            return Var(tok.text)
        self.fail("expected a term", frozenset(("term",)))

    def _scalar(self) -> Term:
        open_tok = self.expect("sym", "(")
        re_tok = self.expect("number")
        self.expect("sym", ",")
        im_tok = self.expect("number")
        self.expect("sym", ")")
        self.open_level(open_tok)
        operand = self._prim()
        self.depth -= 1
        if not isinstance(operand, QubitConst):
            raise ParseError("scalar product applies to qubit constants only",
                             open_tok.line, open_tok.col)
        if len(operand.value.amps) != 1:
            self.note(open_tok, "scalar over a non-base register expression")
        z = complex(float(re_tok.text), float(im_tok.text))
        scaled = {u: z * a for u, a in operand.value.amps}
        return QubitConst(QubitValue(operand.value.width, scaled))

    def _measurement(self) -> Term:
        self.expect("name")  # the 'M'
        self.expect("sym", "{")
        tok = self.expect("number")
        indices = [_parse_wire_index(tok)]
        while self.at("sym", ","):
            self.next()
            tok = self.expect("number")
            indices.append(_parse_wire_index(tok))
        self.expect("sym", "}")
        return MeasConst(frozenset(indices))


def _check_height(term: Term, tok: Token, above: int = 0) -> None:
    """A ParseError at ``tok`` if ``term``, placed ``above`` levels down,
    reaches deeper than MAX_NESTING.  Counts level by level, without
    recursion, and stops at the first level past the limit."""
    level, height = [term], above
    while level:
        height += 1
        if height > MAX_NESTING:
            raise ParseError(f"term nested deeper than {MAX_NESTING} levels", tok.line, tok.col)
        level = [c for t in level for c in children(t)]


def _fold_sum(items: list[Term], toks: list[Token]) -> Term:
    """The one register constant a '+' of register constants denotes."""
    total: dict[int, complex] = {}
    width = None
    for tok, item in zip(toks, items):
        if not isinstance(item, QubitConst):
            raise ParseError("'+' combines qubit constants only", tok.line, tok.col)
        if width is None:
            width = item.value.width
        elif item.value.width != width:
            raise ParseError(
                f"superposition mixes widths {width} and {item.value.width}",
                tok.line, tok.col)
        for u, a in item.value.amps:
            total[u] = total.get(u, 0j) + a
    return QubitConst(QubitValue(width, total))


def _parse_wire_index(tok: Token) -> int:
    try:
        value = int(tok.text)
    except ValueError:
        raise ParseError(f"wire index must be an integer, got {tok.text}", tok.line, tok.col)
    if value < 1:
        raise ParseError(f"wire index must be >= 1, got {value}", tok.line, tok.col)
    return value


def _nest_splits(names: list[str], value: Term, body: Term) -> Term:
    """let x1*...*xk desugars to nested binary splits, one wire per name
    except the last, which takes the remainder."""
    if len(names) == 2:
        return LetTensor(names[0], names[1], value, body)
    rest = fresh_name("rest", free_vars(body) | set(names))
    inner = _nest_splits(names[1:], Var(rest), body)
    return LetTensor(names[0], rest, value, inner)


# ---------------------------------------------------------------------------
# Entry points


def parse_term(source: str, gates: dict[str, GateAtom] | None = None) -> Term:
    """Parse one term; desugared per the module grammar."""
    term, _ = parse_term_with_notes(source, gates)
    return term


def parse_term_with_notes(source: str,
                          gates: dict[str, GateAtom] | None = None
                          ) -> tuple[Term, list[tuple[int, int, str]]]:
    parser = _Parser(_tokenize(source), gates or {}, {})
    first = parser.peek()
    term = parser.parse_term()
    parser.expect("eof")
    _check_height(term, first)
    return term, parser.strict_notes


def parse_program(source: str) -> Program:
    """Parse a program file: gate declarations and definitions; definitions
    are inlined into later bodies."""
    tokens = _tokenize(source)
    gates: dict[str, GateAtom] = {}
    defs: dict[str, Term] = {}
    order: list[tuple[str, Term]] = []
    parser = _Parser(tokens, gates, defs)
    while not parser.at("eof"):
        if parser.at("keyword", "gate"):
            parser.next()
            name_tok = parser.expect("name")
            if name_tok.text in BUILTIN_GATES or name_tok.text in gates:
                raise ParseError(f"gate {name_tok.text!r} is already defined",
                                 name_tok.line, name_tok.col)
            parser.expect("sym", "=")
            matrix = _parse_matrix(parser)
            parser.expect("sym", ";")
            try:
                gates[name_tok.text] = GateAtom(name_tok.text, matrix)
            except GateError as exc:
                raise ParseError(str(exc), name_tok.line, name_tok.col) from exc
            continue
        name_tok = parser.expect("name")
        if name_tok.text in defs or name_tok.text in gates or name_tok.text in BUILTIN_GATES:
            raise ParseError(f"{name_tok.text!r} is already defined", name_tok.line, name_tok.col)
        params: list[tuple[bool, str]] = []
        while parser.at("name") or parser.at("sym", "!"):
            nonlinear = parser.at("sym", "!")
            if nonlinear:
                parser.next()
            params.append((nonlinear, parser._binder_name()))
        parser.expect("sym", "=")
        body = parser.parse_term()
        parser.expect("sym", ";")
        for nonlinear, p in reversed(params):
            body = BangLam(p, body) if nonlinear else Lam(p, body)
        _check_height(body, name_tok)
        defs[name_tok.text] = body
        order.append((name_tok.text, body))
    main = defs.get("main")
    return Program(gates=gates, defs=order, main=main, strict_notes=parser.strict_notes)


def _parse_matrix(parser: _Parser) -> tuple[tuple[complex, ...], ...]:
    parser.expect("sym", "[")
    rows = [_parse_matrix_row(parser)]
    while parser.at("sym", ","):
        parser.next()
        rows.append(_parse_matrix_row(parser))
    parser.expect("sym", "]")
    return tuple(rows)


def _parse_matrix_row(parser: _Parser) -> tuple[complex, ...]:
    parser.expect("sym", "[")
    entries = [_parse_matrix_entry(parser)]
    while parser.at("sym", ","):
        parser.next()
        entries.append(_parse_matrix_entry(parser))
    parser.expect("sym", "]")
    return tuple(entries)


def _parse_matrix_entry(parser: _Parser) -> complex:
    if parser.at("sym", "("):
        parser.next()
        re_tok = parser.expect("number")
        parser.expect("sym", ",")
        im_tok = parser.expect("number")
        parser.expect("sym", ")")
        return complex(float(re_tok.text), float(im_tok.text))
    tok = parser.expect("number")
    return complex(float(tok.text), 0.0)
