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

Tokens are flat.  ``_tokenize`` gets the text of every token from one
``findall`` call, with a regex that consumes the whitespace and comments
before each token, and tags each text: a symbol or keyword is its own tag,
any other text is tagged by its first character (``name``, ``ket``,
``number``, or ``bad`` for a character that starts no token; a lone ``|``
or ``-`` starts a ket or a number but is not one, so it is ``bad`` too).
The lists end in one ``eof`` token, the empty text at the end of the
source, so looking one token ahead never runs off the end.  The grammar
compares ``tags[i]`` directly and names a token by its index.  A token's
source offset, and its line and column, are worked out only when a
ParseError or a strict-surface note first needs one: then the same regex
runs once more, as ``finditer``, for the offsets, and the source's
newlines are found, so a position is a bisection of their offsets.  A
carriage return counts as a column of its line.

A parsed term may nest at most MAX_NESTING levels: the nodes on its
longest path from the root to a leaf, counted on the term that is built
(a ``let`` builds two, the application and the abstraction, and an inlined
definition brings its own levels).  Each definition and ``main`` is
measured once it is built, and a deeper one is a ParseError at its name.
Heights are kept on the nodes (``syntax.height``), so a definition used
many times is measured once.

The term grammar is one loop over an explicit stack (``parse_term``).
Its frames, one per open construct and per sum being read, are the
continuations recursive descent would leave on the Python stack, made
into plain data (Danvy & Nielsen, "Defunctionalization at Work", PPDP
2001).  So the parser takes no Python frame per level, and sets no
interpreter-wide state.  What it may hold open is bounded separately, by
the constructs open at a token, so that parentheses or prefixes without
end are a ParseError too.

The parser also collects *strict surface* notes: places where a register
constant was written outside the normal form (unbanged kets, tensors over
sums or scalars, nested scalars).  Lenient checking ignores them; the CLI's
--strict-wf turns them into well-formedness violations.
"""

from __future__ import annotations

import cmath
import re
import string
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable

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
    free_vars,
    fresh_name,
    height,
)

KEYWORDS = {"let", "in", "if", "then", "else", "gate"}
_SYMBOLS = frozenset("\\.!(){}[],;=*+")

# Deepest a parsed term may nest, in nodes on its longest root-to-leaf path.
# A chain of 300 lets nests 602 levels, one of 400 lets 802.
MAX_NESTING = 900
# Constructs (lambdas, lets, conditionals, parentheses, bangs and scalar
# prefixes) the parser may have open at one token.  parse_term's stack holds
# a frame for each, and a sum frame for at most each and the whole term, so
# this bounds the parser's memory on a source that opens without end.
# ``pretty`` opens at most two per level of the term it prints, so the
# printed form of every term the parser accepts parses again.
_MAX_OPEN = 2 * MAX_NESTING

# One match per token: the whitespace and comments before it, then the
# token as group 1.  The empty text matches at the end of the source, and
# one character at any character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (
      -?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?
    | \|[01]+>
    | [A-Za-z_][A-Za-z0-9_']*
    | [\\.!(){}\[\],;=*+]
    | \Z
    | .
    )
    """,
    re.VERBOSE,
)

# A token's tag is its text for symbols and keywords; the empty text at the
# end is ``eof``, and a lone ``|`` or ``-`` (which starts a ket or a number
# but is not one) is ``bad``.
_TEXT_TAGS = {text: text for text in (*KEYWORDS, *_SYMBOLS)}
_TEXT_TAGS.update({"": "eof", "|": "bad", "-": "bad"})
# Any other token is tagged by its first character: a number may also start
# with any other decimal digit ``\d`` matches, and a character that starts
# no token is ``bad``.
_FIRST_TAGS = {**dict.fromkeys(string.digits + "-", "number"), "|": "ket",
               **dict.fromkeys(string.ascii_letters + "_", "name")}
# Tags that start a prim, and so continue an application.
_PRIM_START = frozenset(("name", "ket", "!", "("))
# The kinds of parse_term's frames that wait for a term; the others (sum,
# bang and scalar) wait for a prim.
_TERM_FRAMES = frozenset(("lambda", "let", "if", "group"))


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


def _newlines(source: str) -> list[int]:
    """The offsets of the newlines of ``source``, in order."""
    return [m.start() for m in re.finditer("\n", source)]


def _line_col(newlines: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``, given the newline offsets
    of its source.  A carriage return is a column of its line."""
    line = bisect_left(newlines, offset)
    start = newlines[line - 1] + 1 if line else 0
    return line + 1, offset - start + 1


def _tokenize(source: str) -> tuple[list[str], list[str]]:
    """The tags and texts of the tokens of ``source``, as parallel lists
    that end in one ``eof`` token."""
    texts = _TOKEN_RE.findall(source)
    if len(texts) > 1 and not texts[-2]:
        texts.pop()  # the end matched twice: after trailing whitespace, then empty
    text_tag, first_tag = _TEXT_TAGS.get, _FIRST_TAGS.get
    tags = [text_tag(text) or first_tag(text[0])
            or ("number" if text[0].isdecimal() else "bad") for text in texts]
    if "bad" in tags:
        i = tags.index("bad")
        raise ParseError(f"unexpected character {texts[i]!r}",
                         *_line_col(_newlines(source), _offsets(source, i + 1)[i]))
    return tags, texts


def _offsets(source: str, count: int) -> list[int]:
    """The source offsets of the first ``count`` tokens ``_tokenize`` finds."""
    return [m.start(1) for m in islice(_TOKEN_RE.finditer(source), count)]


@dataclass
class Program:
    """A parsed source file: its gate declarations and definitions as
    (name, GateAtom or body) pairs in source order (bodies fully inlined),
    the ``main`` term if present, and strict-surface notes."""

    declarations: list[tuple[str, GateAtom | Term]]
    main: Term | None
    strict_notes: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def gates(self) -> dict[str, GateAtom]:
        """The user gate table."""
        return {name: d for name, d in self.declarations if type(d) is GateAtom}

    @property
    def defs(self) -> list[tuple[str, Term]]:
        """The definitions, in order."""
        return [(name, d) for name, d in self.declarations if type(d) is not GateAtom]


class _Parser:
    """The grammar over the token lists of one source.  ``i`` indexes the
    current token; a token is named by its index wherever a position may be
    needed, and turned into a line and column only for a ParseError or a
    note."""

    def __init__(self, source: str, gates: dict[str, GateAtom], defs: dict[str, Term]):
        self.source = source
        self.tags, self.texts = _tokenize(source)
        self.i = 0
        self.gates = gates
        self.defs = defs
        self.strict_notes: list[tuple[int, int, str]] = []
        self.depth = 0  # constructs open at the current token
        # one constant per gate name, shared by its uses (gates are never
        # redeclared, so an entry stays valid)
        self.gate_consts: dict[str, GateConst] = {}
        # token offsets and newline offsets, found at the first position asked for
        self.offsets: list[int] | None = None
        self.newlines: list[int] = []

    # -- positions and errors

    def line_col(self, i: int) -> tuple[int, int]:
        if self.offsets is None:
            self.offsets = _offsets(self.source, len(self.tags))
            self.newlines = _newlines(self.source)
        return _line_col(self.newlines, self.offsets[i])

    def error(self, message: str, i: int, expected: frozenset[str] = frozenset()) -> ParseError:
        return ParseError(message, *self.line_col(i), expected)

    def expect(self, tag: str) -> int:
        """The index of the current token, which must have ``tag``; the
        parser moves past it."""
        i = self.i
        found = self.tags[i]
        if found != tag:
            kind = "keyword" if found in KEYWORDS else "sym" if found in _SYMBOLS else found
            raise self.error(f"unexpected {kind} {self.texts[i]!r}", i, frozenset((tag,)))
        self.i = i + 1
        return i

    def accept(self, tag: str) -> bool:
        """Whether the current token has ``tag``; the parser moves past it if so."""
        if self.tags[self.i] != tag:
            return False
        self.i += 1
        return True

    def note(self, i: int, message: str) -> None:
        self.strict_notes.append((*self.line_col(i), message))

    def open_level(self, i: int) -> None:
        """Open one construct at token ``i``; a ParseError there past
        _MAX_OPEN.  Closing it lowers ``depth`` again."""
        self.depth += 1
        if self.depth > _MAX_OPEN:
            raise self.error(f"source nested deeper than {_MAX_OPEN} levels", i)

    def check_finite(self, amps: Iterable[complex], i: int) -> None:
        """A ParseError at token ``i`` if an amplitude has an infinite or NaN part."""
        if not all(map(cmath.isfinite, amps)):
            raise self.error("amplitude overflows the float range", i)

    def check_height(self, term: Term, i: int, above: int = 0) -> None:
        """A ParseError at token ``i`` if ``term``, placed ``above`` levels
        down, reaches deeper than MAX_NESTING."""
        if height(term) + above > MAX_NESTING:
            raise self.error(f"term nested deeper than {MAX_NESTING} levels", i)

    # -- term grammar

    def parse_term(self) -> Term:
        """term, in one loop over a stack of frames: one per construct open
        at the current token, and one per sum being read.  A lambda, let,
        if or group frame waits for a term, and a sum, bang or scalar frame
        for a prim.  The loop reads forward to a leaf, pushing a frame for
        each construct it opens, then hands the leaf down the stack: a
        frame that it completes is popped and its node handed on, and the
        first that waits for more parts sends the loop forward again."""
        tags = self.tags
        stack: list[list] = []
        while True:
            i = self.i
            tag = tags[i]
            if not stack or stack[-1][0] in _TERM_FRAMES:
                if tag == "\\" or tag == "let":
                    self.open_level(i)
                    self.i = i + 1
                    nonlinear = self.accept("!")
                    names = [self._binder_name()]
                    if tag == "\\":
                        self.expect(".")
                        stack.append(["lambda", nonlinear, names[0]])
                        continue
                    while not nonlinear and self.accept("*"):
                        name_at = self.i
                        name = self._binder_name()
                        if name in names:
                            raise self.error("duplicate names in destructuring pattern", name_at)
                        names.append(name)
                    self.expect("=")
                    stack.append(["let", i, nonlinear, names, None])
                elif tag == "if":
                    self.open_level(i)
                    self.i = i + 1
                    stack.append(["if", []])
                else:
                    # summands and their positions, the factors of the
                    # summand being read and theirs, the application being read
                    stack.append(["sum", [], [], [], [i], None])
                continue
            if tag == "!" and tags[i + 1] != "ket":
                self.open_level(i)
                self.i = i + 1
                stack.append(["bang", i])
                continue
            if tag == "(":
                if tags[i + 1] == "number":
                    self.i = i + 2
                    self.expect(",")
                    im_at = self.expect("number")
                    self.expect(")")
                    self.open_level(i)
                    z = complex(float(self.texts[i + 1]), float(self.texts[im_at]))
                    stack.append(["scalar", i, z])
                else:
                    self.open_level(i)
                    self.i = i + 1
                    stack.append(["group"])
                continue
            value = self._leaf()
            while stack:
                frame = stack[-1]
                kind = frame[0]
                if kind == "sum":
                    _, summands, summand_at, factors, factor_at, app = frame
                    app = value if app is None else App(app, value)
                    tag = tags[self.i]
                    if tag in _PRIM_START:
                        frame[5] = app
                        break
                    factors.append(app)
                    frame[5] = None
                    if tag == "*":
                        self.i += 1
                        factor_at.append(self.i)
                        break
                    summand_at.append(factor_at[0])
                    summands.append(app if len(factors) == 1
                                    else self._fold_tensor(factors, factor_at))
                    if tag == "+":
                        self.i += 1
                        frame[3], frame[4] = [], [self.i]
                        break
                    stack.pop()
                    value = summands[0] if len(summands) == 1 else self._fold_sum(summands, summand_at)
                    continue
                if kind == "let" and frame[4] is None:
                    frame[4] = value
                    self.expect("in")
                    break
                if kind == "if" and len(frame[1]) < 2:
                    frame[1].append(value)
                    self.expect("then" if len(frame[1]) == 1 else "else")
                    break
                # the construct is complete
                stack.pop()
                self.depth -= 1
                if kind == "lambda":
                    value = (BangLam if frame[1] else Lam)(frame[2], value)
                elif kind == "let":
                    _, let_at, nonlinear, names, bound = frame
                    if len(names) == 1:
                        value = App((BangLam if nonlinear else Lam)(names[0], value), bound)
                    else:
                        # the body sits under a split for each name but the last
                        self.check_height(value, let_at, len(names) - 1)
                        value = self._nest_splits(names, bound, value)
                elif kind == "if":
                    value = If(*frame[1], value)
                elif kind == "group":
                    self.expect(")")
                elif kind == "bang":
                    if isinstance(value, QubitConst):
                        self.note(frame[1], "bang on a non-base register expression")
                    else:
                        value = Bang(value)
                else:  # a scalar prefix
                    _, open_at, z = frame
                    if not isinstance(value, QubitConst):
                        raise self.error("scalar product applies to qubit constants only", open_at)
                    if len(value.value.amps) != 1:
                        self.note(open_at, "scalar over a non-base register expression")
                    scaled = {u: z * a for u, a in value.value.amps}
                    self.check_finite(scaled.values(), open_at)
                    value = QubitConst(QubitValue(value.value.width, scaled))
            else:
                return value

    def _binder_name(self) -> str:
        i = self.expect("name")
        text = self.texts[i]
        if text in self.gates or text in BUILTIN_GATES:
            raise self.error(f"{text!r} names a gate and cannot be bound", i)
        if text in self.defs:
            raise self.error(f"{text!r} names a definition and cannot be bound", i)
        return text

    def _nest_splits(self, names: list[str], value: Term, body: Term) -> Term:
        """let x1*...*xk desugars to nested binary splits, one wire per name
        except the last, which takes the remainder.  The split for x_i binds
        the remainder to a fresh ``rest`` name: free in neither the body nor
        the names x_i..., and not a name that cannot be bound."""
        if len(names) == 2:
            return LetTensor(names[0], names[1], value, body)
        avoid = {*free_vars(body), *self.gates, *self.defs, *names[-2:]}
        term, right = body, names[-1]
        for k in range(len(names) - 2, 0, -1):
            avoid.add(names[k - 1])
            rest = fresh_name("rest", avoid)
            term = LetTensor(names[k], right, Var(rest), term)
            right = rest
        return LetTensor(names[0], right, value, term)

    def _fold_tensor(self, items: list[Term], at: list[int]) -> Term:
        if all(isinstance(it, GateConst) for it in items):
            return GateConst(GateExpr(tuple(a for it in items for a in it.gate.atoms)))
        # Register tensor, possibly through gate applications (a gate applied
        # to part of a wider register contracts to the gate padded with I).
        peeled = []
        for i, item in zip(at, items):
            chain: list[GateExpr] = []
            t = item
            while isinstance(t, App) and isinstance(t.fun, GateConst):
                chain.append(t.fun.gate)
                t = t.arg
            if not isinstance(t, QubitConst):
                raise self.error(
                    "tensor operands must be qubit constants or gate applications "
                    "over them (variables cannot be tensored)", i)
            width = t.value.width
            for g in reversed(chain):
                if g.arity != width:
                    raise self.error(
                        f"gate of arity {g.arity} applied to {width} wire(s) inside a tensor", i)
            if chain or len(t.value.amps) > 1:
                self.note(i, "tensor over a non-base register expression")
            peeled.append((chain, t.value))
        base = peeled[0][1]
        for i, (_, value) in zip(at[1:], peeled[1:]):
            base = qtensor(base, value)
            self.check_finite((a for _, a in base.amps), i)
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

    def _fold_sum(self, items: list[Term], at: list[int]) -> Term:
        """The one register constant a '+' of register constants denotes."""
        total: dict[int, complex] = {}
        width = None
        for i, item in zip(at, items):
            if not isinstance(item, QubitConst):
                raise self.error("'+' combines qubit constants only", i)
            if width is None:
                width = item.value.width
            elif item.value.width != width:
                raise self.error(
                    f"superposition mixes widths {width} and {item.value.width}", i)
            for u, a in item.value.amps:
                total[u] = total.get(u, 0j) + a
            self.check_finite((total[u] for u, _ in item.value.amps), i)
        return QubitConst(QubitValue(width, total))

    def _leaf(self) -> Term:
        """A prim that opens no construct: a name, a ket or a measurement."""
        i = self.i
        tags = self.tags
        tag = tags[i]
        if tag == "name":
            text = self.texts[i]
            if text == "M" and tags[i + 1] == "{":
                return self._measurement()
            self.i = i + 1
            const = self.gate_consts.get(text)
            if const is not None:
                return const
            atom = self.gates.get(text) or BUILTIN_GATES.get(text)
            if atom is not None:
                const = self.gate_consts[text] = GateConst(GateExpr((atom,)))
                return const
            definition = self.defs.get(text)
            return Var(text) if definition is None else definition
        if tag == "!":  # and a ket: the loop opens a bang on anything else
            self.i = i + 2
            return QubitConst(ket(self.texts[i + 1][1:-1]))
        if tag == "ket":
            self.i = i + 1
            self.note(i, "base qubit written without '!'")
            return QubitConst(ket(self.texts[i][1:-1]))
        raise self.error("expected a term", i, frozenset(("term",)))

    def _measurement(self) -> Term:
        """A measurement; the current tokens are 'M' and '{'."""
        self.i += 2
        return MeasConst(frozenset(self._items(self._wire_index, "}")))

    def _wire_index(self) -> int:
        i = self.expect("number")
        text = self.texts[i]
        try:
            value = int(text)
        except ValueError:
            raise self.error(f"wire index must be an integer, got {text}", i)
        if value < 1:
            raise self.error(f"wire index must be >= 1, got {value}", i)
        return value

    def _items(self, item: Callable[[], object], close: str) -> list:
        """item (',' item)* close"""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(close)
        return items

    # -- gate matrices

    def _matrix(self) -> tuple[tuple[complex, ...], ...]:
        self.expect("[")
        return tuple(self._items(self._matrix_row, "]"))

    def _matrix_row(self) -> tuple[complex, ...]:
        self.expect("[")
        return tuple(self._items(self._matrix_entry, "]"))

    def _matrix_entry(self) -> complex:
        if self.accept("("):
            re_at = self.expect("number")
            self.expect(",")
            im_at = self.expect("number")
            self.expect(")")
            return complex(float(self.texts[re_at]), float(self.texts[im_at]))
        return complex(float(self.texts[self.expect("number")]), 0.0)


# ---------------------------------------------------------------------------
# Entry points


def parse_term(source: str, gates: dict[str, GateAtom] | None = None) -> Term:
    """Parse one term; desugared per the module grammar."""
    return parse_term_with_notes(source, gates)[0]


def parse_term_with_notes(source: str,
                          gates: dict[str, GateAtom] | None = None
                          ) -> tuple[Term, list[tuple[int, int, str]]]:
    parser = _Parser(source, gates or {}, {})
    term = parser.parse_term()
    parser.expect("eof")
    parser.check_height(term, 0)
    return term, parser.strict_notes


def parse_program(source: str) -> Program:
    """Parse a program file: gate declarations and definitions; definitions
    are inlined into later bodies."""
    gates: dict[str, GateAtom] = {}
    defs: dict[str, Term] = {}
    declarations: list[tuple[str, GateAtom | Term]] = []
    parser = _Parser(source, gates, defs)
    tags, texts = parser.tags, parser.texts
    while tags[parser.i] != "eof":
        if parser.accept("gate"):
            name_at = parser.expect("name")
            name = texts[name_at]
            if name in BUILTIN_GATES or name in gates or name in defs:
                raise parser.error(f"gate {name!r} is already defined", name_at)
            parser.expect("=")
            matrix = parser._matrix()
            parser.expect(";")
            try:
                gates[name] = GateAtom(name, matrix)
            except GateError as exc:
                raise parser.error(str(exc), name_at) from exc
            declarations.append((name, gates[name]))
            continue
        name_at = parser.expect("name")
        name = texts[name_at]
        if name in defs or name in gates or name in BUILTIN_GATES:
            raise parser.error(f"{name!r} is already defined", name_at)
        params: list[tuple[bool, str]] = []
        while tags[parser.i] in ("name", "!"):
            params.append((parser.accept("!"), parser._binder_name()))
        parser.expect("=")
        body = parser.parse_term()
        parser.expect(";")
        for nonlinear, p in reversed(params):
            body = BangLam(p, body) if nonlinear else Lam(p, body)
        parser.check_height(body, name_at)
        defs[name] = body
        declarations.append((name, body))
    return Program(declarations, defs.get("main"), parser.strict_notes)
