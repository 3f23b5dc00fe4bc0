"""Reference implementations of the tokenizer and of the term grammar,
kept only as test oracles.

- ``tokenize_reference`` is the ``finditer`` pass that
  ``qlam.parser._tokenize`` replaced with one ``findall`` call and tags
  read from tables.  It matches one named group per token kind, tags a
  token by the group that matched (or by its text, for a symbol or
  keyword), and records every token's source offset as it goes.  A source
  with a character that starts no token raises the ParseError that
  ``qlam.parser`` raises, at that character.
- ``WalkParser`` is the term grammar that ``qlam.parser._Parser.parse_term``
  replaced with one loop over a stack of frames: recursive descent written
  as walks, generators that yield a sub-walk where they would recurse, run
  by the trampoline ``descend``.  ``parse_with_walks`` runs an entry point
  of ``qlam.parser`` with it in place of the loop, so everything but the
  grammar (the program loop, the folds, the checks) is shared.
"""

from __future__ import annotations

import re
from types import GeneratorType
from typing import Any, Callable, Generator
from unittest import mock

import qlam.parser
from qlam.parser import KEYWORDS, _PRIM_START, _SYMBOLS, ParseError, _line_col, _newlines, _Parser
from qlam.quantum import BUILTIN_GATES, GateExpr, QubitValue, ket
from qlam.syntax import App, Bang, BangLam, GateConst, If, Lam, QubitConst, Term, Var

# One match per token: the whitespace and comments before it, then the
# token.  ``eof`` matches at the end of the source and ``bad`` at any
# character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
      (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<ket>\|[01]+>)
    | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<sym>[\\.!(){}\[\],;=*+])
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)

# A token's tag is its text for symbols and keywords; other tokens are
# tagged with their kind (name, ket, number, eof).
_TEXT_TAGS = {text: text for text in (*KEYWORDS, *_SYMBOLS)}


def tokenize_reference(source: str) -> tuple[list[str], list[str], list[int]]:
    """The tags, texts and source offsets of the tokens of ``source``, as
    parallel lists that end in one ``eof`` token."""
    tags: list[str] = []
    texts: list[str] = []
    offsets: list[int] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        tags.append(_TEXT_TAGS.get(text, kind))
        texts.append(text)
        offsets.append(m.start(kind))
        if kind == "eof":
            break
    if "bad" in tags:
        i = tags.index("bad")
        raise ParseError(f"unexpected character {texts[i]!r}",
                         *_line_col(_newlines(source), offsets[i]))
    return tags, texts, offsets


Walk = Generator[Any, Any, Any]  # see descend


def descend(walk: Walk | Any) -> Any:
    """Run a recursive walk without Python recursion: the trampolined style
    of Ganz, Friedman & Wand (ICFP 1999).

    A walk is a generator.  Where it would recurse it yields a sub-walk (a
    generator), and is sent that sub-walk's result; anything else it
    yields is a finished value, which is sent straight back.  What the walk
    returns is the result, so a result is never a generator.  Only one walk
    frame runs at a time: the suspended ones wait on a list.  An exception
    a walk raises ends the whole descent.  ``walk`` may itself be a
    finished value, which is returned.
    """
    if type(walk) is not GeneratorType:
        return walk
    suspended = []  # the send methods of the walks waiting on a sub-walk
    send = walk.send
    value = None
    while True:
        try:
            item = send(value)
        except StopIteration as done:
            if not suspended:
                return done.value
            send = suspended.pop()
            value = done.value
            continue
        if type(item) is GeneratorType:
            suspended.append(send)
            send = item.send
            value = None
        else:
            value = item


class WalkParser(_Parser):
    """The term grammar as walks: each rule that would call a rule which
    may nest yields that rule's walk instead, and ``_prim`` hands a name,
    ket or measurement back as a finished term."""

    def parse_term(self) -> Term:
        """term, run by descend."""
        return descend(self._term())

    def _term(self) -> Walk:
        """term, as a walk."""
        tag = self.tags[self.i]
        if tag == "\\":
            return self._lambda()
        if tag == "let":
            return self._let()
        if tag == "if":
            return self._if()
        return self._sum()

    def _sum(self) -> Walk:
        """sum, with the tensor and application loops run in this one walk."""
        tags = self.tags
        summands: list[Term] = []
        summand_at: list[int] = []
        factors: list[Term] = []
        factor_at: list[int] = []
        while True:
            factor_at.append(self.i)
            term = yield self._prim()
            while tags[self.i] in _PRIM_START:
                term = App(term, (yield self._prim()))
            factors.append(term)
            tag = tags[self.i]
            if tag == "*":
                self.i += 1
                continue
            summand_at.append(factor_at[0])
            summands.append(factors[0] if len(factors) == 1
                            else self._fold_tensor(factors, factor_at))
            if tag != "+":
                break
            self.i += 1
            factors, factor_at = [], []
        if len(summands) == 1:
            return summands[0]
        return self._fold_sum(summands, summand_at)

    def _lambda(self) -> Walk:
        self.open_level(self.i)
        self.i += 1
        nonlinear = self.accept("!")
        name = self._binder_name()
        self.expect(".")
        body = yield self._term()
        self.depth -= 1
        return BangLam(name, body) if nonlinear else Lam(name, body)

    def _let(self) -> Walk:
        let_at = self.i
        self.open_level(let_at)
        self.i += 1
        nonlinear = self.accept("!")
        names = [self._binder_name()]
        while not nonlinear and self.accept("*"):
            name_at = self.i
            name = self._binder_name()
            if name in names:
                raise self.error("duplicate names in destructuring pattern", name_at)
            names.append(name)
        self.expect("=")
        value = yield self._term()
        self.expect("in")
        body = yield self._term()
        self.depth -= 1
        if len(names) == 1:
            return App((BangLam if nonlinear else Lam)(names[0], body), value)
        # the body sits under a split for each name but the last
        self.check_height(body, let_at, len(names) - 1)
        return self._nest_splits(names, value, body)

    def _if(self) -> Walk:
        self.open_level(self.i)
        self.i += 1
        cond = yield self._term()
        self.expect("then")
        then = yield self._term()
        self.expect("else")
        orelse = yield self._term()
        self.depth -= 1
        return If(cond, then, orelse)

    def _prim(self) -> Term | Walk:
        """prim: a name, ket or measurement as a term, else a walk."""
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
        if tag == "!":
            if tags[i + 1] == "ket":
                self.i = i + 2
                return QubitConst(ket(self.texts[i + 1][1:-1]))
            return self._bang()
        if tag == "(":
            return self._scalar() if tags[i + 1] == "number" else self._group()
        if tag == "ket":
            self.i = i + 1
            self.note(i, "base qubit written without '!'")
            return QubitConst(ket(self.texts[i][1:-1]))
        raise self.error("expected a term", i, frozenset(("term",)))

    def _bang(self) -> Walk:
        """'!' prim; the current token is the '!'."""
        i = self.i
        self.open_level(i)
        self.i = i + 1
        inner = yield self._prim()
        self.depth -= 1
        if isinstance(inner, QubitConst):
            self.note(i, "bang on a non-base register expression")
            return inner
        return Bang(inner)

    def _group(self) -> Walk:
        """'(' term ')'; the current token is the '('."""
        self.open_level(self.i)
        self.i += 1
        inner = yield self._term()
        self.expect(")")
        self.depth -= 1
        return inner

    def _scalar(self) -> Walk:
        """A scalar prefix; the current tokens are '(' and a number."""
        open_at = self.i
        self.i += 2
        self.expect(",")
        im_at = self.expect("number")
        self.expect(")")
        self.open_level(open_at)
        operand = yield self._prim()
        self.depth -= 1
        if not isinstance(operand, QubitConst):
            raise self.error("scalar product applies to qubit constants only", open_at)
        if len(operand.value.amps) != 1:
            self.note(open_at, "scalar over a non-base register expression")
        z = complex(float(self.texts[open_at + 1]), float(self.texts[im_at]))
        scaled = {u: z * a for u, a in operand.value.amps}
        self.check_finite(scaled.values(), open_at)
        return QubitConst(QubitValue(operand.value.width, scaled))


def parse_with_walks(parse: Callable[..., Any], *args: Any) -> Any:
    """``parse`` (an entry point of ``qlam.parser``) run on ``args`` with
    the walk grammar in place of the loop."""
    with mock.patch.object(qlam.parser, "_Parser", WalkParser):
        return parse(*args)
