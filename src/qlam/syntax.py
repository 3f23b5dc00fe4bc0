"""Core term syntax: AST, traversal by position, alpha-equivalence,
capture-avoiding substitution, and the canonical pretty-printer.

Terms are immutable values, safe to share across threads.  A position is a
tuple of child indices (child numbering per constructor is fixed below), so
() addresses the whole term.  A walk that may need positions carries links
instead, () at the root and (parent's link, child index) below it, and
builds a position (``_position``) only for the nodes it reports.

No walker takes a Python frame per level of a term, so any depth costs
heap, not interpreter stack, and nothing depends on Python's recursion
limit.  ``height``, ``free_vars``, ``_shape``, ``substitute`` and ``pretty``
keep their own explicit stacks.  ``descend`` serves only the walks that
read best as recursion, the parser's grammar and ``wellformed.check``: they
are generators, a walk yields a sub-walk where it would recurse, and only
one walk frame runs at a time.  Only the generated dataclass ``==``,
``hash`` and ``repr`` of terms still recurse, and nothing in the package
calls them.

``free_vars`` memoizes each node's free-variable set on the node itself, as
an instance attribute that equality, hashing and repr do not look at.  The
write is idempotent (every thread computes the same set), so terms stay safe
to share.  ``substitute`` replaces several names at once and returns every
subterm in which none of them is free as the same object, so a step costs
the paths down to the occurrences rather than the whole body: with the
linear discipline, one path.

Qubit registers appear in terms only as whole constants (QubitConst); there
is no term-level tensor, which is what makes cloning of unknown quantum data
unwritable.  The destructuring binder LetTensor is the one primitive that
takes a register apart, and only product states split.

Alpha-equivalence reads a second memo kept the same way: a term's shape
(nodes in preorder, bound variables as binder levels) and its registers,
from one iterative walk.  ``alpha_eq`` compares shapes, then amplitudes
within a tolerance.  ``shape_key``, the shape plus each register's key
support (read by quantum.key_support and kept on the register), is a hash
key that alpha-equivalent terms share, or None when an amplitude is too
close to the support threshold to place (compare with every term).  The
key is a third memo kept on the term, so a term is keyed once however often
an ensemble scan asks for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import GeneratorType
from typing import Any, Generator, Union

from .quantum import AMP_TOL, GateExpr, QubitValue, amps_close, key_support


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    """Linear abstraction: the bound variable must be used exactly once."""

    var: str
    body: "Term"


@dataclass(frozen=True)
class BangLam:
    """Nonlinear abstraction: the bound variable may be used any number of
    times, and only duplicable arguments may be passed."""

    var: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Bang:
    """Promotion !t: a duplicable suspended term.  Reduction never descends
    inside a bang; bang terms are values."""

    body: "Term"


@dataclass(frozen=True)
class GateConst:
    gate: GateExpr


@dataclass(frozen=True)
class QubitConst:
    value: QubitValue


@dataclass(frozen=True)
class MeasConst:
    """Measurement operator over the 1-based wire indices in ``indices``."""

    indices: frozenset[int]

    def __post_init__(self) -> None:
        idx = frozenset(self.indices)
        if not idx or any(i < 1 for i in idx):
            raise ValueError("measurement indices must be a nonempty set of wires >= 1")
        object.__setattr__(self, "indices", idx)


@dataclass(frozen=True)
class If:
    """Conditional on a base qubit.  Only |0> or |1> conditions reduce."""

    cond: "Term"
    then: "Term"
    orelse: "Term"


@dataclass(frozen=True)
class LetTensor:
    """Destructure a register into its first wire and the rest:
    ``let left * right = value in body``.

    The split fires only when the register is a product across the cut.
    Both binders are nonlinear: they only ever bind post-measurement
    (classical, duplicable) data.
    """

    left: str
    right: str
    value: "Term"
    body: "Term"


Term = Union[Var, Lam, BangLam, App, Bang, GateConst, QubitConst, MeasConst, If, LetTensor]

_CLOSED_LEAVES = frozenset((GateConst, QubitConst, MeasConst))
_LEAVES = _CLOSED_LEAVES | {Var}

Position = tuple[int, ...]

# A walk yields sub-walks or finished values and returns its result; see
# descend.
Walk = Generator[Any, Any, Any]


# ---------------------------------------------------------------------------
# Traversal


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


def _position(link: tuple) -> Position:
    """The position a walk link stands for: () at the root, else (the
    parent's link, child index), so a walk holds O(depth) of them."""
    out: list[int] = []
    while link:
        link, i = link
        out.append(i)
    return tuple(reversed(out))


def bang(t: Term) -> Term:
    """Promote a term.  Register constants are already duplicable, so a bang
    on one collapses: banged base qubits and banged registers are the
    constants themselves."""
    return t if isinstance(t, QubitConst) else Bang(t)


def children(t: Term) -> tuple[Term, ...]:
    cls = type(t)
    if cls is App:
        return (t.fun, t.arg)
    if cls is Lam or cls is BangLam or cls is Bang:
        return (t.body,)
    if cls is If:
        return (t.cond, t.then, t.orelse)
    if cls is LetTensor:
        return (t.value, t.body)
    return ()


def with_children(t: Term, new: tuple[Term, ...]) -> Term:
    cls = type(t)
    if cls is App:
        return App(new[0], new[1])
    if cls is Lam or cls is BangLam:
        return cls(t.var, new[0])
    if cls is Bang:
        return bang(new[0])
    if cls is If:
        return If(new[0], new[1], new[2])
    if cls is LetTensor:
        return LetTensor(t.left, t.right, new[0], new[1])
    return t


def _path_to(t: Term, pos: Position) -> tuple[list[tuple[Term, int]], Term]:
    """The (node, child index) pairs from t down to pos, and the subterm
    there.  IndexError for a missing child, a negative index included."""
    path = []
    for i in pos:
        kids = children(t)
        if not 0 <= i < len(kids):
            raise IndexError(f"no subterm at {pos}")
        path.append((t, i))
        t = kids[i]
    return path, t


def _rebuild(path: list[tuple[Term, int]], new: Term) -> Term:
    """The root of ``path`` with new in place of the node the path leads
    to.  Each (node, child index) on it is rebuilt around the new child."""
    for t, i in reversed(path):
        kids = list(children(t))
        kids[i] = new
        new = with_children(t, tuple(kids))
    return new


def height(t: Term) -> int:
    """Nodes on the longest root-to-leaf path of t, computed once per node
    and kept on it the way free_vars keeps its set, so a subterm shared by
    many parents (an inlined definition) is walked once.  Iterative: a node
    stays on the stack until each of its children has a height."""
    if type(t) in _LEAVES:
        return 1
    out = getattr(t, _HEIGHT, None)
    if out is not None:
        return out
    stack = [t]
    while stack:
        node = stack[-1]
        best = 0
        pending = False
        for c in children(node):
            if type(c) in _LEAVES:
                h = 1
            else:
                h = getattr(c, _HEIGHT, None)
                if h is None:
                    stack.append(c)
                    pending = True
                    continue
            if h > best:
                best = h
        if not pending:
            stack.pop()
            object.__setattr__(node, _HEIGHT, best + 1)
    return getattr(t, _HEIGHT)


# ---------------------------------------------------------------------------
# Variables


_EMPTY: frozenset[str] = frozenset()

# Names of the instance attributes that hold a node's free-variable memo, a
# term's shape memo, its shape key and a node's height memo.
_FREE = "_free_vars"
_HEIGHT = "_height"
_SHAPE = "_shape"
_KEY = "_shape_key"
_UNKEYED = object()  # no shape key kept yet (None is a key's value)


@functools.lru_cache(maxsize=1024)
def _singleton(name: str) -> frozenset[str]:
    """The one-variable set of ``name``, shared by every variable so named
    (a bounded cache keyed by the name, not by any term)."""
    return frozenset((name,))


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """a | b, reusing an operand when it already holds the union."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of t, computed once per node and kept on it.

    The set is stored as an instance attribute that is not a field (a frozen
    dataclass without __slots__ has room for one, and object.__setattr__
    gets past the frozen check), so equality, hashing and repr never see
    it.  Equal sets are shared rather than copied: a binder whose variable
    is not free returns its body's set, a union one side already holds is
    that side, variables of one name share one set, and every closed
    subterm returns one empty frozenset.  Iterative, as height is: a node
    stays on the stack until each of its children has a set.
    """
    cls = type(t)
    if cls in _CLOSED_LEAVES:
        return _EMPTY
    out = getattr(t, _FREE, None)
    if out is not None:
        return out
    stack = [t]
    while stack:
        node = stack[-1]
        pending = False
        for c in children(node):
            if getattr(c, _FREE, None) is None:
                cls = type(c)
                if cls is Var:
                    object.__setattr__(c, _FREE, _singleton(c.name))
                elif cls not in _CLOSED_LEAVES:
                    stack.append(c)
                    pending = True
        if not pending:
            stack.pop()
            object.__setattr__(node, _FREE, _free_of(node))
    return getattr(t, _FREE)


def _free_of(t: Term) -> frozenset[str]:
    """The free variables of t, from the sets kept on its children (a
    closed leaf keeps none)."""
    cls = type(t)
    if cls is Var:
        return _singleton(t.name)
    if cls is Lam or cls is BangLam:
        out = getattr(t.body, _FREE, _EMPTY)
        return out - {t.var} or _EMPTY if t.var in out else out
    if cls is LetTensor:
        x, y = t.left, t.right
        inner = getattr(t.body, _FREE, _EMPTY)
        if x in inner or y in inner:
            inner = inner - {x, y} or _EMPTY
        return _union(getattr(t.value, _FREE, _EMPTY), inner)
    out = _EMPTY
    for c in children(t):
        out = _union(out, getattr(c, _FREE, _EMPTY))
    return out


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(body: Term, sigma: dict[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution: body with each free name
    of sigma replaced by sigma's term for it, all at once.  A subterm in
    which no name of sigma is free (is live) comes back as the same object.
    One loop follows a node's one live child, keeping the path as _path_to
    does and rebuilding it with _rebuild; a node with several live children
    waits on a stack.  A binder drops the names it shadows from sigma.  One
    free in a replacement live in its body is renamed apart by one more
    entry of sigma (Stoughton, TCS 59, 1988), to a name free in none of
    those replacements, nor in the body, and not the node's other binder."""
    if free_vars(body).isdisjoint(sigma):
        return body
    # free_vars(body) memoized every node below it but the closed leaves,
    # which are never live, so the walk reads the memo directly.
    stack = done = None  # made at the first node live in several children
    path: list = []  # (node, index of its one live child), root first
    t = body
    while True:
        cls = type(t)
        if cls is Var:
            new = _rebuild(path, sigma[t.name])
            while stack and stack[-1][0] is None:  # a node's live children are done
                _, path, t, hits = stack.pop()
                kids = list(children(t))
                kids[hits.pop()] = new
                for i in reversed(hits):
                    kids[i] = done.pop()
                new = _rebuild(path, with_children(t, tuple(kids)))
            if not stack:
                return new
            done.append(new)
            t, sigma = stack.pop()
            path = []
            continue
        if cls is App:
            if getattr(t.fun, _FREE, _EMPTY).isdisjoint(sigma):
                path.append((t, 1))
                t = t.arg
                continue
            if getattr(t.arg, _FREE, _EMPTY).isdisjoint(sigma):
                path.append((t, 0))
                t = t.fun
                continue
        kids = children(t)
        subs = [sigma] * len(kids)
        if cls is Lam or cls is BangLam or cls is LetTensor:
            names = [t.left, t.right] if cls is LetTensor else [t.var]
            inner = subs[-1] = {k: r for k, r in sigma.items() if k not in names}
            free = getattr(t.body, _FREE, _EMPTY)
            live = _EMPTY.union(*[free_vars(r) for k, r in inner.items() if k in free])
            if not live.isdisjoint(names):
                for k, name in enumerate(names):
                    if name in live:
                        names[k] = fresh_name(name, live | free | {*names} - {name})
                        if name in free:  # a name a split binds twice is the right one's
                            inner[name] = Var(names[k])
                t = cls(*names, *kids)
        hits = [i for i, c in enumerate(kids) if not getattr(c, _FREE, _EMPTY).isdisjoint(subs[i])]
        if len(hits) > 1:
            if stack is None:
                stack, done = [], []
            stack.append((None, path, t, hits))
            stack += [(kids[i], subs[i]) for i in reversed(hits[1:])]
            path = []
        else:
            path.append((t, hits[0]))
        t, sigma = kids[hits[0]], subs[hits[0]]


# ---------------------------------------------------------------------------
# Alpha-equivalence


def _shape(t: Term) -> tuple[tuple, tuple[QubitValue, ...]]:
    """The shape of t and its registers, from one preorder walk, kept on t.

    The shape lists each node's class and payload: a bound variable's binder
    level (a binder at depth d binds level d; LetTensor binds d and d + 1),
    a free variable's name, a register's width, a gate's GateExpr (compared
    by ==, not by name) and a measurement's wire set.  Each class has fixed
    numbers of children and payloads, so equal shapes mean terms equal up to
    bound names and amplitudes.  LetTensor's body goes before its value, so
    its binders are in scope exactly while the body is walked.
    """
    memo = getattr(t, _SHAPE, None)
    if memo is not None:
        return memo
    out: list = []
    registers: list[QubitValue] = []
    levels: dict[str, int | None] = {}  # name -> innermost binder level
    depth = 0
    stack: list = [t]
    while stack:
        term = stack.pop()
        cls = type(term)
        if cls is tuple:  # leaving a binder: (name, outer level or None, depth)
            name, levels[name], depth = term
            continue
        out.append(cls)
        if cls is Var:
            level = levels.get(term.name)
            out.append(term.name if level is None else level)
        elif cls is App:
            stack += term.arg, term.fun
        elif cls is Lam or cls is BangLam:
            stack.append((term.var, levels.get(term.var), depth))
            levels[term.var] = depth
            depth += 1
            stack.append(term.body)
        elif cls is Bang:
            stack.append(term.body)
        elif cls is If:
            stack += term.orelse, term.then, term.cond
        elif cls is LetTensor:
            stack.append(term.value)
            for name in (term.left, term.right):
                stack.append((name, levels.get(name), depth))
                levels[name] = depth
                depth += 1
            stack.append(term.body)
        elif cls is QubitConst:
            out.append(term.value.width)
            registers.append(term.value)
        elif cls is GateConst:
            out.append(term.gate)
        elif cls is MeasConst:
            out.append(term.indices)
        else:
            raise TypeError(f"not a term: {term!r}")
    memo = (tuple(out), tuple(registers))
    object.__setattr__(t, _SHAPE, memo)
    return memo


def alpha_eq(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    Qubit constants compare amplitude-wise with absolute tolerance AMP_TOL
    (they are already canonical: zero summands dropped, indices sorted).
    """
    shape_a, registers_a = _shape(a)
    shape_b, registers_b = _shape(b)
    return shape_a == shape_b and all(
        amps_close(x, y, AMP_TOL) for x, y in zip(registers_a, registers_b))


def shape_key(t: Term) -> tuple | None:
    """A hashable key such that ``alpha_eq(a, b)`` implies
    ``shape_key(a) == shape_key(b)``, or None.

    The key is the term's shape (see _shape) plus, for each register, its
    key support (quantum.key_support, kept on the register): the indices
    whose amplitude modulus exceeds quantum.KEY_AMP_THRESHOLD.  An amplitude
    within twice AMP_TOL of the threshold could sit on either side of it in
    a tolerance-close register, so the key is None then.  The key is kept on
    t, as the shape is, so keying a term again builds nothing.
    """
    key = getattr(t, _KEY, _UNKEYED)
    if key is _UNKEYED:
        shape, registers = _shape(t)
        supports = tuple(map(key_support, registers))
        key = None if None in supports else (shape, supports)
        object.__setattr__(t, _KEY, key)
    return key


# ---------------------------------------------------------------------------
# Pretty-printing


def format_position(pos: Position) -> str:
    """A position as dotted child indices, or 'root' for ()."""
    return ".".join(map(str, pos)) if pos else "root"


def _fmt_float(x: float) -> str:
    if x == 0:
        return "0"
    return f"{x:.12g}"


def format_amplitude(z: complex) -> str:
    """A complex number as the (re,im) pair the parser reads."""
    return f"({_fmt_float(z.real)},{_fmt_float(z.imag)})"


def _is_ket(q: QubitValue) -> bool:
    """Whether q prints as one banged ket, needing no parentheses."""
    return len(q.amps) == 1 and format_amplitude(q.amps[0][1]) == "(1,0)"


def format_qubit(q: QubitValue) -> str:
    """Render a register constant.  A register with no amplitudes prints as
    a zero-scaled ket of its width, which parses back to it.  Each distinct
    amplitude is formatted once: equal amplitudes print alike (+-0.0 parts
    compare equal and both print 0), and a NaN, equal to nothing, is only
    looked up as itself."""
    bits = f"0{q.width}b"
    if not q.amps:
        return f"(0,0)!|{'0' * q.width}>"
    if _is_ket(q):
        return f"!|{format(q.amps[0][0], bits)}>"
    texts: dict[complex, str] = {}
    parts = []
    for u, a in q.amps:
        text = texts.get(a)
        if text is None:
            text = texts[a] = format_amplitude(a)
        parts.append(f"{text}!|{format(u, bits)}>")
    return " + ".join(parts)


def format_gate(g: GateExpr) -> str:
    return "*".join(g.names)


def pretty(t: Term, names: dict[int, str] | None = None) -> str:
    """Canonical concrete syntax; parsing the result gives back an
    alpha-equivalent term.  One walk over an explicit stack of pending
    terms and text, so any depth prints.

    ``names`` maps the id of a subterm to a name it prints as instead (the
    root too): ``qlam fmt`` names the bodies of earlier definitions so."""

    def atomic(term: Term) -> bool:
        """Whether term prints as an operand without parentheses."""
        while type(term) is Bang and not (names and id(term) in names):
            term = term.body
        cls = type(term)
        if cls is Var or cls is MeasConst or names and id(term) in names:
            return True
        if cls is GateConst:
            return len(term.gate.atoms) == 1
        if cls is QubitConst:
            return _is_ket(term.value)
        return False

    out: list[str] = []
    # a str is text to emit, a Term is printed as is, and a 1-tuple holds a
    # term printed as an operand: in parentheses unless it is atomic
    stack: list = [t]
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            out.append(item)
        elif cls is tuple:
            term = item[0]
            if atomic(term):
                stack.append(term)
            else:
                stack += ")", term, "("
        elif names and id(item) in names:
            out.append(names[id(item)])
        elif cls is Var:
            out.append(item.name)
        elif cls is Lam:
            out.append(f"\\{item.var}. ")
            stack.append(item.body)
        elif cls is BangLam:
            out.append(f"\\!{item.var}. ")
            stack.append(item.body)
        elif cls is App:
            fun = item.fun
            stack += (item.arg,), " "
            if type(fun) is App or atomic(fun):
                stack.append(fun)
            else:
                stack += ")", fun, "("
        elif cls is Bang:  # a run of k bangs, up to a named node, at once
            k, body = 1, item.body
            while type(body) is Bang and not (names and id(body) in names):
                k, body = k + 1, body.body
            bare = atomic(body)
            out.append("!" * k if bare else "!(" * k)
            stack += (body,) if bare else (")" * k, body)
        elif cls is GateConst:
            out.append(format_gate(item.gate))
        elif cls is QubitConst:
            out.append(format_qubit(item.value))
        elif cls is MeasConst:
            out.append("M{" + ",".join(str(i) for i in sorted(item.indices)) + "}")
        elif cls is If:
            out.append("if ")
            stack += (item.orelse,), " else ", (item.then,), " then ", (item.cond,)
        elif cls is LetTensor:
            out.append(f"let {item.left} * {item.right} = ")
            stack += item.body, " in ", (item.value,)
        else:
            raise TypeError(f"not a term: {item!r}")
    return "".join(out)
