"""Core term syntax: AST, traversal by position, alpha-equivalence,
capture-avoiding substitution, and the canonical pretty-printer.

Terms are immutable values, safe to share across threads.  A position is a
tuple of child indices (child numbering per constructor is fixed below), so
() addresses the whole term.

``free_vars`` memoizes each node's free-variable set on the node itself, as
an instance attribute that equality, hashing and repr do not look at.  The
write is idempotent (every thread computes the same set), so terms stay safe
to share.  ``substitute`` returns every subterm in which the variable is not
free as the same object, so a step costs the paths down to the occurrences
rather than the whole body: with the linear discipline, one path.

Qubit registers appear in terms only as whole constants (QubitConst); there
is no term-level tensor, which is what makes cloning of unknown quantum data
unwritable.  The destructuring binder LetTensor is the one primitive that
takes a register apart, and only product states split.

Alpha-equivalence reads a second memo kept the same way: a term's shape
(nodes in preorder, bound variables as binder levels) and its registers,
from one iterative walk.  ``alpha_eq`` compares shapes, then amplitudes
within a tolerance.  ``shape_key``, the shape plus each register's support
(kept on the register, the same way), is a hash key that alpha-equivalent
terms share, or None when an amplitude is too close to the support
threshold to place (compare with every term).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Union

from .quantum import GateExpr, QubitValue, amps_close

# Default absolute tolerance for amplitude comparison inside alpha_eq.
AMP_TOL = 1e-9

# shape_key records the basis indices whose amplitude modulus exceeds this
# threshold.  It sits far above AMP_TOL, so a tolerance-close perturbation can
# only move an amplitude across it when the amplitude already lies within the
# tolerance band around it, which is the case shape_key refuses to key.
KEY_AMP_THRESHOLD = 1e-6


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


# ---------------------------------------------------------------------------
# Traversal


def bang(t: Term) -> Term:
    """Promote a term.  Register constants are already duplicable, so a bang
    on one collapses: banged base qubits and banged registers are the
    constants themselves."""
    return t if isinstance(t, QubitConst) else Bang(t)


def children(t: Term) -> tuple[Term, ...]:
    match t:
        case Lam(_, body) | BangLam(_, body) | Bang(body):
            return (body,)
        case App(fun, arg):
            return (fun, arg)
        case If(c, a, b):
            return (c, a, b)
        case LetTensor(_, _, value, body):
            return (value, body)
        case _:
            return ()


def with_children(t: Term, new: tuple[Term, ...]) -> Term:
    match t:
        case Lam(v, _):
            return Lam(v, new[0])
        case BangLam(v, _):
            return BangLam(v, new[0])
        case Bang(_):
            return bang(new[0])
        case App(_, _):
            return App(new[0], new[1])
        case If(_, _, _):
            return If(new[0], new[1], new[2])
        case LetTensor(x, y, _, _):
            return LetTensor(x, y, new[0], new[1])
        case _:
            return t


def subterm_at(t: Term, pos: tuple[int, ...]) -> Term:
    for i in pos:
        t = children(t)[i]
    return t


def replace_at(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    """t with the subterm at pos replaced by new: the nodes on the path are
    rebuilt, every other subterm comes back as the same object."""
    path = []
    for i in pos:
        kids = list(children(t))
        path.append((t, kids, i))
        t = kids[i]
    for parent, kids, i in reversed(path):
        kids[i] = new
        new = with_children(parent, tuple(kids))
    return new


def positions(t: Term) -> Iterator[tuple[int, ...]]:
    """All positions in preorder (lexicographic)."""
    stack = [((), t)]
    while stack:
        pos, term = stack.pop()
        yield pos
        for i, c in reversed(list(enumerate(children(term)))):
            stack.append((pos + (i,), c))


def term_size(t: Term) -> int:
    return 1 + sum(term_size(c) for c in children(t))


# ---------------------------------------------------------------------------
# Variables


_EMPTY: frozenset[str] = frozenset()

# Names of the instance attributes that hold a node's free-variable memo, a
# term's shape memo and a register's key-support memo.
_FREE = "_free_vars"
_SHAPE = "_shape"
_SUPPORT = "_key_support_memo"


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
    subterm returns one empty frozenset.
    """
    if type(t) in _CLOSED_LEAVES:
        return _EMPTY
    out = getattr(t, _FREE, None)
    if out is not None:
        return out
    match t:
        case Var(x):
            out = _singleton(x)
        case Lam(x, body) | BangLam(x, body):
            out = free_vars(body)
            if x in out:
                out = out - {x} or _EMPTY
        case LetTensor(x, y, value, body):
            inner = free_vars(body)
            if x in inner or y in inner:
                inner = inner - {x, y} or _EMPTY
            out = _union(free_vars(value), inner)
        case _:
            out = _EMPTY
            for c in children(t):
                out = _union(out, free_vars(c))
    object.__setattr__(t, _FREE, out)
    return out


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(body: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution body[replacement/var].  A subterm in
    which ``var`` is not free is returned as the same object, so only the
    paths down to the occurrences of ``var`` are rebuilt."""
    rep_free = free_vars(replacement)

    def go(t: Term) -> Term:
        if var not in free_vars(t):
            return t
        match t:
            case Var(_):
                return replacement
            case Lam(x, inner) | BangLam(x, inner):
                if x in rep_free:
                    x2 = fresh_name(x, rep_free | free_vars(inner))
                    inner = substitute(inner, x, Var(x2))
                    x = x2
                return type(t)(x, go(inner))
            case LetTensor(x, y, value, inner):
                new_value = go(value)
                if var in (x, y) or var not in free_vars(inner):
                    return LetTensor(x, y, new_value, inner)
                if x in rep_free:
                    x2 = fresh_name(x, rep_free | free_vars(inner) | {y})
                    inner = substitute(inner, x, Var(x2))
                    x = x2
                if y in rep_free:
                    y2 = fresh_name(y, rep_free | free_vars(inner) | {x})
                    inner = substitute(inner, y, Var(y2))
                    y = y2
                return LetTensor(x, y, new_value, go(inner))
            case _:
                return with_children(t, tuple(go(c) for c in children(t)))

    return go(body)


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


def alpha_eq(a: Term, b: Term, tol: float = AMP_TOL) -> bool:
    """Structural equality up to consistent renaming of bound variables.

    Qubit constants compare amplitude-wise with absolute tolerance ``tol``
    (they are already canonical: zero summands dropped, indices sorted).
    """
    shape_a, registers_a = _shape(a)
    shape_b, registers_b = _shape(b)
    return shape_a == shape_b and all(
        amps_close(x, y, tol) for x, y in zip(registers_a, registers_b))


def _key_support(q: QubitValue, band: float) -> tuple[int, ...] | None:
    """The indices of q whose amplitude modulus exceeds KEY_AMP_THRESHOLD,
    or None when one lies within ``band`` of it.  Kept on the register the
    way free_vars keeps its set on a node, so a register shared by the terms
    of successive steps is read once."""
    memo = getattr(q, _SUPPORT, None)
    if memo is None or memo[0] != band:
        memo = (band, _support_above_threshold(q, band))
        object.__setattr__(q, _SUPPORT, memo)
    return memo[1]


def _support_above_threshold(q: QubitValue, band: float) -> tuple[int, ...] | None:
    support = []
    for u, a in q.amps:
        modulus = abs(a)
        if not abs(modulus - KEY_AMP_THRESHOLD) > band:
            return None
        if modulus > KEY_AMP_THRESHOLD:
            support.append(u)
    return tuple(support)


def shape_key(t: Term, tol: float = AMP_TOL) -> tuple | None:
    """A hashable key such that ``alpha_eq(a, b, tol)`` implies
    ``shape_key(a, tol) == shape_key(b, tol)``, or None.

    The key is the term's shape (see _shape) plus, for each register, its
    support: the indices whose amplitude modulus exceeds KEY_AMP_THRESHOLD.
    An amplitude within the tolerance band around the threshold could sit
    on either side of it in a tolerance-close register, so the key is None
    then (the band is twice ``tol`` wide on each side, a margin for float
    rounding in amps_close).
    """
    band = 2 * tol
    if not band < KEY_AMP_THRESHOLD:
        band = math.inf  # an absent index (modulus 0) is inside the band too
    shape, registers = _shape(t)
    supports = tuple(_key_support(q, band) for q in registers)
    return None if None in supports else (shape, supports)


# ---------------------------------------------------------------------------
# Pretty-printing


def format_position(pos: tuple[int, ...]) -> str:
    """A position as dotted child indices, or 'root' for ()."""
    return ".".join(map(str, pos)) if pos else "root"


def _fmt_float(x: float) -> str:
    if x == 0:
        return "0"
    return f"{x:.12g}"


def format_amplitude(z: complex) -> str:
    """A complex number as the (re,im) pair the parser reads."""
    return f"({_fmt_float(z.real)},{_fmt_float(z.imag)})"


def format_qubit(q: QubitValue) -> tuple[str, bool]:
    """Render a register constant; the flag says whether the text is atomic
    (a single banged ket needing no parentheses).  A register with no
    amplitudes prints as a zero-scaled ket of its width, which parses back
    to it."""
    if not q.amps:
        return f"(0,0)!|{'0' * q.width}>", False
    if len(q.amps) == 1:
        u, a = q.amps[0]
        if format_amplitude(a) == "(1,0)":
            return f"!|{format(u, f'0{q.width}b')}>", True
    parts = []
    for u, a in q.amps:
        bits = format(u, f"0{q.width}b")
        parts.append(f"{format_amplitude(a)}!|{bits}>")
    return " + ".join(parts), False


def format_gate(g: GateExpr) -> tuple[str, bool]:
    return "*".join(g.names), len(g.atoms) == 1


def pretty(t: Term) -> str:
    """Canonical concrete syntax; parsing the result gives back an
    alpha-equivalent term."""
    return _pp(t)


def _atomic(t: Term) -> bool:
    match t:
        case Var(_) | MeasConst(_):
            return True
        case GateConst(g):
            return len(g.atoms) == 1
        case QubitConst(q):
            return format_qubit(q)[1]
        case Bang(body):
            return _atomic(body)
        case _:
            return False


def _pp_atom(t: Term) -> str:
    text = _pp(t)
    return text if _atomic(t) else f"({text})"


def _pp(t: Term) -> str:
    match t:
        case Var(x):
            return x
        case Lam(x, body):
            return f"\\{x}. {_pp(body)}"
        case BangLam(x, body):
            return f"\\!{x}. {_pp(body)}"
        case App(fun, arg):
            fun_text = _pp(fun) if isinstance(fun, App) or _atomic(fun) else f"({_pp(fun)})"
            return f"{fun_text} {_pp_atom(arg)}"
        case Bang(body):
            return f"!{_pp_atom(body)}"
        case GateConst(g):
            return format_gate(g)[0]
        case QubitConst(q):
            return format_qubit(q)[0]
        case MeasConst(indices):
            return "M{" + ",".join(str(i) for i in sorted(indices)) + "}"
        case If(c, a, b):
            return f"if {_pp_atom(c)} then {_pp_atom(a)} else {_pp_atom(b)}"
        case LetTensor(x, y, value, body):
            return f"let {x} * {y} = {_pp_atom(value)} in {_pp(body)}"
    raise TypeError(f"not a term: {t!r}")
