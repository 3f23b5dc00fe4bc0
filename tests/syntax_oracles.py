"""Reference implementations of free variables, substitution and
alpha-equivalence: the uncached ``free_vars``, the always-rebuild
``substitute``, the recursive ``alpha_eq`` and the separate ``shape_key``
walk that ``qlam.syntax`` replaced with a per-node free-variable memo, a
substitution that shares every subterm it does not touch, and one memoized
shape walk behind both alpha-equivalence functions.  They are kept only as
test oracles.

- ``free_vars_reference`` walks the whole term on every call.
- ``substitute_reference`` rebuilds every node of the body, whether or not
  the variable occurs under it, and renames binders exactly as
  ``qlam.syntax.substitute`` does.
- ``alpha_eq_reference`` recurses over both terms at once, one Python frame
  per level, copying the binder environment at every binder.
- ``shape_key_reference`` walks the term on every call and keys gates by
  their names.
- ``positions`` lists every position of a term, for tests that pick one;
  ``subterm_at`` and ``replace_at`` read and replace the subterm at one.
  ``qlam.reduction.step_at`` goes down its path once (``_path_to``) and
  rebuilds each branch from it (``_rebuild``), so only tests use them.
- ``pretty_reference`` is the recursive printer that ``qlam.syntax.pretty``
  replaced with one explicit-stack walk: one Python frame or two per
  level, and a register's text formatted once to decide whether it is
  atomic and again to print it.
"""

from __future__ import annotations

from typing import Iterator

from qlam.quantum import AMP_TOL, KEY_AMP_THRESHOLD, amps_close
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
    Term,
    Var,
    _path_to,
    _rebuild,
    children,
    format_gate,
    format_qubit,
    fresh_name,
    with_children,
)

_LEAVES = (Var, GateConst, QubitConst, MeasConst)


def positions(t: Term) -> Iterator[tuple[int, ...]]:
    """All positions of t in preorder (lexicographic)."""
    stack = [((), t)]
    while stack:
        pos, term = stack.pop()
        yield pos
        for i, c in reversed(list(enumerate(children(term)))):
            stack.append((pos + (i,), c))


def subterm_at(t: Term, pos: tuple[int, ...]) -> Term:
    """The subterm of t at pos; IndexError for a missing child, a negative
    index included."""
    return _path_to(t, pos)[1]


def replace_at(t: Term, pos: tuple[int, ...], new: Term) -> Term:
    """t with the subterm at pos replaced by new: the nodes on the path are
    rebuilt, every other subterm comes back as the same object."""
    return _rebuild(_path_to(t, pos)[0], new)


def free_vars_reference(t: Term) -> frozenset[str]:
    match t:
        case Var(x):
            return frozenset((x,))
        case Lam(x, body) | BangLam(x, body):
            return free_vars_reference(body) - {x}
        case LetTensor(x, y, value, body):
            return free_vars_reference(value) | (free_vars_reference(body) - {x, y})
        case _:
            out: frozenset[str] = frozenset()
            for c in children(t):
                out |= free_vars_reference(c)
            return out


def substitute_reference(body: Term, var: str, replacement: Term) -> Term:
    """Capture-avoiding substitution body[replacement/var]."""
    rep_free = free_vars_reference(replacement)

    def go(t: Term) -> Term:
        match t:
            case Var(x):
                return replacement if x == var else t
            case Lam(x, inner) | BangLam(x, inner):
                cls = type(t)
                if x == var:
                    return t
                if x in rep_free and var in free_vars_reference(inner):
                    x2 = fresh_name(x, rep_free | free_vars_reference(inner))
                    inner = substitute_reference(inner, x, Var(x2))
                    return cls(x2, go(inner))
                return cls(x, go(inner))
            case LetTensor(x, y, value, inner):
                new_value = go(value)
                if var in (x, y):
                    return LetTensor(x, y, new_value, inner)
                if var in free_vars_reference(inner):
                    inner_free = free_vars_reference(inner)
                    if x in rep_free:
                        x2 = fresh_name(x, rep_free | inner_free | {y})
                        if x != y:  # else the body's x is the right binder's
                            inner = substitute_reference(inner, x, Var(x2))
                        x = x2
                    if y in rep_free:
                        y2 = fresh_name(y, rep_free | free_vars_reference(inner) | {x})
                        inner = substitute_reference(inner, y, Var(y2))
                        y = y2
                    return LetTensor(x, y, new_value, go(inner))
                return LetTensor(x, y, new_value, inner)
            case _ if isinstance(t, _LEAVES):
                return t
            case _:
                return with_children(t, tuple(go(c) for c in children(t)))

    return go(body)


def alpha_eq_reference(a: Term, b: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables."""

    def go(a: Term, b: Term, env_a: dict[str, int], env_b: dict[str, int], depth: int) -> bool:
        if type(a) is not type(b):
            return False
        match a, b:
            case Var(x), Var(y):
                la, lb = env_a.get(x), env_b.get(y)
                if la is None and lb is None:
                    return x == y
                return la == lb
            case (Lam(x, ba), Lam(y, bb)) | (BangLam(x, ba), BangLam(y, bb)):
                return go(ba, bb, {**env_a, x: depth}, {**env_b, y: depth}, depth + 1)
            case App(f1, a1), App(f2, a2):
                return go(f1, f2, env_a, env_b, depth) and go(a1, a2, env_a, env_b, depth)
            case Bang(ba), Bang(bb):
                return go(ba, bb, env_a, env_b, depth)
            case GateConst(g1), GateConst(g2):
                return g1 == g2
            case QubitConst(q1), QubitConst(q2):
                return amps_close(q1, q2, AMP_TOL)
            case MeasConst(i1), MeasConst(i2):
                return i1 == i2
            case If(c1, t1, e1), If(c2, t2, e2):
                return (go(c1, c2, env_a, env_b, depth)
                        and go(t1, t2, env_a, env_b, depth)
                        and go(e1, e2, env_a, env_b, depth))
            case LetTensor(x1, y1, v1, b1), LetTensor(x2, y2, v2, b2):
                if not go(v1, v2, env_a, env_b, depth):
                    return False
                ea = {**env_a, x1: depth, y1: depth + 1}
                eb = {**env_b, x2: depth, y2: depth + 1}
                return go(b1, b2, ea, eb, depth + 2)
            case _:
                return False

    return go(a, b, {}, {}, 0)


def shape_key_reference(t: Term) -> tuple | None:
    """The preorder sequence of node types with their payloads: bound
    variables as binder levels, free variables by name, gate names, measured
    wire sets, and each register's width and the indices whose amplitude
    modulus exceeds KEY_AMP_THRESHOLD; None when an amplitude lies within
    twice AMP_TOL of that threshold."""
    band = 2 * AMP_TOL
    out: list = []
    stack: list[tuple[Term, dict[str, int], int]] = [(t, {}, 0)]
    while stack:
        term, env, depth = stack.pop()
        cls = type(term)
        out.append(cls)
        if cls is Var:
            level = env.get(term.name)
            out.append(term.name if level is None else level)
        elif cls is Lam or cls is BangLam:
            stack.append((term.body, {**env, term.var: depth}, depth + 1))
        elif cls is App:
            stack.append((term.arg, env, depth))
            stack.append((term.fun, env, depth))
        elif cls is Bang:
            stack.append((term.body, env, depth))
        elif cls is If:
            stack.append((term.orelse, env, depth))
            stack.append((term.then, env, depth))
            stack.append((term.cond, env, depth))
        elif cls is LetTensor:
            inner = {**env, term.left: depth, term.right: depth + 1}
            stack.append((term.body, inner, depth + 2))
            stack.append((term.value, env, depth))
        elif cls is QubitConst:
            q = term.value
            support = []
            for u, a in q.amps:
                modulus = abs(a)
                if not abs(modulus - KEY_AMP_THRESHOLD) > band:
                    return None
                if modulus > KEY_AMP_THRESHOLD:
                    support.append(u)
            out.append(q.width)
            out.append(tuple(support))
        elif cls is GateConst:
            out.append(term.gate.names)
        elif cls is MeasConst:
            out.append(term.indices)
        else:
            raise TypeError(f"not a term: {term!r}")
    return tuple(out)


def pretty_reference(t: Term) -> str:
    return _pp(t)


def _atomic(t: Term) -> bool:
    match t:
        case Var(_) | MeasConst(_):
            return True
        case GateConst(g):
            return len(g.atoms) == 1
        case QubitConst(q):
            return format_qubit(q).startswith("!")
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
            return format_gate(g)
        case QubitConst(q):
            return format_qubit(q)
        case MeasConst(indices):
            return "M{" + ",".join(str(i) for i in sorted(indices)) + "}"
        case If(c, a, b):
            return f"if {_pp_atom(c)} then {_pp_atom(a)} else {_pp_atom(b)}"
        case LetTensor(x, y, value, body):
            return f"let {x} * {y} = {_pp_atom(value)} in {_pp(body)}"
    raise TypeError(f"not a term: {t!r}")
