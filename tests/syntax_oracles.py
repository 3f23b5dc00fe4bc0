"""Reference implementations of free variables and substitution: the
uncached ``free_vars`` and the always-rebuild ``substitute`` that
``qlam.syntax`` replaced with a per-node free-variable memo and a
substitution that shares every subterm it does not touch.  They are kept
only as test oracles.

- ``free_vars_reference`` walks the whole term on every call.
- ``substitute_reference`` rebuilds every node of the body, whether or not
  the variable occurs under it, and renames binders exactly as
  ``qlam.syntax.substitute`` does.
"""

from __future__ import annotations

from qlam.syntax import (
    BangLam,
    GateConst,
    Lam,
    LetTensor,
    MeasConst,
    QubitConst,
    Term,
    Var,
    children,
    fresh_name,
    with_children,
)

_LEAVES = (Var, GateConst, QubitConst, MeasConst)


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
