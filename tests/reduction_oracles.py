"""Reference implementations of the redex walks that ``qlam.reduction``
replaced with one iterative walk over the App, If and LetTensor nodes.
They are kept only as test oracles.

- ``preorder_reference`` visits every (position, subterm) not under a bang,
  in preorder, and ``enumerate_redexes_reference`` and
  ``stuck_sites_reference`` call ``head_rule`` on every node it visits.
- ``strategy_redex_reference`` is the recursive call-by-value walk, one
  Python frame per level, with its second, leftmost-outermost walk over the
  whole term when the first finds nothing.
"""

from __future__ import annotations

from typing import Iterator

from qlam.reduction import RULESET_ST, Position, RuleSet, head_rule
from qlam.syntax import App, Bang, GateConst, If, LetTensor, MeasConst, QubitConst, Term, children


def preorder_reference(t: Term) -> Iterator[tuple[Position, Term]]:
    """Every (position, subterm) of t that is not under a bang, in preorder
    position order.  A bang itself is visited; its body is not."""
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, term = stack.pop()
        yield pos, term
        if type(term) is not Bang:
            kids = children(term)
            for i in reversed(range(len(kids))):
                stack.append((pos + (i,), kids[i]))


def _preorder_redexes(t: Term, rules: RuleSet) -> Iterator[tuple[Position, str]]:
    for pos, term in preorder_reference(t):
        rule = head_rule(term)
        if rule is not None and rule in rules:
            yield pos, rule


def enumerate_redexes_reference(t: Term, rules: RuleSet) -> list[tuple[Position, str]]:
    return list(_preorder_redexes(t, rules))


def stuck_sites_reference(t: Term) -> list[tuple[Position, str]]:
    out: list[tuple[Position, str]] = []
    for pos, term in preorder_reference(t):
        match term:
            case If(cond, _, _) if head_rule(term) is None:
                if isinstance(cond, QubitConst):
                    out.append((pos, "conditional on a non-base register"))
            case LetTensor(_, _, QubitConst(q), _) if head_rule(term) is None:
                if q.width < 2:
                    out.append((pos, "split of a single-wire register"))
                else:
                    out.append((pos, "split of an entangled register"))
            case App(GateConst(g), QubitConst(q)) if g.arity != q.width:
                out.append((pos, f"gate arity {g.arity} vs register width {q.width}"))
            case App(MeasConst(idx), QubitConst(q)) if max(idx) > q.width:
                out.append((pos, f"measured wire {max(idx)} beyond width {q.width}"))
    return out


def strategy_redex_reference(t: Term) -> tuple[Position, str] | None:
    """Call-by-value order (function position to a value, then the argument,
    then the head), with a leftmost-outermost fallback for redexes the value
    walk cannot reach (e.g. under binders)."""

    def walk(term: Term, pos: Position) -> tuple[Position, str] | None:
        match term:
            case App(fun, arg):
                found = walk(fun, pos + (0,))
                if found:
                    return found
                found = walk(arg, pos + (1,))
                if found:
                    return found
            case If(cond, _, _):
                found = walk(cond, pos + (0,))
                if found:
                    return found
            case LetTensor(_, _, value, _):
                found = walk(value, pos + (0,))
                if found:
                    return found
            case _:
                return None
        rule = head_rule(term)
        return (pos, rule) if rule is not None else None

    return walk(t, ()) or next(_preorder_redexes(t, RULESET_ST), None)
