"""Mutants of ``qlam.reduction`` for the mutation controls in
``test_confluence``: each breaks one side condition of the reduction rules
and is named after it.  A mutant replaces one attribute of the module,
built from that attribute's original value, so nothing under ``src``
changes.

- (a) ``bang_beta_on_a_value``: !beta2 also fires on an argument that is
  neither a bang nor a register constant.
- (b) ``if_needs_a_base_qubit``: a conditional over ``M{I} q`` takes the arm
  of the measurement's likelier outcome without measuring.
- (c) ``no_reduction_under_a_bang``: the redex walk enters bang bodies, so a
  redex under a bang fires before the bang is copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from qlam import reduction
from qlam.quantum import measure
from qlam.syntax import App, Bang, BangLam, If, Lam, LetTensor, MeasConst, QubitConst, children


@dataclass(frozen=True)
class Mutant:
    """``make`` builds the mutated ``qlam.reduction.<attr>`` from the
    original."""

    name: str
    attr: str
    make: Callable[[Any], Any]

    def apply(self, monkeypatch) -> None:
        monkeypatch.setattr(reduction, self.attr, self.make(getattr(reduction, self.attr)))


def _nonvalue_bang_beta(head_rule):
    def mutant(t):
        if type(t) is App and type(t.fun) is BangLam and type(t.arg) not in (Bang, QubitConst):
            return reduction.RULE_BANG_BETA2
        return head_rule(t)
    return mutant


def _likelier_arm(head_rule):
    def mutant(t):
        match t:
            case If(App(MeasConst(idx), QubitConst(q)), _, _) if max(idx) <= q.width:
                likelier = max(measure(q, idx), key=lambda o: o.probability)
                return reduction.RULE_IF1 if likelier.outcome & 1 else reduction.RULE_IF0
        return head_rule(t)
    return mutant


def _redex_sites_under_bang(t):
    """reduction._redex_sites, but also walking bang bodies, in both of its
    phases."""
    aside = []
    stack = [((), t, False)]
    while stack:
        link, term, done = stack.pop()
        cls = type(term)
        if done:
            yield link, term
            if cls is not App:
                aside += [((link, i), kid) for i, kid in enumerate(children(term)) if i]
        elif cls is App:
            stack += (link, term, True), ((link, 1), term.arg, False), ((link, 0), term.fun, False)
        elif cls is If or cls is LetTensor:
            stack += (link, term, True), ((link, 0), children(term)[0], False)
        elif cls is Bang:  # mutated: the evaluation phase enters a bang
            stack.append(((link, 0), term.body, False))
        elif cls is Lam or cls is BangLam:
            aside.append((link, term))
    aside.reverse()
    while aside:
        link, term = aside.pop()
        cls = type(term)
        if cls is App or cls is If or cls is LetTensor:
            yield link, term
        # mutated: the second phase enters a bang too
        aside += reversed([((link, i), kid) for i, kid in enumerate(children(term))])


bang_beta_on_a_value = Mutant("bang_beta_on_a_value", "head_rule", _nonvalue_bang_beta)
if_needs_a_base_qubit = Mutant("if_needs_a_base_qubit", "head_rule", _likelier_arm)
no_reduction_under_a_bang = Mutant("no_reduction_under_a_bang", "_redex_sites",
                                   lambda _: _redex_sites_under_bang)

# Every mutant above, in the order they are defined.
MUTANTS = tuple(m for m in list(globals().values()) if isinstance(m, Mutant))
