"""Single-step probabilistic reduction.

Two rule sets drive everything:

  S = { beta, !beta1, !beta2, U, split }   the functional rules
  T = { M, if-0, if-1 }                    measurement and conditionals

Head rules:

  beta    (\\x. b) a            -> b[a/x]            p = 1
  !beta1  (\\!x. b) !a          -> b[a/x]            p = 1
  !beta2  (\\!x. b) q           -> b[q/x]            p = 1   q a register constant
  U       (c_U q)               -> (U q)             p = 1   arities must match
  M       (M_I q)               -> post-state        one step per outcome, p = p_w
  if-0    if !|0> then a else b -> a                 p = 1
  if-1    if !|1> then a else b -> b                 p = 1
  split   let x * y = q in u    -> u[q1/x, q2/y]     p = 1   q = q1 (x) q2 product

Both sets are closed under all term contexts except under a bang (bang terms
are values), so redexes are found at every position reachable without
crossing a !, including under binders and in all three conditional arms.
The linear beta rule is not value-restricted: it fires on arbitrary
arguments.  The nonlinear rules only fire on duplicable values, which is why
a measurement suspended under a bang is copied as a whole and a bare
measurement application must collapse before it can be passed.

Only (M) branches; every other rule yields a single successor of
probability 1, and the (term, probability) successors that step_at returns
for one (position, rule) pair always carry total probability 1.

Each rule's match and side conditions are written once, in head_rule: the
contraction trusts its match and tests nothing, and stuck_sites reports the
head shapes where head_rule finds no rule.

One walk finds redexes: it visits each App, If and LetTensor node (the only
nodes a head rule matches) not under a bang, first those in evaluation
position in call-by-value postorder (function, argument, application;
condition, if; split value, split), then the subtrees that pass sets aside
(binder bodies, if arms, split bodies) in position order, each in preorder.
strategy_redex fires its first hit (None means a normal form),
enumerate_redexes sorts every hit into preorder and stuck_sites reads every
node.  step_at walks down to its one position once and matches there once.
"""

from __future__ import annotations

from typing import Iterator

from .quantum import (
    EPS_NORM,
    Pick,
    QubitValue,
    _modulus,
    apply_gate,
    factor_split,
    is_product,
    measure,
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
    Position,
    QubitConst,
    Term,
    _path_to,
    _position,
    _rebuild,
    children,
    substitute,
)

RULE_BETA = "beta"
RULE_BANG_BETA1 = "!beta1"
RULE_BANG_BETA2 = "!beta2"
RULE_UNITARY = "U"
RULE_SPLIT = "split"
RULE_MEASURE = "M"
RULE_IF0 = "if-0"
RULE_IF1 = "if-1"


class NoRedexError(ValueError):
    """The requested rule does not match at the given position."""


RuleSet = frozenset[str]

RULESET_S: RuleSet = frozenset({RULE_BETA, RULE_BANG_BETA1, RULE_BANG_BETA2,
                                RULE_UNITARY, RULE_SPLIT})
RULESET_T: RuleSet = frozenset({RULE_MEASURE, RULE_IF0, RULE_IF1})
RULESET_ST: RuleSet = RULESET_S | RULESET_T

RULESETS = {"S": RULESET_S, "T": RULESET_T, "S+T": RULESET_ST}


def _is_base_bit(q: QubitValue, bit: int) -> bool:
    """Exactly the base qubit |bit> (amplitude 1, no phase)."""
    if q.width != 1 or len(q.amps) != 1:
        return False
    u, a = q.amps[0]
    return u == bit and _modulus(a - 1.0) <= EPS_NORM


def head_rule(t: Term) -> str | None:
    """The head rule firing at the root of t, if any.  At most one matches.
    The only place a rule's side conditions are tested."""
    cls = type(t)
    if cls is App:
        fun, arg = t.fun, t.arg
        f, a = type(fun), type(arg)
        if f is Lam:
            return RULE_BETA
        if f is BangLam:
            return RULE_BANG_BETA1 if a is Bang else RULE_BANG_BETA2 if a is QubitConst else None
        if a is QubitConst:
            width = arg.value.width
            if f is GateConst:
                return RULE_UNITARY if fun.gate.arity == width else None
            if f is MeasConst:
                return RULE_MEASURE if max(fun.indices) <= width else None
        return None
    if cls is If:
        if type(t.cond) is QubitConst:
            q = t.cond.value
            if _is_base_bit(q, 0):
                return RULE_IF0
            if _is_base_bit(q, 1):
                return RULE_IF1
        return None
    if cls is LetTensor and type(t.value) is QubitConst:
        q = t.value.value
        return RULE_SPLIT if q.width >= 2 and is_product(q) else None
    return None


def _contract(t: Term, rule: str, pick: Pick | None) -> list[tuple[Term, float]]:
    """Successors of the head redex t, which head_rule matched as ``rule``,
    with probabilities.  No guard is tested again: a split's register is a
    product.  (M) yields the branches ``pick`` names (see quantum.measure)."""
    if rule == RULE_BETA or rule == RULE_BANG_BETA2:
        return [(substitute(t.fun.body, {t.fun.var: t.arg}), 1.0)]
    if rule == RULE_BANG_BETA1:
        return [(substitute(t.fun.body, {t.fun.var: t.arg.body}), 1.0)]
    if rule == RULE_UNITARY:
        return [(QubitConst(apply_gate(t.fun.gate, t.arg.value)), 1.0)]
    if rule == RULE_MEASURE:
        return [(QubitConst(o.post), o.probability)
                for o in measure(t.arg.value, t.fun.indices, pick)]
    if rule == RULE_IF0:
        return [(t.then, 1.0)]
    if rule == RULE_IF1:
        return [(t.orelse, 1.0)]
    left, right = factor_split(t.value.value)
    return [(substitute(t.body, {t.left: QubitConst(left), t.right: QubitConst(right)}), 1.0)]


def step_at(t: Term, position: Position, rule: str,
            pick: Pick | None = None) -> list[tuple[Term, float]]:
    """Fire ``rule`` at ``position``: t's successors as (term, probability)
    pairs, whose probabilities sum to 1 without ``pick``.  The walk down is
    made once and each successor is rebuilt from its path.  Raises
    NoRedexError when t has no such position or head_rule finds another rule
    there (sharper when (M) meets a non-constant operand).

    A measurement hands ``pick`` its branch probabilities (in outcome-word
    order) and builds only the branches at the indices it returns, each
    keeping its Born probability; ``pick`` may also raise, and then no
    post-state is built.  No other rule branches, so none of them asks it."""
    try:
        path, sub = _path_to(t, position)
    except IndexError:
        raise NoRedexError(f"no subterm at {position}") from None
    if head_rule(sub) != rule:
        stuck = rule == RULE_MEASURE and isinstance(sub, App) and \
            isinstance(sub.fun, MeasConst) and not isinstance(sub.arg, QubitConst)
        raise NoRedexError(f"measurement operand at {position} is not a register constant"
                           if stuck else f"rule {rule} does not match at {position}")
    return [(_rebuild(path, target), p) for target, p in _contract(sub, rule, pick)]


def _redex_sites(t: Term) -> Iterator[tuple[tuple, Term]]:
    """The one redex walk of the module docstring: each App, If and LetTensor
    node of t not under a bang, once, with its link, in strategy order."""
    aside: list[tuple[tuple, Term]] = []
    stack: list[tuple[tuple, Term, bool]] = [((), t, False)]
    while stack:
        link, term, done = stack.pop()
        cls = type(term)
        if done:
            yield link, term
            if cls is not App:  # set aside after the evaluated child: keeps position order
                aside += [((link, i), kid) for i, kid in enumerate(children(term)) if i]
        elif cls is App:
            stack += (link, term, True), ((link, 1), term.arg, False), ((link, 0), term.fun, False)
        elif cls is If or cls is LetTensor:
            stack += (link, term, True), ((link, 0), children(term)[0], False)
        elif cls is Lam or cls is BangLam:
            aside.append((link, term))
    aside.reverse()
    while aside:
        link, term = aside.pop()
        cls = type(term)
        if cls is App or cls is If or cls is LetTensor:
            yield link, term
        if cls is not Bang:
            aside += reversed([((link, i), kid) for i, kid in enumerate(children(term))])


def enumerate_redexes(t: Term, rules: RuleSet) -> list[tuple[Position, str]]:
    """Every (position, rule) where step_at succeeds, in preorder position
    order.  Never descends under a bang."""
    return sorted((_position(link), rule) for link, term in _redex_sites(t)
                  if (rule := head_rule(term)) in rules)


def stuck_sites(t: Term) -> list[tuple[Position, str]]:
    """The head shapes where head_rule finds no rule: a conditional on a
    register that is not a base qubit, a split of a register that is not a
    product, a gate or measurement applied to a register it does not fit.
    Useful diagnostics for terms that converge while still containing them.
    In preorder position order."""
    out: list[tuple[tuple, str]] = []
    for link, term in _redex_sites(t):
        if head_rule(term) is not None:
            continue
        match term:
            case If(QubitConst(_), _, _):
                out.append((link, "conditional on a non-base register"))
            case LetTensor(_, _, QubitConst(q), _):
                kind = "a single-wire" if q.width < 2 else "an entangled"
                out.append((link, f"split of {kind} register"))
            case App(GateConst(g), QubitConst(q)):
                out.append((link, f"gate arity {g.arity} vs register width {q.width}"))
            case App(MeasConst(idx), QubitConst(q)):
                out.append((link, f"measured wire {max(idx)} beyond width {q.width}"))
    return sorted((_position(link), why) for link, why in out)


def strategy_redex(t: Term) -> tuple[Position, str] | None:
    """The redex the deterministic strategy fires: the redex walk's first
    hit, so leftmost-outermost only in what call-by-value order does not
    reach, and only when that order finds nothing.  None iff t is normal."""
    for link, term in _redex_sites(t):
        rule = head_rule(term)
        if rule is not None:
            return _position(link), rule
    return None
