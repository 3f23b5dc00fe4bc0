"""Well-formedness checking: the linearity discipline plus the register rules.

A pre-term is well-formed when:

  * every linearly bound variable is used exactly once in its scope, and a
    free variable (treated as linear) is used at most once.  Occurrences are
    counted additively across all subterms, so substitution for a linear
    variable never duplicates a pending redex, which is what keeps the
    functional and measurement rules strongly commuting;
  * the arms of a conditional consume no linear variables: a conditional is
    a classical branch point, one arm is always discarded, and a discarded
    arm must not take a linear resource with it.  Programs that want a value
    in an arm bind it nonlinearly;
  * a bang term captures no linear variables;
  * a nonlinear abstraction is only applied to arguments that are duplicable
    or may still reduce to one: a banged term, a register constant, or a
    reducible form (application, conditional, destructuring let).  Bare
    variables, abstractions and the other constants can never become
    duplicable, so those applications are rejected outright;
  * every register constant is normalized: the squared amplitude moduli sum
    to 1 within EPS_NORM.  (Zero-amplitude summands are dropped eagerly by
    the register representation, and gate constants are checked unitary at
    construction.)

The check is one walk (run by syntax.descend, so any depth checks).  It
returns, for each subterm, how often each variable name occurs free in it,
as a plain dict that the node's parent adds into its own (``_add``); a
binder pops its own name from its body's counts (a linear abstraction
requires exactly one use), so shadowing needs no bookkeeping beyond a scope
mapping each bound name to its linearity, and the root's counts are the
free-variable uses.  The scope is one dict that a binder updates on the way
down and restores on the way up, and a node's position is carried as a link
and built only for a violation there, so the walk is linear in depth.
Violations are reported, never raised; check is total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    Var,
    Walk,
    _position,
    descend,
)

LINEAR = "linear"
NONLINEAR = "nonlinear"

Violation = tuple[Position, str, str]  # (position, rule name, message)


@dataclass
class WfReport:
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return not self.violations

    verdict = property(__bool__)


# Argument shapes that may still reduce to a duplicable value.
_REDUCIBLE_ARGS = (App, If, LetTensor)
# The classes of the nodes with children.
_INNER = frozenset((Lam, BangLam, App, Bang, If, LetTensor))


def check(t: Term) -> WfReport:
    """Decide well-formedness; the verdict is true iff no violations."""
    violations: list[Violation] = []
    # Free variables are linear: more than one use anywhere is a violation.
    for name, n in sorted(descend(_walk(t, {}, (), violations)).items()):
        if n > 1:
            violations.append(((), "linear",
                               f"free variable {name!r} used {n} times"))
    return WfReport(violations)


def _add(uses: dict[str, int], more: dict[str, int]) -> None:
    """Add the use counts ``more`` into ``uses``."""
    for name, n in more.items():
        uses[name] = uses.get(name, 0) + n


def _linear_names(uses: dict[str, int], env: dict[str, str]) -> str:
    """The used names bound linearly in env, quoted and sorted; '' if none."""
    return ", ".join(repr(x) for x in sorted(uses) if env.get(x) == LINEAR)


def _bind(env: dict[str, str], name: str, linearity: str | None) -> str | None:
    """Bind ``name`` in env to ``linearity`` (None unbinds it); the binding
    it replaces."""
    outer = env.get(name)
    if linearity is None:
        del env[name]
    else:
        env[name] = linearity
    return outer


def _walk(t: Term, env: dict[str, str], link: tuple,
          violations: list[Violation]) -> Walk | dict[str, int]:
    """How often each variable name occurs free in t: a dict for a leaf,
    else a walk that returns one.  ``env`` maps every name bound around t
    to its linearity; ``link`` stands for t's position."""
    cls = type(t)
    if cls is Var:
        return {t.name: 1}
    if cls is QubitConst:
        q = t.value
        if not q.is_unit():
            violations.append((_position(link), "superposition",
                               f"register amplitudes have squared mass {q.norm_sq():.6g}, "
                               "expected 1"))
        return {}
    if cls is GateConst or cls is MeasConst:
        return {}
    if cls in _INNER:
        return _walk_inner(t, env, link, violations)
    raise TypeError(f"not a term: {t!r}")


def _walk_inner(t: Term, env: dict[str, str], link: tuple,
                violations: list[Violation]) -> Walk:
    """_walk's walk, for a node with children."""
    cls = type(t)
    if cls is Lam or cls is BangLam:
        x = t.var
        outer = _bind(env, x, LINEAR if cls is Lam else NONLINEAR)
        uses = yield _walk(t.body, env, (link, 0), violations)
        _bind(env, x, outer)
        n = uses.pop(x, 0)
        if cls is Lam and n != 1:
            violations.append((_position(link), "linear",
                               f"linear variable {x!r} used {n} times (expected exactly once)"))
        return uses
    if cls is App:
        if type(t.fun) is BangLam:
            _check_nonlinear_arg(t.arg, (link, 1), violations)
        uses = yield _walk(t.fun, env, (link, 0), violations)
        _add(uses, (yield _walk(t.arg, env, (link, 1), violations)))
        return uses
    if cls is Bang:
        uses = yield _walk(t.body, env, (link, 0), violations)
        listed = _linear_names(uses, env)
        if listed:
            violations.append((_position(link), "bang",
                               f"nonlinear term captures linear variable(s) {listed}"))
        return uses
    if cls is If:
        uses = yield _walk(t.cond, env, (link, 0), violations)
        for child_index, arm in ((1, t.then), (2, t.orelse)):
            arm_uses = yield _walk(arm, env, (link, child_index), violations)
            listed = _linear_names(arm_uses, env)
            if listed:
                violations.append((_position(link), "linear",
                                   f"conditional arm consumes linear variable(s) "
                                   f"{listed}; the other arm would discard them"))
            _add(uses, arm_uses)
        return uses
    # a LetTensor
    x, y = t.left, t.right
    uses = yield _walk(t.value, env, (link, 0), violations)
    outer_x = _bind(env, x, NONLINEAR)
    outer_y = _bind(env, y, NONLINEAR)
    inner = yield _walk(t.body, env, (link, 1), violations)
    _bind(env, y, outer_y)
    _bind(env, x, outer_x)
    inner.pop(x, None)
    inner.pop(y, None)
    _add(uses, inner)
    return uses


def _check_nonlinear_arg(arg: Term, link: tuple, violations: list[Violation]) -> None:
    if isinstance(arg, (Bang, QubitConst)) or isinstance(arg, _REDUCIBLE_ARGS):
        return
    if isinstance(arg, Var):
        what = f"variable {arg.name!r}"
    elif isinstance(arg, (Lam, BangLam)):
        what = "an abstraction"
    elif isinstance(arg, GateConst):
        what = "a gate constant"
    elif isinstance(arg, MeasConst):
        what = "a measurement constant"
    else:
        what = "this argument"
    violations.append((_position(link), "nonlinear-application",
                       f"nonlinear abstraction applied to {what}; the argument must be "
                       "banged, a register constant, or reducible to one"))
