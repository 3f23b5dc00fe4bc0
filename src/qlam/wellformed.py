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

The check is one walk.  It returns, for each subterm, how often each
variable name occurs free in it; a binder pops its own name from its body's
counts (a linear abstraction requires exactly one use), so shadowing needs no
bookkeeping beyond a scope mapping each bound name to its linearity, and the
root's counts are the free-variable uses.  Violations are reported, never
raised; check is total.
"""

from __future__ import annotations

from collections import Counter
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
    QubitConst,
    Term,
    Var,
)

LINEAR = "linear"
NONLINEAR = "nonlinear"

Position = tuple[int, ...]
Violation = tuple[Position, str, str]  # (position, rule name, message)


@dataclass
class WfReport:
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:
        return not self.violations

    verdict = property(__bool__)


# Argument shapes that may still reduce to a duplicable value.
_REDUCIBLE_ARGS = (App, If, LetTensor)


def check(t: Term) -> WfReport:
    """Decide well-formedness; the verdict is true iff no violations."""
    violations: list[Violation] = []
    # Free variables are linear: more than one use anywhere is a violation.
    for name, n in sorted(_walk(t, {}, (), violations).items()):
        if n > 1:
            violations.append(((), "linear",
                               f"free variable {name!r} used {n} times"))
    return WfReport(violations)


def _linear_names(uses: Counter, env: dict[str, str]) -> str:
    """The used names bound linearly in env, quoted and sorted; '' if none."""
    return ", ".join(repr(x) for x in sorted(uses) if env.get(x) == LINEAR)


def _walk(t: Term, env: dict[str, str], pos: Position,
          violations: list[Violation]) -> Counter:
    """How often each variable name occurs free in t.  ``env`` maps every
    name bound around t to its linearity."""
    match t:
        case Var(x):
            return Counter((x,))
        case Lam(x, body):
            uses = _walk(body, {**env, x: LINEAR}, pos + (0,), violations)
            n = uses.pop(x, 0)
            if n != 1:
                violations.append((pos, "linear",
                                   f"linear variable {x!r} used {n} times (expected exactly once)"))
            return uses
        case BangLam(x, body):
            uses = _walk(body, {**env, x: NONLINEAR}, pos + (0,), violations)
            uses.pop(x, None)
            return uses
        case App(fun, arg):
            if isinstance(fun, BangLam):
                _check_nonlinear_arg(arg, pos + (1,), violations)
            uses = _walk(fun, env, pos + (0,), violations)
            uses.update(_walk(arg, env, pos + (1,), violations))
            return uses
        case Bang(body):
            uses = _walk(body, env, pos + (0,), violations)
            listed = _linear_names(uses, env)
            if listed:
                violations.append((pos, "bang",
                                   f"nonlinear term captures linear variable(s) {listed}"))
            return uses
        case QubitConst(q):
            if not q.is_unit():
                violations.append((pos, "superposition",
                                   f"register amplitudes have squared mass {q.norm_sq():.6g}, "
                                   "expected 1"))
            return Counter()
        case GateConst(_) | MeasConst(_):
            return Counter()
        case If(c, a, b):
            uses = _walk(c, env, pos + (0,), violations)
            for child_index, arm in ((1, a), (2, b)):
                arm_uses = _walk(arm, env, pos + (child_index,), violations)
                listed = _linear_names(arm_uses, env)
                if listed:
                    violations.append((pos, "linear",
                                       f"conditional arm consumes linear variable(s) "
                                       f"{listed}; the other arm would discard them"))
                uses.update(arm_uses)
            return uses
        case LetTensor(x, y, value, body):
            uses = _walk(value, env, pos + (0,), violations)
            inner = _walk(body, {**env, x: NONLINEAR, y: NONLINEAR}, pos + (1,), violations)
            inner.pop(x, None)
            inner.pop(y, None)
            uses.update(inner)
            return uses
    raise TypeError(f"not a term: {t!r}")


def _check_nonlinear_arg(arg: Term, pos: Position, violations: list[Violation]) -> None:
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
    violations.append((pos, "nonlinear-application",
                       f"nonlinear abstraction applied to {what}; the argument must be "
                       "banged, a register constant, or reducible to one"))
