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

The check is one loop over an explicit stack, so any depth checks.  It
counts how often each variable name occurs free in plain dicts, one for
each part open around the node walked: the whole term, a binder's body, a
bang body or a conditional arm.  A variable adds its use to the innermost
part's counts, and leaving a part checks them and adds them into the
enclosing part's; a binder first pops its own name (a linear abstraction
requires exactly one use), so shadowing needs no bookkeeping beyond a scope
mapping each bound name to its linearity, and the whole term's counts are
the free-variable uses.  The scope is one dict, handled as
``syntax._shape`` handles its binder levels: a binder binds on the way down
and leaves a step on the stack that restores the outer binding on the way
up.  A node's position is carried as a link and built only for a violation
there, so the walk is linear in depth.  Violations are reported, never
raised; check is total.
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
    _position,
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


def check(t: Term) -> WfReport:
    """Decide well-formedness; the verdict is true iff no violations.

    Each stack entry is (step, node, link).  Step None visits the node,
    pushing its children under the steps that finish it.  "open" starts an
    arm's counts once the part before the arm is done, "split" binds a
    split's names between its value and its body, and "bound", "bang" and
    "arm" leave a part.  So an arm is checked before the next is walked,
    and violations come in the order of a recursive walk.
    """
    violations: list[Violation] = []
    env: dict[str, str | None] = {}  # each name to its linearity here (None: unbound)
    outer: list[tuple[str, str | None]] = []  # each open binder's names, with their outer values
    uses: list[dict[str, int]] = [{}]  # the counts of the open parts, innermost last
    stack: list = [(None, t, ())]
    while stack:
        step, t, link = stack.pop()
        cls = type(t)
        if step is None:
            if cls is Var:
                counts = uses[-1]
                counts[t.name] = counts.get(t.name, 0) + 1
            elif cls is App:
                if type(t.fun) is BangLam:
                    _check_nonlinear_arg(t.arg, (link, 1), violations)
                stack += (None, t.arg, (link, 1)), (None, t.fun, (link, 0))
            elif cls is Lam or cls is BangLam:
                outer.append((t.var, env.get(t.var)))
                env[t.var] = LINEAR if cls is Lam else NONLINEAR
                uses.append({})
                stack += ("bound", t, link), (None, t.body, (link, 0))
            elif cls is Bang:
                uses.append({})
                stack += ("bang", t, link), (None, t.body, (link, 0))
            elif cls is If:
                stack += (("arm", t, link), (None, t.orelse, (link, 2)), ("open", t, link),
                          ("arm", t, link), (None, t.then, (link, 1)), ("open", t, link),
                          (None, t.cond, (link, 0)))
            elif cls is LetTensor:
                stack += ("split", t, link), (None, t.value, (link, 0))
            elif cls is QubitConst:
                if not t.value.is_unit():
                    violations.append((_position(link), "superposition",
                                       f"register amplitudes have squared mass "
                                       f"{t.value.norm_sq():.6g}, expected 1"))
            elif cls is not GateConst and cls is not MeasConst:
                raise TypeError(f"not a term: {t!r}")
        elif step == "open":
            uses.append({})
        elif step == "split":
            outer += (t.left, env.get(t.left)), (t.right, env.get(t.right))
            env[t.left] = env[t.right] = NONLINEAR
            uses.append({})
            stack += ("bound", t, link), (None, t.body, (link, 1))
        else:  # leaving a part
            inner = uses.pop()
            if step == "bang":
                listed = _linear_names(inner, env)
                if listed:
                    violations.append((_position(link), "bang",
                                       f"nonlinear term captures linear variable(s) {listed}"))
            elif step == "arm":
                listed = _linear_names(inner, env)
                if listed:
                    violations.append((_position(link), "linear",
                                       f"conditional arm consumes linear variable(s) "
                                       f"{listed}; the other arm would discard them"))
            elif cls is LetTensor:
                name, env[name] = outer.pop()
                name, env[name] = outer.pop()
                inner.pop(t.left, None)
                inner.pop(t.right, None)
            else:
                x, env[x] = outer.pop()
                n = inner.pop(x, 0)
                if cls is Lam and n != 1:
                    violations.append((_position(link), "linear",
                                       f"linear variable {x!r} used {n} times "
                                       "(expected exactly once)"))
            counts = uses[-1]
            for name, n in inner.items():
                counts[name] = counts.get(name, 0) + n
    # Free variables are linear: more than one use anywhere is a violation.
    for name, n in sorted(uses[0].items()):
        if n > 1:
            violations.append(((), "linear",
                               f"free variable {name!r} used {n} times"))
    return WfReport(violations)


def _linear_names(uses: dict[str, int], env: dict[str, str | None]) -> str:
    """The used names bound linearly in env, quoted and sorted; '' if none."""
    return ", ".join(repr(x) for x in sorted(uses) if env.get(x) == LINEAR)


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
