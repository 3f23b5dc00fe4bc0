"""Reference implementation of the well-formedness check: the two-walk
``check`` that ``qlam.wellformed`` replaced with one walk counting
variable uses by name.  It is kept only as a test oracle.

- ``_walk`` numbers every linear binder with a fresh id and counts uses by
  id, so shadowing is resolved by the id a name maps to in scope.
- ``_count_free`` walks the term a second time to count the uses of every
  free variable.
"""

from __future__ import annotations

from collections import Counter

from qlam.quantum import EPS_NORM
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
    children,
)
from qlam.wellformed import WfReport

LINEAR = "linear"
NONLINEAR = "nonlinear"

_REDUCIBLE_ARGS = (App, If, LetTensor)


def check_reference(t: Term) -> WfReport:
    violations: list = []
    _walk(t, {}, (), violations, _Ids())
    free_uses = Counter()
    _count_free(t, set(), free_uses)
    for name, n in sorted(free_uses.items()):
        if n > 1:
            violations.append(((), "linear",
                               f"free variable {name!r} used {n} times"))
    return WfReport(violations)


class _Ids:
    def __init__(self) -> None:
        self.n = 0

    def fresh(self) -> int:
        self.n += 1
        return self.n


def _count_free(t: Term, bound: set[str], uses: Counter) -> None:
    match t:
        case Var(x):
            if x not in bound:
                uses[x] += 1
        case Lam(x, body) | BangLam(x, body):
            _count_free(body, bound | {x}, uses)
        case LetTensor(x, y, value, body):
            _count_free(value, bound, uses)
            _count_free(body, bound | {x, y}, uses)
        case _:
            for c in children(t):
                _count_free(c, bound, uses)


def _walk(t: Term, env: dict, pos: tuple, violations: list, ids: _Ids) -> Counter:
    """Usage counts of linear binders (by binder id) below t."""
    match t:
        case Var(x):
            entry = env.get(x)
            if entry is not None and entry[0] == LINEAR:
                return Counter({entry[1]: 1})
            return Counter()
        case Lam(x, body):
            bid = ids.fresh()
            uses = _walk(body, {**env, x: (LINEAR, bid)}, pos + (0,), violations, ids)
            n = uses.pop(bid, 0)
            if n != 1:
                violations.append((pos, "linear",
                                   f"linear variable {x!r} used {n} times (expected exactly once)"))
            return uses
        case BangLam(x, body):
            return _walk(body, {**env, x: (NONLINEAR, 0)}, pos + (0,), violations, ids)
        case App(fun, arg):
            if isinstance(fun, BangLam):
                _check_nonlinear_arg(arg, pos + (1,), violations)
            uses = _walk(fun, env, pos + (0,), violations, ids)
            uses.update(_walk(arg, env, pos + (1,), violations, ids))
            return uses
        case Bang(body):
            uses = _walk(body, env, pos + (0,), violations, ids)
            if uses:
                names = sorted({x for x, (lin, bid) in env.items()
                                if lin == LINEAR and uses.get(bid)})
                free_linear = ", ".join(repr(n) for n in names) or "a linear variable"
                violations.append((pos, "bang",
                                   f"nonlinear term captures linear variable(s) {free_linear}"))
            return uses
        case QubitConst(q):
            if abs(sum(abs(a) ** 2 for _, a in q.amps) - 1.0) > EPS_NORM:
                violations.append((pos, "superposition",
                                   f"register amplitudes have squared mass {q.norm_sq():.6g}, "
                                   "expected 1"))
            return Counter()
        case GateConst(_) | MeasConst(_):
            return Counter()
        case If(c, a, b):
            uses = _walk(c, env, pos + (0,), violations, ids)
            for child_index, arm in ((1, a), (2, b)):
                arm_uses = _walk(arm, env, pos + (child_index,), violations, ids)
                if arm_uses:
                    names = sorted({x for x, (lin, bid) in env.items()
                                    if lin == LINEAR and arm_uses.get(bid)})
                    listed = ", ".join(repr(n) for n in names) or "a linear variable"
                    violations.append((pos, "linear",
                                       f"conditional arm consumes linear variable(s) "
                                       f"{listed}; the other arm would discard them"))
                uses.update(arm_uses)
            return uses
        case LetTensor(x, y, value, body):
            uses = _walk(value, env, pos + (0,), violations, ids)
            env2 = {**env, x: (NONLINEAR, 0), y: (NONLINEAR, 0)}
            uses.update(_walk(body, env2, pos + (1,), violations, ids))
            return uses
    raise TypeError(f"not a term: {t!r}")


def _check_nonlinear_arg(arg: Term, pos: tuple, violations: list) -> None:
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
