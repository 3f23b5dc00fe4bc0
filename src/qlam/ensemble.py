"""Term ensembles: finite probability distributions over terms.

An ensemble is a finite multiset of (term, probability) entries with total
mass 1.  Probabilistic reduction determinizes over ensembles: in one
ensemble step every entry independently fires one enumerated redex or idles,
and a branching rule fans an entry out into its weighted successors.  Mass
is preserved by every such step.  ``det_step`` is that step, and the only
one: ``evaluate`` iterates it under a redex chooser, canonicalizing after
each step.  ``sample`` follows one entry instead: it fires the redex
``strategy_redex`` finds with ``step_at``.  Both decide how a measurement
fans out through the ``pick`` that ``step_at`` hands to
``quantum.measure``, which sees the branch probabilities before any
post-state is built: ``det_step`` builds every branch unless they would
pass its cap, and ``sample`` draws one branch and builds only that one.
Their ``trace`` gets (step index, entry index, position, rule, target,
probability): the redex fired and each (term, probability) it gave.
``singleton`` builds {<t, 1>} without TermEnsemble's checks, since it is
valid by construction; every other ensemble, each step's included, is
checked.

``min_ensemble`` canonicalizes by merging alpha-equivalent entries
(summing their probabilities); two ensembles are equivalent when their
canonical forms contain the same alpha-classes with matching probabilities.

Both scans bucket entries by ``shape_key``.  Since alpha-equivalent terms
have equal keys, ``alpha_eq`` only runs between entries of one bucket and
against entries whose key is None (a register amplitude too close to the
key threshold), which are compared with everything.  Candidates are still
visited in entry order, so the results are exactly those of comparing every
pair.  Keys and comparisons read one shape per term, walked once and kept
on the term, so keying an entry and comparing it again cost no new walk.
"""

from __future__ import annotations

import functools
import heapq
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Literal

from .syntax import Term, alpha_eq, pretty, shape_key
from .reduction import (
    RULESET_ST,
    RULESETS,
    Position,
    RuleSet,
    enumerate_redexes,
    step_at,
    strategy_redex,
)

# Probabilities accumulate multiplicative float error along reduction paths,
# so ensemble comparison is looser than the amplitude tolerance.
PROB_TOL = 1e-7

# Hard cap on ensemble size; measured wires multiply branches, and blowing
# past this means the program is out of desk scale.
ENSEMBLE_CAP = 1 << 16

MASS_TOL = 1e-6

Chooser = Callable[[Term], "tuple[Position, str] | None"]
Status = Literal["Converged", "StepLimit"]


class EnsembleCapError(RuntimeError):
    """An ensemble step produced more than the configured number of entries."""


class StepLimitError(RuntimeError):
    """A sampling run hit its step budget before reaching a normal form."""


@dataclass(frozen=True)
class TermEnsemble:
    """Entries (term, probability) with each probability in (0, 1] and total
    mass 1 within MASS_TOL."""

    entries: tuple[tuple[Term, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("an ensemble cannot be empty")
        if any(not p > 0 for _, p in self.entries):  # NaN is not positive either
            raise ValueError("entry probabilities must be positive")
        if abs(self.mass() - 1.0) > MASS_TOL:
            raise ValueError(f"ensemble mass {self.mass()} is not 1")

    def mass(self) -> float:
        return sum(p for _, p in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self, status: Status | None = None) -> dict:
        doc = {"entries": [{"term": pretty(t), "p": _round12(p)} for t, p in self.entries]}
        if status is not None:
            doc["status"] = status
        return doc


def _round12(p: float) -> float:
    return float(f"{p:.12g}")


def singleton(t: Term) -> TermEnsemble:
    """The ensemble {<t, 1>}.  It is valid by construction, so it is built
    without TermEnsemble's checks, as quantum._canonical builds a register
    without canonicalizing it again."""
    ens = object.__new__(TermEnsemble)
    object.__setattr__(ens, "entries", ((t, 1.0),))
    return ens


class _Buckets:
    """Entry indices grouped by shape_key, each group in increasing order.
    Indices whose key is None go in a group of their own that every lookup
    also visits."""

    def __init__(self) -> None:
        self.by_key: dict[tuple, list[int]] = {}
        self.unkeyed: list[int] = []

    def add(self, key: tuple | None, index: int) -> None:
        if key is None:
            self.unkeyed.append(index)
        else:
            self.by_key.setdefault(key, []).append(index)

    def candidates(self, key: tuple | None, size: int) -> Iterable[int]:
        """The indices a term with this key may be alpha-equivalent to, in
        increasing order: all of range(size) when the key is None."""
        if key is None:
            return range(size)
        keyed = self.by_key.get(key, ())
        if not self.unkeyed:
            return keyed
        return heapq.merge(keyed, self.unkeyed)


def min_ensemble(e: TermEnsemble) -> TermEnsemble:
    """Merge alpha-equivalent entries, summing probabilities.  Idempotent,
    mass-preserving, and deterministic (first-occurrence order)."""
    if len(e.entries) == 1:
        return e
    groups: list[list] = []
    buckets = _Buckets()
    for term, p in e.entries:
        key = shape_key(term)
        for index in buckets.candidates(key, len(groups)):
            group = groups[index]
            if alpha_eq(group[0], term):
                group[1] += p
                break
        else:
            buckets.add(key, len(groups))
            groups.append([term, p])
    return TermEnsemble(tuple((t, p) for t, p in groups))


def equivalent(a: TermEnsemble, b: TermEnsemble) -> bool:
    """Ensemble equivalence: equal canonical forms, probabilities within
    PROB_TOL."""
    return equivalent_canonical(min_ensemble(a), min_ensemble(b))


def equivalent_canonical(ma: TermEnsemble, mb: TermEnsemble) -> bool:
    """``equivalent`` for two ensembles that are already min_ensemble output:
    match every entry of ma with the first unmatched alpha-equivalent entry of
    mb whose probability is within PROB_TOL."""
    if len(ma) != len(mb):
        return False
    if len(ma) == 1:
        # the common case in diamond checks: alpha_eq reads the two shapes,
        # and keys would add a support pass and a bucket table
        (term, p), (other, q) = ma.entries[0], mb.entries[0]
        return abs(p - q) <= PROB_TOL and alpha_eq(term, other)
    buckets = _Buckets()
    for index, (other, _) in enumerate(mb.entries):
        buckets.add(shape_key(other), index)
    matched = [False] * len(mb)
    for term, p in ma.entries:
        for index in buckets.candidates(shape_key(term), len(mb)):
            other, q = mb.entries[index]
            if not matched[index] and abs(p - q) <= PROB_TOL and alpha_eq(term, other):
                matched[index] = True
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Determinized reduction


def det_step(e: TermEnsemble, chooser: Chooser, cap: int = ENSEMBLE_CAP,
             trace: Callable[[int, Position, str, Term, float], None] | None = None
             ) -> TermEnsemble:
    """One ensemble step: each entry fires the redex its chooser picks, or
    idles on None.  Mass is preserved.  The chooser must pick one of the
    term's enumerate_redexes.  Returns ``e`` itself when every entry idles.
    ``trace`` sees (entry index, position, rule, target, probability) for
    every successor of a fired redex.
    EnsembleCapError is raised as soon as the step would hold more than
    ``cap`` entries, and before a measurement that would pass the cap
    builds any post-state."""
    out: list[tuple[Term, float]] = []

    def within_cap(ps: list[float]) -> range:
        if len(ps) > cap - len(out):
            raise EnsembleCapError(f"ensemble exceeded {cap} entries")
        return range(len(ps))

    fired = False
    for entry_index, (term, p) in enumerate(e.entries):
        choice = chooser(term)
        if choice is None:
            out.append((term, p))
        else:
            fired = True
            for target, prob in step_at(term, *choice, within_cap):
                out.append((target, p * prob))
                if trace is not None:
                    trace(entry_index, *choice, target, prob)
        if len(out) > cap:
            raise EnsembleCapError(f"ensemble exceeded {cap} entries")
    return TermEnsemble(tuple(out)) if fired else e


def strategy_chooser(rules: RuleSet = RULESET_ST) -> Chooser:
    """The deterministic evaluation strategy, which fires every rule: any
    rule set but S+T is a ValueError."""
    if rules != RULESET_ST:
        name = next((n for n, r in RULESETS.items() if r == rules), sorted(rules))
        raise ValueError(f"the strategy chooser fires rule set S+T, not {name}")
    return strategy_redex


def _end_chooser(end: int, rules: RuleSet) -> Chooser:
    """Fires the first (end 0) or the last (end -1) of a term's redexes."""
    def choose(t: Term) -> tuple[Position, str] | None:
        redexes = enumerate_redexes(t, rules)
        return redexes[end] if redexes else None

    return choose


leftmost_chooser = functools.partial(_end_chooser, 0)
rightmost_chooser = functools.partial(_end_chooser, -1)


NAMED_CHOOSERS: dict[str, Callable[[RuleSet], Chooser]] = {
    "strategy": strategy_chooser,
    "leftmost": leftmost_chooser,
    "rightmost": rightmost_chooser,
}

# (step index, entry index, position, rule, target, probability) per successor
TraceFn = Callable[[int, int, Position, str, Term, float], None]


@dataclass(frozen=True)
class EvalResult:
    ensemble: TermEnsemble
    status: Status
    steps: int


def evaluate(t: Term, max_steps: int = 10_000, chooser: Chooser | None = None,
             trace: TraceFn | None = None, cap: int = ENSEMBLE_CAP) -> EvalResult:
    """Iterate ensemble steps under the chooser (the deterministic strategy
    by default) until every entry is a normal form, canonicalizing along the
    way.  Status is StepLimit when the budget runs out first."""
    if chooser is None:
        chooser = strategy_chooser()
    ens = singleton(t)
    for step_index in range(max_steps):
        hook = None if trace is None else functools.partial(trace, step_index)
        stepped = det_step(ens, chooser, cap, hook)
        if stepped is ens:
            return EvalResult(ens, "Converged", step_index)
        ens = min_ensemble(stepped)
    status: Status = "Converged" if all(
        chooser(term) is None for term, _ in ens.entries) else "StepLimit"
    return EvalResult(ens, status, max_steps)


def sample(t: Term, seed: int, max_steps: int = 10_000,
           trace: TraceFn | None = None) -> Term:
    """One seeded run: follow the deterministic strategy, sampling each
    measurement branch with its Born probability.  Reproducible per seed.
    The branch is drawn before any post-state is built, so a measurement
    builds only the branch it keeps.  StepLimitError is raised when the
    term is not normal after ``max_steps`` steps."""
    rng = random.Random(seed)

    def draw_one(ps: list[float]) -> list[int]:
        """One branch index with Born weights; a lone branch costs no draw."""
        return [0] if len(ps) == 1 else rng.choices(range(len(ps)), weights=ps)

    term = t
    for step_index in range(max_steps):
        redex = strategy_redex(term)
        if redex is None:
            return term
        [(term, p)] = step_at(term, *redex, draw_one)
        if trace is not None:
            trace(step_index, 0, *redex, term, p)
    if strategy_redex(term) is None:
        return term
    raise StepLimitError(f"no normal form within {max_steps} steps")
