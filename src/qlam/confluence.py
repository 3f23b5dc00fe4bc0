"""Empirical confluence and commutation checking.

The harness generates random closed well-formed terms and, for each one,
checks the strong one-step diamond: for every pair of ensemble steps
tau ->A mu and tau ->B nu out of the single-term ensemble tau = {<t, 1>},
there must exist one-step successors omega1 of mu under B and omega2 of nu
under A that are equivalent ensembles.  Idling counts as a step on every
side, matching the determinized reduction where each entry may fire or not.

Checking from single-term ensembles suffices: an ensemble step acts on
entries independently, so a diamond over every member closes the diamond
over the whole ensemble (check_diamond_ensemble exists to spot-check that
lifting).  The search is exhaustive over one-step successors with explicit
budgets; terms whose successor space outgrows the budget are skipped and
counted, never silently passed.

A move is one ``det_step``: every entry fires one of its redexes or idles.
One ``enumerate_redexes`` walk per (ensemble, rule set) serves both the
budget check, made before any step is contracted, and the moves; a start
ensemble is walked once under both rule sets of its check.  Each move's
successors are built and canonicalized once, where they are built, and
shared by every pair the move is in.  A start ensemble with no redex under
either rule set has only the all-idle pair, which rejoins trivially: once
the pair budget is checked, its check returns at once, with no move,
successor list or canonical form built.  A move carries the redex each
entry fired, (position, rule) or None for idling, and its label
(``rule@position`` or ``idle`` per entry, joined by `` | ``) is formatted
only for a pair that fails.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import asdict, dataclass, field

from .quantum import BUILTIN_GATES, GateExpr, QubitValue, tensor as qtensor
from .parser import parse_term
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
    bang,
    format_position,
    pretty,
)
from .reduction import RULESETS, Position, RuleSet, enumerate_redexes, step_at
from .ensemble import TermEnsemble, equivalent_canonical, min_ensemble, singleton
from .wellformed import check


class BudgetExceededError(RuntimeError):
    """A diamond check outgrew its configured pair or successor budget."""


@dataclass(frozen=True)
class GenConfig:
    """Generator settings.  Every generated term is closed and well-formed;
    generation is deterministic in (seed, index)."""

    max_size: int = 12
    max_width: int = 3
    seed: int = 0
    count: int = 1000

    def __post_init__(self) -> None:
        if not 1 <= self.max_width <= 12:
            raise ValueError("max_width must lie in [1, 12]")
        if self.max_size < 1 or self.count < 0:
            raise ValueError("max_size must be positive and count non-negative")


# Fixed regression shapes, kept at the front of every generated corpus:
# copying and promotion of a suspended measurement, a substitution redex
# over a measurement, two independent measurements in one application, a
# conditional reading a measurement, a stuck superposed conditional, and a
# nested abstraction.  (The cloning shape, a linear variable used twice, is
# ill-formed by construction and lives in the rejection tests instead.)
_H = "(0.707106781186547524,0)!|0> + (0.707106781186547524,0)!|1>"
_REGRESSION_SOURCES = [
    f"(\\!x. x x) (M{{1}} ({_H}))",
    f"(\\!x. x x) !(M{{1}} ({_H}))",
    f"(\\x. if x then !|0> else !|1>) (M{{1}} ({_H}))",
    f"(M{{1}} ({_H})) (M{{1}} ((0.6,0)!|0> + (0.8,0)!|1>))",
    f"if M{{1}} ({_H}) then !|0> else X !|1>",
    f"if ({_H}) then !|0> else !|1>",
    "\\x. \\y. y x",
    f"let a * b = M{{1,2}} ((0.5,0)!|00> + (0.5,0)!|01> + (0.5,0)!|10> + (0.5,0)!|11>) in if a then b else b",
]


def regression_seeds() -> list[Term]:
    return [parse_term(src) for src in _REGRESSION_SOURCES]


# ---------------------------------------------------------------------------
# Random well-formed term generation


def _random_register(rng: random.Random, width: int) -> QubitValue:
    shape = rng.random()
    dim = 1 << width
    if shape < 0.35:
        return QubitValue(width, ((rng.randrange(dim), 1 + 0j),))
    if shape < 0.6 and width >= 2:
        # product of single-wire states, so splits can fire
        state = _random_register(rng, 1)
        for _ in range(width - 1):
            state = qtensor(state, _random_register(rng, 1))
        return state
    support = rng.sample(range(dim), rng.randint(1, min(4, dim)))
    if rng.random() < 0.5:
        amps = [complex(rng.uniform(-1, 1), 0) for _ in support]
    else:
        amps = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in support]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm < 1e-6:
        return QubitValue(width, ((0, 1 + 0j),))
    return QubitValue(width, tuple((u, a / norm) for u, a in zip(support, amps)))


def _random_gate(rng: random.Random, width: int) -> GateExpr:
    atoms = []
    remaining = width
    singles = [BUILTIN_GATES[n] for n in ("H", "X", "Z", "I")]
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.4:
            atoms.append(BUILTIN_GATES["cnot"])
            remaining -= 2
        else:
            atoms.append(rng.choice(singles))
            remaining -= 1
    return GateExpr(tuple(atoms))


def _random_indices(rng: random.Random, width: int) -> frozenset[int]:
    k = rng.randint(1, width)
    return frozenset(rng.sample(range(1, width + 1), k))


class _Gen:
    def __init__(self, rng: random.Random, max_width: int):
        self.rng = rng
        self.max_width = max_width
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"v{self.counter}"

    def _split_linear(self, linear: tuple[str, ...]) -> tuple[tuple[str, ...], tuple[str, ...]]:
        names = list(linear)
        self.rng.shuffle(names)
        k = self.rng.randint(0, len(names))
        return tuple(names[:k]), tuple(names[k:])

    def register(self) -> Term:
        width = self.rng.randint(1, self.max_width)
        return QubitConst(_random_register(self.rng, width))

    def leaf(self, linear: tuple[str, ...], nonlinear: tuple[str, ...]) -> Term:
        if len(linear) == 1:
            return Var(linear[0])
        assert not linear
        roll = self.rng.random()
        if nonlinear and roll < 0.3:
            return Var(self.rng.choice(nonlinear))
        if roll < 0.55:
            return self.register()
        if roll < 0.7:
            width = self.rng.randint(1, self.max_width)
            return GateConst(_random_gate(self.rng, width))
        if roll < 0.8:
            return MeasConst(_random_indices(self.rng, self.rng.randint(1, self.max_width)))
        if roll < 0.9:
            x = self.fresh()
            inner = self.rng.choice([
                GateConst(_random_gate(self.rng, 1)),
                MeasConst(_random_indices(self.rng, 1)),
                Lam(x, Var(x)),
            ])
            return Bang(inner)
        return self.measurement_app()

    def measurement_app(self) -> Term:
        width = self.rng.randint(1, self.max_width)
        return App(MeasConst(_random_indices(self.rng, width)),
                   QubitConst(_random_register(self.rng, width)))

    def gate_app(self) -> Term:
        width = self.rng.randint(1, self.max_width)
        return App(GateConst(_random_gate(self.rng, width)),
                   QubitConst(_random_register(self.rng, width)))

    def nonlinear_arg(self, budget: int) -> Term:
        roll = self.rng.random()
        if roll < 0.4:
            return bang(self._substitutable(max(1, budget - 1), (), ()))
        if roll < 0.7:
            return self.register()
        return self.measurement_app()

    def _substitutable(self, budget: int, linear: tuple[str, ...],
                       nonlinear: tuple[str, ...]) -> Term:
        """A term whose top is not a bare nonlinear abstraction.

        Used for every position whose contents can replace a term in place
        (abstraction bodies, conditional arms, split bodies) and for every
        value substitution can move around (application arguments, bang
        payloads).  Keeping nonlinear abstractions out of those flows means
        no application's function position ever becomes one by reduction, so
        the shape-based nonlinear-application check stays closed under
        reduction on generated terms."""
        for _ in range(8):
            term = self.gen(budget, linear, nonlinear)
            if not isinstance(term, BangLam):
                return term
        if not linear:
            return self.register()
        return If(self.condition(budget, linear, nonlinear),
                  self.register(), self.register())

    def condition(self, budget: int, linear: tuple[str, ...],
                  nonlinear: tuple[str, ...]) -> Term:
        if linear:
            return self.gen(budget, linear, nonlinear)
        roll = self.rng.random()
        if roll < 0.3:
            return QubitConst(QubitValue(1, ((self.rng.randint(0, 1), 1 + 0j),)))
        if roll < 0.5:
            return QubitConst(_random_register(self.rng, 1))
        if roll < 0.75:
            return App(MeasConst(frozenset({1})),
                       QubitConst(_random_register(self.rng, 1)))
        return self.gen(budget, linear, nonlinear)

    def gen(self, budget: int, linear: tuple[str, ...], nonlinear: tuple[str, ...]) -> Term:
        rng = self.rng
        if budget <= 1 and len(linear) <= 1:
            return self.leaf(linear, nonlinear)
        if len(linear) > 1 or (linear and budget <= 2):
            left, right = self._split_linear(linear)
            if not left and len(right) > 1:
                left, right = (right[0],), right[1:]
            elif not right and len(left) > 1:
                left, right = left[:1], left[1:]
            half = max(1, budget // 2)
            return App(self._substitutable(half, left, nonlinear),
                       self._substitutable(budget - half, right, nonlinear))

        choices = ["app", "lam", "lam", "banglam_redex", "if", "beta"]
        if not linear:
            choices += ["measure", "measure", "unitary", "bang", "banglam", "split", "leaf"]
        match rng.choice(choices):
            case "app":
                left, right = self._split_linear(linear)
                half = max(1, budget // 2)
                fun = self._substitutable(half, left, nonlinear)
                if isinstance(fun, BangLam):
                    return App(fun, self.nonlinear_arg(budget - half))
                return App(fun, self._substitutable(budget - half, right, nonlinear))
            case "lam":
                x = self.fresh()
                return Lam(x, self._substitutable(budget - 1, linear + (x,), nonlinear))
            case "banglam":
                x = self.fresh()
                return BangLam(x, self._substitutable(budget - 1, linear, nonlinear + (x,)))
            case "banglam_redex":
                x = self.fresh()
                body_budget = max(1, budget - 2)
                fun = BangLam(x, self._substitutable(body_budget, linear, nonlinear + (x,)))
                return App(fun, self.nonlinear_arg(budget - body_budget))
            case "beta":
                x = self.fresh()
                left, right = self._split_linear(linear)
                half = max(1, budget // 2)
                fun = Lam(x, self.gen(half, left + (x,), nonlinear))
                return App(fun, self._substitutable(budget - half, right, nonlinear))
            case "if":
                # conditional arms may not consume linear resources, so all
                # linear variables route into the condition
                third = max(1, budget // 3)
                return If(self.condition(third, linear, nonlinear),
                          self._substitutable(third, (), nonlinear),
                          self._substitutable(third, (), nonlinear))
            case "measure":
                return self.measurement_app()
            case "unitary":
                return self.gate_app()
            case "bang":
                return bang(self.gen(budget - 1, (), nonlinear))
            case "split":
                x, y = self.fresh(), self.fresh()
                width = self.rng.randint(2, max(2, self.max_width))
                if rng.random() < 0.5:
                    value: Term = QubitConst(_random_register(rng, width))
                else:
                    value = App(MeasConst(_random_indices(rng, width)),
                                QubitConst(_random_register(rng, width)))
                body = self._substitutable(max(1, budget - 2), linear, nonlinear + (x, y))
                return LetTensor(x, y, value, body)
            case _:
                return self.leaf(linear, nonlinear)


def generate(config: GenConfig) -> list[Term]:
    """``config.count`` closed well-formed terms, deterministically from the
    seed, regression shapes first."""
    out = regression_seeds()[: config.count]
    index = 0
    while len(out) < config.count:
        rng = random.Random(f"{config.seed}:{index}")
        gen = _Gen(rng, config.max_width)
        term = gen.gen(config.max_size, (), ())
        index += 1
        if check(term).verdict:
            out.append(term)
    return out


# ---------------------------------------------------------------------------
# Diamond checks


@dataclass
class DiamondReport:
    pairs_checked: int
    failures: list[tuple[str, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


Redex = tuple[Position, str]
Redexes = list[list[Redex]]


def _count(redexes: Redexes) -> int:
    """How many moves the entries' ``redexes`` give, idling included."""
    return math.prod(len(r) + 1 for r in redexes)


def _moves(ens: TermEnsemble,
           redexes: Redexes) -> list[tuple[tuple[Redex | None, ...], TermEnsemble]]:
    """All one-ensemble-step successors of ens that fire its entries'
    ``redexes``, the idle step last.  Each comes with the redex every entry
    fired, (position, rule), or None where the entry idles.  For a
    single-term ensemble this is one move per redex plus idling."""
    per_entry: list[list[tuple[Redex | None, tuple[tuple[Term, float], ...]]]] = []
    for (term, p), entry_redexes in zip(ens.entries, redexes):
        opts: list[tuple[Redex | None, tuple[tuple[Term, float], ...]]] = []
        for pos, rule in entry_redexes:
            steps = step_at(term, pos, rule)
            opts.append(((pos, rule), tuple((target, p * prob) for target, prob in steps)))
        opts.append((None, ((term, p),)))
        per_entry.append(opts)
    moves = []
    for combo in itertools.product(*per_entry):
        fired = tuple(redex for redex, _ in combo)
        entries = tuple(pair for _, group in combo for pair in group)
        moves.append((fired, TermEnsemble(entries)))
    return moves


def _label(fired: tuple[Redex | None, ...]) -> str:
    """A move's label: ``rule@position`` for each entry that fired and
    ``idle`` for each that idled, joined by `` | ``."""
    return " | ".join("idle" if redex is None else f"{redex[1]}@{format_position(redex[0])}"
                      for redex in fired)


def _successors(ens: TermEnsemble, rules: RuleSet, join_cap: int) -> list[TermEnsemble]:
    """The canonical forms of the one-step successors of ens under rules,
    checked against the join budget before any step is contracted."""
    redexes = [enumerate_redexes(term, rules) for term, _ in ens.entries]
    if _count(redexes) > join_cap:
        raise BudgetExceededError("one-step successor space exceeds the join budget")
    return [min_ensemble(succ) for _, succ in _moves(ens, redexes)]


def _find_join(omegas1: list[TermEnsemble], omegas2: list[TermEnsemble]) -> bool:
    """Whether some omega1 in omegas1 is equivalent to some omega2 in
    omegas2; both lists hold canonical forms."""
    return any(equivalent_canonical(a, b) for a in omegas1 for b in omegas2)


def check_diamond_ensemble(tau: TermEnsemble, rules_a: RuleSet, rules_b: RuleSet,
                           pair_cap: int = 10_000, join_cap: int = 4096) -> DiamondReport:
    """Exhaustive strong-diamond check from an arbitrary start ensemble.
    When both sides use the same rule set, side B is side A: its moves and
    successor lists are built once."""
    same = rules_a == rules_b
    # one walk per entry, its redexes split by rule set in position order
    walks = [enumerate_redexes(term, rules_a | rules_b) for term, _ in tau.entries]
    redexes_a, redexes_b = ([[r for r in walk if r[1] in rules] for walk in walks]
                            for rules in (rules_a, rules_b))
    count_a, count_b = _count(redexes_a), _count(redexes_b)
    if count_a * count_b > pair_cap:
        raise BudgetExceededError("move-pair space exceeds the pair budget")
    if count_a == count_b == 1:  # no redex on either side: only the idle pair
        return DiamondReport(0, [])
    if max(count_a, count_b) > max(join_cap, 1):  # the idle moves' join lists
        raise BudgetExceededError("one-step successor space exceeds the join budget")
    moves_a = _moves(tau, redexes_a)
    moves_b = moves_a if same else _moves(tau, redexes_b)
    # Successors of every A-move under B and of every B-move under A.  The
    # all-idle move (last) leaves tau as it is: its successors are the other
    # side's moves, and it is paired only when that side can fire.
    joins_a = [_successors(mu, rules_b, join_cap) for _, mu in moves_a[:-1]]
    joins_b = joins_a if same else [_successors(nu, rules_a, join_cap) for _, nu in moves_b[:-1]]
    canon_b = [min_ensemble(nu) for _, nu in moves_b]
    canon_a = canon_b if same else [min_ensemble(mu) for _, mu in moves_a]
    joins_a, joins_b = joins_a + [canon_b], joins_b + [canon_a]
    # the last pair has both sides idle; rejoining by idling is trivial
    pairs = list(itertools.product(zip(moves_a, joins_a), zip(moves_b, joins_b)))[:-1]
    failures = [(_label(fired_a), _label(fired_b))
                for ((fired_a, _), omegas1), ((fired_b, _), omegas2) in pairs
                if not _find_join(omegas1, omegas2)]
    return DiamondReport(len(pairs), failures)


def check_diamond(t: Term, rules_a: RuleSet, rules_b: RuleSet,
                  pair_cap: int = 10_000, join_cap: int = 4096) -> DiamondReport:
    """Strong-diamond check from the single-term ensemble {<t, 1>}."""
    return check_diamond_ensemble(singleton(t), rules_a, rules_b, pair_cap, join_cap)


# ---------------------------------------------------------------------------
# Suite


@dataclass
class PairResult:
    rules_a: str
    rules_b: str
    terms_checked: int = 0
    pairs_checked: int = 0
    skipped: int = 0
    elapsed: float = 0.0
    failures: list[tuple[int, str, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SuiteSummary:
    config: GenConfig
    results: list[PairResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {
            "config": dict(sorted(asdict(self.config).items())),
            "results": [
                {
                    "pair": f"{r.rules_a}:{r.rules_b}",
                    "terms": r.terms_checked,
                    "pairs": r.pairs_checked,
                    "skipped": r.skipped,
                    "failures": [
                        {"index": i, "term": text, "left": a, "right": b}
                        for i, text, a, b in r.failures
                    ],
                    "elapsed": round(r.elapsed, 3),
                }
                for r in self.results
            ],
        }


def run_suite(config: GenConfig,
              pairs: tuple[tuple[str, str], ...] = (("T", "T"), ("S", "T"), ("S", "S")),
              ) -> SuiteSummary:
    """Generate a corpus once and run every requested diamond pair over it,
    at check_diamond's budgets.  Failing terms are recorded verbatim."""
    corpus = generate(config)
    results = []
    for name_a, name_b in pairs:
        rules_a, rules_b = RULESETS[name_a], RULESETS[name_b]
        res = PairResult(name_a, name_b)
        start = time.perf_counter()
        for index, term in enumerate(corpus):
            try:
                report = check_diamond(term, rules_a, rules_b)
            except BudgetExceededError:
                res.skipped += 1
                continue
            res.terms_checked += 1
            res.pairs_checked += report.pairs_checked
            for label_a, label_b in report.failures:
                res.failures.append((index, pretty(term), label_a, label_b))
        res.elapsed = time.perf_counter() - start
        results.append(res)
    return SuiteSummary(config, results)
