import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qlam import confluence
from qlam.confluence import (
    BudgetExceededError,
    DiamondReport,
    GenConfig,
    check_diamond,
    check_diamond_ensemble,
    generate,
    regression_seeds,
    run_suite,
    _Gen,
)
from qlam.ensemble import TermEnsemble, equivalent, singleton
from qlam.parser import parse_term
from qlam.reduction import RULESET_S, RULESET_T
from qlam.syntax import (
    App,
    BangLam,
    If,
    Lam,
    LetTensor,
    MeasConst,
    QubitConst,
    Var,
    alpha_eq,
    children,
)
from qlam.wellformed import check

from confluence_oracles import find_join_reference
from conftest import random_terms
from mutants import (
    MUTANTS,
    bang_beta_on_a_value,
    if_needs_a_base_qubit,
    no_reduction_under_a_bang,
)

S2 = f"{1 / math.sqrt(2):.17g}"
HALF = f"(({S2},0)!|0> + ({S2},0)!|1>)"


# ---------------------------------------------------------------------------
# generator


def test_generate_deterministic():
    cfg = GenConfig(count=40, seed=42)
    a, b = generate(cfg), generate(cfg)
    assert all(x == y for x, y in zip(a, b))


def test_generate_seed_changes_output():
    a = generate(GenConfig(count=30, seed=1))
    b = generate(GenConfig(count=30, seed=2))
    assert any(x != y for x, y in zip(a, b))


def test_generate_all_well_formed():
    for t in generate(GenConfig(count=1000, seed=5)):
        assert check(t).verdict


def test_generator_includes_regression_shapes():
    corpus = generate(GenConfig(count=20, seed=0))
    seeds = regression_seeds()
    for seed in seeds:
        assert any(alpha_eq(seed, t) for t in corpus)
    # the copying and promotion shapes, and the two commutation shapes
    assert isinstance(seeds[0].fun, BangLam)
    assert isinstance(seeds[2].fun, Lam) and isinstance(seeds[2].arg.fun, MeasConst)
    assert isinstance(seeds[3].fun, App) and isinstance(seeds[3].fun.fun, MeasConst)


def test_constructor_coverage():
    counts = Counter()
    total = 0
    for t in generate(GenConfig(count=10_000, seed=3)):
        stack = [t]
        while stack:
            node = stack.pop()
            counts[type(node).__name__] += 1
            total += 1
            stack.extend(children(node))
    for name in ("Var", "Lam", "BangLam", "App", "Bang", "GateConst",
                 "QubitConst", "MeasConst", "If", "LetTensor"):
        assert counts[name] / total > 0.01, (name, counts[name], total)


# ---------------------------------------------------------------------------
# diamonds


def test_normal_form_vacuously_confluent():
    report = check_diamond(parse_term(r"\x. x"), RULESET_T, RULESET_T)
    assert report.pairs_checked == 0 and report.ok
    # a report holds its pair count and failures, and reads ok from them
    assert isinstance(report, DiamondReport)
    assert vars(report) == {"pairs_checked": 0, "failures": []}


def test_two_measurements_commute():
    t = parse_term(f"(M{{1}} {HALF}) (M{{1}} ((0.6,0)!|0> + (0.8,0)!|1>))")
    report = check_diamond(t, RULESET_T, RULESET_T)
    assert report.ok and report.pairs_checked > 0


def test_substitution_commutes_with_measurement():
    t = parse_term(r"(\x. H x) (M{1} " + HALF + ")")
    report = check_diamond(t, RULESET_S, RULESET_T)
    assert report.ok


def test_budget_exceeded_raises():
    t = parse_term(f"(M{{1}} {HALF}) (M{{1}} {HALF})")
    with pytest.raises(BudgetExceededError):
        check_diamond(t, RULESET_T, RULESET_T, pair_cap=1)


def test_join_budget_counts_the_idle_move():
    """S idles on this term, and the start term then has to rejoin with its
    three T-moves, so a join budget of 2 is exceeded and one of 3 is not."""
    t = parse_term(f"(M{{1}} {HALF}) (M{{1}} {HALF})")
    with pytest.raises(BudgetExceededError):
        check_diamond(t, RULESET_S, RULESET_T, join_cap=2)
    report = check_diamond(t, RULESET_S, RULESET_T, join_cap=3)
    assert report.ok and report.pairs_checked == 2


def test_idle_join_budget_fails_before_any_successor_list(monkeypatch):
    """The idle move's join list is the other side's moves, so its budget is
    known from the move counts: no successor list is built first."""
    calls = []
    successors = confluence._successors
    monkeypatch.setattr(confluence, "_successors",
                        lambda *args: calls.append(args) or successors(*args))
    t = parse_term(f"(M{{1}} {HALF}) (M{{1}} {HALF})")
    with pytest.raises(BudgetExceededError, match="join budget"):
        check_diamond(t, RULESET_S, RULESET_T, join_cap=2)
    assert calls == []


def test_diamond_detects_genuine_failure():
    """A non-confluent ad-hoc shape must be reported, not smoothed over: a
    linear variable duplicated into both conditional arms (rejected by the
    checker for exactly this reason) breaks the one-step diamond."""
    m = parse_term(f"M{{1}} {HALF}")
    bad = App(Lam("x", If(QubitConst_bit0(),
                          App(Var("f"), Var("x")),
                          App(Var("x"), Var("g")))), m)
    assert not check(bad).verdict
    report = check_diamond(bad, RULESET_S, RULESET_T)
    assert not report.ok


def _duplicating_beta() -> App:
    """The ill-formed term of test_diamond_detects_genuine_failure."""
    return App(Lam("x", If(QubitConst_bit0(),
                           App(Var("f"), Var("x")),
                           App(Var("x"), Var("g")))), parse_term(f"M{{1}} {HALF}"))


def test_failure_labels_name_the_redexes_each_entry_fired():
    """A failing pair is labelled ``rule@position`` per entry, ``idle`` for
    an entry that idles, joined by `` | ``: the text is pinned, from a
    single-term check and from a two-entry start ensemble."""
    bad = _duplicating_beta()
    report = check_diamond(bad, RULESET_S, RULESET_T)
    assert (report.pairs_checked, report.failures) == (5, [("beta@root", "M@1")])
    other = parse_term(r"(\y. y) (M{1} ((0.6,0)!|0> + (0.8,0)!|1>))")
    tau = TermEnsemble(((App(Var("h"), bad), 0.25), (other, 0.75)))
    report = check_diamond_ensemble(tau, RULESET_S, RULESET_T)
    assert report.pairs_checked == 23
    assert report.failures == [
        ("beta@1 | beta@root", "M@1.1 | M@1"),
        ("beta@1 | beta@root", "M@1.1 | idle"),
        ("beta@1 | idle", "M@1.1 | M@1"),
        ("beta@1 | idle", "M@1.1 | idle"),
    ]


@pytest.mark.parametrize("rules", [(RULESET_T, RULESET_T), (RULESET_S, RULESET_T),
                                   (RULESET_S, RULESET_S)])
def test_a_check_with_no_pair_builds_nothing(monkeypatch, rules):
    """A start ensemble with no redex under either rule set has only the
    all-idle pair: the check returns after the pair budget check, with no
    move, successor list or canonical form built."""
    calls = Counter()
    for name in ("_moves", "_successors", "min_ensemble"):
        def counted(*args, _name=name, _real=getattr(confluence, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(confluence, name, counted)
    normal = parse_term(r"\x. \y. y x")
    report = check_diamond(normal, *rules)
    assert vars(report) == {"pairs_checked": 0, "failures": []}
    assert calls == Counter()
    with pytest.raises(BudgetExceededError, match="^move-pair space exceeds the pair budget$"):
        check_diamond(normal, *rules, pair_cap=0)


def _ill_formed_family(count: int) -> list:
    """Generated terms passed to a linear or a nonlinear abstraction that
    uses its argument twice.  Many are ill-formed, so under S:T and S:S
    some of their diamonds fail."""
    out = []
    for i in range(count):
        rng = random.Random(f"f:{i}")
        arg = _Gen(rng, 2).gen(rng.randint(2, 8), (), ())
        dup = App(Var("z"), Var("z"))
        out.append(App(Lam("z", dup) if rng.random() < 0.5 else BangLam("z", dup), arg))
    return out


def test_find_join_agrees_with_reference(monkeypatch):
    """The join search over canonical lists gives the verdict of the
    interleaved search it replaced, on joins that exist and on joins that
    do not."""
    find_join = confluence._find_join
    verdicts = Counter()

    def checked(omegas1, omegas2):
        found = find_join(omegas1, omegas2)
        assert found == find_join_reference(omegas1, omegas2)
        verdicts[found] += 1
        return found

    monkeypatch.setattr(confluence, "_find_join", checked)
    reports = Counter()
    for t in _ill_formed_family(600):
        for rules_a, rules_b in ((RULESET_T, RULESET_T), (RULESET_S, RULESET_T),
                                 (RULESET_S, RULESET_S)):
            try:
                reports[check_diamond(t, rules_a, rules_b).ok] += 1
            except BudgetExceededError:
                continue
    assert verdicts[True] and verdicts[False]
    assert reports[True] and reports[False]


@pytest.mark.parametrize("source, rules, built", [
    (f"(M{{1}} {HALF}) (M{{1}} {HALF})", (RULESET_T, RULESET_T), 11),
    (r"(\x. H x) (M{1} " + HALF + ")", (RULESET_S, RULESET_T), 10),
])
def test_each_move_canonicalized_once(monkeypatch, source, rules, built):
    """A diamond check canonicalizes every ensemble that ``_moves`` builds
    exactly once, and the join search canonicalizes nothing."""
    calls = Counter()
    min_ensemble, moves = confluence.min_ensemble, confluence._moves

    def counted_min_ensemble(e, *args):
        calls["min_ensemble"] += 1
        return min_ensemble(e, *args)

    def counted_moves(ens, redexes):
        out = moves(ens, redexes)
        calls["built"] += len(out)
        return out

    monkeypatch.setattr(confluence, "min_ensemble", counted_min_ensemble)
    monkeypatch.setattr(confluence, "_moves", counted_moves)
    report = check_diamond(parse_term(source), *rules)
    assert report.ok and report.pairs_checked > 0
    assert calls["built"] == built
    assert calls["min_ensemble"] == built


def QubitConst_bit0():
    from qlam.quantum import QubitValue

    return QubitConst(QubitValue(1, {0: 1.0}))


def test_suite_smoke():
    summary = run_suite(GenConfig(count=120, seed=9))
    assert summary.ok
    for result in summary.results:
        assert result.terms_checked == 120
        assert result.failures == []


def test_suite_replay_is_identical():
    cfg = GenConfig(count=60, seed=17)
    a, b = run_suite(cfg), run_suite(cfg)
    for ra, rb in zip(a.results, b.results):
        assert (ra.terms_checked, ra.pairs_checked, ra.failures) == \
            (rb.terms_checked, rb.pairs_checked, rb.failures)


# ---------------------------------------------------------------------------
# lifting to multi-term ensembles


def test_lifting_consistency():
    """Diamonds over two-term ensembles agree with the single-term checks:
    both find no failures on generated corpora."""
    terms = random_terms(23, 24, max_size=8)
    for a, b in zip(terms[::2], terms[1::2]):
        tau = TermEnsemble(((a, 0.5), (b, 0.5)))
        try:
            joint = check_diamond_ensemble(tau, RULESET_S, RULESET_T)
            single_a = check_diamond(a, RULESET_S, RULESET_T)
            single_b = check_diamond(b, RULESET_S, RULESET_T)
        except BudgetExceededError:
            continue
        assert joint.ok == (single_a.ok and single_b.ok)
        assert joint.ok


# ---------------------------------------------------------------------------
# equivalence is a congruence


_CONTEXTS = [
    lambda t: App(Lam("w", Var("w")), t),
    lambda t: App(t, QubitConst_bit0()),
    lambda t: If(t, Var("a"), Var("b")),
    lambda t: Lam("w", App(Var("w"), t)),
    lambda t: LetTensor("p", "q", t, Var("p")),
]


@given(st.integers(0, 2**32 - 1), st.sampled_from(_CONTEXTS))
@settings(max_examples=40)
def test_plugging_preserves_equivalence(seed, context):
    t = random_terms(seed, 1, max_size=6)[0]
    omega1 = singleton(t)
    omega2 = TermEnsemble(((t, 0.5), (t, 0.5)))
    assert equivalent(omega1, omega2)
    tau1 = TermEnsemble(tuple((context(u), p) for u, p in omega1.entries))
    tau2 = TermEnsemble(tuple((context(u), p) for u, p in omega2.entries))
    assert equivalent(tau1, tau2)


# ---------------------------------------------------------------------------
# mutation controls: the mutants of tests/mutants.py fail diamonds


@pytest.mark.parametrize("mutant, caught_by", [
    pytest.param(bang_beta_on_a_value, ("S", "T", 0), id=bang_beta_on_a_value.name),
    pytest.param(if_needs_a_base_qubit, ("T", "T", 4), id=if_needs_a_base_qubit.name)])
def test_a_rule_changed_in_head_rule_alone_fails_a_diamond(monkeypatch, mutant, caught_by):
    """Patched into head_rule and nowhere else, each mutant is a diamond
    failure on the regression shapes, not an exception: step_at contracts
    whatever head_rule matched.  Unmutated, every shape passes."""
    seeds = regression_seeds()
    pairs = {"T": RULESET_T, "S": RULESET_S}

    def failing(a, b):
        return {i for i, t in enumerate(seeds) if not check_diamond(t, pairs[a], pairs[b]).ok}

    assert failing("T", "T") == failing("S", "T") == set()
    assert mutant.attr == "head_rule"
    mutant.apply(monkeypatch)
    a, b, index = caught_by
    assert failing(a, b) == {index}


def test_reduction_under_a_bang_fails_a_diamond(monkeypatch):
    """Mutant (c): with the redex walk entering bangs, a measurement under
    a bang fires before the bang is copied.  Regression shape #1,
    ``(\\!x. x x) !(M{1} ...)``, is the only shape caught, and only under
    S:T; on the seed-0 corpus S:T catches #1 and #441.  A check that finds
    no redex returns before any move is built, so this also shows that
    the early return does not hide a walk that finds more redexes."""
    corpus = generate(GenConfig(seed=0))
    pairs = {"T": RULESET_T, "S": RULESET_S}

    def failing(terms, a, b):
        return {i for i, t in enumerate(terms) if not check_diamond(t, pairs[a], pairs[b]).ok}

    seeds = regression_seeds()
    assert failing(seeds, "S", "T") == set()
    no_reduction_under_a_bang.apply(monkeypatch)
    assert failing(seeds, "T", "T") == failing(seeds, "S", "S") == set()
    assert failing(seeds, "S", "T") == {1}
    assert failing(corpus, "S", "T") == {1, 441}


# Per mutant and diamond pair, how many generated terms of the seed-0 corpus
# fail a diamond, regression shapes not counted; pairs that catch none are
# left out.
_CAUGHT_ON_THE_SEED_0_CORPUS = {
    "bang_beta_on_a_value": {"S:T": 3},
    "if_needs_a_base_qubit": {"T:T": 34},
    "no_reduction_under_a_bang": {"S:T": 1},
}


def test_every_mutant_is_caught(monkeypatch):
    """Each mutant in tests/mutants.py fails a diamond on the seed-0 corpus,
    and as many generated terms catch it as pinned above."""
    corpus = generate(GenConfig(seed=0))
    shapes = len(regression_seeds())
    pairs = {"T": RULESET_T, "S": RULESET_S}
    caught, counts = {}, {}
    for mutant in MUTANTS:
        with monkeypatch.context() as patch:
            mutant.apply(patch)
            failing = {f"{a}:{b}": [i for i, t in enumerate(corpus)
                                    if not check_diamond(t, pairs[a], pairs[b]).ok]
                       for a, b in (("T", "T"), ("S", "T"), ("S", "S"))}
        caught[mutant.name] = any(failing.values())
        counts[mutant.name] = {pair: n for pair, found in failing.items()
                               if (n := sum(i >= shapes for i in found))}
    assert caught == dict.fromkeys(caught, True)
    assert counts == _CAUGHT_ON_THE_SEED_0_CORPUS


@pytest.mark.parametrize("seed, counts", [
    (0, {"T:T": (1000, 3322, 0, 0), "S:T": (1000, 2688, 0, 0), "S:S": (1000, 3900, 0, 0)}),
    (1, {"T:T": (1000, 3527, 0, 0), "S:T": (1000, 2791, 0, 0), "S:S": (1000, 4059, 0, 0)}),
])
def test_whole_corpus_suite_counts(seed, counts):
    """Terms, pairs, skips and failures per diamond pair over the default
    1,000-term corpus of seeds 0 and 1."""
    summary = run_suite(GenConfig(seed=seed))
    assert {f"{r.rules_a}:{r.rules_b}": (r.terms_checked, r.pairs_checked, r.skipped,
                                         len(r.failures))
            for r in summary.results} == counts
