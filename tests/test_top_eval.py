"""TOP evaluation: the denotation clauses at a fixed index and the
existentially quantified top-level denotation."""
import itertools
import random

import pytest

from chronos import bot, top
from chronos.core import (
    EMPTY,
    Period,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    derive_bot_model,
)
from chronos.equiv import GenParams, gen_case, gen_model
from chronos.modelfile import parse_model
from chronos.top import (
    EvalIndex,
    denot_top,
    denot_top_witness,
    eval_top_at,
    parse_top,
)
from chronos.translate import translate

P = Period


def test_literal_clause(m0):
    m = m0.model
    f = parse_top("empty(tank5)")
    # [3,4] fits both the window [3,4] and the maximal period [2,5]
    assert eval_top_at(m, EvalIndex(7, P(3, 4), P(3, 4)), {}, f) is True
    assert eval_top_at(m, EvalIndex(7, P(3, 4), P(5, 6)), {}, f) is False
    assert eval_top_at(m, EvalIndex(7, P(2, 6), P(0, 9)), {}, f) is False
    assert eval_top_at(m, EvalIndex(7, P(3, 4), EMPTY), {}, f) is False


def test_past_clause(m0):
    m = m0.model
    f = parse_top("Past[?e, empty(tank5)]")
    idx = EvalIndex(7, P(3, 4), P(0, 9))
    assert eval_top_at(m, idx, {"e": P(3, 4)}, f) is True
    # the variable must name the event time itself
    assert eval_top_at(m, idx, {"e": P(3, 3)}, f) is False
    # at st=3 the past window [0,2] cannot contain [3,4]
    assert eval_top_at(m, EvalIndex(3, P(3, 4), P(0, 9)), {"e": P(3, 4)}, f) is False


def test_pres_clause(m0):
    m = m0.model
    assert (
        eval_top_at(m, EvalIndex(7, P(3, 4), P(0, 9)), {}, parse_top("Pres[empty(tank5)]"))
        is False
    )
    assert (
        eval_top_at(m, EvalIndex(4, P(3, 4), P(0, 9)), {}, parse_top("Pres[empty(tank5)]"))
        is True
    )


def test_pres_does_not_restrict_lt(m0):
    """Pres only checks st against et; the window may exclude et entirely."""
    m = m0.model
    f = parse_top("Pres[Part[fivepm, ?f]]")
    idx = EvalIndex(3, P(2, 5), P(0, 0))
    assert eval_top_at(m, idx, {"f": P(3, 3)}, f) is True


def test_culm_clause(m0):
    m = m0.model
    f = parse_top("Culm[building(housecorp, bridge2)]")
    # the hull of {[1,2],[4,5]} is [1,5]
    assert eval_top_at(m, EvalIndex(7, P(1, 5), P(0, 9)), {}, f) is True
    assert eval_top_at(m, EvalIndex(7, P(1, 2), P(0, 9)), {}, f) is False
    # inspecting culminates but empty(tank5) has no culmination flag
    assert (
        eval_top_at(m, EvalIndex(7, P(2, 5), P(0, 9)), {}, parse_top("Culm[empty(tank5)]"))
        is False
    )


def test_fills_clause(m0):
    m = m0.model
    f = parse_top("Fills[empty(tank5)]")
    assert eval_top_at(m, EvalIndex(7, P(3, 4), P(3, 4)), {}, f) is True
    assert eval_top_at(m, EvalIndex(7, P(3, 4), P(2, 4)), {}, f) is False


def test_part_clause(m0):
    m = m0.model
    f = parse_top("Part[fivepm, ?f]")
    idx = EvalIndex(7, P(0, 0), P(0, 9))
    assert eval_top_at(m, idx, {"f": P(3, 3)}, f) is True
    assert eval_top_at(m, idx, {"f": P(4, 4)}, f) is False
    assert eval_top_at(m, idx, {"f": "tank5"}, f) is False


def test_for_clause(m0):
    m = m0.model
    f = parse_top("For[minute, 2, empty(tank5)]")
    assert eval_top_at(m, EvalIndex(7, P(3, 4), P(0, 9)), {}, f) is True
    assert eval_top_at(m, EvalIndex(7, P(3, 5), P(0, 9)), {}, f) is False
    with pytest.raises(UnknownPartitioning):
        eval_top_at(m, EvalIndex(7, P(3, 4), P(0, 9)), {},
                    parse_top("For[fivepm, 1, empty(tank5)]"))


def test_perf_clause(m0):
    m = m0.model
    f = parse_top("Perf[?e2, Culm[inspecting(jadams, ba737)]]")
    idx = EvalIndex(7, P(4, 5), P(0, 9))
    assert eval_top_at(m, idx, {"e2": P(1, 2)}, f) is True
    # the named earlier time must precede the current event time
    assert eval_top_at(m, EvalIndex(7, P(1, 3), P(0, 9)), {"e2": P(1, 2)}, f) is False
    assert eval_top_at(m, idx, {"e2": P(1, 3)}, f) is False
    assert eval_top_at(m, idx, {"e2": "tank5"}, f) is False


def test_ntense_clauses(m0):
    m = m0.model
    f = parse_top("Ntense[?n, empty(tank5)]")
    idx = EvalIndex(7, P(0, 0), P(0, 9))
    assert eval_top_at(m, idx, {"n": P(3, 4)}, f) is True
    assert eval_top_at(m, idx, {"n": "tank5"}, f) is False
    now_f = parse_top("Ntense[now, empty(tank5)]")
    assert eval_top_at(m, EvalIndex(3, P(0, 0), P(0, 9)), {}, now_f) is True
    assert eval_top_at(m, EvalIndex(7, P(0, 0), P(0, 9)), {}, now_f) is False


def test_eval_errors(m0):
    m = m0.model
    with pytest.raises(UnboundVariable):
        eval_top_at(m, EvalIndex(7, P(3, 4), P(0, 9)), {}, parse_top("Past[?e, empty(tank5)]"))
    with pytest.raises(UnknownFunctor):
        eval_top_at(m, EvalIndex(7, P(3, 4), P(0, 9)), {}, parse_top("missing(tank5)"))
    with pytest.raises(UnknownFunctor):
        eval_top_at(m, EvalIndex(7, P(3, 4), P(0, 9)), {}, parse_top("empty(tank5, tank5)"))


def test_denot_examples(m0):
    m = m0.model
    f = parse_top("At[d_jan, Past[?e, empty(tank5)]]")
    assert denot_top(m, 7, f) is True
    # before d_jan no past time can fall within it
    assert denot_top(m, 2, f) is False
    g, et = denot_top_witness(m, 7, f)
    assert eval_top_at(m, EvalIndex(7, et, m.timeline.full()), g, f) is True


def test_denot_fills_needs_cover():
    base = """
timeline 10
speech 7
object tank5
periodconst d_jan = [3,4]
pred empty/1
maximal empty(tank5) = {periods}
cpart minute = blocks 1
gpart fivepm = [7,7]
"""
    wide = parse_model(base.format(periods="[2,5]")).model
    narrow = parse_model(base.format(periods="[4,5]")).model
    f = parse_top("At[d_jan, Past[?e, Fills[empty(tank5)]]]")
    assert denot_top(wide, 7, f) is True
    # the maximal period no longer covers all of d_jan
    assert denot_top(narrow, 7, f) is False
    # without Fills a partial overlap suffices
    assert denot_top(narrow, 7, parse_top("At[d_jan, Past[?e, empty(tank5)]]")) is True


def _ground_literals(m):
    for (functor, arity), ext in m.preds.items():
        for args in ext:
            yield parse_top(f"{functor}({', '.join(args)})")


def test_homogeneity_exhaustive_small():
    """A literal true at et stays true at every subperiod of et."""
    m = gen_model(GenParams(timeline_size=5, seed=11))
    periods = m.timeline.periods()
    st = 2
    for lit in _ground_literals(m):
        for et, lt in itertools.product(periods, periods):
            if eval_top_at(m, EvalIndex(st, et, lt), {}, lit):
                for sub in periods:
                    if sub.lo >= et.lo and sub.hi <= et.hi:
                        assert eval_top_at(m, EvalIndex(st, sub, lt), {}, lit)


def test_lt_monotonicity_for_literals():
    """Shrinking the window never flips a literal from false to true."""
    m = gen_model(GenParams(timeline_size=5, seed=3))
    periods = m.timeline.periods()
    for lit in _ground_literals(m):
        for et, lt in itertools.product(periods, periods):
            for narrower in periods:
                if narrower.lo >= lt.lo and narrower.hi <= lt.hi:
                    narrow_true = eval_top_at(m, EvalIndex(2, et, narrower), {}, lit)
                    if narrow_true:
                        assert eval_top_at(m, EvalIndex(2, et, lt), {}, lit)


def test_past_redundant_under_past_located_at(m0):
    """When the At anchor lies wholly before st, wrapping the body in Past
    changes nothing."""
    m = m0.model
    for const, anchor in (("d_jan", P(3, 4)), ("y1995", P(0, 2))):
        for st in range(anchor.hi + 1, m.timeline.size):
            for body in ("empty(tank5)", "building(housecorp, bridge2)"):
                with_past = parse_top(f"At[{const}, Past[?e, {body}]]")
                without = parse_top(f"At[{const}, {body}]")
                assert denot_top(m, st, with_past) == denot_top(m, st, without)


def test_denot_alpha_invariance(m0):
    m = m0.model
    for st in (2, 7):
        a = parse_top("Ntense[?e, empty(tank5)] & At[d_jan, Past[?e, empty(tank5)]]")
        b = parse_top("Ntense[?w, empty(tank5)] & At[d_jan, Past[?w, empty(tank5)]]")
        assert denot_top(m, st, a) == denot_top(m, st, b)


def test_absent_bindings_do_not_matter(m0):
    m = m0.model
    f = parse_top("Past[?e, empty(tank5)]")
    idx = EvalIndex(7, P(3, 4), P(0, 9))
    g = {"e": P(3, 4)}
    noisy = dict(g, unrelated="tank5", z=P(0, 9))
    assert eval_top_at(m, idx, g, f) == eval_top_at(m, idx, noisy, f)


def _naive_top_witness(m, st, f):
    """Plain nested enumeration: event times by (lo, hi), then the variables
    in first-occurrence order, each over the whole object domain.  The
    formula is compiled once, as the search compiles it, and all its tests
    run, in order, at every event time and assignment."""
    compiler = top._Compiler(m, st, top._EVENT_TIME, m.timeline.full())
    compiler.formula(f)
    tests = [test for test, _ in compiler.tests]
    names = top.free_vars_ordered(f)
    domain = list(m.objects())
    for et in m.timeline.periods():
        for combo in itertools.product(domain, repeat=len(names)):
            g = dict(zip(names, combo))
            g[top._EVENT_TIME] = et
            if all(test(g) for test in tests):
                del g[top._EVENT_TIME]
                return g, et
    return None


M0_FORMULAS = [
    "Past[?e, empty(tank5)]",
    "At[d_jan, Past[?e, empty(tank5)]]",
    "building(?x, bridge2)",
    "Part[minute, ?m] & At[?m, empty(tank5)]",
    "Part[fivepm, ?m] & After[?m, Past[?e, empty(tank5)]]",
    "Culm[inspecting(?w, ba737)]",
    "Ntense[?n, inspecting(jadams, ?a)]",
    "Perf[?f, building(housecorp, ?b)]",
    "Past[?e, inspecting(?e, ba737)]",  # false: ?e is a period and an atom
    "Before[?b, building(?b, bridge2)]",  # false for the same reason
    # each hands the event time on, or filters it, at a nested level
    "Perf[?f, Past[?e, empty(tank5)]]",
    "Ntense[now, Past[?e, empty(tank5)]]",
    "Ntense[?n, Perf[?f, empty(tank5)]]",
    "For[minute, 2, empty(tank5)]",
    "Pres[Culm[building(housecorp, ?b)]]",
    "Past[?e, Pres[empty(tank5)]]",
    "Ntense[now, Past[?e, Ntense[now, empty(tank5)]]]",  # true at st 2
    "Part[fivepm, ?e] & Ntense[?n, Past[?e, empty(tank5)]]",  # ?e first
]


def test_denot_matches_naive_enumeration(m0):
    """The pruned search equals plain enumeration, witness included."""
    m = m0.model
    for text in M0_FORMULAS:
        f = parse_top(text)
        for st in (2, 7):
            assert denot_top_witness(m, st, f) == _naive_top_witness(m, st, f), (
                text, st)


def _naive_bot_witness(m, st, f):
    """Plain nested enumeration, each conjunct compiled once, as eval_bot
    compiles it, and called for every assignment."""
    compiler = bot._Compiler(m, st)
    tests = [compiler.conjunct(atom) for atom in bot.flatten(f)]
    names = bot.free_vars_ordered(f)
    for combo in itertools.product(list(m.objects()), repeat=len(names)):
        g = dict(zip(names, combo))
        if all(test(g) for test, _ in tests):
            return g
    return None


def _check_generated_cases(timeline_size):
    """Both searches find the witness plain enumeration finds first, on the
    generated cases whose enumeration fits an evaluation budget, with and
    without a translator mutation; returns how many cases were checked."""
    budget = 20_000
    params = GenParams(
        timeline_size=timeline_size, atom_count=2, max_free_vars=2, seed=1)
    checked = {"top": 0, "bot": 0}
    for i in range(200):
        m, st, f = gen_case(params, i)
        size = len(list(m.objects()))
        if len(m.timeline.periods()) * size ** len(top.free_vars_ordered(f)) <= budget:
            assert denot_top_witness(m, st, f) == _naive_top_witness(m, st, f), i
            checked["top"] += 1
        derived = derive_bot_model(m)
        for mutation in (None, "drop-past-narrowing"):
            translated = translate(f, mutation=mutation)
            if size ** len(bot.free_vars_ordered(translated)) <= budget:
                assert bot.denot_bot_witness(
                    derived, st, translated
                ) == _naive_bot_witness(derived, st, translated), (i, mutation)
                checked["bot"] += 1
    return checked


def test_searches_match_naive_enumeration_on_generated_cases():
    checked = _check_generated_cases(timeline_size=4)
    assert checked["top"] >= 150 and checked["bot"] >= 300, checked


def test_searches_match_naive_enumeration_on_longer_timelines():
    """The same at 6 points, where the event-time filters leave more out."""
    checked = _check_generated_cases(timeline_size=6)
    assert checked["top"] >= 150 and checked["bot"] >= 300, checked


def _outcome(run):
    """What a call returns, or the type of what it raises."""
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)


def _check_scopes(tests, g):
    """Each test reads only its scope: cut down to the scope, g gives what
    the whole of g gives, and no name is missing.  Returns the count."""
    for test, scope in tests:
        cut = {name: g[name] for name in scope}
        got = _outcome(lambda: test(cut))
        assert got is not KeyError and got == _outcome(lambda: test(g)), scope
    return len(tests)


def test_every_test_reads_only_its_scope(m0):
    """Both compilers' (test, scope) pairs, on generated cases and on the
    m0 formulas above, under drawn assignments: of any objects, and of
    periods only, as located, Perf and Ntense variables are in a search.
    TOP compiles for a search and for a fixed index."""
    cases = [gen_case(GenParams(seed=42), i) for i in range(300)]
    cases += [(m0.model, st, parse_top(text))
              for text in M0_FORMULAS for st in (2, 7)]
    counted = {"top": 0, "bot": 0}
    for i, (m, st, f) in enumerate(cases):
        rng = random.Random(f"scopes/{i}")
        periods = m.timeline.periods()
        index = (rng.choice(periods), rng.choice(periods + [EMPTY]))
        for et, lt in ((top._EVENT_TIME, m.timeline.full()), index):
            compiler = top._Compiler(m, st, et, lt)
            compiler.formula(f)
            for values in (list(m.objects()), periods):
                g = {n: rng.choice(values) for n in top.free_vars_ordered(f)}
                g[top._EVENT_TIME] = rng.choice(periods)
                counted["top"] += _check_scopes(compiler.tests, g)
        translated = translate(f)
        derived = derive_bot_model(m)
        compiler = bot._Compiler(derived, st)
        tests = [compiler.conjunct(atom) for atom in bot.flatten(translated)]
        for values in (list(derived.objects()), periods):
            g = {n: rng.choice(values) for n in bot.free_vars_ordered(translated)}
            counted["bot"] += _check_scopes(tests, g)
    assert counted["top"] >= 3500 and counted["bot"] >= 2500, counted


def test_tests_with_an_empty_scope_are_false(m0):
    """A TOP test that reads no name was folded while compiling; one folded
    to true is left out, so every test left with an empty scope is false.
    Compiled for a search and at a fixed index, as above."""
    cases = [gen_case(GenParams(seed=42), i) for i in range(300)]
    cases += [(m0.model, st, parse_top(text))
              for text in M0_FORMULAS for st in (2, 7)]
    empty = 0
    for i, (m, st, f) in enumerate(cases):
        rng = random.Random(f"empty-scopes/{i}")
        periods = m.timeline.periods()
        index = (rng.choice(periods), rng.choice(periods + [EMPTY]))
        for et, lt in ((top._EVENT_TIME, m.timeline.full()), index):
            compiler = top._Compiler(m, st, et, lt)
            compiler.formula(f)
            for test, scope in compiler.tests:
                if not scope:
                    assert test({}) is False, (top.print_top(f), st, et, lt)
                    empty += 1
    assert empty >= 300, empty


def test_unknown_names_raise_when_compiled(m0):
    """As in BOT: a formula naming something the model lacks raises before
    the search or evaluation starts, although here no value satisfies the
    inspecting literal as a period.  The error names the first unknown name
    in reading order: a functor before its arguments, and the term of At,
    Before and After and the partitioning of For before the body."""
    raising = {
        "Ntense[?n, nosuch(tank5)] & inspecting(?n, ba737)":
            (UnknownFunctor, "unknown functor nosuch/1"),
        "Ntense[?n, empty(nosuch)] & inspecting(?n, ba737)":
            (UnknownConstant, "unknown constant nosuch"),
        "Ntense[?n, Part[nosuch, ?n]] & inspecting(?n, ba737)":
            (UnknownPartitioning, "unknown partitioning nosuch"),
        "nosuch(nope)": (UnknownFunctor, "unknown functor nosuch/1"),
        "Culm[empty(nope)] & nosuch(tank5)": (UnknownConstant, "unknown constant nope"),
        "At[nope, nosuch(tank5)]": (UnknownConstant, "unknown constant nope"),
        "Before[?x, empty(nope)] & After[nosuch, empty(tank5)]":
            (UnknownConstant, "unknown constant nope"),
        "For[fivepm, 1, empty(nope)]":
            (UnknownPartitioning, "unknown complete partitioning fivepm"),
    }
    index = EvalIndex(7, P(3, 4), P(0, 9))
    for text, (error, message) in raising.items():
        f = parse_top(text)
        for run in (lambda: denot_top_witness(m0.model, 7, f),
                    lambda: eval_top_at(m0.model, index, {}, f)):
            with pytest.raises(error) as raised:
                run()
            assert str(raised.value) == message, text
