"""Narrowing before the search: a variable inside a known window, or inside
another variable, takes only subperiods as candidates, and a literal's
variables take only the values of the rows its join leaves.

Each test records the values a search tries for one name, with a test that
rejects them all, so what it sees are exactly that name's candidates."""
import pytest

import reference
from chronos import bot, top
from chronos.core import Compiler, Period, Var, derive_bot_model, subper
from chronos.equiv import GenParams, check_equivalence, gen_case
from chronos.modelfile import parse_model

P = Period


@pytest.fixture(scope="module")
def b0(m0):
    return derive_bot_model(m0.model)


def _tried(plan, tests, name):
    """The distinct values the search gives name, in the order it tries
    them, with every test failing where name is bound."""
    seen = []

    def wrap(test, names):
        def recording(g):
            if name in names:
                if g[name] not in seen:
                    seen.append(g[name])
                return False
            return test(g)
        return recording

    assert plan.search([(wrap(t, names), names) for t, names in tests]) is None
    return seen


def _bot_tried(m, st, text, name):
    compiler = bot._Compiler(m, st)
    tests = [compiler.conjunct(atom) for atom in bot.flatten(bot.parse_bot(text))]
    return _tried(compiler.plan, tests, name)


def _subperiods(m, *windows):
    return [p for p in m.timeline.periods() if any(subper(p, w) for w in windows)]


def test_bot_variable_inside_a_folded_window_takes_its_subperiods(b0):
    for window, value in (("d_jan", P(3, 4)), ("[beg, now)", P(0, 6)),
                          ("intersect(y1995, [succ(beg), end])", P(1, 2))):
        seen = _bot_tried(b0, 7, f"subper(?x, {window})", "x")
        assert seen == _subperiods(b0, value), window


@pytest.mark.parametrize("window", [
    "intersect(d_jan, y1995)",  # EMPTY
    "[succ(end), end]",  # UNDEFINED
    "[now, beg]",  # EMPTY at every speech time but 0
])
def test_bot_window_that_is_no_period_ends_the_search_untested(b0, window):
    compiler = bot._Compiler(b0, 7)
    f = bot.parse_bot(f"period(?y) & subper(?x, {window}) & eq(?x, ?y)")
    tests = [compiler.conjunct(atom) for atom in bot.flatten(f)]
    runs = []
    found = compiler.plan.search(
        [(lambda g, t=t: runs.append(1) or t(g), names) for t, names in tests])
    assert found is None
    assert runs == []


def test_bot_literal_arc_narrows_the_event_time_to_the_periods_subperiods(b0):
    """q(obj, ?p) & subper(?e, ?p), the shape every translated literal ends
    in: e takes the subperiods of p's candidates, the literal's periods."""
    seen = _bot_tried(
        b0, 7, "building(housecorp, bridge2, ?p) & subper(?e, ?p)", "e")
    assert seen == _subperiods(b0, P(1, 2), P(4, 5))
    # bound first, as in a translation, e takes the same candidates
    seen = _bot_tried(
        b0, 7, "subper(?e, ?p) & building(housecorp, bridge2, ?p)", "e")
    assert seen == _subperiods(b0, P(1, 2), P(4, 5))


def test_bot_folded_eq_narrows_before_the_search(b0):
    """eq(?x, e), e folded, on either side: x's static candidates are e's
    one value, or none when e is undefined."""
    for text, value in (("eq(?x, [now, now])", P(7, 7)),
                        ("eq([now, now], ?x)", P(7, 7)),
                        ("eq(?x, succ(end))", None)):
        compiler = bot._Compiler(b0, 7)
        tests = [compiler.conjunct(bot.parse_bot(text))]
        mask = 0 if value is None else b0.domain.index.mask([value])
        assert compiler.plan._static["x"] == mask, text
        found = compiler.plan.search(tests)
        assert found == (None if value is None else {"x": value}), text


@pytest.mark.parametrize("st", [0, 4, 7])
def test_top_event_time_under_past_lies_before_the_speech_time(m0, st):
    m = m0.model
    compiler = top._Compiler(m, st, top._EVENT_TIME, m.timeline.full())
    compiler.formula(top.parse_top("Past[?x, empty(tank5)]"))
    plan = compiler.plan
    plan.restrict(top._EVENT_TIME, plan.index.periods)
    seen = _tried(plan, [(None, (top._EVENT_TIME,))] + compiler.tests,
                  top._EVENT_TIME)
    # within [0, st-1] and within the literal's maximal period [2, 5]
    assert seen == [p for p in _subperiods(m, P(2, 5)) if p.hi < st]


def test_top_event_time_under_past_fills_takes_the_one_past_window():
    """Past[?e, Fills[q(a)]]: Past folds the window to [0, st-1], and Fills
    makes the event time equal it, so that window is the event time's one
    candidate, kept where q(a)'s period [0,5] covers it (none at st 0,
    where the window is empty).  The witness is the one plain enumeration
    under the reference semantics finds first."""
    m = parse_model("timeline 10\nspeech 4\nobject a\npred q/1\n"
                    "maximal q(a) = [0,5]\n").model
    f = top.parse_top("Past[?e, Fills[q(a)]]")
    full = m.timeline.full()
    for st in range(m.timeline.size):
        compiler = top._Compiler(m, st, top._EVENT_TIME, full)
        compiler.formula(f)
        plan = compiler.plan
        window = [P(0, st - 1)] if 0 < st <= 6 else []
        assert plan._static[top._EVENT_TIME] == plan.index.mask(window), st
        want = next(((({"e": e}, et)) for et in m.timeline.periods()
                     for e in m.objects()
                     if reference.eval_top(m, st, et, full, {"e": e}, f)), None)
        assert top.denot_top_witness(m, st, f) == want, st
    assert top.denot_top_witness(m, 4, f) == ({"e": P(0, 3)}, P(0, 3))


def test_repeated_variable_narrows_the_literal_before_the_search():
    """q(?x, ?x) joins on its repeated variable while compiling: only the
    row q(a, a) is left, so TOP's event time tries only the subperiods of
    [5,6], not of [0,3], and BOT's period argument takes only [5,6]."""
    m = parse_model("timeline 10\nspeech 7\nobject a\nobject b\npred q/2\n"
                    "maximal q(a, b) = [0,3]\nmaximal q(a, a) = [5,6]\n").model
    compiler = top._Compiler(m, 7, top._EVENT_TIME, m.timeline.full())
    compiler.formula(top.parse_top("q(?x, ?x)"))
    plan = compiler.plan
    plan.restrict(top._EVENT_TIME, plan.index.periods)
    seen = _tried(plan, [(None, (top._EVENT_TIME,))] + compiler.tests,
                  top._EVENT_TIME)
    assert seen == _subperiods(m, P(5, 6))
    assert _bot_tried(derive_bot_model(m), 7, "q(?x, ?x, ?p)", "p") == [P(5, 6)]


def _naive_semijoin(tuples, args, operands, index):
    """A literal's join by its definition: the tuples equal to each folded
    operand at its position and equal at any two positions of one variable,
    and for each variable the mask of the values it has in them."""
    rows = [t for t in tuples
            if all(t[k] == x for k, (x, names) in enumerate(operands) if not names)
            and all(t[k] == t[j] for k, a in enumerate(args)
                    for j, b in enumerate(args) if type(a) is Var and a == b)]
    masks = {a.name: index.mask(t[k] for t in rows)
             for k, a in enumerate(args) if type(a) is Var}
    return rows, masks


@pytest.fixture
def joins(monkeypatch):
    """Each join compiled while in use, made again on a fresh plan: its
    input (tuples, args, operands) and what it left, (rows, masks)."""
    made = []
    join = Compiler._semijoin

    def recording(self, tuples, args, operands):
        fresh = Compiler(self.m, self.st)
        rows = join(fresh, tuples, args, operands)
        made.append(((tuples, args, operands), (list(rows), fresh.plan._static)))
        return join(self, tuples, args, operands)

    monkeypatch.setattr(Compiler, "_semijoin", recording)
    return made


def _check_joins(made, index):
    for (tuples, args, operands), got in made:
        assert got == _naive_semijoin(tuples, args, operands, index), args


def test_literal_joins_of_the_campaign_match_the_definition(joins):
    """Every literal either compiler joins over 300 cases of case seeds 42
    and 4, the held-out one: TOP's joins take a list of tuples, BOT's a
    frozenset, and some have a folded argument, some a repeated variable."""
    kinds = set()
    for seed in (42, 4):
        for i in range(300):
            m, st, f = gen_case(GenParams(seed=seed), i)
            check_equivalence(m, st, f)
            _check_joins(joins, m.domain.index)
            for (tuples, args, operands), _ in joins:
                kinds.add(type(tuples))
                kinds.update("folded" for _, names in operands if not names)
                kinds.update("repeat" for a in args
                             if type(a) is Var and args.count(a) > 1)
            joins.clear()
    assert kinds == {list, frozenset, "folded", "repeat"}


def test_literal_joins_of_repeats_and_compound_arguments(joins):
    """A repeated variable keeps the rows equal at its positions; a folded
    compound argument keeps the rows holding its value; a compound argument
    that reads a variable keeps every row and restricts that variable in
    no way."""
    m = parse_model("timeline 10\nspeech 7\nobject a\nobject b\npred q/2\n"
                    "maximal q(a, b) = [0,3]\nmaximal q(a, a) = [5,6]\n").model
    b = derive_bot_model(m)
    index = m.domain.index
    top._Compiler(m, 7, top._EVENT_TIME, m.timeline.full()).formula(
        top.parse_top("q(?x, ?x)"))
    ((_, got),) = joins
    assert got == ([("a", "a")], {"x": index.mask(["a"])})
    wants = {
        "q(?x, ?x, ?p)": ([("a", "a", P(5, 6))],
                          {"x": index.mask(["a"]), "p": index.mask([P(5, 6)])}),
        "q(?x, ?y, [beg, succ(succ(succ(beg)))])": (
            [("a", "b", P(0, 3))], {"x": index.mask(["a"]), "y": index.mask(["b"])}),
        "q(?x, ?y, [earliest(?p), latest(?p)])": (
            None, {"x": index.mask(["a"]), "y": index.mask(["a", "b"])}),
    }
    for text, (rows, masks) in wants.items():
        joins.clear()
        bot._Compiler(b, 7).conjunct(bot.parse_bot(text))
        ((_, (got_rows, got_masks)),) = joins
        assert sorted(got_rows) == sorted(rows or b.true_tuples("q", 3)), text
        assert got_masks == masks, text
        _check_joins(joins, index)
