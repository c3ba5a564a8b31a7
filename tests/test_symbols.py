"""The one symbol walk, `core.symbols`, and the binding order both witness
searches take from their compiled tests.

`CandidatePlan.search` binds names in the order of their first occurrence
across the `(test, scope)` pairs it is given.  Each TOP clause emits its
own variable's test before its body's, and each BOT conjunct lists its
variables in reading order, so that order is the event time, then the
formula's variables in first-occurrence order, as `free_vars_ordered`
walks them.

The BOT compiler recurses once per nesting level, so that the deepest
nests the parser admits compile and evaluate within the recursion limit.
"""
import sys

from chronos import bot, top
from chronos.core import Literal, Record, Var, conjoin, derive_bot_model, symbols
from chronos.equiv import GenParams, gen_case
from chronos.translate import translate
from bot_formulas import DEEPEST_NESTS

#: hand-written nestings over m0: located, Perf, Past and Ntense variables
#: ahead of the literals that read them, and a leading Part
M0_FORMULAS = (
    "At[?y, Perf[?x, Past[?z, building(?z, ?y)]]]",
    "Before[?b, After[?a, Perf[?p, empty(?a) & empty(?b)]]]",
    "Ntense[?v, Past[?w, inspecting(?w, ?v)]]",
    "Ntense[now, Past[?e, empty(tank5)]]",
    "Part[fivepm, ?p] & At[?p, empty(?q)] & Perf[?q, Fills[empty(?p)]]",
    "Part[fivepm, ?p] & Ntense[?n, Perf[?m, empty(?n) & Part[fivepm, ?m]]]",
    "Pres[Perf[?e, Culm[building(?x, ?y)]]] & For[minute, 2, empty(?y)]",
    "empty(?a) & (Past[?b, empty(?c)] & At[?c, Culm[building(?d, ?a)]])",
    "At[d_jan, Past[?e, empty(tank5)]]",
)


def _first_occurrences(scopes, leading=()):
    return list(dict.fromkeys([*leading, *(n for s in scopes for n in s)]))


def _check_orders(m, st, f):
    compiler = top._Compiler(m, st, top._EVENT_TIME, m.timeline.full())
    compiler.formula(f)
    scopes = [scope for _, scope in compiler.tests]
    # the search's leading test names only the event time
    assert _first_occurrences(scopes, [top._EVENT_TIME]) == [
        top._EVENT_TIME, *top.free_vars_ordered(f)], top.print_top(f)
    translated = translate(f)
    compiler = bot._Compiler(derive_bot_model(m), st)
    scopes = [compiler.conjunct(atom)[1] for atom in bot.flatten(translated)]
    assert _first_occurrences(scopes) == bot.free_vars_ordered(translated)


def test_searches_bind_in_first_occurrence_order():
    for seed in (0, 1, 2, 3, 4, 5, 42):
        params = GenParams(seed=seed)
        for i in range(1000):
            _check_orders(*gen_case(params, i))


def test_hand_written_nestings_bind_in_first_occurrence_order(m0):
    for text in M0_FORMULAS:
        f = top.parse_top(text)
        _check_orders(m0.model, m0.speech, f)
        found = top.denot_top_witness(m0.model, m0.speech, f)
        if found is not None:  # the witness lists its names as bound
            assert list(found[0]) == top.free_vars_ordered(f), text


def test_both_languages_share_the_walk():
    f = top.parse_top("At[?y, Perf[?x, Past[?z, q(?z, ?y)]]] & Culm[r(?w)]")
    assert symbols(f) == (["y", "x", "z", "w"], {"q", "r"})
    b = bot.parse_bot("subper(?e, intersect([beg, latest(?f)), ?g)) & q(?e, c)"
                      " & eq(succ(earliest(?h)), now) & part(p, ?f)")
    assert bot.free_vars_ordered(b) == ["e", "f", "g", "h"]
    assert bot.free_vars(b) == {"e", "f", "g", "h"}
    assert bot.functors(b) == {"q"}
    assert top.symbols is bot.symbols is symbols
    assert top.free_vars_ordered(top.parse_top("p(a) & Ntense[now, q(b)]")) == []


def _shallow(run, spare=50):
    """run() with `spare` frames to spare, by default fewer than a walk that
    recursed per operand or per nesting level would need."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + spare)
    try:
        return run()
    finally:
        sys.setrecursionlimit(limit)


def test_symbols_walks_long_chains_and_deep_nests_without_recursion():
    names = [f"x{i}" for i in range(5000)]
    chain = conjoin([Literal(f"q{i % 3}", (Var(n),)) for i, n in enumerate(names)])
    assert _shallow(lambda: symbols(chain)) == (names, {"q0", "q1", "q2"})
    cap = top._TopParser.max_depth
    f = top.parse_top("".join(f"Perf[?v{i}, " for i in range(cap)) + "q(?w)"
                      + "]" * cap)
    assert _shallow(lambda: top.free_vars_ordered(f)) == [
        *(f"v{i}" for i in range(cap)), "w"]
    cap = bot._BotParser.max_depth
    b = bot.parse_bot("subper(?x, " + "".join(
        f"intersect(?v{i}, " for i in range(cap)) + "?z" + ")" * (cap + 1))
    assert _shallow(lambda: bot.free_vars_ordered(b)) == [
        "x", *(f"v{i}" for i in range(cap)), "z"]
    b = bot.parse_bot("prec(beg, " + "succ(" * (cap - 1) + "latest(?s)"
                      + ")" * cap)
    assert _shallow(lambda: bot.free_vars(b)) == {"s"}


def _term_depth(atom):
    """Records on the longest path down from atom, the atom included."""
    deepest, todo = 0, [(atom, 1)]
    while todo:
        x, d = todo.pop()
        if isinstance(x, Record):
            deepest = max(deepest, d)
            todo += [(v, d + 1) for v in type(x)._values(x)]
    return deepest


def test_bot_compiles_and_evaluates_one_frame_per_term_level(m0):
    derived = derive_bot_model(m0.model)
    for text, answer in DEEPEST_NESTS:
        f = bot.parse_bot(text)
        depth = max(_term_depth(atom) for atom in bot.flatten(f))
        assert _shallow(lambda: bot.denot_bot(derived, m0.speech, f),
                        depth + 20) is answer, text[:40]
