"""BOT parsing, point/period expression semantics, atom evaluation, and the
existential denotation with its naive-enumeration oracle."""
import itertools
import random

import pytest

from chronos import bot, top
from chronos.core import (
    EMPTY,
    UNDEFINED,
    Const,
    Period,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    derive_bot_model,
)
from chronos.bot import (
    denot_bot,
    denot_bot_witness,
    eval_bot,
    eval_period,
    eval_point,
    parse_bot,
    print_bot,
)
from bot_formulas import gen_bot_formula

P = Period


@pytest.fixture(scope="module")
def b0(m0):
    return derive_bot_model(m0.model)


def test_parse_structures():
    f = parse_bot("empty(tank5, ?p) & subper(?e, ?p)")
    assert f == bot.And(
        bot.Literal("empty", (Const("tank5"), Var("p"))),
        bot.Subper(bot.TermRef(Var("e")), bot.TermRef(Var("p"))),
    )
    eq = parse_bot("eq(succ(latest(?m1)), earliest(?m2))")
    assert eq == bot.Eq(
        bot.Succ(bot.Latest(bot.TermRef(Var("m1")))),
        bot.Earliest(bot.TermRef(Var("m2"))),
    )
    sub = parse_bot("subper(?e, intersect([beg,end], [beg,now)))")
    assert sub == bot.Subper(
        bot.TermRef(Var("e")),
        bot.Intersect(
            bot.Interval(bot.BEG, bot.END, True, True),
            bot.Interval(bot.BEG, bot.NOW, True, False),
        ),
    )
    # a bare keyword is always its one node
    spans = sub.right
    assert spans.left.lo is spans.right.lo is bot.BEG
    assert spans.left.hi is bot.END and spans.right.hi is bot.NOW


def test_parse_interval_bracket_mixes():
    for text, lo_closed, hi_closed in [
        ("subper([beg,end], [beg,end])", True, True),
        ("subper((beg,end], [beg,end])", False, True),
        ("subper([beg,end), [beg,end])", True, False),
        ("subper((beg,end), [beg,end])", False, False),
    ]:
        atom = parse_bot(text)
        assert atom.left.lo_closed is lo_closed
        assert atom.left.hi_closed is hi_closed


def test_parse_errors():
    from chronos.lexer import ArityError, ParseError

    with pytest.raises(ParseError):
        parse_bot("subper(?e)")
    with pytest.raises(ParseError):
        parse_bot("eq(beg, succ)")
    with pytest.raises(ArityError):
        parse_bot("q(?x) & q(?x, ?y)")


def test_eval_point_examples(b0):
    st = 7
    assert eval_point(b0, st, {}, bot.NOW) == 7
    assert eval_point(b0, st, {}, bot.BEG) == 0
    assert eval_point(b0, st, {}, bot.END) == 9
    undef = parse_bot("prec(succ(latest([beg,end])), beg)")
    assert eval_point(b0, st, {}, undef.left) is UNDEFINED
    # earliest over an empty intersection: d_jan=[3,4] and y1995=[0,2] are disjoint
    disjoint = parse_bot("prec(earliest(intersect(d_jan, y1995)), beg)")
    assert eval_point(b0, st, {}, disjoint.left) is UNDEFINED


def test_eval_period_examples(b0):
    st = 7
    past = bot.Interval(bot.BEG, bot.NOW, True, False)
    assert eval_period(b0, st, {}, past) == P(0, 6)
    emu = bot.Intersect(bot.Interval(bot.BEG, bot.END), past)
    assert eval_period(b0, st, {}, emu) == P(0, 6)
    reversed_iv = bot.Interval(bot.NOW, bot.BEG, True, True)
    assert eval_period(b0, st, {}, reversed_iv) is EMPTY
    undef = bot.Interval(bot.Succ(bot.END), bot.END, True, True)
    assert eval_period(b0, st, {}, undef) is UNDEFINED
    assert eval_period(b0, st, {"e": P(1, 2)}, bot.TermRef(Var("e"))) == P(1, 2)
    assert eval_period(b0, st, {"e": "tank5"}, bot.TermRef(Var("e"))) is UNDEFINED


def test_eval_bot_examples(b0):
    f = parse_bot(
        "empty(tank5, ?p) & subper(?e, ?p)"
        " & subper(?e, intersect(intersect([beg,end], d_jan), [beg,now)))"
    )
    assert eval_bot(b0, 7, {"p": P(2, 5), "e": P(3, 4)}, f) is True
    assert eval_bot(b0, 7, {"p": P(2, 4), "e": P(3, 4)}, f) is False
    assert eval_bot(b0, 7, {}, parse_bot("period(tank5)")) is False
    assert eval_bot(b0, 7, {}, parse_bot("period(d_jan)")) is True
    with pytest.raises(UnboundVariable):
        eval_bot(b0, 7, {}, parse_bot("period(?x)"))
    # an atom reads every operand, even after one is undefined
    for text in ("subper(?x, ?y)", "eq(earliest(?x), earliest(?y))",
                 "prec(latest(?x), earliest(?y))"):
        with pytest.raises(UnboundVariable, match="^y$"):
            eval_bot(b0, 7, {"x": "tank5"}, parse_bot(text))
    with pytest.raises(UnknownFunctor):
        eval_bot(b0, 7, {}, parse_bot("missing(tank5)"))
    with pytest.raises(UnknownPartitioning):
        eval_bot(b0, 7, {}, parse_bot("part(hour, d_jan)"))


def test_denot_bot_examples(b0):
    f = parse_bot(
        "empty(tank5, ?p) & subper(?e, ?p)"
        " & subper(?e, intersect(intersect([beg,end], d_jan), [beg,now)))"
    )
    assert denot_bot(b0, 7, f) is True
    # at st=2 the past window [0,1] misses d_jan entirely
    assert denot_bot(b0, 2, f) is False
    assert denot_bot(b0, 7, parse_bot("eq(?x, ?x)")) is True
    witness = denot_bot_witness(b0, 7, f)
    assert eval_bot(b0, 7, witness, f) is True


def test_undefined_collapses_to_false_at_every_atom(b0):
    undef_point = "succ(latest([beg,end]))"
    undef_period = f"[{undef_point}, end]"
    cases = [
        f"empty(tank5, {undef_period})",
        "empty(tank5, [beg, earliest(?x)])",  # undefined only as x = tank5
        "empty(tank5, intersect(d_jan, y1995))",  # folds to EMPTY
        f"subper({undef_period}, [beg,end])",
        f"subper([beg,end], {undef_period})",
        f"eq({undef_point}, {undef_point})",
        f"eq(?x, {undef_point})",
        f"period({undef_period})",
        f"part(minute, {undef_period})",
        f"prec({undef_point}, beg)",
        f"prec(beg, {undef_point})",
    ]
    for text in cases:
        assert eval_bot(b0, 7, {"x": "tank5"}, parse_bot(text)) is False, text


def test_eq_compares_defined_denotations(b0):
    assert eval_bot(b0, 7, {}, parse_bot("eq(d_jan, [earliest(d_jan), latest(d_jan)])")) is True
    assert eval_bot(b0, 7, {}, parse_bot("eq(tank5, tank5)")) is True
    assert eval_bot(b0, 7, {}, parse_bot("eq(tank5, d_jan)")) is False
    # both sides denote the empty point set
    assert eval_bot(b0, 7, {}, parse_bot("eq((beg,beg), (end,end))")) is True


def _point_exprs():
    base = [bot.BEG, bot.NOW, bot.END]
    return base + [bot.Succ(p) for p in base] + [
        bot.Earliest(bot.Interval(a, b)) for a, b in itertools.product(base, base)
    ]


def test_prec_irreflexive_transitive(b0):
    """On defined points prec behaves like strict numeric order."""
    exprs = _point_exprs()
    st = 4
    defined = [(e, eval_point(b0, st, {}, e)) for e in exprs]
    defined = [(e, v) for e, v in defined if v is not UNDEFINED]
    for e, v in defined:
        assert eval_bot(b0, st, {}, bot.Prec(e, e)) is False
    for (e1, v1), (e2, v2), (e3, v3) in itertools.product(defined, repeat=3):
        if v1 < v2 and v2 < v3:
            assert eval_bot(b0, st, {}, bot.Prec(e1, e3)) is True


def test_eq_equivalence_on_defined(b0):
    exprs = _point_exprs()
    st = 4
    defined = [e for e in exprs if eval_point(b0, st, {}, e) is not UNDEFINED]
    for e in defined:
        assert eval_bot(b0, st, {}, bot.Eq(e, e)) is True
    for e1, e2 in itertools.product(defined, repeat=2):
        assert eval_bot(b0, st, {}, bot.Eq(e1, e2)) == eval_bot(
            b0, st, {}, bot.Eq(e2, e1)
        )


def test_eval_period_type_exhaustive_depth_two(b0):
    """Every period expression denotes a period, the empty set, or undefined."""
    points = [bot.BEG, bot.NOW, bot.END, bot.Succ(bot.END)]
    depth1 = [
        bot.Interval(a, b, lc, hc)
        for a, b in itertools.product(points, points)
        for lc, hc in itertools.product([True, False], repeat=2)
    ] + [bot.TermRef(Const("d_jan")), bot.TermRef(Const("tank5"))]
    depth2 = [bot.Intersect(a, b) for a, b in itertools.product(depth1[:12], depth1[:12])]
    for e in depth1 + depth2:
        v = eval_period(b0, 5, {}, e)
        assert isinstance(v, Period) or v is EMPTY or v is UNDEFINED


def test_round_trip_handwritten():
    for text in [
        "empty(tank5, ?p) & subper(?e, ?p)",
        "eq(succ(latest(?m1)), earliest(?m2))",
        "subper(?e, intersect([beg, end], [beg, now)))",
        "part(minute, ?m1) & prec(beg, now)",
        "period(?x) & eq(?x, [beg, succ(beg)])",
    ]:
        f = parse_bot(text)
        assert parse_bot(print_bot(f)) == f


def test_round_trip_generated():
    for i in range(150):
        f = gen_bot_formula(random.Random(f"bot-rt/{i}"))
        assert parse_bot(print_bot(f)) == f


#: the leaves of BOT expressions: each point keyword, and a variable and a
#: constant, which a period position reads as a TermRef
_LEAF_POINTS = [bot.BEG, bot.NOW, bot.END]
_LEAF_TERMS = [Var("v"), Const("k")]


def test_every_atom_over_terms_of_depth_two_round_trips():
    """Every atom whose terms are a leaf or one constructor over leaves,
    a leaf being at depth one."""
    refs = [bot.TermRef(t) for t in _LEAF_TERMS]
    points = _LEAF_POINTS + [bot.Succ(p) for p in _LEAF_POINTS] + [
        bound(r) for bound in (bot.Earliest, bot.Latest) for r in refs]
    periods = refs + [
        bot.Interval(*args) for args in itertools.product(
            _LEAF_POINTS, _LEAF_POINTS, (True, False), (True, False))
    ] + [bot.Intersect(a, b) for a, b in itertools.product(refs, repeat=2)]
    # in a term position a variable or constant stands bare, not as a TermRef
    terms = _LEAF_TERMS + points + periods[len(refs):]
    pairs = list(itertools.product(terms, repeat=2))
    atoms = (
        [bot.Subper(a, b) for a, b in itertools.product(periods, repeat=2)]
        + [bot.Eq(a, b) for a, b in pairs]
        + [bot.Prec(a, b) for a, b in itertools.product(points, repeat=2)]
        + [bot.IsPeriod(t) for t in terms]
        + [bot.InPart("p", t) for t in terms]
        + [bot.Literal("q", (t,)) for t in terms]
        + [bot.Literal("q", pair) for pair in pairs]
    )
    assert len(atoms) == 7428
    for f in atoms:
        assert parse_bot(print_bot(f)) == f, f


@pytest.mark.parametrize("node", [
    # an atom where a term belongs
    bot.Eq(bot.Subper(bot.TermRef(Var("x")), bot.TermRef(Var("y"))), bot.BEG),
    bot.Literal("q", (bot.IsPeriod(Var("x")),)),
    bot.Succ(bot.Prec(bot.BEG, bot.END)),
    # a term, or a conjunction, where an atom belongs
    bot.BEG,
    Var("x"),
    bot.Intersect(bot.TermRef(Var("x")), bot.TermRef(Var("y"))),
    bot.Subper(bot.TermRef(Var("x")), bot.And(bot.IsPeriod(Var("x")),
                                               bot.IsPeriod(Var("y")))),
    # a TOP operator, alone or inside a BOT conjunction
    top.Pres(bot.Literal("q", (Var("x"),))),
    bot.And(bot.IsPeriod(Var("x")), top.Fills(bot.Literal("q", (Var("x"),)))),
])
def test_print_bot_refuses_misplaced_nodes(node):
    with pytest.raises(TypeError, match="not a BOT"):
        print_bot(node)


def test_base_literal_round_trips_to_maximal_periods(m0, b0):
    """A true base literal's trailing period is always a listed maximal period."""
    m = m0.model
    for (functor, arity), ext in m.preds.items():
        tuples = b0.true_tuples(functor, arity + 1)
        for args in ext:
            for p in m.timeline.periods():
                var_lit = bot.Literal(
                    functor, tuple(Const(a) for a in args) + (Var("p"),)
                )
                if eval_bot(b0, 7, {"p": p}, var_lit):
                    assert p in ext[args]
                    assert args + (p,) in tuples


def test_denot_matches_naive_enumeration(b0):
    """The pruned search equals full product enumeration, witness included."""
    formulas = [
        "empty(tank5, ?p)",
        "empty(tank5, ?p) & subper(?e, ?p)",
        "subper(?e, [beg,now)) & part(fivepm, ?f)",
        "eq(?x, ?y) & period(?x)",
        "prec(latest(?a), earliest(?b)) & part(minute, ?a) & part(minute, ?b)",
    ]
    domain = list(b0.objects())
    for text in formulas:
        f = parse_bot(text)
        names = bot.free_vars_ordered(f)
        naive = None
        for combo in itertools.product(domain, repeat=len(names)):
            g = dict(zip(names, combo))
            if eval_bot(b0, 7, g, f):
                naive = g
                break
        assert denot_bot_witness(b0, 7, f) == naive


def test_unknown_names_raise_when_compiled(b0):
    """A formula naming a functor, constant or partitioning the model lacks
    is ill-formed: the search and eval_bot both raise before evaluating
    anything, even where another conjunct admits no value at all.  The
    error names the first unknown name in reading order."""
    raising = {
        "prec(end, beg) & nosuch(tank5)":
            (UnknownFunctor, "unknown functor nosuch/1"),
        "nosuch(?x) & empty(bridge2, ?x)":
            (UnknownFunctor, "unknown functor nosuch/1"),
        "subper(?p, nosuch) & empty(bridge2, ?p)":
            (UnknownConstant, "unknown constant nosuch"),
        "part(nosuch, ?x) & empty(bridge2, ?x)":
            (UnknownPartitioning, "unknown partitioning nosuch"),
        "nosuch(nope)": (UnknownFunctor, "unknown functor nosuch/1"),
        "empty(nope, ?p) & nosuch(tank5)": (UnknownConstant, "unknown constant nope"),
        "part(nosuch, nope)": (UnknownPartitioning, "unknown partitioning nosuch"),
        "eq(intersect([beg, end], nope), nosuch) & period(?x)":
            (UnknownConstant, "unknown constant nope"),
    }
    for text, (error, message) in raising.items():
        f = parse_bot(text)
        for run in (lambda: denot_bot_witness(b0, 7, f),
                    lambda: eval_bot(b0, 7, {}, f)):
            with pytest.raises(error) as raised:
                run()
            assert str(raised.value) == message, text
