"""The record classes: one instance of each, and the contract they keep.

Every AST node, model and report class derives from `core.Record`.  The
reprs and error messages below were recorded when these classes were still
frozen dataclasses, so they pin the observable behaviour across that change.
"""
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from chronos import bot, core, equiv, modelfile, top
from chronos.core import (
    COMPLETE,
    EMPTY,
    GAPPY,
    UNDEFINED,
    And,
    Const,
    Literal,
    ObjectDomain,
    Partitioning,
    Period,
    Record,
    Timeline,
    Var,
    fields,
    replace,
)
from chronos.translate import TransContext

SRC = Path(__file__).resolve().parent.parent / "src"

X, Y, A, D = Var("x"), Var("y"), Const("a"), Const("d")
LIT = Literal("q", (A, X))
TL = Timeline(4)
DOMAIN = ObjectDomain(TL, ("a", "b"))
PART = Partitioning(COMPLETE, (Period(2, 3), Period(0, 1)))
MODEL = core.TopModel(
    TL, DOMAIN, {"a": "a", "d": Period(0, 1)},
    {("q", 2): {("a", "b"): frozenset({Period(1, 2)})}},
    {("q", 2): {("a", "b"): True}},
    {"c": PART}, {"g": Partitioning(GAPPY, (Period(1, 1),))},
)
BOT_MODEL = core.BotModel(
    TL, DOMAIN, {"a": "a"}, {("q", 3): frozenset({("a", "b", Period(1, 2))})},
    {"c": PART}, {},
)
PX = bot.TermRef(X)

INSTANCES = [
    Period(1, 3), A, X, LIT, And(LIT, Literal("p", (Y,))), TL, PART, DOMAIN,
    MODEL, BOT_MODEL, core.EtaMapping(), core.Violation("BadArity", "functor q/0"),
    bot.Beg(), bot.Now(), bot.End(), bot.Earliest(PX), bot.Latest(PX),
    bot.Succ(bot.NOW), bot.Interval(bot.BEG, bot.NOW, True, False),
    bot.Intersect(PX, bot.TermRef(D)), bot.TermRef(D), bot.Subper(PX, PX),
    bot.Eq(X, bot.Latest(PX)), bot.IsPeriod(X), bot.InPart("c", X),
    bot.Prec(bot.BEG, bot.Earliest(PX)),
    top.Part("c", X), top.Pres(LIT), top.Past(X, LIT), top.Perf(X, LIT),
    top.Culm(LIT), top.At(D, LIT), top.Before(D, LIT), top.After(D, LIT),
    top.Fills(LIT), top.Ntense(None, LIT), top.For("c", 2, LIT),
    top.EvalIndex(1, Period(0, 1), EMPTY),
    equiv.GenParams(seed=3), equiv.Verdict(True, False, ({"x": "a"}, Period(0, 1))),
    equiv.Disagreement(case=4, sub_seed="0/case/4", st=1, formula="Pres[q(a)]",
                       model_digest="abc", top_value=True, bot_value=False,
                       shrunk_st=0, shrunk_formula="q(a)", shrunk_model_digest="def"),
    equiv.CampaignReport(equiv.GenParams(), 10, None, ()),
    modelfile.CompiledModel(MODEL, 2),
    TransContext(used_vars={"e0"}),
]

_LIT = "Literal(functor='q', args=(Const(name='a'), Var(name='x')))"
_PX = "TermRef(term=Var(name='x'))"
_DOMAIN = "ObjectDomain(timeline=Timeline(size=4), atoms=('a', 'b'))"
_PART = ("Partitioning(kind='complete', blocks=(Period(lo=0, hi=1), "
         "Period(lo=2, hi=3)))")
_GEN = ("timeline_size=8, atom_count=3, pred_count=3, max_arity=2, max_depth=4,"
        " max_periods_per_tuple=2, max_free_vars=3")
_MODEL = (
    f"TopModel(timeline=Timeline(size=4), domain={_DOMAIN}, consts={{'a': 'a', "
    "'d': Period(lo=0, hi=1)}, preds={('q', 2): {('a', 'b'): "
    "frozenset({Period(lo=1, hi=2)})}}, culms={('q', 2): {('a', 'b'): True}}, "
    f"cparts={{'c': {_PART}}}, gparts={{'g': Partitioning(kind='gappy', "
    "blocks=(Period(lo=1, hi=1),))})"
)

REPRS = {
    "Period": "Period(lo=1, hi=3)",
    "Const": "Const(name='a')",
    "Var": "Var(name='x')",
    "Literal": _LIT,
    "And": f"And(left={_LIT}, right=Literal(functor='p', args=(Var(name='y'),)))",
    "Timeline": "Timeline(size=4)",
    "Partitioning": _PART,
    "ObjectDomain": _DOMAIN,
    "TopModel": _MODEL,
    "BotModel": (
        f"BotModel(timeline=Timeline(size=4), domain={_DOMAIN}, consts={{'a': 'a'}}, "
        "bot_preds={('q', 3): frozenset({('a', 'b', Period(lo=1, hi=2))})}, "
        f"cparts={{'c': {_PART}}}, gparts={{}})"
    ),
    "EtaMapping": "EtaMapping(culm_prefix='cmp_', span_prefix='max_')",
    "Violation": "Violation(code='BadArity', where='functor q/0')",
    "Beg": "Beg()",
    "Now": "Now()",
    "End": "End()",
    "Earliest": f"Earliest(per={_PX})",
    "Latest": f"Latest(per={_PX})",
    "Succ": "Succ(point=Now())",
    "Interval": "Interval(lo=Beg(), hi=Now(), lo_closed=True, hi_closed=False)",
    "Intersect": f"Intersect(left={_PX}, right=TermRef(term=Const(name='d')))",
    "TermRef": "TermRef(term=Const(name='d'))",
    "Subper": f"Subper(left={_PX}, right={_PX})",
    "Eq": f"Eq(left=Var(name='x'), right=Latest(per={_PX}))",
    "IsPeriod": "IsPeriod(term=Var(name='x'))",
    "InPart": "InPart(part='c', term=Var(name='x'))",
    "Prec": f"Prec(left=Beg(), right=Earliest(per={_PX}))",
    "Part": "Part(part='c', var=Var(name='x'))",
    "Pres": f"Pres(body={_LIT})",
    "Past": f"Past(var=Var(name='x'), body={_LIT})",
    "Perf": f"Perf(var=Var(name='x'), body={_LIT})",
    "Culm": f"Culm(body={_LIT})",
    "At": f"At(term=Const(name='d'), body={_LIT})",
    "Before": f"Before(term=Const(name='d'), body={_LIT})",
    "After": f"After(term=Const(name='d'), body={_LIT})",
    "Fills": f"Fills(body={_LIT})",
    "Ntense": f"Ntense(var=None, body={_LIT})",
    "For": f"For(cpart='c', qty=2, body={_LIT})",
    "EvalIndex": "EvalIndex(st=1, et=Period(lo=0, hi=1), lt=Empty)",
    "GenParams": f"GenParams({_GEN}, seed=3)",
    "Verdict": ("Verdict(top_value=True, bot_value=False, "
                "witness=({'x': 'a'}, Period(lo=0, hi=1)))"),
    "Disagreement": (
        "Disagreement(case=4, sub_seed='0/case/4', st=1, formula='Pres[q(a)]', "
        "model_digest='abc', top_value=True, bot_value=False, shrunk_st=0, "
        "shrunk_formula='q(a)', shrunk_model_digest='def')"
    ),
    "CampaignReport": (
        f"CampaignReport(params=GenParams({_GEN}, seed=0), cases=10, "
        "mutation=None, disagreements=())"
    ),
    "CompiledModel": f"CompiledModel(model={_MODEL}, speech=2)",
    "TransContext": (
        "TransContext(eta=EtaMapping(culm_prefix='cmp_', span_prefix='max_'), "
        "used_vars={'e0'}, used_functors=frozenset(), counter=0, mutation=None)"
    ),
}

#: their fields hold dicts or sets, so hashing them raises TypeError
UNHASHABLE = {"TopModel", "BotModel", "Verdict", "CompiledModel", "TransContext"}


def _ids(xs):
    return [type(x).__name__ for x in xs]


def _record_classes():
    out = set()
    for mod in (core, bot, top, equiv, modelfile, sys.modules["chronos.translate"]):
        out.update(c for c in vars(mod).values()
                   if isinstance(c, type) and issubclass(c, Record) and c is not Record)
    return out


def test_one_instance_of_every_record_class():
    assert len(INSTANCES) == 44
    assert {type(x) for x in INSTANCES} == _record_classes()


@pytest.mark.parametrize("x", INSTANCES, ids=_ids(INSTANCES))
def test_repr_as_recorded(x):
    assert repr(x) == REPRS[type(x).__name__]


@pytest.mark.parametrize("x", INSTANCES, ids=_ids(INSTANCES))
def test_positional_and_keyword_construction(x):
    values = [getattr(x, name) for name in fields(x)]
    assert type(x)(*values) == x
    assert type(x)(**dict(zip(fields(x), values))) == x
    assert replace(x) == x and replace(x) is not x


@pytest.mark.parametrize("x", INSTANCES, ids=_ids(INSTANCES))
def test_equality_is_class_sensitive_and_hash_agrees(x):
    same = replace(x)
    assert same == x and not same != x
    if type(x).__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(same) == hash(x)
    values = [getattr(x, name) for name in fields(x)]
    twins = [c for c in _record_classes() if c is not type(x) and fields(c) == fields(x)]
    for cls in twins:  # same field names and values, another class
        try:
            other = cls(*values)
        except ValueError:
            continue
        assert other != x and x != other and not other == x


@pytest.mark.parametrize("x", INSTANCES, ids=_ids(INSTANCES))
def test_pickle_and_copy_round_trip(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x


@pytest.mark.parametrize("x, text", [(EMPTY, "Empty"), (UNDEFINED, "Undefined")],
                         ids=["EMPTY", "UNDEFINED"])
def test_sentinels_pickle_and_copy_to_themselves(x, text):
    assert repr(x) == text
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x),
              copy.deepcopy([x])[0]):
        assert y is x


def test_named_class_sensitive_pairs():
    assert top.Past(X, LIT) != top.Perf(X, LIT)
    assert Var("x") != Const("x")
    assert bot.Beg() != bot.Now()
    assert top.At(D, LIT) != top.Before(D, LIT)
    assert Period(1, 2) != (1, 2)


def test_and_compares_along_its_spine():
    a = And(LIT, And(LIT, LIT))
    b = And(LIT, And(LIT, LIT))
    assert a == b and hash(a) == hash(b)
    assert a != And(And(LIT, LIT), LIT)


@pytest.mark.parametrize(
    "x", [x for x in INSTANCES if type(x) is not TransContext],
    ids=_ids(x for x in INSTANCES if type(x) is not TransContext))
def test_fields_cannot_be_assigned_or_deleted(x):
    for name in fields(x) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)


def test_trans_context_is_mutable_and_gets_fresh_defaults():
    a, b = TransContext(), TransContext()
    assert a.used_vars == set() and a.used_vars is not b.used_vars
    assert a.eta == core.EtaMapping()
    a.fresh_var("et")
    assert a.counter == 1 and a.used_vars == {"_et0"} and b.used_vars == set()
    assert (a.used_functors, a.counter, b.counter, a.mutation) == (frozenset(), 1, 0, None)


def test_defaults():
    assert bot.Interval(bot.BEG, bot.NOW) == bot.Interval(bot.BEG, bot.NOW, True, True)
    assert equiv.GenParams() == equiv.GenParams(8, 3, 3, 2, 4, 2, 3, 0)
    assert equiv.Verdict(False, False).witness is None


def test_periods_sort_by_lo_then_hi():
    ps = [Period(2, 3), Period(0, 4), Period(2, 2), Period(0, 0)]
    assert sorted(ps) == [Period(0, 0), Period(0, 4), Period(2, 2), Period(2, 3)]
    assert Period(0, 4) < Period(1, 1) <= Period(1, 1) < Period(1, 2)
    assert Period(1, 2) > Period(1, 1) >= Period(1, 1)
    assert max(ps) == Period(2, 3)
    with pytest.raises(TypeError):
        Period(1, 2) < (1, 3)


def test_partitioning_sorts_its_blocks():
    assert PART.blocks == (Period(0, 1), Period(2, 3))
    assert replace(PART, blocks=(Period(3, 3), Period(0, 2))).blocks == (
        Period(0, 2), Period(3, 3))


@pytest.mark.parametrize("f", [
    top.Pres(LIT), top.Past(X, LIT), top.Perf(X, LIT), top.Culm(LIT),
    top.At(D, LIT), top.Before(D, LIT), top.After(D, LIT), top.Fills(LIT),
    top.Ntense(X, LIT), top.For("c", 2, LIT),
], ids=lambda f: type(f).__name__)
def test_replace_rebuilds_the_operators_the_shrinker_rewrites(f):
    body = Literal("r", (Y,))
    g = replace(f, body=body)
    assert type(g) is type(f) and g.body == body
    assert [getattr(g, n) for n in fields(g) if n != "body"] == [
        getattr(f, n) for n in fields(f) if n != "body"]
    assert fields(top.For) == ("cpart", "qty", "body")
    if type(f) is top.For:
        assert replace(f, qty=1) == top.For("c", 1, LIT)


def test_replace_rebuilds_top_model_and_checks_it():
    preds = {("q", 2): {}}
    m = replace(MODEL, preds=preds)
    assert m.preds is preds and m.consts is MODEL.consts and m != MODEL
    assert replace(m, preds=MODEL.preds) == MODEL
    with pytest.raises(ValueError, match="different timeline"):
        replace(MODEL, timeline=Timeline(5))
    with pytest.raises(TypeError):
        replace(MODEL, nosuch=1)


@pytest.mark.parametrize("build, message", [
    (lambda: Period(2, 1), "invalid period [2,1]"),
    (lambda: Period(-1, 0), "invalid period [-1,0]"),
    (lambda: Timeline(0), "timeline needs at least one point"),
    (lambda: Literal("q", ()), "literals take at least one argument"),
    (lambda: top.For("c", 0, LIT), "For quantity must be at least 1"),
    (lambda: top.Culm(X), "Culm applies to a literal"),
    (lambda: Partitioning("x", ()), "unknown partitioning kind 'x'"),
    (lambda: Partitioning(COMPLETE, (Period(0, 2), Period(2, 4))),
     "overlapping blocks [0,2] and [2,4]"),
    (lambda: ObjectDomain(TL, ("a", "a")), "duplicate atom names"),
    (lambda: equiv.GenParams(timeline_size=11), "timeline_size must be in 1..10, got 11"),
    (lambda: equiv.GenParams(max_free_vars=0), "max_free_vars must be in 1..3, got 0"),
])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_class_declarations_the_base_refuses():
    with pytest.raises(TypeError, match="cannot be extended"):
        type("Sub", (Literal,), {})
    with pytest.raises(TypeError, match="without a default follows"):
        type("Bad", (Record,), {"__annotations__": {"a": int, "b": int}, "a": 1})


def test_bad_arguments_are_type_errors():
    with pytest.raises(TypeError):
        Period(1)
    with pytest.raises(TypeError):
        Period(1, 2, lo=1)
    with pytest.raises(TypeError):
        top.Pres(LIT, body=LIT)
    with pytest.raises(TypeError):
        equiv.GenParams(1, 2, 3, 2, 4, 2, 3, 0, 9)
    with pytest.raises(TypeError):
        equiv.GenParams(seeds=1)
    with pytest.raises(TypeError):
        equiv.Disagreement(case=1)


def test_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks, so only what the import itself loads is counted
    code = ("import sys, chronos.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
    ).stdout
    assert out == "[]\n"
