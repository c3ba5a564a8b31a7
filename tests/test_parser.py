"""The shared descent core against the cursor-driven reference parsers,
the nesting caps, and `&` chains of any length.

On valid input and on single-token mutations of it, the package's parsers
and the reference ones must give an equal AST, or raise the same exception
class with the same message, line and column.
"""
import random
from pathlib import Path

import pytest

import reference
from chronos import bot, lexer, top
from chronos.core import Const, Literal, Var
from bot_formulas import gen_bot_formula
from chronos.equiv import GenParams, check_equivalence, gen_case
from chronos.lexer import EOF, VAR, ParseError
from tokens import tokenize
from chronos.translate import alpha_equivalent, translate

DATA = Path(__file__).parent / "data"
TOP_CAP = top._TopParser.max_depth
BOT_CAP = bot._BotParser.max_depth

#: tokens a mutation may insert
INSERTS = ("&", "(", ")", "[", "]", ",", "?", "7", "now", "subper", "Past", "²")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return type(e), e.message, e.line, e.column


def _same(parse, reference_parse, text):
    got = _outcome(parse, text)
    assert got == _outcome(reference_parse, text), text
    return got


def _chain(n):
    return " & ".join(f"q{i % 3}(c{i % 5}, ?x{i % 4})" for i in range(n))


def _nest(n, ops, inner):
    text = inner
    for i in range(n):
        text = ops[i % len(ops)].format(text)
    return text


_TOP_OPS = ("Pres[{}]", "Past[?e, {}]", "At[k, {}]", "Fills[{}]", "Perf[?f, {}]",
            "Before[k, {}]", "Ntense[now, {}]", "For[cp, 2, {}]", "({} & u(c))")
_PERIOD_OPS = ("intersect({}, [beg, end])", "[beg, earliest({})]",
               "(latest({}), succ(end)]")


def _bot_nest(groups, periods):
    atom = "subper(?x, " + _nest(periods, _PERIOD_OPS, "?p") + ")"
    return _nest(groups, ("({} & period(?y))",), atom)


def _inputs():
    """(language, text) pairs that both parsers accept."""
    tops = []
    for seed in range(5):
        params = GenParams(seed=seed)
        tops += [top.print_top(gen_case(params, i)[2]) for i in range(100)]
    tops += ["Ntense[?now, u(?now)]", "For[cp, 007, Part[cp, ?At]]",
             "(Culm[u(c)]) & ((u(c) & Fills[u(c)]))"]
    tops += [_chain(n) for n in (1, 2, 3, 50, 150)]
    tops += [_nest(n, _TOP_OPS, "u(c)") for n in (1, 9, 60, TOP_CAP - 2)]
    bots = [bot.print_bot(translate(top.parse_top(t))) for t in tops]
    bots += [bot.print_bot(gen_bot_formula(random.Random(f"diff/{i}")))
             for i in range(300)]
    bots += [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.bot"))]
    bots += ["eq(?beg, earliest(?intersect)) & part(p, ?intersect)",
             "subper((now, succ(now)], ?x) & ((prec(end, beg)))"]
    # the reference parser takes two or three stack frames per level
    bots += [_chain(150).replace("?", "?y"), _bot_nest(9, 9), _bot_nest(80, 80)]
    return [("top", t) for t in tops] + [("bot", t) for t in bots]


PARSERS = {"top": (top.parse_top, reference.parse_top),
           "bot": (bot.parse_bot, reference.parse_bot)}


def _mutants(text, rng, count):
    """count texts, each one token away from text: a token dropped,
    duplicated, swapped with the next or preceded by an inserted one."""
    words = ["?" + t.text if t.kind == VAR else t.text
             for t in tokenize(text) if t.kind != EOF]
    for _ in range(count):
        w = list(words)
        i = rng.randrange(len(w))
        how = rng.randrange(4)
        if how == 0:
            del w[i]
        elif how == 1:
            w.insert(i, w[i])
        elif how == 2 and i + 1 < len(w):
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            w.insert(i, rng.choice(INSERTS))
        yield "".join(rng.choice("  \n") + x for x in w)


def test_valid_and_mutated_input_parse_as_the_reference_does():
    rng = random.Random(1972)
    raised = parsed = 0
    for lang, text in _inputs():
        parse, reference_parse = PARSERS[lang]
        assert not isinstance(_same(parse, reference_parse, text), tuple), text
        for mutant in _mutants(text, rng, 3 if len(text) < 2000 else 1):
            if isinstance(_same(parse, reference_parse, mutant), tuple):
                raised += 1
            else:
                parsed += 1
    assert raised > 3000 and parsed > 30, (raised, parsed)


def test_errors_point_at_the_token_that_breaks_the_grammar():
    assert _outcome(top.parse_top, "Pres[u(c)") == (
        ParseError, "expected ], found 'end of input'", 1, 10)
    assert _outcome(bot.parse_bot, "subper(?e,\n  [beg, now]]") == (
        ParseError, "expected ), found ']'", 2, 13)


def test_for_quantities_beyond_the_cap_fail_at_the_quantity():
    """Checked before int(), which would refuse a run of over 4,300 digits
    with a bare ValueError; leading zeros do not count."""
    cap = lexer.MAX_QUANTITY
    for qty in (cap, f"000{cap}", 1, "007"):
        _same(top.parse_top, reference.parse_top, f"For[minute, {qty}, q(a)]")
    for qty in (cap + 1, 99_999, "1" * 5000, f"000{cap + 1}"):
        assert _same(top.parse_top, reference.parse_top,
                     f"For[minute, {qty}, q(a)]") == (
            ParseError, f"quantity must be at most {cap}", 1, 13)


def test_deepest_top_nest_parses_prints_translates_and_evaluates(m0):
    ops = ("Pres[{}]", "Past[?e, {}]", "At[d_jan, {}]", "Fills[{}]",
           "Perf[?f, {}]", "Before[y1995, {}]", "Ntense[now, {}]",
           "For[minute, 2, {}]", "After[d_jan, {}]", "Ntense[?n, {}]")
    text = _nest(TOP_CAP, ops, "empty(tank5)")
    f = top.parse_top(text)
    assert top.print_top(f) == text
    translated = translate(f)
    assert bot.parse_bot(bot.print_bot(translated)) == translated
    verdict = check_equivalence(m0.model, m0.speech, f)
    assert verdict.agree
    deeper = _nest(TOP_CAP + 1, ops, "empty(tank5)")
    with pytest.raises(ParseError) as err:
        top.parse_top(deeper)
    innermost = deeper.index(ops[0].format("empty(tank5)"))
    assert (err.value.line, err.value.column) == (1, innermost + 1)
    assert err.value.message == f"nesting deeper than {TOP_CAP} levels"


def test_bot_cap_admits_every_translation_the_top_cap_admits():
    # each level opens a group around the next and narrows the window, the
    # most a TOP operator adds to BOT nesting; the ASTs are compared by
    # their text, because the record == recurses too deep on them
    text = _nest(TOP_CAP - 1, ("Before[k, {} & Part[cp, ?v]]",), "u(c)")
    printed = bot.print_bot(translate(top.parse_top(text)))
    assert bot.print_bot(bot.parse_bot(printed)) == printed


@pytest.mark.parametrize("lang, make, opening", [
    ("top", lambda n: "Pres[" * n + "u(c)" + "]" * n, lambda t: t.rindex("Pres[")),
    ("top", lambda n: "(" * n + "u(c)" + ")" * n, lambda t: t.index("u(") - 1),
    ("bot", lambda n: "(" * n + "period(c)" + ")" * n,
     lambda t: t.index("period(") - 1),
    ("bot", lambda n: "prec(" + "succ(" * n + "beg" + ")" * n + ", end)",
     lambda t: t.rindex("succ(")),
    ("bot", lambda n: "subper(?x, " + "intersect(?y, " * n + "?z" + ")" * (n + 1),
     lambda t: t.rindex("intersect(")),
    ("bot", lambda n: _bot_nest(n // 2, n - n // 2),
     lambda t: t.index("intersect(?p")),
])
def test_nesting_beyond_the_cap_fails_at_its_opening_token(lang, make, opening):
    parse = PARSERS[lang][0]
    cap = TOP_CAP if lang == "top" else BOT_CAP
    parse(make(cap))
    deeper = make(cap + 1)
    with pytest.raises(ParseError) as err:
        parse(deeper)
    assert err.value.message == f"nesting deeper than {cap} levels"
    assert (err.value.line, err.value.column) == (1, opening(deeper) + 1)


def _length(f):
    """Conjuncts on the right spine of a TOP formula."""
    n = 1
    while type(f) is top.And:
        f, n = f.right, n + 1
    return n


def test_chains_of_any_length_parse():
    assert _length(top.parse_top(_chain(5000))) == 5000
    text = " & ".join(["prec(beg, end)"] * 5000 + ["(eq(?x, now) & period(?x))"])
    conjuncts = bot.flatten(bot.parse_bot(text))
    assert len(conjuncts) == 5002
    assert conjuncts[-2:] == [bot.Eq(Var("x"), bot.NOW), bot.IsPeriod(Var("x"))]
    # and print, compare, translate and walk with no recursion per conjunct
    text, other = _chain(5000), _chain(4999) + " & q1(c0, ?x9)"
    for parse, show in ((top.parse_top, top.print_top), (bot.parse_bot, bot.print_bot)):
        f = parse(text)
        assert show(f) == text
        assert f == parse(text) and hash(f) == hash(parse(text))
        assert f != parse(other)
    f = top.parse_top(text)
    assert f == bot.parse_bot(text)  # both languages build the core nodes
    assert top.free_vars_ordered(f) == ["x0", "x1", "x2", "x3"]
    assert top.functors(f) == {"q0", "q1", "q2"}
    translated = translate(f)
    printed = bot.print_bot(translated)
    assert bot.parse_bot(printed) == translated
    fixed = frozenset(top.free_vars(f))
    renamed = bot.parse_bot(printed.replace("?_p", "?_q"))
    assert alpha_equivalent(translated, renamed, fixed)
    assert not alpha_equivalent(translated, translate(top.parse_top(other)), fixed)


def test_groups_and_operators_side_by_side_do_not_nest():
    text = " & ".join(["(u(c))", "Pres[u(c)]"] * TOP_CAP * 2)
    assert _length(top.parse_top(text)) == 4 * TOP_CAP
    units = ["(period(c))", "eq(earliest(intersect(?y, ?z)), succ(now))"]
    text = " & ".join(units * BOT_CAP * 2)
    assert len(bot.flatten(bot.parse_bot(text))) == 4 * BOT_CAP


def test_leaves_are_shared_within_one_parse():
    f = top.parse_top("q(?x, c) & Past[?x, q(?x, c)]")
    assert f.left.args[0] is f.right.var is f.right.body.args[0]
    assert f.left.args[1] is f.right.body.args[1]
    # and never across parses
    assert top.parse_top("q(?x, c)").args[0] is not f.left.args[0]


@pytest.mark.parametrize("lang, text, message, column", [
    ("top", "Past[var, p(a)]", "expected variable, found 'var'", 6),
    ("top", "For[cp, int, p(a)]", "expected quantity, found 'int'", 9),
    ("top", "p(a) eof", "expected end of input, found 'eof'", 6),
    ("bot", "p(a) eof", "expected end of input, found 'eof'", 6),
    ("bot", "prec(eof, beg)", "expected point expression, found 'eof'", 6),
])
def test_names_spelled_like_token_kinds_are_no_other_kind(lang, text, message,
                                                          column):
    parse, reference_parse = PARSERS[lang]
    assert _same(parse, reference_parse, text) == (ParseError, message, 1, column)


@pytest.mark.parametrize("lang, text, expected", [
    ("top", "var(int, eof)", Literal("var", (Const("int"), Const("eof")))),
    ("bot", "var(int, eof)", Literal("var", (Const("int"), Const("eof")))),
    ("top", "At[var, p(a)]", top.At(Const("var"), Literal("p", (Const("a"),)))),
    ("top", "Part[ident, ?x]", top.Part("ident", Var("x"))),
    ("bot", "part(ident, ?x)", bot.InPart("ident", Var("x"))),
    ("bot", "eq(var, ?int)", bot.Eq(Const("var"), Var("int"))),
    ("top", "For[int, 2, eof(?var)]",
     top.For("int", 2, Literal("eof", (Var("var"),)))),
])
def test_names_spelled_like_token_kinds_are_identifiers(lang, text, expected):
    parse, reference_parse = PARSERS[lang]
    assert _same(parse, reference_parse, text) == expected
