"""TOP concrete syntax: parsing, printing, round trips, variable collection."""
import itertools

import pytest

from chronos import top
from chronos.core import Const, Var
from chronos.lexer import ArityError, ParseError
from chronos.top import free_vars, parse_top, print_top


def test_parse_nested_operators():
    f = parse_top("At[d_jan, Past[?e, empty(tank5)]]")
    assert f == top.At(
        Const("d_jan"),
        top.Past(Var("e"), top.Literal("empty", (Const("tank5"),))),
    )


def test_parse_perfect_with_culmination():
    f = parse_top("Past[?e1, Perf[?e2, Culm[inspecting(jadams, ba737)]]]")
    assert f == top.Past(
        Var("e1"),
        top.Perf(
            Var("e2"),
            top.Culm(top.Literal("inspecting", (Const("jadams"), Const("ba737")))),
        ),
    )


def test_culm_requires_literal_child():
    with pytest.raises(ParseError):
        parse_top("Culm[At[d_jan, empty(tank5)]]")
    with pytest.raises(ParseError):
        parse_top("Culm[Pres[x(y)]]")


def test_parse_conjunction_right_nested():
    f = parse_top("a(x) & b(x) & c(x)")
    assert isinstance(f, top.And)
    assert isinstance(f.right, top.And)
    grouped = parse_top("(a(x) & b(x)) & c(x)")
    assert isinstance(grouped.left, top.And)
    assert grouped != f


def test_parse_ntense_forms():
    now_form = parse_top("Ntense[now, president(?p)]")
    assert now_form.var is None
    var_form = parse_top("Ntense[?e, president(?p)]")
    assert var_form.var == Var("e")


def test_parse_for_quantity():
    f = parse_top("For[minute, 45, Past[?e, circling(ba737)]]")
    assert f.cpart == "minute" and f.qty == 45
    with pytest.raises(ParseError):
        parse_top("For[minute, 0, empty(tank5)]")


def test_quantity_takes_ascii_digits_only():
    """Other scripts' digits are not integers: int() would read '٣' as 3
    and fail on '²'."""
    for digit in ("\u00b2", "\u0663"):
        with pytest.raises(ParseError) as err:
            parse_top(f"For[cp0, {digit}, q(a)]")
        assert (err.value.line, err.value.column) == (1, 10)
        assert "unexpected character" in err.value.message


def test_print_examples():
    assert print_top(top.Literal("empty", (Const("tank5"),))) == "empty(tank5)"
    assert (
        print_top(top.Ntense(None, top.Literal("president", (Var("p"),))))
        == "Ntense[now, president(?p)]"
    )
    a = top.Literal("a", (Const("x"),))
    b = top.Literal("b", (Const("x"),))
    c = top.Literal("c", (Const("x"),))
    assert print_top(top.And(a, top.And(b, c))) == "a(x) & b(x) & c(x)"
    assert print_top(top.And(top.And(a, b), c)) == "(a(x) & b(x)) & c(x)"


@pytest.mark.parametrize(
    "text",
    [
        "empty(tank5)",
        "Pres[empty(tank5)]",
        "Past[?e, Fills[empty(tank5)]]",
        "At[d_jan, Past[?e, empty(tank5)]]",
        "Before[?t, After[d_jan, empty(tank5)]]",
        "Part[fivepm, ?f] & After[?f, Past[?e, empty(tank5)]]",
        "Ntense[?e, president(?p)] & At[y1995, Past[?e, visiting(?p, athens)]]",
        "For[minute, 2, Past[?e, circling(ba737)]]",
        "Past[?e1, Perf[?e2, Culm[inspecting(jadams, ba737)]]]",
        "(a(x) & b(x)) & c(x)",
    ],
)
def test_round_trip(text):
    f = parse_top(text)
    assert parse_top(print_top(f)) == f


#: one argument per kind of `top.SHAPES`, but two for `now` or a variable
#: and for a quantity; a formula argument takes every smaller formula
_VOCABULARY = {
    "L": [top.Literal("q", (Const("a"),))],
    "V": [Var("v")],
    "T": [Const("k")],
    "W": [None, Var("w")],
    "Q": [1, 2],
    "N": ["gp"],
    "C": ["cp"],
}


def _formulas(depth):
    """Every formula of at most depth operators around the one literal."""
    if depth == 0:
        return list(_VOCABULARY["L"])
    smaller = _formulas(depth - 1)
    out = list(_VOCABULARY["L"])
    for op, shape in top.SHAPES.items():
        choices = [smaller if kind == "F" else _VOCABULARY[kind] for kind in shape]
        out += [op(*args) for args in itertools.product(*choices)]
    return out


def test_every_formula_of_depth_two_round_trips():
    formulas = _formulas(2)
    assert len(formulas) == 157
    for f in formulas:
        assert parse_top(print_top(f)) == f, f


def test_free_vars_examples():
    assert free_vars(parse_top("Past[?e, empty(tank5)]")) == {"e"}
    shared = parse_top(
        "Ntense[?e, president(?p)] & At[y1995, Past[?e, visiting(?p, athens)]]"
    )
    assert free_vars(shared) == {"e", "p"}
    assert free_vars(parse_top("empty(tank5)")) == set()
    ordered = top.free_vars_ordered(
        parse_top("At[?w, Past[?e, q(?z, ?e)]]")
    )
    assert ordered == ["w", "e", "z"]


def test_arity_error():
    with pytest.raises(ArityError):
        parse_top("q(a) & q(a, b)")
    with pytest.raises(ArityError):
        parse_top("Culm[q(a)] & q(a, b)")


def test_reserved_words_rejected():
    with pytest.raises(ParseError):
        parse_top("Past(x)")  # operator used like a functor
    with pytest.raises(ParseError):
        parse_top("empty(now)")  # `now` only anchors Ntense


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_top("At[d_jan,\n  Past[?e empty(tank5)]]")
    assert err.value.line == 2
    assert err.value.column > 0


def test_comments_and_whitespace_ignored():
    f = parse_top("At[ d_jan ,  # the day in question\n Past[?e, empty( tank5 )]]")
    assert f == parse_top("At[d_jan, Past[?e, empty(tank5)]]")
