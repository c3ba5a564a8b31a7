"""Model-file compilation, validation hook, and serialization round trips."""
import pytest

from chronos.core import Period
from chronos.lexer import EOF, IDENT, ParseError, is_identifier
from tokens import tokenize
from chronos.modelfile import (
    MAX_TIMELINE,
    ModelFileError,
    ModelValidationError,
    format_model,
    load_model,
    parse_model,
)

P = Period


def test_compile_fixture(m0):
    m, st = m0.model, m0.speech
    assert st == 7
    assert m.timeline.size == 10
    assert m.consts["d_jan"] == P(3, 4)
    assert m.preds[("empty", 1)][("tank5",)] == frozenset({P(2, 5)})
    assert m.culms[("building", 2)][("housecorp", "bridge2")] is True
    assert len(m.cparts["minute"].blocks) == 10
    assert m.gparts["fivepm"].blocks == (P(3, 3), P(7, 7))


def test_round_trip(m0):
    text = format_model(m0.model, m0.speech)
    again = parse_model(text)
    assert again.model == m0.model
    assert again.speech == m0.speech
    assert parse_model(format_model(again.model, again.speech)).model == m0.model


def test_blocks_must_divide():
    text = "timeline 10\nspeech 0\ncpart minute = blocks 3\n"
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert "divide" in str(err.value)


def test_explicit_cpart_blocks():
    cm = parse_model(
        "timeline 5\nspeech 1\nobject a\npred q/1\nmaximal q(a) = [0,1]\n"
        "cpart c = [0,1] [2,4]\ngpart g = [1,1]\n"
    )
    assert cm.model.cparts["c"].blocks == (P(0, 1), P(2, 4))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("timeline 0\nspeech 0\n", "positive size"),
        ("timeline 5\n", "missing speech"),
        ("speech 1\n", "missing timeline"),
        ("timeline 5\nspeech 9\n", "off the timeline"),
        ("timeline 5\nspeech 1\nnonsense 4\n", "unknown directive"),
        ("timeline 5\nspeech 1\nobject a\nobject a\n", "declared twice"),
        ("timeline 5\nspeech 1\nmaximal q(a) = [0,1]\n", "undeclared predicate"),
        ("timeline 5\nspeech 1\npred q/1\nmaximal q(a) = [0,1]\n", "undeclared constant"),
        ("timeline 5\nspeech 1\nobject a\npred q/2\nmaximal q(a) = [0,1]\n", "arguments"),
        ("timeline 5\nspeech 1\nobject a\npred q/1\nculm q(a) = yes\n", "true or false"),
        ("timeline 5\nspeech 1\nperiodconst d = [3,1]\n", "invalid period"),
        ("timeline 5\nspeech 1\ncpart c = [0,1] [1,4]\n", "overlapping"),
    ],
)
def test_compile_errors(text, fragment):
    with pytest.raises(ModelFileError) as err:
        parse_model(text)
    assert fragment in str(err.value)


def test_validation_failures_are_reported():
    merged = (
        "timeline 8\nspeech 2\nobject a\npred q/1\n"
        "maximal q(a) = [1,2] [3,4]\n"
    )
    with pytest.raises(ModelValidationError) as err:
        parse_model(merged)
    assert any(v.code == "MergeablePeriods" for v in err.value.violations)

    gapped = "timeline 8\nspeech 2\ncpart c = [0,2] [4,7]\n"
    with pytest.raises(ModelValidationError) as err:
        parse_model(gapped)
    assert any(v.code == "IncompletePartitioning" for v in err.value.violations)

    covering = "timeline 4\nspeech 2\ngpart g = [0,1] [2,3]\n"
    with pytest.raises(ModelValidationError) as err:
        parse_model(covering)
    assert any(v.code == "GappyCoversAll" for v in err.value.violations)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
@pytest.mark.parametrize(
    "text, fragment",
    [
        ("timeline {d}\nspeech 1\n", "timeline needs a positive size"),
        ("timeline 5\nspeech {d}\n", "speech needs a time-point"),
        ("timeline 5\nspeech 1\nperiodconst p = [{d},4]\n", "expected period list"),
        ("timeline 5\nspeech 1\npred q/{d}\n", "pred name/arity"),
        ("timeline 5\nspeech 1\ncpart c = blocks {d}\n", "expected period list"),
    ],
)
def test_numbers_take_ascii_digits_only(text, fragment, digit):
    """int() reads '٣' as 3 and fails on '²'; both are input errors."""
    with pytest.raises(ModelFileError) as err:
        parse_model(text.format(d=digit))
    assert fragment in str(err.value)
    assert err.value.line == text.count("\n", 0, text.index("{d}")) + 1


@pytest.mark.parametrize(
    "text",
    [
        "timeline {n}\nspeech 1\n",
        "timeline 5\nspeech {n}\n",
        "timeline 5\nspeech 1\nperiodconst p = [1,{n}]\n",
        "timeline 5\nspeech 1\npred q/{n}\n",
        "timeline 5\nspeech 1\ncpart c = blocks {n}\n",
    ],
)
@pytest.mark.parametrize("n", [MAX_TIMELINE + 1, 100_000, "9" * 5000])
def test_numbers_over_the_cap_are_refused_at_their_line(text, n):
    """Every number is at most MAX_TIMELINE, also one int() would refuse."""
    with pytest.raises(ModelFileError) as err:
        parse_model(text.format(n=n))
    assert f"numbers are at most {MAX_TIMELINE}" in str(err.value)
    assert err.value.line == text.count("\n", 0, text.index("{n}")) + 1


def test_the_longest_timeline_compiles():
    cm = parse_model(f"timeline {MAX_TIMELINE}\nspeech {MAX_TIMELINE - 1}\n"
                     f"periodconst p = [0,{MAX_TIMELINE - 1}]\n"
                     f"cpart c = blocks 0{MAX_TIMELINE}\n")
    assert cm.model.timeline.size == MAX_TIMELINE
    assert cm.model.consts["p"] == P(0, MAX_TIMELINE - 1)
    assert cm.model.cparts["c"].blocks == (P(0, MAX_TIMELINE - 1),)


def test_error_carries_line_number():
    with pytest.raises(ModelFileError) as err:
        parse_model("timeline 5\nspeech 1\nbogus directive\n")
    assert err.value.line == 3


def test_comments_and_blanks_ignored():
    cm = parse_model(
        "# header\n\ntimeline 4   # four points\nspeech 2\n\n"
        "object a\npred q/1\nmaximal q(a) = [0,1]\n"
    )
    assert cm.model.timeline.size == 4


@pytest.mark.parametrize("end", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_lines_end_only_at_universal_newlines(tmp_path, end):
    """Other line breaks stay inside a line, so a comment holding one runs
    on to the next newline, and text and file agree on line numbers."""
    text = (f"timeline 10 # ten points{end}long\r\nspeech 2\robject a # note"
            f"{end}more\npred q/1\nbogus")
    path = tmp_path / "ends.tmodel"
    path.write_bytes(text.encode("utf-8"))
    for load in (lambda: parse_model(text), lambda: load_model(path)):
        with pytest.raises(ModelFileError) as err:
            load()
        assert (err.value.line, err.value.message) == (
            5, "unknown directive 'bogus'")
    cm = parse_model(text.replace("bogus", "maximal q(a) = [1,2]"))
    assert cm.model.timeline.size == 10
    assert cm.speech == 2


def test_model_file_may_start_with_a_byte_order_mark(tmp_path, m0):
    path = tmp_path / "bom.tmodel"
    path.write_bytes(b"\xef\xbb\xbf" + format_model(m0.model, m0.speech).encode())
    cm = load_model(path)
    assert (cm.model, cm.speech) == (m0.model, m0.speech)


def _lexer_accepts(name):
    """True iff name is exactly one identifier token."""
    try:
        return [tok[:2] for tok in tokenize(name)] == [(IDENT, name), (EOF, "")]
    except ParseError:
        return False


@pytest.mark.parametrize("name", ["tank5", "Ω", "ǅ", "〇", "_x", "a²", "²a", "٣a"])
@pytest.mark.parametrize("directive", [
    "object {}", "periodconst {} = [0,1]", "pred {}/1", "cpart {} = blocks 1",
    "gpart {} = [0,0]",
])
def test_names_follow_the_formula_identifier_rule(name, directive):
    text = "timeline 4\nspeech 1\n" + directive.format(name) + "\n"
    try:
        parse_model(text)
        accepted = True
    except ModelFileError as e:
        assert e.line == 3
        accepted = False
    assert accepted == _lexer_accepts(name)


def test_identifier_rule_matches_the_lexer_below_u0800():
    for c in map(chr, range(0x800)):
        for name in (c, "a" + c, c + "a", "_" + c + "_"):
            assert is_identifier(name) == _lexer_accepts(name), repr(name)


def test_predicate_tuples_name_non_ascii_functors():
    cm = parse_model("timeline 4\nspeech 1\nobject Ωmega\npred ǅ/1\n"
                     "maximal ǅ(Ωmega) = [0,1]\n")
    assert cm.model.preds[("ǅ", 1)] == {("Ωmega",): frozenset({P(0, 1)})}
    with pytest.raises(ModelFileError) as err:
        parse_model("timeline 4\nspeech 1\nobject a\npred q/1\n"
                    "maximal ²q(a) = [0,1]\n")
    assert str(err.value) == "line 5: expected: functor(args) = ..."
