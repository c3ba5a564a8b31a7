"""The package tokenizer against the character-loop reference.

The package states its lexical rules once, in the pattern `lexer._TEXT`.
`tokens.tokenize` joins the texts the parsers read (`lexer._texts`) with
the offsets errors are reported at (`lexer._starts`). It must give the
reference's (kind, text, line, column) tuples for a text, or raise a
ParseError with the same message, line and column. The texts alone must
be the reference tokens' texts one for one, or the same ParseError.
"""
import random
import re
import sys

import pytest

import reference
from chronos.lexer import EOF, IDENT, INT, VAR, ParseError, _texts
from tokens import Token, tokenize

#: every code point outside the surrogates
ALL = "".join(chr(c) for c in range(sys.maxunicode + 1)
              if not 0xD800 <= c <= 0xDFFF)
#: identifier characters by the documented rule
WORD = "".join(c for c in ALL if c.isalnum() or c == "_")


def _outcome(tokenizer, text):
    try:
        return [tuple(tok) for tok in tokenizer(text)]
    except ParseError as e:
        return type(e), e.message, e.line, e.column


def _same(text):
    got = _outcome(tokenize, text)
    assert got == _outcome(reference.tokenize, text), repr(text)
    return got


def test_tokens_are_named_tuples():
    tok = tokenize("?x")[0]
    assert type(tok) is Token
    assert (tok.kind, tok.text, tok.line, tok.column) == (VAR, "x", 1, 1)


def test_word_class_is_isalnum_or_underscore_on_every_code_point():
    # the pattern's \w is exactly the reference's identifier character
    assert "".join(re.findall(r"\w", ALL)) == WORD
    # every identifier character continues an identifier and a variable
    assert _same("_" + WORD) == [(IDENT, "_" + WORD, 1, 1),
                                 (EOF, "", 1, len(WORD) + 2)]
    assert _same("?_" + WORD)[0] == (VAR, "_" + WORD, 1, 1)
    # every letter starts an identifier
    letters = [c for c in WORD if c.isalpha()]
    assert _same(" ".join(letters))[-1] == (EOF, "", 1, 2 * len(letters))


def test_other_word_characters_cannot_start_a_name():
    # digits, numerals and fractions of every script, ASCII digits aside
    heads = [c for c in WORD
             if not (c.isalpha() or c == "_" or c in "0123456789")]
    assert len(heads) > 1000
    for c in heads:
        assert _same(c) == (ParseError, f"unexpected character {c!r}", 1, 1)
        assert _same("?" + c) == (
            ParseError, "expected identifier after '?'", 1, 1)


def test_characters_below_u0800_after_a_name():
    for c in ALL[:0x800]:
        _same("_" + c)
        _same("a " + c + "b")


_ALPHABET = "[](),&?#_abzAZ0123456789 \t\r\n"
_EXOTIC = "²٣Ⅷ½éΩǅ〇𝟘\xa0\x0b"


def _random_strings():
    rng = random.Random(1975)
    for _ in range(6000):
        n = rng.randrange(24)
        yield "".join(
            rng.choice(_EXOTIC) if rng.random() < 0.03
            else rng.choice(_ALPHABET) for _ in range(n))


def test_random_strings_match_the_reference():
    errors = 0
    for text in _random_strings():
        if isinstance(_same(text), tuple):
            errors += 1
    # both outcomes are well represented
    assert 1000 < errors < 5000


FIXED = [
    # a comment does not move the end-of-input column ...
    ("p(a) # note", [(IDENT, "p", 1, 1), ("(", "(", 1, 2),
                     (IDENT, "a", 1, 3), (")", ")", 1, 4), (EOF, "", 1, 6)]),
    ("#", [(EOF, "", 1, 1)]),
    ("a #x\n# y\n  #z", [(IDENT, "a", 1, 1), (EOF, "", 3, 3)]),
    # ... but trailing blanks do, a tab counting as one column
    ("a \t\r", [(IDENT, "a", 1, 1), (EOF, "", 1, 5)]),
    ("", [(EOF, "", 1, 1)]),
    ("\n", [(EOF, "", 2, 1)]),
    ("?", (ParseError, "expected identifier after '?'", 1, 1)),
    ("a & ?", (ParseError, "expected identifier after '?'", 1, 5)),
    ("?2", (ParseError, "expected identifier after '?'", 1, 1)),
    ("?_2 12ab", [(VAR, "_2", 1, 1), (INT, "12", 1, 5), (IDENT, "ab", 1, 7),
                  (EOF, "", 1, 9)]),
    ("p(a,\r\n  ?é)\r\n", [(IDENT, "p", 1, 1), ("(", "(", 1, 2),
                          (IDENT, "a", 1, 3), (",", ",", 1, 4),
                          (VAR, "é", 2, 3), (")", ")", 2, 5),
                          (EOF, "", 3, 1)]),
    ("a\n b\xa0", (ParseError, "unexpected character '\\xa0'", 2, 3)),
    ("x٣ ٣x", (ParseError, "unexpected character '٣'", 1, 4)),
]


@pytest.mark.parametrize("text, expected", FIXED)
def test_fixed_cases(text, expected):
    assert _same(text) == expected


def _texts_agree(text):
    """`_texts` gives each reference token's text, a variable's with its
    "?", or raises the reference's error."""
    expected = _outcome(reference.tokenize, text)
    if not isinstance(expected, tuple):
        expected = ["?" + word if kind == VAR else word
                    for kind, word, _, _ in expected]
    try:
        got = _texts(text)
    except ParseError as e:
        got = type(e), e.message, e.line, e.column
    assert got == expected, repr(text)


def test_token_texts_agree_with_the_tokens():
    for text in _random_strings():
        _texts_agree(text)
    for text, _ in FIXED:
        _texts_agree(text)
    for c in _EXOTIC + "$?#\x00\u2028":
        for context in ("{}", "a{}", "{}a", "?{}", "?a{}", "1{}", "1{}a",
                        "p(a) {}", "{} p(a)", "# {}\np", "p(a) # {}",
                        "{}\n", "a\n{}"):
            _texts_agree(context.format(c))
    # every identifier character, and every one that cannot start a name
    _texts_agree("_" + WORD)
    _texts_agree("?_" + WORD)
    for c in WORD:
        if not (c.isalpha() or c == "_"):
            _texts_agree(c)
            _texts_agree("?" + c)
            _texts_agree("a " + c)
