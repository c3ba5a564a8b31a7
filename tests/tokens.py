"""Tokens as named tuples, for tests. The parsers read only the token
texts of `chronos.lexer._texts`; `chronos.lexer._starts` gives the offset
of each, which becomes a line and column only when an error is raised.
`tokenize` joins the two into one (kind, text, line, column) tuple per
token, so tests can compare them with the character-loop reference."""
from typing import NamedTuple

from chronos.lexer import IDENT, KINDS, VAR, _starts, _texts


class Token(NamedTuple):
    kind: str  # IDENT, VAR, INT, EOF, or the punctuation character itself
    text: str
    line: int
    column: int


def tokenize(text: str) -> list:
    """The tokens of text as Tokens, a variable's text being its name
    alone; raises ParseError. Lines are counted in one pass over text."""
    tokens = []
    line, base, done = 1, -1, 0  # base: index of the newline before line
    for word, start in zip(_texts(text), _starts(text)):
        newlines = text.count("\n", done, start)
        if newlines:
            line += newlines
            base = text.rfind("\n", done, start)
        done = start
        kind = KINDS.get(word[:1], IDENT)
        tokens.append(Token(kind, word[1:] if kind == VAR else word,
                            line, start - base))
    return tokens
