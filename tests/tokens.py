"""Tokens as named tuples, for tests. The parsers read only the token
texts of `chronos.lexer._texts`; the plain tuples of `chronos.lexer._scan`
give an error its line and column, and are looked up only then."""
from itertools import repeat
from typing import NamedTuple

from chronos.lexer import _scan


class Token(NamedTuple):
    kind: str  # IDENT, VAR, INT, EOF, or the punctuation character itself
    text: str
    line: int
    column: int


def tokenize(text: str) -> list:
    """The tokens of text as Tokens; raises ParseError."""
    return list(map(tuple.__new__, repeat(Token), _scan(text)))
