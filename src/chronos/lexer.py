"""Tokenizer and token-stream cursor shared by the TOP and BOT parsers.

Both syntaxes share these lexical rules. An identifier starts with a
letter (``str.isalpha``, non-ASCII letters included) or ``_`` and goes on
with letters, digits (``str.isalnum``) or ``_``. A variable is ``?`` and an
identifier; its token text is the name alone. An integer is a run of ASCII
digits ``0-9``. The punctuation is ``[ ] ( ) , &``. Blanks are space, tab
and carriage return, and a comment runs from ``#`` to the end of the line.

Lines and columns are 1-based, a tab being one column, and an error is
reported at the start of its token. End of input sits after the last
character, trailing blanks included, but a trailing comment does not move
it: end of input is then reported at the ``#``.
"""
from __future__ import annotations

import re
from typing import NamedTuple


class ParseError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.message}"


class ArityError(ParseError):
    """A functor is used with two different arities in one formula."""


IDENT = "ident"
VAR = "var"
INT = "int"
EOF = "eof"


class Token(NamedTuple):
    kind: str  # IDENT, VAR, INT, EOF, or the punctuation character itself
    text: str
    line: int
    column: int


# Blanks, then one token. Group numbers are the dispatch keys below; \w is
# exactly str.isalnum() or "_", so only a word's first character needs a
# further check. The EOF group starts at a trailing comment's "#".
_SCAN = re.compile(
    r"[ \t\r]*(?:"
    r"([\[\](),&])"  # 1 punctuation
    r"|(\?\w*)"  # 2 variable
    r"|([0-9]+)"  # 3 integer
    r"|(\w+)"  # 4 identifier
    r"|(\n)"  # 5 newline
    r"|((?:#[^\n]*)?)\Z"  # 6 end of input
    r"|#[^\n]*"  # comment
    r"|(.))"  # 7 any other character
)


def tokenize(text: str) -> list:
    tokens = []
    append = tokens.append
    new = tuple.__new__
    line, base = 1, -1  # base: index of the newline before this line
    for m in _SCAN.finditer(text):
        group = m.lastindex
        if group is None:  # a comment
            continue
        word = m.group(group)
        col = m.start(group) - base
        if group == 4:
            head = word[0]
            if not (head.isalpha() or head == "_"):
                raise ParseError(f"unexpected character {head!r}", line, col)
            append(new(Token, (IDENT, word, line, col)))
        elif group == 1:
            append(new(Token, (word, word, line, col)))
        elif group == 2:
            if len(word) == 1 or not (word[1].isalpha() or word[1] == "_"):
                raise ParseError("expected identifier after '?'", line, col)
            append(new(Token, (VAR, word[1:], line, col)))
        elif group == 3:
            append(new(Token, (INT, word, line, col)))
        elif group == 5:
            line += 1
            base = m.end() - 1
        elif group == 6:
            append(new(Token, (EOF, "", line, col)))
            break
        else:
            raise ParseError(f"unexpected character {word!r}", line, col)
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text if tok.kind != EOF else "end of input"
            raise ParseError(
                f"expected {what or kind}, found {found!r}", tok.line, tok.column
            )
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)
