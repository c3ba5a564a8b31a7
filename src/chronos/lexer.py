"""Tokenizer and token-stream cursor shared by the TOP and BOT parsers.

Both concrete syntaxes use the same lexical inventory: identifiers,
``?``-prefixed variables, unsigned integers in ASCII digits, the
punctuation ``[ ] ( ) , &``, insignificant whitespace, and ``#`` line
comments.
"""
from __future__ import annotations

from dataclasses import dataclass


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

_PUNCT = "[](),&"
_DIGITS = "0123456789"  # str.isdigit also accepts other scripts' digits


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, VAR, INT, EOF, or the punctuation character itself
    text: str
    line: int
    column: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "?":
            j = i + 1
            if j >= n or not _is_ident_start(text[j]):
                raise ParseError("expected identifier after '?'", line, start_col)
            while j < n and _is_ident_char(text[j]):
                j += 1
            name = text[i + 1 : j]
            tokens.append(Token(VAR, name, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(Token(INT, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append(Token(IDENT, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token(EOF, "", line, col))
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
