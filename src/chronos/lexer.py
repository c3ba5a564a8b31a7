"""Tokenizer and the recursive-descent core shared by the TOP and BOT parsers.

Both syntaxes share these lexical rules. An identifier starts with a
letter (``str.isalpha``, non-ASCII letters included) or ``_`` and goes on
with letters, digits (``str.isalnum``) or ``_``; model files declare names
by the same rule (`is_identifier`). A variable is ``?`` and an identifier.
An integer is a run of ASCII digits ``0-9``. The punctuation is
``[ ] ( ) , &``. Blanks are space, tab and carriage return, and a comment
runs from ``#`` to the end of the line.

One pattern, `_TEXT`, states these rules. The parsers read the texts of
the tokens, from one ``findall`` per formula (`_texts`): a variable keeps
its ``?``, and end of input is ``""``. A text that is no token's is a
lexical error, raised before parsing begins. A line and column are looked
up (`_starts`) only when an error is raised. They are 1-based, a tab being
one column, and an error is reported at the start of its token. End of
input sits after the last character, trailing blanks included, but a
trailing comment does not move it: end of input is then reported at the
``#``.

`Parser` holds what both grammars share: the cursor, errors, ``&`` chains
of any length, groups, literals with one arity per functor, and a cap on
nesting depth that keeps the descent inside Python's recursion limit.
"""
from __future__ import annotations

import re

from .core import Const, Literal, Var, conjoin

#: how deep TOP formulas may nest; BOT allows more (see bot._BotParser)
MAX_DEPTH = 200

#: the largest quantity For takes: translating For[P, n, ...] builds about
#: two conjuncts per block, so an unbounded n exhausts memory
MAX_QUANTITY = 10_000


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


# A kind is IDENT, VAR, INT, EOF or the punctuation character itself. The
# first four are spelled as no token is, so a text equals a kind only when
# it is that punctuation, and ``var`` or ``eof`` is always an identifier.
IDENT = "<ident>"
VAR = "<var>"
INT = "<int>"
EOF = "<eof>"

#: the kind of a token text by its first character; a text whose first
#: character is not a key here is an identifier
KINDS = {"": EOF, "?": VAR, **dict.fromkeys("0123456789", INT),
         **{c: c for c in "[](),&"}}


# Blanks and comments, then the text of one token: a run of ASCII digits
# ends a word, a variable keeps its "?", and end of input is "". A name
# starts with \w other than a decimal digit, which in ASCII is a letter or
# "_"; \w is exactly str.isalnum() or "_". Any other character, or a "?"
# without a name, takes the rest of the input as its text, the last before
# the end. Some alternative matches wherever the blanks end, so they never
# backtrack.
_TEXT = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"([\[\](),&]|[0-9]+|\??[^\W\d]\w*|(?s:.+)|\Z)")


def _texts(text: str) -> list:
    """The token texts of text; raises the ParseError of the first text
    that is no token's, at its start."""
    texts = _TEXT.findall(text)
    if texts[-2:] == ["", ""]:  # after trailing blanks the end matches twice
        texts.pop()
    # In ASCII only the last text can be no token's; outside it a name may
    # also start with a numeral such as "²"
    if not text.isascii() or len(texts) > 1 and not _is_token(texts[-2]):
        for i, word in enumerate(texts):
            if not _is_token(word):
                message = ("expected identifier after '?'" if word[0] == "?"
                           else f"unexpected character {word[0]!r}")
                raise ParseError(message, *_position(text, i))
    return texts


def _starts(text: str) -> list:
    """The offset in text of each token of `_texts(text)`. End of input
    sits after the last character, or at the "#" of a trailing comment."""
    starts = [m.start(1) for m in _TEXT.finditer(text)]
    if starts[-2:] == [len(text)] * 2:  # the end, matched twice
        starts.pop()
    comment = text.find("#", text.rfind("\n") + 1)
    if comment >= 0:  # a "#" on the last line starts a trailing comment
        starts[-1] = comment
    return starts


def _position(text: str, index: int) -> tuple:
    """The line and column of the token at index in `_texts(text)`."""
    offset = _starts(text)[index]
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _is_token(text: str) -> bool:
    kind = KINDS.get(text[:1], IDENT)
    if kind == VAR:
        return is_identifier(text[1:])
    return kind != IDENT or is_identifier(text)


def is_identifier(name: str) -> bool:
    """True iff name is one identifier token: the rule model files follow
    for the names they declare."""
    head = name[:1]  # the rest is \w, that is str.isalnum() or "_"
    return (head.isalpha() or head == "_") and name.replace("_", "a").isalnum()


class Parser:
    """Recursive descent over the token texts of one text, with an integer
    cursor.

    A language adds `unit`, an operand of ``&`` other than a group, and
    `term`, an argument of a literal. They read the texts of `_texts` and
    test kinds on the texts inline: punctuation is its own text, a variable
    starts with ``?``, and an identifier's first character is no key of
    `KINDS`. `error` looks a token's line and column up in `_starts` only
    when it raises. A nested construct calls `enter` at its opening token
    and lowers `depth` when it closes. Within one parse, each variable or
    constant name is one `Var` or `Const` object.
    """

    reserved = frozenset()  # names that cannot be a functor
    max_depth = MAX_DEPTH

    def __init__(self, text: str):
        self.text = text
        self.tokens = _texts(text)
        self.pos = 0
        self.depth = 0
        self.arities = {}
        self.vars = _Leaves(_var)
        self.consts = _Leaves(Const)

    def parse(self):
        f = self.formula()
        self.expect(EOF, "end of input")
        return f

    def error(self, message: str, at: int | None = None, cls=ParseError):
        """Raise a cls at the token at index at, by default the current one."""
        raise cls(message, *_position(self.text, self.pos if at is None else at))

    def expect(self, kind: str, what: str | None = None) -> str:
        """The current token's text, after which the cursor moves on; an
        error unless the token is of that kind."""
        text = self.tokens[self.pos]
        if text != kind and KINDS.get(text[:1], IDENT) != kind:
            found = text[1:] if text[:1] == "?" else text or "end of input"
            self.error(f"expected {what or kind}, found {found!r}")
        self.pos += 1
        return text

    def enter(self):
        """One level deeper, at the opening token of a nested construct."""
        self.depth += 1
        if self.depth > self.max_depth:
            self.error(f"nesting deeper than {self.max_depth} levels")

    def formula(self):
        """unit (& unit)*, conjoined into a right-nested And; a unit is the
        language's own or a parenthesised formula, a group."""
        tokens = self.tokens
        units = []
        while True:
            if tokens[self.pos] == "(":
                self.enter()
                self.pos += 1
                f = self.formula()
                self.expect(")")
                self.depth -= 1
            else:
                f = self.unit()
            units.append(f)
            if tokens[self.pos] != "&":
                return conjoin(units)
            self.pos += 1

    def literal(self):
        """functor(term, ...); a functor keeps the arity it is first used with."""
        at = self.pos
        functor = self.expect(IDENT, "predicate functor")
        if functor in self.reserved:
            self.error(f"{functor!r} is reserved and cannot be a functor", at)
        self.expect("(")
        tokens = self.tokens
        args = [self.term()]
        while tokens[self.pos] == ",":
            self.pos += 1
            args.append(self.term())
        self.expect(")")
        n = len(args)
        seen = self.arities.setdefault(functor, n)
        if seen != n:
            self.error(f"functor {functor!r} used with arity {n} after {seen}",
                       at, ArityError)
        return Literal(functor, tuple(args))


def _var(text: str) -> Var:
    return Var(text[1:])


class _Leaves(dict):
    """token text -> leaf, made on first lookup."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, name):
        leaf = self[name] = self.make(name)
        return leaf
