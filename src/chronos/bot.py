"""The BOT language: first-order-style formulas over points and periods.

BOT formulas are conjunctions of atoms; the only non-classical ingredients
are point expressions (beg, now, end, earliest, latest, succ), period
expressions (bracketed intervals, intersect, and direct term references),
and a handful of special predicates (subper, eq, period, part, prec).
A point expression can be undefined (successor of the last point, bounds
of an empty set); undefinedness is absorbing through expressions and
collapses to false at every atom.
"""
from __future__ import annotations

from functools import partial

from . import lexer
from .core import (
    EMPTY,
    UNDEFINED,
    And,
    Assignment,
    BotModel,
    Compiler,
    Const,
    Literal,
    Period,
    Record,
    UnknownFunctor,
    Var,
    _closure,
    _eq,
    _is_period,
    _lift,
    _row,
    evaluate,
    intersect,
    print_chain,
)
# the one symbol walk, shared with TOP; BOT keeps its own `functors`
from .core import free_vars, free_vars_ordered, symbols  # noqa: F401


# ---------------------------------------------------------------------------
# Abstract syntax: point expressions


class Beg(Record):
    pass


class Now(Record):
    pass


class End(Record):
    pass


class Earliest(Record):
    per: object


class Latest(Record):
    per: object


class Succ(Record):
    point: object


# Period expressions


class Interval(Record):
    lo: object
    hi: object
    lo_closed: bool = True
    hi_closed: bool = True


class Intersect(Record):
    left: object
    right: object


class TermRef(Record):
    """A constant or variable used where a period expression is expected."""

    term: object


# Formulas: `Literal` and `And` from core, and the special atoms


class Subper(Record):
    left: object
    right: object


class Eq(Record):
    left: object
    right: object


class IsPeriod(Record):
    term: object


class InPart(Record):
    part: str
    term: object


class Prec(Record):
    left: object
    right: object


# ---------------------------------------------------------------------------
# Conjuncts and symbols


def flatten(f) -> list:
    """Conjunct list of a formula, left to right."""
    out, todo = [], [f]
    while todo:
        f = todo.pop()
        while type(f) is And:
            todo.append(f.right)
            f = f.left
        out.append(f)
    return out


def functors(f) -> set:
    """All predicate functor names; they occur only at atoms."""
    return {a.functor for a in flatten(f) if type(a) is Literal}


# ---------------------------------------------------------------------------
# Concrete syntax

#: each constructor's keyword, what it makes (X a point expression, P a
#: period expression, A an atom) and its parenthesised arguments in
#: order, one letter each by kind: X point expression, P period
#: expression, T term and N partitioning name. A constructor's fields are
#: its arguments in this order, and one with none is its bare keyword.
#: The parser and the printer read each argument by its kind; an
#: interval, a term used as a period (`TermRef`), a literal and ``&``
#: have syntax of their own.
SHAPES = {
    Beg: ("beg", "X", ""),
    Now: ("now", "X", ""),
    End: ("end", "X", ""),
    Earliest: ("earliest", "X", "P"),
    Latest: ("latest", "X", "P"),
    Succ: ("succ", "X", "X"),
    Intersect: ("intersect", "P", "PP"),
    Subper: ("subper", "A", "PP"),
    Eq: ("eq", "A", "TT"),
    IsPeriod: ("period", "A", "T"),
    InPart: ("part", "A", "NT"),
    Prec: ("prec", "A", "XX"),
}
#: keyword -> (constructor, what it makes, argument kinds), a constructor
#: of no arguments given by its one node; the keywords are reserved, so no
#: constant or functor is spelled as one
_KEYWORDS = {word: (cls if args else cls(), makes, args)
             for cls, (word, makes, args) in SHAPES.items()}
#: the one node of each bare keyword, which the parser returns
BEG, NOW, END = (_KEYWORDS[word][0] for word in ("beg", "now", "end"))
_POINT_TYPES = tuple(cls for cls, shape in SHAPES.items() if shape[1] == "X")
_PERIOD_TYPES = (Interval, TermRef, *(cls for cls, shape in SHAPES.items()
                                     if shape[1] == "P"))


class _BotParser(lexer.Parser):
    # translating a TOP formula at most doubles its nesting, groups and
    # intersect chains both growing with the operators around them
    max_depth = 2 * lexer.MAX_DEPTH + 2

    def unit(self):
        name = self.tokens[self.pos]
        if name in _KEYWORDS:
            return self.term("A")
        if name[:1] in lexer.KINDS:
            self.error("expected an atomic formula")
        return self.literal()

    def term(self, kind="T"):
        """The argument of a kind, T by default, at the cursor, or with A
        the atom a keyword starts there. A keyword reads its arguments
        here by their kinds, so a nesting level takes one frame; a point
        or period keyword enters a level, an atom does not."""
        tokens = self.tokens
        name = tokens[self.pos]
        head = name[:1]
        if head == "?" and kind != "X":
            self.pos += 1
            return self.vars[name] if kind == "T" else TermRef(self.vars[name])
        if head not in lexer.KINDS:
            shape = _KEYWORDS.get(name)
            if shape is None:
                if kind != "X":
                    self.pos += 1
                    const = self.consts[name]
                    return const if kind == "T" else TermRef(const)
            elif shape[1] == kind or kind == "T" and shape[1] != "A":
                make, sort, args = shape
                if not args:
                    self.pos += 1
                    return make  # the node itself
                nests = sort != "A"
                if nests:
                    self.enter()
                self.pos += 1
                if tokens[self.pos] != "(":
                    self.expect("(")  # raises
                self.pos += 1
                first = (self.expect(lexer.IDENT, "partitioning name")
                         if args[0] == "N" else self.term(args[0]))
                if len(args) > 1:
                    if tokens[self.pos] != ",":
                        self.expect(",")  # raises
                    self.pos += 1
                    node = make(first, self.term(args[1]))
                else:
                    node = make(first)
                if tokens[self.pos] != ")":
                    self.expect(")")  # raises
                self.pos += 1
                self.depth -= nests
                return node
            elif kind == "T" or kind == "A":
                self.error(f"misplaced keyword {name!r}")
        elif (name == "[" or name == "(") and kind != "X":
            self.pos += 1
            lo = self.term("X")
            if tokens[self.pos] != ",":
                self.expect(",")  # raises
            self.pos += 1
            hi = self.term("X")
            close = tokens[self.pos]
            if close != "]" and close != ")":
                self.error("expected ']' or ')' closing an interval")
            self.pos += 1
            return Interval(lo, hi, name == "[", close == "]")
        if kind == "X":
            if head in lexer.KINDS:
                self.expect(lexer.IDENT, "point expression")
            self.error(f"expected point expression, found {name!r}")
        self.error("expected a period expression" if kind == "P"
                   else "expected a term")


def parse_bot(text: str):
    """Parse concrete BOT syntax into an AST; raises ParseError/ArityError."""
    return _BotParser(text).parse()


def _print(x, atom=False):
    """The concrete syntax of a term, or with atom of a formula. A
    constructor prints its arguments by their kinds, one frame per
    nesting level, and a node in the wrong place raises TypeError."""
    t = type(x)
    if atom:
        if t is Literal:
            return f"{x.functor}({', '.join(map(_print, x.args))})"
        if t is And:
            return print_chain(x, print_bot)
    elif t is Var:
        return "?" + x.name
    elif t is Const:
        return x.name
    elif t is Interval:
        return (f"{'[' if x.lo_closed else '('}{_print(x.lo)}, "
                f"{_print(x.hi)}{']' if x.hi_closed else ')'}")
    elif t is TermRef:
        return _print(x.term)
    shape = SHAPES.get(t)
    if shape is None or (shape[1] == "A") is not atom:
        raise TypeError(f"not a BOT {'formula' if atom else 'term'}: {x!r}")
    word, _, args = shape
    if not args:
        return word
    if len(args) == 1:
        return f"{word}({_print(getattr(x, t._fields[0]))})"
    a, b = t._values(x)
    return f"{word}({a if args[0] == 'N' else _print(a)}, {_print(b)})"


def print_bot(f) -> str:
    """Canonical concrete syntax; parse_bot(print_bot(f)) == f."""
    return _print(f, True)


# ---------------------------------------------------------------------------
# Evaluation: each conjunct is compiled once into a closure g -> bool


# The value functions: each part's denotation as a function of its
# operands' denotations, beside core's `intersect`, `subper`, `_eq` and
# `_is_period`.  UNDEFINED is absorbing, and false at every atom.


def _earliest(p):
    return p.lo if type(p) is Period else UNDEFINED


def _latest(p):
    return p.hi if type(p) is Period else UNDEFINED


def _as_period(v):
    return v if type(v) is Period else UNDEFINED


def _span(lo_shift, hi_shift, a, b):
    """The period from point a to point b, an open end moved in by one."""
    if a is UNDEFINED or b is UNDEFINED:
        return UNDEFINED
    a += lo_shift
    b -= hi_shift
    return Period(a, b) if a <= b else EMPTY


def _prec(x, y):
    return x is not UNDEFINED and y is not UNDEFINED and x < y


def _point(e):
    """e, once checked to be a point expression; the check returns before
    the compiler descends, so it costs no frame per level."""
    if type(e) not in _POINT_TYPES:
        raise TypeError(f"not a point expression: {e!r}")
    return e


def _period(e):
    """e, once checked to be a period expression."""
    if type(e) not in _PERIOD_TYPES:
        raise TypeError(f"not a period expression: {e!r}")
    return e


class _Compiler(Compiler):
    """Compiles BOT expressions against one model and speech time.

    One walk over a conjunct gives its test and its variables in
    first-occurrence order, and narrows `plan` by the candidate filters it
    implies.  Every part compiles to an operand (see `core._lift`): a
    variable to its lookup, a constant or anchor to its value, and every
    other part to its value function lifted over its operands.  A part is
    folded, its operand holding its value, exactly when it reads no name,
    so exactly when it names no variable.  A conjunct's scope is the names
    of its operands.  `term`
    recurses into `term` directly, one frame per nesting level.  A
    functor, constant or partitioning the model lacks raises
    UnknownFunctor, UnknownConstant or UnknownPartitioning where it is
    looked up, in reading order.
    """

    def __init__(self, m: BotModel, st: int):
        super().__init__(m, st)
        self.last = last = m.timeline.t_last
        self.succ = lambda v: UNDEFINED if v is UNDEFINED or v >= last else v + 1

    def conjunct(self, f):
        """(test g -> bool, the names it reads in reading order, repeats
        included), a pair `CandidatePlan.search` takes."""
        test = self.atom(f)
        return _closure(test), test[1]

    def term(self, t):
        tt = type(t)
        if tt is Var or tt is Const:
            return Compiler.term(self, t)  # super() would build a proxy per name
        if tt is Beg or tt is Now or tt is End:
            return (0 if tt is Beg else self.st if tt is Now else self.last), ()
        if tt is Earliest or tt is Latest:
            bound = _earliest if tt is Earliest else _latest
            return _lift(bound, self.term(_period(t.per)))
        if tt is Succ:
            return _lift(self.succ, self.term(_point(t.point)))
        if tt is Interval:
            span = partial(_span, 0 if t.lo_closed else 1, 0 if t.hi_closed else 1)
            return _lift(span, self.term(_point(t.lo)), self.term(_point(t.hi)))
        if tt is Intersect:
            return _lift(intersect, self.term(_period(t.left)),
                         self.term(_period(t.right)))
        if tt is TermRef:
            return _lift(_as_period, self.period(t.term))
        raise TypeError(f"not a BOT term: {t!r}")

    def atom(self, f):
        t = type(f)
        if t is Literal:
            return self._literal(f)
        if t is Subper:
            return self._subper(self._operand(f.left), self._operand(f.right))
        if t is Eq:
            return self._equal(self.term(f.left), self.term(f.right))
        if t is IsPeriod:
            return _lift(_is_period, self.period(f.term))
        if t is InPart:
            return _lift(*self._in_part(f.part, f.term))
        if t is Prec:
            return _lift(_prec, self.term(_point(f.left)),
                         self.term(_point(f.right)))
        raise TypeError(f"not a BOT formula: {f!r}")

    def _operand(self, e):
        """A subper operand: a variable or constant is read as it is, since
        subper rejects anything but a period anyway."""
        if type(e) is TermRef:
            return self.period(e.term)
        return self.term(_period(e))

    def _literal(self, f):
        tuples = self.m.true_tuples(f.functor, len(f.args))
        if tuples is None:
            raise UnknownFunctor(f"unknown functor {f.functor}/{len(f.args)}")
        # no true tuple holds UNDEFINED or EMPTY, so neither needs a guard
        operands = [self.term(a) for a in f.args]
        self._semijoin(tuples, f.args, operands)
        return _lift(tuples.__contains__, _row(operands))


def eval_point(m: BotModel, st: int, g: Assignment, e):
    """Time-point denoted by a point expression, or UNDEFINED."""
    return evaluate(_closure(_Compiler(m, st).term(_point(e))), g)


def eval_period(m: BotModel, st: int, g: Assignment, e):
    """Point set denoted by a period expression: Period, EMPTY, or UNDEFINED."""
    return evaluate(_closure(_Compiler(m, st).term(_period(e))), g)


def eval_bot(m: BotModel, st: int, g: Assignment, f) -> bool:
    """Truth of a formula under a full assignment of its variables.

    Atoms with an undefined argument are false; subper and part require
    period denotations, eq requires identical defined denotations.  Every
    conjunct is compiled before any is evaluated, so an unknown name
    raises whatever the assignment.
    """
    compiler = _Compiler(m, st)
    tests = [compiler.conjunct(atom) for atom in flatten(f)]
    return all(evaluate(test, g) for test, _ in tests)


def denot_bot_witness(m: BotModel, st: int, f):
    """First assignment satisfying f, or None.

    Variables are assigned in first-occurrence order, values in object
    enumeration order (atoms first, then periods).  Each conjunct is
    checked as soon as all its variables are bound, so failing branches
    are cut early, and a variable only takes the values its candidate plan
    allows; the witness is the one full nested enumeration over the same
    orders would find first.
    """
    compiler = _Compiler(m, st)
    conjuncts = [compiler.conjunct(atom) for atom in flatten(f)]
    return compiler.plan.search(conjuncts)


def denot_bot(m: BotModel, st: int, f) -> bool:
    """Top-level denotation: true iff some assignment satisfies f."""
    return denot_bot_witness(m, st, f) is not None
