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


BEG = Beg()
NOW = Now()
END = End()


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


_POINT_TYPES = (Beg, Now, End, Earliest, Latest, Succ)
_PERIOD_TYPES = (Interval, Intersect, TermRef)


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

_POINT_KEYWORDS = {"beg": BEG, "now": NOW, "end": END}
_BOUNDS = {"earliest": Earliest, "latest": Latest}
_ATOM_KEYWORDS = {"subper", "eq", "period", "part", "prec"}
_RESERVED = (_POINT_KEYWORDS.keys() | _BOUNDS.keys() | _ATOM_KEYWORDS
             | {"succ", "intersect"})


class _BotParser(lexer.Parser):
    # translating a TOP formula at most doubles its nesting, groups and
    # intersect chains both growing with the operators around them
    max_depth = 2 * lexer.MAX_DEPTH + 2

    def unit(self):
        name = self.tokens[self.pos]
        if name[:1] in lexer.KINDS:
            self.error("expected an atomic formula")
        if name not in _RESERVED:
            return self.literal()
        if name not in _ATOM_KEYWORDS:
            self.error(f"misplaced keyword {name!r}")
        self.pos += 1
        self.expect("(")
        if name == "subper":
            a = self.period_expr()
            self.expect(",")
            f = Subper(a, self.period_expr())
        elif name == "eq":
            a = self.term()
            self.expect(",")
            f = Eq(a, self.term())
        elif name == "prec":
            a = self.point_expr()
            self.expect(",")
            f = Prec(a, self.point_expr())
        elif name == "period":
            f = IsPeriod(self.term())
        else:  # part
            part = self.expect(lexer.IDENT, "partitioning name")
            self.expect(",")
            f = InPart(part, self.term())
        self.expect(")")
        return f

    def term(self):
        name = self.tokens[self.pos]
        head = name[:1]
        if head == "?":
            self.pos += 1
            return self.vars[name]
        if head not in lexer.KINDS:
            if name not in _RESERVED:
                self.pos += 1
                return self.consts[name]
            if name == "intersect":
                return self.period_expr()
            if name not in _ATOM_KEYWORDS:
                return self.point_expr()
            self.error(f"misplaced keyword {name!r}")
        if name == "[" or name == "(":
            return self.period_expr()
        self.error("expected a term")

    def point_expr(self):
        name = self.tokens[self.pos]
        if name[:1] in lexer.KINDS:
            self.expect(lexer.IDENT, "point expression")
        point = _POINT_KEYWORDS.get(name)
        if point is not None:
            self.pos += 1
            return point
        bound = _BOUNDS.get(name)
        if bound is None and name != "succ":
            self.error(f"expected point expression, found {name!r}")
        self.enter()
        self.pos += 1
        self.expect("(")
        e = Succ(self.point_expr()) if bound is None else bound(self.period_expr())
        self.expect(")")
        self.depth -= 1
        return e

    def period_expr(self):
        name = self.tokens[self.pos]
        head = name[:1]
        if head == "?":
            self.pos += 1
            return TermRef(self.vars[name])
        if name == "[" or name == "(":
            self.pos += 1
            lo = self.point_expr()
            self.expect(",")
            hi = self.point_expr()
            close = self.tokens[self.pos]
            if close != "]" and close != ")":
                self.error("expected ']' or ')' closing an interval")
            self.pos += 1
            return Interval(lo, hi, name == "[", close == "]")
        if head not in lexer.KINDS:
            if name not in _RESERVED:
                self.pos += 1
                return TermRef(self.consts[name])
            if name == "intersect":
                self.enter()
                self.pos += 1
                self.expect("(")
                a = self.period_expr()
                self.expect(",")
                f = Intersect(a, self.period_expr())
                self.expect(")")
                self.depth -= 1
                return f
        self.error("expected a period expression")


def parse_bot(text: str):
    """Parse concrete BOT syntax into an AST; raises ParseError/ArityError."""
    return _BotParser(text).parse()


def _fmt_term(t) -> str:
    tt = type(t)
    if tt in (Var, Const):
        return str(t)
    if tt is Beg:
        return "beg"
    if tt is Now:
        return "now"
    if tt is End:
        return "end"
    if tt is Earliest:
        return f"earliest({_fmt_term(t.per)})"
    if tt is Latest:
        return f"latest({_fmt_term(t.per)})"
    if tt is Succ:
        return f"succ({_fmt_term(t.point)})"
    if tt is Interval:
        lo = "[" if t.lo_closed else "("
        hi = "]" if t.hi_closed else ")"
        return f"{lo}{_fmt_term(t.lo)}, {_fmt_term(t.hi)}{hi}"
    if tt is Intersect:
        return f"intersect({_fmt_term(t.left)}, {_fmt_term(t.right)})"
    if tt is TermRef:
        return _fmt_term(t.term)
    raise TypeError(f"not a BOT term: {t!r}")


def print_bot(f) -> str:
    """Canonical concrete syntax; parse_bot(print_bot(f)) == f."""
    t = type(f)
    if t is And:
        return print_chain(f, print_bot)
    if t is Literal:
        return f"{f.functor}({', '.join(_fmt_term(a) for a in f.args)})"
    if t is Subper:
        return f"subper({_fmt_term(f.left)}, {_fmt_term(f.right)})"
    if t is Eq:
        return f"eq({_fmt_term(f.left)}, {_fmt_term(f.right)})"
    if t is IsPeriod:
        return f"period({_fmt_term(f.term)})"
    if t is InPart:
        return f"part({f.part}, {_fmt_term(f.term)})"
    if t is Prec:
        return f"prec({_fmt_term(f.left)}, {_fmt_term(f.right)})"
    raise TypeError(f"not a BOT formula: {f!r}")


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
        """(test g -> bool, the conjunct's variables in first-occurrence order)."""
        test = self.atom(f)
        return _closure(test), list(dict.fromkeys(test[1]))

    def term(self, t):
        tt = type(t)
        if tt is Var or tt is Const:
            return super().term(t)
        if tt is Beg or tt is Now or tt is End:
            return (0 if tt is Beg else self.st if tt is Now else self.last), ()
        if tt is Earliest or tt is Latest:
            bound = _earliest if tt is Earliest else _latest
            return _lift(bound, self.term(_period(t.per)))
        if tt is Succ:
            return _lift(self.succ, self.term(_point(t.point)))
        if tt is Interval:
            lo_shift = 0 if t.lo_closed else 1
            hi_shift = 0 if t.hi_closed else 1

            def span(a, b):
                if a is UNDEFINED or b is UNDEFINED:
                    return UNDEFINED
                a += lo_shift
                b -= hi_shift
                return Period(a, b) if a <= b else EMPTY

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
