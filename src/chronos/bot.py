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

from operator import itemgetter

from . import lexer
from .core import (
    EMPTY,
    UNDEFINED,
    And,
    Assignment,
    BotModel,
    CandidatePlan,
    Const,
    Literal,
    Period,
    Record,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
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
        kind, name, _, _ = self.tokens[self.pos]
        if kind != lexer.IDENT:
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
            part = self.expect(lexer.IDENT, "partitioning name")[1]
            self.expect(",")
            f = InPart(part, self.term())
        self.expect(")")
        return f

    def term(self):
        kind, name, _, _ = self.tokens[self.pos]
        if kind == lexer.VAR:
            self.pos += 1
            return self.vars[name]
        if kind == lexer.IDENT:
            if name not in _RESERVED:
                self.pos += 1
                return self.consts[name]
            if name == "intersect":
                return self.period_expr()
            if name not in _ATOM_KEYWORDS:
                return self.point_expr()
            self.error(f"misplaced keyword {name!r}")
        if kind == "[" or kind == "(":
            return self.period_expr()
        self.error("expected a term")

    def point_expr(self):
        kind, name, _, _ = self.tokens[self.pos]
        if kind != lexer.IDENT:
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
        kind, name, _, _ = self.tokens[self.pos]
        if kind == lexer.VAR:
            self.pos += 1
            return TermRef(self.vars[name])
        if kind == "[" or kind == "(":
            self.pos += 1
            lo = self.point_expr()
            self.expect(",")
            hi = self.point_expr()
            close = self.tokens[self.pos][0]
            if close != "]" and close != ")":
                self.error("expected ']' or ')' closing an interval")
            self.pos += 1
            return Interval(lo, hi, kind == "[", close == "]")
        if kind == lexer.IDENT:
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


class _Fixed:
    """A subexpression folded when it is compiled: its value under every
    assignment, because it reads no variable."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _closure(x):
    """A compiled subexpression as a callable g -> value."""
    if type(x) is _Fixed:
        value = x.value
        return lambda g: value
    return x


def _apply(fn, x):
    """fn of one compiled operand: folded when the operand is."""
    if type(x) is _Fixed:
        return _Fixed(fn(x.value))
    return lambda g: fn(x(g))


def _apply2(fn, a, b):
    """fn of two compiled operands: folded when both are.  A folded
    operand goes in as its value."""
    if type(a) is _Fixed:
        x = a.value
        if type(b) is _Fixed:
            return _Fixed(fn(x, b.value))
        return lambda g: fn(x, b(g))
    if type(b) is _Fixed:
        y = b.value
        return lambda g: fn(a(g), y)
    return lambda g: fn(a(g), b(g))


# The value functions: each part's denotation as a function of its
# operands' denotations.  UNDEFINED is absorbing, and false at every atom.


def _earliest(p):
    return p.lo if type(p) is Period else UNDEFINED


def _latest(p):
    return p.hi if type(p) is Period else UNDEFINED


def _meet(x, y):
    return UNDEFINED if x is UNDEFINED or y is UNDEFINED else intersect(x, y)


def _as_period(v):
    return v if type(v) is Period else UNDEFINED


def _subper(x, y):
    return (type(x) is Period and type(y) is Period
            and y.lo <= x.lo and x.hi <= y.hi)


def _eq(x, y):
    return x is not UNDEFINED and y is not UNDEFINED and x == y


def _prec(x, y):
    return x is not UNDEFINED and y is not UNDEFINED and x < y


def _is_period(v):
    return type(v) is Period


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


class _Compiler:
    """Compiles BOT expressions against one model and speech time.

    One walk over a conjunct gives its test and its variables in
    first-occurrence order, and narrows `plan` by the candidate filters it
    implies.  A variable compiles to its lookup, a constant or anchor to
    its value (`_Fixed`), and every other part to its value function
    applied to its compiled operands, by `_apply` or `_apply2`: the part
    is folded exactly when all its operands are, so exactly when it
    names no variable.  `term` recurses into `term` directly, one frame
    per nesting level.  A functor, constant or partitioning the model
    lacks raises UnknownFunctor, UnknownConstant or UnknownPartitioning
    where it is looked up, in reading order.
    """

    def __init__(self, m: BotModel, st: int):
        self.m = m
        self.st = st
        self.last = last = m.timeline.t_last
        self.succ = lambda v: UNDEFINED if v is UNDEFINED or v >= last else v + 1
        self.plan = CandidatePlan(m.domain.index)
        self._seen = []  # variable occurrences, in walk order: scopes, eq needs

    def conjunct(self, f):
        """(test g -> bool, the conjunct's variables in first-occurrence order)."""
        start = len(self._seen)
        test = _closure(self.atom(f))
        return test, list(dict.fromkeys(self._seen[start:]))

    def term(self, t):
        tt = type(t)
        if tt is Var:
            self._seen.append(t.name)
            return itemgetter(t.name)
        if tt is Const:
            if t.name not in self.m.consts:
                raise UnknownConstant(f"unknown constant {t.name}")
            return _Fixed(self.m.consts[t.name])
        if tt is Beg or tt is Now or tt is End:
            return _Fixed(0 if tt is Beg else self.st if tt is Now else self.last)
        if tt is Earliest or tt is Latest:
            bound = _earliest if tt is Earliest else _latest
            return _apply(bound, self.term(_period(t.per)))
        if tt is Succ:
            return _apply(self.succ, self.term(_point(t.point)))
        if tt is Interval:
            lo_shift = 0 if t.lo_closed else 1
            hi_shift = 0 if t.hi_closed else 1

            def span(a, b):
                if a is UNDEFINED or b is UNDEFINED:
                    return UNDEFINED
                a += lo_shift
                b -= hi_shift
                return Period(a, b) if a <= b else EMPTY

            return _apply2(span, self.term(_point(t.lo)), self.term(_point(t.hi)))
        if tt is Intersect:
            return _apply2(_meet, self.term(_period(t.left)),
                           self.term(_period(t.right)))
        if tt is TermRef:
            if type(t.term) is Var:
                self._periods_only(t.term.name)
            return _apply(_as_period, self.term(t.term))
        raise TypeError(f"not a BOT term: {t!r}")

    def atom(self, f):
        t = type(f)
        if t is Literal:
            return self._literal(f)
        if t is Subper:
            return _apply2(_subper, self._operand(f.left), self._operand(f.right))
        if t is Eq:
            start = len(self._seen)
            a = self.term(f.left)
            middle = len(self._seen)
            b = self.term(f.right)
            sides = ((f.left, b, self._seen[middle:]),
                     (f.right, a, self._seen[start:middle]))
            for v, other, needs in sides:
                if type(v) is Var:
                    self.plan.equal_to(v.name, needs, _closure(other))
            return _apply2(_eq, a, b)
        if t is IsPeriod:
            if type(f.term) is Var:
                self._periods_only(f.term.name)
            return _apply(_is_period, self.term(f.term))
        if t is InPart:
            part = self.m.partitioning(f.part)
            if part is None:
                raise UnknownPartitioning(f"unknown partitioning {f.part}")
            x = self.term(f.term)
            if type(f.term) is Var:
                self.plan.restrict(
                    f.term.name, self.plan.index.positions(part.blocks))
            blocks = frozenset(part.blocks)
            return _apply(lambda v: type(v) is Period and v in blocks, x)
        if t is Prec:
            return _apply2(_prec, self.term(_point(f.left)),
                           self.term(_point(f.right)))
        raise TypeError(f"not a BOT formula: {f!r}")

    def _periods_only(self, name):
        self.plan.restrict(name, self.plan.index.periods)

    def _operand(self, e):
        """A subper operand: a variable is read as it is bound, since subper
        rejects anything but a period anyway."""
        if type(e) is TermRef and type(e.term) is Var:
            self._periods_only(e.term.name)
            return self.term(e.term)
        return self.term(_period(e))

    def _literal(self, f):
        tuples = self.m.true_tuples(f.functor, len(f.args))
        if tuples is None:
            raise UnknownFunctor(f"unknown functor {f.functor}/{len(f.args)}")
        args = [self.term(a) for a in f.args]
        consts = self.m.consts
        key = tuple(
            a if type(a) is Var else consts[a.name] if type(a) is Const
            else None
            for a in f.args
        )
        self.plan.semijoin(tuples, key)
        if all(type(a) is Var or type(x) is _Fixed and x.value is not UNDEFINED
               for a, x in zip(f.args, args)):
            # the folded arguments stay in place; only variables are read
            pattern = tuple(
                a if type(a) is Var else x.value for a, x in zip(f.args, args))
            slots = [(k, a.name) for k, a in enumerate(f.args) if type(a) is Var]
            if not slots:
                return _Fixed(pattern in tuples)

            def literal(g):
                vals = list(pattern)
                for k, name in slots:
                    vals[k] = g[name]
                return tuple(vals) in tuples

            return literal
        if all(type(x) is _Fixed for x in args):
            return _Fixed(False)  # an argument is undefined
        args = [_closure(x) for x in args]

        def literal(g):
            vals = tuple([arg(g) for arg in args])
            return not any(v is UNDEFINED for v in vals) and vals in tuples

        return literal


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
