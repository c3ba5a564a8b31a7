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

from dataclasses import dataclass

from . import lexer
from .core import (
    EMPTY,
    UNDEFINED,
    Assignment,
    BotModel,
    CandidatePlan,
    Const,
    Period,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    intersect,
)
from .lexer import ArityError, ParseError, TokenStream


# ---------------------------------------------------------------------------
# Abstract syntax: point expressions


@dataclass(frozen=True)
class Beg:
    pass


@dataclass(frozen=True)
class Now:
    pass


@dataclass(frozen=True)
class End:
    pass


@dataclass(frozen=True)
class Earliest:
    per: object


@dataclass(frozen=True)
class Latest:
    per: object


@dataclass(frozen=True)
class Succ:
    point: object


BEG = Beg()
NOW = Now()
END = End()


# Period expressions


@dataclass(frozen=True)
class Interval:
    lo: object
    hi: object
    lo_closed: bool = True
    hi_closed: bool = True


@dataclass(frozen=True)
class Intersect:
    left: object
    right: object


@dataclass(frozen=True)
class TermRef:
    """A constant or variable used where a period expression is expected."""

    term: object


# Formulas


@dataclass(frozen=True)
class Literal:
    functor: str
    args: tuple

    def __post_init__(self):
        if not self.args:
            raise ValueError("literals take at least one argument")


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Subper:
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class IsPeriod:
    term: object


@dataclass(frozen=True)
class InPart:
    part: str
    term: object


@dataclass(frozen=True)
class Prec:
    left: object
    right: object


_POINT_TYPES = (Beg, Now, End, Earliest, Latest, Succ)
_PERIOD_TYPES = (Interval, Intersect, TermRef)


# ---------------------------------------------------------------------------
# Variable collection


def _subterms(t):
    """t and every term nested in it, depth first, left to right."""
    yield t
    tt = type(t)
    if tt in (Earliest, Latest):
        yield from _subterms(t.per)
    elif tt is Succ:
        yield from _subterms(t.point)
    elif tt is Interval:
        yield from _subterms(t.lo)
        yield from _subterms(t.hi)
    elif tt is Intersect:
        yield from _subterms(t.left)
        yield from _subterms(t.right)
    elif tt is TermRef:
        yield from _subterms(t.term)


def _atom_subterms(f):
    t = type(f)
    if t is Literal:
        terms = f.args
    elif t in (Subper, Eq, Prec):
        terms = (f.left, f.right)
    elif t in (IsPeriod, InPart):
        terms = (f.term,)
    else:
        raise TypeError(f"not a BOT atom: {f!r}")
    for term in terms:
        yield from _subterms(term)


def _atom_vars(f, out):
    for s in _atom_subterms(f):
        if type(s) is Var and s.name not in out:
            out.append(s.name)


def flatten(f) -> list:
    """Conjunct list of a formula, left to right."""
    if type(f) is And:
        return flatten(f.left) + flatten(f.right)
    return [f]


def free_vars_ordered(f) -> list:
    out = []
    for atom in flatten(f):
        _atom_vars(atom, out)
    return out


def free_vars(f) -> set:
    return set(free_vars_ordered(f))


def functors(f) -> set:
    return {a.functor for a in flatten(f) if type(a) is Literal}


# ---------------------------------------------------------------------------
# Concrete syntax

_RESERVED = {
    "subper",
    "eq",
    "period",
    "part",
    "prec",
    "beg",
    "now",
    "end",
    "earliest",
    "latest",
    "succ",
    "intersect",
}

_POINT_KEYWORDS = {"beg": BEG, "now": NOW, "end": END}


class _BotParser:
    def __init__(self, text: str):
        self.ts = TokenStream(text)
        self.arities = {}

    def parse(self):
        f = self.formula()
        self.ts.expect(lexer.EOF, "end of input")
        return f

    def formula(self):
        left = self.atom()
        if self.ts.at("&"):
            self.ts.next()
            return And(left, self.formula())
        return left

    def atom(self):
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "(":
            # grouping; unambiguous because atoms always start with a name
            ts.next()
            f = self.formula()
            ts.expect(")")
            return f
        if tok.kind != lexer.IDENT:
            ts.error("expected an atomic formula")
        name = tok.text
        if name == "subper":
            ts.next()
            ts.expect("(")
            a = self.period_expr()
            ts.expect(",")
            b = self.period_expr()
            ts.expect(")")
            return Subper(a, b)
        if name == "eq":
            ts.next()
            ts.expect("(")
            a = self.term()
            ts.expect(",")
            b = self.term()
            ts.expect(")")
            return Eq(a, b)
        if name == "period":
            ts.next()
            ts.expect("(")
            t = self.term()
            ts.expect(")")
            return IsPeriod(t)
        if name == "part":
            ts.next()
            ts.expect("(")
            pname = ts.expect(lexer.IDENT, "partitioning name").text
            ts.expect(",")
            t = self.term()
            ts.expect(")")
            return InPart(pname, t)
        if name == "prec":
            ts.next()
            ts.expect("(")
            a = self.point_expr()
            ts.expect(",")
            b = self.point_expr()
            ts.expect(")")
            return Prec(a, b)
        if name in _RESERVED:
            raise ParseError(f"misplaced keyword {name!r}", tok.line, tok.column)
        return self.literal()

    def literal(self):
        tok = self.ts.expect(lexer.IDENT, "predicate functor")
        self.ts.expect("(")
        args = [self.term()]
        while self.ts.at(","):
            self.ts.next()
            args.append(self.term())
        self.ts.expect(")")
        seen = self.arities.setdefault(tok.text, len(args))
        if seen != len(args):
            raise ArityError(
                f"functor {tok.text!r} used with arity {len(args)} after {seen}",
                tok.line,
                tok.column,
            )
        return Literal(tok.text, tuple(args))

    def term(self):
        ts = self.ts
        tok = ts.peek()
        if tok.kind == lexer.VAR:
            return Var(ts.next().text)
        if tok.kind in ("[", "("):
            return self.interval()
        if tok.kind != lexer.IDENT:
            ts.error("expected a term")
        name = tok.text
        if name in _POINT_KEYWORDS or name in ("earliest", "latest", "succ"):
            return self.point_expr()
        if name == "intersect":
            return self.intersect()
        if name in _RESERVED:
            raise ParseError(f"misplaced keyword {name!r}", tok.line, tok.column)
        return Const(ts.next().text)

    def point_expr(self):
        ts = self.ts
        tok = ts.expect(lexer.IDENT, "point expression")
        name = tok.text
        if name in _POINT_KEYWORDS:
            return _POINT_KEYWORDS[name]
        if name in ("earliest", "latest"):
            ts.expect("(")
            p = self.period_expr()
            ts.expect(")")
            return Earliest(p) if name == "earliest" else Latest(p)
        if name == "succ":
            ts.expect("(")
            p = self.point_expr()
            ts.expect(")")
            return Succ(p)
        raise ParseError(f"expected point expression, found {name!r}",
                         tok.line, tok.column)

    def period_expr(self):
        ts = self.ts
        tok = ts.peek()
        if tok.kind in ("[", "("):
            return self.interval()
        if tok.kind == lexer.VAR:
            return TermRef(Var(ts.next().text))
        if tok.kind == lexer.IDENT:
            if tok.text == "intersect":
                return self.intersect()
            if tok.text not in _RESERVED:
                return TermRef(Const(ts.next().text))
        ts.error("expected a period expression")

    def intersect(self):
        ts = self.ts
        ts.next()  # the intersect keyword
        ts.expect("(")
        a = self.period_expr()
        ts.expect(",")
        b = self.period_expr()
        ts.expect(")")
        return Intersect(a, b)

    def interval(self):
        ts = self.ts
        open_tok = ts.next()
        lo_closed = open_tok.kind == "["
        lo = self.point_expr()
        ts.expect(",")
        hi = self.point_expr()
        close_tok = ts.peek()
        if close_tok.kind not in ("]", ")"):
            ts.error("expected ']' or ')' closing an interval")
        ts.next()
        return Interval(lo, hi, lo_closed, close_tok.kind == "]")


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
        left = print_bot(f.left)
        if type(f.left) is And:
            left = f"({left})"
        return f"{left} & {print_bot(f.right)}"
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
# Evaluation


def _const_value(m, name):
    try:
        return m.consts[name]
    except KeyError:
        raise UnknownConstant(name) from None


def _var_value(g, name):
    try:
        return g[name]
    except KeyError:
        raise UnboundVariable(name) from None


def eval_point(m: BotModel, st: int, g: Assignment, e):
    """Time-point denoted by a point expression, or UNDEFINED."""
    t = type(e)
    if t is Beg:
        return 0
    if t is Now:
        return st
    if t is End:
        return m.timeline.t_last
    if t in (Earliest, Latest):
        p = eval_period(m, st, g, e.per)
        if not isinstance(p, Period):
            return UNDEFINED
        return p.lo if t is Earliest else p.hi
    if t is Succ:
        v = eval_point(m, st, g, e.point)
        if v is UNDEFINED:
            return UNDEFINED
        return m.timeline.next(v)
    raise TypeError(f"not a point expression: {e!r}")


def eval_period(m: BotModel, st: int, g: Assignment, e):
    """Point set denoted by a period expression: Period, EMPTY, or UNDEFINED."""
    t = type(e)
    if t is Interval:
        a = eval_point(m, st, g, e.lo)
        b = eval_point(m, st, g, e.hi)
        if a is UNDEFINED or b is UNDEFINED:
            return UNDEFINED
        lo = a if e.lo_closed else a + 1
        hi = b if e.hi_closed else b - 1
        return Period(lo, hi) if lo <= hi else EMPTY
    if t is Intersect:
        a = eval_period(m, st, g, e.left)
        if a is UNDEFINED:
            return UNDEFINED
        b = eval_period(m, st, g, e.right)
        if b is UNDEFINED:
            return UNDEFINED
        return intersect(a, b)
    if t is TermRef:
        v = _denote_term(m, st, g, e.term)
        return v if isinstance(v, Period) else UNDEFINED
    raise TypeError(f"not a period expression: {e!r}")


def _denote_term(m, st, g, term):
    """Denotation of any BOT term: object, time-point, EMPTY, or UNDEFINED."""
    t = type(term)
    if t is Const:
        return _const_value(m, term.name)
    if t is Var:
        return _var_value(g, term.name)
    if t in _POINT_TYPES:
        return eval_point(m, st, g, term)
    if t in _PERIOD_TYPES:
        return eval_period(m, st, g, term)
    raise TypeError(f"not a BOT term: {term!r}")


def eval_bot(m: BotModel, st: int, g: Assignment, f) -> bool:
    """Truth of a formula under a full assignment of its variables.

    Atoms with an undefined argument are false; subper and part require
    period denotations, eq requires identical defined denotations.
    """
    t = type(f)
    if t is And:
        return eval_bot(m, st, g, f.left) and eval_bot(m, st, g, f.right)
    if t is Literal:
        tuples = m.true_tuples(f.functor, len(f.args))
        if tuples is None:
            raise UnknownFunctor(f"{f.functor}/{len(f.args)}")
        vals = tuple(_denote_term(m, st, g, a) for a in f.args)
        if any(v is UNDEFINED for v in vals):
            return False
        return vals in tuples
    if t is Subper:
        a = eval_period(m, st, g, f.left)
        if not isinstance(a, Period):
            return False
        b = eval_period(m, st, g, f.right)
        if not isinstance(b, Period):
            return False
        return b.lo <= a.lo and a.hi <= b.hi
    if t is Eq:
        a = _denote_term(m, st, g, f.left)
        if a is UNDEFINED:
            return False
        b = _denote_term(m, st, g, f.right)
        if b is UNDEFINED:
            return False
        return a == b
    if t is IsPeriod:
        return isinstance(_denote_term(m, st, g, f.term), Period)
    if t is InPart:
        part = m.partitioning(f.part)
        if part is None:
            raise UnknownPartitioning(f.part)
        return _denote_term(m, st, g, f.term) in part
    if t is Prec:
        a = eval_point(m, st, g, f.left)
        if a is UNDEFINED:
            return False
        b = eval_point(m, st, g, f.right)
        if b is UNDEFINED:
            return False
        return a < b
    raise TypeError(f"not a BOT formula: {f!r}")


def _narrow(m: BotModel, st: int, atoms: list, plan) -> bool:
    """Add the conjuncts' candidate filters to plan; False if they name a
    functor, constant or partitioning the model lacks.

    A literal's variables range over its true tuples (a semi-join), eq with
    an earlier-bound side leaves one value, part leaves the blocks, and a
    variable in period(...) or in any period-expression position must be a
    period: on any other value the conjunct is false.
    """
    for atom in atoms:
        t = type(atom)
        for s in _atom_subterms(atom):
            if type(s) is Const and s.name not in m.consts:
                return False
            if type(s) is TermRef and type(s.term) is Var:
                plan.periods_only(s.term.name)
        if t is Literal:
            tuples = m.true_tuples(atom.functor, len(atom.args))
            if tuples is None:
                return False
            plan.semijoin(tuples, tuple(
                a if type(a) is Var
                else m.consts[a.name] if type(a) is Const
                else None
                for a in atom.args
            ))
        elif t is InPart:
            part = m.partitioning(atom.part)
            if part is None:
                return False
            if type(atom.term) is Var:
                plan.only(atom.term.name, part.blocks)
        elif t is IsPeriod and type(atom.term) is Var:
            plan.periods_only(atom.term.name)
        elif t is Eq:
            for v, e in ((atom.left, atom.right), (atom.right, atom.left)):
                if type(v) is Var:
                    needs = [s.name for s in _subterms(e) if type(s) is Var]
                    plan.equal_to(
                        v.name, needs, lambda g, e=e: _denote_term(m, st, g, e)
                    )
    return True


def denot_bot_witness(m: BotModel, st: int, f):
    """First assignment satisfying f, or None.

    Variables are assigned in first-occurrence order, values in object
    enumeration order (atoms first, then periods).  Each conjunct is
    checked as soon as all its variables are bound, so failing branches
    are cut early, and a variable only takes the values its candidate plan
    allows; the witness is the one full nested enumeration over the same
    orders would find first.
    """
    atoms = flatten(f)
    order = free_vars_ordered(f)
    index = {name: i for i, name in enumerate(order)}
    ready_at = [[] for _ in range(len(order) + 1)]
    for atom in atoms:
        needed = []
        _atom_vars(atom, needed)
        level = max((index[v] + 1 for v in needed), default=0)
        ready_at[level].append(atom)

    domain = list(m.objects())
    plan = CandidatePlan(domain, order)
    if not _narrow(m, st, atoms, plan):
        # a pruned value could skip a conjunct that raises: keep the domain
        plan = CandidatePlan(domain, order)
    g = {}

    def dfs(level):
        for atom in ready_at[level]:
            if not eval_bot(m, st, g, atom):
                return None
        if level == len(order):
            return dict(g)
        name = order[level]
        for val in plan.candidates(level, g):
            g[name] = val
            found = dfs(level + 1)
            if found is not None:
                return found
        g.pop(name, None)  # never bound when there are no candidates
        return None

    return dfs(0)


def denot_bot(m: BotModel, st: int, f) -> bool:
    """Top-level denotation: true iff some assignment satisfies f."""
    return denot_bot_witness(m, st, f) is not None
