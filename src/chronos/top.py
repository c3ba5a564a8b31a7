"""The TOP language: operator-based temporal formulas and their evaluation.

A formula is checked against a model at an index (st, et, lt): st is the
speech time (the point the question is asked at), et the event time (the
period the situation occupies), lt the localisation time (a window that
operators narrow, possibly down to the empty set).  The top-level
denotation of a formula existentially quantifies et and all variables,
which are free by construction; there is no binding operator.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import lexer
from .core import (
    EMPTY,
    Assignment,
    CandidatePlan,
    Const,
    Period,
    PointSet,
    TopModel,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    intersect,
    subper,
)
from .lexer import ArityError, ParseError, TokenStream


# ---------------------------------------------------------------------------
# Abstract syntax


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
class Part:
    part: str
    var: Var


@dataclass(frozen=True)
class Pres:
    body: object


@dataclass(frozen=True)
class Past:
    var: Var
    body: object


@dataclass(frozen=True)
class Perf:
    var: Var
    body: object


@dataclass(frozen=True)
class Culm:
    body: Literal

    def __post_init__(self):
        if not isinstance(self.body, Literal):
            raise ValueError("Culm applies to a literal")


@dataclass(frozen=True)
class At:
    term: object
    body: object


@dataclass(frozen=True)
class Before:
    term: object
    body: object


@dataclass(frozen=True)
class After:
    term: object
    body: object


@dataclass(frozen=True)
class Fills:
    body: object


@dataclass(frozen=True)
class Ntense:
    var: object  # Var, or None for the now-anchored form
    body: object


@dataclass(frozen=True)
class For:
    cpart: str
    qty: int
    body: object

    def __post_init__(self):
        if self.qty < 1:
            raise ValueError("For quantity must be at least 1")


@dataclass(frozen=True)
class EvalIndex:
    st: int
    et: Period
    lt: PointSet


# ---------------------------------------------------------------------------
# Variable and functor collection


def _walk_vars(f, out: list):
    t = type(f)
    if t is Literal:
        for a in f.args:
            if isinstance(a, Var) and a.name not in out:
                out.append(a.name)
    elif t is And:
        _walk_vars(f.left, out)
        _walk_vars(f.right, out)
    elif t is Part:
        if f.var.name not in out:
            out.append(f.var.name)
    elif t in (Past, Perf):
        if f.var.name not in out:
            out.append(f.var.name)
        _walk_vars(f.body, out)
    elif t in (Pres, Fills, For):
        _walk_vars(f.body, out)
    elif t is Culm:
        _walk_vars(f.body, out)
    elif t in (At, Before, After):
        if isinstance(f.term, Var) and f.term.name not in out:
            out.append(f.term.name)
        _walk_vars(f.body, out)
    elif t is Ntense:
        if f.var is not None and f.var.name not in out:
            out.append(f.var.name)
        _walk_vars(f.body, out)
    else:
        raise TypeError(f"not a TOP formula: {f!r}")


def free_vars_ordered(f) -> list:
    """Free variable names in first-occurrence order (all TOP variables are free)."""
    out = []
    _walk_vars(f, out)
    return out


def free_vars(f) -> set:
    return set(free_vars_ordered(f))


def functors(f) -> set:
    """All predicate functor names occurring in a formula."""
    t = type(f)
    if t is Literal:
        return {f.functor}
    if t is And:
        return functors(f.left) | functors(f.right)
    if t is Part:
        return set()
    if t in (Pres, Past, Perf, Culm, At, Before, After, Fills, Ntense, For):
        return functors(f.body)
    raise TypeError(f"not a TOP formula: {f!r}")


# ---------------------------------------------------------------------------
# Concrete syntax

_OPERATORS = {
    "Pres",
    "Past",
    "Perf",
    "Culm",
    "At",
    "Before",
    "After",
    "Fills",
    "Ntense",
    "For",
    "Part",
}
_RESERVED = _OPERATORS | {"now"}


class _TopParser:
    def __init__(self, text: str):
        self.ts = TokenStream(text)
        self.arities = {}

    def parse(self):
        f = self.formula()
        self.ts.expect(lexer.EOF, "end of input")
        return f

    def formula(self):
        left = self.unit()
        if self.ts.at("&"):
            self.ts.next()
            return And(left, self.formula())
        return left

    def unit(self):
        ts = self.ts
        if ts.at("("):
            ts.next()
            f = self.formula()
            ts.expect(")")
            return f
        tok = ts.peek()
        if tok.kind != lexer.IDENT:
            ts.error("expected a formula")
        name = tok.text
        if name in _OPERATORS:
            return self.operator(name)
        return self.literal()

    def operator(self, name):
        ts = self.ts
        tok = ts.next()
        if not ts.at("["):
            raise ParseError(
                f"{name!r} is an operator and needs [...]", tok.line, tok.column
            )
        ts.next()
        if name == "Pres":
            f = Pres(self.formula())
        elif name == "Fills":
            f = Fills(self.formula())
        elif name in ("Past", "Perf"):
            v = self.variable()
            ts.expect(",")
            body = self.formula()
            f = (Past if name == "Past" else Perf)(v, body)
        elif name == "Culm":
            f = Culm(self.literal())
        elif name in ("At", "Before", "After"):
            term = self.term()
            ts.expect(",")
            body = self.formula()
            cls = {"At": At, "Before": Before, "After": After}[name]
            f = cls(term, body)
        elif name == "Ntense":
            if ts.at(lexer.IDENT, "now"):
                ts.next()
                anchor = None
            else:
                anchor = self.variable()
            ts.expect(",")
            f = Ntense(anchor, self.formula())
        elif name == "For":
            part = self.ident("partitioning name")
            ts.expect(",")
            qty_tok = ts.expect(lexer.INT, "quantity")
            qty = int(qty_tok.text)
            if qty < 1:
                raise ParseError(
                    "quantity must be at least 1", qty_tok.line, qty_tok.column
                )
            ts.expect(",")
            f = For(part, qty, self.formula())
        else:  # Part
            part = self.ident("partitioning name")
            ts.expect(",")
            f = Part(part, self.variable())
        ts.expect("]")
        return f

    def literal(self):
        tok = self.ts.expect(lexer.IDENT, "predicate functor")
        if tok.text in _RESERVED:
            raise ParseError(
                f"{tok.text!r} is reserved and cannot be a functor",
                tok.line,
                tok.column,
            )
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
        if self.ts.at(lexer.VAR):
            return Var(self.ts.next().text)
        tok = self.ts.expect(lexer.IDENT, "constant or variable")
        if tok.text in _RESERVED:
            raise ParseError(
                f"{tok.text!r} is reserved and cannot be a constant",
                tok.line,
                tok.column,
            )
        return Const(tok.text)

    def variable(self):
        return Var(self.ts.expect(lexer.VAR, "variable").text)

    def ident(self, what):
        return self.ts.expect(lexer.IDENT, what).text


def parse_top(text: str):
    """Parse concrete TOP syntax into an AST; raises ParseError/ArityError."""
    return _TopParser(text).parse()


def print_top(f) -> str:
    """Canonical concrete syntax; parse_top(print_top(f)) == f."""
    t = type(f)
    if t is Literal:
        return f"{f.functor}({', '.join(str(a) for a in f.args)})"
    if t is And:
        left = print_top(f.left)
        if type(f.left) is And:
            left = f"({left})"
        return f"{left} & {print_top(f.right)}"
    if t is Part:
        return f"Part[{f.part}, {f.var}]"
    if t is Pres:
        return f"Pres[{print_top(f.body)}]"
    if t is Past:
        return f"Past[{f.var}, {print_top(f.body)}]"
    if t is Perf:
        return f"Perf[{f.var}, {print_top(f.body)}]"
    if t is Culm:
        return f"Culm[{print_top(f.body)}]"
    if t is At:
        return f"At[{f.term}, {print_top(f.body)}]"
    if t is Before:
        return f"Before[{f.term}, {print_top(f.body)}]"
    if t is After:
        return f"After[{f.term}, {print_top(f.body)}]"
    if t is Fills:
        return f"Fills[{print_top(f.body)}]"
    if t is Ntense:
        anchor = "now" if f.var is None else str(f.var)
        return f"Ntense[{anchor}, {print_top(f.body)}]"
    if t is For:
        return f"For[{f.cpart}, {f.qty}, {print_top(f.body)}]"
    raise TypeError(f"not a TOP formula: {f!r}")


# ---------------------------------------------------------------------------
# Evaluation

_UNKNOWN = object()  # partial-assignment result: truth not yet determined

_NO_PERIODS = frozenset()


def _lookup(g, name, strict):
    try:
        return g[name]
    except KeyError:
        if strict:
            raise UnboundVariable(name) from None
        return _UNKNOWN


def _denote(m, g, term, strict):
    if type(term) is Const:
        try:
            return m.consts[term.name]
        except KeyError:
            raise UnknownConstant(term.name) from None
    return _lookup(g, term.name, strict)


def _denote_args(m, g, args, strict):
    vals = []
    unknown = False
    for a in args:
        v = _denote(m, g, a, strict)
        if v is _UNKNOWN:
            unknown = True
        vals.append(v)
    return (None if unknown else tuple(vals))


def _eval(m, st, et, lt, g, f, strict):
    """One clause per operator.  With strict=False an unbound variable makes
    the result _UNKNOWN instead of an error; False is only returned when the
    formula is false under every extension of g."""
    t = type(f)

    if t is Literal:
        ext = m.extension(f.functor, len(f.args))
        if ext is None:
            raise UnknownFunctor(f"{f.functor}/{len(f.args)}")
        # true iff et fits the window and some maximal period covers it
        if not subper(et, lt):
            return False
        vals = _denote_args(m, g, f.args, strict)
        if vals is None:
            return _UNKNOWN
        ps = ext.get(vals, _NO_PERIODS)
        return any(subper(et, p) for p in ps)

    if t is And:
        ra = _eval(m, st, et, lt, g, f.left, strict)
        if ra is False:
            return False
        rb = _eval(m, st, et, lt, g, f.right, strict)
        if rb is False:
            return False
        if ra is _UNKNOWN or rb is _UNKNOWN:
            return _UNKNOWN
        return True

    if t is Part:
        part = m.partitioning(f.part)
        if part is None:
            raise UnknownPartitioning(f.part)
        v = _lookup(g, f.var.name, strict)
        if v is _UNKNOWN:
            return _UNKNOWN
        return v in part

    if t is Pres:
        # st must fall within the event time; lt is not consulted
        if st not in et:
            return False
        return _eval(m, st, et, lt, g, f.body, strict)

    if t is Past:
        # narrow lt to the part strictly before the speech time
        window = Period(0, st - 1) if st > 0 else EMPTY
        lt2 = intersect(lt, window)
        v = _lookup(g, f.var.name, strict)
        if v is _UNKNOWN:
            r = _eval(m, st, et, lt2, g, f.body, strict)
            return False if r is False else _UNKNOWN
        if v != et:
            return False
        return _eval(m, st, et, lt2, g, f.body, strict)

    if t is Culm:
        lit = f.body
        ext = m.extension(lit.functor, len(lit.args))
        if ext is None:
            raise UnknownFunctor(f"{lit.functor}/{len(lit.args)}")
        if not subper(et, lt):
            return False
        vals = _denote_args(m, g, lit.args, strict)
        if vals is None:
            return _UNKNOWN
        if not m.culm_flag(lit.functor, len(lit.args), vals):
            return False
        ps = ext.get(vals, _NO_PERIODS)
        if not ps:
            return False
        # et must run from the situation's first start to its last stop
        hull = Period(min(p.lo for p in ps), max(p.hi for p in ps))
        return et == hull

    if t in (At, Before, After):
        v = _denote(m, g, f.term, strict)
        if v is _UNKNOWN:
            return _UNKNOWN
        if not isinstance(v, Period):
            return False
        if t is At:
            window = v
        elif t is Before:
            window = Period(0, v.lo - 1) if v.lo > 0 else EMPTY
        else:
            last = m.timeline.t_last
            window = Period(v.hi + 1, last) if v.hi < last else EMPTY
        return _eval(m, st, et, intersect(lt, window), g, f.body, strict)

    if t is Fills:
        # the event time must cover the whole window
        if et != lt:
            return False
        return _eval(m, st, et, lt, g, f.body, strict)

    if t is Ntense:
        full = m.timeline.full()
        if f.var is None:
            return _eval(m, st, Period(st, st), full, g, f.body, strict)
        v = _lookup(g, f.var.name, strict)
        if v is _UNKNOWN:
            return _UNKNOWN
        if not isinstance(v, Period):
            return False
        return _eval(m, st, v, full, g, f.body, strict)

    if t is For:
        part = m.cparts.get(f.cpart)
        if part is None:
            raise UnknownPartitioning(f"{f.cpart} (complete partitioning)")
        # qty consecutive blocks must span et exactly
        p = part.starting_at(et.lo)
        if p is None:
            return False
        for _ in range(f.qty - 1):
            if p.hi >= m.timeline.t_last:
                return False
            p = part.starting_at(p.hi + 1)
            if p is None:
                return False
        if p.hi != et.hi:
            return False
        return _eval(m, st, et, lt, g, f.body, strict)

    if t is Perf:
        # the body holds at an earlier event time named by the variable
        if not subper(et, lt):
            return False
        v = _lookup(g, f.var.name, strict)
        if v is _UNKNOWN:
            return _UNKNOWN
        if not isinstance(v, Period):
            return False
        if not v.hi < et.lo:
            return False
        return _eval(m, st, v, m.timeline.full(), g, f.body, strict)

    raise TypeError(f"not a TOP formula: {f!r}")


def eval_top_at(m: TopModel, idx: EvalIndex, g: Assignment, f) -> bool:
    """Truth of f at a fixed index under a full assignment of its variables."""
    return _eval(m, idx.st, idx.et, idx.lt, g, f, strict=True)


def _narrow(m, f, plan) -> bool:
    """Add f's candidate filters to plan; False if f names a functor,
    constant or partitioning the model lacks.

    Every subformula must hold for f to hold, so a literal's variables
    range over the tuples with a non-empty period set (under Culm, also a
    set culmination flag), a Part variable over the blocks, and a variable
    that Past, Perf or Ntense ties to an event time, or that At, Before or
    After reads as a window, over the periods.
    """
    t = type(f)
    if t in (Literal, Culm):
        lit = f if t is Literal else f.body
        ext = m.extension(lit.functor, len(lit.args))
        if ext is None or any(
            type(a) is Const and a.name not in m.consts for a in lit.args
        ):
            return False
        plan.semijoin(
            [
                args for args, ps in ext.items()
                if ps and (t is Literal
                           or m.culm_flag(lit.functor, len(lit.args), args))
            ],
            tuple(a if type(a) is Var else m.consts[a.name] for a in lit.args),
        )
        return True
    if t is And:
        return _narrow(m, f.left, plan) and _narrow(m, f.right, plan)
    if t is Part:
        part = m.partitioning(f.part)
        if part is None:
            return False
        plan.only(f.var.name, part.blocks)
        return True
    if t in (Past, Perf) or (t is Ntense and f.var is not None):
        plan.periods_only(f.var.name)
    elif t in (At, Before, After):
        if type(f.term) is Var:
            plan.periods_only(f.term.name)
        elif f.term.name not in m.consts:
            return False
    elif t is For and f.cpart not in m.cparts:
        return False
    return _narrow(m, f.body, plan)


def denot_top_witness(m: TopModel, st: int, f):
    """First (assignment, et) satisfying f at speech time st, or None.

    The search is exhaustive over all event times (ordered by (lo, hi)) and
    all assignments of the formula's variables into the object domain
    (atoms first, then periods); branches are skipped only when a partial
    assignment already forces the formula false, or when a value fails a
    candidate filter that every satisfying assignment passes, so the
    witness is exactly the one plain nested enumeration would find first.
    """
    order = free_vars_ordered(f)
    domain = list(m.objects())
    plan = CandidatePlan(domain, order)
    if not _narrow(m, f, plan):
        # a pruned value could skip a clause that raises: keep the domain
        plan = CandidatePlan(domain, order)
    full = m.timeline.full()
    for et in m.timeline.periods():
        found = _search(m, st, et, full, {}, f, order, 0, plan)
        if found is not None:
            return found
    return None


def _search(m, st, et, lt, g, f, order, i, plan):
    r = _eval(m, st, et, lt, g, f, strict=False)
    if r is False:
        return None
    if r is True:
        full_g = dict(g)
        for name in order[i:]:
            full_g[name] = plan.domain[0]
        return full_g, et
    for val in plan.candidates(i, g):
        g[order[i]] = val
        found = _search(m, st, et, lt, g, f, order, i + 1, plan)
        if found is not None:
            return found
    g.pop(order[i], None)  # never bound when there are no candidates
    return None


def denot_top(m: TopModel, st: int, f) -> bool:
    """Top-level denotation: true iff some assignment and event time satisfy f."""
    return denot_top_witness(m, st, f) is not None
