"""The TOP language: operator-based temporal formulas and their evaluation.

A formula is checked against a model at an index (st, et, lt): st is the
speech time (the point the question is asked at), et the event time (the
period the situation occupies), lt the localisation time (a window that
operators narrow, possibly down to the empty set).  The top-level
denotation of a formula existentially quantifies et and all variables,
which are free by construction; there is no binding operator.
"""
from __future__ import annotations

from operator import attrgetter, itemgetter

from . import lexer
from .core import (
    EMPTY,
    And,
    Assignment,
    Compiler,
    Literal,
    Period,
    PointSet,
    Record,
    TopModel,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    _closure,
    _is_period,
    _lift,
    _row,
    chain,
    evaluate,
    intersect,
    print_chain,
)
# the one symbol walk, shared with BOT
from .core import free_vars, free_vars_ordered, functors, symbols  # noqa: F401


# ---------------------------------------------------------------------------
# Abstract syntax: `Literal` and `And` from core, and the operators


class Part(Record):
    part: str
    var: Var


class Pres(Record):
    body: object


class Past(Record):
    var: Var
    body: object


class Perf(Record):
    var: Var
    body: object


class Culm(Record):
    body: Literal

    def __post_init__(self):
        if not isinstance(self.body, Literal):
            raise ValueError("Culm applies to a literal")


class At(Record):
    term: object
    body: object


class Before(Record):
    term: object
    body: object


class After(Record):
    term: object
    body: object


class Fills(Record):
    body: object


class Ntense(Record):
    var: object  # Var, or None for the now-anchored form
    body: object


class For(Record):
    cpart: str
    qty: int
    body: object

    def __post_init__(self):
        if self.qty < 1:
            raise ValueError("For quantity must be at least 1")


class EvalIndex(Record):
    st: int
    et: Period
    lt: PointSet


# ---------------------------------------------------------------------------
# Concrete syntax

#: the bracketed arguments of each operator, in order, one letter each by
#: kind: F formula, L literal, V variable, T constant or variable, W
#: ``now`` or a variable, Q quantity, N partitioning and C complete
#: partitioning. An operator's fields are its arguments in this order, and
#: it is written as its class's name. The parser, the printer and the case
#: generator (`equiv.gen_formula`) read each argument by its kind.
SHAPES = {
    Pres: "F",
    Past: "VF",
    Perf: "VF",
    Culm: "L",
    At: "TF",
    Before: "TF",
    After: "TF",
    Fills: "F",
    Ntense: "WF",
    For: "CQF",
    Part: "NV",
}
_OPERATORS = {op.__name__: op for op in SHAPES}
_RESERVED = _OPERATORS.keys() | {"now"}


class _TopParser(lexer.Parser):
    reserved = _RESERVED

    def unit(self):
        at = self.pos
        name = self.tokens[at]
        op = _OPERATORS.get(name)
        if op is None:
            if name[:1] in lexer.KINDS:
                self.error("expected a formula")
            return self.literal()
        self.enter()
        self.pos += 1
        if self.tokens[self.pos] != "[":
            self.error(f"{name!r} is an operator and needs [...]", at)
        self.pos += 1
        args = []
        for kind in SHAPES[op]:
            if args:
                self.expect(",")
            args.append(_READERS[kind](self))
        self.expect("]")
        self.depth -= 1
        return op(*args)

    def term(self):
        name = self.tokens[self.pos]
        head = name[:1]
        if head == "?":
            self.pos += 1
            return self.vars[name]
        if head in lexer.KINDS:
            self.expect(lexer.IDENT, "constant or variable")
        if name in _RESERVED:
            self.error(f"{name!r} is reserved and cannot be a constant")
        self.pos += 1
        return self.consts[name]

    def variable(self):
        return self.vars[self.expect(lexer.VAR, "variable")]

    def now_or_variable(self):
        if self.tokens[self.pos] == "now":
            self.pos += 1
            return None
        return self.variable()

    def quantity(self):
        at = self.pos
        digits = self.expect(lexer.INT, "quantity").lstrip("0")
        if not digits:
            self.error("quantity must be at least 1", at)
        # lengths first, as int() refuses more than 4,300 digits
        if (len(digits) > len(str(lexer.MAX_QUANTITY))
                or int(digits) > lexer.MAX_QUANTITY):
            self.error(f"quantity must be at most {lexer.MAX_QUANTITY}", at)
        return int(digits)

    def partitioning(self):
        return self.expect(lexer.IDENT, "partitioning name")


#: the parser's reader of each kind of argument
_READERS = {
    "F": _TopParser.formula,
    "L": _TopParser.literal,
    "V": _TopParser.variable,
    "T": _TopParser.term,
    "W": _TopParser.now_or_variable,
    "Q": _TopParser.quantity,
    "N": _TopParser.partitioning,
    "C": _TopParser.partitioning,
}


def parse_top(text: str):
    """Parse concrete TOP syntax into an AST; raises ParseError/ArityError."""
    return _TopParser(text).parse()


#: each operator's arguments as (kind, field getter) pairs, for the printer
_ARGUMENTS = {op: tuple(zip(shape, map(attrgetter, op._fields)))
              for op, shape in SHAPES.items()}


def print_top(f) -> str:
    """Canonical concrete syntax; parse_top(print_top(f)) == f."""
    t = type(f)
    if t is Literal:
        return f"{f.functor}({', '.join(str(a) for a in f.args)})"
    if t is And:
        return print_chain(f, print_top)
    arguments = _ARGUMENTS.get(t)
    if arguments is None:
        raise TypeError(f"not a TOP formula: {f!r}")
    args = []
    for kind, get in arguments:
        value = get(f)
        if kind == "F" or kind == "L":
            # a chain is printed here, so that it costs no frame of its own
            value = (print_chain(value, print_top) if type(value) is And
                     else print_top(value))
        elif value is None:  # W: the now-anchored form
            value = "now"
        args.append(str(value))
    return f"{t.__name__}[{', '.join(args)}]"


# ---------------------------------------------------------------------------
# Evaluation: a formula is compiled once into a list of (test, scope) pairs

#: the event time's key in a search assignment; no variable name equals it
_EVENT_TIME = object()


def _always(g):
    return True


class _Compiler(Compiler):
    """Compiles TOP formulas against one model and root index.

    No TOP operator negates or disjoins, so a formula is the conjunction of
    the conditions its clauses check.  The index is two operands, folded
    like BOT's terms (see `core._lift`): `et`, the event time of the clause
    being compiled, and `lt`, the window.  Each condition is fn of the
    operands it reads, added to `tests` as a test g -> bool with its scope,
    their names: its own variables, then the event time of its clause when
    that is searched, then, when it reads lt, the located variables whose
    windows narrowed lt.  A test folded to true is left out, one folded to
    false gets an empty scope.  A clause adds its tests before its body's,
    in the order it checks them, so running the list in order under a full
    assignment is evaluation.  `plan` is narrowed by filters that every
    satisfying assignment passes.  A functor, constant or partitioning the
    model lacks raises UnknownFunctor, UnknownConstant or
    UnknownPartitioning where it is looked up, in reading order: a
    clause's own names before its body's.

    The root event time is given as a Period, or as the name that holds it
    (_EVENT_TIME at the root of a search); it is ?v inside Perf[?v, ...]
    and Ntense[?v, ...], and [st, st] inside Ntense[now, ...].  The root
    window is a point set, narrowed by At, Before, After and Past.
    """

    def __init__(self, m: TopModel, st: int, et, lt: PointSet):
        super().__init__(m, st)
        self.tests = []
        self.et = (et, ()) if type(et) is Period else (itemgetter(et), (et,))
        self.lt = lt, ()

    def formula(self, f):
        compile = _FORMULAS.get(type(f))
        if compile is None:
            raise TypeError(f"not a TOP formula: {f!r}")
        compile(self, f)

    def _test(self, test):
        """Add a test operand, unless it folds to true."""
        names = test[1]
        if names or not test[0]:
            self.tests.append((_closure(test), names))

    def _under(self, f, et, lt):
        """Compile f, whose clauses read the operands et and lt as their index."""
        outer = self.et, self.lt
        self.et, self.lt = et, lt
        self.formula(f)
        self.et, self.lt = outer

    def _within(self, f, window):
        """Compile f with lt narrowed by a window operand."""
        self._under(f, self.et, _lift(intersect, self.lt, window))

    def _event_times(self, mask):
        """Narrow a searched event time to the values of mask(index)."""
        names = self.et[1]
        if names:
            self.plan.restrict(names[0], mask(self.plan.index))

    def _literal(self, f):
        self._situation(f, culm=False)

    def _culm(self, f):
        self._situation(f.body, culm=True)

    def _situation(self, lit, culm):
        """A literal is true iff et fits the window and some maximal period
        covers it; under Culm, iff the culmination flag is set and et runs
        from the situation's first start to its last stop."""
        m = self.m
        functor, n = lit.functor, len(lit.args)
        ext = m.extension(functor, n)
        if ext is None:
            raise UnknownFunctor(f"unknown functor {functor}/{n}")
        operands = [self.term(a) for a in lit.args]
        rows = self._semijoin(
            [args for args, ps in ext.items()
             if ps and (not culm or m.culm_flag(functor, n, args))],
            lit.args, operands)

        # et lies within a maximal period of a row of the literal's join,
        # or under Culm is the row's hull; the rows are every argument
        # tuple that can hold
        if culm:
            hulls = {r: Period(min(p.lo for p in ext[r]), max(p.hi for p in ext[r]))
                     for r in rows}
            self._event_times(lambda index: index.mask(hulls.values()))

            def holds(args, et):
                return hulls.get(args) == et
        else:
            periods = {r: ext[r] for r in rows}
            self._event_times(lambda index: index.subperiods(
                [p for ps in periods.values() for p in ps]))

            def holds(args, et):
                for p in periods.get(args, ()):
                    if p.lo <= et.lo and et.hi <= p.hi:
                        return True
                return False

        self._test(self._subper(self.et, self.lt))
        self._test(_lift(holds, _row(operands), self.et))

    def _and(self, f):
        for p in chain(f):
            self.formula(p)

    def _part(self, f):
        self._test(_lift(*self._in_part(f.part, f.var)))

    def _pres(self, f):
        # st must fall within the event time; lt is not consulted
        st, last = self.st, self.m.timeline.t_last
        self._event_times(lambda index: index.period_mask(0, st, st, last))
        self._test(_lift(lambda et: et.lo <= st <= et.hi, self.et))
        self.formula(f.body)

    def _past(self, f):
        # ?v is the event time; lt narrows to the points before the speech time
        st = self.st
        self._test(self._equal(self.period(f.var), self.et))
        self._within(f.body, (Period(0, st - 1) if st > 0 else EMPTY, ()))

    def _located(self, f):
        """At, Before and After narrow lt by a window their term names."""
        t, last = type(f), self.m.timeline.t_last

        def window(v):
            if type(v) is not Period:
                return EMPTY  # and the clause's first test fails
            if t is At:
                return v
            if t is Before:
                return Period(0, v.lo - 1) if v.lo > 0 else EMPTY
            return Period(v.hi + 1, last) if v.hi < last else EMPTY

        term = self.period(f.term)
        self._test(_lift(_is_period, term))
        self._within(f.body, _lift(window, term))

    def _fills(self, f):
        # the event time must cover the whole window
        self._test(self._equal(self.et, self.lt))
        self.formula(f.body)

    def _ntense(self, f):
        full = self.m.timeline.full(), ()
        if f.var is None:
            self._under(f.body, (Period(self.st, self.st), ()), full)
            return
        var = self.period(f.var)
        self._test(_lift(_is_period, var))
        self._under(f.body, var, full)

    def _for(self, f):
        part = self.m.cparts.get(f.cpart)
        if part is None:
            raise UnknownPartitioning(
                f"unknown complete partitioning {f.cpart}")
        # qty consecutive blocks must span et exactly: the last point of
        # the span that starts at each block
        spans = {}
        last = self.m.timeline.t_last
        for p in part.blocks:
            lo = p.lo
            for _ in range(f.qty - 1):
                p = part.starting_at(p.hi + 1) if p.hi < last else None
                if p is None:
                    break
            else:
                spans[lo] = p.hi
        self._event_times(lambda index: index.mask(
            Period(lo, hi) for lo, hi in spans.items()))
        self._test(_lift(lambda et: spans.get(et.lo) == et.hi, self.et))
        self.formula(f.body)

    def _perf(self, f):
        # the body holds at an earlier event time named by the variable
        var = self.period(f.var)
        self._test(self._subper(self.et, self.lt))
        self._test(_lift(lambda v, et: type(v) is Period and v.hi < et.lo,
                         var, self.et))
        self._under(f.body, var, (self.m.timeline.full(), ()))


_FORMULAS = {
    Literal: _Compiler._literal,
    Culm: _Compiler._culm,
    And: _Compiler._and,
    Part: _Compiler._part,
    Pres: _Compiler._pres,
    Past: _Compiler._past,
    At: _Compiler._located,
    Before: _Compiler._located,
    After: _Compiler._located,
    Fills: _Compiler._fills,
    Ntense: _Compiler._ntense,
    For: _Compiler._for,
    Perf: _Compiler._perf,
}


def eval_top_at(m: TopModel, idx: EvalIndex, g: Assignment, f) -> bool:
    """Truth of f at a fixed index under a full assignment of its variables:
    its tests, run in order until one fails."""
    compiler = _Compiler(m, idx.st, idx.et, idx.lt)
    compiler.formula(f)
    return all(evaluate(test, g) for test, _ in compiler.tests)


def denot_top_witness(m: TopModel, st: int, f):
    """First (assignment, et) satisfying f at speech time st, or None.

    The search is exhaustive over all event times (ordered by (lo, hi)) and
    all assignments of the formula's variables into the object domain
    (atoms first, then periods).  The event time is the outermost level of
    the search, then the variables in first-occurrence order.  Each test of
    the formula runs as soon as its scope is bound, so a branch is cut by
    the first test it fails, or when a value fails a candidate filter that
    every satisfying assignment passes; the witness is exactly the one
    plain nested enumeration would find first.  The filters narrow event
    times too (literals, Culm, Pres and For), and tie a Past variable to
    its event time; a level with no candidate ends the search at once.
    """
    compiler = _Compiler(m, st, _EVENT_TIME, m.timeline.full())
    compiler.formula(f)
    plan = compiler.plan
    plan.restrict(_EVENT_TIME, plan.index.periods)
    # a leading test that always passes binds the event time first; each
    # clause adds its own variable's test before its body's, so the
    # variables follow in first-occurrence order
    found = plan.search([(_always, (_EVENT_TIME,))] + compiler.tests)
    if found is None:
        return None
    et = found.pop(_EVENT_TIME)
    return found, et


def denot_top(m: TopModel, st: int, f) -> bool:
    """Top-level denotation: true iff some assignment and event time satisfy f."""
    return denot_top_witness(m, st, f) is not None
