"""Reference semantics: tree-walking evaluators for both languages, a
character-loop tokenizer, and cursor-driven parsers.

The evaluators walk the formula at every call, one clause per node type,
exactly as the definitions read.  The package compiles formulas into
closures instead; tests compare the two.  The tokenizer reads one
character at a time, where the package runs one compiled pattern; tests
compare those too.  The parsers recurse once per conjunct and read tokens
through a peek/next/expect stream, where the package parses ``&`` chains
with a loop on a shared descent core; tests compare their ASTs and errors.
`first_unknown` walks a formula for the first name its model lacks, which
the package's compilers must raise on.
"""
from chronos import bot, lexer, top
from chronos.core import (
    EMPTY,
    UNDEFINED,
    BotModel,
    Const,
    Literal,
    Period,
    Record,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    fields,
    intersect,
    subper,
)
from chronos.lexer import ArityError, ParseError
from tokens import Token

# ---------------------------------------------------------------------------
# Tokenizer


def tokenize(text: str) -> list:
    """(kind, text, line, column) tuples; raises lexer.ParseError."""
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
        if ch in "[](),&":
            tokens.append((ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch == "?":
            j = i + 1
            if j >= n or not _is_ident_start(text[j]):
                raise lexer.ParseError(
                    "expected identifier after '?'", line, start_col)
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append((lexer.VAR, text[i + 1 : j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "0123456789":
            j = i
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append((lexer.INT, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            j = i
            while j < n and _is_ident_char(text[j]):
                j += 1
            tokens.append((lexer.IDENT, text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        raise lexer.ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append((lexer.EOF, "", line, col))
    return tokens


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


# ---------------------------------------------------------------------------
# Parsers: a token-stream cursor and one recursive-descent parser per
# language, where the package runs both on lexer.Parser


class TokenStream:
    def __init__(self, text: str):
        self.tokens = [Token(*tok) for tok in tokenize(text)]
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != lexer.EOF:
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text if tok.kind != lexer.EOF else "end of input"
            raise ParseError(
                f"expected {what or kind}, found {found!r}", tok.line, tok.column
            )
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)


_TOP_OPERATORS = {
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
_TOP_RESERVED = _TOP_OPERATORS | {"now"}


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
            return top.And(left, self.formula())
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
        if name in _TOP_OPERATORS:
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
            f = top.Pres(self.formula())
        elif name == "Fills":
            f = top.Fills(self.formula())
        elif name in ("Past", "Perf"):
            v = self.variable()
            ts.expect(",")
            body = self.formula()
            f = (top.Past if name == "Past" else top.Perf)(v, body)
        elif name == "Culm":
            f = top.Culm(self.literal())
        elif name in ("At", "Before", "After"):
            term = self.term()
            ts.expect(",")
            body = self.formula()
            cls = {"At": top.At, "Before": top.Before, "After": top.After}[name]
            f = cls(term, body)
        elif name == "Ntense":
            if ts.at(lexer.IDENT, "now"):
                ts.next()
                anchor = None
            else:
                anchor = self.variable()
            ts.expect(",")
            f = top.Ntense(anchor, self.formula())
        elif name == "For":
            part = self.ident("partitioning name")
            ts.expect(",")
            qty_tok = ts.expect(lexer.INT, "quantity")
            cap = str(lexer.MAX_QUANTITY)
            digits = qty_tok.text.lstrip("0") or "0"
            # compared as digit strings of one length: no int() of a huge run
            if (len(digits), digits) > (len(cap), cap):
                raise ParseError(
                    f"quantity must be at most {cap}", qty_tok.line, qty_tok.column
                )
            qty = int(digits)
            if qty < 1:
                raise ParseError(
                    "quantity must be at least 1", qty_tok.line, qty_tok.column
                )
            ts.expect(",")
            f = top.For(part, qty, self.formula())
        else:  # Part
            part = self.ident("partitioning name")
            ts.expect(",")
            f = top.Part(part, self.variable())
        ts.expect("]")
        return f

    def literal(self):
        tok = self.ts.expect(lexer.IDENT, "predicate functor")
        if tok.text in _TOP_RESERVED:
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
        return top.Literal(tok.text, tuple(args))

    def term(self):
        if self.ts.at(lexer.VAR):
            return Var(self.ts.next().text)
        tok = self.ts.expect(lexer.IDENT, "constant or variable")
        if tok.text in _TOP_RESERVED:
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


_BOT_RESERVED = {
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

_BOT_POINT_KEYWORDS = {"beg": bot.BEG, "now": bot.NOW, "end": bot.END}


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
            return bot.And(left, self.formula())
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
            return bot.Subper(a, b)
        if name == "eq":
            ts.next()
            ts.expect("(")
            a = self.term()
            ts.expect(",")
            b = self.term()
            ts.expect(")")
            return bot.Eq(a, b)
        if name == "period":
            ts.next()
            ts.expect("(")
            t = self.term()
            ts.expect(")")
            return bot.IsPeriod(t)
        if name == "part":
            ts.next()
            ts.expect("(")
            pname = ts.expect(lexer.IDENT, "partitioning name").text
            ts.expect(",")
            t = self.term()
            ts.expect(")")
            return bot.InPart(pname, t)
        if name == "prec":
            ts.next()
            ts.expect("(")
            a = self.point_expr()
            ts.expect(",")
            b = self.point_expr()
            ts.expect(")")
            return bot.Prec(a, b)
        if name in _BOT_RESERVED:
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
        return bot.Literal(tok.text, tuple(args))

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
        if name in _BOT_POINT_KEYWORDS or name in ("earliest", "latest", "succ"):
            return self.point_expr()
        if name == "intersect":
            return self.intersect()
        if name in _BOT_RESERVED:
            raise ParseError(f"misplaced keyword {name!r}", tok.line, tok.column)
        return Const(ts.next().text)

    def point_expr(self):
        ts = self.ts
        tok = ts.expect(lexer.IDENT, "point expression")
        name = tok.text
        if name in _BOT_POINT_KEYWORDS:
            return _BOT_POINT_KEYWORDS[name]
        if name in ("earliest", "latest"):
            ts.expect("(")
            p = self.period_expr()
            ts.expect(")")
            return bot.Earliest(p) if name == "earliest" else bot.Latest(p)
        if name == "succ":
            ts.expect("(")
            p = self.point_expr()
            ts.expect(")")
            return bot.Succ(p)
        raise ParseError(f"expected point expression, found {name!r}",
                         tok.line, tok.column)

    def period_expr(self):
        ts = self.ts
        tok = ts.peek()
        if tok.kind in ("[", "("):
            return self.interval()
        if tok.kind == lexer.VAR:
            return bot.TermRef(Var(ts.next().text))
        if tok.kind == lexer.IDENT:
            if tok.text == "intersect":
                return self.intersect()
            if tok.text not in _BOT_RESERVED:
                return bot.TermRef(Const(ts.next().text))
        ts.error("expected a period expression")

    def intersect(self):
        ts = self.ts
        ts.next()  # the intersect keyword
        ts.expect("(")
        a = self.period_expr()
        ts.expect(",")
        b = self.period_expr()
        ts.expect(")")
        return bot.Intersect(a, b)

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
        return bot.Interval(lo, hi, lo_closed, close_tok.kind == "]")


def parse_top(text: str):
    return _TopParser(text).parse()


def parse_bot(text: str):
    return _BotParser(text).parse()


# ---------------------------------------------------------------------------
# BOT

POINT_TYPES = (bot.Beg, bot.Now, bot.End, bot.Earliest, bot.Latest, bot.Succ)
PERIOD_TYPES = (bot.Interval, bot.Intersect, bot.TermRef)


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


def eval_point(m, st, g, e):
    """Time-point denoted by a point expression, or UNDEFINED."""
    t = type(e)
    if t is bot.Beg:
        return 0
    if t is bot.Now:
        return st
    if t is bot.End:
        return m.timeline.t_last
    if t in (bot.Earliest, bot.Latest):
        p = eval_period(m, st, g, e.per)
        if not isinstance(p, Period):
            return UNDEFINED
        return p.lo if t is bot.Earliest else p.hi
    if t is bot.Succ:
        v = eval_point(m, st, g, e.point)
        if v is UNDEFINED:
            return UNDEFINED
        return v + 1 if v < m.timeline.t_last else UNDEFINED
    raise TypeError(f"not a point expression: {e!r}")


def eval_period(m, st, g, e):
    """Point set denoted by a period expression: Period, EMPTY, or UNDEFINED."""
    t = type(e)
    if t is bot.Interval:
        a = eval_point(m, st, g, e.lo)
        b = eval_point(m, st, g, e.hi)
        if a is UNDEFINED or b is UNDEFINED:
            return UNDEFINED
        lo = a if e.lo_closed else a + 1
        hi = b if e.hi_closed else b - 1
        return Period(lo, hi) if lo <= hi else EMPTY
    if t is bot.Intersect:
        a = eval_period(m, st, g, e.left)
        if a is UNDEFINED:
            return UNDEFINED
        b = eval_period(m, st, g, e.right)
        if b is UNDEFINED:
            return UNDEFINED
        return intersect(a, b)
    if t is bot.TermRef:
        v = denote_term(m, st, g, e.term)
        return v if isinstance(v, Period) else UNDEFINED
    raise TypeError(f"not a period expression: {e!r}")


def denote_term(m, st, g, term):
    """Denotation of any BOT term: object, time-point, EMPTY, or UNDEFINED."""
    t = type(term)
    if t is Const:
        return _const_value(m, term.name)
    if t is Var:
        return _var_value(g, term.name)
    if t in POINT_TYPES:
        return eval_point(m, st, g, term)
    if t in PERIOD_TYPES:
        return eval_period(m, st, g, term)
    raise TypeError(f"not a BOT term: {term!r}")


def eval_bot(m, st, g, f) -> bool:
    """Truth of a formula under a full assignment of its variables."""
    t = type(f)
    if t is bot.And:
        return eval_bot(m, st, g, f.left) and eval_bot(m, st, g, f.right)
    if t is bot.Literal:
        tuples = m.true_tuples(f.functor, len(f.args))
        if tuples is None:
            raise UnknownFunctor(f"{f.functor}/{len(f.args)}")
        vals = tuple(denote_term(m, st, g, a) for a in f.args)
        if any(v is UNDEFINED for v in vals):
            return False
        return vals in tuples
    if t is bot.Subper:
        a = eval_period(m, st, g, f.left)
        if not isinstance(a, Period):
            return False
        b = eval_period(m, st, g, f.right)
        if not isinstance(b, Period):
            return False
        return b.lo <= a.lo and a.hi <= b.hi
    if t is bot.Eq:
        a = denote_term(m, st, g, f.left)
        if a is UNDEFINED:
            return False
        b = denote_term(m, st, g, f.right)
        if b is UNDEFINED:
            return False
        return a == b
    if t is bot.IsPeriod:
        return isinstance(denote_term(m, st, g, f.term), Period)
    if t is bot.InPart:
        part = m.partitioning(f.part)
        if part is None:
            raise UnknownPartitioning(f.part)
        v = denote_term(m, st, g, f.term)
        return type(v) is Period and v in part.blocks
    if t is bot.Prec:
        a = eval_point(m, st, g, f.left)
        if a is UNDEFINED:
            return False
        b = eval_point(m, st, g, f.right)
        if b is UNDEFINED:
            return False
        return a < b
    raise TypeError(f"not a BOT formula: {f!r}")


# ---------------------------------------------------------------------------
# TOP

_NO_PERIODS = frozenset()


def _lookup(g, name):
    try:
        return g[name]
    except KeyError:
        raise UnboundVariable(name) from None


def _denote(m, g, term):
    if type(term) is Const:
        try:
            return m.consts[term.name]
        except KeyError:
            raise UnknownConstant(term.name) from None
    return _lookup(g, term.name)


def eval_top(m, st, et, lt, g, f):
    """One clause per operator, under a full assignment of f's variables."""
    t = type(f)

    if t is top.Literal:
        ext = m.extension(f.functor, len(f.args))
        if ext is None:
            raise UnknownFunctor(f"{f.functor}/{len(f.args)}")
        # true iff et fits the window and some maximal period covers it
        if not subper(et, lt):
            return False
        vals = tuple(_denote(m, g, a) for a in f.args)
        ps = ext.get(vals, _NO_PERIODS)
        return any(subper(et, p) for p in ps)

    if t is top.And:
        return (eval_top(m, st, et, lt, g, f.left)
                and eval_top(m, st, et, lt, g, f.right))

    if t is top.Part:
        part = m.partitioning(f.part)
        if part is None:
            raise UnknownPartitioning(f.part)
        v = _lookup(g, f.var.name)
        return type(v) is Period and v in part.blocks

    if t is top.Pres:
        # st must fall within the event time; lt is not consulted
        if not et.lo <= st <= et.hi:
            return False
        return eval_top(m, st, et, lt, g, f.body)

    if t is top.Past:
        # narrow lt to the points before the speech time
        window = Period(0, st - 1) if st > 0 else EMPTY
        lt2 = intersect(lt, window)
        if _lookup(g, f.var.name) != et:
            return False
        return eval_top(m, st, et, lt2, g, f.body)

    if t is top.Culm:
        lit = f.body
        ext = m.extension(lit.functor, len(lit.args))
        if ext is None:
            raise UnknownFunctor(f"{lit.functor}/{len(lit.args)}")
        if not subper(et, lt):
            return False
        vals = tuple(_denote(m, g, a) for a in lit.args)
        if not m.culm_flag(lit.functor, len(lit.args), vals):
            return False
        ps = ext.get(vals, _NO_PERIODS)
        if not ps:
            return False
        # et must run from the situation's first start to its last stop
        hull = Period(min(p.lo for p in ps), max(p.hi for p in ps))
        return et == hull

    if t in (top.At, top.Before, top.After):
        v = _denote(m, g, f.term)
        if not isinstance(v, Period):
            return False
        if t is top.At:
            window = v
        elif t is top.Before:
            window = Period(0, v.lo - 1) if v.lo > 0 else EMPTY
        else:
            last = m.timeline.t_last
            window = Period(v.hi + 1, last) if v.hi < last else EMPTY
        return eval_top(m, st, et, intersect(lt, window), g, f.body)

    if t is top.Fills:
        # the event time must cover the whole window
        if et != lt:
            return False
        return eval_top(m, st, et, lt, g, f.body)

    if t is top.Ntense:
        full = m.timeline.full()
        if f.var is None:
            return eval_top(m, st, Period(st, st), full, g, f.body)
        v = _lookup(g, f.var.name)
        if not isinstance(v, Period):
            return False
        return eval_top(m, st, v, full, g, f.body)

    if t is top.For:
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
        return eval_top(m, st, et, lt, g, f.body)

    if t is top.Perf:
        # the body holds at an earlier event time named by the variable
        if not subper(et, lt):
            return False
        v = _lookup(g, f.var.name)
        if not isinstance(v, Period):
            return False
        if not v.hi < et.lo:
            return False
        return eval_top(m, st, v, m.timeline.full(), g, f.body)

    raise TypeError(f"not a TOP formula: {f!r}")


# ---------------------------------------------------------------------------
# Names


def _names(m, f):
    """(error class, whether m has the name) for every functor, constant and
    partitioning f uses, in reading order: a node's own name first, then its
    fields in declaration order."""
    t = type(f)
    if t is Const:
        yield UnknownConstant, f.name in m.consts
        return
    if t is Literal:
        table = m.true_tuples if isinstance(m, BotModel) else m.extension
        yield UnknownFunctor, table(f.functor, len(f.args)) is not None
    elif t is top.For:
        yield UnknownPartitioning, f.cpart in m.cparts
    elif t is top.Part or t is bot.InPart:
        yield UnknownPartitioning, m.partitioning(f.part) is not None
    for name in fields(f):
        value = getattr(f, name)
        for sub in value if type(value) is tuple else (value,):
            if isinstance(sub, Record):
                yield from _names(m, sub)


def first_unknown(m, f):
    """The error class of the first name in f, a BOT or TOP formula or a BOT
    term, that m lacks, or None when m has every name f uses."""
    return next((error for error, known in _names(m, f) if not known), None)
