"""Reference semantics: tree-walking evaluators for both languages, and a
character-loop tokenizer.

The evaluators walk the formula at every call, one clause per node type,
exactly as the definitions read.  The package compiles formulas into
closures instead; tests compare the two.  The tokenizer reads one
character at a time, where the package runs one compiled pattern; tests
compare those too.
"""
from chronos import bot, lexer, top
from chronos.core import (
    EMPTY,
    UNDEFINED,
    Const,
    Period,
    UnboundVariable,
    UnknownConstant,
    UnknownFunctor,
    UnknownPartitioning,
    Var,
    intersect,
    subper,
)

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
        return m.timeline.next(v)
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
        return denote_term(m, st, g, f.term) in part
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

UNKNOWN = object()  # partial-assignment result: truth not yet determined

_NO_PERIODS = frozenset()


def _lookup(g, name, strict):
    try:
        return g[name]
    except KeyError:
        if strict:
            raise UnboundVariable(name) from None
        return UNKNOWN


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
        if v is UNKNOWN:
            unknown = True
        vals.append(v)
    return (None if unknown else tuple(vals))


def eval_top(m, st, et, lt, g, f, strict):
    """One clause per operator.  With strict=False an unbound variable makes
    the result UNKNOWN instead of an error; False is only returned when the
    formula is false under every extension of g."""
    t = type(f)

    if t is top.Literal:
        ext = m.extension(f.functor, len(f.args))
        if ext is None:
            raise UnknownFunctor(f"{f.functor}/{len(f.args)}")
        # true iff et fits the window and some maximal period covers it
        if not subper(et, lt):
            return False
        vals = _denote_args(m, g, f.args, strict)
        if vals is None:
            return UNKNOWN
        ps = ext.get(vals, _NO_PERIODS)
        return any(subper(et, p) for p in ps)

    if t is top.And:
        ra = eval_top(m, st, et, lt, g, f.left, strict)
        if ra is False:
            return False
        rb = eval_top(m, st, et, lt, g, f.right, strict)
        if rb is False:
            return False
        if ra is UNKNOWN or rb is UNKNOWN:
            return UNKNOWN
        return True

    if t is top.Part:
        part = m.partitioning(f.part)
        if part is None:
            raise UnknownPartitioning(f.part)
        v = _lookup(g, f.var.name, strict)
        if v is UNKNOWN:
            return UNKNOWN
        return v in part

    if t is top.Pres:
        # st must fall within the event time; lt is not consulted
        if st not in et:
            return False
        return eval_top(m, st, et, lt, g, f.body, strict)

    if t is top.Past:
        # narrow lt to the part strictly before the speech time
        window = Period(0, st - 1) if st > 0 else EMPTY
        lt2 = intersect(lt, window)
        v = _lookup(g, f.var.name, strict)
        if v is UNKNOWN:
            r = eval_top(m, st, et, lt2, g, f.body, strict)
            return False if r is False else UNKNOWN
        if v != et:
            return False
        return eval_top(m, st, et, lt2, g, f.body, strict)

    if t is top.Culm:
        lit = f.body
        ext = m.extension(lit.functor, len(lit.args))
        if ext is None:
            raise UnknownFunctor(f"{lit.functor}/{len(lit.args)}")
        if not subper(et, lt):
            return False
        vals = _denote_args(m, g, lit.args, strict)
        if vals is None:
            return UNKNOWN
        if not m.culm_flag(lit.functor, len(lit.args), vals):
            return False
        ps = ext.get(vals, _NO_PERIODS)
        if not ps:
            return False
        # et must run from the situation's first start to its last stop
        hull = Period(min(p.lo for p in ps), max(p.hi for p in ps))
        return et == hull

    if t in (top.At, top.Before, top.After):
        v = _denote(m, g, f.term, strict)
        if v is UNKNOWN:
            return UNKNOWN
        if not isinstance(v, Period):
            return False
        if t is top.At:
            window = v
        elif t is top.Before:
            window = Period(0, v.lo - 1) if v.lo > 0 else EMPTY
        else:
            last = m.timeline.t_last
            window = Period(v.hi + 1, last) if v.hi < last else EMPTY
        return eval_top(m, st, et, intersect(lt, window), g, f.body, strict)

    if t is top.Fills:
        # the event time must cover the whole window
        if et != lt:
            return False
        return eval_top(m, st, et, lt, g, f.body, strict)

    if t is top.Ntense:
        full = m.timeline.full()
        if f.var is None:
            return eval_top(m, st, Period(st, st), full, g, f.body, strict)
        v = _lookup(g, f.var.name, strict)
        if v is UNKNOWN:
            return UNKNOWN
        if not isinstance(v, Period):
            return False
        return eval_top(m, st, v, full, g, f.body, strict)

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
        return eval_top(m, st, et, lt, g, f.body, strict)

    if t is top.Perf:
        # the body holds at an earlier event time named by the variable
        if not subper(et, lt):
            return False
        v = _lookup(g, f.var.name, strict)
        if v is UNKNOWN:
            return UNKNOWN
        if not isinstance(v, Period):
            return False
        if not v.hi < et.lo:
            return False
        return eval_top(m, st, v, m.timeline.full(), g, f.body, strict)

    raise TypeError(f"not a TOP formula: {f!r}")
