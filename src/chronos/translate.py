"""Rewriting TOP formulas into equivalent BOT formulas.

Each TOP construct has one rule; rules thread two BOT expressions through
the recursion: eps stands for the event time and lam for the localisation
window.  The initial call uses a fresh variable for eps and the full
timeline span for lam, mirroring how the top-level TOP denotation
quantifies the event time over all periods while the window starts out
unrestricted.
"""
from __future__ import annotations

from . import bot, top
from .core import Const, EtaMapping, Record, Var, chain, conjoin


class EtaCollision(Exception):
    """A derived functor name already occurs in the source formula."""


#: Recognized deliberate translator defects, used to demonstrate that the
#: equivalence harness can detect semantic drift.
MUTATIONS = ("drop-past-narrowing",)

_FULL_SPAN = bot.Interval(bot.BEG, bot.END, True, True)
_PAST_WINDOW = bot.Interval(bot.BEG, bot.NOW, True, False)
_NOW_PERIOD = bot.Interval(bot.NOW, bot.NOW, True, True)


class TransContext:
    """Fresh-name source and functor mappings threaded through one rewrite;
    mutable, as drawing a name advances the counter."""

    def __init__(self, eta=None, used_vars=None, used_functors=frozenset(),
                 counter=0, mutation=None):
        self.eta = EtaMapping() if eta is None else eta
        self.used_vars = set() if used_vars is None else used_vars
        self.used_functors = used_functors
        self.counter = counter
        self.mutation = mutation

    def fresh_var(self, role: str) -> Var:
        while True:
            name = f"_{role}{self.counter}"
            self.counter += 1
            if name not in self.used_vars:
                self.used_vars.add(name)
                return Var(name)

    def eta_pair(self, functor: str):
        pair = (self.eta.culm_functor(functor), self.eta.span_functor(functor))
        for image in pair:
            if image in self.used_functors:
                raise EtaCollision(f"derived functor {image!r} is already in use")
        return pair


def _as_period(term):
    """Wrap a constant or variable for use in a period-expression position."""
    if isinstance(term, (Const, Var)):
        return bot.TermRef(term)
    return term


def trans(f, eps, lam, ctx: TransContext):
    """Apply the rule matching f's head; total over the TOP grammar."""
    t = type(f)

    if t is top.Literal:
        b = ctx.fresh_var("p")
        return conjoin([
            bot.Subper(_as_period(eps), lam),
            bot.Literal(f.functor, f.args + (b,)),
            bot.Subper(_as_period(eps), bot.TermRef(b)),
        ])

    if t is top.And:  # the operands' translations on one spine, groups kept
        parts = []
        for p in chain(f):
            parts.append(trans(p, eps, lam, ctx))
        return conjoin(parts)

    if t is top.Part:
        return bot.InPart(f.part, f.var)

    if t is top.Pres:
        return bot.And(
            bot.Subper(_NOW_PERIOD, _as_period(eps)),
            trans(f.body, eps, lam, ctx),
        )

    if t is top.Past:
        if ctx.mutation == "drop-past-narrowing":
            narrowed = lam
        else:
            narrowed = bot.Intersect(lam, _PAST_WINDOW)
        return bot.And(bot.Eq(f.var, eps), trans(f.body, eps, narrowed, ctx))

    if t is top.Culm:
        lit = f.body
        culm_f, span_f = ctx.eta_pair(lit.functor)
        return conjoin([
            bot.Subper(_as_period(eps), lam),
            bot.Literal(culm_f, lit.args),
            bot.Literal(span_f, lit.args + (eps,)),
        ])

    if t is top.At:
        return bot.And(
            bot.IsPeriod(f.term),
            trans(f.body, eps, bot.Intersect(lam, _as_period(f.term)), ctx),
        )

    if t is top.Before:
        window = bot.Interval(
            bot.BEG, bot.Earliest(_as_period(f.term)), True, False
        )
        return bot.And(
            bot.IsPeriod(f.term),
            trans(f.body, eps, bot.Intersect(lam, window), ctx),
        )

    if t is top.After:
        window = bot.Interval(
            bot.Latest(_as_period(f.term)), bot.END, False, True
        )
        return bot.And(
            bot.IsPeriod(f.term),
            trans(f.body, eps, bot.Intersect(lam, window), ctx),
        )

    if t is top.Fills:
        return bot.And(bot.Eq(eps, lam), trans(f.body, eps, lam, ctx))

    if t is top.Ntense:
        if f.var is None:
            return trans(f.body, _NOW_PERIOD, _FULL_SPAN, ctx)
        return bot.And(
            bot.IsPeriod(f.var), trans(f.body, f.var, _FULL_SPAN, ctx)
        )

    if t is top.For:
        blocks = [ctx.fresh_var("b") for _ in range(f.qty)]
        parts = [bot.InPart(f.cpart, b) for b in blocks]
        eps_p = _as_period(eps)
        parts.append(
            bot.Eq(bot.Earliest(_as_period(blocks[0])), bot.Earliest(eps_p))
        )
        for a, b in zip(blocks, blocks[1:]):
            parts.append(
                bot.Eq(
                    bot.Succ(bot.Latest(_as_period(a))),
                    bot.Earliest(_as_period(b)),
                )
            )
        parts.append(
            bot.Eq(bot.Latest(_as_period(blocks[-1])), bot.Latest(eps_p))
        )
        parts.append(trans(f.body, eps, lam, ctx))
        return conjoin(parts)

    if t is top.Perf:
        return conjoin([
            bot.Subper(_as_period(eps), lam),
            bot.IsPeriod(f.var),
            bot.Prec(
                bot.Latest(_as_period(f.var)), bot.Earliest(_as_period(eps))
            ),
            trans(f.body, f.var, _FULL_SPAN, ctx),
        ])

    raise TypeError(f"not a TOP formula: {f!r}")


def translate(f, *, eta: EtaMapping | None = None, mutation: str | None = None):
    """Full rewrite of a TOP formula; deterministic for a given input.

    Fresh variables are drawn from a single counter and never collide with
    the formula's own variables.  mutation selects a deliberately broken
    rule variant from MUTATIONS (testing aid).
    """
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}")
    names, functors = top.symbols(f)
    ctx = TransContext(
        eta=eta,
        used_vars=set(names),
        used_functors=frozenset(functors),
        mutation=mutation,
    )
    eps = ctx.fresh_var("et")
    return trans(f, eps, _FULL_SPAN, ctx)


def alpha_equivalent(a, b, fixed=frozenset()) -> bool:
    """Structural equality of two BOT formulas up to consistent renaming of
    variables outside the fixed set; fixed variables must match exactly."""
    fwd = {}
    bwd = {}

    def walk(x, y):
        if type(x) is not type(y):
            return False
        if type(x) is Var:
            if x.name in fixed or y.name in fixed:
                return x.name == y.name
            if fwd.setdefault(x.name, y.name) != y.name:
                return False
            return bwd.setdefault(y.name, x.name) == x.name
        if type(x) is bot.And:  # along the spine, a frame per group only
            x, y = chain(x), chain(y)
        elif isinstance(x, Record):
            x, y = type(x)._values(x), type(y)._values(y)
        elif not isinstance(x, tuple):
            return x == y
        return len(x) == len(y) and all(map(walk, x, y))

    return walk(a, b)
