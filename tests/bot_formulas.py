"""BOT formulas for tests: random grammar-valid ones for parser round-trip
checks, and nests as deep as the parser admits."""
from chronos import bot
from chronos.core import Const, Var

#: (formula, its answer on m0 at speech time 7): 401 or 402 levels, the
#: BOT parser's cap; the last two read a variable at the bottom, so their
#: closures nest as deep as their compilation does
DEEPEST_NESTS = (
    ("period(?x) & subper(?x, " + "intersect(" * 402 + "?x"
     + ", [beg, end])" * 402 + ")", True),
    ("prec(beg, " + "earliest([beg, " * 402 + "end" + "])" * 402 + ")", False),
    ("period(?x) & prec(" + "earliest([beg, " * 401 + "latest(?x)"
     + "])" * 401 + ", end)", True),
    ("period(?x) & prec(beg, " + "succ(" * 401 + "latest(?x)" + ")" * 401
     + ")", False),
)


def gen_bot_formula(rng):
    """A random grammar-valid BOT formula over a fixed small vocabulary;
    used for parser round-trip checks, so satisfiability is irrelevant."""
    arities = {}

    def term(depth):
        # bare TermRef is not canonical here: in a term position the parser
        # yields the constant or variable itself
        choice = rng.randrange(6 if depth > 0 else 2)
        if choice == 0:
            return Var(f"x{rng.randrange(3)}")
        if choice == 1:
            return Const(f"c{rng.randrange(3)}")
        if choice == 2:
            return point(depth - 1)
        return structural_period(depth - 1)

    def point(depth):
        choice = rng.randrange(6 if depth > 0 else 3)
        if choice == 0:
            return bot.BEG
        if choice == 1:
            return bot.NOW
        if choice == 2:
            return bot.END
        if choice == 3:
            return bot.Succ(point(depth - 1))
        if choice == 4:
            return bot.Earliest(period(depth - 1))
        return bot.Latest(period(depth - 1))

    def structural_period(depth):
        if depth > 0 and rng.random() < 0.4:
            return bot.Intersect(period(depth - 1), period(depth - 1))
        return bot.Interval(
            point(depth - 1), point(depth - 1), rng.random() < 0.5,
            rng.random() < 0.5,
        )

    def period(depth):
        if rng.randrange(3) == 0:
            return bot.TermRef(
                Var(f"x{rng.randrange(3)}")
                if rng.random() < 0.5
                else Const(f"c{rng.randrange(3)}")
            )
        return structural_period(depth)

    def atom():
        kind = rng.randrange(6)
        if kind == 0:
            functor = f"q{rng.randrange(3)}"
            arity = arities.setdefault(functor, rng.randint(1, 3))
            return bot.Literal(functor, tuple(term(2) for _ in range(arity)))
        if kind == 1:
            return bot.Subper(period(2), period(2))
        if kind == 2:
            return bot.Eq(term(2), term(2))
        if kind == 3:
            return bot.IsPeriod(term(2))
        if kind == 4:
            return bot.InPart(f"p{rng.randrange(2)}", term(2))
        return bot.Prec(point(2), point(2))

    f = atom()
    for _ in range(rng.randrange(3)):
        f = bot.And(f, atom())
    return f
