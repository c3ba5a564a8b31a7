"""Brute-force equivalence harness for the TOP-to-BOT rewrite.

Random small models and formulas are generated from a seed; for each case
the TOP denotation of the source formula is compared against the BOT
denotation of its translation over the derived BOT model.  Disagreements
are shrunk greedily (drop conjuncts, unwrap operators, shrink the
timeline, shrink periods) and reported one per line.
"""
from __future__ import annotations

import hashlib
import random
from itertools import accumulate

from . import bot, top
from .core import (
    COMPLETE,
    GAPPY,
    Const,
    EvalError,
    ObjectDomain,
    Partitioning,
    Period,
    Record,
    Timeline,
    TopModel,
    Var,
    chain,
    conjoin,
    derive_bot_model,
    replace,
    validate_model,
)
from .modelfile import format_model
from .translate import translate


#: the largest value of each GenParams bound
_CAPS = dict(timeline_size=10, atom_count=4, pred_count=3, max_arity=2,
             max_depth=4, max_periods_per_tuple=2, max_free_vars=3)


class GenParams(Record):
    """Upper bounds for the random case generator; all draws stay below them."""

    timeline_size: int = 8
    atom_count: int = 3
    pred_count: int = 3
    max_arity: int = 2
    max_depth: int = 4
    max_periods_per_tuple: int = 2
    max_free_vars: int = 3
    seed: int = 0

    def __post_init__(self):
        for name, cap in _CAPS.items():
            value = getattr(self, name)
            if not 1 <= value <= cap:
                raise ValueError(f"{name} must be in 1..{cap}, got {value}")


class Verdict(Record):
    top_value: bool
    bot_value: bool
    #: (assignment, et) from the TOP search, or a BOT assignment, when a
    #: side is true; None when both sides are false.
    witness: object = None

    @property
    def agree(self) -> bool:
        return self.top_value == self.bot_value


# ---------------------------------------------------------------------------
# Generators


class _Draws(random.Random):
    """random.Random whose randrange(a, b) reads getrandbits as CPython
    3.10-3.13's `_randbelow_with_getrandbits` does, in one frame with no
    argument coercion, and whose choice(seq) draws through it: the same
    stream, cheaper.  Both refuse empty input, as random.Random does,
    before a loop that getrandbits(0), always 0, would never end."""

    def randrange(self, start, stop):
        n = stop - start
        if n <= 0:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        k = n.bit_length()
        r = self.getrandbits(k)
        while r >= n:
            r = self.getrandbits(k)
        return start + r

    def choice(self, seq):
        if not seq:
            raise IndexError("Cannot choose from an empty sequence")
        return seq[self.randrange(0, len(seq))]


def _random_maximal_periods(rng, size, cap):
    """1..cap periods, left to right, separated by gaps of at least one point."""
    periods = []
    cursor = 0
    for _ in range(rng.randrange(1, cap + 1)):
        if cursor > size - 1:
            break
        lo = rng.randrange(cursor, size)
        hi = rng.randrange(lo, size)
        periods.append(Period(lo, hi))
        cursor = hi + 2
    return frozenset(periods)


def _random_tiling(rng, size):
    blocks = []
    lo = 0
    while lo < size:
        hi = rng.randrange(lo, size)
        blocks.append(Period(lo, hi))
        lo = hi + 1
    return blocks


#: the names gen_model gives atoms, period constants and predicates, as
#: many as GenParams allows
_ATOMS = tuple(f"obj{i}" for i in range(_CAPS["atom_count"]))
_PERIOD_CONSTS = ("t0", "t1")
_PREDS = tuple(f"q{k}" for k in range(_CAPS["pred_count"]))


def gen_model(params: GenParams, rng=None) -> TopModel:
    """A valid random model with at least one complete and one gappy
    partitioning and a non-empty extension for every predicate."""
    if rng is None:
        rng = _Draws(params.seed)
    size = rng.randrange(min(3, params.timeline_size), params.timeline_size + 1)
    timeline = Timeline(size)

    atoms = _ATOMS[:rng.randrange(1, params.atom_count + 1)]
    consts = {a: a for a in atoms}
    for name in _PERIOD_CONSTS[:rng.randrange(1, 3)]:
        lo = rng.randrange(0, size)
        consts[name] = Period(lo, rng.randrange(lo, size))

    preds = {}
    culms = {}
    for name in _PREDS[:rng.randrange(1, params.pred_count + 1)]:
        arity = rng.randrange(1, params.max_arity + 1)
        ext = {}
        flags = {}
        for _ in range(rng.randrange(1, 3)):
            args = tuple(rng.choice(atoms) for _ in range(arity))
            if args in ext:
                continue
            ext[args] = _random_maximal_periods(
                rng, size, params.max_periods_per_tuple
            )
            flags[args] = rng.random() < 0.5
        preds[(name, arity)] = ext
        culms[(name, arity)] = flags

    cparts = {"cp0": Partitioning(COMPLETE, tuple(_random_tiling(rng, size)))}

    tiling = _random_tiling(rng, size)
    if len(tiling) >= 2:
        keep = max(1, rng.randrange(1, len(tiling)))
        kept = rng.sample(tiling, keep)
    else:
        kept = [Period(0, 0)] if size >= 2 else []
    gparts = {"gp0": Partitioning(GAPPY, tuple(kept))}

    model = TopModel(
        timeline=timeline,
        domain=ObjectDomain(timeline, atoms),
        consts=consts,
        preds=preds,
        culms=culms,
        cparts=cparts,
        gparts=gparts,
    )
    violations = validate_model(model)
    if violations:  # generator bug, not caller error
        raise AssertionError(f"generated invalid model: {violations}")
    return model


_OP_WEIGHTS = [
    (top.Past, 20),
    (top.At, 15),
    (top.Literal, 14),
    (top.And, 8),
    (top.Pres, 7),
    (top.Perf, 6),
    (top.Culm, 6),
    (top.Fills, 5),
    (top.Before, 5),
    (top.After, 5),
    (top.Ntense, 5),
    (top.For, 4),
    (top.Part, 3),
]
# what `choices` rebuilds from weights on every draw, built once
_OPS = [op for op, _ in _OP_WEIGHTS]
_CUM_WEIGHTS = list(accumulate(w for _, w in _OP_WEIGHTS))


def gen_formula(params: GenParams, model: TopModel, rng=None):
    """A random grammar-valid formula over the model's vocabulary, biased
    toward Past/At/literals so satisfiable cases stay frequent."""
    if rng is None:
        rng = _Draws(params.seed)
    pool = [f"x{i}" for i in range(rng.randrange(1, params.max_free_vars + 1))]
    preds = sorted(model.preds)
    atom_consts = sorted(n for n, v in model.consts.items() if isinstance(v, str))
    period_consts = sorted(
        n for n, v in model.consts.items() if isinstance(v, Period)
    )
    part_names = sorted(model.cparts) + sorted(model.gparts)
    cpart_names = sorted(model.cparts)

    def var():
        return Var(rng.choice(pool))

    def literal():
        functor, arity = rng.choice(preds)
        args = tuple(
            var() if rng.random() < 0.3 else Const(rng.choice(atom_consts))
            for _ in range(arity)
        )
        return top.Literal(functor, args)

    def anchor():
        if rng.random() < 0.25:
            return var()
        return Const(rng.choice(period_consts))

    # a draw for each kind of operator argument but a formula (see top.SHAPES)
    draws = {
        "L": literal,
        "V": var,
        "T": anchor,
        "W": lambda: None if rng.random() < 0.4 else var(),
        "Q": lambda: rng.randrange(1, 3),
        "N": lambda: rng.choice(part_names),
        "C": lambda: rng.choice(cpart_names),
    }

    def build(depth):
        if depth <= 1:
            op = top.Part if rng.random() < 0.15 else top.Literal
        else:
            op = rng.choices(_OPS, cum_weights=_CUM_WEIGHTS)[0]
        if op is top.Literal:
            return literal()
        if op is top.And:
            return top.And(build(depth - 1), build(depth - 1))
        # in shape order: the order of the draws fixes every generated case
        return op(*[build(depth - 1) if kind == "F" else draws[kind]()
                    for kind in top.SHAPES[op]])

    f = build(rng.randrange(1, params.max_depth + 1))
    del build  # build calls itself through this cell, a cycle holding rng
    return f


# ---------------------------------------------------------------------------
# Checking


def check_equivalence(
    m: TopModel, st: int, f, *, mutation: str | None = None
) -> Verdict:
    """Compare the TOP denotation of f with the BOT denotation of its
    translation over the derived BOT model."""
    translated = translate(f, mutation=mutation)
    derived = derive_bot_model(m, names=bot.functors(translated))
    top_witness = top.denot_top_witness(m, st, f)
    bot_witness = bot.denot_bot_witness(derived, st, translated)
    witness = top_witness if top_witness is not None else bot_witness
    return Verdict(top_witness is not None, bot_witness is not None, witness)


def model_digest(m: TopModel, speech: int) -> str:
    text = format_model(m, speech)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Shrinking


def _formula_shrinks(f):
    """All formulas one reduction step smaller: drop a conjunct, unwrap an
    operator, or lower a For quantity."""
    t = type(f)
    if t in (top.Literal, top.Part):
        return []
    if t is top.And:
        # operand by operand along the spine: keep it and those before it
        # only, drop it, or shrink it; shrunk reports depend on this order
        parts, out = chain(f), []
        for k, p in enumerate(parts):
            if k < len(parts) - 1:
                out += [conjoin(parts[:k + 1]), conjoin(parts[:k] + parts[k + 1:])]
            out.extend(conjoin(parts[:k] + [p2] + parts[k + 1:])
                       for p2 in _formula_shrinks(p))
        return out
    out = [f.body]
    if t is top.Culm:
        return out
    if t is top.For and f.qty > 1:
        out.append(replace(f, qty=f.qty - 1))
    out.extend(replace(f, body=b2) for b2 in _formula_shrinks(f.body))
    return out


def _clamp(p: Period, last: int):
    if p.lo > last:
        return None
    return Period(p.lo, min(p.hi, last))


def _drop_mergeable(periods):
    kept = []
    for p in sorted(periods):
        if kept and p.lo <= kept[-1].hi + 1:
            continue
        kept.append(p)
    return frozenset(kept)


def _shrink_timeline(m: TopModel, st: int):
    """The same model on a timeline one point shorter, or None."""
    size = m.timeline.size - 1
    if size < 1:
        return None
    last = size - 1
    timeline = Timeline(size)
    consts = {}
    for name, v in m.consts.items():
        if isinstance(v, Period):
            v = _clamp(v, last)
            if v is None:
                continue
        consts[name] = v
    preds = {}
    for key, ext in m.preds.items():
        new_ext = {}
        for args, ps in ext.items():
            clamped = [q for q in (_clamp(p, last) for p in ps) if q is not None]
            if clamped:
                new_ext[args] = _drop_mergeable(clamped)
        preds[key] = new_ext
    cparts = {}
    for name, part in m.cparts.items():
        blocks = []
        for b in part.blocks:
            c = _clamp(b, last)
            if c is not None:
                blocks.append(c)
        cparts[name] = Partitioning(COMPLETE, tuple(blocks))
    gparts = {}
    for name, part in m.gparts.items():
        blocks = [c for c in (_clamp(b, last) for b in part.blocks) if c]
        covered = sum(b.hi - b.lo + 1 for b in blocks)
        if covered >= size:
            blocks = blocks[:-1]
        gparts[name] = Partitioning(GAPPY, tuple(blocks))
    model = TopModel(
        timeline=timeline,
        domain=ObjectDomain(timeline, m.domain.atoms),
        consts=consts,
        preds=preds,
        culms={k: dict(v) for k, v in m.culms.items()},
        cparts=cparts,
        gparts=gparts,
    )
    return model, min(st, last)


def _period_shrinks(m: TopModel):
    """Models with one extension period or period constant one point shorter."""
    for key, ext in m.preds.items():
        for args, ps in ext.items():
            for p in sorted(ps):
                for smaller in (
                    [Period(p.lo + 1, p.hi), Period(p.lo, p.hi - 1)]
                    if p.lo < p.hi
                    else []
                ):
                    new_ps = frozenset(q for q in ps if q != p) | {smaller}
                    new_ext = dict(ext)
                    new_ext[args] = new_ps
                    new_preds = dict(m.preds)
                    new_preds[key] = new_ext
                    yield replace(m, preds=new_preds)
    for name, v in m.consts.items():
        if isinstance(v, Period) and v.lo < v.hi:
            for smaller in (Period(v.lo + 1, v.hi), Period(v.lo, v.hi - 1)):
                new_consts = dict(m.consts)
                new_consts[name] = smaller
                yield replace(m, consts=new_consts)


def shrink_counterexample(m: TopModel, st: int, f, *, mutation=None):
    """Greedy shrink preserving the disagreement; returns (model, st, formula)."""

    def disagrees(m2, st2, f2):
        if validate_model(m2):
            return False
        try:
            return not check_equivalence(m2, st2, f2, mutation=mutation).agree
        except EvalError:  # a step can drop what the formula names
            return False

    improved = True
    while improved:
        improved = False
        for f2 in _formula_shrinks(f):
            if disagrees(m, st, f2):
                f = f2
                improved = True
                break
        if improved:
            continue
        smaller = _shrink_timeline(m, st)
        if smaller is not None and disagrees(smaller[0], smaller[1], f):
            m, st = smaller
            improved = True
            continue
        for m2 in _period_shrinks(m):
            if disagrees(m2, st, f):
                m = m2
                improved = True
                break
    return m, st, f


# ---------------------------------------------------------------------------
# Campaign


class Disagreement(Record):
    case: int
    sub_seed: str
    st: int
    formula: str
    model_digest: str
    top_value: bool
    bot_value: bool
    shrunk_st: int
    shrunk_formula: str
    shrunk_model_digest: str

    def line(self) -> str:
        return (
            f"disagree case={self.case} seed={self.sub_seed} st={self.st}"
            f" top={str(self.top_value).lower()}"
            f" bot={str(self.bot_value).lower()}"
            f" model={self.model_digest} formula={self.formula}"
            f" shrunk_st={self.shrunk_st}"
            f" shrunk_model={self.shrunk_model_digest}"
            f" shrunk_formula={self.shrunk_formula}"
        )


class CampaignReport(Record):
    params: GenParams
    cases: int
    mutation: str | None
    disagreements: tuple

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def lines(self) -> list:
        out = [d.line() for d in self.disagreements]
        out.append(f"cases={self.cases} disagreements={len(self.disagreements)}")
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def _pick_st(rng, size):
    # interior points twice as likely, so past and future are usually non-empty
    candidates = list(range(size)) + list(range(1, size - 1))
    return rng.choice(candidates)


def gen_case(params: GenParams, index: int):
    """Deterministic (model, st, formula) triple for one campaign case.
    Its randrange and choice draws rest on getrandbits alone (`_Draws`);
    the tests' GENERATOR_DIGESTS pin the cases on every Python CI runs."""
    rng = _Draws(f"{params.seed}/case/{index}")
    m = gen_model(params, rng)
    st = _pick_st(rng, m.timeline.size)
    f = gen_formula(params, m, rng)
    return m, st, f


def run_campaign(
    params: GenParams, cases: int, *, mutation: str | None = None
) -> CampaignReport:
    """Check `cases` independent seeded cases; disagreements come back shrunk."""
    if cases < 0:
        raise ValueError(f"cases must be at least 0, got {cases}")
    found = []
    for i in range(cases):
        m, st, f = gen_case(params, i)
        verdict = check_equivalence(m, st, f, mutation=mutation)
        if verdict.agree:
            continue
        sm, sst, sf = shrink_counterexample(m, st, f, mutation=mutation)
        found.append(
            Disagreement(
                case=i,
                sub_seed=f"{params.seed}/case/{i}",
                st=st,
                formula=top.print_top(f),
                model_digest=model_digest(m, st),
                top_value=verdict.top_value,
                bot_value=verdict.bot_value,
                shrunk_st=sst,
                shrunk_formula=top.print_top(sf),
                shrunk_model_digest=model_digest(sm, sst),
            )
        )
    return CampaignReport(params, cases, mutation, tuple(found))
