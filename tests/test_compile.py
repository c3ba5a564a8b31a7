"""Compiled evaluation against the tree-walking reference semantics.

Formulas are compiled once into closures, with the parts that read no
variable folded to their values.  Here every compiled closure must give
what the reference evaluators in reference.py give, or raise an exception
of the same type, on generated formulas and assignments.  A formula that
names a functor, constant or partitioning its model lacks must instead
fail to compile, with the error of the first such name in reading order
(`reference.first_unknown`).
"""
import random

import reference
from chronos import bot, top
from chronos.core import (
    COMPLETE,
    EMPTY,
    GAPPY,
    BotModel,
    ObjectDomain,
    Partitioning,
    Period,
    Record,
    Timeline,
    Var,
    derive_bot_model,
    evaluate,
    fields,
)
from bot_formulas import gen_bot_formula
from chronos.equiv import GenParams, gen_case
from chronos.top import EvalIndex
from chronos.translate import translate


def _outcome(run):
    """What a call returns, or the type of what it raises."""
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)


def _raised(run):
    """The type of what a call raises, or None."""
    try:
        run()
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)
    return None


def _speech_times(m):
    """The first point, an interior one and the last one."""
    return sorted({0, m.timeline.size // 2, m.timeline.t_last})


def _terms(x):
    """Every term nested in x, a BOT atom or term, depth first, left to
    right."""
    for name in fields(x):
        value = getattr(x, name)
        for t in value if type(value) is tuple else (value,):
            if isinstance(t, Record):
                yield t
                yield from _terms(t)


def _check_conjuncts(m, f, objects, rng, tries=3):
    """Every conjunct of f, and every point and period expression in it,
    under random full assignments at three speech times; where one names
    something m lacks, it must raise that error, and so must f as a whole.
    Returns how many conjuncts were compared with the reference."""
    error = reference.first_unknown(m, f)
    assert _raised(lambda: bot.denot_bot_witness(m, 0, f)) is error
    atoms = bot.flatten(f)
    errors = [reference.first_unknown(m, atom) for atom in atoms]
    names = bot.free_vars_ordered(f)
    for st in _speech_times(m):
        for _ in range(tries):
            g = {name: rng.choice(objects) for name in names}
            assert _raised(lambda: bot.eval_bot(m, st, g, f)) is error
            for atom, atom_error in zip(atoms, errors):
                got = _outcome(lambda: bot.eval_bot(m, st, g, atom))
                want = atom_error or _outcome(
                    lambda: reference.eval_bot(m, st, g, atom))
                assert got == want, (bot.print_bot(atom), st, g)
                for e in _terms(atom):
                    if type(e) in reference.POINT_TYPES:
                        pair = (bot.eval_point, reference.eval_point)
                    elif type(e) in reference.PERIOD_TYPES:
                        pair = (bot.eval_period, reference.eval_period)
                    else:
                        continue
                    got = _outcome(lambda: pair[0](m, st, g, e))
                    want = reference.first_unknown(m, e) or _outcome(
                        lambda: pair[1](m, st, g, e))
                    assert got == want, (bot.print_bot(atom), e, st, g)
    return errors.count(None)


def _bot_vocabulary_model():
    """A model for gen_bot_formula's names: some functors, constants and
    partitionings exist, the others are unknown and must raise."""
    rng = random.Random("bot-vocabulary")
    timeline = Timeline(6)
    domain = ObjectDomain(timeline, ("a0", "a1"))
    objects = list(domain.objects())
    preds = {
        (functor, arity): frozenset(
            tuple(rng.choice(objects) for _ in range(arity)) for _ in range(12)
        )
        for functor, arity in (("q0", 1), ("q0", 2), ("q1", 2), ("q1", 3), ("q2", 1))
    }
    return BotModel(
        timeline=timeline,
        domain=domain,
        consts={"c0": "a1", "c1": Period(1, 3)},  # c2 is unknown
        bot_preds=preds,
        cparts={"p0": Partitioning(COMPLETE, (Period(0, 1), Period(2, 5)))},
        gparts={"gp": Partitioning(GAPPY, (Period(3, 3),))},  # p1 is unknown
    ), objects


def test_bot_conjuncts_of_generated_formulas_match_reference():
    m, objects = _bot_vocabulary_model()
    compared = total = 0
    for i in range(300):
        rng = random.Random(f"compile-bot/{i}")
        f = gen_bot_formula(rng)
        compared += _check_conjuncts(m, f, objects, rng)
        total += len(bot.flatten(f))
    assert compared >= 454 and total - compared >= 100, (compared, total)


def test_bot_conjuncts_of_translations_match_reference():
    """Translated cases, each also against the next case's model, where
    some of its names are unknown."""
    params = GenParams(seed=7)
    cases = [gen_case(params, i) for i in range(121)]
    compared = total = 0
    for i, (m, _, f) in enumerate(cases[:-1]):
        rng = random.Random(f"compile-trans/{i}")
        translated = translate(f)
        derived = derive_bot_model(m)
        atoms = len(bot.flatten(translated))
        objects = list(derived.objects())
        assert _check_conjuncts(derived, translated, objects, rng) == atoms
        derived = derive_bot_model(cases[i + 1][0])
        objects = list(derived.objects())
        compared += _check_conjuncts(derived, translated, objects, rng)
        total += atoms
    assert compared >= 393 and total - compared >= 50, (compared, total)


def test_folded_constants_at_the_timeline_edges():
    """[beg, now) is empty at speech time 0 and succ(end) is undefined."""
    m, _ = _bot_vocabulary_model()
    for text in (
        "subper([beg, now), [beg, end])",
        "eq([beg, now), intersect([beg, now), [beg, end]))",
        "prec(earliest([beg, now)), end)",
        "prec(succ(end), end)",
        "eq(succ(end), succ(end))",
        "q0(succ(end))",
        "q0(succ(end), c2)",
        "prec(beg, succ(now))",
    ):
        f = bot.parse_bot(text)
        for st in (0, 3, 5):
            assert _outcome(lambda: bot.eval_bot(m, st, {}, f)) == _outcome(
                lambda: reference.eval_bot(m, st, {}, f)), (text, st)


def _check_folding(m, f):
    """Each term, and each atom before `conjunct` wraps it, of every
    conjunct of f that m has all names for compiles to a folded value
    exactly when it names no variable, and that value is the reference's.
    The names the compiled part reads are its variables, in first-occurrence
    order once repeats are dropped.  Returns how many parts were folded."""
    folded = 0
    for atom in bot.flatten(f):
        if reference.first_unknown(m, atom) is not None:
            continue
        for st in _speech_times(m):
            compiler = bot._Compiler(m, st)
            parts = [(atom, compiler.atom, reference.eval_bot, _terms(atom))]
            parts += [(e, compiler.term, reference.denote_term, [e, *_terms(e)])
                      for e in _terms(atom)]
            for part, compile, value, terms in parts:
                fixed = not any(type(t) is Var for t in terms)
                x, names = compile(part)
                where = (bot.print_bot(atom), part, st)
                assert list(dict.fromkeys(names)) == bot.free_vars_ordered(part), where
                assert callable(x) is not fixed, where
                if fixed:
                    assert x == value(m, st, {}, part), where
                    folded += 1
    return folded


def test_parts_fold_exactly_when_they_name_no_variable():
    """The generated formulas and the translations of the tests above."""
    m, _ = _bot_vocabulary_model()
    folded = sum(_check_folding(m, gen_bot_formula(
        random.Random(f"compile-bot/{i}"))) for i in range(300))
    for i in range(120):
        m, _, f = gen_case(GenParams(seed=7), i)
        folded += _check_folding(derive_bot_model(m), translate(f))
    assert folded >= 1000, folded


def _compiled_top(m, st, lt, f):
    """f's tests, compiled once for a search with window lt, as a function
    of (et, g): they run in order under g and the event time."""
    compiler = top._Compiler(m, st, top._EVENT_TIME, lt)
    compiler.formula(f)

    def holds(et, g):
        g = {**g, top._EVENT_TIME: et}
        return all(evaluate(test, g) for test, _ in compiler.tests)

    return holds


def _top_outcomes(m, st, f, g, periods, windows):
    """The compiled formula against the reference at every (et, lt), under
    a full or partial assignment; where f names something m lacks,
    compiling must raise that error."""
    error = reference.first_unknown(m, f)
    if error is not None:
        assert _raised(lambda: _compiled_top(m, st, EMPTY, f)) is error
        return
    for lt in windows:
        compiled = _compiled_top(m, st, lt, f)
        for et in periods:
            got = _outcome(lambda: compiled(et, g))
            want = _outcome(lambda: reference.eval_top(m, st, et, lt, g, f))
            assert got == want, (top.print_top(f), st, et, lt, g)


def test_top_matches_reference_at_every_index():
    """Generated cases at every (et, lt), under full and partial
    assignments, also against another case's model; eval_top_at, which
    compiles for a fixed event time, at one drawn index each."""
    params = GenParams(timeline_size=6, seed=3)
    cases = [gen_case(params, i) for i in range(81)]
    # how many formulas compile on the next case's model
    resolved = [reference.first_unknown(after, f) is None
                for (_, _, f), (after, _, _) in zip(cases, cases[1:])]
    assert sum(resolved) >= 34 and resolved.count(False) >= 20, resolved
    for i, (m, _, f) in enumerate(cases[:-1]):
        rng = random.Random(f"compile-top/{i}")
        names = top.free_vars_ordered(f)
        for model in (m, cases[i + 1][0]):
            objects = list(model.objects())
            periods = model.timeline.periods()
            windows = periods + [EMPTY]
            for st in _speech_times(model):
                full = {name: rng.choice(objects) for name in names}
                partial = {n: v for n, v in full.items() if rng.random() < 0.5}
                for g in (full, partial):
                    _top_outcomes(model, st, f, g, periods, windows)
                    idx = EvalIndex(st, rng.choice(periods), rng.choice(windows))
                    got = _outcome(lambda: top.eval_top_at(model, idx, g, f))
                    want = reference.first_unknown(model, f) or _outcome(
                        lambda: reference.eval_top(
                            model, st, idx.et, idx.lt, g, f))
                    assert got == want, (top.print_top(f), idx, g)


def test_top_folded_windows_match_reference(m0):
    """Constant windows and spans: Past at the first point, At, Before and
    After on period and atom constants, Ntense[now, ...] and For."""
    m = m0.model
    periods = m.timeline.periods()
    windows = periods + [EMPTY]
    for text in (
        "Past[?e, empty(tank5)]",
        "At[d_jan, empty(tank5)]",
        "Before[d_jan, empty(tank5)]",
        "After[d_jan, empty(tank5)]",
        "After[y1995, Past[?e, empty(tank5)]]",
        "At[tank5, empty(tank5)]",
        "At[nosuch, empty(tank5)]",
        "Ntense[now, empty(tank5)]",
        "For[minute, 2, empty(tank5)]",
        "For[minute, 20, empty(tank5)]",
        "Culm[building(housecorp, bridge2)]",
        "Culm[building(?x, ?y)] & Perf[?e, Fills[empty(?t)]]",
        "empty(?x) & empty(nosuch)",
        "empty(nosuch) & Part[nosuch, ?p]",
    ):
        f = top.parse_top(text)
        names = top.free_vars_ordered(f)
        assignments = [{}]
        if names:
            assignments += [dict.fromkeys(names, Period(3, 4)),
                            dict.fromkeys(names, "tank5")]
        for st in (0, 5, m.timeline.t_last):
            for g in assignments:
                _top_outcomes(m, st, f, g, periods, windows)
