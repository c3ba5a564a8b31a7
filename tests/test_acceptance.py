"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""
import random
import time

from bot_formulas import gen_bot_formula
from chronos import bot, top
from chronos.core import Const, Var
from chronos.equiv import (
    GenParams,
    gen_formula,
    gen_model,
    run_campaign,
)
from chronos.modelfile import parse_model
from chronos.top import denot_top, parse_top, print_top
from chronos.translate import alpha_equivalent, translate


def _criterion(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {n}] {status}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_1_golden_translation_past_located_at():
    source = parse_top("At[d_jan, Past[?e, empty(tank5)]]")
    expected = bot.parse_bot(
        "period(d_jan) & eq(?e, ?et)"
        " & subper(?et, intersect(intersect([beg,end], d_jan), [beg,now)))"
        " & empty(tank5, ?p) & subper(?et, ?p)"
    )
    start = time.perf_counter()
    result = translate(source)
    elapsed = time.perf_counter() - start
    ok = alpha_equivalent(result, expected, frozenset({"e"})) and elapsed < 1.0
    _criterion(1, ok, f"golden translation (past-located At), {elapsed:.3f}s")


def test_criterion_2_golden_translation_culminated():
    source = parse_top("At[y1997, Past[?e, Culm[building(housecorp, bridge2)]]]")
    expected = bot.parse_bot(
        "period(y1997) & eq(?e, ?et)"
        " & subper(?et, intersect(intersect([beg,end], y1997), [beg,now)))"
        " & cmp_building(housecorp, bridge2)"
        " & max_building(housecorp, bridge2, ?et)"
    )
    start = time.perf_counter()
    result = translate(source)
    elapsed = time.perf_counter() - start
    ok = alpha_equivalent(result, expected, frozenset({"e"})) and elapsed < 1.0
    _criterion(2, ok, f"golden translation (culminated At), {elapsed:.3f}s")


def test_criterion_3_equivalence_campaign_1000_cases():
    params = GenParams(seed=42)
    start = time.perf_counter()
    report = run_campaign(params, 1000)
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < 300.0
    _criterion(
        3,
        ok,
        f"{report.lines()[-1]} over random models/formulas, {elapsed:.1f}s",
    )


def _homogeneity_violations(m, st):
    violations = 0
    periods = m.timeline.periods()
    for (functor, arity), ext in m.preds.items():
        literals = [
            (top.Literal(functor, tuple(Const(a) for a in args)), [{}])
            for args in ext
        ]
        # one variable-argument literal per predicate, with g over all objects
        var_args = (Var("v"),) + tuple(
            Const(next(iter(ext))[i]) for i in range(1, arity)
        )
        literals.append(
            (top.Literal(functor, var_args), [{"v": o} for o in m.objects()])
        )
        for lit, assignments in literals:
            for lt in periods:
                # compiled once per window, as a search compiles it, then
                # run with the event time in g
                compiler = top._Compiler(m, st, top._EVENT_TIME, lt)
                compiler.formula(lit)

                def holds(et, g):
                    g = {**g, top._EVENT_TIME: et}
                    return all(test(g) for test, _ in compiler.tests)

                for g in assignments:
                    for et in periods:
                        if not holds(et, g):
                            continue
                        for sub in periods:
                            if sub.lo >= et.lo and sub.hi <= et.hi:
                                if not holds(sub, g):
                                    violations += 1
    return violations


def test_criterion_4_homogeneity_suite():
    violations = 0
    for seed in range(100):
        m = gen_model(GenParams(timeline_size=6, seed=seed))
        st = random.Random(f"homog/{seed}").randrange(m.timeline.size)
        violations += _homogeneity_violations(m, st)
    _criterion(
        4, violations == 0,
        f"homogeneity over 100 seeded models, violations={violations}",
    )


def test_criterion_5_scenario_fidelity():
    base = """
timeline 10
speech 7
object tank5
periodconst d_jan = [3,4]
pred empty/1
maximal empty(tank5) = {periods}
cpart minute = blocks 1
gpart fivepm = [7,7]
"""
    containing = parse_model(base.format(periods="[2,5]")).model
    not_covering = parse_model(base.format(periods="[4,5]")).model
    plain = parse_top("At[d_jan, Past[?e, empty(tank5)]]")
    filled = parse_top("At[d_jan, Past[?e, Fills[empty(tank5)]]]")
    ok = (
        denot_top(containing, 7, plain) is True
        and denot_top(containing, 2, plain) is False
        and denot_top(not_covering, 7, filled) is False
        and denot_top(containing, 7, filled) is True
    )
    _criterion(
        5, ok,
        "after-the-day question true, before-the-day false, Fills needs cover",
    )


def test_criterion_6_parser_round_trips():
    failures = 0
    params = GenParams(seed=1)
    for i in range(500):
        rng = random.Random(f"rt-top/{i}")
        m = gen_model(params, rng)
        f = gen_formula(params, m, rng)
        if parse_top(print_top(f)) != f:
            failures += 1
    for i in range(500):
        f = gen_bot_formula(random.Random(f"rt-bot/{i}"))
        if bot.parse_bot(bot.print_bot(f)) != f:
            failures += 1
    _criterion(6, failures == 0, f"1000 round trips, failures={failures}")


def test_criterion_7_mutation_sensitivity():
    params = GenParams(seed=42)
    report = run_campaign(params, 1000, mutation="drop-past-narrowing")
    found = len(report.disagreements)
    _criterion(
        7, found >= 1,
        f"broken Past narrowing caught: disagreements={found}/1000",
    )
