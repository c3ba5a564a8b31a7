"""Output checks that do not trust the searches under test.

Witnesses are re-evaluated with the plain evaluators (``eval_top_at`` and
``eval_bot``) under the full assignment.  For small cases an independent
nested-enumeration oracle finds the first satisfying assignment in the
order both search docstrings promise: event times by (lo, hi), variables
in first-occurrence order, values atoms first and then periods by
(lo, hi).  Its answer must be the search's witness.
"""
from __future__ import annotations

from itertools import product

#: returned by an oracle that would need more evaluations than its budget
SKIPPED = object()


def periods(C, size):
    return [C.core.Period(lo, hi) for lo in range(size) for hi in range(lo, size)]


def domain(C, m):
    return list(m.domain.atoms) + periods(C, m.timeline.size)


def top_witness_holds(C, m, st, f, witness) -> bool:
    g, et = witness
    idx = C.top.EvalIndex(st, et, m.timeline.full())
    return C.top.eval_top_at(m, idx, g, f)


def bot_witness_holds(C, derived, st, f, g) -> bool:
    return C.bot.eval_bot(derived, st, g, f)


def first_top_witness(C, m, st, f, budget):
    """First (assignment, et) by nested enumeration, None, or SKIPPED."""
    order = C.top.free_vars_ordered(f)
    objs = domain(C, m)
    full = m.timeline.full()
    evals = 0
    for et in periods(C, m.timeline.size):
        idx = C.top.EvalIndex(st, et, full)
        for values in product(objs, repeat=len(order)):
            evals += 1
            if evals > budget:
                return SKIPPED
            g = dict(zip(order, values))
            if C.top.eval_top_at(m, idx, g, f):
                return g, et
    return None


def first_bot_witness(C, derived, st, f, budget):
    """First assignment by nested enumeration, None, or SKIPPED."""
    order = C.bot.free_vars_ordered(f)
    evals = 0
    for values in product(domain(C, derived), repeat=len(order)):
        evals += 1
        if evals > budget:
            return SKIPPED
        g = dict(zip(order, values))
        if C.bot.eval_bot(derived, st, g, f):
            return g
    return None
