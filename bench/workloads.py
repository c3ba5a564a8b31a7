"""The benchmark's four workloads.

Each workload is a fixed list of items built from a case seed (default 42;
4 is the held-out seed).  One item is one request of a closed loop with a
single client.  A workload knows how to run an item, how to encode the
result for comparison with the goldens recorded at the parent commit, and
which deeper checks to run once per item.

* campaign: one ``run_campaign`` case.  BOT search dominates, with a heavy
  tail; items share no work; parse and modelfile are not touched.
* shrink: one ``shrink_counterexample`` call on a case that disagrees
  under the drop-past-narrowing mutation.  About ten small checks per item
  on variants sharing a model or formula, so reuse across calls shows.
* eval_large: one ``chronos eval`` request on a 16-32 point model, with
  the calls ``cli._cmd_eval`` makes, in its order.  Domains of 140-530
  objects against the campaign's 59 at most.
* frontend: parse, print, translate and model-file round trips with no
  search; every search change should leave it unchanged.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import checks

MUTATION = "drop-past-narrowing"


@dataclass(frozen=True)
class Item:
    id: str
    payload: tuple


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _enc_assignment(g) -> dict:
    return {name: str(value) for name, value in sorted(g.items())}


def enc_witness(w):
    """JSON form of a TOP (assignment, et) or a BOT assignment."""
    if w is None:
        return None
    if isinstance(w, tuple):
        g, et = w
        return {"g": _enc_assignment(g), "et": str(et)}
    return {"g": _enc_assignment(w)}


class Workload:
    name = ""
    #: per-item time cap in seconds; a timeout is a failed item
    cap_s = 0.0
    #: items in the fixed warm-up slice that set-up runs
    warmup = 1

    def __init__(self, C):
        self.C = C

    def build(self, case_seed, golden):
        """The workload's items; some workloads read their list from golden."""
        raise NotImplementedError

    def run(self, payload, traced):
        raise NotImplementedError

    def encode(self, payload, raw):
        """JSON-comparable result, matched against the golden."""
        raise NotImplementedError

    def deep_check(self, payload, raw, budget) -> list:
        """Problems found by checks too costly to repeat every lap."""
        return []

    def probes(self):
        """Inputs beyond today's limits, run once after the timed pass:
        (id, payload) pairs; see probe_outcome."""
        return []

    def probe_outcome(self, payload, raw):
        """None when a completed probe's output is right, else a problem."""
        return None


# ---------------------------------------------------------------------------
# campaign


class Campaign(Workload):
    name = "campaign"
    cap_s = 7.0
    warmup = 40
    CASES = 250

    def build(self, case_seed, golden):
        params = self.C.equiv.GenParams(seed=case_seed)
        return [Item(f"case{i}", (params, i)) for i in range(self.CASES)]

    def _check_steps(self, m, st, f):
        """check_equivalence's four steps, called one by one so each gets
        its own span under the item."""
        C = self.C
        eta = C.core.EtaMapping()
        translated = C.translate_mod.translate(f, eta=eta, mutation=None)
        derived = C.core.derive_bot_model(m, eta)
        top_witness = C.top.denot_top_witness(m, st, f)
        bot_witness = C.bot.denot_bot_witness(derived, st, translated)
        witness = top_witness if top_witness is not None else bot_witness
        return C.equiv.Verdict(
            top_witness is not None, bot_witness is not None, witness
        )

    def run(self, payload, traced):
        C = self.C
        equiv = C.equiv
        params, i = payload
        m, st, f = equiv.gen_case(params, i)
        if traced:
            verdict = self._check_steps(m, st, f)
        else:
            verdict = equiv.check_equivalence(m, st, f)
        line = None
        if not verdict.agree:  # exactly as run_campaign reports it
            sm, sst, sf = equiv.shrink_counterexample(m, st, f)
            line = equiv.Disagreement(
                case=i,
                sub_seed=f"{params.seed}/case/{i}",
                st=st,
                formula=C.top.print_top(f),
                model_digest=equiv.model_digest(m, st),
                top_value=verdict.top_value,
                bot_value=verdict.bot_value,
                shrunk_st=sst,
                shrunk_formula=C.top.print_top(sf),
                shrunk_model_digest=equiv.model_digest(sm, sst),
            ).line()
        return m, st, f, verdict, line

    def encode(self, payload, raw):
        *_, verdict, line = raw
        return [verdict.top_value, verdict.bot_value,
                enc_witness(verdict.witness), line]

    def deep_check(self, payload, raw, budget):
        C = self.C
        m, st, f, verdict, _ = raw
        problems = []
        translated = C.translate_mod.translate(f)
        derived = C.core.derive_bot_model(m)
        w = verdict.witness
        if verdict.top_value and not checks.top_witness_holds(C, m, st, f, w):
            problems.append("TOP witness does not satisfy the formula")
        if (verdict.bot_value and not verdict.top_value
                and not checks.bot_witness_holds(C, derived, st, translated, w)):
            problems.append("BOT witness does not satisfy the translation")
        first = checks.first_top_witness(C, m, st, f, budget)
        if first is not checks.SKIPPED:
            expected = w if verdict.top_value else None
            if first != expected:
                problems.append(f"TOP witness is not the first: oracle {first}")
        first = checks.first_bot_witness(C, derived, st, translated, budget)
        if first is not checks.SKIPPED:
            if (first is not None) != verdict.bot_value:
                problems.append(f"BOT value disagrees with the oracle {first}")
            elif verdict.bot_value and not verdict.top_value and first != w:
                problems.append(f"BOT witness is not the first: oracle {first}")
        return problems


# ---------------------------------------------------------------------------
# shrink


class Shrink(Workload):
    name = "shrink"
    cap_s = 8.0
    warmup = 5
    #: disagreeing cases are searched for among this many campaign cases
    SCAN = 1000

    def disagreeing(self, case_seed):
        """Indices of the first SCAN cases that disagree under MUTATION;
        used to record the golden list."""
        equiv = self.C.equiv
        params = equiv.GenParams(seed=case_seed)
        return [i for i in range(self.SCAN)
                if not equiv.check_equivalence(
                    *equiv.gen_case(params, i), mutation=MUTATION).agree]

    def build(self, case_seed, golden):
        equiv = self.C.equiv
        params = equiv.GenParams(seed=case_seed)
        items = []
        for i in golden["indices"]:
            m, st, f = equiv.gen_case(params, i)
            if equiv.check_equivalence(m, st, f, mutation=MUTATION).agree:
                raise ValueError(f"case {i} no longer disagrees under {MUTATION}")
            items.append(Item(f"case{i}", (m, st, f)))
        return items

    def run(self, payload, traced):
        m, st, f = payload
        return self.C.equiv.shrink_counterexample(m, st, f, mutation=MUTATION)

    def encode(self, payload, raw):
        sm, sst, sf = raw
        return [self.C.top.print_top(sf), sst, self.C.equiv.model_digest(sm, sst)]

    def deep_check(self, payload, raw, budget):
        equiv = self.C.equiv
        m, st, f = payload
        sm, sst, sf = raw
        problems = []
        if equiv.check_equivalence(sm, sst, sf, mutation=MUTATION).agree:
            problems.append("shrunk case no longer disagrees")
        if sm.timeline.size > m.timeline.size:
            problems.append("shrunk timeline is longer")
        return problems


# ---------------------------------------------------------------------------
# eval_large

EVAL_SIZES = (16, 20, 24, 28, 32)

ALL = EVAL_SIZES

#: (lang, query, timeline sizes it runs on).  TOP queries, BOT translations
#: of TOP queries ("trans"), and hand-written BOT joins.  p(c) and the s/1
#: join are false by construction, the others mostly true.  Queries that
#: search the whole domain run on one or two sizes, so that a lap stays near
#: 2 s and every item runs often enough for its best time to settle.
EVAL_QUERIES = (
    ("top", "p(a)", ALL),
    ("top", "p(c)", ALL),
    ("top", "Past[?e, p(a)]", ALL),
    ("top", "Past[?e, p(c)]", ALL),
    ("top", "Past[?e, Perf[?f, p(c)]]", (20,)),
    ("top", "Past[?e, Perf[?f, p(a)]]", (24,)),
    ("top", "At[k0, Past[?e, q(?x, b)]]", ALL),
    ("top", "Pres[p(?x)]", (16, 32)),
    ("top", "Culm[q(a, b)]", ALL),
    ("top", "p(?x) & q(?x, ?y)", (16, 24)),
    ("top", "For[blk, 2, p(a)]", ALL),
    ("top", "Before[k1, p(?x)]", (16, 28)),
    ("top", "Ntense[now, p(?x)]", ALL),
    ("top", "Fills[p(a)]", ALL),
    ("top", "Past[?e, Culm[q(a, b)]]", ALL),
    ("trans", "p(a)", (20, 32)),
    ("trans", "p(c)", (20,)),
    ("trans", "Past[?e, p(a)]", (24,)),
    ("trans", "Past[?e, p(c)]", (24,)),
    ("trans", "Past[?e, Perf[?f, p(c)]]", (16,)),
    ("trans", "Past[?e, Culm[q(a, b)]]", (16, 24, 32)),
    ("trans", "For[blk, 2, p(a)]", (16, 24, 32)),
    ("bot", "s(?y, ?q) & prec(latest(?q), earliest(?r)) & s(?y, ?r)", (28,)),
    ("bot", "p(?y, ?q) & prec(latest(?q), earliest(?r)) & p(?y, ?r)", ALL),
    ("bot", "q(a, ?y, ?p) & subper(?p, k0)", (16, 24)),
    ("bot", "max_p(?x, ?m) & cmp_p(?x)", ALL),
    ("bot", "p(?x, ?a) & q(?x, ?y, ?b) & prec(latest(?a), earliest(?b))", ALL),
)

#: the ROADMAP's large-model query: with every s/1 tuple holding over one
#: period it is false, and the search walks the whole domain squared
LIMIT_QUERY = "s(?y, ?q) & prec(latest(?q), earliest(?r)) & s(?y, ?r)"
LIMIT_SIZE = 120


def _periods(rng, n, count):
    """Up to count separated periods, left to right."""
    out = []
    cursor = 0
    for _ in range(count):
        if cursor > n - 1:
            break
        lo = rng.randint(cursor, min(n - 1, cursor + n // 4))
        hi = rng.randint(lo, min(n - 1, lo + n // 5))
        out.append(f"[{lo},{hi}]")
        cursor = hi + 2
    return " ".join(out)


def eval_model_text(rng, n) -> str:
    lines = [
        f"timeline {n}",
        f"speech {2 * n // 3}",
        *(f"object {x}" for x in "abcd"),
        f"periodconst k0 = [{n // 4},{n // 2}]",
        f"periodconst k1 = [{n // 2},{3 * n // 4}]",
        "pred p/1",
        f"maximal p(a) = {_periods(rng, n, 3)}",
        f"maximal p(b) = {_periods(rng, n, 2)}",
        "culm p(a) = true",
        "pred q/2",
        *(f"maximal q({x}, {y}) = {_periods(rng, n, 2)}"
          for x, y in (("a", "b"), ("b", "c"), ("c", "a"))),
        "culm q(a, b) = true",
        "pred s/1",
        *(f"maximal s({x}) = {_periods(rng, n, 1)}" for x in "abd"),
        "cpart blk = blocks 2",
        f"gpart g = [1,1] [{n // 2},{n // 2}]",
    ]
    return "\n".join(lines) + "\n"


def limit_model_text() -> str:
    n = LIMIT_SIZE
    return "\n".join([
        f"timeline {n}", f"speech {2 * n // 3}", "object a", "object b",
        "object c", "pred s/1", "maximal s(a) = [10,20]",
        "maximal s(b) = [50,70]", "",
    ])


def cli_output(value, witness) -> str:
    """What ``chronos eval --trace`` prints for an answer."""
    lines = ["true" if value else "false"]
    if value:
        g, et = witness
        parts = [f"?{name}={val}" for name, val in sorted(g.items())]
        if et is not None:
            parts.append(f"et={et}")
        lines.append("witness " + " ".join(parts))
    return "\n".join(lines)


class EvalLarge(Workload):
    name = "eval_large"
    cap_s = 6.0
    warmup = 11

    def build(self, case_seed, golden):
        C = self.C
        rng = random.Random(f"eval_large/{case_seed}")
        items = []
        for n in EVAL_SIZES:
            text = eval_model_text(rng, n)
            for k, (kind, query, sizes) in enumerate(EVAL_QUERIES):
                if n not in sizes:
                    continue
                lang = "top" if kind == "top" else "bot"
                if kind == "trans":
                    query = C.bot.print_bot(
                        C.translate_mod.translate(C.top.parse_top(query)))
                items.append(Item(f"n{n}q{k}", (text, lang, query)))
        return items

    def run(self, payload, traced):
        C = self.C
        text, lang, query = payload
        compiled = C.modelfile.parse_model(text)
        m, st = compiled.model, compiled.speech
        derived = None
        if lang == "top":
            f = C.top.parse_top(query)
            witness = C.top.denot_top_witness(m, st, f)
        else:
            f = C.bot.parse_bot(query)
            derived = C.core.derive_bot_model(m)
            g = C.bot.denot_bot_witness(derived, st, f)
            witness = (g, None) if g is not None else None
        return m, st, f, derived, witness

    def encode(self, payload, raw):
        witness = raw[-1]
        return cli_output(witness is not None, witness)

    def deep_check(self, payload, raw, budget):
        m, st, f, derived, witness = raw
        if witness is None:
            return []
        if derived is None:
            holds = checks.top_witness_holds(self.C, m, st, f, witness)
        else:
            holds = checks.bot_witness_holds(self.C, derived, st, f, witness[0])
        return [] if holds else ["witness does not satisfy the query"]

    def probes(self):
        return [(f"n{LIMIT_SIZE}-join", (limit_model_text(), "bot", LIMIT_QUERY))]

    def probe_outcome(self, payload, raw):
        if raw[-1] is not None:
            return "answered true; every s/1 tuple holds over one period"
        return None


# ---------------------------------------------------------------------------
# frontend

FRONTEND_SEEDS = 5
FRONTEND_CASES = 100
#: the longest chain and deepest nesting here are about half of what
#: raises RecursionError at the parent commit
CHAIN_LENGTHS = (2, 3, 5, 8, 13, 21, 34, 55, 89, 144)
NEST_DEPTHS = (2, 3, 5, 8, 13, 21, 34, 55, 89)
#: beyond today's recursion limit (ROADMAP 4(c))
LIMIT_CHAINS = (1000, 3000)
LIMIT_DEPTHS = (900, 2000)

_NEST_OPS = ("Pres[{}]", "Past[?e, {}]", "At[k, {}]", "Fills[{}]",
             "Perf[?f, {}]", "Before[k, {}]", "Ntense[now, {}]", "For[cp, 2, {}]")


def chain_text(n: int) -> str:
    return " & ".join(
        f"r{i % 3}(c{i % 5}, ?x{i % 4})" if i % 2 else f"u{i % 3}(c{i % 7})"
        for i in range(n))


def nest_text(n: int) -> str:
    text = "u(c)"
    for i in range(n):
        text = _NEST_OPS[i % len(_NEST_OPS)].format(text)
    return text


class Frontend(Workload):
    name = "frontend"
    cap_s = 1.0
    warmup = 200

    def build(self, case_seed, golden):
        C = self.C
        equiv = C.equiv
        items = []
        models = []
        for k in range(FRONTEND_SEEDS):
            params = equiv.GenParams(seed=case_seed * FRONTEND_SEEDS + k)
            for i in range(FRONTEND_CASES):
                m, st, f = equiv.gen_case(params, i)
                items.append(Item(f"f{k}.{i}", ("formula", C.top.print_top(f))))
                if k == 0:
                    models.append(Item(f"m{k}.{i}", (
                        "model", C.modelfile.format_model(m, st))))
        items.extend(Item(f"chain{n}", ("formula", chain_text(n)))
                     for n in CHAIN_LENGTHS)
        items.extend(Item(f"nest{n}", ("formula", nest_text(n)))
                     for n in NEST_DEPTHS)
        rng = random.Random(f"eval_large/{case_seed}")
        models.extend(Item(f"model{n}", ("model", eval_model_text(rng, n)))
                      for n in EVAL_SIZES)
        return items + models

    def run(self, payload, traced):
        C = self.C
        kind, text = payload
        if kind == "model":
            first = C.modelfile.parse_model(text)
            out = C.modelfile.format_model(first.model, first.speech)
            return first, out, C.modelfile.parse_model(out)
        f = C.top.parse_top(text)
        printed = C.top.print_top(f)
        translated = C.translate_mod.translate(f)
        bot_text = C.bot.print_bot(translated)
        return printed, translated, bot_text, C.bot.parse_bot(bot_text)

    def encode(self, payload, raw):
        kind, text = payload
        if kind == "model":
            first, out, again = raw
            return [first == again, _digest(out)]
        printed, translated, bot_text, reparsed = raw
        return [printed == text, reparsed == translated, _digest(bot_text)]

    def probes(self):
        return ([(f"chain{n}", ("formula", chain_text(n))) for n in LIMIT_CHAINS]
                + [(f"nest{n}", ("formula", nest_text(n))) for n in LIMIT_DEPTHS])

    def probe_outcome(self, payload, raw):
        printed, translated, _, reparsed = raw
        if printed != payload[1] or reparsed != translated:
            return "round trip changed the formula"
        return None


WORKLOADS = {w.name: w for w in (Campaign, Shrink, EvalLarge, Frontend)}
