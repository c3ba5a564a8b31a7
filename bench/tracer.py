"""Span tracing of chronos from outside the package.

The tracer replaces chosen public functions of the chronos modules with
wrappers that record one span per call: name, start, end, parent span and
item id.  Every module binding of a function is replaced, so calls the
package makes internally (say, ``shrink_counterexample`` calling
``check_equivalence``) are traced as well as calls the benchmark makes.
While a wrapped call runs, its own bindings are restored, so a recursive
function (``print_top``) yields one span per outer call and no extra stack
frame per recursion level.

Spans are kept in memory; ``write`` dumps them as JSON lines when the run
ends.  ``layer_metrics`` turns them into the per-layer metrics, using each
span's self time: its duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    item: str
    parent: int  # index of the parent span, -1 for a top-level call
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _nodes(f) -> int:
    """Operator and literal nodes of a TOP formula."""
    return 1 + sum(
        _nodes(getattr(f, name))
        for name in ("left", "right", "body")
        if hasattr(f, name)
    )


def _describers(C):
    """Per-span counts, taken at the layer boundary after the call returns."""
    top, bot = C.top, C.bot

    def search_top(args, kw, result):
        m = args[0]
        return {"true": result is not None,
                "domain": sum(1 for _ in m.objects())}

    def search_bot(args, kw, result):
        return {"true": result is not None,
                "vars": len(bot.free_vars_ordered(args[2]))}

    def translate(args, kw, result):
        fresh = bot.free_vars(result) - top.free_vars(args[0])
        return {"conjuncts": len(bot.flatten(result)), "fresh": len(fresh)}

    def derive(args, kw, result):
        return {"tuples": sum(len(t) for t in result.bot_preds.values())}

    def parse(args, kw, result):
        return {"chars": len(args[0])}

    def shrink(args, kw, result):
        m, _, f = args
        sm, _, sf = result
        return {"formula_ratio": _nodes(sf) / _nodes(f),
                "timeline_ratio": sm.timeline.size / m.timeline.size}

    return {
        "top.search": search_top,
        "bot.search": search_bot,
        "translate": translate,
        "core.derive": derive,
        "parse.top": parse,
        "parse.bot": parse,
        "equiv.shrink": shrink,
    }


def traced_functions(C):
    """(span name, function) for every layer boundary the tracer wraps."""
    return [
        ("parse.top", C.top.parse_top),
        ("parse.bot", C.bot.parse_bot),
        ("print", C.top.print_top),
        ("print", C.bot.print_bot),
        ("modelfile.parse", C.modelfile.parse_model),
        ("modelfile.format", C.modelfile.format_model),
        ("translate", C.translate_mod.translate),
        ("core.derive", C.core.derive_bot_model),
        ("core.validate", C.core.validate_model),
        ("top.search", C.top.denot_top_witness),
        ("bot.search", C.bot.denot_bot_witness),
        ("equiv.gen", C.equiv.gen_case),
        ("equiv.check", C.equiv.check_equivalence),
        ("equiv.shrink", C.equiv.shrink_counterexample),
    ]


class Tracer:
    """Records spans for calls made while an item is active."""

    def __init__(self, C):
        self.C = C
        self.spans = []
        self.item = None  # id of the item being run; None pauses recording
        self._stack = []
        self._describe = _describers(C)
        self._installed = []  # (module, attribute, original, wrapper)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "chronos" or n.startswith("chronos."))]
        for name, func in traced_functions(self.C):
            bindings = [(mod, attr) for mod in modules
                        for attr, value in vars(mod).items() if value is func]
            wrapper = self._wrap(name, func, bindings)
            for mod, attr in bindings:
                self._installed.append((mod, attr, func, wrapper))
        self.reset()

    def reset(self):
        """Re-arm every wrapper and drop the open-span stack; needed after a
        timeout interrupted a call, possibly inside a wrapper."""
        self._stack.clear()
        self.item = None
        for mod, attr, _, wrapper in self._installed:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, func, _ in self._installed:
            setattr(mod, attr, func)
        self._installed.clear()

    def _wrap(self, name, func, bindings):
        describe = self._describe.get(name)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kw):
            if self.item is None:
                return func(*args, **kw)
            for mod, attr in bindings:
                setattr(mod, attr, func)
            span = Span(name, self.item, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = perf_counter()
            try:
                result = func(*args, **kw)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.dur
                for mod, attr in bindings:
                    setattr(mod, attr, wrapper)
            if describe is not None:
                span.attrs = describe(args, kw, result)
            return result

        return wrapper

    def item_span(self, item_id):
        """Context manager: one span covering a whole item."""
        return _ItemSpan(self, item_id)

    def write(self, path, t0):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "item": s.item,
                    "parent": s.parent if s.parent >= 0 else None,
                    "start": round(s.start - t0, 7), "end": round(s.end - t0, 7),
                    **s.attrs,
                }) + "\n")


class _ItemSpan:
    def __init__(self, tracer, item_id):
        self.tracer = tracer
        self.span = Span("item", item_id, -1)

    def __enter__(self):
        t = self.tracer
        t.item = self.span.item
        t.spans.append(self.span)
        t._stack.append(len(t.spans) - 1)
        self.span.start = perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        self.span.end = perf_counter()
        t._stack.pop()
        t.item = None
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics

#: name -> (unit, better); the order is the order they are printed in
LAYER_METRICS = {
    "bot.search_s": ("s", "lower"),
    "bot.search_calls": ("count", "lower"),
    "bot.search_ms_p50": ("ms", "lower"),
    "bot.search_ms_tail": ("ms", "lower"),
    "bot.true_ratio": ("ratio", "higher"),
    "bot.vars": ("count", "lower"),
    "top.search_s": ("s", "lower"),
    "top.search_calls": ("count", "lower"),
    "top.search_ms_p50": ("ms", "lower"),
    "top.search_ms_tail": ("ms", "lower"),
    "top.true_ratio": ("ratio", "higher"),
    "top.domain": ("count", "lower"),
    "translate.s": ("s", "lower"),
    "translate.conjuncts": ("count", "lower"),
    "translate.fresh_vars": ("count", "lower"),
    "core.derive_s": ("s", "lower"),
    "core.derived_tuples": ("count", "lower"),
    "core.validate_s": ("s", "lower"),
    "equiv.gen_s": ("s", "lower"),
    "equiv.check_s": ("s", "lower"),
    "equiv.shrink_s": ("s", "lower"),
    "equiv.shrink_checks": ("count", "lower"),
    "equiv.shrink_formula_ratio": ("ratio", "lower"),
    "equiv.shrink_timeline_ratio": ("ratio", "lower"),
    "modelfile.parse_s": ("s", "lower"),
    "modelfile.format_s": ("s", "lower"),
    "parse.top_s": ("s", "lower"),
    "parse.bot_s": ("s", "lower"),
    "parse.chars_per_s": ("chars/s", "higher"),
    "print.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "limits.failed": ("count", "lower"),
}


def tail(values):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it, or (0.0, 0.0) when there are ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return 0.0, 0.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def median(values):
    if not values:
        return 0.0
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, laps):
    """Per-layer metrics from the spans of `laps` traced laps.  Times and
    call counts are per lap (one pass over the workload's items); latency
    percentiles, ratios and means are over all traced calls."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(s.self_s for s in by_name.get(name, ())) / laps

    def calls(name):
        return by_name.get(name, [])

    def attr_mean(name, key):
        return _mean([s.attrs[key] for s in calls(name) if key in s.attrs])

    out = {}
    for side in ("bot", "top"):
        name = f"{side}.search"
        durs = [s.dur * 1e3 for s in calls(name)]
        out[f"{side}.search_s"] = self_s(name)
        out[f"{side}.search_calls"] = len(durs) / laps
        out[f"{side}.search_ms_p50"] = median(durs)
        out[f"{side}.search_ms_tail"] = tail(durs)[0]
        out[f"{side}.true_ratio"] = attr_mean(name, "true")
    out["bot.vars"] = attr_mean("bot.search", "vars")
    out["top.domain"] = attr_mean("top.search", "domain")
    out["translate.s"] = self_s("translate")
    out["translate.conjuncts"] = attr_mean("translate", "conjuncts")
    out["translate.fresh_vars"] = attr_mean("translate", "fresh")
    out["core.derive_s"] = self_s("core.derive")
    out["core.derived_tuples"] = attr_mean("core.derive", "tuples")
    out["core.validate_s"] = self_s("core.validate")
    out["equiv.gen_s"] = self_s("equiv.gen")
    out["equiv.check_s"] = self_s("equiv.check")
    out["equiv.shrink_s"] = self_s("equiv.shrink")
    shrinks = calls("equiv.shrink")
    inside = {i for i, s in enumerate(spans) if s.name == "equiv.shrink"}
    checks = sum(1 for s in calls("equiv.check") if s.parent in inside)
    out["equiv.shrink_checks"] = checks / len(shrinks) if shrinks else 0.0
    out["equiv.shrink_formula_ratio"] = attr_mean("equiv.shrink", "formula_ratio")
    out["equiv.shrink_timeline_ratio"] = attr_mean("equiv.shrink", "timeline_ratio")
    out["modelfile.parse_s"] = self_s("modelfile.parse")
    out["modelfile.format_s"] = self_s("modelfile.format")
    out["parse.top_s"] = self_s("parse.top")
    out["parse.bot_s"] = self_s("parse.bot")
    parse_s = out["parse.top_s"] + out["parse.bot_s"]
    chars = sum(s.attrs.get("chars", 0) for n in ("parse.top", "parse.bot")
                for s in calls(n)) / laps
    out["parse.chars_per_s"] = chars / parse_s if parse_s else 0.0
    out["print.s"] = self_s("print")
    return {name: out[name] for name in LAYER_METRICS if name in out}
