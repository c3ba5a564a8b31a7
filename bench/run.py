#!/usr/bin/env python3
"""Benchmark for chronos: one workload per process, one thread.

    python3 bench/run.py --workload campaign --seed 1 --seconds 60 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Workloads: campaign, shrink, eval_large, frontend (see
workloads.py and README.md).

Set-up (imports, building the inputs, a warm-up slice) is timed; the
building and warm-up are repeated and their median is reported.  The timed
pass then runs laps over every item in an order drawn from --seed until
--seconds have passed.  Each item's latency is the best of its laps, which
keeps co-tenant CPU slowdowns out of the figures; a result that differs
from the golden recorded at the parent commit, an exception or a timeout
fails the item.  With --trace 1 the first laps are each run again traced,
in the same order, and per-layer metrics come from the traced ones.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracer as tracer_mod
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
OUT = BENCH / "out"

#: set-ups per run; set-up time is their median
SETUP_REPEATS = 9
#: laps run a second time traced in a traced run; bounds the spans kept
TRACED_LAPS = 4
#: an untraced lap runs an item whose best is under CHEAP_S up to
#: MAX_REPS times, at shuffled places, so that cheap items get more chances
#: to run while the CPU is fast
CHEAP_S = 0.01
MAX_REPS = 4
#: nested-enumeration oracle budget (evaluations per case and side)
ORACLE_BUDGET = 1000
RECORD_ORACLE_BUDGET = 10000
#: golden results exist for these case seeds; 4 is held out for re-checks
CASE_SEEDS = (42, 4)

#: At the parent commit every campaign case agrees, so no campaign item
#: shrinks; campaign's traced run takes these metrics from a short traced
#: run of shrink, checked against shrink's goldens
SHRINK_METRICS = ("equiv.check_s", "equiv.shrink_s", "equiv.shrink_checks",
                  "equiv.shrink_formula_ratio", "equiv.shrink_timeline_ratio")
SHRINK_SECONDS = 2.0

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


class ItemTimeout(BaseException):
    """Raised by the per-item alarm; a BaseException so that the package's
    own ``except Exception`` handlers cannot swallow it."""


def _alarm(signum, frame):
    raise ItemTimeout()


def import_chronos():
    """Import the package from this checkout; (namespace, seconds)."""
    src = ROOT / "src"
    if not (src / "chronos" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no chronos package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    C = SimpleNamespace(
        **{name: importlib.import_module(f"chronos.{name}")
           for name in ("lexer", "core", "top", "bot", "modelfile", "equiv")},
        translate_mod=importlib.import_module("chronos.translate"),
    )
    return C, perf_counter() - t0


def load_golden(workload, case_seed):
    path = GOLDEN / f"{workload}-{case_seed}.json"
    if not path.is_file():
        raise SystemExit(f"run.py: no golden results at {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs items under the time cap and keeps their outcomes."""

    def __init__(self, wl, golden, tracer=None):
        self.wl = wl
        self.golden = golden
        self.tracer = tracer
        self.best = {}  # item id -> best latency in seconds
        self.first = {}  # item id -> (payload, raw) of its first run
        self.failures = {}  # item id -> (cause, seconds spent)
        self.wrong = []  # descriptions of wrong outputs

    def execute(self, payload, item_id=None):
        """(seconds, raw, None) or (seconds, None, cause)."""
        traced = item_id is not None
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.wl.cap_s)
            try:
                if traced:
                    with self.tracer.item_span(item_id):
                        raw = self.wl.run(payload, True)
                else:
                    raw = self.wl.run(payload, False)
                dt = perf_counter() - t0
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except ItemTimeout:
            cause = f"timeout after {self.wl.cap_s:g} s"
        except Exception as e:  # an item fails; the run goes on
            cause = f"{type(e).__name__}: {str(e)[:160]}"
        else:
            return dt, raw, None
        if traced:
            self.tracer.reset()
        return perf_counter() - t0, None, cause

    def lap(self, items, traced=False):
        """One pass over items; returns its wall time."""
        t0 = perf_counter()
        for item in items:
            if item.id in self.failures:
                continue
            dt, raw, cause = self.execute(item.payload, item.id if traced else None)
            if cause is not None:
                self.failures[item.id] = (cause, dt)
                continue
            got = self.wl.encode(item.payload, raw)
            want = self.golden["items"][item.id]
            if got != want:
                self.failures[item.id] = ("wrong output", dt)
                self.wrong.append(f"{item.id}: got {got!r}, golden {want!r}")
                continue
            self.first.setdefault(item.id, (item.payload, raw))
            if not traced and dt < self.best.get(item.id, float("inf")):
                self.best[item.id] = dt
        return perf_counter() - t0

    def reps(self, item_id):
        """Runs of an item per untraced lap: more for cheap items."""
        best = self.best.get(item_id)
        if best is None:
            return 1
        return max(1, min(MAX_REPS, int(CHEAP_S / best)))

    def deep_checks(self, budget):
        for item_id, (payload, raw) in self.first.items():
            if item_id in self.failures:
                continue
            problems = self.wl.deep_check(payload, raw, budget)
            if problems:
                self.failures[item_id] = ("wrong output", 0.0)
                self.wrong.extend(f"{item_id}: {p}" for p in problems)


def timed_pass(runner, items, rng, seconds, tracer=None, between_laps=None):
    """Laps in seeded orders until `seconds` pass, ending at the lap
    boundary nearest to that.  With a tracer, laps 2 to TRACED_LAPS + 1 are
    each run again traced, in the same order; the first lap, still the
    coldest, is left out of the pairing.  between_laps(share of
    `seconds` gone) runs after every lap but the last.  Returns (laps,
    traced laps, seconds of the untraced twins of traced laps, seconds of
    the traced laps)."""
    laps, traced, plain_s, traced_s = 0, 0, 0.0, 0.0
    start = perf_counter()
    while True:
        if tracer is None:
            order = [i for i in items for _ in range(runner.reps(i.id))]
        else:
            order = list(items)
        rng.shuffle(order)
        lap_t0 = perf_counter()
        lap_s = runner.lap(order)
        if tracer is not None and laps >= 1 and traced < TRACED_LAPS:
            plain_s += lap_s
            tracer.install()
            try:
                traced_s += runner.lap(order, traced=True)
            finally:
                tracer.uninstall()
            traced += 1
        laps += 1
        now = perf_counter()
        done = now - start + (now - lap_t0) / 2 >= seconds
        if done and (tracer is None or traced):
            return laps, traced, plain_s, traced_s
        if between_laps is not None:
            between_laps((now - start) / seconds)


def run_probes(runner):
    """Inputs beyond today's limits: list of (id, cause or None), and the
    problems of probes that completed with a wrong output."""
    outcomes, wrong = [], []
    for probe_id, payload in runner.wl.probes():
        _, raw, cause = runner.execute(payload)
        if cause is None:
            problem = runner.wl.probe_outcome(payload, raw)
            if problem:
                wrong.append(f"probe {probe_id}: {problem}")
                cause = "wrong output"
        elif cause.startswith("ParseError") or cause.startswith("ArityError"):
            cause = None  # failing fast with a clear error is accepted
        outcomes.append((probe_id, cause))
    return outcomes, wrong


def end_to_end(runner, items, setup_s):
    ok = [runner.best[i.id] for i in items if i.id in runner.best]
    spent = sum(ok) + sum(s for _, s in runner.failures.values())
    # a failed item counts as taking the whole cap, so it misses any limit
    lat_ms = [t * 1e3 for t in ok] + [runner.wl.cap_s * 1e3] * len(runner.failures)
    tail_ms, tail_pct = tracer_mod.tail(lat_ms)
    return {
        "setup_s": setup_s,
        "items_per_s": len(ok) / spent if spent else 0.0,
        "item_ms_p50": tracer_mod.median(lat_ms),
        "item_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - len(runner.failures) / len(items),
    }, tail_pct


def measure(workload, seed, seconds, trace, case_seed=42, limit=None,
            probes=True, log=print):
    """Run one workload; returns the result object printed as the last line."""
    C, import_s = import_chronos()
    wl = workloads.WORKLOADS[workload](C)
    signal.signal(signal.SIGALRM, _alarm)

    def setup():
        """Build the inputs and run the warm-up slice: (seconds, golden, items)."""
        t0 = perf_counter()
        golden = load_golden(workload, case_seed)
        items = wl.build(case_seed, golden)[:limit]
        warm = Runner(wl, golden)
        # a strided slice, so the warm-up touches every kind of item
        for item in items[::max(1, len(items) // wl.warmup)][:wl.warmup]:
            warm.execute(item.payload)
        return perf_counter() - t0, golden, items

    # The first set-up precedes the pass; the others are spread over it, so
    # that their median does not rest on one stretch of CPU speed.
    first_s, golden, items = setup()
    setups = [first_s]

    def more_setups(share_done):
        while len(setups) < SETUP_REPEATS and share_done >= len(setups) / SETUP_REPEATS:
            setups.append(setup()[0])

    tracer = tracer_mod.Tracer(C) if trace else None
    runner = Runner(wl, golden, tracer)
    pass_t0 = perf_counter()
    laps, traced, plain_s, traced_s = timed_pass(
        runner, items, random.Random(seed), seconds, tracer, more_setups)
    more_setups(1.0)
    setup_s = import_s + tracer_mod.median(setups)
    checks_t0 = perf_counter()
    runner.deep_checks(ORACLE_BUDGET)
    checks_s = perf_counter() - checks_t0
    # limit probes feed limits.failed, a per-layer metric
    probe_outcomes, probe_wrong = run_probes(runner) if trace and probes else ([], [])

    log(f"workload {workload}  seed {seed}  case-seed {case_seed}  trace {trace}"
        f"  items {len(items)}  laps {laps}  cap {wl.cap_s:g} s"
        f"  deep checks {checks_s:.2f} s")
    attempted, failed, correct = len(items), len(runner.failures), True
    if trace:
        metrics = tracer_mod.layer_metrics(tracer.spans, traced)
        metrics["trace.overhead_s"] = (traced_s - plain_s) / traced
        metrics["limits.failed"] = sum(1 for _, c in probe_outcomes if c)
        units = {k: u for k, (u, _) in tracer_mod.LAYER_METRICS.items()}
        spans_path = OUT / f"spans-{workload}.jsonl"
        tracer.write(spans_path, pass_t0)
        log(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"
            f" from {traced} traced laps; times and calls are per lap")
        if workload == "campaign":
            log("shrink layers from a traced run of shrink:")
            sub = measure("shrink", seed, SHRINK_SECONDS, 1, case_seed, limit,
                          probes, log=lambda line: log(f"  | {line}"))
            metrics.update({k: sub["metrics"][k]["value"] for k in SHRINK_METRICS})
            attempted += sub["attempted"]
            failed += sub["failed"]
            correct = sub["correct"]
    else:
        metrics, tail_pct = end_to_end(runner, items, setup_s)
        units = END_TO_END
        log(f"setup: import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups"
            f" {' '.join(f'{s:.3f}' for s in setups)} s")
        log(f"latencies: best of each item's runs over {laps} laps; item_ms_tail is"
            f" p{tail_pct:.2f} of {len(items)} items")
    for name, value in metrics.items():
        log(f"  {name:28s} {value:14.6g} {units[name]}")
    for item_id, (cause, _) in sorted(runner.failures.items()):
        log(f"failed item {item_id}: {cause}")
    for line in runner.wrong + probe_wrong:
        log(f"wrong output {line}")
    for probe_id, cause in probe_outcomes:
        log(f"limit probe {probe_id}: {cause or 'ok'}")
    return {
        "correct": correct and not runner.wrong and not probe_wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def record_golden(workload, case_seed):
    """Write the golden results of one workload at this commit."""
    C, _ = import_chronos()
    wl = workloads.WORKLOADS[workload](C)
    golden = {"items": {}}
    if workload == "shrink":
        golden["indices"] = wl.disagreeing(case_seed)
    items = wl.build(case_seed, golden)
    problems = 0
    for item in items:
        t0 = perf_counter()
        raw = wl.run(item.payload, False)
        dt = perf_counter() - t0
        golden["items"][item.id] = wl.encode(item.payload, raw)
        margin = "" if dt * 3 <= wl.cap_s or dt >= 3 * wl.cap_s else "  WITHIN 3x OF CAP"
        found = wl.deep_check(item.payload, raw, RECORD_ORACLE_BUDGET)
        problems += len(found)
        if margin or found or dt > wl.cap_s / 10:
            print(f"{item.id}: {dt:.3f} s{margin} {' '.join(found)}")
    path = GOLDEN / f"{workload}-{case_seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(items)} items written to {path.relative_to(ROOT)};"
          f" {problems} check problems")
    return problems == 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=42,
                   help="order of the items in each lap")
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--case-seed", type=int, choices=CASE_SEEDS, default=42,
                   help="seed the items are generated from; 4 is held out")
    p.add_argument("--record-golden", action="store_true",
                   help="run every item once and write its golden result")
    args = p.parse_args(argv)
    if args.record_golden:
        return 0 if record_golden(args.workload, args.case_seed) else 1
    result = measure(args.workload, args.seed, args.seconds, args.trace,
                     args.case_seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
