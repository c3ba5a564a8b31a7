#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Checks that BENCHMARK.json lists exactly the metrics the benchmark prints,
with the same units; that every workload prints every end-to-end metric
untraced and every per-layer metric traced; and that a wrong result fed to
the checker fails its item, so the error rate rises above 0.  Exits 1 on
the first failed check.
"""
from __future__ import annotations

import json
import sys

import run
import tracer
import workloads

TINY = 6


def check(cond, what):
    if not cond:
        print(f"FAIL {what}")
        sys.exit(1)
    print(f"ok   {what}")


def check_spec():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(layer == tracer.LAYER_METRICS,
          "BENCHMARK.json per_layer matches tracer.LAYER_METRICS")
    check({w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
          "BENCHMARK.json workloads are in workloads.WORKLOADS")
    return spec


def check_metrics(name, spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure(name, seed=1, seconds=0.01, trace=trace, limit=TINY,
                             probes=name == "frontend", log=lambda *a: None)
        # campaign's traced run also runs shrink's items, for the shrink layer
        borrows = trace and name == "campaign"
        attempted = 2 * TINY if borrows else TINY
        check(set(result) == {"correct", "attempted", "failed", "metrics"}
              and result["correct"] and result["attempted"] == attempted
              and result["failed"] == 0,
              f"{name} trace {trace}: correct, {attempted} attempted, none failed")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"{name} trace {trace}: every {key} metric with its unit")
        if borrows:
            check(all(result["metrics"][k]["value"] > 0 for k in run.SHRINK_METRICS),
                  f"{name} trace {trace}: shrink layer measured")


def check_wrong_result(name):
    """Item 0 returns the result of another item whose golden differs."""
    C, _ = run.import_chronos()
    wl = workloads.WORKLOADS[name](C)
    golden = run.load_golden(name, 42)
    items = wl.build(42, golden)
    want = golden["items"]
    other = next(i for i in items if want[i.id] != want[items[0].id])
    real_run = wl.run
    wl.run = lambda payload, traced: real_run(
        other.payload if payload is items[0].payload else payload, traced)
    runner = run.Runner(wl, golden)
    runner.lap(items[:TINY])
    metrics, _ = run.end_to_end(runner, items[:TINY], setup_s=1.0)
    check(runner.wrong and 1 - metrics["success_rate"] > 0,
          f"{name}: a wrong result raises error_rate above 0")


def check_deep_checks():
    """Witness checks catch a wrong witness without the golden."""
    C, _ = run.import_chronos()
    wl = workloads.Campaign(C)
    params = C.equiv.GenParams(seed=42)
    i = next(i for i in range(50)
             if C.equiv.check_equivalence(*C.equiv.gen_case(params, i)).top_value)
    m, st, f, verdict, line = wl.run((params, i), False)
    g, _ = verdict.witness
    wrong_et = next(p for p in m.timeline.periods()
                    if not workloads.checks.top_witness_holds(C, m, st, f, (g, p)))
    bad = C.equiv.Verdict(True, verdict.bot_value, (g, wrong_et))
    problems = wl.deep_check((params, i), (m, st, f, bad, line), run.ORACLE_BUDGET)
    check(problems, f"campaign case {i}: deep checks reject a wrong witness")


def main():
    spec = check_spec()
    for name in workloads.WORKLOADS:
        check_metrics(name, spec)
        check_wrong_result(name)
    check_deep_checks()
    print("selftest passed")


if __name__ == "__main__":
    main()
