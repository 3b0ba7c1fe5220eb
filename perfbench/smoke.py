#!/usr/bin/env python3
"""Smoke test of the benchmark itself; exits non-zero on the first problem.

    python3 perfbench/smoke.py

Runs one untraced and one traced pass of every workload at its minimal
size, checks the metric names and units against BENCHMARK.json, checks
the schema of the line ``run.py`` prints, and checks that an altered
program output that passes every oracle still trips the digest check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from fractions import Fraction

import run
import tracing
import workloads

KNOWN_FAILING = {"precision-env"}   # tracebacks at this commit, see NOTES.md


def fail(message):
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def check_metrics(metrics, units, what):
    missing = set(units) - set(metrics)
    if missing:
        fail(f"{what}: missing metrics {sorted(missing)}")
    for name in units:
        value = metrics[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{what}: {name} = {value!r} is not a finite number")


def smoke_pass(name, seed=1):
    wl = workloads.setup(name, seed, run.ROOT, run.WORK / "smoke" / name, size="smoke")
    tracer = tracing.Tracer()
    wl.warm(tracer)
    base = run.run_phase(wl, 0, tracing.NullTracer())
    traced = run.run_phase(wl, 0, tracer)
    for ph in (base, traced):
        for kind, message in ph.failures:
            if kind != "exit" or message.split(":")[0] not in KNOWN_FAILING:
                fail(f"{name}: unexpected failure [{kind}] {message}")
    correct, _ = run.judge([base, traced], None)
    if not correct:
        fail(f"{name}: untraced and traced passes disagree")
    return wl, base, traced, tracer


def check_workloads(e2e_units, layer_units):
    for name in workloads.WORKLOADS:
        wl, base, traced, tracer = smoke_pass(name)
        e2e, _ = run.end_to_end(name, base, [0.1])
        check_metrics(e2e, e2e_units, name)
        layer = run.per_layer(tracer.aggregate(), traced.stats, 1.0, 0.05, 0.3)
        check_metrics(layer, layer_units, name)
        print(f"smoke: {name}: {len(wl.ops)} ops per pass, metrics complete")


def check_digest_trips():
    """Shrink every certified threshold by one part in 10^6: each oracle still
    holds, but the digest must change."""
    certifier = __import__("sympack.certifier", fromlist=["lambda_bound"])
    _, base, _, _ = smoke_pass("plan-certify")
    honest = run.digest(base.items)
    original = certifier.lambda_bound
    certifier.lambda_bound = lambda *a, **k: original(*a, **k) * (1 - Fraction(1, 10 ** 6))
    try:
        _, altered, _, _ = smoke_pass("plan-certify")
    finally:
        certifier.lambda_bound = original
    correct, altered_digest = run.judge([altered], honest)
    if correct or altered_digest == honest:
        fail("an altered threshold did not trip the digest check")
    print("smoke: altered output trips the digest check")


def check_result_line(e2e_units, layer_units):
    for trace, units in ((0, e2e_units), (1, layer_units)):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "plan-certify",
             "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"run.py --trace {trace} exited {proc.returncode}: {proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"result keys {sorted(result)}")
        if not isinstance(result["attempted"], int) or result["attempted"] < 1:
            fail(f"attempted = {result['attempted']!r}")
        # the traced run adds the cli-mix pass, whose known failures count
        allowed = result["attempted"] if trace else 0
        if (result["correct"] is not True or not isinstance(result["failed"], int)
                or not 0 <= result["failed"] <= allowed):
            fail(f"run.py --trace {trace}: {result['correct']=}, {result['failed']=}")
        if set(result["metrics"]) != set(units):
            fail(f"--trace {trace} metric names differ from BENCHMARK.json")
        for name, metric in result["metrics"].items():
            if metric != {"value": metric["value"], "unit": units[name]}:
                fail(f"{name}: {metric}")
        print(f"smoke: run.py --trace {trace} prints the result schema")


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    e2e_units, layer_units = run.load_spec()
    check_workloads(e2e_units, layer_units)
    check_digest_trips()
    check_result_line(e2e_units, layer_units)
    print("smoke: OK")


if __name__ == "__main__":
    main()
