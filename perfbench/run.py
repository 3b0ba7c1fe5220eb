#!/usr/bin/env python3
"""sympack benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload decide-batch --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src`` and nothing is installed.  The load is a closed loop with one
caller.  The corpus is one pass of operations generated from the seed;
whole passes are repeated until ``--seconds`` of measured time have gone
by.  Every output is checked against an oracle and hashed into the run's
digest, which must match ``digests.json``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` spends half the time
untraced and half traced and reports the per-layer metrics.  Human-readable
lines (environment, sample counts, failures) precede the final JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 5
INTERP_REPEATS = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10        # a tail percentile leaves at least this many samples beyond it


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    load1 = os.getloadavg()[0]
    nproc = len(os.sched_getaffinity(0))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit(), "loadavg_1m": load1,
            "machine": platform.machine()}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_child(argv, env=None) -> float:
    """Wall time of one child process, which must exit 0.

    ``spawn`` blocks in wait4; ``subprocess.run`` with a timeout polls in
    steps of up to 50 ms, which would quantize every probe.
    """
    started = time.perf_counter()
    code, _, err, _ = workloads.spawn(argv, env, ROOT, os.devnull,
                                      WORK / "probe-stderr.txt", PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err[-2000:]}")
    return elapsed


def setup_seconds(name, seed) -> list[float]:
    """Fresh interpreter to first operation: import, corpus, cache warm-up."""
    argv = [sys.executable, str(HERE / "workloads.py"), name, str(seed), str(ROOT),
            str(WORK / "setup-probe")]
    return [timed_child(argv) for _ in range(SETUP_REPEATS)]


def cli_start_seconds() -> tuple[float, float]:
    env = dict(os.environ, PYTHONPATH="src")
    interp = [timed_child([sys.executable, "-c", "pass"], env)
              for _ in range(INTERP_REPEATS)]
    imp = [timed_child([sys.executable, "-c", "import sympack.cli"], env)
           for _ in range(INTERP_REPEATS)]
    return statistics.median(interp), statistics.median(imp)


class Phase:
    """Closed-loop measurement of whole passes over the corpus."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.measured_s = 0.0
        self.passes = 0
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []   # (kind, message)
        self.stats: dict = {}
        self.items: list | None = None               # digest items of pass 1


def run_phase(wl, seconds, tr) -> Phase:
    ph = Phase()
    while ph.passes == 0 or ph.measured_s < seconds:
        results = []
        started = time.perf_counter()
        for i, op in enumerate(wl.ops):
            t0 = time.perf_counter_ns()
            try:
                with tr.op(op.kind, i):
                    results.append((wl.run(op, tr), None))
            except Exception as exc:           # an operation that raised fails
                results.append((None, exc))
            ph.latencies_ns.append(time.perf_counter_ns() - t0)
        ph.measured_s += time.perf_counter() - started
        ph.attempted += len(results)
        items = []
        for i, (op, (result, exc)) in enumerate(zip(wl.ops, results)):
            item = ["failed", op.kind, i]
            if exc is not None:
                ph.failures.append(("raised", f"{op.kind} {op.args}: {exc!r}"))
            else:
                try:
                    item = wl.check(op, result, ph.stats)
                except workloads.OracleFailure as fail:
                    ph.failures.append(("oracle", str(fail)))
                except workloads.ExitMismatch as fail:
                    ph.failures.append(("exit", str(fail)))
                    item = fail.item or item
            if ph.items is not None and ph.items[i] != item:
                ph.failures.append(("nondeterministic", f"{op.kind} {op.args}"))
            items.append(item)
        if ph.items is None:
            ph.items = items
        ph.passes += 1
    return ph


def digest(items) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def recorded_digest(name, seed):
    return json.loads((HERE / "digests.json").read_text()).get(name, {}).get(str(seed))


def judge(phases, recorded) -> tuple[bool, str]:
    """(correct, digest of the run).

    Correct means no output contradicted its oracle, every pass hashed to
    the same digest, and that digest equals the recorded one, if any.
    """
    run_digest = digest(phases[0].items)
    digest_ok = all(digest(ph.items) == run_digest for ph in phases) and (
        recorded is None or recorded == run_digest)
    wrong = any(kind in ("oracle", "nondeterministic")
                for ph in phases for kind, _ in ph.failures)
    return digest_ok and not wrong, run_digest


def percentile(sorted_values, q, min_beyond=0):
    """Nearest-rank percentile, lowered where needed so that at least
    ``min_beyond`` samples lie beyond it; (value, rank, samples beyond)."""
    n = len(sorted_values)
    rank = max(1, min(math.ceil(q * n), n - min_beyond))
    return sorted_values[rank - 1], rank, n - rank


def end_to_end(wl_name, ph: Phase, setup: list[float]) -> tuple[dict, list[str]]:
    lat_ms = sorted(ns / 1e6 for ns in ph.latencies_ns)
    n = len(lat_ms)
    notes = []
    metrics = {"ops_per_s": n / ph.measured_s}
    for q, name, min_beyond in ((0.5, "latency_p50_ms", 0),
                                (0.9, "latency_p90_ms", TAIL_BEYOND),
                                (0.99, "latency_p99_ms", TAIL_BEYOND)):
        metrics[name], rank, beyond = percentile(lat_ms, q, min_beyond)
        notes.append(f"{name}: p{100 * rank / n:.1f} of {n} samples, "
                     f"{beyond} beyond it")
    if wl_name == "cli-mix":
        metrics["peak_rss_mb"] = ph.stats.get("cli.peak_rss_kb", 0) / 1024
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(setup)
    notes.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    return metrics, notes


SPAN_FUNCTIONS = (
    "cremona.reduce_vector", "cremona.max_equal_ball", "lattice.d_omega_search",
    "lattice.d_omega_bound", "certifier.lambda_bound#blowup",
    "certifier.lambda_bound#ellipsoid", "certifier.lambda_bound#pseudoball",
    "certifier.certify_packing", "certifier.decide_balls_into_ellipsoid",
    "planner.build_plan", "planner.perturb_allocation", "planner.partition_balls",
    "weights.weight_sequence", "rationals.parse_rational", "toric.parse_domain")
CLI_SUBCOMMANDS = ("weights", "volume", "dstar", "decide", "max-equal-ball",
                   "certify", "ellipsoid-decide", "directed-check", "decompose",
                   "atlas")
RANKS = range(1, 7)


def per_layer(agg, stats, overhead, interp_s, import_s) -> dict:
    def merged(prefix):
        spans = [v for k, v in agg.items() if k == prefix or k.startswith(prefix + "#")]
        return {"calls": sum(s["calls"] for s in spans),
                "busy_s": sum(s["busy_s"] for s in spans),
                "self_s": sum(s["self_s"] for s in spans),
                "durations": [d for s in spans for d in s["durations"]]}

    out = {}
    for fn in SPAN_FUNCTIONS:
        span = merged(fn)
        name = fn.replace("#", ".")
        for measure in ("calls", "busy_s", "self_s"):
            out[f"{name}.{measure}"] = span[measure]
    for p in RANKS:
        out[f"lattice.d_omega_search.p{p}.busy_s"] = merged(
            f"lattice.d_omega_search#p{p}")["busy_s"]
        out[f"lattice.first_call.p{p}_s"] = merged(f"lattice.first_call#p{p}")["busy_s"]
    out["lattice.first_call_s"] = merged("lattice.first_call")["busy_s"]
    out["lattice.search_over_bound"] = float(stats.get("lattice.search_over_bound", 0))

    decisions = stats.get("cremona.decisions", 0)
    out["cremona.moves"] = stats.get("cremona.moves", 0)
    out["cremona.max_moves"] = stats.get("cremona.max_moves", 0)
    out["cremona.accept_ratio"] = stats.get("cremona.accepts", 0) / decisions if decisions else 0.0
    for reason in ("volume", "negative", "mu_exhausted"):
        out[f"cremona.rejects.{reason}"] = stats.get(f"cremona.rejects.{reason}", 0)
    certs = stats.get("certifier.certificates", 0)
    out["certifier.balls_checked"] = stats.get("certifier.balls_checked", 0)
    out["certifier.certified_ratio"] = (stats.get("certifier.certified", 0) / certs
                                        if certs else 0.0)
    out["planner.fillers"] = stats.get("planner.fillers", 0)
    out["weights.entries"] = stats.get("weights.entries", 0)

    out["cli.interp_s"] = interp_s
    out["cli.import_s"] = import_s
    for sub in CLI_SUBCOMMANDS:
        durations = sorted(merged(f"cli.{sub}")["durations"])
        out[f"cli.{sub}.wall_s"] = percentile(durations, 0.5)[0] if durations else 0.0
    out["cli.exit_mismatch"] = stats.get("cli.exit_mismatch", 0)
    out["trace.overhead"] = overhead
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sympack" / "__init__.py").is_file():
        print(f"error: no sympack sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_spec()
    env = environment()
    print("environment: " + json.dumps(env))
    if env["loadavg_1m"] > env["nproc"]:
        print(f"warning: load average {env['loadavg_1m']:.2f} exceeds nproc "
              f"{env['nproc']}; timings are unreliable", file=sys.stderr)

    WORK.mkdir(parents=True, exist_ok=True)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed)
    wl = workloads.setup(args.workload, args.seed, ROOT, WORK / args.workload)
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    wl.warm(tracer)

    if args.trace:
        base = run_phase(wl, args.seconds / 2, tracing.NullTracer())
        traced = run_phase(wl, args.seconds / 2, tracer)
        phases = [base, traced]
    else:
        phases = [run_phase(wl, args.seconds, tracing.NullTracer())]

    recorded = recorded_digest(args.workload, args.seed)
    correct, run_digest = judge(phases, recorded)
    cli_pass = None

    if args.trace:
        interp_s, import_s = cli_start_seconds()
        stats = dict(traced.stats)
        if args.workload != "cli-mix":
            # The CLI layer is measured in every traced run: one traced pass
            # over the cli-mix corpus of this seed.
            cli = workloads.setup("cli-mix", args.seed, ROOT, WORK / "cli-mix")
            cli_pass = run_phase(cli, 0, tracer)
            correct &= judge([cli_pass], recorded_digest("cli-mix", args.seed))[0]
            stats.update(cli_pass.stats)
        overhead = (traced.attempted / traced.measured_s) / (base.attempted / base.measured_s)
        metrics = per_layer(tracer.aggregate(), stats, overhead, interp_s, import_s)
        units = layer_units
        notes = [f"trace.overhead: traced {traced.attempted} ops in "
                 f"{traced.measured_s:.3f}s, untraced {base.attempted} ops in "
                 f"{base.measured_s:.3f}s"]
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics, notes = end_to_end(args.workload, phases[0], setup)
        units = e2e_units
    counted = phases + [cli_pass] if cli_pass else phases
    attempted = sum(ph.attempted for ph in counted)
    failures = [f for ph in counted for f in ph.failures]
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed}: "
          f"{sum(ph.passes for ph in phases)} passes of {len(wl.ops)} ops"
          + (" and one pass of the cli-mix corpus" if cli_pass else ""))
    print(f"digest {run_digest} "
          + ("(not recorded for this seed)" if recorded is None
             else "matches digests.json" if recorded == run_digest
             else f"DIFFERS from digests.json ({recorded})"))
    error_rate = len(failures) / attempted
    print(f"error_rate {error_rate:.6f} ratio ({len(failures)} of {attempted} failed)")
    for kind, message in failures[:20]:
        print(f"failed [{kind}]: {message}")
    for note in notes:
        print(note)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    record = dict(result, environment=env, digest=run_digest, error_rate=error_rate,
                  notes=notes, failures=failures[:100], workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace)
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
