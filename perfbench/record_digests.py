#!/usr/bin/env python3
"""Record the exact-output digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py FIRST LAST

Runs one pass of each workload per seed and writes ``digests.json``.  A
seed whose pass contradicts an oracle is not recorded.  Re-record only
when the benchmark's corpora or digest items change, never to absorb a
changed program output.
"""

from __future__ import annotations

import json
import sys

import run
import tracing
import workloads


def main(argv):
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.ROOT / "src"))
    path = run.HERE / "digests.json"
    digests = json.loads(path.read_text())
    for name in workloads.WORKLOADS:
        for seed in range(first, last + 1):
            wl = workloads.setup(name, seed, run.ROOT, run.WORK / "record" / name)
            wl.warm(tracing.NullTracer())
            ph = run.run_phase(wl, 0, tracing.NullTracer())
            correct, digest = run.judge([ph], None)
            if not correct:
                print(f"{name} seed {seed}: not recorded: {ph.failures[:3]}")
                continue
            digests.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
