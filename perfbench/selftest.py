"""Self-test: two traced passes of the same code must repeat every counter.

    python3 perfbench/selftest.py [--seed 0] [workload ...]

For each workload (all by default) two fresh traced passes run with the
same seed.  Every per-layer metric whose unit is "count" (node, check,
max-flow and call counts, overshoot, span count) and every op's
deterministic record must be identical, and every op must pass its gate.
Exits 1 and lists the differences otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import run
import workloads


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("workload", nargs="*", default=list(workloads.WORKLOADS))
    args = p.parse_args()

    counts = sorted(k for k, u in run.units("per_layer").items() if u == "count")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    problems = []
    for w in args.workload:
        deadline = time.monotonic() + 600
        a, b = (run.run_pass(w, args.seed, deadline,
                             trace_file=os.path.join(run.OUT_DIR, f"selftest-{w}-{i}.jsonl"))
                for i in range(2))
        for k in counts:
            if a["layers"][k] != b["layers"][k]:
                problems.append(f"{w}: {k} {a['layers'][k]} != {b['layers'][k]}")
        _attempted, failed, messages = run.score([a, b])
        problems += [f"{w}: {m}" for m in messages]
        print(f"{w}: {len(counts)} counters compared, {failed} failed ops")
    for msg in problems:
        print(f"FAIL {msg}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
