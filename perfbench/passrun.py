"""One pass of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/passrun.py --workload search-s5k1 --seed 0 \
        [--workers 2] [--trace-file .perfbench/x.jsonl] [--setup-only]

Set-up (import plus graph materialization) is timed first.  Then every op
of the pass is timed alone; its gate runs outside that span, and so does
the host probe run before each op and after the last.  With
--trace-file the ops run under the tracer, whose spans are written there
as JSON lines and whose per-layer numbers are added to the output.
run.py starts this script once per pass; it is not meant for end users.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from contextlib import nullcontext
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


# The host probe: breadth-first walks of a fixed synthetic 6-regular graph,
# with the set membership and list work of the package's scans but none of
# its code.  Neighbours are computed, not stored, so the probe keeps no graph
# between calls; its transient set raises peak RSS by about 1 MB in the pass
# process and each forked worker alike on every commit.  It runs between
# ops, in the same warm process, so its time moves with the speed the shared
# host gives the ops.
PROBE_N = 5040
PROBE_STEPS = ((3, 1), (5, 2), (7, 3), (11, 5), (13, 7), (17, 11))
PROBE_ROUNDS = 2


def host_probe() -> float:
    """Seconds for PROBE_ROUNDS walks of the probe graph (about 10 ms)."""
    t = perf_counter()
    for _ in range(PROBE_ROUNDS):
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for m, c in PROBE_STEPS:
                    w = (u * m + c) % PROBE_N
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
    return perf_counter() - t


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=workloads.WORKERS)
    p.add_argument("--trace-file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t0 = perf_counter()
    graphs = workloads.materialize(args.workload)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace_file else None
    op_list = workloads.ops(args.workload, graphs, args.seed, args.workers)
    results = []
    probes = []
    with tracer.installed() if tracer else nullcontext():
        for op in op_list:
            with tracer.paused() if tracer else nullcontext():
                probes.append(host_probe())
            t = perf_counter()
            out, error = workloads.run_op(op)
            dt = perf_counter() - t
            ok, detail, record = False, error, {}
            if error is None:
                with tracer.paused() if tracer else nullcontext():
                    ok, detail, record = workloads.run_gate(op, out)
            results.append({"name": op.name, "mode": op.mode, "phase": op.phase,
                            "s": dt, "ok": ok, "detail": detail, "record": record})

    probes.append(host_probe())
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    doc = {
        "setup_s": setup_s,
        "ops": results,
        # ru_maxrss is KiB on Linux; children means the largest forked worker
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "host_probe_s": probes,
    }
    if tracer:
        tracer.write_jsonl(args.trace_file)
        doc["layers"] = tracer.layer_metrics()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
