#!/usr/bin/env python3
"""Certify the n=5, k=1 minimum cut sizes by exhausting the search class.

The vertex search decides every removal set of size up to 5 over 120
vertices (198.8M subsets); the edge search covers 240 edges (134.8M
subsets), with odd sizes settled by the boundary-parity shortcut.  On 2
workers of a 2-vCPU host both end `exact`: vertex mode in 35-46 s, edge
mode in 4-5 s.  Budget exhaustion downgrades the answer to an upper bound,
never to a wrong exact value.

    python scripts/stretch_search.py --workers 2 --minutes 5
"""

import argparse
import os
import sys
import time

from starcut import (
    SearchBudget,
    StarGraph,
    exact_kappa_super,
    exact_lambda_super,
    is_k_edge_cut,
    is_k_vertex_cut,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=min(8, os.cpu_count() or 1))
    parser.add_argument("--minutes", type=float, default=5.0,
                        help="wall budget per mode")
    parser.add_argument("--mode", choices=("both", "vertex", "edge"),
                        default="both")
    args = parser.parse_args()

    g = StarGraph(5)
    exit_code = 0
    runs = []
    if args.mode in ("both", "vertex"):
        runs.append(("vertex", exact_kappa_super, is_k_vertex_cut))
    if args.mode in ("both", "edge"):
        runs.append(("edge", exact_lambda_super, is_k_edge_cut))

    for name, search, judge in runs:
        budget = SearchBudget(max_wall_time=args.minutes * 60)
        t0 = time.time()
        res = search(g, 1, budget=budget, workers=args.workers)
        elapsed = time.time() - t0
        assert res.value == 6, res
        assert judge(g, res.witness, 1).valid
        print(f"{name}: {res.kind} value={res.value} "
              f"nodes={res.stats.nodes} checked={res.stats.candidates_checked} "
              f"wall={elapsed:.1f}s workers={args.workers}")
        for note in res.stats.notes:
            print(f"  note: {note}")
        if res.kind != "exact":
            exit_code = 3
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
