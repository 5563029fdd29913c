"""Record the desk-cli golden outputs (SHA-256 of stdout and output files).

    python3 perfbench/record_golden.py

Run it only at a commit whose CLI output is known good: the desk-cli gate
compares every later pass against what this writes to golden.json.  The
check command is recorded for seed 0; other seeds are gated on PASS lines.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from starcut.cli import EXIT_BUDGET, EXIT_OK  # noqa: E402


def main() -> int:
    os.makedirs(workloads.DESK_DIR, exist_ok=True)
    golden = {}
    for argv in workloads.desk_argvs(seed=0):
        res = workloads.run_cli(argv)
        # a budgeted oracle call ends upper-bound-only, which exits EXIT_BUDGET
        ok_rc = (EXIT_OK, EXIT_BUDGET) if argv[0] == "oracle" else (EXIT_OK,)
        if res["rc"] not in ok_rc:
            print(f"{argv} exited {res['rc']}: {res['stderr']}", file=sys.stderr)
            return 1
        golden[workloads.desk_op_name(argv)] = workloads.desk_record(res)
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} outputs in {workloads.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
