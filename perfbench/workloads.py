"""The two workloads: what one pass runs and the gate each op must pass.

search-s5k1  exact_kappa_super then exact_lambda_super at k=1 by subset
             enumeration on 2 workers, under a fixed node budget.  The S5
             rung is the certification target; the S4 rung below it
             certifies within any budget, so exact_verdicts is never 0.
desk-cli     in-process starcut.cli.main(argv) calls a desk user makes,
             from cold per-process caches, including the same S5 k=1
             searches by component growth (``oracle --strategy
             component-growth``): the independent second strategy, in one
             process, with no pool and no scans.  Outputs are compared
             byte for byte (by SHA-256) against golden.json, recorded at
             the seed.

There are two workloads, so that each run is long enough to average out
the speed swings of a shared host within the time all runs may take.

Searches are bounded by nodes only, never by wall time, so every pass does
the same work.  The workload seed reaches the program only as
``check --seed`` and as the searches' ``seed=`` argument.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import traceback
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("search-s5k1", "desk-cli")
# Whether a pass's timed work runs in the pass process itself.  Only then
# does the host probe taken in that process (passrun.host_probe) track the
# speed the work gets, and run.py scales the workload's times by it.  The
# searches run in forked workers on both vCPUs: over ten runs here the probe
# swung 1.41x while they swung 1.15x, so search-s5k1 reports raw times.
IN_PROCESS = {"search-s5k1": False, "desk-cli": True}
WORKERS = 2  # nproc of the reference machine; node counts do not depend on it
K = 1
RUNGS = (4, 5)
SUBSET_MAX_NODES = 2_000_000
GROWTH_MAX_NODES = 250_000
DESK_DIR = os.path.join(".perfbench", "desk")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Op:
    name: str
    mode: str | None  # "vertex"/"edge": counted in vertex_s/edge_s
    phase: str | None  # "table"/"check": reported as table_s/check_s
    run: Callable[[], object]
    gate: Callable[[object], tuple[bool, str, dict]]


def materialize(workload: str):
    """Import the package and build the workload's graphs (the set-up)."""
    import starcut
    import starcut.cli  # noqa: F401  (the desk workload's entry point)

    if workload == "desk-cli":
        # the largest graph the desk calls build; every cut 8 and verify-cut
        # rebuilds it, so its build cost is what set-up should show
        starcut.StarGraph(8)
        return {}
    return {n: starcut.StarGraph(n) for n in RUNGS}


def ops(workload: str, graphs, seed: int, workers: int) -> list[Op]:
    if workload == "desk-cli":
        return _desk_ops(seed)
    return [_search_op(graphs[n], n, mode, seed, workers)
            for n in RUNGS for mode in ("vertex", "edge")]


def _search_op(g, n, mode, seed, workers) -> Op:
    import starcut

    search = "exact_kappa_super" if mode == "vertex" else "exact_lambda_super"
    judge = "is_k_vertex_cut" if mode == "vertex" else "is_k_edge_cut"
    expected = starcut.cut_size_formula(n, K)

    def run():
        # looked up at call time, so a tracer's patch is seen
        fn = getattr(starcut, search)
        budget = starcut.SearchBudget(max_nodes=SUBSET_MAX_NODES,
                                      strategy="subset-enumeration")
        return fn(g, K, budget=budget, workers=workers, seed=seed)

    def gate(res):
        st = res.stats
        record = {"kind": res.kind, "value": res.value, "nodes": st.nodes,
                  "checked": st.candidates_checked, "exact": res.kind == "exact"}
        if res.kind not in ("exact", "upper-bound-only"):
            return False, f"kind {res.kind}", record
        if res.value != expected:
            return False, f"value {res.value} != formula {expected}", record
        if not res.witness or len(res.witness) != expected:
            return False, "witness size differs from the value", record
        verdict = getattr(starcut, judge)(g, res.witness, K)
        if not verdict.valid:
            return False, f"witness rejected: {verdict.reason}", record
        return True, res.kind, record

    return Op(f"{search} n={n} k={K}", mode, None, run, gate)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def desk_argvs(seed: int) -> list[list[str]]:
    argvs = [["table", "--max-n", "5", "--threads", "2"],
             ["check", "6", "--seed", str(seed)]]
    argvs += [["oracle", "5", str(K), "--mode", mode, "--strategy", "component-growth",
               "--max-nodes", str(GROWTH_MAX_NODES)] for mode in ("vertex", "edge")]
    # the smallest, a middle and the largest k of S8; every call rebuilds S8
    for k in (0, 3, 6):
        path = os.path.join(DESK_DIR, f"cut8-{k}.json")
        argvs += [["cut", "8", str(k), "-o", path],
                  ["verify-cut", "--vertices", path],
                  ["verify-cut", "--edges", path]]
    argvs += [["decompose", "7", "--by", by]
              for by in ("dimension:2", "dimension:7", "symbol:1", "symbol:7")]
    return argvs


def desk_op_name(argv: list[str]) -> str:
    """Stable name of a desk call: file paths replaced by their base name."""
    return " ".join(os.path.basename(a) if a.startswith(DESK_DIR) else a
                    for a in argv)


def run_cli(argv: list[str]) -> dict:
    """One in-process main(argv) call with stdout and stderr captured."""
    from starcut import cli

    out, err = io.StringIO(), io.StringIO()
    path = argv[argv.index("-o") + 1] if "-o" in argv else None
    if path and os.path.exists(path):
        os.remove(path)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    res = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if path:
        with open(path, "rb") as fh:
            res["file"] = _sha(fh.read())
    return res


def desk_record(res: dict) -> dict:
    rec = {"rc": res["rc"], "stdout": _sha(res["stdout"].encode())}
    if "file" in res:
        rec["file"] = res["file"]
    return rec


def _desk_ops(seed: int) -> list[Op]:
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    os.makedirs(DESK_DIR, exist_ok=True)
    out = []
    for argv in desk_argvs(seed):
        name = desk_op_name(argv)
        cmd = argv[0]
        mode = None
        if cmd == "verify-cut":
            mode = "vertex" if argv[1] == "--vertices" else "edge"
        elif cmd == "oracle":
            mode = argv[argv.index("--mode") + 1]
        phase = cmd if cmd in ("table", "check") else None
        out.append(Op(name, mode, phase, lambda a=argv: run_cli(a),
                      _desk_gate(name, cmd, golden.get(name))))
    return out


def _desk_gate(name: str, cmd: str, want: dict | None):
    def gate(res):
        rec = desk_record(res)
        rec["exact"] = 0
        if cmd == "table":
            rows = [line.split(",") for line in res["stdout"].splitlines()[1:]]
            rec["exact"] = sum(1 for r in rows if len(r) > 4 and r[4] == "exact")
        if cmd == "oracle":
            import starcut

            doc = json.loads(res["stdout"])
            rec["exact"] = int(doc["kind"] == "exact")
            rec["nodes"] = doc["stats"]["nodes"]
            expected = starcut.cut_size_formula(doc["n"], doc["k"])
            if doc["kind"] not in ("exact", "upper-bound-only") or doc["value"] != expected:
                return False, f"{doc['kind']} {doc['value']}, formula {expected}", rec
            verdict = _oracle_witness_verdict(doc)
            if not verdict.valid:
                return False, f"witness rejected: {verdict.reason}", rec
        if want is not None:
            diff = [k for k in ("rc", "stdout", "file") if rec.get(k) != want.get(k)]
            if diff:
                return False, f"differs from golden in {', '.join(diff)}", rec
            return True, "matches golden", rec
        if cmd != "check":
            return False, "no golden output recorded", rec
        # check at an unrecorded seed: every property line must pass
        lines = res["stdout"].splitlines()
        if res["rc"] != 0 or not lines or not all(l.startswith("PASS ") for l in lines):
            return False, f"exit {res['rc']} or a FAIL line", rec
        return True, "all PASS", rec

    return gate


def _oracle_witness_verdict(doc: dict):
    """Judge an oracle command's printed witness with the package's own
    verdict functions, on a graph built here, outside the timed span."""
    import starcut

    g = starcut.StarGraph(doc["n"])

    def rank(label):
        return starcut.perm_rank(starcut.parse_perm(label))

    if doc["mode"] == "vertex":
        return starcut.is_k_vertex_cut(g, [rank(v) for v in doc["witness"]], doc["k"])
    return starcut.is_k_edge_cut(g, [(rank(u), rank(v)) for u, v in doc["witness"]],
                                 doc["k"])


def run_op(op: Op):
    """Run one op; an exception is the op's failure, reported with its traceback."""
    try:
        return op.run(), None
    except Exception:  # noqa: BLE001  (a failing op must not end the pass)
        return None, traceback.format_exc()


def run_gate(op: Op, out) -> tuple[bool, str, dict]:
    """Gate one op's output; a gate that raises (say, on a malformed
    witness) fails the op instead of ending the pass."""
    try:
        return op.gate(out)
    except Exception:  # noqa: BLE001
        return False, traceback.format_exc(), {}
