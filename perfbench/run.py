"""starcut benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload search-s5k1 --seed 0 --seconds 50 --trace 0

Run from the repository root.  Workloads are described in workloads.py and
metrics, units and bounds in BENCHMARK.json at the root.

--trace 0 runs fresh-interpreter passes until --seconds have elapsed (at
least MIN_PASSES) and reports the end-to-end metrics.  A time is the sum
over the pass's ops of each op's mean across passes.  Set-up time is the
mean of at least SETUP_SAMPLES fresh interpreters, one started after each
pass, so set-up samples span the run like the passes do.  On desk-cli
every time is then scaled to a reference host speed by the probe described
at PROBE_REF_S.
--trace 1 runs one untraced pass and one traced pass (search-s5k1 adds a
traced single-worker pass for parallel efficiency) and reports the
per-layer metrics, tracing overhead included.

End-to-end metrics:
  setup_s         import plus graph materialization, before the first op
  wall_s          the timed ops of one pass
  vertex_s        vertex-mode verdicts: exact_kappa_super calls on
  edge_s          search-s5k1; oracle --mode vertex and verify-cut
                  --vertices calls on desk-cli (and the edge-mode
                  counterparts)
  exact_verdicts  verdicts labelled exact in one pass (table rows on desk-cli)
  ok_share        ops that passed their gate over ops attempted
  peak_rss_mb     peak RSS of the pass process plus its largest forked worker
table_s and check_s exist only on desk-cli, so they are printed there and
reported per layer (cli.table_s, cli.check_s), not as end-to-end metrics.

Every op is gated for correctness; an op whose deterministic record (kind,
value, node and check counts, output digests) differs between passes of
the same run fails too.  The last stdout line is the JSON result; a record
with the environment and every pass is written under .perfbench/.  The
noise record holds loadavg at start and end, cpu_s (self plus children),
every host probe time and the unscaled (raw_*) times.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 15
MIN_PASSES = 3
# Every reported time of a workload whose ops run in the pass process
# (workloads.IN_PROCESS) is the measured time scaled by PROBE_REF_S over the
# run's mean host probe time (passrun.host_probe, run before each op):
# seconds at the host speed where the probe takes PROBE_REF_S.  This 2-vCPU
# share of a shared host switches between two speeds about 1.45x apart,
# within a second and for minutes at a time, and the share of time spent
# slow differs from run to run by more than a run can average out.  Op times
# and probe times are both means, so both weigh the two speeds by the time
# spent in each.  Raw times, every probe time and the factor are kept in the
# run record.
PROBE_REF_S = 0.010
RUN_LIMIT_S = 170  # a run must end within 180 s
S5_VERTEX_OP = "exact_kappa_super n=5 k=1"

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, deadline, *, workers=workloads.WORKERS,
             trace_file=None, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--workers", str(workers)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    # own session, so a timeout can take the pass's forked workers down too
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass exceeded the {RUN_LIMIT_S} s run limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}:\n{err}")
    return json.loads(lines[-1])


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "starcut", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit,
            "src_sha256": digest.hexdigest(), "loadavg_start": loadavg()}


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def score(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): gate failures plus records that differ
    from the same op's record in the first pass."""
    first = {op["name"]: op["record"] for op in passes[0]["ops"]}
    attempted = failed = 0
    messages = []
    for i, p in enumerate(passes):
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                messages.append(f"pass {i}: {op['name']}: {op['detail']}")
            elif op["record"] != first[op["name"]]:
                failed += 1
                messages.append(f"pass {i}: {op['name']}: record differs from "
                                f"pass 0: {op['record']} vs {first[op['name']]}")
    return attempted, failed, messages


def op_sum(p: dict, key: str, value) -> float:
    return sum(op["s"] for op in p["ops"] if op[key] == value)


def mean_op_sum(passes: list[dict], key: str | None = None, value=None) -> float:
    """Sum over one pass's ops (optionally those with op[key] == value) of
    each op's mean time across passes."""
    return sum(statistics.fmean(p["ops"][i]["s"] for p in passes)
               for i, op in enumerate(passes[0]["ops"])
               if key is None or op[key] == value)


def wall(p: dict) -> float:
    return sum(op["s"] for op in p["ops"])


def exact_count(p: dict) -> int:
    return sum(int(op["record"].get("exact", 0)) for op in p["ops"])


def end_to_end(args, deadline) -> tuple[dict, list[dict], dict]:
    start = time.monotonic()
    passes, setups, probes = [], [], []

    def setup_probe():
        setups.append(run_pass(args.workload, args.seed, deadline,
                               setup_only=True)["setup_s"])

    while len(passes) < MIN_PASSES or time.monotonic() - start < args.seconds:
        passes.append(run_pass(args.workload, args.seed, deadline))
        setups.append(passes[-1]["setup_s"])
        probes.extend(passes[-1]["host_probe_s"])
        setup_probe()
    while len(setups) < SETUP_SAMPLES:
        setup_probe()
    med = statistics.median
    raw = {
        "setup_s": statistics.fmean(setups),
        "wall_s": mean_op_sum(passes),
        "vertex_s": mean_op_sum(passes, "mode", "vertex"),
        "edge_s": mean_op_sum(passes, "mode", "edge"),
    }
    speed = (PROBE_REF_S / statistics.fmean(probes)
             if workloads.IN_PROCESS[args.workload] else 1.0)
    metrics = {name: value * speed for name, value in raw.items()}
    metrics["exact_verdicts"] = med(exact_count(p) for p in passes)
    metrics["peak_rss_mb"] = med(p["peak_rss_mb"] for p in passes)
    extra = {"passes": len(passes), "setup_samples": setups,
             "pass_wall_s": [wall(p) for p in passes],
             "cpu_s": med(p["cpu_s"] for p in passes),
             "host_probe_s": statistics.fmean(probes), "host_probes": probes,
             "host_speed": speed}
    extra.update((f"raw_{name}", value) for name, value in raw.items())
    if args.workload == "desk-cli":
        extra["table_s"] = mean_op_sum(passes, "phase", "table") * speed
        extra["check_s"] = mean_op_sum(passes, "phase", "check") * speed
    return metrics, passes, extra


def per_layer(args, deadline) -> tuple[dict, list[dict], dict]:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
    plain = run_pass(args.workload, args.seed, deadline)
    traced = run_pass(args.workload, args.seed, deadline,
                      trace_file=f"{stem}-w{workloads.WORKERS}.jsonl")
    passes = [plain, traced]
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = wall(traced) - wall(plain)
    metrics["oracle.subset.parallel_eff"] = 0.0
    extra = {"untraced_wall_s": wall(plain), "traced_wall_s": wall(traced)}
    if args.workload == "search-s5k1":
        single = run_pass(args.workload, args.seed, deadline, workers=1,
                          trace_file=f"{stem}-w1.jsonl")
        passes.append(single)
        t_w = op_sum(traced, "name", S5_VERTEX_OP)
        t_1 = op_sum(single, "name", S5_VERTEX_OP)
        metrics["oracle.subset.parallel_eff"] = t_1 / (workloads.WORKERS * t_w)
        extra.update(single_worker_s=t_1, workers_s=t_w)
        # work counters must not depend on the worker count
        counts = sorted(k for k, u in units("per_layer").items() if u == "count")
        drift = {k: (traced["layers"].get(k), single["layers"].get(k))
                 for k in counts if traced["layers"].get(k) != single["layers"].get(k)}
        extra["counter_drift"] = drift
    return metrics, passes, extra


def units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    p = argparse.ArgumentParser(description="starcut benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "starcut", "__init__.py")):
        print(f"error: no starcut sources under {ROOT}/src; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = environment()
    try:
        if args.trace:
            metrics, passes, extra = per_layer(args, deadline)
        else:
            metrics, passes, extra = end_to_end(args, deadline)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()

    attempted, failed, messages = score(passes)
    if extra.get("counter_drift"):
        failed += 1
        messages.append(f"counters differ between worker counts: {extra['counter_drift']}")
    if not args.trace:
        metrics["ok_share"] = (attempted - failed) / attempted

    declared = units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1

    for msg in messages:
        print(f"FAIL {msg}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} attempted={attempted} failed={failed}")
    for name in declared:
        print(f"  {name:36s} {metrics[name]:>16.6f} {declared[name]}")
    for name, val in extra.items():
        if isinstance(val, float):
            print(f"  ({name:34s} {val:>16.6f})")
    print("env " + json.dumps(env))

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"env": env, "metrics": metrics, "extra": extra,
                   "messages": messages, "passes": passes}, fh, indent=1)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
