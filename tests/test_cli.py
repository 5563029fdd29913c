import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from starcut import StarGraph, is_k_edge_cut, is_k_vertex_cut
from starcut.cli import main
from helpers import rank_of

# argv -> {"rc", "stdout"} of `starcut oracle`, recorded once from a known-good
# build and compared byte for byte; never re-record it to match a change
ORACLE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "oracle.json").read_text()
)
# the same for `starcut check`: pins the sampled suite's RNG stream
CHECK_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "check.json").read_text()
)
# the same for `starcut table`: one search walk per n decides all its rows,
# at full, truncated and construction-only budgets and on 1 and 2 workers
TABLE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "table.json").read_text()
)
# the same for `starcut decompose`: both validators' reports for n <= 7, in
# JSON and text, every index up to n = 5 and the first and last beyond
DECOMPOSE_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "decompose.json").read_text()
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_info_text(capsys):
    code, out = run_cli(capsys, "info", "4")
    assert code == 0
    assert "vertices: 24" in out and "edges:    36" in out
    assert "min 2-super cut size: 6" in out


def test_info_json_notes_small_isomorphisms(capsys):
    code, out = run_cli(capsys, "info", "3", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["isomorphic_to"] == "C6"
    assert data["schema_version"] == 1
    assert data["min_cut_sizes"] == [{"k": 0, "cut_size": 2}, {"k": 1, "cut_size": 2}]


def test_export_dot_n2(capsys):
    code, out = run_cli(capsys, "export", "2", "--format", "dot")
    assert code == 0
    assert '"1,2" -- "2,1";' in out


def test_export_jsonl_sorted(capsys):
    code, out = run_cli(capsys, "export", "3", "--format", "jsonl")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 6
    parsed = [json.loads(line) for line in lines]
    assert parsed == sorted(parsed, key=lambda e: (e["u"], e["v"]))
    assert all(set(e) == {"u", "v"} for e in parsed)


def test_export_capacity_error(capsys):
    code = main(["export", "13"])
    assert code == 2


def test_export_refuses_graphs_too_large_to_walk(capsys):
    # export holds every label and output line before it writes; n = 9 is
    # already 8.7 s and 376 MB
    t0 = time.monotonic()
    assert main(["export", "10"]) == 2
    assert time.monotonic() - t0 < 5
    assert capsys.readouterr().err == (
        "error: export needs n <= 9: it walks every vertex of the "
        "materialized graph, got n=10\n")


def test_decompose_dimension(capsys):
    code, out = run_cli(capsys, "decompose", "4", "--by", "dimension:4",
                        "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert data["part_sizes"] == {"1": 6, "2": 6, "3": 6, "4": 6}
    assert all(entry["edges"] == 2 for entry in data["pair_cross_edges"])


def test_decompose_symbol(capsys):
    code, out = run_cli(capsys, "decompose", "4", "--by", "symbol:1",
                        "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert data["center_size"] == 6 and data["center_edges"] == 0
    assert [m["edges"] for m in data["matchings"]] == [6, 6, 6]
    assert data["edges_between_parts"] == 0


def test_decompose_bad_by(capsys):
    assert main(["decompose", "4", "--by", "column:2"]) == 2
    assert main(["decompose", "4", "--by", "dimension:1"]) == 2


def test_cut_and_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "cut.json"
    code = main(["cut", "4", "1", "-o", str(out_file)])
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["sizes"] == {"x": 2, "vertices": 4, "edges": 4}
    assert sorted(data["x"]) == ["3,4,1,2", "4,3,1,2"]

    code, out = run_cli(capsys, "verify-cut", "--vertices", str(out_file))
    verdict = json.loads(out)
    assert code == 0 and verdict["valid"] and verdict["mode"] == "vertex"
    assert sorted(verdict["component_sizes"]) == [2, 18]

    code, out = run_cli(capsys, "verify-cut", "--edges", str(out_file))
    verdict = json.loads(out)
    assert code == 0 and verdict["valid"] and verdict["mode"] == "edge"


def test_cut_compact_labels(capsys):
    code, out = run_cli(capsys, "cut", "4", "2", "--compact")
    data = json.loads(out)
    assert code == 0
    assert all(len(v) == 4 and "," not in v for v in data["vertices"])


def test_verify_cut_rejects_and_overrides(tmp_path, capsys):
    bad = tmp_path / "single.json"
    bad.write_text(json.dumps({"n": 4, "k": 0, "vertices": ["1,2,3,4"]}))
    code, out = run_cli(capsys, "verify-cut", "--vertices", str(bad))
    verdict = json.loads(out)
    assert code == 1
    assert verdict["reason"] == "not-disconnected"

    no_nk = tmp_path / "plain.json"
    no_nk.write_text(json.dumps({"vertices": ["1,2,3,4"]}))
    assert main(["verify-cut", "--vertices", str(no_nk)]) == 2
    code, out = run_cli(
        capsys, "verify-cut", "--vertices", str(no_nk), "--n", "4", "--k", "0"
    )
    assert code == 1  # valid override, still not a cut


def test_verify_cut_missing_file():
    assert main(["verify-cut", "--vertices", "/nonexistent/cut.json"]) == 2


def test_verify_cut_rejects_length_mismatch(tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"n": 4, "k": 0, "vertices": ["1,2,3"]}))
    assert main(["verify-cut", "--vertices", str(short)]) == 2
    bad_edge = tmp_path / "edge.json"
    bad_edge.write_text(
        json.dumps({"n": 4, "k": 0, "edges": [["1,2,3,4", "1,2,4,3"]]})
    )
    assert main(["verify-cut", "--edges", str(bad_edge)]) == 2


# component sizes of S8 minus the constructed cut, and minus the cut with
# its first member dropped; k = 6 vertex mode also splits the rest of S8
S8_VERDICTS = {
    (0, "vertices"): ([40312, 1], [40314]),
    (0, "edges"): ([40319, 1], [40320]),
    (3, "vertices"): ([40200, 24], [40225]),
    (3, "edges"): ([40296, 24], [40320]),
    (6, "vertices"): ([5040] * 7, [35281]),
    (6, "edges"): ([35280, 5040], [40320]),
}


@pytest.fixture(scope="module")
def s8_cut_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("s8")
    files = {}
    for k in (0, 3, 6):
        files[k] = folder / f"cut8-{k}.json"
        assert main(["cut", "8", str(k), "-o", str(files[k])]) == 0
    return files


@pytest.mark.parametrize("key", ["vertices", "edges"])
@pytest.mark.parametrize("k", [0, 3, 6])
def test_verify_cut_on_s8(s8_cut_files, tmp_path, capsys, k, key):
    sizes, tampered_sizes = S8_VERDICTS[k, key]
    code, out = run_cli(capsys, "verify-cut", f"--{key}", str(s8_cut_files[k]))
    verdict = json.loads(out)
    assert (code, verdict["valid"], verdict["reason"]) == (0, True, "ok")
    assert verdict["component_sizes"] == sizes
    assert verdict["min_surviving_degree"] == k

    doc = json.loads(s8_cut_files[k].read_text())
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps({**doc, key: doc[key][1:]}))
    code, out = run_cli(capsys, "verify-cut", f"--{key}", str(tampered))
    verdict = json.loads(out)
    assert (code, verdict["valid"], verdict["reason"]) == (1, False, "not-disconnected")
    assert verdict["component_sizes"] == tampered_sizes

    if key == "edges":
        pair = ["1,2,3,4,5,6,7,8", "2,1,4,3,5,6,7,8"]
        tampered.write_text(json.dumps({**doc, "edges": [pair] + doc["edges"]}))
        assert main(["verify-cut", "--edges", str(tampered)]) == 2
        assert capsys.readouterr() == ("", "error: (1,2,3,4,5,6,7,8) -- "
                                           "(2,1,4,3,5,6,7,8) is not an edge of the graph\n")


@pytest.mark.parametrize("flag, doc", [
    ("--vertices", ["1,2,3,4"]),
    ("--vertices", {"n": 4, "k": 0, "vertices": [1234]}),
    ("--vertices", {"n": "4", "k": 0, "vertices": ["1,2,3,4"]}),
    ("--edges", {"n": 4, "k": 0, "edges": [["1,2,3,4"]]}),
], ids=["top-level-list", "numeric-label", "string-n", "one-label-edge"])
def test_verify_cut_malformed_file_is_a_usage_error(tmp_path, capsys, flag, doc):
    # exit 1 would read as "the cut is invalid"
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-cut", flag, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_cut_refuses_graphs_too_large_to_judge(tmp_path, capsys):
    # a verdict walks all n! vertices of the materialized graph
    n10 = tmp_path / "n10.json"
    n10.write_text(json.dumps({"n": 10, "k": 0, "vertices": ["1,2,3,4,5,6,7,8,9,10"]}))
    n13 = tmp_path / "n13.json"
    n13.write_text(json.dumps({"n": 4, "k": 0,
                               "vertices": [",".join(map(str, range(1, 14)))]}))
    for argv in (["verify-cut", "--vertices", str(n10)],
                 ["verify-cut", "--vertices", str(n13), "--n", "13"]):
        t0 = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - t0 < 5
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", sorted(ORACLE_GOLDEN))
def test_oracle_output_matches_golden(capsys, argv):
    code, out = run_cli(capsys, *argv.split())
    assert (code, out) == (ORACLE_GOLDEN[argv]["rc"], ORACLE_GOLDEN[argv]["stdout"])


@pytest.mark.parametrize("argv", sorted(CHECK_GOLDEN))
def test_check_output_matches_golden(capsys, argv):
    code, out = run_cli(capsys, *argv.split())
    assert (code, out) == (CHECK_GOLDEN[argv]["rc"], CHECK_GOLDEN[argv]["stdout"])


@pytest.mark.parametrize("argv", sorted(TABLE_GOLDEN))
def test_table_output_matches_golden(capsys, argv):
    code, out = run_cli(capsys, *argv.split())
    assert (code, out) == (TABLE_GOLDEN[argv]["rc"], TABLE_GOLDEN[argv]["stdout"])


@pytest.mark.parametrize("argv", sorted(DECOMPOSE_GOLDEN))
def test_decompose_output_matches_golden(capsys, argv):
    code, out = run_cli(capsys, *argv.split())
    assert (code, out) == (DECOMPOSE_GOLDEN[argv]["rc"], DECOMPOSE_GOLDEN[argv]["stdout"])


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_oracle_settles_k_at_the_degree_at_once(capsys, mode):
    # k = n - 1 is the degree of S4: no cut exists, and subset enumeration
    # says so without walking the 2^36 edge sets
    t0 = time.monotonic()
    code, out = run_cli(capsys, "oracle", "4", "3", "--mode", mode,
                        "--strategy", "subset-enumeration", "--threads", "2")
    assert time.monotonic() - t0 < 5
    data = json.loads(out)
    assert code == 0 and data["kind"] == "no-cut-exists" and data["stats"]["nodes"] == 0


def test_oracle_exact_exit_zero(capsys):
    code, out = run_cli(capsys, "oracle", "3", "1", "--mode", "edge", "--threads", "1")
    data = json.loads(out)
    assert code == 0
    assert data["kind"] == "exact" and data["value"] == 2
    assert data["stats"]["completed"]


def test_oracle_budget_exhausted_exit_three(capsys):
    code, out = run_cli(
        capsys, "oracle", "5", "1", "--max-nodes", "2000", "--threads", "1"
    )
    data = json.loads(out)
    assert code == 3
    assert data["kind"] == "upper-bound-only" and data["value"] == 6
    assert len(data["witness"]) == 6


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_component_growth_on_s7_ends_by_budget(capsys, mode):
    # the growth walk may reach depth |V|/2 = 2,520 on S7, past the
    # interpreter's recursion limit
    code, out = run_cli(capsys, "oracle", "7", "1", "--mode", mode,
                        "--strategy", "component-growth", "--max-nodes", "2000")
    data = json.loads(out)
    assert code == 3
    assert data["kind"] == "upper-bound-only" and data["value"] == 10
    assert data["stats"]["nodes"] == 2001
    g = StarGraph(7)
    if mode == "vertex":
        verdict = is_k_vertex_cut(g, [rank_of(v) for v in data["witness"]], 1)
    else:
        verdict = is_k_edge_cut(g, [(rank_of(u), rank_of(v))
                                    for u, v in data["witness"]], 1)
    assert verdict.valid, verdict.reason


def test_oracle_rejects_bad_budget():
    assert main(["oracle", "4", "1", "--max-nodes", "0"]) == 2
    assert main(["oracle", "3", "1", "--max-seconds", "nan"]) == 2


def test_default_threads_are_the_cpus_this_process_may_run_on(capsys, monkeypatch):
    # a process pinned to 2 of 64 CPUs runs 2 workers, not 64
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 5}, raising=False)
    code, out = run_cli(capsys, "oracle", "3", "1", "--mode", "edge")
    assert code == 0 and json.loads(out)["stats"]["workers"] == 2
    # without affinity, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    code, out = run_cli(capsys, "oracle", "3", "1", "--mode", "edge")
    assert code == 0 and json.loads(out)["stats"]["workers"] == 64


def test_table_output(capsys):
    code, out = run_cli(capsys, "table", "--max-n", "4", "--threads", "1")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,k,formula,construction_ok,oracle_kind,oracle_value,agree"
    assert lines[1] == "2,0,1,true,exact,1,true"
    assert lines[-1] == "4,2,6,true,exact,6,true"
    assert len(lines) == 1 + 6


def test_check_small(capsys):
    code, out = run_cli(capsys, "check", "3", "--samples", "40", "--seed", "5")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS overall n=3" in out


def test_check_9_finishes_within_150_seconds(capsys):
    # n = 9 is the largest graph check accepts, so its whole walk must end
    # too: about 60 s on a 2-core host, where it used to take 170 s
    t0 = time.monotonic()
    code, out = run_cli(capsys, "check", "9", "--samples", "0")
    assert time.monotonic() - t0 < 150
    assert code == 0 and out.splitlines()[-1] == "PASS overall n=9"


def test_check_json(capsys):
    code, out = run_cli(capsys, "check", "4", "--samples", "30", "--seed", "1",
                        "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    names = [c["name"] for c in data["checks"]]
    assert "classical-connectivity" in names
    assert any(name.startswith("substar-cut") for name in names)
    assert any("exhaustive" in name for name in names)


def test_check_rejects_negative_samples(capsys):
    assert main(["check", "6", "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_check_and_decompose_refuse_graphs_too_large_to_walk(capsys):
    # both walk all n! vertices; n = 10 ran past 15 s before the refusal
    for argv in (["check", "10", "--samples", "1"],
                 ["decompose", "10", "--by", "symbol:1"]):
        t0 = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - t0 < 5
        assert capsys.readouterr().err.startswith("error: ")


def test_oracle_and_table_refuse_graphs_too_large_to_walk(capsys):
    # judging the construction walks all n! vertices; n = 10 ran past 20 s
    for argv in (["oracle", "10", "1", "--max-nodes", "10"],
                 ["table", "--max-n", "10", "--max-nodes", "10"]):
        t0 = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - t0 < 5
        assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit_code():
    # argparse reports missing arguments through SystemExit(2)
    proc = subprocess.run(
        [sys.executable, "-m", "starcut", "info"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "starcut", "unknown-command"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("when", ["forking", "walking"])
def test_ctrl_c_ends_a_forking_walk_with_one_line(when):
    # S5 k=1 vertex forks its pool for level 4 at once and walks for
    # seconds.  A terminal's Ctrl-C sends SIGINT to the whole process group.
    # "forking" sends it as soon as the first worker exists, while the pool
    # may still be forking; "walking" waits, and sends it to the workers
    # first, since the parent tears the pool down so fast that a worker's
    # own traceback may not get printed
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "starcut", "oracle", "5", "1", "--mode", "vertex",
         "--threads", "2"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        children = pathlib.Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 10
        while len(workers := children.read_text().split()) < (1 if when == "forking" else 2):
            assert time.monotonic() < deadline, "no pool was forked"
        if when == "walking":
            time.sleep(0.5)  # let the workers start on their tasks
            for pid in workers:
                os.kill(int(pid), signal.SIGINT)
            time.sleep(0.5)
            # a worker that died would have been replaced under a new pid
            assert children.read_text().split() == workers
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            left = True
        except ProcessLookupError:
            left = False
        proc.wait()
    assert proc.returncode == 130
    assert err == "interrupted\n"
    assert not left, "a process was left in the walk's group"
