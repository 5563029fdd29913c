"""Smoke tests: the scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_validate_constructions_small_sweep():
    proc = run_script("validate_constructions.py", "--max-n", "5")
    assert proc.returncode == 0, proc.stderr
    passes = [line for line in proc.stdout.splitlines() if line.startswith("PASS n=")]
    assert len(passes) == 10  # (n, k) for 2 <= n <= 5, 0 <= k <= n-2
    assert "FAIL" not in proc.stdout


def test_stretch_search_short_budget():
    proc = run_script("stretch_search.py", "--minutes", "0.01", "--workers", "1")
    assert proc.returncode in (0, 3), proc.stderr  # 3: budget ran out first
    for mode in ("vertex", "edge"):
        assert any(line.startswith(f"{mode}: ") and " value=6 " in line
                   for line in proc.stdout.splitlines()), proc.stdout
