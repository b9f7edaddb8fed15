"""The runner's order statistics and its refusal to run without the package."""

import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]


def test_tail_keeps_ten_tasks_of_a_round_beyond_it():
    one_round = [float(i) for i in range(1, 21)]  # 20 tasks
    value, pct = run._tail(one_round, 20)
    assert (value, pct) == (10.0, 50.0)
    # identical repeated rounds give the same order statistic
    assert run._tail(one_round * 3, 20) == (10.0, 50.0)
    assert run._tail([3.0, 1.0, 2.0], 3) == (3.0, 100.0)


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
