"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py

Run from the root of the repository. The smoke runs use a few inputs
of each workload and take a few seconds each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _worker(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    p = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_tail_percentile_leaves_ten_samples():
    assert W.tail_percentile(51) == 80
    assert W.tail_percentile(500) == 98
    for n in range(20, 2000):
        p = W.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 - 1e-9, n
        assert p == 99 or n * (100 - p - 1) / 100 < 10, n


def test_digest_ignores_order_and_sees_witnesses():
    a = [{"id": "r0.1", "status": "sat", "env": {"x": [1]}},
         {"id": "r0.2", "status": "unsat", "env": None}]
    assert W.digest(a) == W.digest(a[::-1])
    assert W.digest(a)[1] == {"sat": 1, "unsat": 1}
    b = [dict(a[0], env={"x": [2]}), a[1]]
    assert W.digest(a)[0] != W.digest(b)[0]


def test_reference_clock_scales_and_skips_the_kernel():
    # the kernel runs at twice its reference time, so the clock runs at
    # half speed, and stands still while a sample runs
    k = 2 * calib.REF_KERNEL_S
    ref = calib.RefClock([(0.0, k), (1.0, k), (2.0, k)])
    assert ref(1.5) - ref(0.5) == pytest.approx((1.0 - k) / 2)
    assert ref(1.0 + k) == ref(1.0)
    assert ref(3.0) - ref(2.5) == pytest.approx(0.25)
    assert ref(-1.0) - ref(-2.0) == pytest.approx(0.5)


def test_calibrator_samples_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    cal = calib.Calibrator()
    cal.start()
    t0 = calib.clock()
    while calib.clock() - t0 < 0.2:
        pass
    cal.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(cal.durations) > 2 * calib.EDGE_SAMPLES
    ref = cal.ref_clock()
    assert 0 < ref(calib.clock()) - ref(t0)


def test_digest_same_across_two_runs():
    # the second run is traced, so this also holds the rebuilt pipeline
    # to the same statuses and witnesses as check_sat
    one = _worker(["--workload", "random500", "--limit", "25", "--trace", "0"])
    two = _worker(["--workload", "random500", "--limit", "25", "--trace", "1"])
    assert W.digest(one["verdicts"]) == W.digest(two["verdicts"])


@pytest.mark.parametrize(
    "workload, trace, limit",
    [("files", 0, 4), ("random500", 1, 20), ("oracle-enum", 0, 30)],
)
def test_smoke_run_prints_the_declared_metrics(workload, trace, limit):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace), "--limit", str(limit)])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= limit
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    # every metric is printed by name with its unit as well
    for m in declared:
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
                   for line in p.stdout.splitlines()), m["name"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(["--workload", "files", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert p.returncode == 2
    assert "correct" not in p.stdout
