"""Smoke tests of the benchmark harness.

Each workload runs at its smoke size, untraced and traced, and must pass its
output checks and print exactly the metrics BENCHMARK.json declares.  Run
with ``python3 -m pytest -q bench``; the whole file takes about two
minutes on a 2-vCPU host.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300)


def last_json(out) -> dict:
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_checks_and_prints_declared_metrics(workload, trace):
    out = run_bench(workload, trace, seed=3)
    assert out.returncode == 0, out.stderr
    result = last_json(out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    elif workload in ("crosscheck", "large-sparse"):
        # the directed simulate/closed-form distance is reported, unchecked
        assert result["metrics"]["oracle.simulate_directed_max_abs_z"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_decides_inputs(workload):
    first, again, other = (last_json(run_bench(workload, 0, seed))
                           for seed in (5, 5, 6))
    quality = [r["metrics"]["revenue_ratio_mean"]["value"]
               for r in (first, again, other)]
    assert quality[0] == quality[1]
    assert other["correct"]
    assert other["metrics"].keys() == first["metrics"].keys()


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench(WORKLOADS[0], 0, seed=3, root=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
