"""End-to-end smoke runs of ``perfbench/run.py`` (slow: select with -m slow).

Four seconds give ``cohort_batch`` enough recourse searches to cross a
threshold (the run is refused otherwise).

Each workload trains its fixture, serves, checks every reply and prints
the result line; a directory holding only the benchmark refuses to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd, workload, trace, seconds="4", seed="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", trace],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.slow
@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["gateway_mixed", "cohort_batch",
                                      "cluster_ingest"])
def test_workload_smoke(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "end_to_end" if trace == "0" else "per_layer"
    completed = _run(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
    if trace == "1":
        ledger = json.loads((ROOT / ".perfbench" /
                             f"{workload}-seed1.ledger.json").read_text())
        stages = [row["stage"] for row in ledger["stages"]]
        assert stages[-1] == "unattributed"
        assert ("wal" in stages) == (workload == "cluster_ingest")
        assert ("protocol" in stages) == (workload != "cohort_batch")


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "gateway_mixed", "0", seconds="1")
    assert completed.returncode != 0
    assert not completed.stdout.strip()
