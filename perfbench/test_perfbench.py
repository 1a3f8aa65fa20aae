"""Tests of the benchmark itself: tiny smoke runs and corrupted outputs.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from run import Tally

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Inserted into a copy of cli.py: every report leaves with one broken field.
CORRUPT = '''

_bench_execute = execute


def execute(config, out_path=None):
    report, code = _bench_execute(config, out_path)
    res = report["results"]
    if "parseval_ok" in res:
        res["parseval_ok"] = False
    if res.get("rectangles"):
        res["rectangles"].append(res["rectangles"][0])
    if res.get("rows"):
        res["rows"][0]["status"] = "violated"
    if "permanent" in res:
        res["permanent"] += 1
    return report, code
'''


# layers each workload must reach; sweep reaches wht only through the
# `from .wht import ...` bindings of bench, so the trace must cover those
LOADED = {
    "transform": ("wht.wht.calls", "core.parse_set.calls"),
    "extract": ("inverse.extract_rectangles_pair.calls", "energy.energy_bruteforce.calls"),
    "sweep": ("wht.wht.calls", "bench.checks.calls", "dissociation.in_family.calls"),
    "permanent": ("permanent.permanent.calls", "permanent.fk_zero_test.calls"),
}


def run_bench(root: Path, workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    proc, result = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert all(result["metrics"][name]["value"] > 0 for name in LOADED[workload])
        assert (result["metrics"]["permanent.permanent.calls"]["value"] > 0) == (workload == "permanent")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_counts_as_failed(workload, tmp_path):
    shutil.copytree(ROOT / "src" / "f2lab", tmp_path / "src" / "f2lab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "f2lab" / "cli.py"
    marker = '\nif __name__ == "__main__":'
    text = cli.read_text(encoding="ascii")
    assert marker in text
    cli.write_text(text.replace(marker, CORRUPT + marker), encoding="ascii")
    proc, result = run_bench(tmp_path, workload, 0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is False and result["failed"] >= 1


def test_digest_mismatch_counts_as_failed(tmp_path):
    cmd = workloads.build_pass("sweep", workloads.DEFAULT_SEED, 0, tmp_path, "tiny")[-1]
    report = json.dumps({"results": {"rows": [{"status": "holds"}], "holds": 1, "violated": 0, "other": 0}})
    tally = Tally({cmd.key: "0" * 16})
    tally.add(cmd, report, 0, {})
    assert tally.failed == 1 and "digest" in tally.errors[0]


def test_same_seed_same_inputs(tmp_path):
    seeds = {
        d: [c.argv[-1] for p in range(workloads.POOL) for c in workloads.build_pass("extract", seed, p, tmp_path / d, "tiny")]
        for d, seed in (("a", 7), ("b", 7), ("c", 8))
    }
    assert seeds["a"] == seeds["b"] != seeds["c"]
    files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.set"))
    assert files
    for f in files:
        assert (tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text()


def test_outside_a_tree_exits_nonzero_without_a_result(tmp_path):
    proc, result = run_bench(tmp_path, "sweep", 0)
    assert proc.returncode != 0 and result is None
