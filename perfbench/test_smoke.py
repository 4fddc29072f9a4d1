"""Smoke test of the benchmark itself, on tiny instances (a few seconds in all).

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, seed=3, trace=0, workload="string-exists"):
    argv = [sys.executable, str(pathlib.Path("perfbench") / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=120)


def record_of(stdout: str) -> dict:
    line = next(ln for ln in stdout.splitlines() if ln.startswith("record "))
    return json.loads(line[len("record "):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    result = bench("--config", "smoke", workload=workload, trace=trace)
    assert result.returncode == 0, result.stderr
    final = json.loads(result.stdout.splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in final["metrics"].items()} == declared
    for name, m in final["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert trace or m["value"] > 0, name
        assert f"  {name} = " in result.stdout
    assert "  failed_frac = 0.000000" in result.stdout
    record = record_of(result.stdout)
    assert record["stamps"]["seed"] == 3 and record["stamps"]["traced"] is bool(trace)
    assert record["failed_frac"] == 0
    if trace:
        assert final["metrics"]["gapped.fallbacks"]["value"] == 0
        assert final["metrics"]["trace.overhead_frac"]["value"] > 0


def test_same_seed_same_inputs():
    first, second = (record_of(bench("--config", "smoke", workload="set-questions").stdout)
                     for _ in range(2))
    assert first["workload"] == second["workload"]
    assert first["persist"]["container_bytes"] == second["persist"]["container_bytes"]


def test_wrong_answers_fail_the_run():
    """A report that drops its first pair must be caught by the oracle gate."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]\n"
        "import run\n"
        "from gapindex import textindex\n"
        "original = textindex.GappedStringIndex.report\n"
        "textindex.GappedStringIndex.report = lambda self, *q: original(self, *q)[1:]\n"
        "sys.exit(run.main(['--workload', 'string-report', '--seed', '3', '--seconds', '0.5',"
        " '--trace', '0', '--config', 'smoke']))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 1, result.stderr
    final = json.loads(result.stdout.splitlines()[-1])
    assert final["correct"] is False and final["failed"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    result = bench(cwd=tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""
