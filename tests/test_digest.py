"""``tools/digest.py`` on the benchmark's smoke workloads, against digests
recorded before quotient levels became plain tuples: the same answers, the
same per-query counters and the same stored sets."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, expected", [
    ("string-exists", ("c1bcd8fc6bf6395d", "cb63b6d4b8e4c890", "dad01f2c999db09a")),
    ("string-report", ("db09392f4892a9a7", "46c630828040ca3d", "dad01f2c999db09a")),
    ("set-questions", ("f5f392cb59d8d26d", "49e8cce2f0d913d0", "01a27b3ba67fe57f")),
])
def test_smoke_digests_are_recorded(workload, expected):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "--workload", workload,
         "--seed", "21", "--config", "smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    answers, counters, structures = expected
    assert result.stdout.splitlines() == [
        f"answers {answers}", f"counters {counters}", f"structures {structures}",
    ]
