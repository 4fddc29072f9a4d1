"""``tools/digest.py`` on the benchmark's workloads at seed 21, against
recorded digests: the same answers, the same per-query counters and the
same stored sets. The smoke lines were recorded before quotient levels
became plain tuples; the full lines are the ones CHANGES.md records for
the changes after that, each of which kept them. ``tools/cli_digest.py``
runs one fixed command-line session; its line was recorded before the SSI
backend's walk became one ``scan`` over a sequence of shifts."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


SMOKE_DIGESTS = [
    ("string-exists", ("c1bcd8fc6bf6395d", "cb63b6d4b8e4c890", "dad01f2c999db09a")),
    ("string-report", ("db09392f4892a9a7", "46c630828040ca3d", "dad01f2c999db09a")),
    ("set-questions", ("f5f392cb59d8d26d", "49e8cce2f0d913d0", "01a27b3ba67fe57f")),
]

FULL_DIGESTS = [
    ("string-exists", ("0858f4183ffe7c68", "8ad1452171b9eaa0", "2f431092b0be154e")),
    ("string-report", ("3c04ee53557c4257", "1b689d1420a16143", "2f431092b0be154e")),
    ("set-questions", ("6935c9689661a3d1", "9d260c416093c92e", "1b86bfbcdde7306b")),
]


def run_digest(workload, config, expected):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "--workload", workload,
         "--seed", "21", "--config", config],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    answers, counters, structures = expected
    assert result.stdout.splitlines() == [
        f"answers {answers}", f"counters {counters}", f"structures {structures}",
    ]


@pytest.mark.parametrize("workload, expected", SMOKE_DIGESTS)
def test_smoke_digests_are_recorded(workload, expected):
    run_digest(workload, "smoke", expected)


@pytest.mark.parametrize("workload, expected", FULL_DIGESTS)
def test_full_digests_are_recorded(workload, expected):
    run_digest(workload, "full", expected)


CLI_SESSION_DIGEST = "969b9adc0d7fd4b9"


def test_cli_session_digest_is_recorded():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digest.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"session {CLI_SESSION_DIGEST}"]
