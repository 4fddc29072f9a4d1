"""``tools/digest.py`` on the benchmark's workloads at seed 21 and
``tools/cli_digest.py``'s command-line session, against their pins in
``tests/pins/``: the same answers, the same per-query counters and the
same stored sets. ``--per-query`` writes the rows the pin holds, and
``tools/compare_queries.py`` compares two files of rows and fails on any
changed answer; a pin that moved names each counter that did."""

import json
import pathlib
import subprocess
import sys

import digest
import pytest
from compare_queries import parse

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "pins"


@pytest.mark.parametrize("config", ["smoke", "full"])
@pytest.mark.parametrize("workload", ["string-exists", "string-report", "set-questions"])
def test_workload_pins(workload, config, pin, tmp_path):
    per_query = tmp_path / "queries.jsonl"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "--workload", workload,
         "--seed", "21", "--config", config, "--per-query", str(per_query)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    pin(f"{config}-{workload}", result.stdout)
    head, _ = parse(result.stdout)
    rows = parse(per_query.read_text())[1]
    assert digest.pin(head["answers"], rows, head["structures"]) == result.stdout


def test_cli_session_pin(pin):
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digest.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    pin("cli-session", result.stdout)


def compare_queries(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_queries.py"), str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )


def test_compare_queries_fails_on_a_changed_answer(tmp_path):
    committed = PINS / "smoke-string-exists.txt"
    head, rows = parse(committed.read_text())
    result = compare_queries(committed, committed)
    assert result.returncode == 0, result.stderr
    calls = head["ssi_calls"]
    assert result.stdout.splitlines()[:3] == [
        f"queries {len(rows)}", "answers equal", f"ssi_calls old {calls} new {calls} rose 0 fell 0"]
    # One doctored answer digest, or one query missing, fails the comparison.
    rows[3]["answer"] = "0" * 16
    doctored = tmp_path / "doctored.jsonl"
    for kept, why in ((rows, "answers differ on 1 queries: 3"),
                      (rows[:-1], f"queries differ: {len(rows)} old, {len(rows) - 1} new")):
        doctored.write_text("".join(json.dumps(row) + "\n" for row in kept))
        result = compare_queries(committed, doctored)
        assert result.returncode == 1 and why in result.stdout.splitlines()


def test_a_moved_pin_names_what_moved(pin, tmp_path):
    """A committed pin doctored in a copy fails against the stream's real
    pin, naming the counter, its totals old and new, and, where the pin
    holds rows, how many queries rose and fell."""
    doctored = tmp_path / "pins"
    doctored.mkdir()
    smoke, full = ((PINS / f"{name}.txt").read_text() for name in ("smoke-string-exists",
                                                                  "full-string-exists"))
    (head, rows), calls = parse(smoke), parse(full)[0]["ssi_calls"]
    row = json.dumps(rows[3])
    rows[3]["ssi_calls"] += 2
    (doctored / "smoke.txt").write_text(smoke.replace(row, json.dumps(rows[3])))
    (doctored / "full.txt").write_text(full.replace(f"ssi_calls {calls}\n", f"ssi_calls 9{calls}\n"))
    for name, observed, moved in (
        ("smoke", smoke, ["queries 60", "answers equal",
                          f"ssi_calls old {int(head['ssi_calls']) + 2} new {head['ssi_calls']}"
                          " rose 0 fell 1"]),
        ("full", full, [f"ssi_calls old 9{calls} new {calls}"]),
    ):
        with pytest.raises(pytest.fail.Exception) as failed:
            pin(name, observed, pins=doctored)
        lines = str(failed.value).splitlines()
        assert lines[1:len(moved) + 1] == moved
        assert lines[-1] == f"observed: {tmp_path / name}.txt"
