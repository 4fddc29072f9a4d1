"""``tools/digest.py`` on the benchmark's workloads at seed 21, against
recorded digests: the same answers, the same per-query counters and the
same stored sets. The smoke lines were recorded before quotient levels
became plain tuples; the full lines are the ones CHANGES.md records for
the changes after that, each of which kept them. The ``string-exists``
counters (smoke and full) were re-recorded when an exists began to skip a
cover pair whose differences all miss the gap, which asks fewer SSI calls
and probes and changes no answer, and again when an exists began to decide
each light cover pair by one walk and to run the plan only on the pair
that meets the gap, which asks fewer calls, moves probes and changes no
answer. The ``string-exists`` and ``string-report`` counters were
re-recorded once more when a report stopped scanning a cover pair whose
difference range misses the gap (fewer SSI calls, the same probes) and an
exists began to build its plan only for a pair that needs it
(``last_plan_size`` 0 for a NO whose pairs never meet the gap); answers
and stored sets are unchanged. The ``set-questions`` counters (smoke and
full) were re-recorded when a gapped exists without a plan began to ask
its point shifts first and to plan the rest only when they all miss:
``last_plan_size`` is then the number of points when a point answers and 0
for a pair whose difference range misses the gap, while SSI calls, probes
and answers stay the same. Every workload's counters (smoke and full)
were re-recorded when a plan began to ask level 1's shifts as exact
probes, each once: no query's SSI calls or probes rose and no answer
moved. A string report then began to leave its counters summed over its
cover pairs (``last_raw_pairs``, the largest ``last_max_multiplicity``)
and 0 when no cover pair runs, where it left its last cover pair's.
``tools/cli_digest.py`` runs one fixed command-line session; its line was
re-recorded for the same changes, for ``build --kind smallest-shift``
refusing ``--backend`` and ``--delta``, for the gapped-set exists plan
sizes above and the gapped-string ``--count-queries`` line gaining
``plan_size`` and ``raw_pairs``, and for the level-1 and string-report
changes, which moved only ``#`` counter lines.
``--per-query`` writes one line per query and leaves the digests as they
are; ``tools/compare_queries.py`` compares two such files and fails on any
changed answer."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


SMOKE_DIGESTS = [
    ("string-exists", ("c1bcd8fc6bf6395d", "4ea4a3326b572324", "dad01f2c999db09a")),
    ("string-report", ("db09392f4892a9a7", "4194e5316efe4115", "dad01f2c999db09a")),
    ("set-questions", ("f5f392cb59d8d26d", "21afe2548c1e028c", "01a27b3ba67fe57f")),
]

FULL_DIGESTS = [
    ("string-exists", ("0858f4183ffe7c68", "417eabd282238ab4", "2f431092b0be154e")),
    ("string-report", ("3c04ee53557c4257", "80c712277e18cfa0", "2f431092b0be154e")),
    ("set-questions", ("6935c9689661a3d1", "8a627bc9722b6074", "1b86bfbcdde7306b")),
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


CLI_SESSION_DIGEST = "12e573095d40f666"


def test_cli_session_digest_is_recorded():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_digest.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [f"session {CLI_SESSION_DIGEST}"]


@pytest.fixture(scope="module")
def smoke_per_query(tmp_path_factory):
    """The smoke ``string-exists`` run with ``--per-query``: its result and file."""
    per_query = tmp_path_factory.mktemp("digest") / "queries.jsonl"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "digest.py"), "--workload", "string-exists",
         "--seed", "21", "--config", "smoke", "--per-query", str(per_query)],
        capture_output=True, text=True, timeout=120,
    )
    return result, per_query


def test_per_query_lines_follow_the_stream(smoke_per_query):
    result, per_query = smoke_per_query
    assert result.returncode == 0, result.stderr
    answers, counters, structures = dict(SMOKE_DIGESTS)["string-exists"]
    assert result.stdout.splitlines() == [
        f"answers {answers}", f"counters {counters}", f"structures {structures}",
    ]
    rows = [json.loads(line) for line in per_query.read_text().splitlines()]
    assert [row["query"] for row in rows] == list(range(len(rows))) and rows
    for row in rows:
        assert set(row) == {"query", "answer", "ssi_calls", "probes", "plan_size",
                            "raw_pairs", "max_multiplicity", "shift_probes"}
        assert len(row["plan_size"]) == len(row["raw_pairs"]) == 1 and row["shift_probes"] == []
    assert sum(row["ssi_calls"] for row in rows) > 0


def compare_queries(old, new):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_queries.py"), str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )


def test_compare_queries_fails_on_a_changed_answer(smoke_per_query, tmp_path):
    _, per_query = smoke_per_query
    lines = per_query.read_text().splitlines()
    result = compare_queries(per_query, per_query)
    assert result.returncode == 0, result.stderr
    out = result.stdout.splitlines()
    assert out[:2] == [f"queries {len(lines)}", "answers equal"]
    calls = sum(json.loads(line)["ssi_calls"] for line in lines)
    assert f"ssi_calls old {calls} new {calls} rose 0 fell 0" in out
    # One doctored answer digest, or one query missing, fails the comparison.
    row = json.loads(lines[3])
    row["answer"] = "0" * 16
    doctored = tmp_path / "doctored.jsonl"
    doctored.write_text("\n".join(lines[:3] + [json.dumps(row)] + lines[4:]) + "\n")
    result = compare_queries(per_query, doctored)
    assert result.returncode == 1
    assert "answers differ on 1 queries: 3" in result.stdout
    doctored.write_text("\n".join(lines[:-1]) + "\n")
    result = compare_queries(per_query, doctored)
    assert result.returncode == 1
    assert result.stdout.startswith(f"queries differ: {len(lines)} old, {len(lines) - 1} new")
