"""``tools/ab_time.py`` at the smoke config: the repo's ``src`` against
itself times both sides and exits 0, with a ``first`` and a ``rest`` line
splitting the samples by repetition, one more line per query kind when
the stream mixes kinds, and each side runs first as often as the other; against a copy whose string report drops its first pair it finds
the changed answer and exits 1. With ``--oracle``, answers that differ
pass when both pass the workload's check. With ``--build`` it times the
builds and loads of both sides instead, each side first in every other
repetition, and reports the time inside the cyclic collector too, and the
memory one build of each side holds. Without ``--reps`` it runs 31
repetitions of builds and 3 of queries."""

import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Runs the tool with ``Tree.activate`` logged: each tree is activated once
# to build, then once before each of its timed calls, so every other entry
# after the first two is the side that ran a query first.
COUNT_FIRSTS = """
import sys
sys.path.insert(0, sys.argv.pop(1))
import ab_time
activated = []
activate = ab_time.Tree.activate
ab_time.Tree.activate = lambda tree: (activated.append(tree), activate(tree))[1]
code = ab_time.main(sys.argv[1:])
firsts = activated[2::2]
print("first", *(firsts.count(tree) for tree in activated[:2]))
sys.exit(code)
"""


def ab_time(old, new, workload, reps=2, *flags):
    """Runs the tool at the smoke config; ``reps=None`` leaves ``--reps`` out."""
    return subprocess.run(
        [sys.executable, "-c", COUNT_FIRSTS, str(ROOT / "tools"), str(old), str(new),
         "--workload", workload, "--seed", "21", "--config", "smoke",
         *(() if reps is None else ("--reps", str(reps))), *flags],
        capture_output=True, text=True, timeout=300,
    )


def doctored(tmp_path, name, module, old, new):
    """A copy of the repo's ``src`` with one line of a module replaced."""
    src = tmp_path / name
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "gapindex" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return src


def test_the_same_tree_times_both_sides():
    result = ab_time(ROOT / "src", ROOT / "src", "string-report", reps=3)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == ["workload string-report seed 21 config smoke queries 40 reps 3",
                         "answers equal"]
    assert len(lines) == 8
    for side, line in zip(("old", "new", "new/old"), lines[2:5]):
        words = line.split()
        assert words[0] == side and words[1:9:2] == ["mean", "p50", "p90", "p99"]
    _assert_compared(lines[5], ["first", "reps", "1"])
    _assert_compared(lines[6], ["rest", "reps", "2"])
    # An odd number of repetitions still runs each side first 60 times.
    assert lines[7] == "first 60 60"


def _assert_compared(line, head):
    """``head``, then each side's mean, p50 and p99 and their ratios."""
    words = line.split()
    at = len(head)
    assert words[:at] == head, line
    for side, start in (("old", at), ("new", at + 7), ("new/old", at + 14)):
        assert words[start] == side and words[start + 1:start + 7:2] == ["mean", "p50", "p99"]
        assert all(float(w) >= 0 for w in words[start + 2:start + 7:2])
    assert len(words) == at + 21


def test_one_repetition_has_no_rest_line():
    result = ab_time(ROOT / "src", ROOT / "src", "string-exists", 1)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[2:]] == ["old", "new", "new/old", "first",
                                                        "first"]
    _assert_compared(lines[5], ["first", "reps", "1"])


def test_a_mixed_stream_times_each_kind():
    result = ab_time(ROOT / "src", ROOT / "src", "set-questions")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[:2] == ["workload set-questions seed 21 config smoke queries 80 reps 2",
                         "answers equal"]
    assert [line.split()[0] for line in lines[2:5]] == ["old", "new", "new/old"]
    _assert_compared(lines[5], ["first", "reps", "1"])
    _assert_compared(lines[6], ["rest", "reps", "1"])
    assert lines[-1] == "first 80 80"
    kinds = {}
    for line in lines[7:-1]:
        words = line.split()
        assert words[0] == "kind" and words[2] == "queries", line
        kinds[words[1]] = int(words[3])
        _assert_compared(line, words[:4])
    assert sorted(kinds) == sorted(["ssi_exists", "ssi_report", "gapped_exists",
                                    "gapped_report", "smallest_shift", "jumbled_exists",
                                    "jumbled_report"])
    assert sum(kinds.values()) == 80


@pytest.mark.parametrize("workload", ["string-exists", "set-questions"])
def test_build_times_builds_and_loads(workload):
    result = ab_time(ROOT / "src", ROOT / "src", workload, 2, "--build")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == f"workload {workload} seed 21 config smoke reps 2 builds"
    for at, phase in ((1, "build"), (4, "load")):
        for side, line in zip(("old", "new"), lines[at:at + 2]):
            words = line.split()
            assert words[:2] == [phase, side] and words[2:8:2] == ["median", "min", "gc"]
            assert words[-1] == "ms" and len(words) == 9
            assert all(float(w) >= 0 for w in words[3:9:2])
        words = lines[at + 2].split()
        assert words[:2] == [phase, "new/old"] and words[2::2] == ["median", "min"]
    # One build of each side, outside the timed repetitions.
    words = lines[7].split()
    assert words[:2] == ["held", "old"] and words[3] == "new"
    assert words[5:7] == ["MB", "new/old"] and len(words) == 8
    assert all(float(words[at]) > 0 for at in (2, 4, 7))
    # Each side runs first in one of the two repetitions, in both phases.
    assert lines[8] == "first 2 2"
    assert len(lines) == 9


def test_builds_default_to_31_repetitions_and_queries_to_3():
    result = ab_time(ROOT / "src", ROOT / "src", "string-exists", None, "--build")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "workload string-exists seed 21 config smoke reps 31 builds"
    # 31 repetitions: one side runs first 16 times, the other 15, per phase.
    assert sorted(map(int, lines[-1].split()[1:])) == [30, 32]
    result = ab_time(ROOT / "src", ROOT / "src", "string-exists", None)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0].endswith(" reps 3")


def test_a_changed_answer_fails(tmp_path):
    src = doctored(tmp_path, "src", "textindex.py", "return sorted(raw)\n",
                   "return sorted(raw)[1:]\n")
    result = ab_time(ROOT / "src", src, "string-report")
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("answers differ at query ")


TABLE_SHIFT = "shift = g.exact.backend.table.smallest(i, j, lo, hi)\n"


def test_the_oracle_lets_witnesses_differ_when_both_pass_the_check(tmp_path):
    """A copy whose gapped exists takes a tabulated pair's largest realized
    shift in the gap, not its smallest, gives other witnesses that still
    hold. Without ``--oracle`` the first one fails the run; with it the
    run passes and counts them. A copy whose witness is off by one fails
    the check, and the run, either way."""
    largest = doctored(tmp_path, "largest", "gapped.py", TABLE_SHIFT,
                       "shift = (g.exact.backend.table.realized(i, j, lo, hi) or [None])[-1]\n")
    result = ab_time(ROOT / "src", largest, "set-questions", 1)
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("answers differ at query ")
    assert "check" not in result.stdout
    result = ab_time(ROOT / "src", largest, "set-questions", 1, "--oracle")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "workload set-questions seed 21 config smoke queries 80 reps 1"
    words = lines[1].split()
    assert words[:3] == ["answers", "differ", "on"] and int(words[3]) > 0
    assert " ".join(words[4:]) == "queries, each passing the workload's check"
    # The rest is printed as for equal answers.
    assert [line.split()[0] for line in lines[2:5]] == ["old", "new", "new/old"]
    wrong = doctored(tmp_path, "wrong", "gapped.py", "        return (cert.a, cert.b)\n",
                     "        return (cert.a, cert.b + 1)\n")
    result = ab_time(ROOT / "src", wrong, "set-questions", 1, "--oracle")
    assert result.returncode == 1, result.stderr
    assert result.stdout.startswith("answers differ at query ")
    assert result.stdout.splitlines()[0].endswith("; the new answer fails the check")
