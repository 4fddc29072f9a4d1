"""``tools/build_scale.py`` at n = 256 and one repetition: the repo's
``src`` against itself builds once per side, each in its own process, and
prints each run, each side's median, collector time and passes and owed
collector time (a young collection timed right after the build), the
ratio and the held megabytes; a tree with no package is refused."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "build_scale.py"


def build_scale(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_one_repetition_times_both_sides():
    result = build_scale(ROOT / "src", ROOT / "src", "--n", 256, "--reps", 1)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 6, lines
    run = r"n 256 rep 1 (old|new) \d+\.\d{4} s gc \d+\.\d{4} s in (\d+) passes owed (\d+\.\d{4}) s"
    runs = [re.fullmatch(run, line) for line in lines[:2]]
    assert [m.group(1) for m in runs] == ["old", "new"]
    for line, side, m in zip(lines[2:4], ("old", "new"), runs):
        median = re.fullmatch(rf"n 256 {side} median \d+\.\d{{4}} s gc \d+\.\d{{4}} s"
                              r" in (\d+) passes owed (\d+\.\d{4}) s", line)
        # One repetition: the medians are that run's passes and owed time.
        assert median and median.groups() == m.group(2, 3)
    assert re.fullmatch(r"n 256 new/old median \d+\.\d{3}", lines[4])
    held = re.fullmatch(r"n 256 held old (\S+) new (\S+) MB new/old \d+\.\d{3}", lines[5])
    assert held and float(held.group(1)) > 0 and float(held.group(2)) > 0


def test_a_tree_with_no_package_is_refused(tmp_path):
    result = build_scale(tmp_path, ROOT / "src", "--n", 256, "--reps", 1)
    assert result.returncode != 0
    assert "holds no gapindex package" in result.stderr
