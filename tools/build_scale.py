"""Time gapped-string builds at several text lengths under two source
trees, one build per process.

    python3 tools/build_scale.py OLD_SRC NEW_SRC --n 10000 50000 [--reps 5]

OLD_SRC and NEW_SRC are directories that hold a ``gapindex`` package (a
checkout's ``src``). For each n the text is ``random_text(Random(11), n,
4)``, the text of a ``gapindex bench`` entry with that n, σ = 4 and seed
11, and each build is ``build_gapped_string_index(text, LinearScan())`` in
a new Python process, so no build inherits another's heap. Each
repetition builds once under each tree, the tree that goes first
alternating from one repetition to the next. A full collection runs
before the timed build, outside its time, and the time inside the cyclic
collector during the build is read from ``gc.callbacks``. Right after
the build, outside its time, one ``gc.collect(0)`` is timed: the young
collection the build leaves owed, which the caller's next allocations
would otherwise pay. A change that moves collector work out of a build
shows there, not as a build speed-up. One more process per tree builds
under ``tracemalloc``, outside the timed runs, and reads the bytes the
built index holds. Per n the tool prints each run, each side's median
seconds, median collector seconds and passes and median owed seconds,
their new/old ratio, and the held megabytes:

    n 10000 rep 1 old 0.1961 s gc 0.0342 s in 29 passes owed 0.0004 s
    n 10000 rep 1 new 0.0890 s gc 0.0093 s in 29 passes owed 0.0004 s
    ...
    n 10000 old median 0.1961 s gc 0.0342 s in 29 passes owed 0.0004 s
    n 10000 new median 0.0890 s gc 0.0093 s in 29 passes owed 0.0004 s
    n 10000 new/old median 0.454
    n 10000 held old 47.39 new 14.11 MB new/old 0.298
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED, SIGMA = 11, 4

# One build in a fresh interpreter: argv is SRC N MODE, MODE "time" or
# "held"; prints one JSON object.
ONE_BUILD = """
import gc, json, random, sys, time, tracemalloc
sys.path.insert(0, sys.argv[1])
from gapindex.backends import LinearScan
from gapindex.generators import random_text
from gapindex.textindex import build_gapped_string_index

n, mode = int(sys.argv[2]), sys.argv[3]
text = random_text(random.Random(%d), n, %d)
gc.collect()
if mode == "held":
    tracemalloc.start()
    index = build_gapped_string_index(text, LinearScan())
    print(json.dumps({"held": tracemalloc.get_traced_memory()[0]}))
else:
    ticks = []
    gc.callbacks.append(lambda phase, info: ticks.append(time.perf_counter()))
    started = time.perf_counter()
    index = build_gapped_string_index(text, LinearScan())
    seconds = time.perf_counter() - started
    gc.callbacks.clear()
    collector = sum(stop - start for start, stop in zip(ticks[::2], ticks[1::2]))
    started = time.perf_counter()
    gc.collect(0)
    owed = time.perf_counter() - started
    print(json.dumps({"seconds": seconds, "gc": collector, "passes": len(ticks) // 2,
                      "owed": owed}))
""" % (SEED, SIGMA)


def one_build(src: Path, n: int, mode: str) -> dict:
    done = subprocess.run([sys.executable, "-c", ONE_BUILD, str(src), str(n), mode],
                          capture_output=True, text=True, check=False)
    if done.returncode:
        raise SystemExit(f"build of n={n} under {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "gapindex" / "__init__.py").is_file():
            raise SystemExit(f"{src} holds no gapindex package")
    if args.reps < 1 or min(args.n) < 1:
        raise SystemExit("--reps and every --n must be at least 1")
    sides = {"old": args.old, "new": args.new}
    for n in args.n:
        runs: dict[str, list[dict]] = {"old": [], "new": []}
        for rep in range(args.reps):
            order = ("old", "new") if rep % 2 == 0 else ("new", "old")
            for side in order:
                run = one_build(sides[side], n, "time")
                runs[side].append(run)
                print(f"n {n} rep {rep + 1} {side} {run['seconds']:.4f} s"
                      f" gc {run['gc']:.4f} s in {run['passes']} passes"
                      f" owed {run['owed']:.4f} s", flush=True)
        median = {side: statistics.median(r["seconds"] for r in runs[side]) for side in sides}
        for side in sides:
            gc_median, passes, owed_median = (statistics.median(r[key] for r in runs[side])
                                              for key in ("gc", "passes", "owed"))
            print(f"n {n} {side} median {median[side]:.4f} s gc {gc_median:.4f} s"
                  f" in {passes:g} passes owed {owed_median:.4f} s")
        print(f"n {n} new/old median {median['new'] / median['old']:.3f}")
        held = {side: one_build(sides[side], n, "held")["held"] / 1e6 for side in sides}
        print(f"n {n} held old {held['old']:.2f} new {held['new']:.2f} MB"
              f" new/old {held['new'] / held['old']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
