"""Time one benchmark workload's query stream under two source trees in one
process, query by query, and check that both give the same answers.

    python3 tools/ab_time.py OLD_SRC NEW_SRC --workload string-report --seed 21
        [--config full|smoke] [--reps 3] [--oracle | --build]

OLD_SRC and NEW_SRC are directories that hold a ``gapindex`` package (a
checkout's ``src``). The workload (inputs, structures and stream) comes
from ``perfbench/workloads.py`` next to this directory, imported as it is,
once per tree, so each tree builds its own structures from the same
inputs. Each repetition asks every query of the stream of both trees in
turn, the tree that goes first alternating from one query to the next
and, for each query, from one repetition to the next, so drift on the
machine falls on both sides alike at any number of repetitions. Every
answer's repr must be the same under both trees: the first query that
differs is printed and the exit code is 1. With ``--oracle`` a query whose
answers differ passes when each tree's answer passes that tree's
workload ``check`` (an exists may then change its witness); the second
line counts such queries, ``answers differ on K queries, each passing
the workload's check``, and the first query with an answer that fails the
check is printed, with exit code 1. Otherwise the tool prints, per
side, the mean, p50, p90 and p99 of the per-query microseconds pooled
over the repetitions, and the new/old ratio of each. Two lines then split
the pooled samples by repetition, so that a change which fills caches on
a query's first read shows both costs: ``first``, repetition 1, and
``rest``, repetitions 2 to R (printed when R is at least 2), each with
each side's mean, p50 and p99 and their new/old ratios:

    first reps 1 old mean 30.1 p50 28.5 p99 95.0 new mean ... new/old mean ...
    rest reps 2 old mean 29.8 p50 28.1 p99 94.2 new mean ... new/old mean ...

When the stream mixes query kinds (``q[0]``, as ``set-questions`` does),
one more line per kind, in the order the kinds first appear, gives the
kind's query count and the same figures:

    kind gapped_exists queries 400 old mean 30.1 p50 28.5 p99 95.0 new mean ...

With ``--build`` the tool times set-up instead of queries. Each tree saves
the workload's containers once (``artifacts`` and ``save_artifact``, into
a temporary directory). Each repetition then builds every structure of
``build_steps()`` under both trees, and then loads the containers
(``load_artifact`` and ``make``) under both, the tree that goes first
alternating from one repetition to the next. A full collection runs
before each timed build or load, outside its time, as ``perfbench`` does.
Per phase and side, one line gives the median and the minimum
milliseconds over the repetitions and the median milliseconds spent
inside the cyclic collector (timed from ``gc.callbacks``), then one line
the new/old ratios of the median and the minimum. A last line gives the
megabytes ``tracemalloc`` reads held by one build of each side, made
once before the timed repetitions and outside their time:

    build old median 35.8 min 34.9 gc 8.1 ms
    build new median 29.9 min 28.8 gc 0.9 ms
    build new/old median 0.835 min 0.825
    ...
    held old 6.56 new 2.08 MB new/old 0.317
"""

from __future__ import annotations

import argparse
import gc
import importlib
import pkgutil
import statistics
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _owned(name: str) -> bool:
    return name in ("gapindex", "workloads") or name.startswith("gapindex.")


def _unload() -> None:
    for name in [name for name in sys.modules if _owned(name)]:
        del sys.modules[name]


class Tree:
    """One source tree's ``gapindex`` and ``workloads`` modules. ``activate``
    puts them in ``sys.modules``, so an import made while a query runs
    resolves within the same tree."""

    def __init__(self, src: Path):
        if not (src / "gapindex" / "__init__.py").is_file():
            raise SystemExit(f"{src} holds no gapindex package")
        _unload()
        sys.path[:0] = [str(src), str(PERFBENCH)]
        try:
            self.workloads = importlib.import_module("workloads")
            package = importlib.import_module("gapindex")
            # Every module now, so no later import reaches for the other tree.
            for info in pkgutil.iter_modules(package.__path__):
                importlib.import_module(f"gapindex.{info.name}")
        finally:
            del sys.path[:2]
        self.modules = {name: m for name, m in sys.modules.items() if _owned(name)}

    def activate(self) -> None:
        _unload()
        sys.modules.update(self.modules)


KIND_KEYS = ("mean", "p50", "p99")


def percentile(values: list[float], q: float) -> float:
    """The q-quantile of sorted values, by the nearest rank."""
    return values[min(len(values) - 1, int(q * len(values)))]


def summary(samples: list[float]) -> dict[str, float]:
    ordered = sorted(samples)
    return {"mean": statistics.fmean(ordered), "p50": percentile(ordered, 0.5),
            "p90": percentile(ordered, 0.9), "p99": percentile(ordered, 0.99)}


def compared(head: str, old: list[float], new: list[float]) -> str:
    """``head``, then each side's mean/p50/p99 of its samples and their
    new/old ratios."""
    stats = [summary(old), summary(new)]
    words = [head]
    for name, side in zip(("old", "new"), stats):
        words.append(name + "".join(f" {key} {side[key]:.1f}" for key in KIND_KEYS))
    words.append("new/old" + "".join(f" {key} {stats[1][key] / stats[0][key]:.3f}"
                                     for key in KIND_KEYS))
    return " ".join(words)


def rep_lines(stream: list, micros: list[list[float]]) -> list[str]:
    """The ``first`` line, over repetition 1, and the ``rest`` line, over
    repetitions 2 to R when there are any."""
    cut = len(stream)
    reps = len(micros[0]) // max(cut, 1)
    lines = [compared("first reps 1", micros[0][:cut], micros[1][:cut])]
    if reps > 1:
        lines.append(compared(f"rest reps {reps - 1}", micros[0][cut:], micros[1][cut:]))
    return lines


def kind_lines(stream: list, micros: list[list[float]]) -> list[str]:
    """One line per query kind (``q[0]``) when the stream mixes kinds: its
    query count, each side's mean/p50/p99 and their new/old ratios."""
    kinds = list(dict.fromkeys(q[0] for q in stream))
    if len(kinds) < 2:
        return []
    return [compared(f"kind {kind} queries {sum(q[0] == kind for q in stream)}",
                     *([us for number, us in enumerate(samples)
                        if stream[number % len(stream)][0] == kind] for samples in micros))
            for kind in kinds]


def run(old: Path, new: Path, workload: str, seed: int, config: str, reps: int,
        oracle: bool = False) -> int:
    trees = [Tree(old), Tree(new)]
    loads, calls = [], []
    for tree in trees:
        tree.activate()
        wl = tree.workloads.WORKLOADS[workload](seed, config)
        calls.append(wl.dispatch({name: step() for name, step in wl.build_steps()}))
        loads.append(wl)
    if loads[0].stream != loads[1].stream:
        print("streams differ")
        return 1
    stream = loads[0].stream
    micros: list[list[float]] = [[], []]
    answers: list[list] = [[], []]
    for rep in range(reps):
        for number, q in enumerate(stream):
            for side in (0, 1) if (rep + number) % 2 == 0 else (1, 0):
                trees[side].activate()
                started = perf_counter_ns()
                answer = calls[side](q)
                micros[side].append((perf_counter_ns() - started) / 1e3)
                if rep == 0:
                    answers[side].append(answer)
    differ = [number for number, (a, b) in enumerate(zip(*answers)) if repr(a) != repr(b)]
    for number in differ:
        q = stream[number]
        if not oracle:
            print(f"answers differ at query {number}: {q!r}")
            return 1
        failed = []
        for side, name in enumerate(("old", "new")):
            trees[side].activate()
            if not loads[side].check(q, answers[side][number]):
                failed.append(name)
        if failed:
            print(f"answers differ at query {number}: {q!r};"
                  f" the {' and '.join(failed)} answer fails the check")
            return 1
    print(f"workload {workload} seed {seed} config {config} queries {len(stream)} reps {reps}")
    print(f"answers differ on {len(differ)} queries, each passing the workload's check"
          if differ else "answers equal")
    stats = [summary(samples) for samples in micros]
    for name, side in zip(("old", "new"), stats):
        print(f"{name} " + " ".join(f"{key} {value:.1f}" for key, value in side.items()) + " us")
    print("new/old " + " ".join(f"{key} {stats[1][key] / stats[0][key]:.3f}"
                                for key in stats[0]))
    for line in rep_lines(stream, micros) + kind_lines(stream, micros):
        print(line)
    return 0


class CollectorClock:
    """Nanoseconds spent inside the cyclic collector, from ``gc.callbacks``,
    while the clock is entered."""

    def __init__(self):
        self.ns = 0
        self.started = 0

    def tick(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = perf_counter_ns()
        else:
            self.ns += perf_counter_ns() - self.started

    def __enter__(self):
        gc.callbacks.append(self.tick)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self.tick)


def timed(work) -> tuple[float, float]:
    """Milliseconds that ``work()`` took and that the collector spent in it,
    after a full collection outside the time."""
    gc.collect()
    with CollectorClock() as clock:
        started = perf_counter_ns()
        work()
        elapsed = perf_counter_ns() - started
    return elapsed / 1e6, clock.ns / 1e6


def build_all(wl) -> dict:
    return {name: step() for name, step in wl.build_steps()}


def held_mb(work) -> float:
    """Megabytes ``tracemalloc`` reads held by what ``work()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        built = work()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del built
    return held / 2**20


def load_all(wl, persist, paths) -> dict:
    structures = {}
    for kind, path in paths:
        name, make = wl.make(kind)
        structures[name] = make(persist.load_artifact(str(path)))
    return structures


def run_builds(old: Path, new: Path, workload: str, seed: int, config: str,
               reps: int) -> int:
    trees = [Tree(old), Tree(new)]
    works: dict[str, list] = {"build": [], "load": []}
    held = []
    with tempfile.TemporaryDirectory() as tmp:
        for number, tree in enumerate(trees):
            tree.activate()
            wl = tree.workloads.WORKLOADS[workload](seed, config)
            persist = tree.modules["gapindex.persist"]
            paths = []
            for kind, artifact in wl.artifacts():
                path = Path(tmp) / f"{number}-{kind}.gidx"
                persist.save_artifact(str(path), artifact)
                paths.append((kind, path))
            works["build"].append(partial(build_all, wl))
            works["load"].append(partial(load_all, wl, persist, paths))
            held.append(held_mb(works["build"][-1]))
        samples = {phase: ([], []) for phase in works}
        for rep in range(reps):
            order = (0, 1) if rep % 2 == 0 else (1, 0)
            for phase, work in works.items():
                for side in order:
                    trees[side].activate()
                    samples[phase][side].append(timed(work[side]))
    print(f"workload {workload} seed {seed} config {config} reps {reps} builds")
    for phase, both in samples.items():
        stats = []
        for name, pairs in zip(("old", "new"), both):
            ms = [t for t, _ in pairs]
            stats.append((statistics.median(ms), min(ms)))
            print(f"{phase} {name} median {stats[-1][0]:.1f} min {stats[-1][1]:.1f}"
                  f" gc {statistics.median(g for _, g in pairs):.1f} ms")
        print(f"{phase} new/old median {stats[1][0] / stats[0][0]:.3f}"
              f" min {stats[1][1] / stats[0][1]:.3f}")
    print(f"held old {held[0]:.2f} new {held[1]:.2f} MB new/old {held[1] / held[0]:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_SRC")
    parser.add_argument("new", type=Path, metavar="NEW_SRC")
    parser.add_argument("--workload", required=True,
                        choices=["string-exists", "string-report", "set-questions"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", default="full", choices=["full", "smoke"])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--oracle", action="store_true",
                        help="let answers differ when both pass the workload's check")
    parser.add_argument("--build", action="store_true",
                        help="time builds and loads instead of queries")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.build and args.oracle:
        parser.error("--oracle applies to queries, not to --build")
    if args.build:
        return run_builds(args.old.resolve(), args.new.resolve(), args.workload, args.seed,
                          args.config, args.reps)
    return run(args.old.resolve(), args.new.resolve(), args.workload, args.seed,
               args.config, args.reps, args.oracle)


if __name__ == "__main__":
    sys.exit(main())
