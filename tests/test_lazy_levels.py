"""Quotient levels, and a string index's interval sets, make each set's
tuple from their codes on first read, and a backend makes a set's member
set on its first probe.

A build makes no interval set and no quotient set, and no member
set; ``gapindex bench`` counts the interval and quotient sets its passes
read. A query pass fills
only what it reads, every filled tuple is its set's quotient and holds the
level's shared ints, and every member set made follows the 8-element
rule. A fill is idempotent, so threads that share one fresh index give
the sequential answers and leave levels equal to an eager reference.
"""

import random
import sys
import threading
from pathlib import Path

import pytest

from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.bench import run_bench
from gapindex.errors import FormatError
from gapindex.gapped import (
    ApproxQuery,
    approx_exists,
    build_gapped_index,
    gapped_exists,
    gapped_report,
    quotient_levels,
)
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.sets import SlicedSets
from gapindex.textindex import build_gapped_string_index

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def _instances(g):
    return [g.exact] + [lvl.instance for lvl in g.levels]


def _eager(g, level):
    return [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in g.exact.base]


def _assert_untouched(g):
    assert g.levels
    for lvl in g.levels:
        assert lvl.instance.base.filled() == 0
        assert lvl.instance.backend.rows is lvl.instance.base.rows
    for inst in _instances(g):
        assert all(member is None for member in inst.backend.members)


def _assert_filled_right(g):
    """Every filled level tuple is its set's quotient, made of the level's
    shared ints; every member set made follows the 8-element rule."""
    for lvl in g.levels:
        base = lvl.instance.base
        ints = base.ints
        assert all(a < b for a, b in zip(ints, ints[1:]))  # one int per value
        shared = dict(zip(ints, range(len(ints))))
        eager = _eager(g, lvl.level)
        for t, q in enumerate(base.rows):
            if q is not None:
                assert q == eager[t]
                assert all(v is ints[shared[v]] for v in q)
    for inst in _instances(g):
        backend = inst.backend
        for t, member in enumerate(backend.members):
            if member is None:
                continue
            elements = backend.rows[t]
            if len(elements) <= 8:
                assert member is elements
            else:
                assert isinstance(member, frozenset) and member == frozenset(elements)


def _run(workload, config):
    wl = WORKLOADS[workload](21, config)
    built = {name: step() for name, step in wl.build_steps()}
    call = wl.dispatch(built)
    return wl, built, [call(q) for q in wl.stream]


def test_a_build_fills_no_level_tuple_and_no_member_set():
    idx = build_gapped_string_index(random_text(random.Random(21), 2048, 4), LinearScan())
    _assert_untouched(idx.gapped)
    wl = WORKLOADS["set-questions"](21, "full")
    built = {name: step() for name, step in wl.build_steps()}
    (g,) = wl.parts(built)["gapped"]
    _assert_untouched(g)


@pytest.mark.parametrize("n", [1, 2, 5, 300, 2048])
def test_a_linear_string_build_slices_no_set(n):
    idx = build_gapped_string_index(random_text(random.Random(n), n, 4), LinearScan())
    g = idx.gapped
    exact = g.exact.base
    assert isinstance(exact, SlicedSets) and exact.filled() == 0
    assert g.exact.backend.rows is exact.rows
    # The interval sets are int32 codes into the suffix array's ints.
    assert exact.codes.typecode == "i" and len(exact.ints) == n
    assert all(lvl.instance.base.filled() == 0 for lvl in g.levels)
    assert all(member is None for inst in _instances(g) for member in inst.backend.members)
    assert idx.set_elements == len(exact.codes) == sum(exact.sizes())


def test_bench_counts_the_sets_its_passes_read():
    n, sigma, seed, queries = 300, 4, 3, 12
    record = next(run_bench(
        {"gapped_string": [{"n": n, "sigma": sigma, "queries": queries, "seed": seed}]}))
    rng = random.Random(seed)
    text = random_text(rng, n, sigma)
    idx = build_gapped_string_index(text, LinearScan())
    stream = []
    for _ in range(queries):
        p1 = random_pattern_from(rng, text, 5)
        p2 = random_pattern_from(rng, text, 5)
        lo = rng.randint(0, n // 2)
        stream.append((p1, p2, lo, lo + rng.randint(0, n // 2)))
    for ask in (idx.report, idx.exists):
        for query in stream:
            ask(*query)
    g = idx.gapped
    read = g.exact.base.filled()
    assert record["exact_sets_read"] == read
    assert 0 < read < len(g.exact.base)
    assert record["level_sets_read"] == sum(lvl.instance.base.filled() for lvl in g.levels)


def test_a_string_exists_pass_fills_only_what_it_reads():
    _, built, _ = _run("string-exists", "full")
    g = built["string"].gapped
    filled = {lvl.level: lvl.instance.base.filled() for lvl in g.levels}
    assert g.max_level == 8 and filled[8] == 0
    # Far fewer than all 7 * 4,095 level tuples are read.
    assert 0 < sum(filled.values()) < sum(len(lvl.instance.base) for lvl in g.levels) // 3
    _assert_filled_right(g)


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.5), FullTabulation()],
                         ids=["linear", "smalluniverse", "fulltab"])
def test_filled_tuples_and_member_sets_follow_the_rules(kind):
    rng = random.Random(37)
    sizes = [1, 2, 3, 5, 8, 9, 16, 30, 60, 120]
    c = random_collection(rng, len(sizes), sum(sizes), 4096, sizes)
    g = build_gapped_index(c, kind)
    _assert_untouched(g)
    for _ in range(150):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        lo = rng.randint(0, 600)
        hi = lo + rng.randint(0, 900)
        gapped_exists(g, i, j, lo, hi)
        gapped_report(g, i, j, lo, hi)
    # FullTabulation tabulates every pair, so no gapped query reads a level.
    read = sum(lvl.instance.base.filled() for lvl in g.levels)
    assert (read == 0) == (kind == FullTabulation())
    for _ in range(150):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        level = rng.randint(2, g.max_level)
        approx_exists(g, i, j, ApproxQuery(level, rng.randint(1, 40) << level))
    assert sum(lvl.instance.base.filled() for lvl in g.levels) > read
    assert any(m is not None for inst in _instances(g) for m in inst.backend.members)
    _assert_filled_right(g)


def test_a_level_reads_as_the_list_it_replaces():
    sets = [(-9, -4, -3, 0, 5), (), (6, 7), (1000, 1001, 2000), (7,)]
    for level, got in enumerate(quotient_levels(sets, 4), start=2):
        eager = [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in sets]
        assert isinstance(got, SlicedSets) and got.filled() == 0
        assert got.sizes().tolist() == [len(q) for q in eager] and got.filled() == 0
        assert len(got) == len(eager) and got[-1] == eager[-1] and got[1:4] == eager[1:4]
        assert got.filled() == 4
        assert got == eager and eager == got and got != eager[:-1]
        assert repr(got) == repr(eager) and list(got) == eager
        assert got.filled() == len(eager)
        with pytest.raises(TypeError):
            hash(got)


def test_threads_sharing_one_fresh_index_give_the_sequential_answers():
    _, _, sequential = _run("string-report", "smoke")
    wl = WORKLOADS["string-report"](21, "smoke")
    built = {name: step() for name, step in wl.build_steps()}
    call = wl.dispatch(built)
    stream, answers = wl.stream, [None] * 8

    def work(n):
        # Each thread starts at its own place, so first reads interleave.
        start = n * len(stream) // 8
        order = list(range(start, len(stream))) + list(range(start))
        got = [None] * len(stream)
        for at in order:
            got[at] = call(stream[at])
        answers[n] = got

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert all(got == sequential for got in answers)
    g = built["string"].gapped
    assert any(lvl.instance.base.filled() for lvl in g.levels)
    _assert_filled_right(g)
    for lvl in g.levels:
        assert lvl.instance.base == _eager(g, lvl.level)


def test_ids_outside_the_sets_raise_at_every_level():
    c = random_collection(random.Random(38), 6, 90, 3000)
    g = build_gapped_index(c, LinearScan())
    k = c.k
    for level in range(1, g.max_level + 1):
        q = ApproxQuery(level, 1 << level)
        backend = g.instances[level].backend
        for i, j in ((0, 1), (1, 0), (k + 1, 1), (1, k + 1)):
            with pytest.raises(FormatError):
                approx_exists(g, i, j, q)
            with pytest.raises(FormatError):
                backend.exists(i, j, 0)
    _assert_untouched(g)
