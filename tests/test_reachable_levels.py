"""A gapped index builds only the quotient levels a plan can ask.

``GappedIndex.max_level`` is ``gapped.reach(u)``, the top level of the two
passes over [0, u - 1]. No plan over a gap inside that range asks above
it, every level it builds is asked by some gap, a plan that does ask
above it is refused, and so is a set collection whose elements span more
than u values. The build's tabulation pauses the cyclic collector, and
the build leaves it as it found it, also when it raises.
"""

import dataclasses
import gc
import random

import pytest

from gapindex import gapped
from gapindex.backends import FullTabulation, LinearScan
from gapindex.errors import BudgetError, FormatError, GapIndexError
from gapindex.gapped import (
    ApproxQuery,
    GappedIndex,
    approx_exists,
    build_gapped_index,
    gapped_exists,
    gapped_report,
    plan_cover,
)
from gapindex.generators import random_collection
from gapindex.sets import IntSet, SetCollection
from test_gapped import ceil_log2


def plan_top(lo, hi):
    """The highest level a plan asks (level 1 counts, at level 0)."""
    return len(plan_cover(lo, hi).level_probes) - 1


@pytest.mark.parametrize("u", range(1, 97))
def test_every_gap_of_a_small_universe_asks_only_built_levels(u):
    g = GappedIndex([(1,)], u, LinearScan())
    assert g.max_level == gapped.reach(u) <= ceil_log2(u)
    assert g.max_level >= min(1, ceil_log2(u))
    assert [lvl.level for lvl in g.levels] == list(range(2, g.max_level + 1))
    assert len(g.instances) == g.max_level + 1
    asked = set()
    for hi in range(u):
        for lo in range(hi + 1):
            probes = plan_cover(lo, hi).level_probes
            assert len(probes) - 1 <= g.max_level, (lo, hi)
            asked.update(level for level, count in enumerate(probes) if count)
    # No built level is dead.
    assert set(range(2, g.max_level + 1)) <= asked


@pytest.mark.parametrize("u", [257, 1000, 1500, 2048, 8192, 10**4, 2**20, 2**40])
def test_the_full_range_plan_asks_the_top_level(u):
    g = GappedIndex([(1,), (u,)], u, LinearScan())
    assert g.max_level == plan_top(0, u - 1)
    assert ceil_log2(u) - 4 <= g.max_level <= ceil_log2(u) - 3
    rng = random.Random(u)
    for _ in range(2000):
        lo, hi = sorted(rng.randrange(u) for _ in range(2))
        assert plan_top(lo, hi) <= g.max_level, (lo, hi)


def test_the_built_levels_at_benchmark_universes():
    # Levels 2..R: three fewer than when every level up to ceil(log2 u) was built.
    for u, built in ((2048, 7), (8192, 9), (10**4, 10), (2**40, 36)):
        assert gapped.reach(u) - 1 == built == ceil_log2(u) - 4


def test_approx_exists_refuses_a_level_above_the_top():
    g = build_gapped_index(random_collection(random.Random(5), 3, 30, 300), LinearScan())
    top = g.max_level
    approx_exists(g, 1, 2, ApproxQuery(top, 1 << top))
    with pytest.raises(FormatError, match=f"outside built range 1..{top}"):
        approx_exists(g, 1, 2, ApproxQuery(top + 1, 1 << (top + 1)))


def test_plan_level_guard_raises(monkeypatch):
    # u = 15 builds level 2 only. Their one difference, 7, is not a point of
    # [0, 14], so an exists plans the levels after the points miss.
    g = GappedIndex([(1,), (8,)], 15, LinearScan())
    assert g.max_level == 2
    assert gapped_exists(g, 1, 2, 0, 14) == (1, 8)
    assert gapped_report(g, 1, 2, 0, 14) == [(1, 8)]
    cover = plan_cover

    def too_high(lo, hi):
        # The plan of a far wider gap, relabelled: it asks levels up to 8.
        return dataclasses.replace(cover(lo, hi + 2000), gap_lo=lo, gap_hi=hi)

    assert len(too_high(0, 14).level_probes) - 1 > g.max_level
    for query in (gapped_exists, gapped_report):
        with pytest.raises(GapIndexError, match="above the top level built, 2"):
            query(g, 1, 2, 0, 14, plan=too_high(0, 14))
    monkeypatch.setattr(gapped, "plan_cover", too_high)
    for query in (gapped_exists, gapped_report):
        with pytest.raises(GapIndexError, match="above the top level built, 2"):
            query(g, 1, 2, 0, 14)


def test_elements_wider_than_the_universe_are_refused():
    with pytest.raises(FormatError, match=r"span \[1, 100\], wider than universe 8"):
        GappedIndex([(1, 3), (50, 100)], 8, LinearScan())
    with pytest.raises(FormatError, match=r"span \[1, 100\], wider than universe 99"):
        GappedIndex([(1, 3), (50, 100)], 99, LinearScan())
    # A span of exactly u values is the universe {1..u} or a shift of it.
    g = GappedIndex([(1, 3), (50, 100)], 100, LinearScan())
    pairs = [(1, 50), (1, 100), (3, 50), (3, 100)]
    assert gapped_report(g, 1, 2, 0, 200) == pairs
    assert gapped_exists(g, 1, 2, 40, 120) in pairs
    g = GappedIndex([(0, 5), (), (7,)], 8, LinearScan())
    assert gapped_report(g, 1, 3, 0, 10) == [(0, 7), (5, 7)]
    # Empty sets have no ends to read.
    assert GappedIndex([(), (3,)], 1, LinearScan()).max_level == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_a_build_leaves_the_collector_as_it_found_it(enabled):
    c = random_collection(random.Random(7), 6, 400, 2000)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        build_gapped_index(c, LinearScan())
        assert gc.isenabled() is enabled
        int64 = SetCollection((IntSet((3, 5)), IntSet((1, 2**70))), 2**71)
        with pytest.raises(FormatError, match="does not fit the quotient levels' int64"):
            build_gapped_index(int64, LinearScan())
        assert gc.isenabled() is enabled
        with pytest.raises(BudgetError):
            build_gapped_index(c, FullTabulation(), mem_budget=1000)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_build_runs_its_deferred_young_collection(monkeypatch):
    # A quotient level slices no set at build, so containers come from the
    # exact instance: FullTabulation tabulates every pair of 60 one-element
    # sets and their 60 one-element blocks, 7,260 tables.
    c = random_collection(random.Random(7), 60, 60, 4000, [1] * 60)
    sets = [s.elements for s in c.sets]
    passes, asked = [], []
    collect = gc.collect

    def log(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    def spy(generation=2):
        asked.append((generation, gc.get_count()[0]))
        return collect(generation)

    assert gc.isenabled()
    collect()
    monkeypatch.setattr(gc, "collect", spy)
    gc.callbacks.append(log)
    try:
        g = GappedIndex(sets, c.universe, FullTabulation())
    finally:
        gc.callbacks.remove(log)
    # The tabulation made far more containers than one young generation
    # holds, yet the collector ran young only: once after the tabulation,
    # and once more before the build returned.
    assert len(g.levels) == g.max_level - 1 > 0
    (tabulated, made), (built, _) = asked
    assert tabulated == built == 0 and made > 10 * gc.get_threshold()[0]
    assert passes == [0, 0]
    assert gc.get_count()[0] < gc.get_threshold()[0]
