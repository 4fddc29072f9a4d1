"""A level-1 query is three exact shifts, and a plan asks them at level 0.

Level 1 divides by 2^0, so a level-1 query centered at 2*kappa asks the
exact shifts 2*kappa - 1, 2*kappa and 2*kappa + 1, which are both its YES
and its NO zone. ``plan_cover`` issues them as level-0 probes after the
point shifts, each once, in the order the runs first issue them: no
segment has level 1, and no query asks a pair the same exact shift twice.
Counting wrappers record every (i, j, shift) the exact instance is asked,
by a lookup (``_exists``, which a tabulated report's recursion calls too)
or by a pass (``scan_shifts``).
"""

import random
from collections import Counter

import pytest

from gapindex import gapped
from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.gapped import GappedIndex, gapped_exists, gapped_report, plan_cover
from gapindex.sets import ingest_collection

KINDS = (LinearScan(), SmallUniverse(delta=0.5), FullTabulation())
KIND_IDS = ["linear", "smalluniverse", "fulltab"]


def level_one_shifts(runs, step):
    """The exact shifts of a pass's level-1 queries, center by center."""
    return [s for level, first, last in runs if level == 1
            for kappa in range(first, last + step, step)
            for s in (2 * kappa - 1, 2 * kappa, 2 * kappa + 1)]


def assert_level_one_is_exact(alpha, beta):
    plan = plan_cover(alpha, beta)
    assert all(level != 1 for level, _ in plan.segments), (alpha, beta)
    exact = tuple(dict.fromkeys(list(plan.point_shifts)
                                + level_one_shifts(plan.forward_runs, 1)
                                + level_one_shifts(plan.backward_runs, -1)))
    assert plan.level_shifts[0] == exact, (alpha, beta)
    assert plan.level_probes[0] == len(exact)
    assert plan.level_probes[1:2] in ((), (0,))
    assert plan.segments[0] == (0, plan.point_shifts)


def test_level_one_shifts_are_level_0_probes_in_issue_order():
    for beta in range(257):
        for alpha in range(beta + 1):
            assert_level_one_is_exact(alpha, beta)
    rng = random.Random(30)
    for _ in range(2500):
        alpha = rng.randint(0, 1 << rng.randint(1, 40))
        beta = min(alpha + rng.randint(0, 1 << rng.randint(1, 40)), 1 << 40)
        assert_level_one_is_exact(alpha, beta)


def watch(g, monkeypatch) -> list:
    """The (i, j, shift) triples the exact instance is asked from now on."""
    asked = []
    exists, scan_shifts = g.exact._exists, g.exact.backend.scan_shifts

    def counted_exists(i, j, s):
        asked.append((i, j, s))
        return exists(i, j, s)

    def counted_scan_shifts(i, j, shifts):
        asked.extend((i, j, s) for s in shifts)
        return scan_shifts(i, j, shifts)

    monkeypatch.setattr(g.exact, "_exists", counted_exists)
    monkeypatch.setattr(g.exact.backend, "scan_shifts", counted_scan_shifts)
    return asked


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_no_query_asks_a_pair_an_exact_shift_twice(kind, monkeypatch):
    rng = random.Random(300)
    small = kind == FullTabulation()  # it tabulates every pair of blocks
    asked_at_all = 0
    for _ in range(12):
        universe = rng.randint(40, 120 if small else 400)
        sizes = [rng.randint(1, 12 if small else 40) for _ in range(rng.randint(2, 5))]
        sets = [tuple(sorted(rng.sample(range(1, universe + 1), min(m, universe))))
                for m in sizes]
        g = GappedIndex(sets, universe, kind)
        asked = watch(g, monkeypatch)
        for _ in range(25):
            i, j = rng.randint(1, len(sets)), rng.randint(1, len(sets))
            alpha = rng.randint(0, universe // 2)
            beta = alpha + rng.randint(0, universe)
            want = sorted((a, b) for a in sets[i - 1] for b in sets[j - 1]
                          if alpha <= b - a <= beta)
            asked.clear()
            hit = gapped_exists(g, i, j, alpha, beta)
            assert (hit is None) == (not want), (i, j, alpha, beta)
            assert hit is None or hit in want
            assert max(Counter(asked).values(), default=1) == 1, (i, j, alpha, beta)
            asked_at_all += len(asked)
            asked.clear()
            assert gapped_report(g, i, j, alpha, beta) == want, (i, j, alpha, beta)
            assert max(Counter(asked).values(), default=1) == 1, (i, j, alpha, beta)
            asked_at_all += len(asked)
    assert asked_at_all > 500


@pytest.mark.parametrize(
    "size, calls, listings",
    [
        # 6 elements fit the 6 point shifts of [10, 20]: one listing, no call.
        (6, 0, [6]),
        # 7 and 11 elements: the points are asked, and the pair is listed
        # for the plan's 11 exact probes, so the other 5 make no call.
        (7, 6, [6, 11]),
        (11, 6, [6, 11]),
        # 12 elements: every one of the 11 exact probes is a call.
        (12, 11, [6, 11]),
    ],
)
def test_a_pair_too_large_for_the_points_is_listed_for_the_plan(monkeypatch, size, calls,
                                                                 listings):
    plan = plan_cover(10, 20)
    assert (len(plan.point_shifts), plan.level_probes) == (6, (11, 0))
    # Set 1 is {1} and set 2 holds values from 2..10 and from 22 on, so no
    # difference lies in [10, 20], while the pair's range [1, 21 or more]
    # meets it.
    low = min(size - 1, 9)
    set_b = [*range(2, low + 2), *range(22, 22 + size - low)]
    assert len(set_b) == size
    g = gapped.build_gapped_index(ingest_collection([[1], set_b], u=40), LinearScan())
    counts = []
    differences = g.exact.backend.differences

    def counted(i, j, count):
        counts.append(count)
        return differences(i, j, count)

    monkeypatch.setattr(g.exact.backend, "differences", counted)
    before = g.ssi_calls()
    assert gapped_exists(g, 1, 2, 10, 20) is None
    assert (g.ssi_calls() - before, counts) == (calls, listings)
    # Given the plan, the exists weighs the pair once, against all 11.
    counts.clear()
    before = g.ssi_calls()
    assert gapped_exists(g, 1, 2, 10, 20, plan=plan) is None
    assert (g.ssi_calls() - before, counts) == (0 if size <= 11 else 11, [11])
