"""A gapped exists without a plan asks its point shifts first.

``gapped.plan_points`` gives the plan's point shifts without planning the
approximate levels; ``gapped_exists`` asks them, and builds the rest of the
plan through ``gapped.plan_cover`` only when every point misses. The
``plan_first_exists`` reference is the loop that built the whole plan before
its first probe. Both must give the same witness with the same SSI calls
and probes, and ``last_plan_size`` is the size of what was built: the
number of point shifts when a point answered, the plan's size once it was
built, and 0 when nothing was asked. A pair the exact instance tabulates
plans nothing: it answers from its table, as ``test_table_route``'s
brute-force reference does, with size 0.
"""

import random

import pytest

from gapindex import gapped
from gapindex.backends import FullTabulation, LinearScan, SmallUniverse, range_meets
from gapindex.gapped import GappedIndex, gapped_exists, originals, plan_cover
from test_table_route import table_exists

KINDS = (LinearScan(), SmallUniverse(delta=0.5), FullTabulation())
KIND_IDS = ["linear", "smalluniverse", "fulltab"]

_UNLISTED = object()


def plan_first_exists(g, i, j, alpha, beta):
    """The witness and the number of the plan segment that found it,
    planning the whole gap first; (None, None) when there is none. The
    points are listed for their own count, as an exists that has not
    planned yet lists them, and a pair too large for that is weighed again
    against the plan's exact probes."""
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return None, None
    plan = plan_cover(*clamped)
    sa, sb = g.exact.base[i - 1], g.exact.base[j - 1]
    if not range_meets(sa, sb, *clamped):
        return None, None
    counts = plan.level_probes
    listed = [_UNLISTED] * len(counts)
    for n, (level, shifts) in enumerate(plan.segments):
        inst = g.instances[level]
        if n == 1 and listed[0] is None:
            listed[0] = _UNLISTED
        if listed[level] is _UNLISTED:
            count = len(shifts) if n == 0 else counts[level]
            listed[level] = inst.backend.differences(i, j, count)
        for shift in shifts:
            if listed[level] is not None and shift not in listed[level]:
                continue
            cert = inst._exists(i, j, shift)
            if cert is None:
                continue
            if level == 0:
                return (cert.a, cert.b), n
            return (originals(sa, level, cert.a)[0], originals(sb, level, cert.b)[0]), n
    return None, None


def probes(g):
    return sum(inst.backend.probes for inst in [g.exact] + [lvl.instance for lvl in g.levels])


def counted(g, fn, *args):
    calls, spent = g.ssi_calls(), probes(g)
    result = fn(g, *args)
    return result, g.ssi_calls() - calls, probes(g) - spent


def test_plan_points_are_the_plans():
    for beta in range(257):
        for alpha in range(beta + 1):
            assert gapped.plan_points(alpha, beta) == plan_cover(alpha, beta).point_shifts
    rng = random.Random(28)
    for _ in range(2000):
        alpha = rng.randint(0, 1 << rng.randint(1, 48))
        beta = alpha + rng.randint(0, 1 << rng.randint(1, 48))
        assert gapped.plan_points(alpha, beta) == plan_cover(alpha, beta).point_shifts


@pytest.fixture
def plans(monkeypatch):
    """The gaps ``gapped.plan_cover`` is asked to plan."""
    asked = []

    def counting_plan(alpha, beta):
        asked.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    return asked


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_exists_plans_only_once_every_point_misses(plans, kind):
    g = GappedIndex([(1,), (5,), (11,), (1, 30), (2, 40), ()], 64, kind)
    points = plan_cover(4, 20).point_shifts
    assert points == (4, 5, 6, 20, 19, 18)
    cases = [
        # (i, j, alpha, beta, witness, plans asked, last_plan_size)
        (1, 2, 4, 20, (1, 5), [], len(points)),  # 5 - 1 = 4 is a point
        (1, 3, 4, 20, (1, 11), [(4, 20)], plan_cover(4, 20).size),  # 10 is not
        (4, 5, 11, 20, None, [(11, 20)], plan_cover(11, 20).size),  # no difference in the gap
        (1, 3, 64, 90, None, [], 0),  # empty once clamped to the universe
        (1, 2, 30, 40, None, [], 0),  # the pair's range [4, 4] misses the gap
        (1, 6, 0, 63, None, [], 0),  # an empty set meets no gap
        (3, 3, 0, 3, (11, 11), [], 4),  # i == j: shift 0 is a point of [0, 3]
    ]
    for i, j, alpha, beta, witness, asked, size in cases:
        if g.exact.backend.tabulated(i, j):  # every pair, under fulltab
            asked, size = [], 0
        plans.clear()
        g.last_plan_size = -1
        assert gapped_exists(g, i, j, alpha, beta) == witness
        assert (plans, g.last_plan_size) == (asked, size), (i, j, alpha, beta)


def random_index(rng, kind):
    universe = rng.randint(1, 300)
    sets = []
    for _ in range(rng.randint(1, 6)):
        size = rng.choice([0, 1, 2, 3, rng.randint(4, 40)])
        sets.append(tuple(sorted({rng.randint(1, universe) for _ in range(size)})))
    return GappedIndex(sets, universe, kind)


def random_gap(rng, universe):
    alpha = rng.randint(0, universe + 2)
    width = rng.choice([0, 1, 2, 3, 4, rng.randint(5, universe + 10)])
    if rng.random() < 0.2:  # reach past the universe, so the gap is clamped
        width = universe + rng.randint(0, 40)
    return alpha, alpha + width


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_exists_matches_the_plan_first_loop(kind):
    rng = random.Random(280)
    sizes = {"point": 0, "plan": 0, "none": 0, "table": 0}
    for _ in range(60):
        g = random_index(rng, kind)
        k = len(g.exact.base)
        for _ in range(25):
            i = rng.randint(1, k)
            j = i if rng.random() < 0.2 else rng.randint(1, k)
            alpha, beta = random_gap(rng, g.universe)
            tabulated = g.exact.backend.tabulated(i, j)
            if tabulated:
                (want, want_calls, want_probes), segment = counted(
                    g, table_exists, i, j, alpha, beta), None
            else:
                (want, segment), want_calls, want_probes = counted(g, plan_first_exists, i, j,
                                                                   alpha, beta)
            got, calls, spent = counted(g, gapped_exists, i, j, alpha, beta)
            assert (got, calls, spent) == (want, want_calls, want_probes), (i, j, alpha, beta)
            clamped = g._clamped(alpha, beta)
            sa, sb = g.exact.base[i - 1], g.exact.base[j - 1]
            if clamped is None or not range_meets(sa, sb, *clamped):
                expected, case = 0, "none"
            elif tabulated:
                expected, case = 0, "table"
            elif segment == 0:
                expected, case = len(plan_cover(*clamped).point_shifts), "point"
            else:
                expected, case = plan_cover(*clamped).size, "plan"
            assert g.last_plan_size == expected, (i, j, alpha, beta)
            sizes[case] += 1
    # fulltab tabulates every pair, linear none.
    cases = {"linear": ("point", "plan"), "fulltab": ("table",)}.get(kind.name, sizes)
    assert min(sizes[case] for case in ("none", *cases)) > 20, sizes
