import random

import pytest

from gapindex.backends import LinearScan
from gapindex.errors import FormatError
from gapindex.gapped import (
    ApproxQuery,
    approx_exists,
    build_gapped_index,
    gapped_exists,
    gapped_report,
    plan_cover,
)
from gapindex.generators import random_collection
from gapindex.sets import ingest_collection


def ceil_log2(n):
    return max(n - 1, 0).bit_length()


def brute_pairs(c, i, j, lo, hi):
    return sorted(
        (a, b)
        for a in c.set(i).elements
        for b in c.set(j).elements
        if lo <= b - a <= hi
    )


def test_plan_single_point():
    plan = plan_cover(7, 7)
    assert plan.point_shifts == (7,)
    assert plan.approx_queries == ()
    assert plan.phases_forward == 1


def test_plan_10_20_frozen():
    plan = plan_cover(10, 20)
    assert plan.point_shifts == (10, 11, 12, 20, 19, 18)
    assert [(q.level, q.center) for q in plan.forward_approx] == [(1, 12), (1, 14), (1, 16)]
    assert [(q.level, q.center) for q in plan.backward_approx] == [(1, 18), (1, 16), (1, 14)]
    assert plan.uncertain_points() <= set(range(10, 21))
    assert plan.covered_points() >= set(range(10, 21))
    assert plan.size == 10
    assert plan.probes == (
        (0, 10), (0, 11), (0, 12), (0, 20), (0, 19), (0, 18),
        (1, 11), (1, 12), (1, 13), (1, 14), (1, 15), (1, 16), (1, 17), (1, 18), (1, 19),
    )
    assert plan.zones[(1, 13)] == (11, 15)  # issued by centers 12 and 14
    assert plan.zones[(1, 12)] == (11, 13)


def test_plan_rejects_bad_interval():
    with pytest.raises(FormatError):
        plan_cover(5, 4)
    with pytest.raises(FormatError):
        plan_cover(-1, 4)


def test_plan_exhaustive_up_to_128():
    for alpha in range(0, 129):
        for beta in range(alpha, 129):
            plan = plan_cover(alpha, beta)
            target = set(range(alpha, beta + 1))
            assert plan.covered_points() >= target
            assert plan.uncertain_points() <= target
            budget = 3 * (ceil_log2(beta - alpha + 2) + 1)
            assert len(plan.forward_approx) <= budget
            assert len(plan.backward_approx) <= budget
            assert plan.phases_forward <= ceil_log2(beta - alpha + 2)
            assert plan.phases_backward <= ceil_log2(beta - alpha + 2)
            ssi_queries = len(plan.point_shifts) + 3 * (
                len(plan.forward_approx) + len(plan.backward_approx)
            )
            assert ssi_queries <= 9 * (ceil_log2(beta - alpha + 2) + 1) + 6


def test_approx_query_validation():
    with pytest.raises(FormatError):
        ApproxQuery(level=0, center=2)
    with pytest.raises(FormatError):
        ApproxQuery(level=1, center=3)  # misaligned
    with pytest.raises(FormatError):
        ApproxQuery(level=2, center=0)  # kappa must be positive
    q = ApproxQuery(level=2, center=8)
    assert q.covered() == (6, 10)
    assert q.uncertain() == (5, 11)


def test_build_levels_and_quotients():
    c = ingest_collection([[4, 5], [7]], u=8)
    g = build_gapped_index(c, LinearScan())
    assert g.max_level == 3
    level2 = g.levels[1]
    assert level2.instance.base.set(1).elements == (2,)
    assert level2.originals(1, 2) == [4, 5]


def test_element_accounting():
    c = ingest_collection([[1, 5, 9, 13], [2, 3]], u=16)
    g = build_gapped_index(c, LinearScan())
    per_level = g.exact.total_elements
    assert g.total_elements <= per_level * (g.max_level + 1)


def test_approx_exists_examples():
    c = ingest_collection([[4], [9], [20]], u=32)
    g = build_gapped_index(c, LinearScan())
    assert approx_exists(g, 1, 2, ApproxQuery(1, 4)) is True  # 5 in [3, 5]
    assert approx_exists(g, 1, 3, ApproxQuery(1, 4)) is False  # 16 outside (2, 6)


def test_approx_exists_level_range():
    c = ingest_collection([[1], [2]], u=4)
    g = build_gapped_index(c, LinearScan())
    with pytest.raises(FormatError):
        approx_exists(g, 1, 2, ApproxQuery(5, 32))


def test_approx_sandwich_fuzz():
    rng = random.Random(6)
    for _ in range(25):
        u = rng.randint(8, 200)
        c = random_collection(rng, 2, rng.randint(2, 30), u)
        g = build_gapped_index(c, LinearScan())
        diffs = {b - a for a in c.set(1).elements for b in c.set(2).elements}
        for _ in range(20):
            level = rng.randint(1, g.max_level)
            kappa = rng.randint(1, max(1, u >> level))
            q = ApproxQuery(level=level, center=kappa << level)
            answer = approx_exists(g, 1, 2, q)
            c_lo, c_hi = q.covered()
            u_lo, u_hi = q.uncertain()
            if any(c_lo <= d <= c_hi for d in diffs):
                assert answer is True
            if not any(u_lo <= d <= u_hi for d in diffs):
                assert answer is False
            if answer:
                assert any(u_lo <= d <= u_hi for d in diffs)


def test_gapped_exists_examples():
    c = ingest_collection([[1], [5]], u=8)
    g = build_gapped_index(c, LinearScan())
    assert gapped_exists(g, 1, 2, 3, 5) == (1, 5)
    assert gapped_exists(g, 1, 2, 5, 9) is None


def test_gapped_report_examples():
    c = ingest_collection([[1, 2], [4, 5]], u=8)
    g = build_gapped_index(c, LinearScan())
    assert gapped_report(g, 1, 2, 2, 3) == [(1, 4), (2, 4), (2, 5)]
    c = ingest_collection([[1, 3], [2, 4]], u=5)
    g = build_gapped_index(c, LinearScan())
    assert gapped_report(g, 1, 2, 0, 0) == []


def test_gapped_multiplicity_bounded_by_plan():
    rng = random.Random(13)
    for _ in range(30):
        u = rng.randint(8, 120)
        c = random_collection(rng, 3, rng.randint(6, 60), u)
        g = build_gapped_index(c, LinearScan())
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        lo = rng.randint(0, u // 2)
        hi = lo + rng.randint(0, u // 2)
        got = gapped_report(g, i, j, lo, hi)
        assert got == brute_pairs(c, i, j, lo, min(hi, u - 1))
        assert g.last_max_multiplicity <= g.last_plan_size


def test_gapped_fuzz_exists_and_report():
    rng = random.Random(29)
    for _ in range(40):
        k = rng.randint(2, 4)
        u = rng.randint(6, 150)
        c = random_collection(rng, k, rng.randint(k, 80), u)
        g = build_gapped_index(c, LinearScan())
        for _ in range(10):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            hi = lo + rng.randint(0, u)
            expected = brute_pairs(c, i, j, lo, min(hi, u - 1))
            assert gapped_report(g, i, j, lo, hi) == expected
            witness = gapped_exists(g, i, j, lo, hi)
            assert (witness is not None) == bool(expected)
            if witness is not None:
                a, b = witness
                assert lo <= b - a <= hi
                assert a in c.set(i).elements and b in c.set(j).elements
