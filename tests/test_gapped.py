import random
import tracemalloc

import pytest

from gapindex.backends import FullTabulation, LinearScan, ShiftCertificate, SmallUniverse
from gapindex import backends, gapped
from gapindex.errors import FormatError, GapIndexError
from gapindex.gapped import (
    ApproxQuery,
    approx_exists,
    build_gapped_index,
    gapped_exists,
    gapped_report,
    originals,
    plan_cover,
    quotient_levels,
)
from gapindex.generators import random_collection, random_text
from gapindex.sets import IntSet, SetCollection, ingest_collection
from gapindex.textindex import build_gapped_string_index


def ceil_log2(n):
    return max(n - 1, 0).bit_length()


def brute_pairs(c, i, j, lo, hi):
    return sorted(
        (a, b)
        for a in c.set(i).elements
        for b in c.set(j).elements
        if lo <= b - a <= hi
    )


def expansion_range(level, shift):
    """Closed range of b - a over original pairs behind a level-l quotient
    pair at ``shift``, from the module's expansion lemma."""
    half = 1 << (level - 1)
    return ((shift - 1) * half + 1, (shift + 1) * half - 1)


def test_expansion_range_is_the_span_of_original_differences():
    for level in range(1, 6):
        spans = {}
        for a in range(64):
            for b in range(64):
                t = (b >> (level - 1)) - (a >> (level - 1))
                lo, hi = spans.get(t, (b - a, b - a))
                spans[t] = (min(lo, b - a), max(hi, b - a))
        for t in range(-3, 4):
            assert spans[t] == expansion_range(level, t)


def test_expansion_lemma_every_plan_up_to_256():
    """Every original pair behind a quotient probe has its gap in [alpha, beta],
    which is why gapped_report keeps every expanded pair unfiltered."""
    for alpha in range(0, 257):
        for beta in range(alpha, 257):
            for level, shift in plan_cover(alpha, beta).probes:
                if level:
                    lo, hi = expansion_range(level, shift)
                    assert alpha <= lo and hi <= beta, (alpha, beta, level, shift)


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
        (0, 13), (0, 14), (0, 15), (0, 16), (0, 17),
    )
    # Level 1 divides by 2^0, so each quotient shift of the level-1 queries
    # expands to itself, and the plan asks them as exact probes.
    assert [expansion_range(1, t) for t in range(11, 20)] == [(t, t) for t in range(11, 20)]
    assert set(range(11, 20)) <= set(plan.level_shifts[0])


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
    # u = 35 is the least universe whose plans reach level 3.
    c = ingest_collection([[4, 5], [7]], u=35)
    g = build_gapped_index(c, LinearScan())
    assert g.max_level == 3
    level2 = g.levels[0]
    assert level2.level == 2
    assert level2.instance.base[0] == (2,)
    assert originals(c.set(1).elements, 2, 2) == [4, 5]


def _quotient_collections():
    """Random collections with singletons, sets that collapse to one value
    at high levels, and elements near 2^40."""
    rng = random.Random(15)
    top = 1 << 40
    out = [ingest_collection([[1], [2, 3], [8]], u=8)]
    for _ in range(6):
        raw = [[rng.randint(1, 64)]]  # a singleton
        raw.append(list(range(33, 33 + rng.randint(2, 31))))  # one value from level 7
        raw.append([top - rng.randint(0, 99) for _ in range(rng.randint(1, 40))])
        raw.append([rng.randint(1, top) for _ in range(rng.randint(1, 40))])
        raw.append([rng.randint(1, 1024) for _ in range(rng.randint(1, 200))])
        rng.shuffle(raw)
        out.append(ingest_collection(raw, u=top))
    return out


@pytest.mark.parametrize("c", _quotient_collections())
def test_quotient_levels_match_the_definition(c):
    g = build_gapped_index(c, LinearScan())
    assert [lvl.level for lvl in g.levels] == list(range(2, g.max_level + 1))
    for lvl in g.levels:
        quotients = lvl.instance.base
        assert len(quotients) == c.k
        for s, q in zip(c.sets, quotients):
            expected = tuple(dict.fromkeys(a >> (lvl.level - 1) for a in s.elements))
            assert q == expected
            assert all(type(v) is int for v in q)


def test_quotient_levels_of_hand_built_sets():
    # Not ingested: values below 1 and an empty set shift like any other.
    c = SetCollection((IntSet((-9, -4, -3, 0, 5)), IntSet(()), IntSet((6, 7))), 16)
    levels = list(quotient_levels([s.elements for s in c.sets], 4))
    assert len(levels) == 3
    for level, quotients in enumerate(levels, start=2):
        assert quotients == [
            tuple(dict.fromkeys(a >> (level - 1) for a in s.elements)) for s in c.sets
        ]


def test_quotient_levels_name_an_element_outside_int64():
    # The universe spans the element, so the quotient levels meet it.
    c = SetCollection((IntSet((3, 5)), IntSet((1, 2**70))), 2**71)
    with pytest.raises(FormatError, match=str(2**70)):
        build_gapped_index(c, LinearScan())


def test_total_elements_counts_each_stored_collection_once():
    # Level 1 is the exact instance's collection: it is counted once. u = 71
    # is the least universe whose plans reach level 4.
    c = ingest_collection([[1, 5, 9, 13], [2, 3]], u=71)
    g = build_gapped_index(c, LinearScan())
    assert g.max_level == 4 and len(g.levels) == 3
    assert g.total_elements == g.exact.total_elements + sum(
        lvl.instance.total_elements for lvl in g.levels
    )


def test_level_one_keeps_the_parent_collection():
    # Level 1 divides by 2^0 = 1: its quotients are the parent sets, so the
    # exact instance answers it and no level is built for it. u = 15 is the
    # least universe whose plans reach level 2.
    c = ingest_collection([[4, 5], [7]], u=15)
    g = build_gapped_index(c, LinearScan())
    assert g.instances[1] is g.exact
    assert g.exact.base == [s.elements for s in c.sets]
    assert all(a is s.elements for a, s in zip(g.exact.base, c.sets))
    assert g.levels[0].level == 2
    assert originals(c.set(1).elements, 1, 5) == [5]
    assert gapped_report(g, 1, 2, 2, 3) == brute_pairs(c, 1, 2, 2, 3)


def test_level_one_shares_the_exact_instances_tables():
    # Plan levels 0 and 1 are both answered by the exact instance; each
    # level from 2 has an instance of its own, built over its quotients.
    c = random_collection(random.Random(3), 6, 120, 256, [10, 10, 10, 30, 30, 30])
    g = build_gapped_index(c, SmallUniverse(0.5))
    exact = g.exact
    assert g.instances[0] is g.instances[1] is exact
    assert exact.backend.table.pairs > 0
    assert [lvl.level for lvl in g.levels] == list(range(2, g.max_level + 1))
    assert g.instances[2:] == [lvl.instance for lvl in g.levels]
    assert len(g.instances) == g.max_level + 1
    # A level-1 query is counted on the exact instance and its backend.
    a, b = c.set(4).elements[0], c.set(5).elements[-1]
    assert approx_exists(g, 4, 5, ApproxQuery(1, (b - a) // 2 * 2)) is True
    assert 1 <= exact.existence_calls <= 3
    assert g.ssi_calls() == exact.existence_calls
    # The backend counts its scans; the instance sums them with its lookups.
    m1, m2 = len(c.set(1)), len(c.set(2))
    exact.backend.scan(1, 1, m1, 2, 1, m2, (0,))
    assert exact.backend.scans == 1
    assert exact.ssi_calls() == exact.existence_calls + 1 == g.ssi_calls()


def test_each_stored_table_is_scattered_once(monkeypatch):
    # The set-questions shape: 16 sets of 20 and 16 of 200 over u=8192.
    # Each instance scatters each unordered pair of its L large sets once,
    # (i, i) included; level 1 is answered by the exact instance's tables.
    c = random_collection(random.Random(21), 32, 3520, 8192, [20] * 16 + [200] * 16)
    calls = []
    scatter = backends._scatter_rows
    monkeypatch.setattr(backends, "_scatter_rows", lambda *args: calls.append(1) or scatter(*args))
    g = build_gapped_index(c, SmallUniverse(0.5))
    heavy = [g.exact] + [lvl.instance for lvl in g.levels]
    large = [sum(inst.backend.large) for inst in heavy]
    assert large[0] > 0
    assert len(calls) == sum(n * (n + 1) // 2 for n in large)
    assert sum(inst.backend.table.pairs for inst in heavy) == len(calls)


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


def test_approx_exists_refuses_a_block_id_past_the_k_sets():
    # Under fulltab the backends tabulate every dyadic block after the k
    # sets, so ids 3 and 4 are a pair the exact backend answers:
    # approx_exists must refuse them, as gapped_exists does, naming i
    # before j.
    c = ingest_collection([list(range(1, 9)), [3, 5, 9, 11, 13, 20, 21, 30]], 40)
    g = build_gapped_index(c, FullTabulation())
    q = ApproxQuery(1, 4)
    assert g.exact.backend.last_block > 4
    assert g.exact.backend.exists(3, 4, 1) == ShiftCertificate(1, 2)
    assert approx_exists(g, 1, 2, q) is True
    for bad in (0, 3, 4):
        for i, j in ((bad, 1), (1, bad), (bad, 5)):
            with pytest.raises(FormatError, match=rf"^set index {bad} out of range 1\.\.2$"):
                approx_exists(g, i, j, q)
            with pytest.raises(FormatError, match=rf"^set index {bad} out of range 1\.\.2$"):
                gapped_exists(g, i, j, 2, 6)
    # The level is checked before the ids, as a gap is.
    with pytest.raises(FormatError, match="outside built range"):
        approx_exists(g, 3, 1, ApproxQuery(9, 512))


@pytest.mark.parametrize("query", [gapped_exists, gapped_report])
def test_gapped_queries_check_the_gap_then_i_then_j(query):
    c = ingest_collection([[1, 2, 5], [3, 4]], 8)
    g = build_gapped_index(c, FullTabulation())
    with pytest.raises(FormatError, match="need 0 <= alpha <= beta"):
        query(g, 0, 9, 3, 2)
    for i, j, bad in ((0, 9, 0), (1, 9, 9), (3, 1, 3)):
        # An empty clamped gap (past u - 1) still checks the ids.
        for lo, hi in ((2, 3), (20, 30)):
            with pytest.raises(FormatError, match=rf"^set index {bad} out of range 1\.\.2$"):
                query(g, i, j, lo, hi)


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


def test_level_accounting_guard_raises(monkeypatch):
    class InflatedLevel(gapped.LevelIndex):
        def __init__(self, *args):
            super().__init__(*args)
            self.instance.total_elements += 10**6

    # u = 15 is the least universe that builds a level.
    c = ingest_collection([[1, 3, 5], [2, 4]], u=15)
    build_gapped_index(c, LinearScan())
    monkeypatch.setattr(gapped, "LevelIndex", InflatedLevel)
    with pytest.raises(GapIndexError, match="gapped element accounting"):
        build_gapped_index(c, LinearScan())


def test_quotient_witness_guard_raises(monkeypatch):
    # Set 2 has 25 elements and 16 level-2 quotients, more than the 16 exact
    # and 14 level-2 probes of [20, 60], so neither level is listed and every
    # probe reaches the backend; no difference lies in [20, 60].
    c = ingest_collection([[1], [*range(2, 20), *range(62, 76, 2)]], u=128)
    g = build_gapped_index(c, LinearScan())
    assert plan_cover(20, 60).level_probes == (16, 0, 14, 3)
    assert gapped_exists(g, 1, 2, 20, 60) is None
    # The exact probes miss, then a level-2 certificate of quotients 0 and
    # 31 has originals 1 and 62, 61 apart, outside [20, 60].
    monkeypatch.setattr(g.instances[2], "_exists", lambda i, j, s: ShiftCertificate(0, 31))
    with pytest.raises(GapIndexError, match=r"witness \(1, 62\) of level-2 shift 13 is outside"):
        gapped_exists(g, 1, 2, 20, 60)


def test_quotient_levels_share_one_int_per_value():
    # Above 256 CPython makes a new int per tolist() entry; every level-2
    # occurrence of a value must be the one object of the level's table.
    idx = build_gapped_string_index(random_text(random.Random(21), 1024, 4), LinearScan())
    level2 = [v for q in idx.gapped.levels[0].instance.base for v in q if v > 256]
    assert level2 and len({id(v) for v in level2}) == len(set(level2))


def test_quotient_levels_near_2_40_allocate_no_universe_sized_table():
    rng = random.Random(40)
    top = 1 << 40
    raw = [sorted(rng.sample(range(1, top + 1), 60)) for _ in range(4)]
    raw.append([1, 2, top - 1, top])
    c = ingest_collection(raw, u=top)
    tracemalloc.start()
    try:
        g = build_gapped_index(c, LinearScan())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Levels 2..reach(2^40) = 37; ceil(log2 2^40) = 40 would build 39.
    assert len(g.levels) == 36
    assert peak < 4 << 20
    for lvl in g.levels:
        for s, q in zip(c.sets, lvl.instance.base):
            assert q == tuple(dict.fromkeys(a >> (lvl.level - 1) for a in s.elements))


def test_quotient_levels_share_one_tuple_per_one_element_value():
    # Level 2 halves: 4 and 5 both become 2, 8 and 9 both become 4.
    (level2,) = quotient_levels([(4,), (5,), (8, 9), (2,)], 2)
    assert level2 == [(2,), (2,), (4,), (1,)]
    assert level2[0] is level2[1]
    idx = build_gapped_string_index(random_text(random.Random(21), 1024, 4), LinearScan())
    shared = 0
    for lvl in idx.gapped.levels:
        ones = [q for q in lvl.instance.base if len(q) == 1]
        assert len({id(q) for q in ones}) == len(set(ones))
        shared += len(ones) - len(set(ones))
    assert shared > 0
