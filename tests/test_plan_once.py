"""One plan per gapped query, one ask per distinct probe, one call per missed shift.

The ``reference_*`` functions keep the earlier query loops: a plan for every
cover pair, all three quotient shifts of every approximate query with no
dedup, and a reporting recursion that builds the root node before asking
it. The library must give the same answers and witnesses with no more SSI
calls. The reference recursion asks every node by a lookup, so it runs
over ``FullTabulation``, which stores every block; under ``LinearScan``,
where each report is one scan, reports are checked against the oracles.
Under ``FullTabulation`` every gapped pair is tabulated and answers from
its table with no plan, so its gapped references are brute force's
(``references``).

The references find block ids and quotient originals their own way: a
``(parent, level, block) -> id`` dict from enumerating the base sets and
then each set's blocks level by level, and a scan of the parent set, so
they also check the library's arithmetic and bisection.
"""

import random
import weakref

import pytest

from gapindex import gapped
from gapindex.backends import (
    FullTabulation,
    LinearScan,
    ShiftCertificate,
    ShiftQuery,
    SmallUniverse,
    brute_force_ssi,
    range_meets,
)
from gapindex.errors import FormatError, GapIndexError
from gapindex.gapped import build_gapped_index, gapped_exists, gapped_report, plan_cover
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.reporting import _Node, build_reporting_index, matching_pairs, report_shift
from gapindex.sets import cover_blocks, ingest_collection
from gapindex.textindex import baseline_linear_scan, build_gapped_string_index, pattern_interval
from test_gapped import expansion_range


_block_ids = weakref.WeakKeyDictionary()


def reference_block_ids(inst):
    """Backend id of every dyadic block, counted as the instance stores them."""
    if inst not in _block_ids:
        ids = {}
        next_id = len(inst.base) + 1
        for sid, elements in enumerate(inst.base, start=1):
            for level in range(len(elements).bit_length()):
                for block in range(len(elements) >> level):
                    ids[(sid, level, block)] = next_id
                    next_id += 1
        _block_ids[inst] = ids
    return _block_ids[inst]


def reference_report_shift(inst, i, j, s):
    ids = reference_block_ids(inst)
    elements_a, elements_b = inst.base[i - 1], inst.base[j - 1]
    found = []
    stack = [_Node(i, 1, len(elements_a), j, 1, len(elements_b))]
    while stack:
        node = stack.pop()
        cert = inst._exists(node.set_a, node.set_b, s)
        if cert is None:
            continue
        found.append((cert.a, cert.b))
        rank_a = elements_a.index(cert.a) + 1
        rank_b = elements_b.index(cert.b) + 1
        sides = (
            (cover_blocks(node.a_lo, rank_a - 1), cover_blocks(node.b_lo, rank_b - 1)),
            (cover_blocks(rank_a + 1, node.a_hi), cover_blocks(rank_b + 1, node.b_hi)),
        )
        for side_a, side_b in sides:
            for block_a, block_b in matching_pairs(elements_a, side_a, elements_b, side_b, s):
                (level_a, kappa_a, lo_a, hi_a), (level_b, kappa_b, lo_b, hi_b) = block_a, block_b
                stack.append(
                    _Node(ids[(i, level_a, kappa_a)], lo_a, hi_a, ids[(j, level_b, kappa_b)], lo_b, hi_b)
                )
    return sorted(set(found))


def reference_originals(g, set_id, level, quotient_value):
    return [a for a in g.exact.base[set_id - 1] if a >> (level - 1) == quotient_value]


def _three_shifts(q):
    return (2 * q.kappa - 1, 2 * q.kappa, 2 * q.kappa + 1)


def reference_gapped_exists(g, i, j, alpha, beta):
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return None
    plan = plan_cover(*clamped)
    for s in plan.point_shifts:
        cert = g.exact._exists(i, j, s)
        if cert is not None:
            return (cert.a, cert.b)
    for q in plan.approx_queries:
        inst = g.instances[q.level]
        for shift in _three_shifts(q):
            cert = inst._exists(i, j, shift)
            if cert is None:
                continue
            a = reference_originals(g, i, q.level, cert.a)[0]
            b = reference_originals(g, j, q.level, cert.b)[0]
            if alpha <= b - a <= beta:
                return (a, b)
            for qa, qb in reference_report_shift(inst, i, j, shift):
                for a2 in reference_originals(g, i, q.level, qa):
                    for b2 in reference_originals(g, j, q.level, qb):
                        if alpha <= b2 - a2 <= beta:
                            return (a2, b2)
    return None


def reference_gapped_report(g, i, j, alpha, beta):
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return []
    plan = plan_cover(*clamped)
    raw = []
    for s in plan.point_shifts:
        raw.extend(reference_report_shift(g.exact, i, j, s))
    for q in plan.approx_queries:
        inst = g.instances[q.level]
        open_lo, open_hi = q.uncertain()
        for shift in _three_shifts(q):
            for qa, qb in reference_report_shift(inst, i, j, shift):
                for a in reference_originals(g, i, q.level, qa):
                    for b in reference_originals(g, j, q.level, qb):
                        if open_lo <= b - a <= open_hi:
                            raw.append((a, b))
    return sorted(set(raw))


def cover_pairs(idx, p1, p2):
    s1, e1 = pattern_interval(idx.suffixes, p1)
    s2, e2 = pattern_interval(idx.suffixes, p2)
    return [(a, b) for a in idx._cover_ids(s1, e1 - 1) for b in idx._cover_ids(s2, e2 - 1)]


def references(g, i, j):
    """The exists and report references of one pair: for a pair the exact
    instance tabulates, which answers from its table with no plan,
    ``test_table_route``'s, written from brute force (imported here, as
    that module imports this one's helpers); the loops above otherwise."""
    from test_table_route import table_exists, table_report

    if g.exact.backend.tabulated(i, j):
        return table_exists, table_report
    return reference_gapped_exists, reference_gapped_report


def reference_string_exists(idx, p1, p2, lo, hi):
    for ida, idb in cover_pairs(idx, p1, p2):
        hit = references(idx.gapped, ida, idb)[0](idx.gapped, ida, idb, lo, hi)
        if hit is not None:
            return hit
    return None


def reference_string_report(idx, p1, p2, lo, hi):
    raw = []
    for ida, idb in cover_pairs(idx, p1, p2):
        raw.extend(references(idx.gapped, ida, idb)[1](idx.gapped, ida, idb, lo, hi))
    return sorted(set(raw))


def calls_of(counted, fn, *args):
    before = counted.ssi_calls()
    result = fn(*args)
    return result, counted.ssi_calls() - before


def test_report_shift_matches_reference_loop():
    rng = random.Random(41)
    for _ in range(40):
        k = rng.randint(1, 4)
        u = rng.randint(5, 200)
        c = random_collection(rng, k, rng.randint(k, 100), u)
        idx = build_reporting_index(c, FullTabulation())
        linear = build_reporting_index(c, LinearScan())
        for _ in range(10):
            i, j, s = rng.randint(1, k), rng.randint(1, k), rng.randint(-u, u)
            before = idx.existence_calls
            want = reference_report_shift(idx, i, j, s)
            want_calls = idx.existence_calls - before
            assert report_shift(idx, i, j, s) == want
            assert idx.last_query_calls == want_calls
            assert report_shift(linear, i, j, s) == want == brute_force_ssi(c, ShiftQuery(i, j, s))
            assert linear.last_query_calls == 1


def test_string_queries_match_reference_loop():
    rng = random.Random(43)
    saved = 0
    for trial in range(14):
        # FullTabulation tabulates every pair of blocks: small texts only.
        kind = FullTabulation() if trial >= 10 else LinearScan()
        n = rng.randint(10, 18) if trial >= 10 else rng.randint(16, 120)
        text = random_text(rng, n, rng.choice((2, 3, 4)))
        idx = build_gapped_string_index(text, kind)
        for _ in range(12):
            p1 = random_pattern_from(rng, text, 3)
            p2 = random_pattern_from(rng, text, 3)
            lo = rng.randint(0, len(text) // 2)
            hi = lo + rng.randint(0, len(text))
            pairs = [(idx.exists, reference_string_exists)]
            if kind == FullTabulation():
                pairs.append((idx.report, reference_string_report))
            else:
                got = idx.report(p1, p2, lo, hi)
                assert got == baseline_linear_scan(text, p1, p2, lo, hi), (text, p1, p2, lo, hi)
            for new, old in pairs:
                want, want_calls = calls_of(idx, old, idx, p1, p2, lo, hi)
                got, got_calls = calls_of(idx, new, p1, p2, lo, hi)
                assert got == want, (text, p1, p2, lo, hi)
                assert got_calls <= want_calls
                saved += want_calls - got_calls
    assert saved > 0


def test_set_queries_match_reference_loop():
    rng = random.Random(47)
    saved = fallbacks = 0
    for trial in range(40):
        # FullTabulation tabulates every pair of blocks: smaller sets there.
        kind = FullTabulation() if trial >= 30 else LinearScan()
        k = rng.randint(2, 4)
        u = rng.randint(8, 300)
        c = random_collection(rng, k, rng.randint(k, 30 if trial >= 30 else 80), u)
        g = build_gapped_index(c, kind)
        for _ in range(8):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            hi = lo + rng.randint(0, u)
            exists, report = references(g, i, j)
            pairs = [(gapped_exists, exists)]
            if kind == FullTabulation():
                pairs.append((gapped_report, report))
            else:
                want = sorted(
                    (a, b) for a in c.set(i).elements for b in c.set(j).elements
                    if lo <= b - a <= hi
                )
                assert gapped_report(g, i, j, lo, hi) == want, (c, i, j, lo, hi)
            for new, old in pairs:
                want, want_calls = calls_of(g, old, g, i, j, lo, hi)
                got, got_calls = calls_of(g, new, g, i, j, lo, hi)
                assert got == want, (c, i, j, lo, hi)
                assert got_calls <= want_calls
                saved += want_calls - got_calls
        fallbacks += g.fallback_count
    assert fallbacks == 0
    assert saved > 0


def test_probes_are_the_distinct_shifts_in_first_issue_order():
    for alpha in range(0, 65):
        for beta in range(alpha, 65):
            plan = plan_cover(alpha, beta)
            issued = [(0, s) for s in plan.point_shifts]
            for q in plan.approx_queries:
                u0, u1 = q.uncertain()
                for shift in _three_shifts(q):
                    # Level 1 divides by 2^0: its shifts are exact probes.
                    issued.append((q.level if q.level > 1 else 0, shift))
                    # The expansion lemma's step: the probe's original pairs
                    # stay inside the uncertain zone of each query issuing it.
                    lo, hi = expansion_range(q.level, shift)
                    assert u0 <= lo <= hi <= u1
            assert list(plan.probes) == list(dict.fromkeys(issued))
            # Each level's shifts in the same order; only level 1 is empty.
            top = max(q.level for q in plan.approx_queries) if plan.approx_queries else 0
            by_level = [tuple(s for lv, s in plan.probes if lv == level)
                        for level in range(top + 1)]
            assert plan.level_shifts == tuple(by_level)
            assert [level for level, shifts in enumerate(by_level) if not shifts] == (
                [1] if top else [])
            assert plan.level_probes == tuple(map(len, by_level))


def test_no_string_query_asks_each_probe_once_per_cover_pair(monkeypatch):
    text = b"abaababbabbaabab"
    idx = build_gapped_string_index(text, LinearScan())
    plans = []

    def counting_plan(alpha, beta):
        plans.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    p1, p2, lo, hi = b"ba", b"ba", 13, 15
    assert idx.report(p1, p2, lo, hi) == []
    # No cover pair's difference range meets the gap, so the report builds
    # no plan, and no pair meets it, so neither does the exists.
    assert plans == []
    answer, calls = calls_of(idx, idx.exists, p1, p2, lo, hi)
    assert answer is None
    assert plans == []
    pairs = cover_pairs(idx, p1, p2)
    assert len(pairs) > 1
    # Every cover set here has at most 2 elements, no more than the plan's
    # 3 level-0 probes, so each pair's differences are listed and the
    # misses make no backend call.
    assert calls == unlisted_probes(idx, pairs, plan_cover(lo, hi)) == 0
    assert idx.exists(b"ab", b"ab", 0, 40) is not None
    assert plans == [(0, 15)]  # clamped to the text once per query


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(0.5), FullTabulation()],
                         ids=lambda kind: kind.name)
def test_a_string_report_plans_only_for_a_pair_that_runs_the_plan(monkeypatch, kind):
    """A report builds its plan, once, at the first cover pair that is
    untabulated and passes ``range_meets``, and ``last_plan_size`` reads 0
    when there is none; the calls are counted through the module attribute."""
    rng = random.Random(21)
    fulltab = kind == FullTabulation()
    text = random_text(rng, 16 if fulltab else 256, 4)
    idx = build_gapped_string_index(text, kind)
    g = idx.gapped
    plans = []

    def counting_plan(alpha, beta):
        plans.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    planned = 0
    for _ in range(150):
        p1, p2 = (random_pattern_from(rng, text, 3) for _ in range(2))
        lo = rng.randint(0, len(text) // 4)
        hi = lo + rng.randint(0, len(text) // 2)
        plans.clear()
        assert idx.report(p1, p2, lo, hi) == baseline_linear_scan(text, p1, p2, lo, hi)
        clamped = g._clamped(lo, hi)
        runs = clamped is not None and any(
            range_meets(g.exact.base[a - 1], g.exact.base[b - 1], *clamped)
            and not g.exact.backend.tabulated(a, b)
            for a, b in cover_pairs(idx, p1, p2))
        assert plans == ([clamped] if runs else [])
        assert g.last_plan_size == (plan_cover(*clamped).size if runs else 0)
        planned += runs
    # Under fulltab every pair reads its table; otherwise both cases occur.
    assert planned == 0 if fulltab else 0 < planned < 150


def unlisted_probes(idx, pairs, plan):
    """Probes summed over cover pairs and the levels whose differences are
    not listed: there the larger set outnumbers the level's probes."""

    def size(level, set_id):
        return len(idx.gapped.instances[level].backend.sets[set_id - 1])

    return sum(
        count
        for a, b in pairs
        for level, count in enumerate(plan.level_probes)
        if max(size(level, a), size(level, b)) > count
    )


def meets_the_gap(idx, pair, lo, hi):
    """Whether the pair's difference range [min B - max A, max B - min A]
    meets [lo, hi]."""
    sa, sb = (idx.gapped.exact.base[set_id - 1] for set_id in pair)
    return sb[-1] - sa[0] >= lo and sb[0] - sa[-1] <= hi


def test_large_covers_ask_each_probe_once_per_cover_pair():
    # Each b follows the first run of a's and comes more than 9 letters
    # before the second, so no pair has its gap in [0, 9]. The suffix array
    # interleaves the two runs, so some cover blocks of "a" hold both and
    # their pairs' difference ranges meet the gap.
    text = b"a" * 40 + b"b" * 40 + b"c" * 20 + b"a" * 40
    idx = build_gapped_string_index(text, LinearScan())
    p1, p2, lo, hi = b"b", b"a", 0, 9
    plan = plan_cover(lo, hi)
    assert plan.level_probes == (10, 0)
    pairs = cover_pairs(idx, p1, p2)
    meeting = [pair for pair in pairs if meets_the_gap(idx, pair, lo, hi)]
    assert 1 < len(meeting) < len(pairs)
    # Every cover set outnumbers each level's probes, so nothing is listed.
    assert unlisted_probes(idx, pairs, plan) == len(pairs) * len(plan.probes)
    # An exists walks each pair whose range meets the gap, finds no
    # difference in it and runs no plan: no call. A report walks the one
    # level with shifts (level 0, which holds level 1's) of each such pair
    # in one pass, and asks nothing of the others.
    for query, want in ((idx.exists, 0), (idx.report, len(meeting))):
        answer, calls = calls_of(idx, query, p1, p2, lo, hi)
        assert not answer
        assert calls == want


def test_covers_whose_ranges_miss_the_gap_ask_nothing_in_an_exists():
    text = b"a" * 40 + b"b" * 40
    idx = build_gapped_string_index(text, LinearScan())
    p1, p2, lo, hi = b"b", b"a", 0, 9  # every b follows every a: no pair
    pairs = cover_pairs(idx, p1, p2)
    assert len(pairs) > 1 and not any(meets_the_gap(idx, pair, lo, hi) for pair in pairs)
    g = idx.gapped
    probes = [inst.backend.probes for inst in g.instances]
    assert calls_of(idx, idx.exists, p1, p2, lo, hi) == (None, 0)
    # Nor in a report: no pass, no listing, no probe.
    assert calls_of(idx, idx.report, p1, p2, lo, hi) == ([], 0)
    assert [inst.backend.probes for inst in g.instances] == probes


def test_passed_plan_must_match_the_clamped_interval():
    c = ingest_collection([[1, 2], [4, 5]], u=8)
    g = build_gapped_index(c, LinearScan())
    assert gapped_report(g, 1, 2, 2, 30, plan=plan_cover(2, 7)) == [(1, 4), (1, 5), (2, 4), (2, 5)]
    assert gapped_exists(g, 1, 2, 2, 30, plan=plan_cover(2, 7)) == (2, 4)
    with pytest.raises(FormatError):
        gapped_exists(g, 1, 2, 2, 30, plan=plan_cover(2, 30))
    with pytest.raises(FormatError):
        gapped_report(g, 1, 2, 2, 3, plan=plan_cover(2, 7))
    with pytest.raises(FormatError):
        gapped_report(g, 1, 2, 9, 12, plan=plan_cover(2, 7))


@pytest.mark.parametrize(
    "escape",
    [
        lambda lo, hi: ((lo - 1,), []),  # a point shift below the interval
        # Runs (level, kappa_first, kappa_last); the mirrored pass sees [-5, -3].
        lambda lo, hi: ((lo,), [(2, 1, 1)] if lo > 0 else [(2, -1, -1)]),  # zone [1, 7]
        lambda lo, hi: ((lo,), [(1, 2, 3)] if lo > 0 else []),  # last zone [5, 7]
        lambda lo, hi: ((lo,), [] if lo > 0 else [(1, -2, -1)]),  # last zone [1, 3]
    ],
)
def test_plan_escaping_its_interval_raises(monkeypatch, escape):
    monkeypatch.setattr(gapped, "_pass", escape)
    with pytest.raises(GapIndexError, match="escaped"):
        plan_cover(3, 5)


def test_exists_rejects_a_witness_outside_the_gap(monkeypatch):
    c = ingest_collection([[1], [5]], u=8)
    g = build_gapped_index(c, LinearScan())
    monkeypatch.setattr(g.exact, "_exists", lambda i, j, s: ShiftCertificate(1, 8))
    with pytest.raises(GapIndexError, match="outside"):
        gapped_exists(g, 1, 2, 3, 5)
