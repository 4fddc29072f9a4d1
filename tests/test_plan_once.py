"""One plan per gapped query, one ask per distinct probe, one call per missed shift.

The ``reference_*`` functions keep the earlier query loops: a plan for every
cover pair, all three quotient shifts of every approximate query with no
dedup, and a reporting recursion that builds the root node before asking
it. The library must give the same answers and witnesses with no more SSI
calls.
"""

import random

import pytest

from gapindex import gapped
from gapindex.backends import LinearScan, ShiftCertificate
from gapindex.errors import FormatError, GapIndexError
from gapindex.gapped import build_gapped_index, gapped_exists, gapped_report, plan_cover
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.reporting import (
    _cover_or_empty,
    _Node,
    build_reporting_index,
    matching_pairs,
    report_shift,
)
from gapindex.sets import ingest_collection
from gapindex.textindex import build_gapped_string_index, pattern_interval


def reference_report_shift(inst, i, j, s):
    parent_a, parent_b = inst.base.set(i), inst.base.set(j)
    found = []
    stack = [_Node(i, 1, len(parent_a), j, 1, len(parent_b))]
    while stack:
        node = stack.pop()
        cert = inst._exists(node.set_a, node.set_b, s)
        if cert is None:
            continue
        found.append((cert.a, cert.b))
        rank_a = parent_a.elements.index(cert.a) + 1
        rank_b = parent_b.elements.index(cert.b) + 1
        sides = (
            (
                _cover_or_empty(parent_a, node.a_lo, rank_a - 1, inst),
                _cover_or_empty(parent_b, node.b_lo, rank_b - 1, inst),
            ),
            (
                _cover_or_empty(parent_a, rank_a + 1, node.a_hi, inst),
                _cover_or_empty(parent_b, rank_b + 1, node.b_hi, inst),
            ),
        )
        for side_a, side_b in sides:
            for block_a, block_b in matching_pairs(side_a, side_b, s):
                stack.append(
                    _Node(
                        inst.block_id(block_a), block_a.rank_lo, block_a.rank_hi,
                        inst.block_id(block_b), block_b.rank_lo, block_b.rank_hi,
                    )
                )
    return sorted(set(found))


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
        lvl = g.levels[q.level - 1]
        for shift in _three_shifts(q):
            cert = lvl.instance._exists(i, j, shift)
            if cert is None:
                continue
            a, b = lvl.originals(i, cert.a)[0], lvl.originals(j, cert.b)[0]
            if alpha <= b - a <= beta:
                return (a, b)
            for qa, qb in reference_report_shift(lvl.instance, i, j, shift):
                for a2 in lvl.originals(i, qa):
                    for b2 in lvl.originals(j, qb):
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
        lvl = g.levels[q.level - 1]
        open_lo, open_hi = q.uncertain()
        for shift in _three_shifts(q):
            for qa, qb in reference_report_shift(lvl.instance, i, j, shift):
                for a in lvl.originals(i, qa):
                    for b in lvl.originals(j, qb):
                        if open_lo <= b - a <= open_hi:
                            raw.append((a, b))
    return sorted(set(raw))


def cover_pairs(idx, p1, p2):
    s1, e1 = pattern_interval(idx.suffixes, p1)
    s2, e2 = pattern_interval(idx.suffixes, p2)
    return [(a, b) for a in idx._cover_ids(s1, e1 - 1) for b in idx._cover_ids(s2, e2 - 1)]


def reference_string_exists(idx, p1, p2, lo, hi):
    for ida, idb in cover_pairs(idx, p1, p2):
        hit = reference_gapped_exists(idx.gapped, ida, idb, lo, hi)
        if hit is not None:
            return hit
    return None


def reference_string_report(idx, p1, p2, lo, hi):
    raw = []
    for ida, idb in cover_pairs(idx, p1, p2):
        raw.extend(reference_gapped_report(idx.gapped, ida, idb, lo, hi))
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
        idx = build_reporting_index(c, LinearScan())
        for _ in range(10):
            i, j, s = rng.randint(1, k), rng.randint(1, k), rng.randint(-u, u)
            before = idx.existence_calls
            want = reference_report_shift(idx, i, j, s)
            want_calls = idx.existence_calls - before
            assert report_shift(idx, i, j, s) == want
            assert idx.last_query_calls == want_calls


def test_string_queries_match_reference_loop():
    rng = random.Random(43)
    saved = 0
    for _ in range(10):
        text = random_text(rng, rng.randint(16, 120), rng.choice((2, 3, 4)))
        idx = build_gapped_string_index(text, LinearScan())
        for _ in range(12):
            p1 = random_pattern_from(rng, text, 3)
            p2 = random_pattern_from(rng, text, 3)
            lo = rng.randint(0, len(text) // 2)
            hi = lo + rng.randint(0, len(text))
            for new, old in ((idx.exists, reference_string_exists),
                             (idx.report, reference_string_report)):
                want, want_calls = calls_of(idx, old, idx, p1, p2, lo, hi)
                got, got_calls = calls_of(idx, new, p1, p2, lo, hi)
                assert got == want, (text, p1, p2, lo, hi)
                assert got_calls <= want_calls
                saved += want_calls - got_calls
    assert saved > 0


def test_set_queries_match_reference_loop():
    rng = random.Random(47)
    saved = fallbacks = 0
    for _ in range(30):
        k = rng.randint(2, 4)
        u = rng.randint(8, 300)
        c = random_collection(rng, k, rng.randint(k, 80), u)
        g = build_gapped_index(c, LinearScan())
        for _ in range(8):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            hi = lo + rng.randint(0, u)
            for new, old in ((gapped_exists, reference_gapped_exists),
                             (gapped_report, reference_gapped_report)):
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
            zones = {}
            for q in plan.approx_queries:
                u0, u1 = q.uncertain()
                for shift in _three_shifts(q):
                    issued.append((q.level, shift))
                    zones.setdefault((q.level, shift), set()).update(range(u0, u1 + 1))
            assert list(plan.probes) == list(dict.fromkeys(issued))
            assert set(plan.zones) == set(zones)
            for probe, (lo, hi) in plan.zones.items():
                assert set(range(lo, hi + 1)) == zones[probe]
                assert alpha <= lo <= hi <= beta


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
    assert plans == [(13, 15)]
    answer, calls = calls_of(idx, idx.exists, p1, p2, lo, hi)
    assert answer is None
    assert plans == [(13, 15)] * 2
    pairs = cover_pairs(idx, p1, p2)
    assert len(pairs) > 1
    assert calls == len(pairs) * len(plan_cover(lo, hi).probes)
    assert idx.exists(b"ab", b"ab", 0, 40) is not None
    assert plans[-1] == (0, 15)  # clamped to the text once per query


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
        lambda lo, hi: ([lo - 1], [], 1),  # a point shift below the interval
        lambda lo, hi: ([lo], [(2, 4 if lo > 0 else -4)], 2),  # uncertain zone [1, 7]
    ],
)
def test_plan_escaping_its_interval_raises(monkeypatch, escape):
    monkeypatch.setattr(gapped, "_forward_pass", escape)
    with pytest.raises(GapIndexError, match="escaped"):
        plan_cover(3, 5)


def test_exists_rejects_a_witness_outside_the_gap(monkeypatch):
    c = ingest_collection([[1], [5]], u=8)
    g = build_gapped_index(c, LinearScan())
    monkeypatch.setattr(g.exact, "_exists", lambda i, j, s: ShiftCertificate(1, 8))
    with pytest.raises(GapIndexError, match="outside"):
        gapped_exists(g, 1, 2, 3, 5)
