"""A pair the exact instance tabulates answers a gap from its own table.

Its table holds every realized shift, so an exists reads the smallest
realized shift in the clamped gap (``_TabulatedPairs.smallest``) and asks
that shift's smallest-a certificate by one call, and a report asks
``report_shift`` at the exact instance for each realized shift in the gap
(``_TabulatedPairs.realized``). Neither builds a plan. The oracles here
are brute force over every pair: the witness is the pair with the
smallest b - a in the gap and, among those, the smallest a, and a report
is every pair in the gap. The gapped queries are checked under
``smalluniverse`` δ 0.3 and 0.5 and ``fulltab``, on the layouts of
``test_dense_tables`` (whose reads that module checks on their own),
stored, mirrored and (i, i), on pairs that meet the gap and pairs that do
not. No quotient level stores a table under any backend.
"""

import random

import pytest

from gapindex import gapped
from gapindex.backends import (
    FullTabulation,
    LinearScan,
    SmallUniverse,
    range_meets,
)
from gapindex.gapped import (
    ApproxQuery,
    GappedIndex,
    approx_exists,
    gapped_exists,
    gapped_report,
    plan_cover,
)
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.reporting import report_shift
from gapindex.textindex import baseline_linear_scan, build_gapped_string_index
from test_dense_tables import _layout_collections
from test_plan_once import calls_of, cover_pairs

TABLE_KINDS = (SmallUniverse(delta=0.3), SmallUniverse(delta=0.5), FullTabulation())
TABLE_IDS = ["smalluniverse-0.3", "smalluniverse-0.5", "fulltab"]


def gap_pairs(sa, sb, lo, hi):
    """Brute force: every (a, b) with b - a in [lo, hi], sorted."""
    return sorted((a, b) for a in sa for b in sb if lo <= b - a <= hi)


def table_witness(pairs):
    """The table route's witness among a gap's pairs: the smallest b - a,
    then the smallest a; None when there is no pair."""
    return min(pairs, key=lambda p: (p[1] - p[0], p[0]), default=None)


def table_exists(g, i, j, alpha, beta):
    """The table route's exists from brute force, asking the exact instance
    for the witness's shift once, as the route does."""
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return None
    hit = table_witness(gap_pairs(g.exact.base[i - 1], g.exact.base[j - 1], *clamped))
    if hit is not None:
        cert = g.exact._exists(i, j, hit[1] - hit[0])
        assert (cert.a, cert.b) == hit
    return hit


def table_report(g, i, j, alpha, beta):
    """The table route's report from brute force: ``report_shift`` at the
    exact instance for each shift the gap's pairs realize."""
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return []
    pairs = gap_pairs(g.exact.base[i - 1], g.exact.base[j - 1], *clamped)
    shifts = sorted({b - a for a, b in pairs})
    found = sorted(p for s in shifts for p in report_shift(g.exact, i, j, s))
    assert found == pairs
    return found


def _gapped_collections(rng, kind):
    """The layout collections a gapped index can hold (no value past int64)
    and a random skewed one. The first, whose 'B' and 'H' rows pair sets of
    255 and 256, is left out under fulltab, which would tabulate every pair
    of their dyadic blocks."""
    sizes = [4, 6, 30, 40, 60]
    skewed = random_collection(rng, len(sizes), sum(sizes), 300, sizes)
    layouts = _layout_collections()[kind == FullTabulation():]
    return [
        *[[s for s in sets if not s or s[-1] < 2**62] for sets in layouts],
        [s.elements for s in skewed.sets],
    ]


def _gaps(rng, diffs, top, whole):
    """Gaps of a pair with the sorted realized shifts ``diffs``, clamped
    below at 0: each shift alone and widened, runs of unrealized shifts
    between them, random gaps and, if ``whole``, the whole universe and
    past it."""
    gaps = []
    for d in diffs[:: max(1, len(diffs) // 12)] + diffs[-2:]:
        if d >= 0:
            gaps += [(d, d), (max(0, d - 3), d + 3)]
    holes = [(x + 1, y - 1) for x, y in zip(diffs, diffs[1:]) if y - x > 1 and y > 1]
    for first, last in holes[:8] + holes[-8:]:
        gaps += [(max(0, first), last), (max(0, first - 1), last + 1)]
    for _ in range(6):
        lo = rng.randint(0, top)
        gaps.append((lo, lo + rng.randint(0, 40)))
    return gaps + [(0, 2 * top)] * whole


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=TABLE_IDS)
def test_set_queries_on_tabulated_pairs_match_brute_force(kind, monkeypatch):
    """Every tabulated pair, both orders and (i, i), on gaps that hold a
    realized shift and gaps that do not: the exists gives the table
    witness by at most one call and walks no element, the report gives
    every pair in the gap, each once, and neither builds a plan."""
    plans = []
    monkeypatch.setattr(gapped, "plan_cover", lambda *gap: plans.append(gap))
    rng = random.Random(34)
    seen = {"yes": 0, "no": 0, "mirrored": 0, "self": 0}
    for sets in _gapped_collections(rng, kind):
        top = max(s[-1] for s in sets if s)
        g = GappedIndex(sets, top + 1, kind)
        backend = g.exact.backend
        for i, sa in enumerate(sets, start=1):
            for j, sb in enumerate(sets, start=1):
                if not backend.tabulated(i, j):
                    continue
                seen["self"] += i == j
                seen["mirrored"] += backend.table._pairs[(i, j)][3]
                diffs = sorted({b - a for a in sa for b in sb})
                for lo, hi in _gaps(rng, diffs, top, len(sa) * len(sb) <= 4096):
                    pairs = gap_pairs(sa, sb, lo, min(hi, top))
                    probes = backend.probes
                    hit, calls = calls_of(g, gapped_exists, g, i, j, lo, hi)
                    assert hit == table_witness(pairs), (i, j, lo, hi)
                    assert (calls, g.last_plan_size) == (hit is not None, 0), (i, j, lo, hi)
                    assert backend.probes == probes
                    found, calls = calls_of(g, gapped_report, g, i, j, lo, hi)
                    assert found == pairs, (i, j, lo, hi)
                    assert (g.last_raw_pairs, g.last_max_multiplicity) == (len(pairs),
                                                                          min(len(pairs), 1))
                    assert found == table_report(g, i, j, lo, hi)
                    seen["yes" if pairs else "no"] += 1
        assert all(lvl.instance.backend.table.pairs == 0 for lvl in g.levels)
    assert plans == []
    assert min(seen.values()) > 0, seen


def _texts(rng, small):
    """Random texts over two letters, and "abab...", whose "a" and "b"
    each occur at one parity: a gap of one parity then meets the
    difference range of a tabulated pair but holds none of its shifts."""
    for t in range(6):
        n = rng.randint(10, 16) if small else 256
        yield random_text(rng, n, 2) if t % 2 else b"ab" * (n // 2)


@pytest.mark.parametrize("kind", TABLE_KINDS, ids=TABLE_IDS)
def test_string_queries_on_tabulated_pairs_match_brute_force(kind, monkeypatch):
    """A string exists answers from the first cover pair, in cover order,
    that has a difference in the gap: a tabulated one gives its table
    witness and builds no plan. Reports equal the two-finger scan."""
    plans = []

    def counting_plan(alpha, beta):
        plans.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    rng = random.Random(35)
    seen = {"yes": 0, "no": 0}
    # fulltab tabulates every pair of blocks: small texts there.
    for text in _texts(rng, kind == FullTabulation()):
        idx = build_gapped_string_index(text, kind)
        g = idx.gapped
        backend = g.exact.backend
        for _ in range(40):
            p1, p2 = random_pattern_from(rng, text, 2), random_pattern_from(rng, text, 2)
            lo = rng.randint(0, len(text) // 2)
            hi = lo + rng.choice([0, 1, 2, rng.randint(0, len(text) // 2)])
            expected = baseline_linear_scan(text, p1, p2, lo, hi)
            first = None  # the first cover pair with a pair in the gap
            for a, b in cover_pairs(idx, p1, p2):
                sa, sb = g.exact.base[a - 1], g.exact.base[b - 1]
                pairs = gap_pairs(sa, sb, lo, hi)
                if backend.tabulated(a, b) and (pairs or range_meets(sa, sb, lo, hi)):
                    seen["yes" if pairs else "no"] += 1
                if pairs and first is None:
                    first = (a, b, pairs)
            plans.clear()
            hit = idx.exists(p1, p2, lo, hi)
            assert (hit is None) == (not expected) == (first is None), (text, p1, p2, lo, hi)
            if first is not None:
                a, b, pairs = first
                if backend.tabulated(a, b):
                    assert hit == table_witness(pairs) and plans == [], (text, p1, p2, lo, hi)
                else:
                    assert hit in pairs and len(plans) == 1, (text, p1, p2, lo, hi)
            assert idx.report(p1, p2, lo, hi) == expected, (text, p1, p2, lo, hi)
        assert all(lvl.instance.backend.table.pairs == 0 for lvl in g.levels)
    assert min(seen.values()) > 0, seen


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.0), *TABLE_KINDS],
                         ids=["linear", "smalluniverse-0.0", *TABLE_IDS])
def test_quotient_levels_hold_member_sets_only(kind):
    """Every quotient level is built under ``LinearScan``, whatever the
    exact backend: it stores no table and no block, keeps a member set per
    set, and still answers each approximate query within its zones."""
    rng = random.Random(36)
    sizes = [3, 9, 17, 24]
    c = random_collection(rng, len(sizes), sum(sizes), 100, sizes)
    for g in (GappedIndex([s.elements for s in c.sets], c.universe, kind),
              build_gapped_string_index(random_text(rng, 16, 2), kind).gapped):
        assert g.levels
        for lvl in g.levels:
            backend = lvl.instance.backend
            assert backend.kind == LinearScan() and backend.table.pairs == 0
            assert backend.sets == list(lvl.instance.base)
            assert len(backend.members) == len(backend.sets)
        k = len(g.exact.base)
        for level in range(1, g.max_level + 1):
            for kappa in range(1, (g.universe >> level) + 2):
                q = ApproxQuery(level, kappa << level)
                (c0, c1), (u0, u1) = q.covered(), q.uncertain()
                i, j = rng.randint(1, k), rng.randint(1, k)
                sa, sb = g.exact.base[i - 1], g.exact.base[j - 1]
                answer = approx_exists(g, i, j, q)
                if gap_pairs(sa, sb, c0, c1):
                    assert answer, (level, kappa, i, j)
                if not gap_pairs(sa, sb, u0, u1):
                    assert not answer, (level, kappa, i, j)
