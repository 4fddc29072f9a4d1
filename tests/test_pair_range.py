"""A query asks nothing of a pair whose differences all miss the gap.

Every difference b - a of sets A and B lies in [min B - max A, max B - min A].
When that range misses [alpha, beta], or a set is empty, no probe of the pair
can hit, so ``gapped_exists`` returns None and ``gapped_report`` [] before
either lists, scans or asks anything. The ``listing_exists`` reference keeps
the probe loop without that check: each level's differences listed when the
probe order first reaches it (without a plan the points are listed for
their own count, as ``gapped_exists`` lists them before it plans, and a
pair too large for that is weighed again against the plan's exact
probes), a shift not on the list skipped, and every other probe asked
through the backend. The ``scanning_report`` reference answers every level of every
pair: a tabulated pair through ``report_shift``, any other by one
``scan_shifts`` pass. The library must give the same witness and the same
pairs, those of brute force, with no more SSI calls, under all three
backends, including pairs whose range touches the gap at exactly one end;
a missing pair spends no call and no probe. A pair the exact instance
tabulates answers from its table with no plan, so its references are
``test_table_route``'s, written from brute force.
"""

import random
from itertools import product

import pytest

from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.gapped import (
    GappedIndex,
    build_gapped_index,
    gapped_exists,
    gapped_report,
    originals,
    plan_cover,
)
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.reporting import report_shift
from gapindex.textindex import baseline_linear_scan, build_gapped_string_index
from test_plan_once import calls_of, cover_pairs
from test_table_route import table_exists, table_report

KINDS = (LinearScan(), SmallUniverse(delta=0.5), FullTabulation())

_UNLISTED = object()


def listing_exists(g, i, j, alpha, beta, plan=None):
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return None
    points_first = plan is None
    plan = plan or plan_cover(*clamped)
    counts = plan.level_probes
    listed = [_UNLISTED] * len(counts)
    for n, (level, shifts) in enumerate(plan.segments):
        inst = g.instances[level]
        if points_first and n == 1 and listed[0] is None:
            listed[0] = _UNLISTED
        if listed[level] is _UNLISTED:
            count = len(shifts) if points_first and n == 0 else counts[level]
            listed[level] = inst.backend.differences(i, j, count)
        for shift in shifts:
            if listed[level] is not None and shift not in listed[level]:
                continue
            cert = inst._exists(i, j, shift)
            if cert is None:
                continue
            if level == 0:
                return (cert.a, cert.b)
            return (originals(g.exact.base[i - 1], level, cert.a)[0],
                    originals(g.exact.base[j - 1], level, cert.b)[0])
    return None


def scanning_report(g, i, j, alpha, beta, plan=None):
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return []
    plan = plan or plan_cover(*clamped)
    sa, sb = g.exact.base[i - 1], g.exact.base[j - 1]
    raw = []
    for level, shifts in enumerate(plan.level_shifts):
        if not shifts:
            continue
        inst = g.instances[level]
        if inst.backend.tabulated(i, j):
            found = [pair for s in shifts for pair in report_shift(inst, i, j, s)]
        else:
            found = inst.backend.scan_shifts(i, j, shifts)
        if level == 0:
            raw += found
            continue
        for qa, qb in found:
            raw.extend(product(originals(sa, level, qa), originals(sb, level, qb)))
    return sorted(set(raw))


def brute_report(g, i, j, alpha, beta):
    return sorted((a, b) for a in g.exact.base[i - 1] for b in g.exact.base[j - 1]
                  if alpha <= b - a <= beta)


def probes(g):
    return sum(inst.backend.probes for inst in [g.exact] + [lvl.instance for lvl in g.levels])


def touching_gaps(sa, sb, rng, width):
    """Gaps [lo, hi] at the ends of the pair's difference range, each with
    whether the range meets it: max B - min A = lo, min B - max A = hi, and
    each moved one past that end."""
    top, bottom = sb[-1] - sa[0], sb[0] - sa[-1]
    gaps = []
    if top >= 0:
        gaps.append((top, top + rng.randint(0, width), True))
        gaps.append((top + 1, top + 1 + rng.randint(0, width), False))
    if bottom >= 0:
        gaps.append((max(0, bottom - rng.randint(0, width)), bottom, True))
    if bottom >= 1:
        gaps.append((max(0, bottom - 1 - rng.randint(0, width)), bottom - 1, False))
    return gaps


class Tally:
    def __init__(self):
        self.saved = self.saved_reports = self.skipped = self.touched = self.tabled = 0

    def check(self, g, counted, i, j, lo, hi, meets=None):
        """Library against references on one pair, exists and report;
        ``meets`` says whether the pair's range meets the gap, when the
        caller placed it there."""
        tabled = g.exact.backend.tabulated(i, j)
        self.tabled += tabled
        references = (table_exists, table_report) if tabled else (listing_exists,
                                                                  scanning_report)
        want, want_calls = calls_of(counted, references[0], g, i, j, lo, hi)
        before = probes(g)
        got, got_calls = calls_of(counted, gapped_exists, g, i, j, lo, hi)
        exists_probes = probes(g) - before
        assert got == want, (i, j, lo, hi)
        assert got_calls <= want_calls
        self.saved += want_calls - got_calls
        pairs, want_calls = calls_of(counted, references[1], g, i, j, lo, hi)
        assert pairs == brute_report(g, i, j, lo, hi), (i, j, lo, hi)
        before = probes(g)
        got_pairs, got_calls = calls_of(counted, gapped_report, g, i, j, lo, hi)
        report_probes = probes(g) - before
        assert got_pairs == pairs, (i, j, lo, hi)
        assert got_calls <= want_calls
        self.saved_reports += want_calls - got_calls
        if meets is False or (tabled and not pairs):
            assert (got, got_calls, exists_probes) == (None, 0, 0)
            assert (got_pairs, got_calls, report_probes) == ([], 0, 0)
            assert (g.last_raw_pairs, g.last_max_multiplicity) == (0, 0)
            self.skipped += meets is False
        elif meets:
            # The end of the range is a difference in the gap.
            assert got is not None and lo <= got[1] - got[0] <= hi
            assert got in got_pairs
            self.touched += 1

    def assert_covered(self, kind, tabled):
        """Each case was met: the plan's savings (no plan runs under
        fulltab, which tabulates every pair), skipped and touched pairs,
        and tabulated pairs exactly when ``tabled``."""
        assert (self.saved > 0 and self.saved_reports > 0) == (kind != FullTabulation())
        assert self.skipped > 0 and self.touched > 0
        assert (self.tabled > 0) == tabled


@pytest.mark.parametrize("kind", KINDS, ids=["linear", "smalluniverse", "fulltab"])
def test_set_queries_match_the_listing_loop(kind):
    rng = random.Random(71)
    tally = Tally()
    small = kind == FullTabulation()  # it tabulates every pair of blocks
    for _ in range(25):
        k = rng.randint(2, 5)
        u = rng.randint(8, 120 if small else 400)
        c = random_collection(rng, k, rng.randint(k, 6 * k if small else 15 * k), u)
        g = build_gapped_index(c, kind)
        for _ in range(12):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            tally.check(g, g, i, j, lo, lo + rng.randint(0, u))
            for lo, hi, meets in touching_gaps(g.exact.base[i - 1], g.exact.base[j - 1], rng, u):
                tally.check(g, g, i, j, lo, hi, meets=meets)
    tally.assert_covered(kind, tabled=kind != LinearScan())


@pytest.mark.parametrize("kind", KINDS, ids=["linear", "smalluniverse", "fulltab"])
def test_string_queries_match_the_listing_loop(kind):
    rng = random.Random(73)
    tally = Tally()
    small = kind == FullTabulation()
    for _ in range(8):
        text = random_text(rng, rng.randint(10, 16) if small else rng.randint(16, 160),
                           rng.choice((2, 3, 4)))
        idx = build_gapped_string_index(text, kind)
        g = idx.gapped
        for _ in range(10):
            p1 = random_pattern_from(rng, text, 3)
            p2 = random_pattern_from(rng, text, 3)
            lo = rng.randint(0, len(text) // 2)
            hi = lo + rng.randint(0, len(text))
            pairs = cover_pairs(idx, p1, p2)
            clamped = g._clamped(lo, hi)
            plan = plan_cover(*clamped) if clamped else None

            def reference():
                for a, b in pairs:
                    if g.exact.backend.tabulated(a, b):
                        hit = table_exists(g, a, b, lo, hi)
                    else:
                        hit = listing_exists(g, a, b, lo, hi, plan)
                    if hit is not None:
                        return hit
                return None

            def scanning():
                return sorted(pair for a, b in pairs for pair in (
                    table_report(g, a, b, lo, hi) if g.exact.backend.tabulated(a, b)
                    else scanning_report(g, a, b, lo, hi, plan)))

            want, want_calls = calls_of(idx, reference)
            got, got_calls = calls_of(idx, idx.exists, p1, p2, lo, hi)
            assert got == want, (text, p1, p2, lo, hi)
            assert got_calls <= want_calls
            tally.saved += want_calls - got_calls
            want, want_calls = calls_of(idx, scanning)
            got, got_calls = calls_of(idx, idx.report, p1, p2, lo, hi)
            assert got == want == baseline_linear_scan(text, p1, p2, lo, hi), (text, p1, p2, lo, hi)
            assert got_calls <= want_calls
            tally.saved_reports += want_calls - got_calls
            for a, b in pairs:
                for glo, ghi, meets in touching_gaps(g.exact.base[a - 1], g.exact.base[b - 1],
                                                     rng, len(text)):
                    tally.check(g, idx, a, b, glo, ghi, meets=meets)
    # These texts have no cover set above smalluniverse's threshold.
    tally.assert_covered(kind, tabled=kind == FullTabulation())


@pytest.mark.parametrize("kind", KINDS, ids=["linear", "smalluniverse", "fulltab"])
def test_an_empty_set_meets_no_gap(kind):
    """A pair with an empty set has no difference: an exists answers None
    and a report [], on either side, with no call and no probe."""
    g = GappedIndex([(1, 5), ()], 8, kind)
    for i, j in ((1, 2), (2, 1), (2, 2)):
        for lo, hi in ((0, 5), (0, 7), (4, 4)):
            before = g.ssi_calls(), probes(g)
            assert gapped_exists(g, i, j, lo, hi) is None
            assert gapped_report(g, i, j, lo, hi) == []
            assert (g.last_raw_pairs, g.last_max_multiplicity) == (0, 0)
            assert (g.ssi_calls(), probes(g)) == before
    assert gapped_exists(g, 1, 1, 4, 4) == (1, 5)
    assert gapped_report(g, 1, 1, 0, 5) == [(1, 1), (1, 5), (5, 5)]
