"""Probes a set pair provably misses make no backend call.

At each level, a pair whose larger set has no more elements than the plan
has probes for the level (and that is not tabulated) has its differences
listed once; a probe whose shift is not among them is dropped. A report
keeps the listed pairs and answers any other untabulated level by one
walking pass. The ``probe_all_*`` references keep the loop that asks the
backend every probe, so the filtered queries must give the same answers,
witnesses and statistics with no more SSI calls. A pair the exact
instance tabulates takes no plan, so it is checked against brute force
(``test_table_route``) instead.
"""

import random
from collections import Counter
from itertools import product

import pytest

from gapindex import gapped
from gapindex.backends import (
    FullTabulation,
    LinearScan,
    SmallUniverse,
    SsiBackend,
    range_meets,
)
from gapindex.bench import run_bench
from gapindex.errors import FormatError
from gapindex.gapped import (
    build_gapped_index,
    gapped_exists,
    gapped_report,
    originals,
    plan_cover,
)
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.reporting import report_shift
from gapindex.sets import ingest_collection, level_starts
from gapindex.textindex import build_gapped_string_index
from test_plan_once import calls_of, cover_pairs
from test_table_route import gap_pairs, table_witness

KINDS = (LinearScan(), SmallUniverse(delta=0.5))


def probe_all_exists(g, i, j, alpha, beta, plan=None):
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return None
    for level, shift in (plan or plan_cover(*clamped)).probes:
        cert = g.instances[level]._exists(i, j, shift)
        if cert is None:
            continue
        if level == 0:
            return (cert.a, cert.b)
        return (originals(g.exact.base[i - 1], level, cert.a)[0],
                originals(g.exact.base[j - 1], level, cert.b)[0])
    return None


def probe_all_report(g, i, j, alpha, beta, plan=None):
    """Sorted pairs, raw pair count and largest multiplicity."""
    clamped = g._clamped(alpha, beta)
    if clamped is None:
        return [], 0, 0
    raw = []
    for level, shift in (plan or plan_cover(*clamped)).probes:
        found = report_shift(g.instances[level], i, j, shift)
        if level == 0:
            raw.extend(found)
            continue
        for qa, qb in found:
            raw.extend(product(originals(g.exact.base[i - 1], level, qa),
                               originals(g.exact.base[j - 1], level, qb)))
    return sorted(set(raw)), len(raw), max(Counter(raw).values(), default=0)


def level_backend(g, level):
    return g.instances[level].backend


def tabulated(backend, i, j):
    return min(len(backend.sets[i - 1]), len(backend.sets[j - 1])) > backend.threshold


def listed(g, i, j, level, plan):
    """Whether the pair's level-l differences are listed, decided from sizes."""
    backend = level_backend(g, level)
    sa, sb = backend.sets[i - 1], backend.sets[j - 1]
    return max(len(sa), len(sb)) <= plan.level_probes[level] and not tabulated(backend, i, j)


def test_set_queries_match_probing_every_shift():
    rng = random.Random(53)
    saved = listed_levels = tabled = 0
    for trial in range(40):
        kind = KINDS[trial % 2]
        k = rng.randint(2, 5)
        u = rng.randint(8, 300)
        c = random_collection(rng, k, rng.randint(k, 12 * k), u)
        g = build_gapped_index(c, kind)
        for _ in range(10):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            hi = lo + rng.randint(0, u)
            if g.exact.backend.tabulated(i, j):
                pairs = gap_pairs(c.set(i).elements, c.set(j).elements, lo, hi)
                assert gapped_exists(g, i, j, lo, hi) == table_witness(pairs)
                got = gapped_report(g, i, j, lo, hi)
                assert (got, g.last_raw_pairs, g.last_max_multiplicity) == (
                    pairs, len(pairs), min(len(pairs), 1))
                tabled += 1
                continue
            want, want_calls = calls_of(g, probe_all_exists, g, i, j, lo, hi)
            got, got_calls = calls_of(g, gapped_exists, g, i, j, lo, hi)
            assert got == want, (c, i, j, lo, hi)
            assert got_calls <= want_calls
            saved += want_calls - got_calls

            want, want_calls = calls_of(g, probe_all_report, g, i, j, lo, hi)
            got, got_calls = calls_of(g, gapped_report, g, i, j, lo, hi)
            assert (got, g.last_raw_pairs, g.last_max_multiplicity) == want
            assert got_calls <= want_calls
            saved += want_calls - got_calls
            clamped = g._clamped(lo, hi)
            if clamped is not None:
                plan = plan_cover(*clamped)
                listed_levels += sum(
                    listed(g, i, j, level, plan) for level in range(len(plan.level_probes))
                )
    assert saved > 0 and listed_levels > 0 and tabled > 0


def test_string_queries_match_probing_every_shift():
    rng = random.Random(59)
    saved = multiplied = 0
    for trial in range(12):
        kind = KINDS[trial % 2]
        text = random_text(rng, rng.randint(16, 160), rng.choice((2, 3, 4)))
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

            def reference_exists():
                for a, b in pairs:
                    hit = probe_all_exists(g, a, b, lo, hi, plan)
                    if hit is not None:
                        return hit
                return None

            def reference_report():
                raw = []
                for a, b in pairs:
                    raw.extend(probe_all_report(g, a, b, lo, hi, plan)[0])
                return sorted(set(raw))

            for new, old in ((idx.exists, reference_exists), (idx.report, reference_report)):
                want, want_calls = calls_of(idx, old)
                got, got_calls = calls_of(idx, new, p1, p2, lo, hi)
                assert got == want, (text, p1, p2, lo, hi)
                assert got_calls <= want_calls
                saved += want_calls - got_calls
            # Per cover pair, the statistics a report leaves behind.
            for a, b in pairs:
                got = gapped_report(g, a, b, lo, hi, plan=plan)
                stats = (got, g.last_raw_pairs, g.last_max_multiplicity)
                assert stats == probe_all_report(g, a, b, lo, hi, plan), (text, a, b, lo, hi)
                multiplied += g.last_max_multiplicity > 1
    assert saved > 0 and multiplied > 0


@pytest.mark.parametrize(
    "query, calls",
    [
        # An exists lists the pair for its 6 points, or asks each of them by
        # one backend call and weighs the pair again for the plan's 11 exact
        # probes, asking each live one by a call.
        (gapped_exists, (0, 6, 6, 6 + 5)),
        # A report answers a level by one pass, a call only when it walks.
        (gapped_report, (0, 0, 0, 1)),
    ],
    ids=["gapped_exists", "gapped_report"],
)
def test_listing_boundary_is_the_level_probe_count(query, calls):
    plan = plan_cover(10, 20)
    assert plan.level_probes == (11, 0)
    # Level 1 divides by 2^0, so the plan asks the level-1 shifts 13..17
    # as exact probes beside the 6 points, and the exact instance counts
    # every call. Set 2 has m elements above set 1's: up to 9 of 2..10,
    # then 22 on and 31, so no pair has its gap in range: listing stops at
    # m = 7 for the points alone and at m = 12 for all 11 exact probes.
    for m, exact_calls in zip((6, 7, 11, 12), calls):
        low = min(m, 10)
        c = ingest_collection([[1], [*range(2, low + 1), *range(22, 22 + m - low), 31]], u=32)
        assert len(c.set(2)) == m
        g = build_gapped_index(c, LinearScan())
        assert not query(g, 1, 2, 10, 20)
        assert g.exact.ssi_calls() == g.ssi_calls() == exact_calls


def test_tabulated_pairs_are_not_listed(monkeypatch):
    """A tabulated pair reads its table, which holds every realized shift:
    it lists nothing, and asks one call only for the witness's shift."""
    monkeypatch.setattr(SsiBackend, "differences", None)
    c = ingest_collection([[1], [2, 3, 4, 31]], u=32)
    g = build_gapped_index(c, FullTabulation())
    assert gapped_exists(g, 1, 2, 10, 20) is None
    assert g.ssi_calls() == 0
    assert gapped_exists(g, 1, 2, 10, 30) == (1, 31)
    assert g.ssi_calls() == 1


def test_every_probe_let_through_a_listed_level_hits(monkeypatch):
    """An untabulated pair's report answers each level by one pass and makes
    no report_shift call; a pair whose difference range misses the gap
    makes no pass at all. At a listed level the pass returns exactly the
    plan's level-l shifts that the pair realizes, each with the pairs
    report_shift gives for it."""
    rng = random.Random(61)
    passes, reported = [], []
    scan_shifts = SsiBackend.scan_shifts

    def recording_pass(backend, i, j, shifts):
        found = scan_shifts(backend, i, j, shifts)
        passes.append((backend, tuple(shifts), found))
        return found

    def recording_report(inst, i, j, s, trace=None):
        reported.append(inst)
        return report_shift(inst, i, j, s, trace)

    monkeypatch.setattr(SsiBackend, "scan_shifts", recording_pass)
    monkeypatch.setattr(gapped, "report_shift", recording_report)
    checked = missed = tabled = 0
    for trial in range(30):
        kind = KINDS[trial % 2]
        k = rng.randint(2, 4)
        u = rng.randint(8, 200)
        c = random_collection(rng, k, rng.randint(k, 8 * k), u)
        g = build_gapped_index(c, kind)
        for _ in range(10):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            hi = lo + rng.randint(0, u)
            clamped = g._clamped(lo, hi)
            if clamped is None:
                continue
            plan = plan_cover(*clamped)
            passes.clear()
            reported.clear()
            gapped_report(g, i, j, lo, hi)
            if not range_meets(g.exact.base[i - 1], g.exact.base[j - 1], *clamped):
                assert passes == [] and reported == []
                missed += 1
                continue
            # A pair the exact instance tabulates asks report_shift there,
            # once per realized shift, and makes no pass.
            if g.exact.backend.tabulated(i, j):
                assert passes == [] and set(reported) <= {g.exact}
                tabled += 1
                continue
            # Passes are matched to levels in order: one per untabulated
            # level with shifts, none otherwise; level 1 has none, since the
            # plan asks its shifts at level 0.
            untabulated = [(level, shifts) for level, shifts in enumerate(plan.level_shifts)
                           if shifts and not tabulated(level_backend(g, level), i, j)]
            assert [(b, asked) for b, asked, _ in passes] == [
                (level_backend(g, level), shifts) for level, shifts in untabulated]
            for (level, shifts), (backend, _, found) in zip(untabulated, passes):
                assert g.instances[level] not in reported
                if not listed(g, i, j, level, plan):
                    continue
                realized = {b - a for a in backend.sets[i - 1] for b in backend.sets[j - 1]}
                hit = {b - a for a, b in found}
                assert hit == {s for s in shifts if s in realized}
                for s in hit:
                    pairs = [(a, b) for a, b in found if b - a == s]
                    assert pairs and pairs == report_shift(g.instances[level], i, j, s)
                checked += len(hit)
    assert checked > 100 and missed > 0 and tabled > 0


@pytest.mark.parametrize("query", [gapped_exists, gapped_report])
def test_ids_past_the_k_sets_are_rejected(query):
    """The backends tabulate dyadic blocks after the k sets; a block id is
    not a set of the collection, whether or not its pair realizes a probe.
    FullTabulation stores every block, LinearScan none."""
    rng = random.Random(67)
    for kind in KINDS + (FullTabulation(),):
        c = random_collection(rng, 3, 40, 120)
        g = build_gapped_index(c, kind)
        # The k sets and all their blocks, whether stored or not.
        stored = c.k + sum(level_starts(len(s))[-1] for s in c.sets)
        if kind == FullTabulation():
            assert g.exact.backend.last_block == stored
        assert stored > 3
        for bad in (0, 4, stored, stored + 1):
            for lo, hi in ((0, 200), (5, 6), (500, 600)):
                with pytest.raises(FormatError, match=f"set index {bad} out of range 1..3"):
                    query(g, bad, 1, lo, hi)
                with pytest.raises(FormatError, match=f"set index {bad} out of range 1..3"):
                    query(g, 1, bad, lo, hi)


def test_bench_multiplicity_is_the_largest_over_every_cover_pair():
    """``gapindex bench`` records each report's largest multiplicity over
    all its cover pairs, which the string report leaves behind, where it
    once left its last cover pair's: in some report here an earlier pair
    multiplies more than the last."""
    last_pair_lower = 0
    for n, sigma, seed in ((100, 3, 2), (100, 3, 4), (120, 4, 5), (60, 2, 4)):
        queries = 12
        record = next(run_bench(
            {"gapped_string": [{"n": n, "sigma": sigma, "queries": queries, "seed": seed}]}
        ))
        rng = random.Random(seed)
        text = random_text(rng, n, sigma)
        idx = build_gapped_string_index(text, LinearScan())
        g = idx.gapped
        want = last_pair = 0
        for _ in range(queries):
            p1 = random_pattern_from(rng, text, 5)
            p2 = random_pattern_from(rng, text, 5)
            lo = rng.randint(0, n // 2)
            hi = lo + rng.randint(0, n // 2)
            clamped = g._clamped(lo, hi)
            plan = plan_cover(*clamped) if clamped else None
            per_pair = [probe_all_report(g, a, b, lo, hi, plan)[2]
                        for a, b in cover_pairs(idx, p1, p2)]
            idx.report(p1, p2, lo, hi)
            assert g.last_max_multiplicity == max(per_pair, default=0), (p1, p2, lo, hi)
            want = max(want, g.last_max_multiplicity)
            last_pair_lower += bool(per_pair) and per_pair[-1] < max(per_pair)
        assert record["dedup_max_multiplicity"] == want, (n, sigma, seed)
    assert last_pair_lower > 0
