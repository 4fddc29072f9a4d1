import random
from dataclasses import replace
from typing import NamedTuple

import pytest

from gapindex import gapped, textindex
from gapindex.backends import (
    FullTabulation,
    LinearScan,
    SmallUniverse,
    SsiBackend,
    range_meets,
)
from gapindex.errors import BudgetError, FormatError, GapIndexError
from gapindex.gapped import gapped_exists, gapped_report, plan_cover
from gapindex.generators import random_pattern_from, random_text
from gapindex.sets import level_starts
from gapindex.textindex import (
    QuadraticBaseline,
    baseline_linear_scan,
    build_gapped_string_index,
    build_suffix_array,
    find_occurrences,
    occurrences,
    pattern_interval,
)
from test_plan_once import cover_pairs
from test_table_route import gap_pairs, table_witness


class DyadicInterval(NamedTuple):
    """Position interval [1+kappa*2^j, (kappa+1)*2^j]."""

    level: int
    block: int
    lo: int
    hi: int


def dyadic_intervals(n):
    """Reference: all dyadic position intervals inside [1, n], level-major."""
    out = []
    for j in range(n.bit_length()):
        size = 1 << j
        for kappa in range(n // size):
            lo = kappa * size + 1
            out.append(DyadicInterval(level=j, block=kappa, lo=lo, hi=lo + size - 1))
    return out


def test_dyadic_intervals_counts():
    assert len(dyadic_intervals(4)) == 7
    only = dyadic_intervals(1)
    assert len(only) == 1 and (only[0].lo, only[0].hi) == (1, 1)
    by_level = {}
    for iv in dyadic_intervals(6):
        by_level.setdefault(iv.level, []).append(iv)
    assert [len(by_level[j]) for j in range(3)] == [6, 3, 1]
    assert len(dyadic_intervals(6)) == 10


def test_dyadic_intervals_alignment():
    for iv in dyadic_intervals(37):
        assert iv.lo == iv.block * (1 << iv.level) + 1
        assert iv.hi - iv.lo + 1 == 1 << iv.level
        assert iv.hi <= 37


def test_level_starts_number_the_intervals_in_order():
    for n in range(1, 65):
        intervals = dyadic_intervals(n)
        starts = level_starts(n)
        assert starts[-1] == len(intervals)
        for j in range(n.bit_length()):
            for kappa in range(n >> j):
                iv = intervals[starts[j] + kappa]
                assert (iv.level, iv.block) == (j, kappa)


def brute_sa(text):
    n = len(text)
    order = sorted(range(n), key=lambda i: text[i:])
    return tuple(i + 1 for i in order)


def brute_lcp(text, sa):
    out = [0]
    for t in range(1, len(sa)):
        x, y = text[sa[t - 1] - 1 :], text[sa[t] - 1 :]
        match = 0
        while match < min(len(x), len(y)) and x[match] == y[match]:
            match += 1
        out.append(match)
    return tuple(out)


def brute_gapped(text, p1, p2, lo, hi):
    occ1 = [i + 1 for i in range(len(text)) if text[i : i + len(p1)] == p1]
    occ2 = [j + 1 for j in range(len(text)) if text[j : j + len(p2)] == p2]
    return sorted((i, j) for i in occ1 for j in occ2 if lo <= j - i <= hi)


def test_suffix_array_banana():
    sa = build_suffix_array(b"banana")
    assert sa.sa == (6, 4, 2, 1, 5, 3)
    assert sa.lcp == brute_lcp(b"banana", sa.sa)


def test_string_index_never_computes_the_lcp(monkeypatch):
    # No query reads the LCP array, so a build and its queries never compute
    # it; the first read of ``lcp`` does.
    def refuse(*args):
        raise AssertionError("LCP computed")

    text = b"abracadabra" * 4
    monkeypatch.setattr(textindex, "_lcp_kasai", refuse)
    index = build_gapped_string_index(text, LinearScan())
    assert index.report(b"ab", b"ra", 0, 12) == baseline_linear_scan(text, b"ab", b"ra", 0, 12)
    assert index.exists(b"ca", b"da", 1, 5) is not None
    monkeypatch.undo()
    assert index.suffixes.lcp == brute_lcp(text, index.suffixes.sa)


def test_suffix_array_run():
    assert build_suffix_array(b"aaa").sa == (3, 2, 1)


def test_suffix_array_rejects_empty():
    with pytest.raises(FormatError):
        build_suffix_array(b"")


def test_suffix_array_oracle_fuzz():
    rng = random.Random(2)
    for sigma in (2, 4, 26):
        for _ in range(12):
            text = random_text(rng, rng.randint(1, 256), sigma)
            sa = build_suffix_array(text)
            assert sa.sa == brute_sa(text)
            assert sa.lcp == brute_lcp(text, sa.sa)


def test_pattern_interval_examples():
    sa = build_suffix_array(b"banana")
    s, e = pattern_interval(sa, b"ana")
    assert sorted(sa.sa[s - 1 : e - 1]) == [2, 4]
    s, e = pattern_interval(sa, b"x")
    assert s == e
    s, e = pattern_interval(sa, b"banana")
    assert (e - s) == 1 and sa.sa[s - 1] == 1
    # Patterns longer than the text give empty intervals, not errors.
    longer = pattern_interval(sa, b"bananaban")
    assert longer[0] == longer[1]


def test_occurrences_oracle_fuzz():
    rng = random.Random(3)
    for _ in range(40):
        text = random_text(rng, rng.randint(2, 120), 3)
        pattern = random_pattern_from(rng, text, 4)
        naive = [i + 1 for i in range(len(text)) if text[i : i + len(pattern)] == pattern]
        sa = build_suffix_array(text)
        assert occurrences(sa, pattern) == naive
        assert find_occurrences(text, pattern) == naive


def test_string_index_set_accounting():
    idx = build_gapped_string_index(b"abca", LinearScan())
    base = idx.gapped.exact.base
    assert len(base) == 7
    assert idx.set_elements == 12
    ids = []
    for iv in dyadic_intervals(4):
        (sid,) = idx._cover_ids(iv.lo, iv.hi)
        chunk = idx.suffixes.sa[iv.lo - 1 : iv.hi]
        assert base[sid - 1] == tuple(sorted(chunk))
        ids.append(sid)
    assert sorted(ids) == list(range(1, 8))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100, 300])
def test_dyadic_interval_sets_are_the_sorted_slices(n):
    # Each level is merged from the one below; the reference sorts each
    # interval's slice of the suffix array on its own. The sets hold the
    # suffix array's own int objects, as its slices did.
    text = random_text(random.Random(n), n, 3)
    idx = build_gapped_string_index(text, LinearScan())
    sa = idx.suffixes.sa
    expected = [(number, tuple(sorted(sa[iv.lo - 1 : iv.hi])))
                for number, iv in enumerate(dyadic_intervals(n), start=1)]
    base = idx.gapped.exact.base
    assert list(enumerate(base, start=1)) == expected
    shared = {id(p) for p in sa}
    assert all(id(p) in shared for s in base for p in s)


def test_string_index_examples():
    idx = build_gapped_string_index(b"abab", LinearScan())
    assert idx.report(b"ab", b"ab", 2, 2) == [(1, 3)]
    idx = build_gapped_string_index(b"banana", LinearScan())
    assert idx.report(b"an", b"na", 1, 3) == [(2, 3), (2, 5), (4, 5)]
    assert idx.report(b"zz", b"na", 0, 5) == []
    idx = build_gapped_string_index(b"aaaa", LinearScan())
    assert idx.report(b"a", b"a", 0, 0) == [(1, 1), (2, 2), (3, 3), (4, 4)]


def test_string_index_exists_short_circuit():
    idx = build_gapped_string_index(b"banana", LinearScan())
    hit = idx.exists(b"an", b"na", 1, 3)
    assert hit is not None
    i, j = hit
    assert b"banana"[i - 1 : i + 1] == b"an"
    assert b"banana"[j - 1 : j + 1] == b"na"
    assert 1 <= j - i <= 3
    assert idx.exists(b"an", b"na", 5, 9) is None


def test_string_index_rejects_bad_gap_before_pattern_lookup():
    idx = build_gapped_string_index(b"banana", LinearScan())
    for p1, p2 in ((b"an", b"na"), (b"zz", b"na"), (b"an", b"zz")):
        for lo, hi in ((5, 4), (-1, 3)):
            with pytest.raises(FormatError):
                idx.exists(p1, p2, lo, hi)
            with pytest.raises(FormatError):
                idx.report(p1, p2, lo, hi)
    assert idx.exists(b"zz", b"na", 0, 3) is None
    assert idx.report(b"an", b"na", 9, 12) == []


def test_exists_raises_when_the_plan_misses_a_meeting_pair(monkeypatch):
    """A pair whose walk meets the gap must get a witness from its plan: a
    plan that drops every segment asking the pair's only hit makes
    ``exists`` raise where it would otherwise answer NO."""
    text = b"axxxbxxx"  # one "a" at 1, one "b" at 5: the only pair has gap 4
    idx = build_gapped_string_index(text, LinearScan())
    lo, hi = 0, 7
    assert idx.exists(b"a", b"b", lo, hi) == (1, 5)
    a, b = 1, 5

    def holds_the_hit(level, shifts):
        shift = level - 1 if level else 0
        return (b >> shift) - (a >> shift) in shifts

    def doctored_plan_cover(alpha, beta):
        plan = plan_cover(alpha, beta)
        kept = tuple(seg for seg in plan.segments if not holds_the_hit(*seg))
        assert len(kept) < len(plan.segments)
        return replace(plan, segments=kept)

    monkeypatch.setattr(gapped, "plan_cover", doctored_plan_cover)
    # Each pattern occurs once, so its one suffix-array rank is its cover.
    ida, idb = (idx._cover_ids(rank, rank)[0]
                for rank, _ in (pattern_interval(idx.suffixes, p) for p in (b"a", b"b")))
    # The pair meets the gap, but its doctored plan finds nothing.
    backend = idx.gapped.exact.backend
    assert backend.meets(ida, idb, lo, hi) and not backend.tabulated(ida, idb)
    assert gapped_exists(idx.gapped, ida, idb, lo, hi, plan=doctored_plan_cover(lo, hi)) is None
    with pytest.raises(GapIndexError, match="plan missed"):
        idx.exists(b"a", b"b", lo, hi)


def test_exists_raises_when_the_table_misses_a_meeting_heavy_pair(monkeypatch):
    """A tabulated (heavy) pair builds no plan: its table gives the
    witness. A pair that ``meets`` says meets the gap, but whose table
    read finds no shift there, raises where it would otherwise answer
    NO."""
    plans = []

    def counting_plan(alpha, beta):
        plans.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    idx = build_gapped_string_index(b"axxxbxxx", FullTabulation())
    assert idx.exists(b"a", b"b", 0, 7) == (1, 5) and plans == []
    assert idx.exists(b"a", b"b", 5, 7) is None  # the only pair has gap 4
    monkeypatch.setattr(SsiBackend, "meets", lambda *args: True)
    with pytest.raises(GapIndexError, match="table missed"):
        idx.exists(b"a", b"b", 5, 7)
    assert plans == []


def test_fulltab_exists_takes_the_table_witness_and_builds_no_plan(monkeypatch):
    """Under fulltab every cover pair is tabulated, and its table decides
    whether the pair meets the gap. In "banana", "a" is at 2, 4, 6 and
    "n" at 3, 5, so every gap between them is odd: the cover pairs'
    difference ranges meet [2, 2], but no table holds shift 2, and the
    exists makes no call. Over a random stream no query builds a plan, a
    YES makes one call, and its witness is the table witness of the first
    cover pair with a pair in the gap; YES and NO are those of ``linear``."""
    plans = []

    def counting_plan(alpha, beta):
        plans.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    idx = build_gapped_string_index(b"banana", FullTabulation())
    g = idx.gapped
    pairs = [(ida, idb) for ida in idx._cover_ids(*_ranks(idx, b"a"))
             for idb in idx._cover_ids(*_ranks(idx, b"n"))]
    assert all(g.exact.backend.tabulated(*pair) for pair in pairs)
    assert any(range_meets(g.exact.base[ida - 1], g.exact.base[idb - 1], 2, 2)
               for ida, idb in pairs)
    calls = idx.ssi_calls()
    assert idx.exists(b"a", b"n", 2, 2) is None
    assert plans == [] and idx.ssi_calls() == calls and g.last_plan_size == 0
    hit = idx.exists(b"a", b"n", 1, 1)
    assert hit is not None and hit[1] - hit[0] == 1 and plans == []
    assert idx.ssi_calls() == calls + 1

    rng = random.Random(32)
    text = random_text(rng, 48, 3)
    heavy = build_gapped_string_index(text, FullTabulation())
    light = build_gapped_string_index(text, LinearScan())
    answers = set()
    for _ in range(300):
        p1, p2 = random_pattern_from(rng, text, 3), random_pattern_from(rng, text, 3)
        lo = rng.randint(0, 24)
        query = (p1, p2, lo, lo + rng.randint(0, 12))
        want = light.exists(*query)
        g = heavy.gapped
        first = next((pairs for a, b in cover_pairs(heavy, p1, p2)
                      if (pairs := gap_pairs(g.exact.base[a - 1], g.exact.base[b - 1],
                                             *query[2:]))), [])
        plans.clear()
        calls = heavy.ssi_calls()
        hit = heavy.exists(*query)
        assert hit == table_witness(first) and (hit is None) == (want is None), query
        assert plans == [] and heavy.ssi_calls() - calls == (hit is not None), query
        answers.add(hit is None)
    assert answers == {True, False}


def _ranks(idx, pattern):
    """The pattern's suffix-array ranks, as the closed range of ``_cover_ids``."""
    s, e = pattern_interval(idx.suffixes, pattern)
    return s, e - 1


def test_exists_leaves_its_own_plan_size():
    """After an exists, ``last_plan_size`` is the size of the plan that
    query built, and 0 when it built none: no cover pair met the gap, or the
    query has no plan."""
    idx = build_gapped_string_index(b"banana", LinearScan())
    g = idx.gapped
    assert idx.exists(b"an", b"na", 1, 3) is not None
    assert g.last_plan_size == plan_cover(1, 3).size > 0
    # No cover pair meets [0, 5] for "na" before "b": no plan is built.
    assert idx.exists(b"na", b"b", 0, 5) is None
    assert g.last_plan_size == 0
    # "a" at 2, 4, 6 and "n" at 3, 5: every gap is odd. The cover pair of
    # "a" at 2 against "n" at 3, 5 has a range that meets [2, 2], and its
    # walk finds no difference there.
    assert idx.exists(b"a", b"n", 2, 2) is None and g.last_plan_size == 0
    for query in ((b"zz", b"na", 0, 3), (b"an", b"na", 9, 12)):
        idx.exists(b"an", b"na", 1, 3)
        assert idx.exists(*query) is None and g.last_plan_size == 0


def test_exists_plans_only_once_a_cover_pair_meets_the_gap(monkeypatch):
    """An exists builds its plan through ``gapped.plan_cover`` for the first
    cover pair that meets the gap: never for a NO whose pairs all miss it,
    once for a YES however many pairs come before the witness."""
    text = b"a" * 40 + b"b" * 40
    idx = build_gapped_string_index(text, LinearScan())
    plans = []

    def counting_plan(alpha, beta):
        plans.append((alpha, beta))
        return plan_cover(alpha, beta)

    monkeypatch.setattr(gapped, "plan_cover", counting_plan)
    assert idx.exists(b"b", b"a", 0, 9) is None  # every b follows every a
    assert plans == []
    hit = idx.exists(b"a", b"b", 30, 50)
    assert hit is not None and 30 <= hit[1] - hit[0] <= 50
    assert plans == [(30, 50)]
    assert idx.gapped.last_plan_size == plan_cover(30, 50).size


def test_baseline_linear_examples():
    assert baseline_linear_scan(b"abab", b"ab", b"ab", 2, 2) == [(1, 3)]
    assert baseline_linear_scan(b"banana", b"an", b"na", 1, 3) == [(2, 3), (2, 5), (4, 5)]
    assert baseline_linear_scan(b"aaaa", b"a", b"a", 0, 0) == [
        (1, 1), (2, 2), (3, 3), (4, 4)]


def test_baseline_linear_counter():
    rng = random.Random(5)
    for _ in range(20):
        text = random_text(rng, rng.randint(10, 400), 2)
        stats = {}
        out = baseline_linear_scan(text, b"aab", b"bba", 0, 3, stats=stats)
        # occ = 0 instances stay linear: recorded constant c = 3.
        if not out:
            assert stats["position_scans"] <= 3 * len(text)


def test_baseline_linear_rejects_bad_gap():
    with pytest.raises(FormatError):
        baseline_linear_scan(b"ab", b"a", b"b", 3, 1)


def test_quadratic_distance_lists():
    qb = QuadraticBaseline(b"abab")
    top = qb._pairs_for_blocks(2, 0, 2, 0, 2, 2)
    assert set(top) >= {(1, 3), (2, 4)}
    assert all(b - a == 2 for a, b in top)


def test_quadratic_stored_bound():
    text = b"abracadabra"
    qb = QuadraticBaseline(text)
    n = len(text)
    assert qb.stored_pairs <= n * n * n.bit_length() ** 2


def test_quadratic_budget_guard():
    with pytest.raises(BudgetError):
        QuadraticBaseline(b"a" * 64, mem_budget=1000)


def test_pattern_cover_size_bound():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 400)
        text = random_text(rng, n, 2)
        idx = build_gapped_string_index(text, LinearScan())
        bound = 2 * (n - 1).bit_length() + 1
        for _ in range(8):
            pattern = random_pattern_from(rng, text, 3)
            s, e = pattern_interval(idx.suffixes, pattern)
            assert len(idx._cover_ids(s, e - 1)) <= bound


def test_three_way_agreement_fuzz():
    rng = random.Random(7)
    for _ in range(8):
        text = random_text(rng, rng.randint(8, 140), rng.choice((2, 3)))
        idx = build_gapped_string_index(text, LinearScan())
        quad = QuadraticBaseline(text)
        for _ in range(6):
            p1 = random_pattern_from(rng, text, 3)
            p2 = random_pattern_from(rng, text, 3)
            lo = rng.randint(0, len(text) // 2)
            hi = lo + rng.randint(0, len(text))
            expected = brute_gapped(text, p1, p2, lo, hi)
            assert baseline_linear_scan(text, p1, p2, lo, hi) == expected
            assert quad.query(p1, p2, lo, hi) == expected
            assert idx.report(p1, p2, lo, hi) == expected


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.5), FullTabulation()])
def test_report_pairs_of_different_cover_pairs_never_repeat(kind, monkeypatch):
    """Each pattern's cover blocks partition its occurrences, so the cover
    pairs' reports are disjoint: the report concatenates them, sorted, with
    no duplicate, and equals the two-finger scan."""
    rng = random.Random(31)
    per_pair = []

    def recording_report(*args, **kwargs):
        pairs = gapped_report(*args, **kwargs)
        per_pair.append(pairs)
        return pairs

    monkeypatch.setattr(textindex, "gapped_report", recording_report)
    several = 0
    for _ in range(6):
        # FullTabulation tabulates every pair of blocks: small texts only.
        n = rng.randint(8, 18) if kind == FullTabulation() else rng.randint(20, 160)
        text = random_text(rng, n, rng.choice((2, 3)))
        idx = build_gapped_string_index(text, kind)
        for _ in range(10):
            p1 = random_pattern_from(rng, text, 2)
            p2 = random_pattern_from(rng, text, 2)
            lo = rng.randint(0, n // 3)
            hi = lo + rng.randint(0, n)
            per_pair.clear()
            got = idx.report(p1, p2, lo, hi)
            assert got == baseline_linear_scan(text, p1, p2, lo, hi)
            assert len(set(got)) == len(got) == sum(len(pairs) for pairs in per_pair)
            several += sum(1 for pairs in per_pair if pairs) > 1
    assert several > 0
