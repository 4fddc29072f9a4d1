import random

import pytest

from gapindex.backends import LinearScan
from gapindex.errors import BudgetError, FormatError
from gapindex.generators import random_pattern_from, random_text
from gapindex.textindex import (
    QuadraticBaseline,
    baseline_linear_scan,
    build_gapped_string_index,
    build_suffix_array,
    find_occurrences,
    occurrences,
    pattern_interval,
)


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
    assert len(idx.collection.sets) == 7
    assert idx.set_elements == 12
    for (level, block), sid in idx._interval_ids.items():
        lo = block * (1 << level)
        chunk = idx.suffixes.sa[lo : lo + (1 << level)]
        assert idx.collection.set(sid).elements == tuple(sorted(chunk))


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
