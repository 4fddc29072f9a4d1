import random

from gapindex.backends import FullTabulation, LinearScan, ShiftQuery, brute_force_ssi
from gapindex.generators import random_collection
from gapindex.reporting import (
    build_reporting_index,
    matching_pairs,
    report_3sum,
    report_shift,
)
from gapindex.sets import DyadicSubset, cover_rank_range, ingest_collection


def ceil_log2(n):
    return max(n - 1, 0).bit_length()


def test_report_example():
    c = ingest_collection([[1, 2, 5], [3, 4, 7]], u=8)
    idx = build_reporting_index(c, LinearScan())
    assert report_shift(idx, 1, 2, 2) == [(1, 3), (2, 4), (5, 7)]
    trace = []
    assert report_shift(idx, 1, 2, 40, trace=trace) == []
    assert idx.last_query_calls == 1
    assert [(node.set_a, node.a_lo, node.a_hi, node.set_b, node.b_lo, node.b_hi, cert)
            for node, cert in trace] == [(1, 1, 3, 2, 1, 3, None)]


def test_index_set_counts():
    c = ingest_collection([list(range(1, 9))], u=8)
    idx = build_reporting_index(c, LinearScan())
    assert len(idx.backend.sets) == 1 + 15
    c = ingest_collection([[1, 2, 3, 4], [5, 6, 7, 8]], u=8)
    idx = build_reporting_index(c, LinearScan())
    assert len(idx.backend.sets) == 2 + 7 + 7


def test_index_element_accounting():
    c = ingest_collection([[2, 4, 6], list(range(1, 6)), [9]], u=9)
    idx = build_reporting_index(c, LinearScan())
    direct = sum(
        (len(s) >> j) << j for s in c.sets for j in range(len(s).bit_length())
    )
    assert idx.dyadic_elements == direct
    assert idx.total_elements == c.total_size + direct
    per_set_bound = sum(len(s) * len(s).bit_length() for s in c.sets)
    assert direct <= per_set_bound
    n = c.total_size
    assert idx.total_elements <= n * n.bit_length() + n


def test_report_fuzz_and_query_budget():
    rng = random.Random(23)
    worst_ratio = 0.0
    for _ in range(60):
        k = rng.randint(1, 6)
        u = rng.randint(5, 300)
        c = random_collection(rng, k, rng.randint(k, 150), u)
        idx = build_reporting_index(c, LinearScan())
        n = c.total_size
        budget_unit = 12 * (ceil_log2(n) + 1)
        for _ in range(12):
            i, j = rng.randint(1, k), rng.randint(1, k)
            s = rng.randint(-u, u)
            expected = brute_force_ssi(c, ShiftQuery(i, j, s))
            got = report_shift(idx, i, j, s)
            assert got == expected
            assert len(got) == len(set(got))
            budget = (len(expected) + 1) * budget_unit
            assert idx.last_query_calls <= budget
            worst_ratio = max(worst_ratio, idx.last_query_calls / budget)
    assert worst_ratio <= 1.0


def test_no_straddling_solutions():
    """At every recursion node the witness splits the remaining solutions
    cleanly: any other pair has a' < a exactly when b' < b."""
    rng = random.Random(4)
    for _ in range(25):
        c = random_collection(rng, 2, rng.randint(4, 40), 30)
        idx = build_reporting_index(c, LinearScan())
        s = rng.randint(-30, 30)
        trace = []
        got = report_shift(idx, 1, 2, s, trace=trace)
        sa, sb = c.set(1).elements, c.set(2).elements
        root, root_cert = trace[0]
        assert (root.set_a, root.a_lo, root.a_hi) == (1, 1, len(sa))
        assert (root.set_b, root.b_lo, root.b_hi) == (2, 1, len(sb))
        assert len(trace) == idx.last_query_calls
        if root_cert is None:
            # A miss costs the root's one existence call and nothing else.
            assert got == [] and len(trace) == 1
        for node, cert in trace:
            if cert is None:
                continue
            backend_sets = idx.backend.sets
            in_a = set(backend_sets[node.set_a - 1])
            in_b = set(backend_sets[node.set_b - 1])
            for a in sa:
                if a + s in in_b and a in in_a and a != cert.a:
                    assert (a < cert.a) == (a + s < cert.b)


def test_matching_pairs_examples():
    def block(vmin, vmax):
        return DyadicSubset(1, 0, 0, 1, 1, vmin, vmax)

    a = [block(1, 4)]
    b = [block(5, 6), block(7, 8)]
    assert len(matching_pairs(a, b, 3)) == 2
    assert matching_pairs([block(1, 2)], [block(9, 9)], 1) == []


def test_matching_pairs_fuzz():
    rng = random.Random(8)
    for _ in range(300):
        s = rng.randint(-50, 50)
        values = sorted(rng.sample(range(1, 200), rng.randint(2, 24)))
        split = sorted(rng.sample(range(1, len(values)), rng.randint(1, min(6, len(values) - 1))))
        blocks = []
        prev = 0
        for cut in split + [len(values)]:
            chunk = values[prev:cut]
            blocks.append(DyadicSubset(1, 0, 0, 1, 1, chunk[0], chunk[-1]))
            prev = cut
        cut = rng.randint(1, len(blocks) - 1) if len(blocks) > 1 else 1
        cover_a, cover_b = blocks[:cut], blocks[cut:]
        got = {
            (id(x), id(y)) for x, y in matching_pairs(cover_a, cover_b, s)
        }
        want = {
            (id(x), id(y))
            for x in cover_a
            for y in cover_b
            if x.min_value + s <= y.max_value and y.min_value <= x.max_value + s
        }
        assert got == want
        assert len(got) <= 2 * len(cover_a) + len(cover_b)


def test_matching_pairs_bound_on_real_covers():
    rng = random.Random(14)
    for _ in range(50):
        from gapindex.sets import IntSet

        vals_a = tuple(sorted(rng.sample(range(1, 400), rng.randint(2, 60))))
        vals_b = tuple(sorted(rng.sample(range(1, 400), rng.randint(2, 60))))
        sa, sb = IntSet(1, vals_a), IntSet(2, vals_b)
        cover_a = cover_rank_range(sa, 1, len(vals_a))
        cover_b = cover_rank_range(sb, 1, len(vals_b))
        pairs = matching_pairs(cover_a, cover_b, rng.randint(-100, 100))
        assert len(pairs) <= 2 * len(cover_a) + len(cover_b)


def test_report_3sum_examples():
    assert report_3sum([1, 2, 3, 4], 5) == [(1, 4), (2, 3)]
    assert report_3sum([2], 4) == [(2, 2)]


def test_report_3sum_fuzz():
    rng = random.Random(31)
    for _ in range(25):
        values = sorted(rng.sample(range(1, 120), rng.randint(1, 25)))
        c = rng.randint(2, 240)
        expected = sorted(
            {(min(a, b), max(a, b)) for a in values for b in values if a + b == c}
        )
        assert report_3sum(values, c) == expected


def test_report_fulltab_backend_small():
    c = ingest_collection([[1, 4, 6, 9], [2, 5, 10]], u=10)
    idx = build_reporting_index(c, FullTabulation())
    assert report_shift(idx, 1, 2, 1) == [(1, 2), (4, 5), (9, 10)]
