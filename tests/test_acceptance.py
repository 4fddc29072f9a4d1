"""Acceptance suite: one test per criterion, each printing a pass line.

The interesting guarantees here are combinatorial (oracle equivalence,
covering/uncertainty containment, instrumented counter budgets), so every
criterion is checked property-style against an independent brute-force
answer at the sizes fixed below, with counters asserted at their stated
bounds. Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import math
import random
import time

from gapindex.backends import (
    FullTabulation,
    LinearScan,
    SmallUniverse,
    build_backend,
)
from gapindex.gapped import build_gapped_index, gapped_report, plan_cover
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.jumbled import build_jumbled_index, histogram, sliding_window_matches
from gapindex.reductions import reduce_ssi_to_3sum
from gapindex.reporting import build_reporting_index, report_shift
from gapindex.sets import ingest_collection
from gapindex.smallest_shift import build_smallest_shift, smallest_shift
from gapindex.textindex import (
    QuadraticBaseline,
    baseline_linear_scan,
    build_gapped_string_index,
    build_suffix_array,
)


def ceil_log2(n):
    return max(n - 1, 0).bit_length()


def _pass(num, text):
    print(f"ACCEPTANCE C{num:02d} PASS — {text}", flush=True)


def test_c01_ssi_oracle_equivalence():
    rng = random.Random(101)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        k = rng.randint(1, 8)
        u = rng.randint(10, 1000)
        c = random_collection(rng, k, rng.randint(k, 200), u)
        backends = [
            build_backend(c, LinearScan()),
            build_backend(c, FullTabulation()),
            build_backend(c, SmallUniverse(delta=0.5)),
        ]
        members = [frozenset(s.elements) for s in c.sets]
        elements = [s.elements for s in c.sets]
        for _ in range(1000):
            i, j = rng.randint(1, k), rng.randint(1, k)
            if rng.random() < 0.4 and elements[i - 1] and elements[j - 1]:
                s = rng.choice(elements[j - 1]) - rng.choice(elements[i - 1])
            else:
                s = rng.randint(-u, u)
            sa, mb = elements[i - 1], members[j - 1]
            expected = any(a + s in mb for a in sa)
            for backend in backends:
                cert = backend.exists(i, j, s)
                if (cert is not None) != expected:
                    mismatches += 1
                elif cert is not None and not (
                    cert.a + s == cert.b
                    and cert.a in members[i - 1]
                    and cert.b in members[j - 1]
                ):
                    mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    _pass(1, f"3 backends x 200 collections x 1000 queries, 0 mismatches, {elapsed:.1f}s")


def test_c02_reduction_soundness():
    rng = random.Random(102)
    for _ in range(100):
        k = rng.randint(1, 4)
        u = rng.randint(4, 40)
        c = random_collection(rng, k, rng.randint(k, 50), u)
        instance, mapping = reduce_ssi_to_3sum(c)
        sums = {}
        for a in instance.A:
            for b in instance.B:
                sums.setdefault(a + b, (a, b))
        members = [frozenset(s.elements) for s in c.sets]
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                for s in range(-u, u + 1):
                    direct = any(a + s in members[j - 1] for a in c.set(i).elements)
                    encoded = mapping.query(i, j, s)
                    assert (encoded in sums) == direct, (i, j, s)
                    if direct:
                        (pi, e1), (pj, e2) = mapping.decode_pair(*sums[encoded])
                        assert pi == i and pj == j and e1 + s == e2
                        assert e1 in members[i - 1] and e2 in members[j - 1]
    _pass(2, "mapped 3SUM answers equal direct SSI answers for all |s| <= u, certificates decode")


def _reporting_budget_run(rng, kind, instances, max_total):
    """Worst share of the call budget (occ+1)*12*(ceil(log2 n)+1) used by
    report_shift over random instances; every report equals the oracle."""
    worst = 0.0
    for _ in range(instances):
        k = rng.randint(1, 8)
        u = rng.randint(8, 500)
        c = random_collection(rng, k, rng.randint(k, max_total), u)
        idx = build_reporting_index(c, kind)
        n = c.total_size
        unit = 12 * (ceil_log2(n) + 1)
        elements = [s.elements for s in c.sets]
        members = [frozenset(e) for e in elements]
        for _ in range(6):
            i, j = rng.randint(1, k), rng.randint(1, k)
            if rng.random() < 0.5:
                s = rng.choice(elements[j - 1]) - rng.choice(elements[i - 1])
            else:
                s = rng.randint(-u, u)
            expected = sorted(
                (a, a + s) for a in elements[i - 1] if a + s in members[j - 1]
            )
            got = report_shift(idx, i, j, s)
            assert got == expected
            assert len(got) == len(set(got))
            budget = (len(expected) + 1) * unit
            assert idx.last_query_calls <= budget
            worst = max(worst, idx.last_query_calls / budget)
    return worst


def test_c03_reporting_oracle_and_query_budget():
    worst = _reporting_budget_run(random.Random(103), LinearScan(), 200, 200)
    _pass(3, f"reporting equals oracle on 200 instances; worst call budget use {worst:.2f}")


def test_c03_query_budget_over_fulltab():
    # LinearScan reports each pair by one scan; FullTabulation looks up
    # every node, so the split recursion is what spends the budget here.
    # Its build tabulates every pair of blocks, hence the smaller sets.
    worst = _reporting_budget_run(random.Random(103), FullTabulation(), 60, 60)
    _pass(3, f"fulltab reporting equals oracle on 60 instances; worst call budget use {worst:.2f}")


def test_c04_cover_plans_exhaustive():
    worst_queries = 0
    for alpha in range(0, 257):
        for beta in range(alpha, 257):
            plan = plan_cover(alpha, beta)
            target = set(range(alpha, beta + 1))
            assert plan.covered_points() >= target, (alpha, beta)
            assert plan.uncertain_points() <= target, (alpha, beta)
            budget = 3 * (ceil_log2(beta - alpha + 2) + 1)
            assert len(plan.forward_approx) <= budget
            assert len(plan.backward_approx) <= budget
            worst_queries = max(worst_queries, plan.size)
    _pass(4, f"all 0 <= a <= b <= 256 plans cover with contained uncertainty; max plan size {worst_queries}")


def test_c05_gapped_reporting():
    rng = random.Random(105)
    for _ in range(200):
        k = rng.randint(2, 5)
        u = rng.randint(8, 200)
        c = random_collection(rng, k, rng.randint(k, 80), u)
        g = build_gapped_index(c, LinearScan())
        for _ in range(4):
            i, j = rng.randint(1, k), rng.randint(1, k)
            lo = rng.randint(0, u)
            hi = lo + rng.randint(0, u)
            want = sorted(
                (a, b)
                for a in c.set(i).elements
                for b in c.set(j).elements
                if lo <= b - a <= hi
            )
            got = gapped_report(g, i, j, lo, hi)
            assert got == want
            assert g.last_max_multiplicity <= g.last_plan_size
    _pass(5, "gapped reporting equals brute force on 200 instances, multiplicity <= plan size")


def _check_reported(text, p1, p2, pairs):
    for i, j in pairs:
        assert text[i - 1 : i - 1 + len(p1)] == p1
        assert text[j - 1 : j - 1 + len(p2)] == p2


def test_c06_gapped_string_three_way():
    rng = random.Random(106)
    for _ in range(10):
        n = rng.randint(40, 300)
        text = random_text(rng, n, rng.choice((2, 3, 4)))
        index = build_gapped_string_index(text, LinearScan())
        quad = QuadraticBaseline(text)
        for _ in range(10):
            p1 = random_pattern_from(rng, text, 4)
            p2 = random_pattern_from(rng, text, 4)
            lo = rng.randint(0, n // 2)
            hi = lo + rng.randint(0, n)
            linear = baseline_linear_scan(text, p1, p2, lo, hi)
            assert quad.query(p1, p2, lo, hi) == linear
            got = index.report(p1, p2, lo, hi)
            assert got == linear
            _check_reported(text, p1, p2, got)

    n = 2000
    text = random_text(rng, n, 3)
    index = build_gapped_string_index(text, LinearScan())
    for _ in range(15):
        p1 = random_pattern_from(rng, text, 5)
        p2 = random_pattern_from(rng, text, 5)
        lo = rng.randint(0, n // 2)
        hi = lo + rng.randint(0, n // 2)
        linear = baseline_linear_scan(text, p1, p2, lo, hi)
        got = index.report(p1, p2, lo, hi)
        assert got == linear
        _check_reported(text, p1, p2, got)
    _pass(6, "index, two-finger and quadratic baselines agree (100 cases n<=300; index vs linear at n=2000)")


def test_c07_suffix_array_oracle():
    rng = random.Random(107)
    count = 0
    for sigma in (2, 4, 26):
        for _ in range(34):
            if count >= 100:
                break
            n = rng.randint(1, 512)
            text = random_text(rng, n, sigma)
            sa = build_suffix_array(text)
            order = sorted(range(n), key=lambda i: text[i:])
            assert sa.sa == tuple(i + 1 for i in order)
            for t in range(1, n):
                x = text[sa.sa[t - 1] - 1 :]
                y = text[sa.sa[t] - 1 :]
                match = 0
                while match < min(len(x), len(y)) and x[match] == y[match]:
                    match += 1
                assert sa.lcp[t] == match
            count += 1
    assert count >= 100
    _pass(7, "suffix array and LCP match brute-force suffix sort, 100 strings n <= 512")


def test_c08_jumbled_indexing():
    assert histogram("acaacabd", "abcd") == (4, 1, 2, 1)
    rng = random.Random(108)
    for _ in range(100):
        sigma = rng.randint(1, 4)
        n = rng.randint(2, 500)
        text = random_text(rng, n, sigma).decode()
        alphabet = sorted(set(text))
        idx = build_jumbled_index(text, alphabet)
        for _ in range(3):
            if rng.random() < 0.7:
                length = rng.randint(1, n)
                start = rng.randint(0, n - length)
                pattern = histogram(text[start : start + length], idx.alphabet)
            else:
                pattern = tuple(rng.randint(0, 3) for _ in range(idx.sigma))
            expected = sliding_window_matches(text, idx.alphabet, pattern)
            assert idx.report(pattern) == expected
            assert idx.exists(pattern) == bool(expected)
    _pass(8, 'h("acaacabd") = (4,1,2,1); query output equals sliding-window oracle, 100 instances')


def test_c09_smallest_shift():
    rng = random.Random(109)
    build_constant = 6  # recorded C for the build comparison budget
    for _ in range(200):
        c = random_collection(rng, rng.randint(1, 8), rng.randint(4, 250), rng.randint(10, 800))
        idx = build_smallest_shift(c)
        n = c.total_size
        assert idx.build_comparisons <= build_constant * n * (math.isqrt(n - 1) + 1)
        for _ in range(5):
            i, j = rng.randint(1, c.k), rng.randint(1, c.k)
            diffs = [
                b - a for a in c.set(i).elements for b in c.set(j).elements if b >= a
            ]
            expected = min(diffs) if diffs else None
            before = idx.probes
            assert smallest_shift(idx, i, j) == expected
            if i in idx._large_pos and j in idx._large_pos:
                assert idx.probes == before
    _pass(9, f"oracle equivalence on 200 instances; build comparisons <= {build_constant}*N*ceil(sqrt(N))")


def test_c10_space_accounting():
    rng = random.Random(110)
    for _ in range(40):
        c = random_collection(rng, rng.randint(1, 8), rng.randint(4, 300), 1000)
        idx = build_reporting_index(c, LinearScan())
        n = c.total_size
        assert idx.total_elements <= n * n.bit_length() + n
    for _ in range(10):
        n = rng.randint(2, 400)
        text = random_text(rng, n, 3)
        index = build_gapped_string_index(text, LinearScan())
        assert index.set_elements <= n * n.bit_length()
    _pass(10, "dyadic augmentation and suffix-array set accounting hold at build")


def test_c11_bench_delta_trade_off():
    rng = random.Random(111)
    sizes = [40] * 20 + [460] * 20  # N = 10^4 with sizes straddling N^0.5
    u = 1000
    raw = [rng.sample(range(1, u + 1), size) for size in sizes]
    c = ingest_collection(raw, u)
    assert c.total_size == 10_000
    queries = [
        (rng.randint(1, c.k), rng.randint(1, c.k), rng.randint(-u, u))
        for _ in range(2000)
    ]
    space = []
    probes = []
    for delta in (0.0, 0.5, 1.0):
        backend = build_backend(c, SmallUniverse(delta=delta), mem_budget=1 << 31)
        space.append(backend.space_bytes())
        for i, j, s in queries:
            backend.exists(i, j, s)
        probes.append(backend.probes)
    assert space == sorted(space, reverse=True), space
    assert probes == sorted(probes), probes
    assert space[0] > space[1] > space[2]
    assert probes[2] > probes[1] > probes[0]
    _pass(11, f"delta grid on N=10^4: bytes {space} non-increasing, probes {probes} non-decreasing")
