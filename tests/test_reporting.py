import gc
import random
import tracemalloc

import pytest

from gapindex import reporting
from gapindex.backends import (
    FullTabulation,
    LinearScan,
    ShiftCertificate,
    ShiftQuery,
    SmallUniverse,
    brute_force_ssi,
    build_backend,
)
from gapindex.errors import FormatError, GapIndexError
from gapindex.gapped import build_gapped_index
from gapindex.generators import random_collection, random_text
from gapindex.reporting import (
    build_reporting_index,
    matching_pairs,
    report_3sum,
    report_shift,
)
from gapindex.sets import (
    cover_blocks,
    ingest_collection,
    level_starts,
)
from gapindex.textindex import build_gapped_string_index


def ceil_log2(n):
    return max(n - 1, 0).bit_length()


def test_report_example():
    # FullTabulation answers every node by a lookup: a miss is one lookup.
    c = ingest_collection([[1, 2, 5], [3, 4, 7]], u=8)
    idx = build_reporting_index(c, FullTabulation())
    assert report_shift(idx, 1, 2, 2) == [(1, 3), (2, 4), (5, 7)]
    trace = []
    assert report_shift(idx, 1, 2, 40, trace=trace) == []
    assert idx.last_query_calls == 1
    assert [(node.set_a, node.a_lo, node.a_hi, node.set_b, node.b_lo, node.b_hi, cert)
            for node, cert in trace] == [(1, 1, 3, 2, 1, 3, None)]
    # LinearScan answers the root by one scan, hit or miss.
    idx = build_reporting_index(c, LinearScan())
    for s, want in ((2, [(1, 3), (2, 4), (5, 7)]), (40, [])):
        trace = []
        assert report_shift(idx, 1, 2, s, trace=trace) == want
        assert idx.last_query_calls == 1 and idx.existence_calls == 0
        assert [(node.set_a, node.a_lo, node.a_hi, node.set_b, node.b_lo, node.b_hi, pairs)
                for node, pairs in trace] == [(1, 1, 3, 2, 1, 3, want)]
    assert idx.backend.scans == 2


def test_index_set_counts():
    c = ingest_collection([list(range(1, 9))], u=8)
    idx = build_reporting_index(c, FullTabulation())
    assert len(idx.backend.sets) == 1 + 15
    assert len(build_reporting_index(c, LinearScan()).backend.sets) == 1
    c = ingest_collection([[1, 2, 3, 4], [5, 6, 7, 8]], u=8)
    idx = build_reporting_index(c, FullTabulation())
    assert len(idx.backend.sets) == 2 + 7 + 7
    assert len(build_reporting_index(c, LinearScan()).backend.sets) == 2


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
    cleanly: any other pair has a' < a exactly when b' < b. Under
    FullTabulation every node is a lookup; LinearScan gives the same pairs."""
    rng = random.Random(4)
    for _ in range(25):
        c = random_collection(rng, 2, rng.randint(4, 40), 30)
        idx = build_reporting_index(c, FullTabulation())
        s = rng.randint(-30, 30)
        trace = []
        got = report_shift(idx, 1, 2, s, trace=trace)
        assert got == report_shift(build_reporting_index(c, LinearScan()), 1, 2, s)
        assert got == brute_force_ssi(c, ShiftQuery(1, 2, s))
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
    # One block over all of elements_a, two over elements_b.
    a, b = (1, 4), (5, 6, 7, 8)
    assert len(matching_pairs(a, [(1, 0, 1, 2)], b, [(1, 0, 1, 2), (1, 1, 3, 4)], 3)) == 2
    assert matching_pairs((1, 2), [(1, 0, 1, 2)], (9,), [(0, 0, 1, 1)], 1) == []


def test_matching_pairs_fuzz():
    rng = random.Random(8)
    for _ in range(300):
        s = rng.randint(-50, 50)
        values = tuple(sorted(rng.sample(range(1, 200), rng.randint(2, 24))))
        split = sorted(rng.sample(range(1, len(values)), rng.randint(1, min(6, len(values) - 1))))
        # Blocks of any length over one sorted tuple: matching_pairs reads
        # only a block's end ranks.
        blocks = []
        prev = 0
        for cut in split + [len(values)]:
            blocks.append((0, len(blocks), prev + 1, cut))
            prev = cut
        cut = rng.randint(1, len(blocks) - 1) if len(blocks) > 1 else 1
        cover_a, cover_b = blocks[:cut], blocks[cut:]
        got = matching_pairs(values, cover_a, values, cover_b, s)
        want = [
            (x, y)
            for x in cover_a
            for y in cover_b
            if values[x[2] - 1] + s <= values[y[3] - 1] and values[y[2] - 1] <= values[x[3] - 1] + s
        ]
        assert got == want
        assert len(got) <= 2 * len(cover_a) + len(cover_b)


def test_matching_pairs_bound_on_real_covers():
    rng = random.Random(14)
    for _ in range(50):
        vals_a = tuple(sorted(rng.sample(range(1, 400), rng.randint(2, 60))))
        vals_b = tuple(sorted(rng.sample(range(1, 400), rng.randint(2, 60))))
        cover_a = cover_blocks(1, len(vals_a))
        cover_b = cover_blocks(1, len(vals_b))
        pairs = matching_pairs(vals_a, cover_a, vals_b, cover_b, rng.randint(-100, 100))
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


def test_dyadic_accounting_guard_raises(monkeypatch):
    # One 4-element set meets the bound N*(floor(log2 N)+1) + N = 16 exactly;
    # doubling every dyadic block must be refused, also under python -O.
    c = ingest_collection([[1, 2, 3, 4]], u=4)
    assert build_reporting_index(c, LinearScan()).total_elements == 16
    original = reporting.dyadic_block_elements
    monkeypatch.setattr(reporting, "dyadic_block_elements", lambda m: 2 * original(m))
    with pytest.raises(GapIndexError, match="dyadic accounting bound"):
        build_reporting_index(c, LinearScan())


def test_report_certificate_outside_node_guard_raises(monkeypatch):
    # A backend whose blocks answer from their whole base set: at shift 1
    # the node for ranks [3, 4] x [5, 8] is answered with (3, 4), whose b
    # has rank 4. Only lookups return certificates, and FullTabulation
    # looks up every node.
    c = ingest_collection([[1, 2, 3, 4, 5, 6, 7, 8]], u=8)
    inst = build_reporting_index(c, FullTabulation())
    assert report_shift(inst, 1, 1, 1) == [(a, a + 1) for a in range(1, 8)]
    backend = inst.backend
    members = frozenset(c.set(1).elements)

    def base_set_exists(i, j, s):
        sa, sb = backend.sets[i - 1], backend.sets[j - 1]
        if len(sa) <= len(sb):
            hits = [a for a in sa if a + s in members]
        else:
            hits = [b - s for b in sb if b - s in members]
        return ShiftCertificate(hits[0], hits[0] + s) if hits else None

    monkeypatch.setattr(backend, "exists", base_set_exists)
    with pytest.raises(GapIndexError, match=r"certificate \(3, 4\) of shift 1 is not in ranks"):
        report_shift(inst, 1, 1, 1)


def _instances(g):
    return [g.exact] + [lvl.instance for lvl in g.levels]


def _assert_member_rule(inst):
    """A build makes no member set; asking one makes and keeps it."""
    backend = inst.backend
    assert len(backend.members) == len(inst.base)
    assert backend.members == [None] * len(inst.base)
    for t, elements in enumerate(inst.base):
        member = backend.member(t + 1)
        assert backend.members[t] is member
        assert backend.sets[t] == elements
        if len(elements) <= 8:
            assert member is backend.sets[t]
        else:
            assert isinstance(member, frozenset) and member == frozenset(elements)
    assert backend.dict_entries == sum(map(len, backend.sets))


def test_member_rule_on_a_string_index_and_a_skewed_collection():
    """A set of at most 8 elements is its own member set, a larger one a
    frozenset, and only the base sets keep one."""
    idx = build_gapped_string_index(random_text(random.Random(5), 400, 4), LinearScan())
    for inst in _instances(idx.gapped):
        _assert_member_rule(inst)
    # The benchmark's set-questions shape, scaled down: small and large sets
    # under SmallUniverse, whose exact instances store the large sets' upper
    # blocks at delta 0.4; quotient levels, built under LinearScan, store
    # none.
    sizes = [16] * 10 + [200] * 10
    c = random_collection(random.Random(21), len(sizes), sum(sizes), 8192, sizes)
    for kind in (SmallUniverse(delta=0.5), SmallUniverse(delta=0.4)):
        g = build_gapped_index(c, kind)
        instances = [build_reporting_index(c, kind)] + _instances(g)
        for inst in instances:
            _assert_member_rule(inst)
        assert all(len(lvl.instance.backend.sets) == c.k for lvl in g.levels)
    assert len(g.exact.backend.sets) > c.k


def test_string_index_memory_is_bounded():
    # The benchmark's string text. The index holds ~9.1 MB; a frozenset
    # member for every set of more than one element would take ~14.5 MB.
    text = random_text(random.Random(21), 2048, 4)
    gc.collect()
    tracemalloc.start()
    try:
        idx = build_gapped_string_index(text, LinearScan())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert idx.text is text
    assert held < 12 << 20, held


def test_blocks_are_table_operands_only():
    """SmallUniverse(0.0) stores every block above one element. Blocks pair
    only with tabulated sets, keep no member set, and an untabulated pair
    naming a block is refused rather than probed."""
    rng = random.Random(17)
    for _ in range(4):
        sizes = [1, rng.randint(20, 40), rng.randint(40, 90), 64]
        c = random_collection(rng, len(sizes), sum(sizes), 300, sizes)
        inst = build_reporting_index(c, SmallUniverse(delta=0.0))
        backend = inst.backend
        k, stored = c.k, len(backend.sets)
        assert stored > k
        assert len(backend.members) == k
        blocks = range(k + 1, stored + 1)
        large = [t for t in range(1, k + 1) if backend.large[t - 1]]
        for b in blocks:
            assert backend.large[b - 1]
            assert all(backend.tabulated(b, t) for t in large + list(blocks))
        small = next(t for t in range(1, k + 1) if len(c.set(t).elements) <= 1)
        assert not backend.tabulated(k + 1, small)
        for i, j in ((k + 1, small), (small, stored)):
            with pytest.raises(FormatError, match="names a block"):
                backend.exists(i, j, 0)
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                shifts = {b - a for a in c.set(i).elements for b in c.set(j).elements}
                for s in rng.sample(sorted(shifts), min(15, len(shifts))) + [10**6]:
                    assert report_shift(inst, i, j, s) == brute_force_ssi(c, ShiftQuery(i, j, s))


def test_scanned_and_mixed_nodes_match_the_oracle():
    """LinearScan answers each report by one scan of the root. SmallUniverse
    thresholds between the block sizes tabulate the root of a pair of large
    sets and scan each child with a side at or below the threshold."""
    rng = random.Random(71)
    mixed = 0
    for _ in range(25):
        k = rng.randint(1, 4)
        u = rng.randint(8, 160)
        c = random_collection(rng, k, rng.randint(k, 120), u)
        for kind in [LinearScan()] + [SmallUniverse(delta=d) for d in (0.0, 0.3, 0.45, 0.6)]:
            idx = build_reporting_index(c, kind)
            backend, t = idx.backend, idx.backend.threshold
            for _ in range(8):
                i, j = rng.randint(1, k), rng.randint(1, k)
                sa, sb = c.set(i).elements, c.set(j).elements
                s = rng.choice(sb) - rng.choice(sa) if rng.random() < 0.7 else rng.randint(-u, u)
                probes = backend.probes
                trace = []
                got = report_shift(idx, i, j, s, trace=trace)
                assert got == brute_force_ssi(c, ShiftQuery(i, j, s)), (kind, i, j, s)
                assert len(trace) == idx.last_query_calls
                scans = [pairs for _, pairs in trace if isinstance(pairs, list)]
                if len(sa) <= t or len(sb) <= t:
                    assert len(trace) == 1 and scans == [got]
                else:
                    assert not isinstance(trace[0][1], list)  # the root is looked up
                    mixed += bool(scans)
                walked = 0
                for node, answer in trace:
                    a_size, b_size = node.a_hi - node.a_lo + 1, node.b_hi - node.b_lo + 1
                    if isinstance(answer, list):
                        # A scanned node names the base sets and its rank ranges.
                        assert (node.set_a, node.set_b) == (i, j)
                        assert node is trace[0][0] or min(a_size, b_size) <= t
                        walked += min(a_size, b_size)
                    else:
                        assert a_size > t and b_size > t
                # Lookups probe nothing; a scan walks at most its smaller side.
                assert backend.probes - probes <= walked
    assert mixed > 20


def test_report_shift_builds_no_dyadic_subset(monkeypatch):
    """The recursion splits nodes by ``cover_blocks`` tuples alone; only the
    build slices blocks."""

    def no_slicing(*args):
        raise AssertionError("report_shift sliced a dyadic block")

    rng = random.Random(23)
    cases = []
    for _ in range(12):
        k = rng.randint(1, 3)
        u = rng.randint(8, 120)
        c = random_collection(rng, k, rng.randint(k, 60), u)
        for kind in (FullTabulation(), SmallUniverse(delta=0.0)):
            cases.append((c, build_reporting_index(c, kind)))
    monkeypatch.setattr(reporting, "dyadic_subsets", no_slicing)
    lookups = 0
    for c, idx in cases:
        for _ in range(10):
            i, j = rng.randint(1, c.k), rng.randint(1, c.k)
            sa, sb = c.set(i).elements, c.set(j).elements
            s = rng.choice(sb) - rng.choice(sa)
            before = idx.existence_calls
            assert report_shift(idx, i, j, s) == brute_force_ssi(c, ShiftQuery(i, j, s))
            lookups += idx.existence_calls - before > 1
    assert lookups > 50  # most reports split a certificate


def test_blocks_stored_are_those_a_lookup_addresses():
    """LinearScan stores the k base sets; FullTabulation stores every dyadic
    block under the full layout's ids; SmallUniverse stores the blocks above
    ceil(N^delta), N counting every block, and tabulates what a backend over
    the full layout tabulates."""
    rng = random.Random(73)
    for _ in range(12):
        k = rng.randint(1, 5)
        c = random_collection(rng, k, rng.randint(k, 90), 200)
        full = [s.elements for s in c.sets]
        full_ids = {}
        for p, s in enumerate(c.sets, start=1):
            m = len(s.elements)
            for level in range(m.bit_length()):
                size = 1 << level
                for block in range(m >> level):
                    full.append(s.elements[block * size : (block + 1) * size])
                    full_ids[p, level, block] = len(full)
        assert sum(map(len, full)) == build_reporting_index(c, LinearScan()).total_elements
        assert build_reporting_index(c, LinearScan()).backend.sets == full[:k]
        tab = build_reporting_index(c, FullTabulation())
        assert tab.backend.sets == full
        assert tab.lowest_level == 0
        for delta in (0.0, 0.25, 0.5, 0.75):
            kind = SmallUniverse(delta=delta)
            idx = build_reporting_index(c, kind)
            reference = build_backend(full, kind)
            t = idx.backend.threshold
            assert t == reference.threshold
            large = [block for block in full[k:] if len(block) > t]
            assert idx.backend.sets == full[:k] + large
            assert idx.backend.table.entries == reference.table.entries
            # Every stored block sits at the id the layout computes.
            for (p, level, block), full_id in full_ids.items():
                if 1 << level <= t:
                    continue
                starts = level_starts(len(c.set(p)))
                stored = idx.first_block_id(p) + starts[level] - starts[idx.lowest_level] + block
                assert idx.backend.sets[stored - 1] == full[full_id - 1]


def test_report_shift_refuses_a_block_id_past_the_base_sets():
    # Under fulltab the backend also stores every dyadic block, so id k + 1
    # is a stored set: the range check must count the k base sets only.
    c = ingest_collection([[1, 2, 5, 9], [3, 4, 7], [2, 6]], u=16)
    reporting_index = build_reporting_index(c, FullTabulation())
    exact = build_gapped_index(c, FullTabulation()).exact
    for inst in (reporting_index, exact):
        assert len(inst.backend.sets) > c.k + 1
        for i, j in ((c.k + 1, 1), (1, c.k + 1)):
            with pytest.raises(FormatError, match=rf"set index {c.k + 1} out of range 1\.\.{c.k}$"):
                report_shift(inst, i, j, 1)
