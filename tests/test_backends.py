import math
import random
import re

import numpy as np
import pytest

from gapindex.backends import (
    FullTabulation,
    LinearScan,
    ShiftCertificate,
    ShiftQuery,
    SmallUniverse,
    _TabulatedPairs,
    brute_force_ssi,
    build_backend,
    parse_backend,
)
from gapindex.errors import BudgetError, FormatError
from gapindex.generators import random_collection
from gapindex.reductions import reduce_3sum_to_ssi
from gapindex.reporting import AugmentedInstance
from gapindex.sets import ingest_collection

ALL_KINDS = [LinearScan(), FullTabulation(), SmallUniverse(delta=0.5)]


def realized_shifts(c, i, j):
    return {b - a for a in c.set(i).elements for b in c.set(j).elements}


def test_fulltab_stores_enumerated_shifts():
    c = ingest_collection([[1, 3], [4]], u=6)
    backend = build_backend(c, FullTabulation())
    for i in (1, 2):
        for j in (1, 2):
            want = realized_shifts(c, i, j)
            for s in range(-8, 9):
                assert (backend.exists(i, j, s) is not None) == (s in want)
    assert realized_shifts(c, 1, 2) == {3, 1}
    assert 2 in realized_shifts(c, 1, 1) and 0 in realized_shifts(c, 1, 1)
    assert realized_shifts(c, 2, 1) == {-3, -1}
    assert realized_shifts(c, 2, 2) == {0}


def test_linear_scan_stores_n_entries():
    c = ingest_collection([[1, 5, 9], [2, 4], [7]], u=9)
    backend = build_backend(c, LinearScan())
    assert backend.dict_entries == c.total_size


def test_smalluniverse_threshold_boundary():
    # N = 4 singletons at delta = 0: threshold ceil(N^0) = 1, and "large"
    # means strictly bigger, so no set is large and the table stays empty.
    c = ingest_collection([[1], [2], [3], [4]], u=4)
    backend = build_backend(c, SmallUniverse(delta=0.0))
    assert backend.threshold == 1
    assert backend.large == [False] * 4
    assert backend.table.entries == 0
    assert backend.exists(1, 2, 1).a == 1


def test_smalluniverse_large_pairs_use_table():
    c = ingest_collection([list(range(1, 9)), list(range(2, 10)), [5]], u=10)
    backend = build_backend(c, SmallUniverse(delta=0.5))
    assert backend.large == [True, True, False]
    before = backend.probes
    cert = backend.exists(1, 2, 1)
    assert backend.probes == before  # table hit, no probing
    assert cert is not None and cert.a + 1 == cert.b


def test_exists_examples():
    c = ingest_collection([[1, 3], [4]], u=6)
    for kind in ALL_KINDS:
        backend = build_backend(c, kind)
        cert = backend.exists(1, 2, 1)
        assert (cert.a, cert.b) == (3, 4)
        assert backend.exists(1, 2, 2) is None


def test_brute_force_examples():
    c = ingest_collection([[1, 2], [3, 4]], u=6)
    assert brute_force_ssi(c, ShiftQuery(1, 2, 2)) == [(1, 3), (2, 4)]
    assert brute_force_ssi(c, ShiftQuery(1, 2, 10)) == []


def test_backend_agreement_fuzz():
    rng = random.Random(11)
    for _ in range(30):
        k = rng.randint(1, 8)
        u = rng.randint(5, 1000)
        c = random_collection(rng, k, rng.randint(k, 200), u)
        backends = [build_backend(c, kind) for kind in ALL_KINDS]
        for _ in range(200):
            i, j = rng.randint(1, k), rng.randint(1, k)
            s = rng.randint(-u, u)
            expected = brute_force_ssi(c, ShiftQuery(i, j, s))
            certs = [b.exists(i, j, s) for b in backends]
            for cert in certs:
                assert (cert is not None) == bool(expected)
                if cert is not None:
                    # All backends return the smallest-a witness.
                    assert (cert.a, cert.b) == expected[0]
                    assert cert.a in c.set(i).elements
                    assert cert.b in c.set(j).elements
                    assert cert.a + s == cert.b


def test_budget_guard():
    c = ingest_collection([list(range(1, 50)), list(range(1, 50))], u=64)
    with pytest.raises(BudgetError):
        build_backend(c, SmallUniverse(delta=0.0), mem_budget=100)
    with pytest.raises(BudgetError):
        build_backend(c, FullTabulation(), mem_budget=100)


def test_fulltab_entry_count_matches_enumeration():
    rng = random.Random(2)
    for _ in range(10):
        c = random_collection(rng, rng.randint(1, 5), rng.randint(5, 60), 80)
        backend = build_backend(c, FullTabulation())
        expected = sum(
            len(realized_shifts(c, i, j))
            for i in range(1, c.k + 1)
            for j in range(1, c.k + 1)
        )
        assert backend.table.entries == expected


def test_parse_backend():
    assert parse_backend("linear") == LinearScan()
    assert parse_backend("fulltab") == FullTabulation()
    assert parse_backend("smalluniverse", 0.25) == SmallUniverse(delta=0.25)
    with pytest.raises(ValueError):
        parse_backend("nope")
    with pytest.raises(ValueError):
        parse_backend("smalluniverse", 1.5)
    assert parse_backend("smalluniverse", 1) == SmallUniverse(delta=1)
    for delta in (True, False, "0.5", None):
        with pytest.raises(ValueError, match=re.escape(f"number in [0, 1], got {delta!r}")):
            parse_backend("smalluniverse", delta)


def test_space_accounting_monotone_in_delta():
    rng = random.Random(5)
    c = random_collection(rng, 6, 120, 40)
    sizes = []
    probes = []
    queries = [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(-40, 40)) for _ in range(300)]
    for delta in (0.0, 0.5, 1.0):
        backend = build_backend(c, SmallUniverse(delta=delta))
        sizes.append(backend.space_bytes())
        for i, j, s in queries:
            backend.exists(i, j, s)
        probes.append(backend.probes)
    assert sizes == sorted(sizes, reverse=True)
    assert probes == sorted(probes)


def test_kind_sets_threshold_and_accounting():
    # N = 7 over sets of sizes 4, 2, 1; ceil(7^0.5) = 3.
    c = ingest_collection([[1, 2, 3, 4], [2, 5], [7]], u=8)
    all_pairs = sum(
        len(realized_shifts(c, i, j)) for i in (1, 2, 3) for j in (1, 2, 3)
    )
    expected = {
        # kind: (threshold, large, dict_entries, table entries)
        LinearScan(): (math.inf, [False] * 3, 7, 0),
        FullTabulation(): (-1, [True] * 3, 0, all_pairs),
        SmallUniverse(delta=0.5): (3, [True, False, False], 7, 7),
    }
    for kind, (threshold, large, dict_entries, entries) in expected.items():
        backend = build_backend(c, kind)
        assert backend.threshold == threshold
        assert backend.large == large
        assert backend.dict_entries == dict_entries
        assert backend.table.entries == entries
        assert backend.space_bytes() == 8 * dict_entries + 24 * entries
    assert build_backend(c, FullTabulation()).members == []


def test_raw_input_with_an_empty_set():
    sets = [(1, 3), (), (4,)]
    for kind in ALL_KINDS:
        backend = build_backend(sets, kind)
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                for s in range(-5, 6):
                    cert = backend.exists(i, j, s)
                    expected = brute_force_ssi(sets, ShiftQuery(i, j, s))
                    assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None)
    # FullTabulation tabulates the empty set too; its pairs hold no shifts.
    fulltab = build_backend(sets, FullTabulation())
    assert fulltab.large == [True, True, True]
    assert fulltab.table.entries == 3 + 2 + 2 + 1


def test_build_backend_rejects_a_non_kind():
    c = ingest_collection([[1, 2], [3]], u=4)
    with pytest.raises(ValueError):
        build_backend(c, "linear")


def test_c11_instance_bytes_and_probes_are_pinned():
    # The acceptance suite's C11 instance: N = 10^4 with sizes straddling N^0.5.
    rng = random.Random(111)
    sizes = [40] * 20 + [460] * 20
    u = 1000
    c = ingest_collection([rng.sample(range(1, u + 1), size) for size in sizes], u)
    queries = [
        (rng.randint(1, c.k), rng.randint(1, c.k), rng.randint(-u, u))
        for _ in range(2000)
    ]
    space, probes = [], []
    for delta in (0.0, 0.5, 1.0):
        backend = build_backend(c, SmallUniverse(delta=delta), mem_budget=1 << 31)
        space.append(backend.space_bytes())
        for i, j, s in queries:
            backend.exists(i, j, s)
        probes.append(backend.probes)
    assert space == [65193440, 19211168, 80000]
    assert probes == [0, 26923, 89874]


def _random_side(rng, size, lo, hi):
    return tuple(sorted(rng.sample(range(lo, hi), size)))


_FAR_SHIFTS = [2**31, -2**31 - 1, 2**40, -2**40, 2**70, -2**70]


def _reads(table, i, j, shifts, whole):
    """Every read of (i, j): each shift's ``lookup``, and ``smallest`` and
    ``realized`` of each gap [s, s + 2], of ``whole`` and of far gaps."""
    gaps = [(s, s + 2) for s in shifts] + [whole, (2**31, 2**40), (-2**70, 2**70)]
    return ([table.lookup(i, j, s) for s in shifts + _FAR_SHIFTS],
            [(table.smallest(i, j, *g), table.realized(i, j, *g)) for g in gaps])


def test_pair_shift_certs_numpy_matches_dict_path():
    rng = random.Random(8)
    # (|sa|, |sb|, value range): products at and just under 64, one-element
    # sides, negative values, and ranges narrower and wider than the product.
    shapes = [(8, 8, (-20, 20)), (8, 8, (-2000, 2000)), (1, 64, (-100, 100)),
              (64, 1, (-10**6, 10**6)), (7, 9, (-30, 30)), (1, 1, (-5, 5)),
              (30, 40, (-50, 60)), (30, 40, (-10**9, 10**9)), (200, 3, (0, 250))]
    branches = set()
    for na, nb, (lo, hi) in shapes:
        for _ in range(20):
            sa, sb = _random_side(rng, na, lo, hi), _random_side(rng, nb, lo, hi)
            with_np, without = _TabulatedPairs(), _TabulatedPairs()
            with_np.add_pair(1, 2, sa, sb, np.asarray(sa, np.int64), np.asarray(sb, np.int64))
            without.add_pair(1, 2, sa, sb)
            assert (with_np.entries, with_np.pairs) == (without.entries, without.pairs)
            d_lo, d_hi = sb[0] - sa[-1], sb[-1] - sa[0]
            # Each order over its difference range and two shifts past either
            # end; a wide range over its ends and the shifts next to each
            # realized one.
            for i, j, s_lo, s_hi in ((1, 2, d_lo, d_hi), (2, 1, -d_hi, -d_lo)):
                if s_hi - s_lo <= 1000:
                    shifts = list(range(s_lo - 2, s_hi + 3))
                else:
                    realized = without.realized(i, j, s_lo, s_hi)
                    shifts = sorted({t + e for t in realized for e in (-1, 0, 1)}
                                    | {*range(s_lo - 2, s_lo + 3), *range(s_hi - 2, s_hi + 3)})
                whole = (s_lo - 2, s_hi + 2)
                assert _reads(with_np, i, j, shifts, whole) == _reads(without, i, j, shifts, whole)
            assert isinstance(without._pairs[(1, 2)][1], list)
            if na * nb >= 64:
                assert not isinstance(with_np._pairs[(1, 2)][1], list)
                width = (sb[-1] - sb[0]) + (sa[-1] - sa[0]) + 1
                branches.add("scatter" if width <= na * nb else "sort")
    assert branches == {"scatter", "sort"}


def test_wide_3sum_reduction_agrees_with_the_oracle():
    rng = random.Random(9)
    values = rng.sample(range(1, 10**7), 40)
    collection, _ = reduce_3sum_to_ssi(values)
    # The values spread far wider than 40 x 40 differences: the sort branch.
    first, second = (s.elements for s in collection.sets)
    assert (first[-1] - first[0]) + (second[-1] - second[0]) + 1 > 40 * 40
    for kind in (FullTabulation(), SmallUniverse(delta=0.0)):
        backend = build_backend(collection, kind)
        assert backend.table.entries > 0
        for i in (1, 2):
            for j in (1, 2):
                shifts = [b - a for a in collection.set(i).elements
                          for b in collection.set(j).elements]
                for s in rng.sample(shifts, 30) + [rng.randint(-10**7, 10**7) for _ in range(30)]:
                    expected = brute_force_ssi(collection, ShiftQuery(i, j, s))
                    cert = backend.exists(i, j, s)
                    assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None)


def test_tables_narrow_to_int32_and_reject_shifts_outside_it():
    """A numpy table whose shifts and a-values fit in int32 is stored as
    array('i'), any other as array('q'). Both answer as the oracle, and a shift
    outside int32 (or outside the table's own range) is a miss."""
    rng = random.Random(10)
    top = 2**31
    collections = [
        [_random_side(rng, 12, 1, 1000) for _ in range(2)],
        [_random_side(rng, 12, -top, -top + 500), _random_side(rng, 12, 1, 500)],
        [_random_side(rng, 12, top - 500, top + 500) for _ in range(2)],
    ]
    codes = set()
    for sets in collections:
        backend = build_backend(sets, FullTabulation())
        for i in (1, 2):
            for j in (1, 2):
                realized = sorted({b - a for a in sets[i - 1] for b in sets[j - 1]})
                lo, shifts, avals, mirrored = backend.table._pairs[(i, j)]
                assert lo is None
                # A mirror reads the table stored for (j, i): its a-values
                # are set j's and its shifts are (i, j)'s negated.
                stored = sets[j - 1] if mirrored else sets[i - 1]
                low, high = (-realized[-1], -realized[0]) if mirrored else (realized[0], realized[-1])
                fits = -top <= min(low, stored[0]) and max(high, stored[-1]) < top
                assert shifts.typecode == avals.typecode == ("i" if fits else "q")
                codes.add(shifts.typecode)
                probe = realized + [realized[0] - 1, realized[-1] + 1,
                                    top, top - 1, -top, -top - 1, 2**40, -2**40, 2**70]
                for s in probe:
                    expected = brute_force_ssi(sets, ShiftQuery(i, j, s))
                    cert = backend.exists(i, j, s)
                    assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None)
    assert codes == {"i", "q"}


def _walked(sa, a_lo, a_hi, sb, b_lo, b_hi, s):
    """Elements ``scan``'s walk at shift s visits: those of the smaller rank
    range whose partner lies between the other range's first and last
    elements; none when a range is empty."""
    if a_hi < a_lo or b_hi < b_lo:
        return 0
    if a_hi - a_lo <= b_hi - b_lo:
        first, last = sb[b_lo - 1], sb[b_hi - 1]
        return sum(1 for x in sa[a_lo - 1:a_hi] if first <= x + s <= last)
    first, last = sa[a_lo - 1], sa[a_hi - 1]
    return sum(1 for y in sb[b_lo - 1:b_hi] if first <= y - s <= last)


def _check_pass(backend, sets, i, j, shifts):
    """One ``scan_shifts`` pass against ``scan``, the oracle and the walk
    count; returns whether the pass walked. A walking pass is one scan."""
    sa, sb = sets[i - 1], sets[j - 1]
    walks = max(len(sa), len(sb)) > len(shifts)
    before, scans = backend.probes, backend.scans
    found = backend.scan_shifts(i, j, shifts)
    assert backend.scans - scans == walks
    walked = sum(_walked(sa, 1, len(sa), sb, 1, len(sb), s) for s in shifts) if walks else 0
    assert backend.probes - before == walked
    assert {b - a for a, b in found} <= set(shifts)
    for s in shifts:
        want = brute_force_ssi(sets, ShiftQuery(i, j, s))
        got = [(a, b) for a, b in found if b - a == s]
        assert bool(got) == bool(want)
        assert got == want, (sa, sb, s)
        scans = backend.scans
        assert backend.scan(i, 1, len(sa), j, 1, len(sb), (s,)) == want
        # An empty rank range on either side has no pair.
        assert backend.scan(i, len(sa) + 1, len(sa), j, 1, len(sb), (s,)) == []
        assert backend.scan(i, 1, len(sa), j, len(sb) + 1, len(sb), (s,)) == []
        assert backend.scans - scans == 3
    return walks, walked


def test_scan_shifts_matches_scan_and_the_oracle():
    rng = random.Random(71)
    branches = set()
    for kind in (LinearScan(), SmallUniverse(delta=0.5)):
        for _ in range(40):
            sets = [
                tuple(sorted(rng.sample(range(-60, 300), rng.choice((0, 1, 2, 5, 9, 14, 30)))))
                for _ in range(rng.randint(2, 6))
            ]
            backend = build_backend(sets, kind)
            for _ in range(12):
                i, j = rng.randint(1, len(sets)), rng.randint(1, len(sets))
                sa, sb = sets[i - 1], sets[j - 1]
                if min(len(sa), len(sb)) > backend.threshold:
                    continue  # tabulated: report_shift asks each shift
                realized = sorted({b - a for a in sa for b in sb})
                shifts = rng.sample(realized, min(len(realized), rng.randint(0, 6)))
                shifts += [rng.randint(-400, 400) for _ in range(rng.randint(0, 6))]
                # Past both ends of the differences, and far outside them.
                low = (sb[0] if sb else 0) - (sa[-1] if sa else 0)
                high = (sb[-1] if sb else 0) - (sa[0] if sa else 0)
                shifts += [low - 1, high + 1, low - 100, high + 100, -(1 << 40), 1 << 40]
                shifts = list(dict.fromkeys(shifts))[: rng.randint(1, 14)]
                branches.add(_check_pass(backend, sets, i, j, shifts)[0])
    assert branches == {False, True}
    assert build_backend([(), ()], LinearScan()).scan(1, 1, 0, 2, 1, 0, (0,)) == []


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.5)])
def test_scan_shifts_lists_up_to_the_shift_count(kind):
    """The larger side at the shift count lists (no probes); one more walks."""
    shifts = [10, 11, 12, 13, 14]
    for extra in (0, 1):
        small = (0,)
        large = tuple(range(10, 15 + extra))
        for sets, i, j in (([small, large], 1, 2), ([large, small], 1, 2)):
            # Read from the b side, the shifts are negated.
            asked = shifts if sets[0] is small else [-s for s in shifts]
            backend = build_backend(sets, kind)
            walks, walked = _check_pass(backend, sets, i, j, asked)
            assert walks == bool(extra)
            # Each shift's walk visits the one small element.
            assert walked == (len(shifts) if extra else 0)
        both = [tuple(range(0, 5 + extra)), tuple(range(10, 15 + extra))]
        walks, walked = _check_pass(build_backend(both, kind), both, 1, 2, shifts)
        assert walks == bool(extra) and walked >= 5 * extra


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.5)])
def test_scan_over_many_shifts_is_the_one_shift_scans_in_order(kind):
    """One call over several shifts returns the one-shift scans concatenated
    in the order the shifts are given, counts one scan and walks the sum of
    the bisected windows; an empty range walks nothing."""
    rng = random.Random(83)
    checked = 0
    for _ in range(60):
        sets = [tuple(sorted(rng.sample(range(-50, 200), rng.randint(0, 24))))
                for _ in range(rng.randint(2, 4))]
        backend = build_backend(sets, kind)
        i, j = rng.randint(1, len(sets)), rng.randint(1, len(sets))
        sa, sb = sets[i - 1], sets[j - 1]
        # Ranks that may leave a range empty, within or past each set.
        a_lo, b_lo = rng.randint(1, len(sa) + 1), rng.randint(1, len(sb) + 1)
        a_hi = rng.randint(a_lo - 1, len(sa))
        b_hi = rng.randint(b_lo - 1, len(sb))
        realized = sorted({b - a for a in sa[a_lo - 1:a_hi] for b in sb[b_lo - 1:b_hi]})
        shifts = rng.sample(realized, min(len(realized), rng.randint(0, 4)))
        shifts += [rng.randint(-300, 300) for _ in range(rng.randint(1, 4))]
        shifts = list(dict.fromkeys(shifts))
        rng.shuffle(shifts)
        ranges = (i, a_lo, a_hi, j, b_lo, b_hi)
        scans, probes = backend.scans, backend.probes
        found = backend.scan(*ranges, shifts)
        assert backend.scans - scans == 1
        assert backend.probes - probes == sum(
            _walked(sa, a_lo, a_hi, sb, b_lo, b_hi, s) for s in shifts)
        assert found == [pair for s in shifts for pair in backend.scan(*ranges, (s,))]
        assert backend.scans - scans == 1 + len(shifts)
        for s in shifts:
            want = [(a, b) for a, b in brute_force_ssi(sets, ShiftQuery(i, j, s))
                    if a in sa[a_lo - 1:a_hi] and b in sb[b_lo - 1:b_hi]]
            assert [(a, b) for a, b in found if b - a == s] == want
        if a_hi < a_lo or b_hi < b_lo:
            assert found == [] and backend.probes == probes
        checked += len(found)
    assert checked > 20


def _meets_walk(sa, sb, lo, hi):
    """The elements ``meets`` walks: none when the difference range misses
    [lo, hi] or a set is empty, else the smaller set (set i on a tie) up to
    its first element with a partner in [lo, hi] or with no partner left
    above it."""
    if not sa or not sb or sb[-1] - sa[0] < lo or sb[0] - sa[-1] > hi:
        return 0
    if len(sa) <= len(sb):
        stops = [any(lo <= b - a <= hi for b in sb) or a + lo > sb[-1] for a in sa]
    else:
        stops = [any(lo <= b - a <= hi for a in sa) or b - hi > sa[-1] for b in sb]
    return stops.index(True) + 1 if True in stops else len(stops)


def test_meets_examples():
    backend = build_backend([(1, 5, 9), (4,), (), (2, 3, 20, 40)], LinearScan())
    # (1, 2) has the differences -5, -1 and 3: either end of the range meets.
    assert backend.meets(1, 2, 3, 3) and backend.meets(1, 2, -5, -5)
    assert not backend.meets(1, 2, 4, 10) and not backend.meets(1, 2, -9, -6)
    assert backend.probes == 2
    # Inside the range, set 2 walks its one element: 4 - 5 is below 0.
    assert not backend.meets(1, 2, 0, 2) and backend.probes == 3
    # The smaller set on the other hand: 5 - 4 = 1.
    assert backend.meets(2, 1, 1, 1) and backend.probes == 4
    # A set against itself: every a - a = 0, no other difference below 4.
    assert backend.meets(1, 1, 0, 0) and backend.probes == 5
    assert not backend.meets(1, 1, 1, 3) and backend.probes == 8
    # An empty set meets nothing and walks nothing.
    assert not backend.meets(3, 1, -100, 100) and not backend.meets(1, 3, -100, 100)
    # Set 1 walks against set 4: 1 - 40 is the lowest difference. For
    # [-38, -36], 1 has no partner and nothing is left above 5 - 41.
    assert backend.meets(4, 1, -39, -39) and backend.probes == 9
    assert not backend.meets(4, 1, -38, -36) and backend.probes == 11
    assert backend.scans == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_meets_refuses_set_ids_out_of_range(kind):
    """An id outside 1..len(sets) raises the FormatError of ``exists``:
    id 0 would read the last set through a negative index."""
    backend = build_backend([(1, 2), (5,)], kind)
    for i, j in ((0, 1), (1, 0), (-1, 2), (3, 1), (1, 3)):
        with pytest.raises(FormatError, match=r"out of range 1\.\.2"):
            backend.meets(i, j, -4, -3)
        with pytest.raises(FormatError, match=r"out of range 1\.\.2"):
            backend.exists(i, j, 3)
    assert backend.meets(1, 2, 3, 4) and not backend.meets(2, 1, 3, 4)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_meets_is_some_difference_in_the_gap(kind):
    """``meets`` equals the brute-force "some b - a in [lo, hi]" and moves
    no call counter. An untabulated pair adds the elements it walks to
    ``probes``; a tabulated pair reads its table and walks nothing."""
    rng = random.Random(89)
    seen = set()
    for _ in range(25):
        sets = [tuple(sorted(rng.sample(range(-40, 160), rng.choice((0, 1, 1, 2, 5, 9, 20)))))
                for _ in range(rng.randint(1, 4))]
        inst = AugmentedInstance(sets, kind)
        backend = inst.backend
        for _ in range(12):
            i, j = rng.randint(1, len(sets)), rng.randint(1, len(sets))
            sa, sb = sets[i - 1], sets[j - 1]
            diffs = {b - a for a in sa for b in sb}
            gaps = [(lo, lo + rng.randint(0, 30)) for lo in rng.sample(range(-220, 220), 6)]
            if diffs:
                # Touching either end of the difference range, or just past it.
                low, high = min(diffs), max(diffs)
                gaps += [(low, low), (high, high), (low - 5, low), (high, high + 5),
                         (low - 5, low - 1), (high + 1, high + 5)]
            for lo, hi in gaps:
                probes, calls = backend.probes, inst.ssi_calls()
                got = backend.meets(i, j, lo, hi)
                assert got == any(lo <= d <= hi for d in diffs), (sets, i, j, lo, hi)
                walked = 0 if backend.tabulated(i, j) else _meets_walk(sa, sb, lo, hi)
                assert backend.probes - probes == walked
                assert inst.ssi_calls() == calls and inst.existence_calls == 0
                assert backend.scans == 0
                seen.add(got)
            seen.add("tabulated" if backend.tabulated(i, j) else "walked")
            seen.add("same set" if i == j else "smaller i" if len(sa) < len(sb)
                     else "smaller j" if len(sb) < len(sa) else "tie")
            seen.update(f"{len(s)} elements" for s in (sa, sb) if len(s) < 2)
    assert seen >= {True, False, "same set", "smaller i", "smaller j",
                    "0 elements", "1 elements"}
    routes = {"linear": {"walked"}, "fulltab": {"tabulated"}}.get(kind.name,
                                                                  {"walked", "tabulated"})
    assert seen & {"walked", "tabulated"} == routes


def test_an_instance_without_blocks_shares_its_sets_and_keeps_one_block_id():
    """A list of element tuples is the backend's own ``sets``, with no copy,
    and an instance that stores no block keeps one first-block id for all."""
    base = [(1, 2, 5), (3,), ()]
    inst = AugmentedInstance(base, LinearScan())
    assert inst.base is base and inst.backend.sets is base
    assert inst.first_block == 4
    assert [inst.first_block_id(i) for i in (1, 2, 3)] == [4, 4, 4]
    # Any other sequence of sets is copied into a list of tuples.
    assert build_backend([[1, 2], (3,)], LinearScan()).sets == [(1, 2), (3,)]
    assert build_backend(((1, 2), (3,)), LinearScan()).sets == [(1, 2), (3,)]
    collection = ingest_collection([[1, 2], [3]], u=4)
    assert build_backend(collection, LinearScan()).sets == [(1, 2), (3,)]
    # Stored blocks leave the sets shared; they take the ids after them,
    # and each set keeps its own first one.
    stored = AugmentedInstance(base, FullTabulation())
    assert stored.backend.sets is base and stored.backend.last_block == 3 + 5
    assert [stored.first_block_id(i) for i in (1, 2, 3)] == [4, 8, 9]
    # Ids 4..6 are the blocks (1,), (2,), (5,) of set 1; 8 is set 2's (3,).
    assert stored.backend.exists(4, 8, 2) == ShiftCertificate(1, 3)
    assert stored.backend.exists(6, 5, -3) == ShiftCertificate(5, 2)


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.5)])
def test_scan_pairs_hold_the_sets_own_ints(kind):
    """A kept answer shares the stored sets' int objects: a scan reads each
    pair's partner from its set, whichever side it walks. Values above 256
    are not cached by the interpreter, so a computed one would be a new
    object."""
    rng = random.Random(97)
    checked = 0
    for _ in range(30):
        sets = [tuple(sorted(rng.sample(range(1000, 1400), rng.randint(1, 30))))
                for _ in range(3)]
        backend = build_backend(sets, kind)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        sa, sb = sets[i - 1], sets[j - 1]
        shifts = list({b - a for a in sa for b in sb})[:6]
        ids_a, ids_b = {id(a) for a in sa}, {id(b) for b in sb}
        for a, b in backend.scan(i, 1, len(sa), j, 1, len(sb), shifts):
            assert id(a) in ids_a and id(b) in ids_b, (a, b)
            checked += 1
    assert checked > 100
