"""Dense row tables of tabulated pairs, against the oracle and the sorted form.

A pair whose difference range is no wider than |A|*|B| is scattered into
one row per shift slot; it stays dense when that is no larger than the
sorted int32 form. Each unordered pair is stored once, with the smaller
set as the row side, and the other order reads it as a mirror. These
tests pin which pairs go dense, at which item type, which order is
stored, and that every lookup, stored or mirrored, answers as
``brute_force_ssi`` and as the dict-built sorted table.
"""

import gc
import random
import tracemalloc
from array import array
from bisect import bisect_left, bisect_right

import numpy as np
import pytest

from gapindex.backends import (
    FullTabulation,
    ShiftQuery,
    SmallUniverse,
    _sorted_certs,
    _TabulatedPairs,
    brute_force_ssi,
    build_backend,
)
from gapindex.generators import random_collection
from gapindex.reporting import ThreeSumReporting

_FAR = [2**31, 2**31 - 1, -2**31, -2**31 - 1, 2**40, -2**40, 2**70, -2**70]


def _side(rng, size, lo, hi):
    return tuple(sorted(rng.sample(range(lo, hi), size)))


def _entry(table, i, j):
    """The stored (lo, rows, values, mirrored) under key (i, j)."""
    return table._pairs[(i, j)]


def _dense(table, i, j):
    """Whether (i, j) is a dense row table: its ``lo`` is an int."""
    return table._pairs[(i, j)][0] is not None


def _layout(table, i, j):
    """Row item type of a dense pair; array typecode or "list" of a sorted one."""
    lo, rows = table._pairs[(i, j)][:2]
    if lo is not None:
        return "B" if isinstance(rows, bytes) else rows.typecode
    return rows.typecode if isinstance(rows, array) else "list"


def _check_every_pair(sets):
    """Every tabulated pair of a ``FullTabulation`` backend answers each
    shift of its difference range, two slots beyond either end and the far
    shifts as the oracle and the sorted (dict-built) table do, in both
    orders. Each unordered pair is stored once, with the smaller set (the
    lower id on a tie) as the row side, and the other order is its mirror,
    sharing every stored object; (i, i) is stored unmirrored. ``entries``
    counts every ordered pair. Returns the backend."""
    backend = build_backend(sets, FullTabulation())
    table = backend.table
    entries = 0
    for i, sa in enumerate(sets, start=1):
        for j, sb in enumerate(sets, start=1):
            mine, theirs = _entry(table, i, j), _entry(table, j, i)
            stored = (len(sa), i) <= (len(sb), j)
            assert mine[-1] is (not stored) and theirs[-1] is (stored and i != j)
            assert all(x is y for x, y in zip(mine[:-1], theirs[:-1]))
            shifts, avals = _sorted_certs(sa, sb, None, None)
            entries += len(shifts)
            sorted_form = dict(zip(shifts, avals))
            lo, hi = (sb[0] - sa[-1], sb[-1] - sa[0]) if sa and sb else (0, 0)
            for s in list(range(lo - 2, hi + 3)) + _FAR:
                expected = brute_force_ssi(sets, ShiftQuery(i, j, s))
                cert = backend.exists(i, j, s)
                got = cert and (cert.a, cert.b)
                assert got == (expected[0] if expected else None), (i, j, s)
                assert got == ((sorted_form[s], sorted_form[s] + s)
                               if s in sorted_form else None), (i, j, s)
    assert backend.probes == 0
    assert table.entries == entries
    assert table.pairs == len(sets) * (len(sets) + 1) // 2
    return backend


def _rows(backend, i, j):
    assert _dense(backend.table, i, j)
    return backend.table._pairs[(i, j)][1]


@pytest.mark.parametrize("m, code", [(254, "B"), (255, "H"), (256, "H")])
def test_row_item_type_switches_at_255_rows(m, code):
    rng = random.Random(m)
    # Over [0, 400): |A| = m, |B| = 10 and |C| = m + 1, ~800 slots for each
    # pair against at least 10*m differences, save B against itself.
    sets = [_side(rng, m, 0, 400), _side(rng, 10, 0, 400), _side(rng, m + 1, 0, 400)]
    backend = _check_every_pair(sets)
    # A and C store A's m rows; (3, 1) reads them as a mirror.
    rows = _rows(backend, 1, 3)
    if code == "B":
        assert isinstance(rows, bytes)
    else:
        assert isinstance(rows, array) and rows.typecode == code
    assert backend.table._pairs[(3, 1)][-1]
    width = (sets[2][-1] - sets[2][0]) + (sets[0][-1] - sets[0][0]) + 1
    assert len(rows) == width
    # A pair with the ten-element B stores B's rows, a byte table: (2, 1),
    # which (1, 2) reads as a mirror, and (2, 3).
    assert isinstance(_rows(backend, 2, 1), bytes) and backend.table._pairs[(1, 2)][-1]
    assert isinstance(_rows(backend, 2, 3), bytes) and not backend.table._pairs[(2, 3)][-1]
    # B against itself spreads over ~800 slots, wider than its 100 differences.
    table = backend.table
    assert [key for key in table._pairs if not _dense(table, *key)] == [(2, 2)]
    assert len(table._pairs) == 9


@pytest.mark.parametrize("m, code", [(65535, "H"), (65536, "I")])
def test_row_item_type_widens_past_65535_rows(m, code):
    # One pair only, added as (1, 2): A = 0..m-1 against B = {0, 2}, m + 2
    # slots for 2m differences. Row r answers shift s for a = r when r + s
    # is in B; (2, 1) at -s reads the same rows as a mirror.
    sa, sb = tuple(range(m)), (0, 2)
    table = _TabulatedPairs()
    table.add_pair(1, 2, sa, sb, np.asarray(sa, dtype=np.int64), np.asarray(sb, dtype=np.int64))
    lo, rows, kept, mirrored = table._pairs[(1, 2)]
    assert (lo, len(rows), rows.typecode, kept, mirrored) == (-(m - 1), m + 2, code, sa, False)
    assert table._pairs[(2, 1)] == (lo, rows, kept, True) and table._pairs[(2, 1)][1] is rows
    assert table.nbytes == (m + 2) * rows.itemsize and table.pairs == 1
    assert table.entries == 2 * (m + 2)
    for s in (-m - 1, -m, -(m - 1), -(m - 2), -1, 0, 1, 2, 3, m - 1, m, m + 1, *_FAR):
        expected = [(a, a + s) for a in (0 - s, 2 - s) if 0 <= a < m]
        cert = table.lookup(1, 2, s)
        assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None), s
        flipped = [(b, b + s) for b in (0, 2) if 0 <= b + s < m]
        cert = table.lookup(2, 1, s)
        assert (cert and (cert.a, cert.b)) == (flipped[0] if flipped else None), s


def test_width_equal_to_the_product_scatters_and_one_more_sorts():
    # 8 x 8 = 64 differences; spans 31 + 32 give 64 slots, 31 + 33 give 65.
    sa = (0, 3, 7, 12, 18, 22, 27, 31)
    equal = (0, 4, 9, 15, 20, 24, 29, 32)
    wider = (0, 4, 9, 15, 20, 24, 29, 33)
    backend = _check_every_pair([sa, equal])
    assert len(_rows(backend, 1, 2)) == 64
    backend = _check_every_pair([sa, wider])
    assert not _dense(backend.table, 1, 2)
    # Each set against itself spans at most 65 - 1 slots: still dense.
    assert _dense(backend.table, 1, 1)


def test_negative_values_and_an_empty_set():
    rng = random.Random(4)
    sets = [_side(rng, 40, -300, -200), _side(rng, 30, -250, 20), (), _side(rng, 20, -40, 40)]
    backend = _check_every_pair(sets)
    assert _dense(backend.table, 1, 2)
    # The empty set pairs with every set on the list path and always misses.
    for t in range(1, 5):
        assert backend.table._pairs[(3, t)][:3] == (None, [], [])
        assert backend.table._pairs[(t, 3)][:3] == (None, [], [])


def test_a_sparse_pair_stays_sorted():
    # Multiples of 10: 39 realized shifts over 381 <= 20 * 20 slots. At a
    # byte each the rows would take 381 bytes, more than the 8 * 39 of the
    # sorted int32 form, so the pair stays sorted.
    step = tuple(range(0, 200, 10))
    rng = random.Random(5)
    dense = _side(rng, 20, 0, 190)
    backend = _check_every_pair([step, step, dense])
    table = backend.table
    assert _layout(table, 1, 2) == "i"
    assert _dense(table, 3, 3)
    assert table.entries == sum(
        len(_sorted_certs(sa, sb, None, None)[0])
        for sa in (step, step, dense) for sb in (step, step, dense)
    )


def test_random_pairs_match_the_oracle():
    rng = random.Random(6)
    layouts = set()
    for _ in range(12):
        sets = [_side(rng, rng.randint(1, 60), -100, rng.randint(-50, 150)) for _ in range(3)]
        table = _check_every_pair(sets).table
        layouts.update(("dense" if _dense(table, i, j) else "sorted")
                       for i in (1, 2, 3) for j in (1, 2, 3))
    assert layouts == {"dense", "sorted"}


def test_mirrors_answer_in_every_layout():
    """Both orders of random pairs in each layout answer as the oracle:
    byte and 'H' rows, sorted int32 and int64, the list path (small pairs,
    and values outside int64) and an empty set. 'I' rows are covered by
    the single pair above."""
    rng = random.Random(7)
    top = 2**31
    collections = [
        [_side(rng, 255, 0, 400), _side(rng, 10, 0, 400), _side(rng, 256, 0, 400)],
        # a-values past int32 keep int64 tables; 5 x 12 differences stay lists.
        [_side(rng, 12, top, top + 300), _side(rng, 12, top - 200, top + 100),
         _side(rng, 5, top - 50, top + 50)],
        [_side(rng, 12, 2**70, 2**70 + 60), _side(rng, 9, 2**70 - 20, 2**70 + 40)],
        [_side(rng, 30, -60, 40), (), _side(rng, 3, -5, 5)],
    ]
    for _ in range(4):
        collections.append([_side(rng, rng.randint(1, 60), -100, rng.randint(-50, 150))
                            for _ in range(3)])
    layouts = set()
    for sets in collections:
        table = _check_every_pair(sets).table
        layouts.update(_layout(table, i, j) for i in range(1, len(sets) + 1)
                       for j in range(1, len(sets) + 1))
    assert layouts == {"B", "H", "i", "q", "list"}


def test_three_sum_asks_read_a_mirror():
    # The reduction asks (S_2, S_1, c - offset); S_1 and S_2 have equal
    # sizes, so (1, 2) is stored and (2, 1) is its mirror, in the base
    # pair and in every pair of blocks.
    rng = random.Random(8)
    values = sorted(rng.sample(range(1, 120), 24))
    index = ThreeSumReporting(values, FullTabulation())
    backend = index.index.backend
    assert _entry(backend.table, 2, 1)[-1]
    for c in range(0, 2 * values[-1] + 3):
        pairs = sorted({(min(a, b), max(a, b)) for a in values for b in values if a + b == c})
        assert index.report(c) == pairs
        expected = brute_force_ssi(index.collection, index.map.query(c))
        cert = backend.exists(2, 1, index._shift(c))
        assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None)
        assert (index.exists(c) is None) == (not pairs)


def test_set_questions_tables_are_dense_and_take_a_byte_per_slot():
    # The benchmark's large sets: 16 of 200 elements over u=8192, whose 256
    # ordered pairs SmallUniverse(0.5) tabulates as 136 stored tables.
    collection = random_collection(random.Random(12), 16, 3200, 8192, [200] * 16)
    sets = [s.elements for s in collection.sets]
    slots = sum((sb[-1] - sb[0]) + (sa[-1] - sa[0]) + 1
                for x, sa in enumerate(sets) for sb in sets[x:])
    gc.collect()
    tracemalloc.start()
    try:
        backend = build_backend(sets, SmallUniverse(0.5))
        table = backend.table
        assert len(table._pairs) == 256
        assert all(isinstance(rows, bytes) for _, rows, _, _ in table._pairs.values())
        assert table.pairs == 136
        assert table.nbytes == slots
        held = tracemalloc.get_traced_memory()[0]
        del backend.table, table
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The sorted int32 form took 8 bytes per realized shift, ~6x this.
    assert freed <= 1.1 * slots + 4096


def _layout_collections():
    """Collections whose tables between them take every layout: 'B' and
    'H' rows, sorted 'i' and 'q' tables, lists of small pairs and of
    values past int64, an empty set and a singleton."""
    rng = random.Random(19)
    top = 2**31
    return [
        [_side(rng, 255, 0, 400), _side(rng, 10, 0, 400), _side(rng, 256, 0, 400)],
        [tuple(range(0, 200, 10)), tuple(range(5, 205, 10)), _side(rng, 20, 0, 190)],
        [_side(rng, 12, top, top + 300), _side(rng, 12, top - 200, top + 100),
         _side(rng, 5, top - 50, top + 50)],
        [_side(rng, 12, 2**70, 2**70 + 60), _side(rng, 9, 2**70 - 20, 2**70 + 40), (), (7,)],
    ]


_KINDS = [FullTabulation(), SmallUniverse(0.0), SmallUniverse(0.5)]


def test_table_accounting_in_every_layout():
    # (entries, pairs, nbytes, space_bytes()) per collection and kind.
    pins = [
        [(5809, 6, 6821, 139416), (5809, 6, 6821, 143584), (3180, 3, 4776, 80488)],
        [(1081, 6, 1883, 25944), (1081, 6, 1883, 26424), (1081, 6, 1883, 26424)],
        [(741, 6, 8032, 17784), (741, 6, 8032, 18016), (500, 3, 5936, 12232)],
        [(319, 10, 3648, 7656), (276, 3, 3296, 6800), (276, 3, 3296, 6800)],
    ]
    for sets, row in zip(_layout_collections(), pins):
        for kind, pin in zip(_KINDS, row):
            backend = build_backend(sets, kind)
            table = backend.table
            assert (table.entries, table.pairs, table.nbytes, backend.space_bytes()) == pin


def test_stored_tables_hold_no_numpy_object(monkeypatch):
    """Every stored entry is plain Python: an int or None ``lo``, rows of
    ``bytes``, an ``array`` or a list of ints, values that are set i's own
    tuple (dense) or an ``array`` or list (sorted), and a bool. Lookups
    answer as the oracle with the numpy module gone."""
    built, layouts = [], set()
    for sets in _layout_collections():
        for kind in _KINDS:
            backend = build_backend(sets, kind)
            built.append((sets, backend))
            for (i, j), (lo, rows, values, mirrored) in backend.table._pairs.items():
                assert type(mirrored) is bool
                assert lo is None or type(lo) is int
                assert type(rows) in (bytes, array, list)
                if lo is None:
                    assert type(values) is type(rows) and len(values) == len(rows)
                    if type(rows) is list:
                        assert all(type(x) is int for x in rows + values)
                    else:
                        assert rows.typecode == values.typecode
                else:
                    assert values is sets[(j if mirrored else i) - 1]
                layouts.add(_layout(backend.table, i, j) if rows or lo is not None else "empty")
    assert layouts == {"B", "H", "i", "q", "list", "empty"}
    monkeypatch.setattr("gapindex.backends.np", None)
    for sets, backend in built:
        for i, j in backend.table._pairs:
            sa, sb = sets[i - 1], sets[j - 1]
            for s in sorted({b - a for a in sa for b in sb})[::7] + _FAR:
                expected = brute_force_ssi(sets, ShiftQuery(i, j, s))
                cert = backend.exists(i, j, s)
                assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None)


@pytest.mark.parametrize("first, code", [(-2**31, "i"), (-2**31 - 1, "q"),
                                         (2**31 - 1 - 7000, "i"), (2**31 - 7000, "q")])
def test_sorted_tables_narrow_at_the_int32_bounds(first, code):
    # 8 values 1000 apart against themselves: 64 differences over 14,001
    # slots, so the pair is sorted, with shifts inside int32. Only the
    # a-values reach the bound.
    sa = tuple(range(first, first + 8000, 1000))
    table = _TabulatedPairs()
    aa = np.asarray(sa, dtype=np.int64)
    table.add_pair(1, 1, sa, sa, aa, aa)
    lo, rows, values, _ = table._pairs[(1, 1)]
    assert lo is None and rows.typecode == values.typecode == code
    assert list(rows) == list(range(-7000, 7001, 1000))
    assert list(values) == [sa[max(0, -d)] for d in range(-7, 8)]


def _meets_gaps(diffs, slots):
    """Gaps to ask of a pair with the sorted realized shifts ``diffs`` and
    the slot range ``slots`` (empty for a sorted table): gaps that touch
    each end of either range, stop just short of it or two slots short of
    it, the whole range
    with and without a margin, runs of unrealized shifts (a miss) and the
    same runs widened by one slot (a hit), and far-off gaps."""
    ends = {diffs[0], diffs[-1], *slots} if diffs else set(slots)
    gaps = [(e + a, e + b) for e in ends
            for a, b in ((0, 0), (-3, 0), (0, 3), (-3, -1), (1, 3), (-1, 1), (-5, -2), (2, 5))]
    if diffs:
        gaps += [(diffs[0], diffs[-1]), (diffs[0] - 9, diffs[-1] + 9)]
        holes = [(x + 1, y - 1) for x, y in zip(diffs, diffs[1:]) if y - x > 1]
        for first, last in holes[:12] + holes[-12:]:
            gaps += [(first, last), (first, first), (last, last),
                     (first - 1, last), (first, last + 1)]
    return gaps + [(a, b) for a in _FAR for b in _FAR if a <= b]


def _check_reads(table, i, j, sa, sb):
    """Every gap of ``_meets_gaps`` gives, on (i, j) of ``table``, what a
    listing of every b - a gives: ``smallest`` its first difference in the
    gap, ``realized`` all of them. Returns the stored layout."""
    diffs = sorted({b - a for a in sa for b in sb})
    lo_slot, rows, _, mirrored = table._pairs[(i, j)]
    slots = ()
    if lo_slot is not None:
        slots = (lo_slot, lo_slot + len(rows) - 1)
        slots = tuple(-t for t in slots) if mirrored else slots
    for lo, hi in _meets_gaps(diffs, slots):
        inside = diffs[bisect_left(diffs, lo):bisect_right(diffs, hi)]
        assert table.smallest(i, j, lo, hi) == (inside[0] if inside else None), (i, j, lo, hi)
        assert table.realized(i, j, lo, hi) == inside, (i, j, lo, hi)
    return _layout(table, i, j)


def test_table_reads_every_layout_as_a_listing():
    """``smallest`` and ``realized`` of a tabulated pair, stored, mirrored
    or (i, i), equal a listing of every difference, in every stored
    layout; ``meets``, which reads ``smallest``, says whether some b - a
    lies in the gap, and walks nothing."""
    layouts = set()
    for sets in _layout_collections():
        backend = build_backend(sets, FullTabulation())
        for i, sa in enumerate(sets, start=1):
            for j, sb in enumerate(sets, start=1):
                assert backend.tabulated(i, j)
                layouts.add(_check_reads(backend.table, i, j, sa, sb))
                for lo, hi in ((-5, 5), (0, 0), (-2**70, 2**70)):
                    want = any(lo <= b - a <= hi for a in sa for b in sb)
                    assert backend.meets(i, j, lo, hi) == want
        assert backend.probes == 0 and backend.scans == 0
    # 65,536 rows take 'I' rows, read stored and as a mirror.
    m = 65536
    sa, sb = tuple(range(m)), (0, 2)
    table = _TabulatedPairs()
    table.add_pair(1, 2, sa, sb, np.asarray(sa, dtype=np.int64), np.asarray(sb, dtype=np.int64))
    layouts.add(_check_reads(table, 1, 2, sa, sb))
    layouts.add(_check_reads(table, 2, 1, sb, sa))
    assert layouts == {"B", "H", "I", "i", "q", "list"}
