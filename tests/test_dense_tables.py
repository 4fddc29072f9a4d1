"""Dense row tables of tabulated pairs, against the oracle and the sorted form.

A pair whose difference range is no wider than |A|*|B| is scattered into
one row per shift slot; it stays dense when that is no larger than the
sorted int32 form. These tests pin which pairs go dense, at which item
type, and that every lookup answers as ``brute_force_ssi`` and as the
dict-built sorted table.
"""

import gc
import random
import tracemalloc
from array import array

import pytest

from gapindex.backends import (
    FullTabulation,
    ShiftQuery,
    SmallUniverse,
    _pair_shift_certs,
    _TabulatedPairs,
    brute_force_ssi,
    build_backend,
)
from gapindex.generators import random_collection

_FAR = [2**31, 2**31 - 1, -2**31, -2**31 - 1, 2**40, -2**40, 2**70, -2**70]


def _side(rng, size, lo, hi):
    return tuple(sorted(rng.sample(range(lo, hi), size)))


def _check_every_pair(sets):
    """Every tabulated pair of a ``FullTabulation`` backend answers each
    shift of its difference range, one slot beyond either end and the far
    shifts as the oracle and the sorted (dict-built) table do. Returns the
    backend."""
    backend = build_backend(sets, FullTabulation())
    table = backend.table
    for i, sa in enumerate(sets, start=1):
        for j, sb in enumerate(sets, start=1):
            assert ((i, j) in table._dense) != ((i, j) in table._table)
            shifts, avals = _pair_shift_certs(sa, sb, use_np=False)
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
    return backend


def _rows(backend, i, j):
    return backend.table._dense[(i, j)][1]


@pytest.mark.parametrize("m, code", [(254, "B"), (255, "H"), (256, "H")])
def test_row_item_type_switches_at_255_rows(m, code):
    rng = random.Random(m)
    # |A| = m and |B| = 10 over [0, 400): ~800 slots against 10*m differences.
    sets = [_side(rng, m, 0, 400), _side(rng, 10, 0, 400)]
    backend = _check_every_pair(sets)
    rows = _rows(backend, 1, 2)
    if code == "B":
        assert isinstance(rows, bytes)
    else:
        assert isinstance(rows, array) and rows.typecode == code
    # The ten-row side is always a byte table.
    assert isinstance(_rows(backend, 2, 1), bytes)
    # B against itself spreads over ~800 slots, wider than its 100 differences.
    assert set(backend.table._dense) == {(1, 1), (1, 2), (2, 1)}
    width = (sets[1][-1] - sets[1][0]) + (sets[0][-1] - sets[0][0]) + 1
    assert len(rows) == width


@pytest.mark.parametrize("m, code", [(65535, "H"), (65536, "I")])
def test_row_item_type_widens_past_65535_rows(m, code):
    # One pair only: A = 0..m-1 against B = {0, 2}, m + 2 slots for 2m
    # differences. Row r answers shift s for a = r when r + s is in B.
    sa, sb = tuple(range(m)), (0, 2)
    table = _TabulatedPairs()
    table.add_pair(1, 2, sa, sb, use_np=True)
    lo, rows, kept = table._dense[(1, 2)]
    assert (lo, len(rows), rows.typecode, kept) == (-(m - 1), m + 2, code, sa)
    assert table.nbytes == (m + 2) * rows.itemsize and table.entries == m + 2
    for s in (-m, -(m - 1), -(m - 2), -1, 0, 1, 2, 3, _FAR[0]):
        expected = [(a, a + s) for a in (0 - s, 2 - s) if 0 <= a < m]
        cert = table.lookup(1, 2, s)
        assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None), s


def test_width_equal_to_the_product_scatters_and_one_more_sorts():
    # 8 x 8 = 64 differences; spans 31 + 32 give 64 slots, 31 + 33 give 65.
    sa = (0, 3, 7, 12, 18, 22, 27, 31)
    equal = (0, 4, 9, 15, 20, 24, 29, 32)
    wider = (0, 4, 9, 15, 20, 24, 29, 33)
    backend = _check_every_pair([sa, equal])
    assert len(_rows(backend, 1, 2)) == 64
    backend = _check_every_pair([sa, wider])
    assert (1, 2) not in backend.table._dense
    assert (1, 2) in backend.table._table
    # Each set against itself spans at most 65 - 1 slots: still dense.
    assert (1, 1) in backend.table._dense


def test_negative_values_and_an_empty_set():
    rng = random.Random(4)
    sets = [_side(rng, 40, -300, -200), _side(rng, 30, -250, 20), (), _side(rng, 20, -40, 40)]
    backend = _check_every_pair(sets)
    assert (1, 2) in backend.table._dense
    # The empty set pairs with every set on the list path and always misses.
    for t in range(1, 5):
        assert backend.table._table[(3, t)][0] == []
        assert backend.table._table[(t, 3)][0] == []


def test_a_sparse_pair_stays_sorted():
    # Multiples of 10: 39 realized shifts over 381 <= 20 * 20 slots. At a
    # byte each the rows would take 381 bytes, more than the 8 * 39 of the
    # sorted int32 form, so the pair stays sorted.
    step = tuple(range(0, 200, 10))
    rng = random.Random(5)
    dense = _side(rng, 20, 0, 190)
    backend = _check_every_pair([step, step, dense])
    table = backend.table
    assert (1, 2) in table._table and (1, 2) not in table._dense
    assert table._table[(1, 2)][0].dtype.name == "int32"
    assert (3, 3) in table._dense
    assert table.entries == sum(
        len(_pair_shift_certs(sa, sb, use_np=False)[0])
        for sa in (step, step, dense) for sb in (step, step, dense)
    )


def test_random_pairs_match_the_oracle():
    rng = random.Random(6)
    layouts = set()
    for _ in range(12):
        sets = [_side(rng, rng.randint(1, 60), -100, rng.randint(-50, 150)) for _ in range(3)]
        table = _check_every_pair(sets).table
        layouts.update(("dense" if key in table._dense else "sorted") for key in
                       [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    assert layouts == {"dense", "sorted"}


def test_set_questions_tables_are_dense_and_take_a_byte_per_slot():
    # The benchmark's large sets: 16 of 200 elements over u=8192, whose 256
    # pairs SmallUniverse(0.5) tabulates.
    collection = random_collection(random.Random(12), 16, 3200, 8192, [200] * 16)
    sets = [s.elements for s in collection.sets]
    slots = sum((sb[-1] - sb[0]) + (sa[-1] - sa[0]) + 1 for sa in sets for sb in sets)
    gc.collect()
    tracemalloc.start()
    try:
        backend = build_backend(sets, SmallUniverse(0.5))
        table = backend.table
        assert len(table._dense) == 256 and not table._table
        assert all(isinstance(rows, bytes) for _, rows, _ in table._dense.values())
        assert table.nbytes == slots
        held = tracemalloc.get_traced_memory()[0]
        del backend.table, table
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # The sorted int32 form took 8 bytes per realized shift, ~6x this.
    assert freed <= 1.1 * slots + 4096
