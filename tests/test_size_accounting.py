"""A build's per-set bookkeeping, read from one int64 array of sizes,
equals a reference computed set by set here.

Instance and backend accounting (element counts, threshold, stored block
levels and ids, large flags, member-set entries, table entries and
nominal bytes) is checked over lists of tuples, ``SetCollection``s,
quotient-level ``SlicedSets``, an empty collection, all-empty sets and one
large set, under every backend kind. The string index's interval sets
are one ``SlicedSets``, none sliced at build, whose sets are the sorted
suffix-array slices and hold the suffix array's own int objects; its
quotient levels equal those of the same sets as plain tuples. The
sort-free halving of the quotient levels gives the levels that
``np.unique`` numbering gives, and both numbering paths (``np.unique``
once for plain sets, none for a ``SlicedSets``) give the levels of the
definition.
"""

import random
from array import array
from itertools import chain

import numpy as np
import pytest

from gapindex.backends import (
    FullTabulation,
    LinearScan,
    SmallUniverse,
    build_backend,
    size_threshold,
)
from gapindex.generators import random_collection, random_text
from gapindex.gapped import quotient_levels
from gapindex.reporting import AugmentedInstance, build_reporting_index
from gapindex.sets import SlicedSets, level_starts, set_sizes
from gapindex.textindex import _dyadic_interval_sets, build_suffix_array

KINDS = [LinearScan(), FullTabulation()] + [SmallUniverse(d) for d in (0, 0.3, 0.5, 1)]
KIND_IDS = ["linear", "fulltab"] + [f"smalluniverse-{d}" for d in (0, 0.3, 0.5, 1)]


def _entries(sets: list[tuple[int, ...]], large: list[bool]) -> int:
    """Realized shifts over every ordered pair of large sets."""
    big = [s for s, flag in zip(sets, large) if flag]
    return sum(len({b - a for a in sa for b in sb}) for sa in big for sb in big)


def _assert_backend(backend, sets, kind, threshold, blocks=()):
    """``sets`` are the backend's base sets, and ``blocks`` the blocks it
    tabulates against each other, with the ids after them."""
    sizes = [len(s) for s in sets]
    large = [m > threshold for m in sizes]
    assert backend.threshold == threshold
    assert backend.large == large
    assert backend.last_block == len(sets) + len(blocks)
    dict_entries = 0 if isinstance(kind, FullTabulation) else sum(sizes)
    assert backend.dict_entries == dict_entries
    entries = _entries(sets, large) + _entries(blocks, [True] * len(blocks))
    assert backend.table.entries == entries
    assert backend.space_bytes() == 8 * dict_entries + 24 * entries


def _assert_instance(inst, sets, kind):
    """``sets`` are the base sets as a list of tuples."""
    sizes = [len(s) for s in sets]
    base = sum(sizes)
    dyadic = sum(sum((m >> j) << j for j in range(m.bit_length())) for m in sizes)
    assert (inst.base_elements, inst.dyadic_elements) == (base, dyadic)
    assert inst.total_elements == base + dyadic
    threshold = size_threshold(kind, base + dyadic)
    lowest = 0
    while lowest < base.bit_length() and 1 << lowest <= threshold:
        lowest += 1
    assert inst.lowest_level == lowest
    blocks = []
    first = []
    for s in sets:
        first.append(len(sets) + 1 + len(blocks))
        for j in range(lowest, len(s).bit_length()):
            blocks.extend(s[lo:lo + (1 << j)] for lo in range(0, (len(s) >> j) << j, 1 << j))
    assert inst.first_block == (first if blocks else len(sets) + 1)
    _assert_backend(inst.backend, list(sets), kind, threshold, blocks)


def _collections():
    rng = random.Random(5)
    sized = [1, 2, 3, 4, 7, 8, 9, 16, 33]
    return {
        "tuples": [tuple(sorted(rng.sample(range(-50, 400), m))) for m in sized],
        "collection": random_collection(rng, 6, 60, 120),
        "empty": [],
        "all-empty": [(), (), ()],
        "one-large": [tuple(range(3, 300, 2))],
    }


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
@pytest.mark.parametrize("name", list(_collections()))
def test_instance_accounting_matches_set_by_set(name, kind):
    c = _collections()[name]
    if name == "collection":
        sets, inst = [s.elements for s in c.sets], build_reporting_index(c, kind)
    else:
        sets, inst = c, AugmentedInstance(c, kind)
    _assert_backend(build_backend(c, kind), sets, kind, size_threshold(kind, sum(map(len, sets))))
    _assert_instance(inst, sets, kind)


@pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
def test_quotient_level_accounting_matches_set_by_set(kind):
    rng = random.Random(9)
    sets = [tuple(sorted(rng.sample(range(1, 2000), m))) for m in (1, 2, 5, 9, 17, 40, 70)]
    sets.insert(3, ())
    for level, got in enumerate(quotient_levels(sets, 5), start=2):
        eager = [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in sets]
        assert list(set_sizes(got)) == [len(q) for q in eager] and got.filled() == 0
        inst = AugmentedInstance(got, kind)
        if isinstance(kind, LinearScan):
            assert got.filled() == 0  # the accounting reads no set
        _assert_instance(inst, eager, kind)


def test_set_sizes_is_one_int64_array():
    for sets in ([(1, 2), (), (5,)], [],
                 SlicedSets(array("i", [0, 1, 2]), array("q", [2, 2, 3]), (1, 2, 5))):
        sizes = set_sizes(sets)
        assert isinstance(sizes, np.ndarray) and sizes.dtype == np.int64
        assert sizes.tolist() == [len(s) for s in sets]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000, 2048])
def test_interval_tuples_are_sorted_slices_of_the_suffix_arrays_ints(n):
    sa = build_suffix_array(random_text(random.Random(n), n, 4)).sa
    assert all(type(p) is int for p in sa)
    own = {p: p for p in sa}
    sets = _dyadic_interval_sets(sa)
    assert isinstance(sets, SlicedSets) and sets.filled() == 0
    starts = level_starts(n)
    assert len(sets) == starts[-1]
    # The ints are the suffix array's own, in position order, named by codes.
    assert sets.codes.typecode == "i" and list(sets.ints) == list(range(1, n + 1))
    assert all(p is own[p] for p in sets.ints)
    sizes = set_sizes(sets)
    assert sets.filled() == 0
    for j in range(n.bit_length()):
        size = 1 << j
        assert (sizes[starts[j]:starts[j + 1]] == size).all()
        for kappa in range(n >> j):
            got = sets[starts[j] + kappa]
            assert type(got) is tuple and len(got) == size
            assert got == tuple(sorted(sa[kappa * size:(kappa + 1) * size]))
            assert all(p is own[p] for p in got)
    assert sets.filled() == len(sets)
    assert [sets.ints[c] for c in sets.codes] == [p for s in sets for p in s]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000, 2048])
def test_string_quotient_levels_equal_those_of_plain_tuples(n):
    # The string path takes the interval sets' codes as they are; the plain
    # tuples are flattened again and numbered by the counting pass.
    sets = _dyadic_interval_sets(build_suffix_array(random_text(random.Random(n), n, 4)).sa)
    top = max(n.bit_length() + 1, 2)
    string_levels = list(quotient_levels(sets, top))
    assert sets.filled() == 0
    plain = [tuple(s) for s in sets]
    for level, (got, expect) in enumerate(zip(string_levels, quotient_levels(plain, top)), 2):
        assert got.filled() == 0
        assert [got.ints[c] for c in got.codes] == [expect.ints[c] for c in expect.codes]
        assert list(got.ends) == list(expect.ends)
        assert got == [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in plain]
    assert len(string_levels) == top - 1


def _unique_levels(sets, top):
    """Quotient levels 2..top numbered by ``np.unique`` at every level, as
    (flat values, ends) pairs."""
    sizes = [len(s) for s in sets]
    values = np.fromiter(chain.from_iterable(sets), np.int64, sum(sizes))
    distinct, codes = np.unique(values, return_inverse=True)
    owners = np.repeat(np.arange(len(sets)), sizes)
    out = []
    for _ in range(2, top + 1):
        distinct, halves = np.unique(distinct >> 1, return_inverse=True)
        codes = halves[codes]
        keep = np.ones(len(codes), dtype=bool)
        keep[1:] = (codes[1:] != codes[:-1]) | (owners[1:] != owners[:-1])
        codes, owners = codes[keep], owners[keep]
        out.append((distinct[codes].tolist(),
                    np.bincount(owners, minlength=len(sets)).cumsum().tolist()))
    return out


LO, HI = -(1 << 63), (1 << 63) - 1


@pytest.mark.parametrize("seed", range(6))
def test_sort_free_halving_gives_the_unique_levels(seed):
    rng = random.Random(seed)
    pools = [range(-300, 300), range(LO, LO + 200), range(HI - 200, HI + 1),
             range(0, 1 << 40, 1 << 30)]
    sets = []
    for _ in range(rng.randint(1, 12)):
        pool = rng.choice(pools)
        sets.append(tuple(sorted(rng.sample(pool, rng.randint(0, 30)))))
    top = rng.randint(2, 12)
    got = list(quotient_levels(sets, top))
    assert len(got) == top - 1
    for level, (level_sets, (flat, ends)) in enumerate(zip(got, _unique_levels(sets, top)), 2):
        assert [level_sets.ints[c] for c in level_sets.codes] == flat
        assert list(level_sets.ends) == ends
        assert level_sets == [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in sets]


def test_single_value_levels():
    sets = [(0, 1), (1,), (), (2, 3), (LO, LO + 1), (HI - 1, HI)]
    for level, (level_sets, (flat, ends)) in enumerate(
            zip(quotient_levels(sets, 70), _unique_levels(sets, 70)), 2):
        assert [level_sets.ints[c] for c in level_sets.codes] == flat
        assert list(level_sets.ends) == ends
        expect = [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in sets]
        assert level_sets == expect
    # From level 64 every value is 0 or -1: each set holds one value.
    assert level_sets == [(0,), (0,), (), (0,), (-1,), (0,)]
    assert len(level_sets.codes) == 5


NUMBERING = {
    "no-sets": [],
    "empty-sets": [(), (), ()],
    "one-set": [(3, 4, 9, 10, 11)],
    "negative": [(-9, -4, -1), (), (-8, -5, 0, 3)],
    "dense": [(1, 2, 3, 5), (2, 4, 5, 6), (1, 6)],
    "sparse": [(1, 1000), (5, 1 << 40), (7,)],
    "dense-near-low": [(LO, LO + 1, LO + 3), (LO + 2, LO + 3)],
    "dense-near-high": [(HI - 3, HI - 1, HI), (), (HI - 2,)],
    "sparse-both-ends": [(LO, LO + 1), (0,), (HI - 1, HI)],
}


@pytest.mark.parametrize("carried", [False, True], ids=["tuples", "carried-values"])
@pytest.mark.parametrize("name", list(NUMBERING))
def test_both_numbering_paths_give_the_defined_levels(name, carried, monkeypatch):
    sets = NUMBERING[name]
    values = [a for s in sets for a in s]
    arg = sets
    if carried:
        ints = tuple(sorted(set(values)))
        codes = array("i", [ints.index(a) for a in values])
        ends = array("q", np.cumsum([len(s) for s in sets], dtype=np.int64).tobytes())
        arg = SlicedSets(codes, ends, ints)
    calls = []
    real = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: calls.append(a) or real(*a, **k))
    levels = list(quotient_levels(arg, 66))
    # Plain sets are numbered by one np.unique; a SlicedSets is numbered
    # already.
    assert len(calls) == (0 if carried else 1)
    assert len(levels) == 65
    for level, got in enumerate(levels, 2):
        assert got == [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in sets]
    if carried:
        assert arg.filled() == 0
