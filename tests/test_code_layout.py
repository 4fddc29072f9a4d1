"""The layout of a ``SlicedSets``: every set's elements are int codes into
one ascending tuple of shared ints, and a set's tuple is made from them on
its first read.

The codes are an ``array``, int32 unless a level has more than 2^31 - 1
distinct values (``code_type``, read here on counts). CPython's collector
tracks an ``array``, but its only referent in one is the type, so a
level costs the collector two arrays and one tuple of its distinct
values, not a walk over every element. Every filled tuple holds the
level's ints; an empty, a one-element and a larger set each read as the
tuple an eager build makes; and ``value_range`` and ``quotient_levels``
read a ``SlicedSets`` with no set made.
"""

import gc
import random
from array import array

from gapindex.backends import LinearScan
from gapindex.gapped import build_gapped_index, quotient_levels
from gapindex.generators import random_collection, random_text
from gapindex.sets import SlicedSets, code_type, value_range
from gapindex.textindex import _dyadic_interval_sets, build_gapped_string_index, build_suffix_array


def _levels(g):
    return [g.exact.base] + [lvl.instance.base for lvl in g.levels]


def _eager(sets, level):
    return [tuple(dict.fromkeys(a >> (level - 1) for a in s)) for s in sets]


def test_codes_are_int32_arrays_the_collector_walks_in_one_step():
    text = random_text(random.Random(5), 2048, 4)
    string = _levels(build_gapped_string_index(text, LinearScan()).gapped)
    g = build_gapped_index(random_collection(random.Random(3), 12, 400, 5000), LinearScan())
    for s in string + [lvl.instance.base for lvl in g.levels]:
        assert type(s.codes) is array and s.codes.typecode == "i"
        assert gc.get_referents(s.codes) == gc.get_referents(s.ends) == [array]


def test_ints_ascend_once_per_value_and_every_fill_holds_them():
    text = random_text(random.Random(6), 1000, 4)
    for s in _levels(build_gapped_string_index(text, LinearScan()).gapped):
        ints = s.ints
        assert type(ints) is tuple and all(a < b for a, b in zip(ints, ints[1:]))
        at = dict(zip(ints, range(len(ints))))
        for t in range(0, len(s), 3):
            assert all(v is ints[at[v]] for v in s[t])
        assert [ints[c] for c in s.codes] == [v for q in s for v in q]


def test_empty_single_and_larger_sets_read_as_their_eager_tuples():
    sets = [(), (7,), (3, 7, 300, 1000), (), (7,), (1000,)]
    ints = (3, 7, 300, 1000)
    for typecode in ("i", "q"):
        level = SlicedSets(array(typecode, [1, 0, 1, 2, 3, 1, 3]),
                           array("q", [0, 1, 5, 5, 6, 7]), ints)
        got = [level[t] for t in range(len(sets))]
        assert got == sets and all(type(q) is tuple for q in got)
        assert got[1] is got[4]  # one shared tuple per one-element value
        assert all(v is ints[ints.index(v)] for q in got for v in q)
        assert level.filled() == len(sets)
        # The quotient levels of a SlicedSets are those of its tuples.
        level = SlicedSets(level.codes, level.ends, ints)
        for at, got in enumerate(quotient_levels(level, 5), start=2):
            assert got == _eager(sets, at)
        assert level.filled() == 0


def test_value_range_and_quotient_levels_make_no_set():
    n = 300
    sa = build_suffix_array(random_text(random.Random(n), n, 4)).sa
    sets = _dyadic_interval_sets(sa)
    low, high = value_range(sets)
    assert (low, high) == (1, n) and low is sets.ints[0] and high is sets.ints[-1]
    plain = list(_dyadic_interval_sets(sa))
    for at, level in enumerate(quotient_levels(sets, 6), start=2):
        span = value_range(level)
        assert span == (1 >> (at - 1), n >> (at - 1)) and level.filled() == 0
        assert level == _eager(plain, at)
    assert sets.filled() == 0


def test_code_type_widens_past_int32_by_count():
    assert code_type(0) == code_type(1) == code_type(2**31 - 1) == "i"
    assert code_type(2**31) == code_type(2**40) == "q"
    assert array(code_type(2**31 - 1)).itemsize == 4
    assert array(code_type(2**31)).itemsize == 8
