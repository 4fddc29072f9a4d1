import pytest

from gapindex.errors import FormatError, GuardError
from gapindex.reporting import dyadic_block_elements
from gapindex.sets import (
    IntSet,
    cover_blocks,
    dyadic_subsets,
    format_collection,
    ingest_collection,
    level_starts,
    max_cover_blocks,
    parse_collection,
)


def test_ingest_sorts_and_dedupes():
    c = ingest_collection([[3, 1, 3]], u=5)
    assert c.sets[0] == IntSet((1, 3))
    assert c.sets[0].elements == (1, 3)
    assert c.total_size == 2


def test_ingest_counts():
    c = ingest_collection([[1], [2, 4]], u=4)
    assert c.k == 2
    assert c.total_size == 3


def test_ingest_rejects_out_of_universe():
    with pytest.raises(FormatError, match="set 1.*6"):
        ingest_collection([[6]], u=5)


def test_ingest_rejects_empty_set():
    with pytest.raises(FormatError, match="empty"):
        ingest_collection([[1], []], u=5)


def test_ingest_universe_guard():
    with pytest.raises(GuardError, match="2\\^40"):
        ingest_collection([[1]], u=(1 << 40) + 1)


def test_dyadic_subsets_power_of_two():
    elements = tuple(range(1, 9))
    assert len(dyadic_subsets(elements, 0)) == 15  # 8 + 4 + 2 + 1
    assert dyadic_subsets(elements, 3) == [elements]
    assert dyadic_subsets(elements, 4) == []


def test_dyadic_subsets_singleton():
    assert dyadic_subsets((7,), 0) == [(7,)]
    assert dyadic_subsets((), 0) == []


def test_dyadic_subsets_size_five():
    # Enumerating kappa <= floor(m / 2^j) - 1: five at j=0, two at j=1, one at j=2.
    assert dyadic_subsets((2, 3, 5, 8, 13), 0) == [
        (2,), (3,), (5,), (8,), (13,), (2, 3), (5, 8), (2, 3, 5, 8),
    ]
    assert dyadic_subsets((2, 3, 5, 8, 13), 1) == [(2, 3), (5, 8), (2, 3, 5, 8)]


def test_dyadic_subsets_match_contents():
    elements = (4, 9, 11, 20, 21, 30)
    assert dyadic_subsets(elements, 0) == [
        (4,), (9,), (11,), (20,), (21,), (30,), (4, 9), (11, 20), (21, 30), (4, 9, 11, 20),
    ]
    assert dyadic_subsets(elements, 2) == [(4, 9, 11, 20)]


def test_dyadic_subsets_fixed_level_disjoint():
    elements = tuple(range(1, 14))
    starts = level_starts(len(elements))
    blocks = dyadic_subsets(elements, 0)
    for j in range(len(starts) - 1):
        covered = [v for block in blocks[starts[j] : starts[j + 1]] for v in block]
        assert len(covered) == len(set(covered))


def test_level_starts_number_the_blocks_in_order():
    """For every lowest level, level j holds m >> j slices of 2^j elements
    at multiples of 2^j, block (j, kappa) at index level_starts(m)[j] -
    level_starts(m)[lowest] + kappa; the slices share the set's ints."""
    for m in range(65):
        elements = tuple(10**6 + 7 * r for r in range(m))
        starts = level_starts(m)
        for lowest in range(m.bit_length() + 1):
            blocks = dyadic_subsets(elements, lowest)
            assert len(blocks) == starts[-1] - starts[lowest]
            for j in range(lowest, m.bit_length()):
                for kappa in range(m >> j):
                    block = blocks[starts[j] - starts[lowest] + kappa]
                    lo = kappa << j
                    assert block == elements[lo : lo + (1 << j)]
                    assert all(a is b for a, b in zip(block, elements[lo:]))
        assert dyadic_subsets(elements, m.bit_length() + 1) == []


def test_dyadic_total_size_bound():
    for m in (1, 2, 3, 5, 8, 13, 33, 64):
        total = sum(map(len, dyadic_subsets(tuple(range(1, m + 1)), 0)))
        assert total == dyadic_block_elements(m)
        assert total <= m * m.bit_length()


def test_cover_full_range_is_one_block():
    elements = tuple(range(10, 18))
    cover = cover_blocks(1, 8)
    assert len(cover) == 1 and cover[0][0] == 3
    assert elements[cover[0][2] - 1 : cover[0][3]] == elements


def test_cover_2_to_7_frozen():
    cover = cover_blocks(2, 7)
    assert [(lo, hi) for _, _, lo, hi in cover] == [(2, 2), (3, 4), (5, 6), (7, 7)]


def test_cover_single_rank():
    cover = cover_blocks(5, 5)
    assert len(cover) == 1 and cover[0][2] == cover[0][3] == 5


def test_cover_rank_exhaustive_small():
    """Union equals a direct scan and the block count stays under the bound,
    for every range of every size up to 64."""
    worst = 0
    for m in range(1, 65):
        elements = tuple(range(3, 3 * m + 3, 3))
        bound = max_cover_blocks(m)
        for lo in range(1, m + 1):
            for hi in range(lo, m + 1):
                cover = cover_blocks(lo, hi)
                union = tuple(v for _, _, a, b in cover for v in elements[a - 1 : b])
                assert union == elements[lo - 1 : hi]
                for level, kappa, a, b in cover:
                    assert (a, b) == (kappa * 2**level + 1, (kappa + 1) * 2**level)
                assert len(cover) <= bound
                worst = max(worst, len(cover) - 2 * (m - 1).bit_length())
    # Measured maximum overhang over the 2*ceil(log2 m) part of the bound.
    assert worst <= 1


def test_parse_format_round_trip():
    c = ingest_collection([[5, 2], [9]], u=9)
    again = parse_collection(format_collection(c))
    assert again.universe == 9
    assert [s.elements for s in again.sets] == [(2, 5), (9,)]


def test_parse_strictness():
    with pytest.raises(FormatError, match="header"):
        parse_collection("5\n1 2\n")
    with pytest.raises(FormatError, match="trailing"):
        parse_collection("5 1\n1 2\n3 4\n")
    with pytest.raises(FormatError, match="expected 2 set lines"):
        parse_collection("5 2\n1 2\n")
    with pytest.raises(FormatError):
        parse_collection("5 1\n1 x\n")
