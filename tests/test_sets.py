import pytest

from gapindex.errors import FormatError, GuardError
from gapindex.sets import (
    IntSet,
    cover_rank_range,
    dyadic_subsets,
    format_collection,
    ingest_collection,
    level_starts,
    max_cover_blocks,
    parse_collection,
)


def make_set(values, sid=1):
    return IntSet(id=sid, elements=tuple(sorted(set(values))))


def test_ingest_sorts_and_dedupes():
    c = ingest_collection([[3, 1, 3]], u=5)
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
    subs = dyadic_subsets(make_set(range(1, 9)))
    assert len(subs) == 15  # 8 + 4 + 2 + 1


def test_dyadic_subsets_singleton():
    subs = dyadic_subsets(make_set([7]))
    assert len(subs) == 1
    assert subs[0].level == 0 and subs[0].rank_lo == subs[0].rank_hi == 1


def test_dyadic_subsets_size_five():
    # Enumerating kappa <= floor(m / 2^j) - 1: five at j=0, two at j=1, one at j=2.
    subs = dyadic_subsets(make_set([2, 3, 5, 8, 13]))
    by_level = {}
    for sub in subs:
        by_level.setdefault(sub.level, []).append(sub)
    assert len(by_level[0]) == 5
    assert len(by_level[1]) == 2
    assert [(s.rank_lo, s.rank_hi) for s in by_level[1]] == [(1, 2), (3, 4)]
    assert len(by_level[2]) == 1
    assert len(subs) == 8


def test_dyadic_subsets_match_contents():
    s = make_set([4, 9, 11, 20, 21, 30])
    for sub in dyadic_subsets(s):
        chunk = s.elements[sub.rank_lo - 1 : sub.rank_hi]
        assert sub.min_value == chunk[0]
        assert sub.max_value == chunk[-1]
        assert sub.size == len(chunk) == 1 << sub.level


def test_dyadic_subsets_fixed_level_disjoint():
    s = make_set(range(1, 14))
    by_level = {}
    for sub in dyadic_subsets(s):
        by_level.setdefault(sub.level, []).append((sub.rank_lo, sub.rank_hi))
    for blocks in by_level.values():
        covered = []
        for lo, hi in blocks:
            covered.extend(range(lo, hi + 1))
        assert len(covered) == len(set(covered))


def test_level_starts_number_the_blocks_in_order():
    for m in range(1, 65):
        subs = dyadic_subsets(make_set(range(1, m + 1)))
        starts = level_starts(m)
        assert starts[-1] == len(subs)
        for j in range(m.bit_length()):
            for kappa in range(m >> j):
                sub = subs[starts[j] + kappa]
                assert (sub.level, sub.block) == (j, kappa)
                assert (sub.rank_lo, sub.rank_hi) == (kappa * 2**j + 1, (kappa + 1) * 2**j)


def test_dyadic_total_size_bound():
    for m in (1, 2, 3, 5, 8, 13, 33, 64):
        s = make_set(range(1, m + 1))
        total = sum(sub.size for sub in dyadic_subsets(s))
        assert total <= m * m.bit_length()


def test_cover_full_range_is_one_block():
    s = make_set(range(10, 18))
    cover = cover_rank_range(s, 1, 8)
    assert len(cover) == 1 and cover[0].level == 3


def test_cover_2_to_7_frozen():
    s = make_set(range(1, 9))
    cover = cover_rank_range(s, 2, 7)
    assert [(c.rank_lo, c.rank_hi) for c in cover] == [(2, 2), (3, 4), (5, 6), (7, 7)]


def test_cover_single_rank():
    s = make_set(range(1, 9))
    cover = cover_rank_range(s, 5, 5)
    assert len(cover) == 1 and cover[0].size == 1


def test_cover_invalid_range_rejected():
    s = make_set([1, 2, 3])
    for lo, hi in ((0, 2), (2, 1), (1, 4)):
        with pytest.raises(FormatError):
            cover_rank_range(s, lo, hi)


def test_cover_rank_exhaustive_small():
    """Union equals a direct scan and the block count stays under the bound,
    for every range of every size up to 64."""
    worst = 0
    for m in range(1, 65):
        s = make_set(range(1, m + 1))
        bound = max_cover_blocks(m)
        for lo in range(1, m + 1):
            for hi in range(lo, m + 1):
                cover = cover_rank_range(s, lo, hi)
                ranks = [r for c in cover for r in range(c.rank_lo, c.rank_hi + 1)]
                assert ranks == list(range(lo, hi + 1))
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
