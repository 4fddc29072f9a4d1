import math
import random

import pytest

from gapindex.errors import GapIndexError
from gapindex.generators import random_collection
from gapindex.sets import SetCollection, ingest_collection
from gapindex.smallest_shift import build_smallest_shift, smallest_shift


def brute_min_shift(c, i, j):
    diffs = [b - a for a in c.set(i).elements for b in c.set(j).elements if b >= a]
    return min(diffs) if diffs else None


def test_threshold_classification():
    c = ingest_collection([[1, 3, 5, 7], [2, 4, 6, 8], [9]], u=9)
    idx = build_smallest_shift(c)
    assert idx.threshold == 3  # ceil(sqrt(9))
    assert idx.large_ids == [1, 2]
    assert len(idx.table) == 4


def test_diagonal_is_zero():
    c = ingest_collection([[4, 9, 11, 30], [1, 2, 3, 4]], u=30)
    idx = build_smallest_shift(c)
    for i in (1, 2):
        assert smallest_shift(idx, i, i) == 0


def test_examples():
    c = ingest_collection([[5, 10], [7], [9], [3]], u=16)
    idx = build_smallest_shift(c)
    assert smallest_shift(idx, 1, 2) == 2
    assert smallest_shift(idx, 3, 4) is None


def test_large_pair_zero_probes():
    c = ingest_collection([list(range(1, 10)), list(range(5, 14)), [2]], u=16)
    idx = build_smallest_shift(c)
    assert set(idx.large_ids) == {1, 2}
    before = idx.probes
    got = smallest_shift(idx, 1, 2)
    assert idx.probes == before
    assert got == brute_min_shift(c, 1, 2)


def test_small_path_probe_bound():
    rng = random.Random(19)
    for _ in range(40):
        c = random_collection(rng, rng.randint(2, 6), rng.randint(8, 120), 300)
        idx = build_smallest_shift(c)
        for _ in range(10):
            i, j = rng.randint(1, c.k), rng.randint(1, c.k)
            small_pair = not (i in idx._large_pos and j in idx._large_pos)
            before = idx.probes
            smallest_shift(idx, i, j)
            used = idx.probes - before
            if small_pair:
                assert used <= min(len(c.set(i)), len(c.set(j)), idx.threshold)
            else:
                assert used == 0


def test_oracle_fuzz():
    rng = random.Random(37)
    for _ in range(60):
        c = random_collection(rng, rng.randint(1, 7), rng.randint(4, 150), rng.randint(10, 500))
        idx = build_smallest_shift(c)
        for _ in range(8):
            i, j = rng.randint(1, c.k), rng.randint(1, c.k)
            assert smallest_shift(idx, i, j) == brute_min_shift(c, i, j)


def test_build_comparison_budget():
    rng = random.Random(41)
    worst = 0.0
    for _ in range(25):
        total = rng.randint(20, 400)
        c = random_collection(rng, rng.randint(2, 10), total, 1000)
        idx = build_smallest_shift(c)
        n = c.total_size
        budget = 6 * n * (math.isqrt(n - 1) + 1)
        assert idx.build_comparisons <= budget
        worst = max(worst, idx.build_comparisons / budget)
    assert worst <= 1.0


def test_large_set_count_guard_raises(monkeypatch):
    # Three sets of 3 with N understated as 4 give threshold 2 and three
    # "large" sets, which the sqrt(N) bound must refuse, also under python -O.
    c = ingest_collection([[1, 2, 3], [4, 5, 6], [7, 8, 9]], u=9)
    assert build_smallest_shift(c).large_ids == []
    monkeypatch.setattr(SetCollection, "total_size", property(lambda self: 4))
    with pytest.raises(GapIndexError, match="more large sets"):
        build_smallest_shift(c)
