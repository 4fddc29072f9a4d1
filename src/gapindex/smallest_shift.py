"""Smallest nonnegative shift between two sets, in O(N) space.

Sets larger than ceil(sqrt(N)) get their pairwise answers tabulated by
merge traversals; every other query probes each element of the smaller set
against the other set's successor (or predecessor) structure.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Optional

from .errors import GapIndexError
from .sets import SetCollection


class ShiftIndex:
    def __init__(self, c: SetCollection):
        self.collection = c
        n = c.total_size
        self.threshold = math.isqrt(n - 1) + 1 if n > 0 else 0  # ceil(sqrt(N))
        self.large_ids = [sid for sid, s in enumerate(c.sets, start=1) if len(s) > self.threshold]
        self._large_pos = {sid: t for t, sid in enumerate(self.large_ids)}
        if len(self.large_ids) > self.threshold:
            raise GapIndexError("more large sets than sqrt(N)")
        self.build_comparisons = 0
        self.probes = 0
        self.table: dict[tuple[int, int], Optional[int]] = {}
        for ia in self.large_ids:
            for ib in self.large_ids:
                self.table[(ia, ib)] = self._merge_min_shift(
                    c.set(ia).elements, c.set(ib).elements
                )

    def _merge_min_shift(self, sa: tuple[int, ...], sb: tuple[int, ...]) -> Optional[int]:
        """min(b - a >= 0) by one merge-like pass; counts pointer advances."""
        best: Optional[int] = None
        pb = 0
        for a in sa:
            while pb < len(sb) and sb[pb] < a:
                pb += 1
                self.build_comparisons += 1
            self.build_comparisons += 1
            if pb == len(sb):
                break
            gap = sb[pb] - a
            if best is None or gap < best:
                best = gap
                if best == 0:
                    break
        return best


def build_smallest_shift(c: SetCollection) -> ShiftIndex:
    return ShiftIndex(c)


def smallest_shift(idx: ShiftIndex, i: int, j: int) -> Optional[int]:
    """min{s >= 0 : a + s = b for some a in S_i, b in S_j}, or None."""
    c = idx.collection
    sa = c.set(i).elements
    sb = c.set(j).elements
    if sb[-1] < sa[0]:
        return None
    if i in idx._large_pos and j in idx._large_pos:
        return idx.table[(i, j)]
    best: Optional[int] = None
    if len(sa) <= len(sb):
        # Successor of each a in S_j.
        for a in sa:
            idx.probes += 1
            pos = bisect_left(sb, a)
            if pos < len(sb):
                gap = sb[pos] - a
                if best is None or gap < best:
                    best = gap
                    if best == 0:
                        break
    else:
        # Predecessor of each b in S_i.
        for b in sb:
            idx.probes += 1
            pos = bisect_right(sa, b) - 1
            if pos >= 0:
                gap = b - sa[pos]
                if best is None or gap < best:
                    best = gap
                    if best == 0:
                        break
    return best
