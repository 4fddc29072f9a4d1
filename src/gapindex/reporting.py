"""Reporting for shifted set intersection via dyadic augmentation.

The index holds every base set plus all of its dyadic rank blocks, each
addressable as its own set in one shared existence backend. A report query
repeatedly asks for one certificate, splits the current pair of blocks at
the witness into strictly-smaller / strictly-larger halves, decomposes the
halves into dyadic blocks, and recurses only on block pairs whose shifted
value intervals can still intersect.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .backends import (
    DEFAULT_MEM_BUDGET,
    BackendKind,
    ShiftCertificate,
    build_backend,
)
from .reductions import reduce_3sum_to_ssi
from .sets import DyadicSubset, IntSet, SetCollection, dyadic_subsets, _cover_rank_blocks


class AugmentedInstance:
    """Base sets plus all dyadic rank blocks, behind one existence backend."""

    def __init__(self, c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET):
        self.base = c
        self.kind = kind
        all_sets: list[tuple[int, ...]] = [s.elements for s in c.sets]
        self._block_ids: dict[tuple[int, int, int], int] = {}
        self._blocks: dict[tuple[int, int, int], DyadicSubset] = {}
        dyadic_elements = 0
        for s in c.sets:
            for sub in dyadic_subsets(s):
                key = (sub.parent_id, sub.level, sub.block)
                all_sets.append(s.elements[sub.rank_lo - 1 : sub.rank_hi])
                self._block_ids[key] = len(all_sets)
                self._blocks[key] = sub
                dyadic_elements += sub.size
        n = c.total_size
        self.base_elements = n
        self.dyadic_elements = dyadic_elements
        self.total_elements = n + dyadic_elements
        bound = n * n.bit_length() + n  # N*(floor(log2 N)+1) + N
        assert self.total_elements <= bound, "dyadic accounting bound violated"
        self.backend = build_backend(all_sets, kind, mem_budget)
        self.existence_calls = 0
        self.last_query_calls = 0

    def block_id(self, sub: DyadicSubset) -> int:
        return self._block_ids[(sub.parent_id, sub.level, sub.block)]

    def stored_block(self, parent_id: int, level: int, block: int) -> DyadicSubset:
        return self._blocks[(parent_id, level, block)]

    def _exists(self, set_a: int, set_b: int, s: int) -> Optional[ShiftCertificate]:
        self.existence_calls += 1
        self.last_query_calls += 1
        return self.backend.exists(set_a, set_b, s)


def build_reporting_index(
    c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET
) -> AugmentedInstance:
    return AugmentedInstance(c, kind, mem_budget)


def matching_pairs(
    cover_a: Sequence[DyadicSubset], cover_b: Sequence[DyadicSubset], s: int
) -> list[tuple[DyadicSubset, DyadicSubset]]:
    """Block pairs whose shifted interval [amin+s, amax+s] meets [bmin, bmax].

    cover_b must be disjoint and sorted by min value (covers come out that
    way), so the matches for each A-block form a contiguous slice found by
    predecessor/successor search over the b minima and maxima.
    """
    if not cover_a or not cover_b:
        return []
    b_mins = [b.min_value for b in cover_b]
    b_maxs = [b.max_value for b in cover_b]
    out = []
    for a_block in cover_a:
        lo = bisect_left(b_maxs, a_block.min_value + s)
        hi = bisect_right(b_mins, a_block.max_value + s)
        for idx in range(lo, hi):
            out.append((a_block, cover_b[idx]))
    return out


def _cover_or_empty(parent: IntSet, lo: int, hi: int, inst: AugmentedInstance) -> list[DyadicSubset]:
    if lo > hi:
        return []
    return [
        inst.stored_block(parent.id, j, k)
        for j, k, _, _ in _cover_rank_blocks(lo, hi)
    ]


@dataclass(frozen=True)
class _Node:
    set_a: int  # backend set id for the current A-side block
    a_lo: int  # rank range of that block within the parent set
    a_hi: int
    set_b: int
    b_lo: int
    b_hi: int


def report_shift(
    inst: AugmentedInstance, i: int, j: int, s: int, trace: Optional[list] = None
) -> list[tuple[int, int]]:
    """All pairs (a, b) in S_i x S_j with a + s = b, sorted by a, no duplicates.

    The root pair is asked first, so a shift with no pair costs exactly one
    existence call; only a certificate starts the split recursion.
    """
    parent_a = inst.base.set(i)
    parent_b = inst.base.set(j)
    inst.last_query_calls = 0
    cert = inst._exists(i, j, s)
    if cert is None:
        if trace is not None:
            trace.append((_Node(i, 1, len(parent_a), j, 1, len(parent_b)), None))
        return []
    found: list[tuple[int, int]] = []
    node = _Node(i, 1, len(parent_a), j, 1, len(parent_b))
    stack: list[_Node] = []
    while True:
        if trace is not None:
            trace.append((node, cert))
        if cert is not None:
            found.append((cert.a, cert.b))
            # Split strictly below / above the witness; remaining solutions
            # cannot straddle the two halves since a' < a forces b' < b.
            rank_a = bisect_left(parent_a.elements, cert.a) + 1
            rank_b = bisect_left(parent_b.elements, cert.b) + 1
            lows_a = _cover_or_empty(parent_a, node.a_lo, rank_a - 1, inst)
            highs_a = _cover_or_empty(parent_a, rank_a + 1, node.a_hi, inst)
            lows_b = _cover_or_empty(parent_b, node.b_lo, rank_b - 1, inst)
            highs_b = _cover_or_empty(parent_b, rank_b + 1, node.b_hi, inst)
            for side_a, side_b in ((lows_a, lows_b), (highs_a, highs_b)):
                for block_a, block_b in matching_pairs(side_a, side_b, s):
                    stack.append(
                        _Node(
                            inst.block_id(block_a),
                            block_a.rank_lo,
                            block_a.rank_hi,
                            inst.block_id(block_b),
                            block_b.rank_lo,
                            block_b.rank_hi,
                        )
                    )
        if not stack:
            return sorted(set(found))
        node = stack.pop()
        cert = inst._exists(node.set_a, node.set_b, s)


class ThreeSumReporting:
    """3SUM indexing with reporting: all unordered pairs {a, b} with a + b = c."""

    def __init__(self, A: list[int], kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET):
        self.collection, self.map = reduce_3sum_to_ssi(A)
        self.index = build_reporting_index(self.collection, kind, mem_budget)

    def _shift(self, c: int) -> int:
        return self.map.query(c).s

    def exists(self, c: int) -> Optional[tuple[int, int]]:
        cert = self.index._exists(2, 1, self._shift(c))
        if cert is None:
            return None
        a, b = self.map.decode(cert.a, cert.b)
        return (min(a, b), max(a, b))

    def report(self, c: int) -> list[tuple[int, int]]:
        pairs = report_shift(self.index, 2, 1, self._shift(c))
        unordered = {tuple(sorted(self.map.decode(a, b))) for a, b in pairs}
        return sorted(unordered)


def report_3sum(
    A: list[int], c: int, kind: Optional[BackendKind] = None
) -> list[tuple[int, int]]:
    """One-shot convenience wrapper around ThreeSumReporting."""
    from .backends import LinearScan

    return ThreeSumReporting(A, kind or LinearScan()).report(c)
