"""Reporting for shifted set intersection via dyadic augmentation.

The index holds every base set plus all of its dyadic rank blocks, each
addressable as its own set in one shared existence backend. A report query
repeatedly asks for one certificate, splits the current pair of blocks at
the witness into strictly-smaller / strictly-larger halves, decomposes the
halves into dyadic blocks, and recurses only on block pairs whose shifted
value intervals can still intersect.

Backend set ids follow one layout, so a block's id is computed, not looked
up: base set i is id i; after the k base sets come the blocks of set 1,
then of set 2, and so on, each set's blocks in the level-major order of
``dyadic_subsets``. Block (j, kappa) of set i is therefore id
``first_block[i - 1] + level_starts(len(S_i))[j] + kappa``.
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
from .errors import GapIndexError
from .reductions import reduce_3sum_to_ssi
from .sets import DyadicSubset, IntSet, SetCollection, cover_rank_range, dyadic_subsets
from .sets import level_starts


class AugmentedInstance:
    """Base sets plus all dyadic rank blocks, behind one existence backend.

    Of the block ids it keeps only ``first_block``, each base set's first;
    the layout in the module docstring places the others.
    """

    def __init__(self, c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET):
        self.base = c
        self.kind = kind
        all_sets: list[tuple[int, ...]] = [s.elements for s in c.sets]
        # Each stored set's base set: a block is a rank run of its parent.
        bases = list(range(len(all_sets)))
        self.first_block: list[int] = []
        dyadic_elements = 0
        for p, s in enumerate(c.sets):
            self.first_block.append(len(all_sets) + 1)
            for sub in dyadic_subsets(s):
                all_sets.append(s.elements[sub.rank_lo - 1 : sub.rank_hi])
                bases.append(p)
                dyadic_elements += sub.size
        n = c.total_size
        self.base_elements = n
        self.dyadic_elements = dyadic_elements
        self.total_elements = n + dyadic_elements
        bound = n * n.bit_length() + n  # N*(floor(log2 N)+1) + N
        if self.total_elements > bound:
            raise GapIndexError("dyadic accounting bound violated")
        self.backend = build_backend(all_sets, kind, mem_budget, bases=bases)
        self.existence_calls = 0
        self.last_query_calls = 0

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


def _cover_or_empty(parent: IntSet, lo: int, hi: int) -> list[DyadicSubset]:
    return cover_rank_range(parent, lo, hi) if lo <= hi else []


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
    first_a = inst.first_block[i - 1]
    first_b = inst.first_block[j - 1]
    starts_a = level_starts(len(parent_a))
    starts_b = level_starts(len(parent_b))
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
            # The split below assumes the pair lies in the node's blocks; a
            # pair outside them would be found again from another node.
            if not (
                node.a_lo <= rank_a <= node.a_hi
                and node.b_lo <= rank_b <= node.b_hi
                and parent_a.elements[rank_a - 1] == cert.a
                and parent_b.elements[rank_b - 1] == cert.b
            ):
                raise GapIndexError(
                    f"certificate ({cert.a}, {cert.b}) of shift {s} is not in ranks"
                    f" [{node.a_lo}, {node.a_hi}] x [{node.b_lo}, {node.b_hi}]"
                )
            lows_a = _cover_or_empty(parent_a, node.a_lo, rank_a - 1)
            highs_a = _cover_or_empty(parent_a, rank_a + 1, node.a_hi)
            lows_b = _cover_or_empty(parent_b, node.b_lo, rank_b - 1)
            highs_b = _cover_or_empty(parent_b, rank_b + 1, node.b_hi)
            for side_a, side_b in ((lows_a, lows_b), (highs_a, highs_b)):
                for block_a, block_b in matching_pairs(side_a, side_b, s):
                    stack.append(
                        _Node(
                            first_a + starts_a[block_a.level] + block_a.block,
                            block_a.rank_lo,
                            block_a.rank_hi,
                            first_b + starts_b[block_b.level] + block_b.block,
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
