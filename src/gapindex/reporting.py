"""Reporting for shifted set intersection via dyadic augmentation.

A report query for S_i x S_j at shift s searches nodes: a rank range of
S_i against a rank range of S_j, starting from the whole sets. A node is
tabulated when both ranges are stored sets above the backend's threshold.
The backend answers it by one lookup, which returns a certificate; the
node then splits at the witness into strictly-smaller / strictly-larger
halves, covers each half's ranks by ``cover_blocks`` tuples (level, kappa,
rank_lo, rank_hi), and recurses only on block pairs whose shifted value
intervals can still intersect. A block's values are read from the base
set's tuple at its end ranks; no block object is built.

Every other node, the root of a pair the backend probes and each child
with a side at or below the threshold, is answered by one scan
(``SsiBackend.scan``): the smaller range is walked against the other base
set's members without stopping at a hit. That costs O(log + min(|A|, |B|)
+ occ * log) element steps, one missed probe's cost plus one bisection per
pair reported, where the recursion would spend a logarithmic number of
calls per pair.

Only a lookup addresses a block, so an instance stores only the blocks
above the threshold: none under ``LinearScan``, all of them under
``FullTabulation``, the large ones under ``SmallUniverse``, whose
ceil(N^delta) still counts every block in N.

A root lookup pairs two base sets and every lookup below it two blocks,
so the backend holds the base sets and tabulates the blocks against each
other only. A block's id is computed, not looked up: base set i is id i;
after the k base sets come the stored blocks of set 1, then of set 2, and
so on, each set's as ``dyadic_subsets`` slices them from its tuple, in
level-major order. Level j's blocks hold 2^j elements, so the stored
levels are those from ``lowest_level``, the first whose 2^j is above the
threshold. Block (j, kappa) of set i is therefore id
``first_block_id(i) + starts[j] - starts[lowest_level] + kappa``, with
``starts = level_starts(len(S_i))``; under ``FullTabulation``
``lowest_level`` is 0 and the ids are those of every block.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .backends import (
    DEFAULT_MEM_BUDGET,
    BackendKind,
    ShiftCertificate,
    build_backend,
    size_threshold,
)
from .errors import FormatError, GapIndexError
from .reductions import reduce_3sum_to_ssi
from .sets import Block, SetCollection, cover_blocks, dyadic_subsets, level_starts, set_sizes


def dyadic_block_elements(m):
    """Elements in all dyadic blocks of an m-element set: level j has m >> j
    blocks of 2^j elements. Given an int64 array of set sizes, it gives
    the count of each set, in one array."""
    return sum((m >> j) << j for j in range(int(np.max(m, initial=0)).bit_length()))


class AugmentedInstance:
    """Base sets plus the dyadic rank blocks a lookup can address, behind
    one existence backend.

    ``base`` is the k base sets' element tuples, as given, and is the
    backend's ``sets``: of a ``SlicedSets`` (a quotient level, or the
    string index's interval sets) only the sets the backend tabulates are
    made at build. The accounting reads one int64 array of the sizes
    (``set_sizes``): the element counts, the threshold total and each
    set's number of stored blocks are numpy expressions over it.
    ``total_elements`` counts the base sets and every dyadic block, stored
    or not. Only a set of at least 2^``lowest_level`` elements stores
    blocks, sliced by one ``dyadic_subsets`` call. Of the block ids the
    instance keeps only ``first_block``, each set's first (a cumulative
    sum of the numbers), or one int when no set stores a block, read
    through ``first_block_id``; the module docstring places the others.
    ``existence_calls`` counts the lookups asked through ``_exists``; the
    backend counts its own scans, and ``ssi_calls`` sums the two.
    """

    def __init__(self, sets: Sequence[tuple[int, ...]], kind: BackendKind,
                 mem_budget: int = DEFAULT_MEM_BUDGET):
        self.base = sets
        self.kind = kind
        sizes = set_sizes(sets)
        n = int(sizes.sum())
        self.base_elements = n
        self.dyadic_elements = int(np.sum(dyadic_block_elements(sizes)))
        self.total_elements = n + self.dyadic_elements
        bound = n * n.bit_length() + n  # N*(floor(log2 N)+1) + N
        if self.total_elements > bound:
            raise GapIndexError("dyadic accounting bound violated")
        threshold = size_threshold(kind, self.total_elements)
        # The first level whose blocks are above the threshold; no set has
        # a level as high as n.bit_length(), so that cap stores none.
        lowest = 0
        while lowest < n.bit_length() and 1 << lowest <= threshold:
            lowest += 1
        self.lowest_level = lowest
        k = len(sets)
        top = int(sizes.max(initial=0)).bit_length()
        blocks: list[tuple[int, ...]] = []
        # When no set stores a block (under LinearScan, never), every set's
        # first block id is k + 1, kept as one int.
        self.first_block: Union[int, list[int]] = k + 1
        if lowest < top:
            # Set i stores |S_i| >> j blocks of each level j from ``lowest``.
            stored = sum(sizes >> j for j in range(lowest, top))
            self.first_block = (k + 1 + np.cumsum(stored) - stored).tolist()
            for i in np.flatnonzero(stored).tolist():
                blocks.extend(dyadic_subsets(sets[i], lowest))
        self.backend = build_backend(sets, kind, mem_budget, blocks=blocks, threshold=threshold)
        self.existence_calls = 0
        self.last_query_calls = 0

    def first_block_id(self, i: int) -> int:
        """The id of base set i's first stored block, where its blocks
        would start when it stores none."""
        first = self.first_block
        return first if type(first) is int else first[i - 1]

    def _exists(self, set_a: int, set_b: int, s: int) -> Optional[ShiftCertificate]:
        self.existence_calls += 1
        return self.backend.exists(set_a, set_b, s)

    def ssi_calls(self) -> int:
        """Backend calls made: existence calls, and the scans and walking
        passes the backend counts."""
        return self.existence_calls + self.backend.scans


def build_reporting_index(
    c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET
) -> AugmentedInstance:
    return AugmentedInstance([s.elements for s in c.sets], kind, mem_budget)


def matching_pairs(
    elements_a: Sequence[int], cover_a: Sequence[Block],
    elements_b: Sequence[int], cover_b: Sequence[Block], s: int,
) -> list[tuple[Block, Block]]:
    """Block pairs whose shifted interval [amin+s, amax+s] meets [bmin, bmax].

    The covers are ``cover_blocks`` tuples over ``elements_a`` and
    ``elements_b``, whose elements at a block's end ranks are its minimum
    and maximum. cover_b must be disjoint and in rank order (covers come
    out that way), so the matches for each A-block form a contiguous slice
    found by predecessor/successor search over the b minima and maxima.
    """
    if not cover_a or not cover_b:
        return []
    b_mins = [elements_b[lo - 1] for _, _, lo, _ in cover_b]
    b_maxs = [elements_b[hi - 1] for _, _, _, hi in cover_b]
    out = []
    for block_a in cover_a:
        lo = bisect_left(b_maxs, elements_a[block_a[2] - 1] + s)
        hi = bisect_right(b_mins, elements_a[block_a[3] - 1] + s)
        for idx in range(lo, hi):
            out.append((block_a, cover_b[idx]))
    return out


class _Node(NamedTuple):
    set_a: int  # backend set id a lookup asks; a scanned node names the base set
    a_lo: int  # rank range of the node's A side within the base set
    a_hi: int
    set_b: int
    b_lo: int
    b_hi: int


def check_set_ids(inst: AugmentedInstance, i: int, j: int) -> None:
    """Raise FormatError unless i, then j, is a base set id 1..k: the backend
    answers a pair of block ids, which follow the k base sets, from a table."""
    k = len(inst.base)
    if not (1 <= i <= k and 1 <= j <= k):
        raise FormatError(f"set index {j if 1 <= i <= k else i} out of range 1..{k}")


def report_shift(
    inst: AugmentedInstance, i: int, j: int, s: int, trace: Optional[list] = None
) -> list[tuple[int, int]]:
    """All pairs (a, b) in S_i x S_j with a + s = b, sorted by a, no duplicates.

    An untabulated root is one scan. A tabulated root is asked for a
    certificate first, so a shift with no pair costs one lookup; only a
    certificate starts the split recursion. ``trace`` receives (node,
    answer) for each backend call: a certificate or None for a lookup, the
    pairs for a scan. ``inst.last_query_calls`` is set to the calls made.
    """
    check_set_ids(inst, i, j)
    elements_a, elements_b = inst.base[i - 1], inst.base[j - 1]
    m_a, m_b = len(elements_a), len(elements_b)
    backend = inst.backend
    shift = (s,)
    if not backend.tabulated(i, j):
        found = backend.scan(i, 1, m_a, j, 1, m_b, shift)
        inst.last_query_calls = 1
        if trace is not None:
            trace.append((_Node(i, 1, m_a, j, 1, m_b), found))
        return found
    calls = inst.ssi_calls()
    threshold = backend.threshold
    found = []
    starts_a = level_starts(m_a)
    starts_b = level_starts(m_b)
    first_a = inst.first_block_id(i) - starts_a[inst.lowest_level]
    first_b = inst.first_block_id(j) - starts_b[inst.lowest_level]
    stack = [_Node(i, 1, m_a, j, 1, m_b)]
    while stack:
        node = stack.pop()
        cert = inst._exists(node.set_a, node.set_b, s)
        if trace is not None:
            trace.append((node, cert))
        if cert is None:
            continue
        found.append((cert.a, cert.b))
        _, a_lo, a_hi, _, b_lo, b_hi = node
        # Split strictly below / above the witness; remaining solutions
        # cannot straddle the two halves since a' < a forces b' < b.
        rank_a = bisect_left(elements_a, cert.a) + 1
        rank_b = bisect_left(elements_b, cert.b) + 1
        # The split below assumes the pair lies in the node's blocks; a
        # pair outside them would be found again from another node.
        if not (
            a_lo <= rank_a <= a_hi
            and b_lo <= rank_b <= b_hi
            and elements_a[rank_a - 1] == cert.a
            and elements_b[rank_b - 1] == cert.b
        ):
            raise GapIndexError(
                f"certificate ({cert.a}, {cert.b}) of shift {s} is not in ranks"
                f" [{a_lo}, {a_hi}] x [{b_lo}, {b_hi}]"
            )
        lows_a = cover_blocks(a_lo, rank_a - 1)
        highs_a = cover_blocks(rank_a + 1, a_hi)
        lows_b = cover_blocks(b_lo, rank_b - 1)
        highs_b = cover_blocks(rank_b + 1, b_hi)
        for side_a, side_b in ((lows_a, lows_b), (highs_a, highs_b)):
            for (j_a, k_a, lo_a, hi_a), (j_b, k_b, lo_b, hi_b) in matching_pairs(
                elements_a, side_a, elements_b, side_b, s
            ):
                if 1 << j_a > threshold and 1 << j_b > threshold:
                    stack.append(_Node(first_a + starts_a[j_a] + k_a, lo_a, hi_a,
                                       first_b + starts_b[j_b] + k_b, lo_b, hi_b))
                    continue
                pairs = backend.scan(i, lo_a, hi_a, j, lo_b, hi_b, shift)
                if trace is not None:
                    trace.append((_Node(i, lo_a, hi_a, j, lo_b, hi_b), pairs))
                found.extend(pairs)
    inst.last_query_calls = inst.ssi_calls() - calls
    # Nodes are disjoint and every pair found lies in its own node, so
    # there is nothing to deduplicate.
    return sorted(found)


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
