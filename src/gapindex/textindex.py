"""Suffix-array machinery and gapped string indexing.

A gapped query asks for all position pairs (i, j) where two patterns occur
with j - i inside a gap range. The index covers the suffix array with
dyadic intervals, turns each interval's slice of starting positions into a
sorted set, and answers queries through the gapped set intersection index
over those sets. Two self-contained baselines (a two-finger linear scan
and a precomputed per-distance table) provide independent answers for
cross-checking.

All positions are 1-based, matching the on-disk query/output formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gapped
from .backends import DEFAULT_MEM_BUDGET, BackendKind
from .errors import BudgetError, FormatError
from .gapped import CoverPlan, GappedIndex, gapped_exists, gapped_report
from .sets import IntSet, SetCollection, _cover_rank_blocks

DEFAULT_QUAD_BUDGET = 512 << 20


@dataclass(frozen=True)
class SuffixArray:
    """Suffix array (1-based positions) with the adjacent-LCP array.

    sa[t] is the start of the (t+1)-th lexicographically smallest suffix;
    lcp[t] is the longest common prefix of the suffixes at sa[t-1] and
    sa[t], with lcp[0] = 0. Suffix order treats the implicit end of the
    text as smaller than every byte, so a prefix sorts before its
    extensions.
    """

    text: bytes
    sa: tuple[int, ...]
    lcp: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.text)


def _suffix_order(data: bytes) -> np.ndarray:
    """0-based suffix order by prefix doubling over numpy rank arrays."""
    n = len(data)
    rank = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    step = 1
    while True:
        second = np.full(n, -1, dtype=np.int64)
        if step < n:
            second[:-step] = rank[step:]
        order = np.lexsort((second, rank))
        first_sorted = rank[order]
        second_sorted = second[order]
        fresh = np.empty(n, dtype=np.int64)
        fresh[order[0]] = 0
        bump = (first_sorted[1:] != first_sorted[:-1]) | (
            second_sorted[1:] != second_sorted[:-1]
        )
        fresh[order[1:]] = np.cumsum(bump)
        rank = fresh
        if rank[order[-1]] == n - 1:
            return order
        step *= 2


def _lcp_kasai(data: bytes, order: np.ndarray) -> list[int]:
    n = len(data)
    pos_of = [0] * n
    for t, start in enumerate(order):
        pos_of[start] = t
    lcp = [0] * n
    match = 0
    for start in range(n):
        t = pos_of[start]
        if t == 0:
            match = 0
            continue
        prev = order[t - 1]
        while start + match < n and prev + match < n and data[start + match] == data[prev + match]:
            match += 1
        lcp[t] = match
        if match:
            match -= 1
    return lcp


def build_suffix_array(text: bytes) -> SuffixArray:
    """Suffix array plus LCP for a nonempty byte string."""
    if not text:
        raise FormatError("text must be nonempty")
    order = _suffix_order(text)
    lcp = _lcp_kasai(text, order)
    return SuffixArray(text=text, sa=tuple(int(x) + 1 for x in order), lcp=tuple(lcp))


def pattern_interval(sa: SuffixArray, pattern: bytes) -> tuple[int, int]:
    """Half-open 1-based interval [s, e) of suffixes with the pattern prefix.

    Empty interval (s == e) when the pattern does not occur; patterns longer
    than the text simply never occur.
    """
    if not pattern:
        raise FormatError("pattern must be nonempty")
    text, order, m = sa.text, sa.sa, len(pattern)
    lo, hi = 0, len(order)
    while lo < hi:
        mid = (lo + hi) // 2
        start = order[mid] - 1
        if text[start : start + m] < pattern:
            lo = mid + 1
        else:
            hi = mid
    first = lo
    hi = len(order)
    while lo < hi:
        mid = (lo + hi) // 2
        start = order[mid] - 1
        if text[start : start + m] <= pattern:
            lo = mid + 1
        else:
            hi = mid
    return (first + 1, lo + 1)


def occurrences(sa: SuffixArray, pattern: bytes) -> list[int]:
    s, e = pattern_interval(sa, pattern)
    return sorted(sa.sa[s - 1 : e - 1])


def find_occurrences(text: bytes, pattern: bytes) -> list[int]:
    """All 1-based occurrence positions via Knuth-Morris-Pratt."""
    if not pattern:
        raise FormatError("pattern must be nonempty")
    m = len(pattern)
    fail = [0] * m
    k = 0
    for t in range(1, m):
        while k and pattern[t] != pattern[k]:
            k = fail[k - 1]
        if pattern[t] == pattern[k]:
            k += 1
        fail[t] = k
    out = []
    k = 0
    for t, ch in enumerate(text):
        while k and ch != pattern[k]:
            k = fail[k - 1]
        if ch == pattern[k]:
            k += 1
        if k == m:
            out.append(t - m + 2)
            k = fail[k - 1]
    return out


class GappedStringIndex:
    """Dyadic suffix-array interval sets behind a gapped intersection index."""

    def __init__(self, text: bytes, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET):
        if not text:
            raise FormatError("text must be nonempty")
        self.text = text
        self.suffixes = build_suffix_array(text)
        n = len(text)
        sets: list[IntSet] = []
        self._interval_ids: dict[tuple[int, int], int] = {}
        total = 0
        for j in range(n.bit_length()):
            size = 1 << j
            for kappa in range(n // size):
                lo = kappa * size
                positions = tuple(sorted(self.suffixes.sa[lo : lo + size]))
                sets.append(IntSet(id=len(sets) + 1, elements=positions))
                self._interval_ids[(j, kappa)] = len(sets)
                total += size
        self.set_elements = total
        assert total <= n * n.bit_length(), "dyadic interval accounting bound violated"
        self.collection = SetCollection(sets=tuple(sets), universe=n)
        self.gapped = GappedIndex(self.collection, kind, mem_budget)

    @property
    def n(self) -> int:
        return len(self.text)

    def ssi_calls(self) -> int:
        return self.gapped.ssi_calls()

    def _cover_ids(self, lo: int, hi: int) -> list[int]:
        """Ids of dyadic interval sets covering suffix-array ranks [lo, hi]."""
        if lo > hi:
            return []
        return [self._interval_ids[(j, k)] for j, k, _, _ in _cover_rank_blocks(lo, hi)]

    def _planned_covers(
        self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int
    ) -> Optional[tuple[list[int], list[int], CoverPlan]]:
        """Cover ids of both patterns and the query's one plan, or None when
        no pair can answer.

        The gap is checked before the pattern lookup, so a bad range raises
        whether or not the patterns occur. Every cover pair shares the plan
        of the gap clamped to the text.
        """
        clamped = self.gapped._clamped(gap_lo, gap_hi)
        s1, e1 = pattern_interval(self.suffixes, p1)
        s2, e2 = pattern_interval(self.suffixes, p2)
        if s1 == e1 or s2 == e2 or clamped is None:
            return None
        # Looked up on the module, so a wrapper installed there sees each plan.
        plan = gapped.plan_cover(*clamped)
        return self._cover_ids(s1, e1 - 1), self._cover_ids(s2, e2 - 1), plan

    def exists(self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int) -> Optional[tuple[int, int]]:
        """First witness pair (i, j) with the required gap, or None."""
        planned = self._planned_covers(p1, p2, gap_lo, gap_hi)
        if planned is None:
            return None
        cover_a, cover_b, plan = planned
        for ida in cover_a:
            for idb in cover_b:
                hit = gapped_exists(self.gapped, ida, idb, gap_lo, gap_hi, plan=plan)
                if hit is not None:
                    return hit
        return None

    def report(self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int) -> list[tuple[int, int]]:
        """All pairs (i, j): p1 at i, p2 at j, j - i in [gap_lo, gap_hi]."""
        planned = self._planned_covers(p1, p2, gap_lo, gap_hi)
        if planned is None:
            return []
        cover_a, cover_b, plan = planned
        raw: list[tuple[int, int]] = []
        for ida in cover_a:
            for idb in cover_b:
                raw.extend(gapped_report(self.gapped, ida, idb, gap_lo, gap_hi, plan=plan))
        return sorted(set(raw))


def build_gapped_string_index(
    text: bytes, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET
) -> GappedStringIndex:
    return GappedStringIndex(text, kind, mem_budget)


def baseline_linear_scan(
    text: bytes,
    p1: bytes,
    p2: bytes,
    gap_lo: int,
    gap_hi: int,
    stats: Optional[dict] = None,
) -> list[tuple[int, int]]:
    """Two-finger merge over the sorted occurrence lists of both patterns.

    The lower finger only moves forward; re-scans from it are charged to
    emitted pairs, so the instrumented scan counter stays O(n + occ).
    """
    if gap_lo > gap_hi or gap_lo < 0:
        raise FormatError(f"need 0 <= gap_lo <= gap_hi, got [{gap_lo}, {gap_hi}]")
    occ1 = find_occurrences(text, p1)
    occ2 = find_occurrences(text, p2)
    out: list[tuple[int, int]] = []
    scans = 0
    ptr = 0
    for i in occ1:
        while ptr < len(occ2) and occ2[ptr] < i + gap_lo:
            ptr += 1
            scans += 1
        t = ptr
        while t < len(occ2) and occ2[t] <= i + gap_hi:
            out.append((i, occ2[t]))
            t += 1
            scans += 1
        scans += 1
    if stats is not None:
        stats["position_scans"] = scans
    return out


class QuadraticBaseline:
    """Per-distance tables over every pair of dyadic suffix-array intervals.

    For each pair of levels (j1, j2) all (SA slot, SA slot) pairs are packed
    into one sorted key array (block pair, then distance), so a query slices
    out the precomputed pair list for each covering block pair and distance
    range with two binary searches.
    """

    def __init__(self, text: bytes, mem_budget: int = DEFAULT_QUAD_BUDGET):
        if not text:
            raise FormatError("text must be nonempty")
        self.text = text
        self.suffixes = build_suffix_array(text)
        n = len(text)
        self.n = n
        levels = n.bit_length()
        truncated = [(n >> j) << j for j in range(levels)]
        rows = sum(truncated) ** 2
        if rows * 16 > mem_budget:
            raise BudgetError(
                f"quadratic baseline needs ~{rows * 16} bytes, over budget {mem_budget}"
            )
        self.stored_pairs = rows
        pos = np.asarray(self.suffixes.sa, dtype=np.int64)
        self.span = 2 * n + 1
        self._tables: dict[tuple[int, int], tuple] = {}
        for j1 in range(levels):
            n1 = truncated[j1]
            blocks1 = np.arange(n1, dtype=np.int64) >> j1
            a_vals = pos[:n1]
            for j2 in range(levels):
                n2 = truncated[j2]
                nb2 = n2 >> j2
                blocks2 = np.arange(n2, dtype=np.int64) >> j2
                b_vals = pos[:n2]
                keys = (
                    (blocks1[:, None] * nb2 + blocks2[None, :]) * self.span
                    + (b_vals[None, :] - a_vals[:, None])
                    + n
                ).ravel()
                a_flat = np.broadcast_to(a_vals[:, None], (n1, n2)).ravel()
                b_flat = np.broadcast_to(b_vals[None, :], (n1, n2)).ravel()
                sortidx = np.argsort(keys, kind="stable")
                self._tables[(j1, j2)] = (
                    keys[sortidx],
                    a_flat[sortidx].astype(np.int32),
                    b_flat[sortidx].astype(np.int32),
                    nb2,
                )

    def _pairs_for_blocks(
        self, j1: int, k1: int, j2: int, k2: int, d_lo: int, d_hi: int
    ) -> list[tuple[int, int]]:
        keys, a_flat, b_flat, nb2 = self._tables[(j1, j2)]
        base = (k1 * nb2 + k2) * self.span + self.n
        lo = int(np.searchsorted(keys, base + d_lo, side="left"))
        hi = int(np.searchsorted(keys, base + d_hi, side="right"))
        return [(int(a), int(b)) for a, b in zip(a_flat[lo:hi], b_flat[lo:hi])]

    def query(self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int) -> list[tuple[int, int]]:
        if gap_lo > gap_hi or gap_lo < 0:
            raise FormatError(f"need 0 <= gap_lo <= gap_hi, got [{gap_lo}, {gap_hi}]")
        s1, e1 = pattern_interval(self.suffixes, p1)
        s2, e2 = pattern_interval(self.suffixes, p2)
        if s1 == e1 or s2 == e2:
            return []
        d_hi = min(gap_hi, self.n - 1)
        if gap_lo > d_hi:
            return []
        cover1 = _cover_rank_blocks(s1, e1 - 1)
        cover2 = _cover_rank_blocks(s2, e2 - 1)
        out: list[tuple[int, int]] = []
        for j1, k1, _, _ in cover1:
            for j2, k2, _, _ in cover2:
                out.extend(self._pairs_for_blocks(j1, k1, j2, k2, gap_lo, d_hi))
        return sorted(set(out))


def baseline_quadratic(text: bytes, mem_budget: int = DEFAULT_QUAD_BUDGET) -> QuadraticBaseline:
    return QuadraticBaseline(text, mem_budget)
