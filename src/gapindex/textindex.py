"""Suffix-array machinery and gapped string indexing.

A gapped query asks for all position pairs (i, j) where two patterns occur
with j - i inside a gap range. The index covers the suffix array with
dyadic intervals, turns each interval's slice of starting positions into a
sorted set, and answers queries through the gapped set intersection index
over those sets. The sets are one ``sets.SlicedSets``: the concatenated
level matrices as int32 codes into the suffix array's own ints, cut at
closed-form ends (2^j elements per set of level j), whose sets are made
on first read, so a build makes none; the same codes number the
quotient levels.
Each query plans its gap at most once and runs the plan on the cover
pairs (one dyadic block of each pattern's interval). In a report a pair
whose difference range misses the gap (``backends.range_meets``) does no
work and a tabulated pair reads its table; the gap is planned at the
first other pair, and later pairs share that plan, so a report whose
pairs all miss the gap plans nothing.
An exists asks each cover pair one question, whether some difference
lies in the gap (``SsiBackend.meets``), and the backend decides how: it
reads a tabulated (heavy) pair's table and walks a light pair's smaller
block. Only the first pair that meets the gap gives the witness: a heavy
pair from its table (its smallest realized shift in the gap, with the
smallest a), a light one by building the plan and running it. So an
exists builds at most one plan, and a NO whose pairs never meet the gap
plans nothing. Two self-contained
baselines (a two-finger linear scan and a precomputed per-distance table)
provide independent answers for cross-checking.

All positions are 1-based, matching the on-disk query/output formats.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import gapped
from .backends import DEFAULT_MEM_BUDGET, BackendKind, range_meets
from .errors import BudgetError, FormatError, GapIndexError
from .gapped import GappedIndex, gapped_exists, gapped_report
from .sets import SlicedSets, code_type, cover_blocks, level_starts

DEFAULT_QUAD_BUDGET = 512 << 20


@dataclass(frozen=True)
class SuffixArray:
    """Suffix array (1-based positions) with the adjacent-LCP array.

    sa[t] is the start of the (t+1)-th lexicographically smallest suffix;
    lcp[t] is the longest common prefix of the suffixes at sa[t-1] and
    sa[t], with lcp[0] = 0. Suffix order treats the implicit end of the
    text as smaller than every byte, so a prefix sorts before its
    extensions. No query reads lcp, so it is computed on first read.
    """

    text: bytes
    sa: tuple[int, ...]

    @cached_property
    def lcp(self) -> tuple[int, ...]:
        return tuple(_lcp_kasai(self.text, [p - 1 for p in self.sa]))

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


def _lcp_kasai(data: bytes, order: Sequence[int]) -> list[int]:
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
    """Suffix array (LCP on first read) for a nonempty byte string. The
    1-based positions are converted to Python ints in one ``tolist``."""
    if not text:
        raise FormatError("text must be nonempty")
    return SuffixArray(text=text, sa=tuple((_suffix_order(text) + 1).tolist()))


def pattern_interval(sa: SuffixArray, pattern: bytes) -> tuple[int, int]:
    """Half-open 1-based interval [s, e) of suffixes with the pattern prefix.

    The suffixes' m-byte prefixes, m = len(pattern), ascend in suffix
    order, so ``bisect_left`` and ``bisect_right`` over the suffix array,
    keyed by ``text[p - 1 : p - 1 + m]``, find both ends; the second
    starts from the first. Empty interval (s == e) when the pattern does
    not occur; patterns longer than the text simply never occur.
    """
    if not pattern:
        raise FormatError("pattern must be nonempty")
    text, m = sa.text, len(pattern)

    def prefix(p: int) -> bytes:
        return text[p - 1 : p - 1 + m]

    first = bisect_left(sa.sa, pattern, key=prefix)
    return (first + 1, bisect_right(sa.sa, pattern, first, key=prefix) + 1)


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


def _dyadic_interval_sets(sa: Sequence[int]) -> SlicedSets:
    """The starting positions of each dyadic suffix-array interval as one
    ``SlicedSets`` of sorted sets; interval (j, kappa) is set
    level_starts(n)[j] + kappa + 1.

    Level j's intervals are the rows of an (n >> j) x 2^j array of
    positions minus 1. A row of level j + 1 joins two sorted rows of
    level j, which a stable sort (a merge of two runs) orders in linear
    time. The levels' arrays, raveled and concatenated, are every set's
    elements in set order, and are the sets' codes as they stand: code
    p - 1 names position p in ``ints``, the suffix array's own int objects
    in position order, so every set shares them. The ends are the
    closed-form sizes, 2^j for each set of level j. No set is made here,
    and no Python loop runs per set or per element.
    """
    n = len(sa)
    typecode = code_type(n)
    rows = np.asarray(sa, dtype=typecode) - 1
    ints = np.empty(n, dtype=object)
    ints[rows] = sa  # ints[p - 1] is the suffix array's object for p
    levels = [rows]
    for j in range(1, n.bit_length()):
        count = n >> j
        rows = np.sort(rows[: 2 * count].reshape(count, 1 << j), axis=1, kind="stable")
        levels.append(rows.ravel())
    codes = np.concatenate(levels)
    widths = np.arange(n.bit_length())
    ends = np.repeat(1 << widths, n >> widths).cumsum()
    return SlicedSets(array(typecode, codes.tobytes()), array("q", ends.tobytes()),
                      tuple(ints.tolist()))


class GappedStringIndex:
    """Dyadic suffix-array interval sets behind a gapped intersection index,
    which takes their ``SlicedSets`` as it is, over universe n."""

    def __init__(self, text: bytes, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET):
        if not text:
            raise FormatError("text must be nonempty")
        self.text = text
        self.suffixes = build_suffix_array(text)
        n = len(text)
        sets = _dyadic_interval_sets(self.suffixes.sa)
        self._level_starts = level_starts(n)
        self.set_elements = len(sets.codes)
        if self.set_elements > n * n.bit_length():
            raise GapIndexError("dyadic interval accounting bound violated")
        self.gapped = GappedIndex(sets, n, kind, mem_budget)

    def ssi_calls(self) -> int:
        return self.gapped.ssi_calls()

    def _cover_ids(self, lo: int, hi: int) -> list[int]:
        """Ids of dyadic interval sets covering suffix-array ranks [lo, hi]."""
        starts = self._level_starts
        return [starts[j] + k + 1 for j, k, _, _ in cover_blocks(lo, hi)]

    def _covers(
        self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int
    ) -> Optional[tuple[list[int], list[int], tuple[int, int]]]:
        """Cover ids of both patterns and the gap clamped to the text, or
        None when no pair can answer.

        The gap is checked before the pattern lookup, so a bad range raises
        whether or not the patterns occur.
        """
        clamped = self.gapped._clamped(gap_lo, gap_hi)
        s1, e1 = pattern_interval(self.suffixes, p1)
        s2, e2 = pattern_interval(self.suffixes, p2)
        if s1 == e1 or s2 == e2 or clamped is None:
            return None
        return self._cover_ids(s1, e1 - 1), self._cover_ids(s2, e2 - 1), clamped

    def exists(self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int) -> Optional[tuple[int, int]]:
        """First witness pair (i, j) with the required gap, or None.

        Cover pairs are asked in order whether some difference lies in the
        gap (``SsiBackend.meets``: a table read for a pair the backend
        tabulates, a walk for any other), and only the first pair that
        meets it answers: a tabulated pair from its table with no plan
        (``gapped_exists``' table witness), any other by building the
        query's one plan and running it, so the witness is the plan-order
        one. That pair's ``gapped_exists`` must find a witness: finding
        none raises GapIndexError. Afterwards ``gapped.last_plan_size`` is
        the size of the plan built, or 0 when none was.
        """
        g = self.gapped
        g.last_plan_size = 0
        covers = self._covers(p1, p2, gap_lo, gap_hi)
        if covers is None:
            return None
        cover_a, cover_b, (lo, hi) = covers
        backend = g.exact.backend
        for ida in cover_a:
            for idb in cover_b:
                if not backend.meets(ida, idb, lo, hi):
                    continue
                # A tabulated pair answers from its table, with no plan. The
                # plan is looked up on the module, so a wrapper installed
                # there sees each one.
                plan = None if backend.tabulated(ida, idb) else gapped.plan_cover(lo, hi)
                hit = gapped_exists(g, ida, idb, gap_lo, gap_hi, plan=plan)
                if hit is None:
                    raise GapIndexError(
                        f"cover pair ({ida}, {idb}) has a difference in"
                        f" [{lo}, {hi}] that its {'plan' if plan else 'table'} missed"
                    )
                return hit
        return None

    def report(self, p1: bytes, p2: bytes, gap_lo: int, gap_hi: int) -> list[tuple[int, int]]:
        """All pairs (i, j): p1 at i, p2 at j, j - i in [gap_lo, gap_hi].

        A cover pair that fails ``range_meets`` reports nothing and is not
        run; a tabulated pair reports from its table. The query's one plan is
        built at the first other pair, and every later one shares it.
        Afterwards ``gapped.last_plan_size`` is that plan's size (0 when no
        pair needed one), ``last_raw_pairs`` the sum of the cover pairs' raw
        pairs and ``last_max_multiplicity`` the largest of theirs.
        """
        g = self.gapped
        g.last_plan_size = g.last_raw_pairs = g.last_max_multiplicity = 0
        covers = self._covers(p1, p2, gap_lo, gap_hi)
        if covers is None:
            return []
        cover_a, cover_b, clamped = covers
        base, backend = g.exact.base, g.exact.backend
        rows = backend.rows
        plan = None
        raw: list[tuple[int, int]] = []
        raw_pairs = multiplicity = 0
        for ida in cover_a:
            for idb in cover_b:
                if not range_meets(rows[ida - 1] or base[ida - 1],
                                   rows[idb - 1] or base[idb - 1], *clamped):
                    continue
                if plan is None and not backend.tabulated(ida, idb):
                    # Looked up on the module, so a wrapper installed there sees it.
                    plan = gapped.plan_cover(*clamped)
                raw.extend(gapped_report(g, ida, idb, gap_lo, gap_hi, plan=plan))
                raw_pairs += g.last_raw_pairs
                multiplicity = max(multiplicity, g.last_max_multiplicity)
        g.last_plan_size = 0 if plan is None else plan.size
        g.last_raw_pairs, g.last_max_multiplicity = raw_pairs, multiplicity
        # Each pattern's cover blocks partition its occurrences, so pairs
        # from different cover pairs differ and need no deduplication.
        return sorted(raw)


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
        cover1 = cover_blocks(s1, e1 - 1)
        cover2 = cover_blocks(s2, e2 - 1)
        out: list[tuple[int, int]] = []
        for j1, k1, _, _ in cover1:
            for j2, k2, _, _ in cover2:
                out.extend(self._pairs_for_blocks(j1, k1, j2, k2, gap_lo, d_hi))
        return sorted(set(out))
