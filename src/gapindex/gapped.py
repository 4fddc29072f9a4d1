"""Gapped set intersection: does any shift in [lo, hi] produce a hit, and
which pairs realize one?

An interval query is answered by a small plan of primitive queries:

* point shifts, answered exactly by the underlying shift index, and
* leveled approximate queries, answered on quotient collections where every
  element is divided by 2^(level-1). A level-l query centered at d = kappa*2^l
  must say YES when some difference lands in [d - 2^(l-1), d + 2^(l-1)] and
  must say NO when none lands in the open interval (d - 2^l, d + 2^l); in
  between it may say either.

The planner arranges the queries so that their guaranteed zones cover the
whole interval while every "may say YES" zone stays inside it, so a YES is
always trustworthy and no witness is missed.

Expansion lemma: quotient expansion is exact. At level l let h = 2^(l-1).
The originals of quotient value q are the elements in [q*h, q*h + h - 1],
so a quotient pair at shift t expands to original pairs whose differences
lie in [(t-1)*h + 1, (t+1)*h - 1]. For t in {2*kappa - 1, 2*kappa,
2*kappa + 1} that range lies inside [kappa*2^l - 2^l + 1, kappa*2^l + 2^l - 1],
the uncertain zone of the query at kappa*2^l, and plan_cover refuses a
plan whose zones leave [alpha, beta]. So every original pair behind a
quotient hit has its gap in [alpha, beta]: report keeps every expanded
pair, and exists returns the first originals as its witness.

A level-l query asks the quotient shifts 2*kappa - 1, 2*kappa and
2*kappa + 1, so adjacent queries of one level share a shift. Level 1
divides by 2^0, so its quotient shifts are exact shifts, and its YES and
NO zones are the same three shifts: the plan issues them as level-0
probes beside the point shifts, and no probe has level 1. The plan lists
every distinct primitive probe once, and a query asks each of them once
per (level, shift) of a set pair, so no exact shift is asked twice.

Plans as runs: each pass (forward from alpha, mirrored from beta) issues up
to three point shifts and then, per level l, a run of at most three
consecutive centers kappa*2^l, kept as (level, kappa_first, kappa_last).
Each run is found in closed form: the first kappa is the largest whose
guaranteed zone touches the covered prefix, a query at kappa*2^l covers up
to exactly kappa*2^l + 2^(l-1), and so the pass stops at kappa =
need // 2^(l+1) + 1 with need = width + 2*(lo - 2^(l-1)). A plan costs
O(levels): the escape check reads each run's two extreme centers, and a
forward run's probes are one range of shifts. What a query reads on every
call (``segments``, the probes grouped by level in first-issue order,
``level_probes`` and ``size``) is built with the plan; ``probes``,
``level_shifts``, the centers and their ApproxQuery values are derived on
first read.

Per-level pass: most probes find nothing, and a probing backend spends
min(|A|, |B|) element steps on each miss of a pair's level-l sets A and B.
Let P_l be the plan's number of level-l probes. When the larger of the two
sets has at most P_l elements, listing the differences {b - a} takes
|A|*|B| <= P_l * min(|A|, |B|) steps, no more than those probes cost when
all of them miss, so the abstract's query bound
O~(|P1| + |P2| + n^delta*(occ+1)) still holds.

The index holds each set as a sorted element tuple: ``build_gapped_index``
unwraps a collection, and the string index hands over its interval sets
as one ``sets.SlicedSets``, whose tuples are made on first read; a
query reads a base set through the exact backend's ``rows`` list, and
indexes the sets only on a set not yet read. After the gap, every query
checks its set ids against the k base sets (``reporting.check_set_ids``).

Level 1 divides by 2^0 = 1, so its quotient sets are the sets themselves:
the exact instance answers a level-1 ``ApproxQuery``, ``instances[l]``
names the instance for level l, and only levels from 2 build quotients,
in one bulk pass (``quotient_levels``): since a >> l = (a >> (l-1)) >> 1,
each level is the level below shifted right by one with repeats inside a
set dropped, over one array of codes into the sorted distinct values. A
level keeps its sets' elements as int32 codes into one tuple of its
distinct values, one int object each, as a ``sets.SlicedSets``: a set's
tuple is made from them on the set's first read, and its member set on
its first probe, so a build makes no quotient set and a query pass reads
only the sets it asks.

Only the levels a plan can ask are built: 2..R, where R = ``reach(u)``
is the top level of the two passes over the whole range [0, u - 1],
three or four below ceil(log2 u) at every universe from 2^10 to 2^40. A
pass over a narrower gap climbs no higher (checked over every gap for u
up to 96, and at random for larger u, in ``test_reachable_levels``), so
no plan over a clamped gap asks above R, and a plan that does is refused
with GapIndexError. The build pauses the cyclic collector: it leaves no
reference cycle behind, so every pass would walk the growing heap and
free nothing. It runs the one young collection that re-enabling owes
before it returns, and leaves the collector as it found it.

A pair the exact instance tabulates (``SsiBackend.tabulated``: both sets
above its threshold) answers from its own table, which holds every
realized shift with its smallest-a certificate, and builds no plan. An
exists reads the smallest realized shift in the clamped gap
(``_TabulatedPairs.smallest``) and asks the exact instance for that
shift's certificate by one call: its witness has the smallest b - a in
the gap and, among those, the smallest a. A report asks ``report_shift``
at the exact instance for each realized shift in the gap
(``_TabulatedPairs.realized``); pairs at distinct shifts differ, so
nothing is expanded or deduplicated. Neither read counts a call or a
probe. Only the other pairs run the plan, and no level answers a
tabulated pair, so every quotient level is built under ``LinearScan``
whatever the exact backend: it holds member sets, and no table or block.

A report asks each level of a pair the exact instance does not tabulate
by one call, ``SsiBackend.scan_shifts``, holding the level's P_l shifts,
and reads back one flat list of the level's pairs. When neither set has
more than P_l elements, the differences are listed once and the wanted
ones kept, in at most P_l * min(|A|, |B|) steps; otherwise the call is one
``scan`` over the whole sets at all P_l shifts, whose cut walk of the
smaller set runs once per shift, in at most P_l * (log + min(|A|, |B|)) +
occ * log steps. A walking pass counts as one backend call, a listing as
none.

Both queries first read the ends of the pair's two sets
(``backends.range_meets``): every difference b - a lies in
[min B - max A, max B - min A], so when that range misses [alpha, beta],
or a set is empty, no probe can hit. Such a pair lists, scans and asks
nothing: an exists returns None and a report [] with no raw pairs. Any
other pair reads its table or runs the plan.

An exists stops at its first hit, so it asks the probes lazily in order.
Given no plan, it plans no more than it asks: the point shifts lead every
plan and depend only on the gap's ends (``plan_points``, which
``plan_cover`` shares), so they are asked first, and ``plan_cover`` runs
only when every point misses; the probes then go on after the points. A
level's differences (``SsiBackend.differences``) are listed when the probe
order first reaches it; once a plan is built after the points, a pair too
large to list for the points alone is weighed again against the plan's
exact probes. A run of probes whose shifts are all off the list is passed
over by one ``isdisjoint``, a probe whose shift is not on the list makes
no backend call, and every other probe, a sure hit, is asked through the
backend.
"""

from __future__ import annotations

import gc
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Iterator, Optional, Sequence

import numpy as np

from .backends import DEFAULT_MEM_BUDGET, BackendKind, LinearScan, range_meets
from .errors import FormatError, GapIndexError
from .reporting import AugmentedInstance, check_set_ids, report_shift
from .sets import SetCollection, SlicedSets, code_type, set_sizes, value_range

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class ApproxQuery:
    """Level-l approximate query centered at kappa * 2^level, kappa >= 1."""

    level: int
    center: int

    def __post_init__(self):
        if self.level < 1:
            raise FormatError(f"approximate query level must be >= 1, got {self.level}")
        size = 1 << self.level
        if self.center % size != 0 or self.center // size < 1:
            raise FormatError(
                f"center {self.center} is not kappa * 2^{self.level} with kappa >= 1"
            )

    @property
    def kappa(self) -> int:
        return self.center >> self.level

    def covered(self) -> tuple[int, int]:
        """Closed interval of differences the query is guaranteed to detect."""
        half = 1 << (self.level - 1)
        return (self.center - half, self.center + half)

    def uncertain(self) -> tuple[int, int]:
        """Closed integer hull of the open zone where either answer is allowed."""
        return _uncertain(self.level, self.center)


def _uncertain(level: int, center: int) -> tuple[int, int]:
    full = 1 << level
    return (center - full + 1, center + full - 1)


def _quotient_shifts(level: int, center: int) -> tuple[int, int, int]:
    """The shifts a level-l query asks of the level's quotient instance."""
    double = center >> (level - 1)  # 2 * kappa
    return (double - 1, double, double + 1)


@dataclass(frozen=True)
class CoverPlan:
    """Queries covering [gap_lo, gap_hi] with all uncertainty kept inside it.

    Each pass (forward from gap_lo, mirrored from gap_hi) is its point
    shifts plus one run per level, (level, kappa_first, kappa_last): the
    pass's level-l queries are centered at kappa * 2^level for kappa from
    kappa_first to kappa_last, ascending in ``forward_runs`` and descending
    in ``backward_runs``. A run holds at most three queries.

    The fields a query reads on every call are built with the plan:
    ``segments`` lists the distinct primitive probes as (level, shifts)
    groups in the order the point shifts (level 0) and then the approximate
    queries first issue them, ``level_probes[l]`` is the number of level-l
    probes and ``size`` the number of distinct queries. A level-1 query's
    shifts are exact, so they are level-0 probes and ``level_probes[1]`` is
    0. Everything else is derived from the runs on first read: ``probes``
    as (level, shift) pairs, ``level_shifts`` (each level's shifts in probe
    order), the distinct ``approx_centers`` (forward pass first), each
    pass's centers and its ApproxQuery values, and the phase counts.
    """

    gap_lo: int
    gap_hi: int
    point_shifts: tuple[int, ...]
    forward_runs: tuple[tuple[int, int, int], ...]
    backward_runs: tuple[tuple[int, int, int], ...]
    segments: tuple[tuple[int, tuple[int, ...]], ...]
    level_probes: tuple[int, ...]
    size: int

    @property
    def phases_forward(self) -> int:
        return 1 + len(self.forward_runs)

    @property
    def phases_backward(self) -> int:
        return 1 + len(self.backward_runs)

    @cached_property
    def probes(self) -> tuple[tuple[int, int], ...]:
        return tuple((level, s) for level, shifts in self.segments for s in shifts)

    @cached_property
    def level_shifts(self) -> tuple[tuple[int, ...], ...]:
        shifts: list[tuple[int, ...]] = [()] * len(self.level_probes)
        for level, run in self.segments:
            shifts[level] += run
        return tuple(shifts)

    @cached_property
    def forward_centers(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (level, kappa << level)
            for level, first, last in self.forward_runs
            for kappa in range(first, last + 1)
        )

    @cached_property
    def backward_centers(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (level, kappa << level)
            for level, first, last in self.backward_runs
            for kappa in range(first, last - 1, -1)
        )

    @cached_property
    def approx_centers(self) -> tuple[tuple[int, int], ...]:
        return tuple(dict.fromkeys(self.forward_centers + self.backward_centers))

    @cached_property
    def approx_queries(self) -> tuple[ApproxQuery, ...]:
        return tuple(ApproxQuery(level, center) for level, center in self.approx_centers)

    @cached_property
    def forward_approx(self) -> tuple[ApproxQuery, ...]:
        return tuple(ApproxQuery(level, center) for level, center in self.forward_centers)

    @cached_property
    def backward_approx(self) -> tuple[ApproxQuery, ...]:
        return tuple(ApproxQuery(level, center) for level, center in self.backward_centers)

    def covered_points(self) -> set[int]:
        pts = set(self.point_shifts)
        for q in self.approx_queries:
            lo, hi = q.covered()
            pts.update(range(lo, hi + 1))
        return pts

    def uncertain_points(self) -> set[int]:
        pts: set[int] = set()
        for q in self.approx_queries:
            lo, hi = q.uncertain()
            pts.update(range(lo, hi + 1))
        return pts

    def describe(self) -> str:
        lines = [f"plan [{self.gap_lo}, {self.gap_hi}] queries={self.size}"]
        for s in self.point_shifts:
            lines.append(f"  point {s}")
        for q in self.approx_queries:
            c0, c1 = q.covered()
            u0, u1 = q.uncertain()
            lines.append(
                f"  approx level={q.level} center={q.center}"
                f" covers [{c0}, {c1}] uncertain [{u0}, {u1}]"
            )
        return "\n".join(lines)


def _phase0(lo: int, hi: int) -> tuple[int, ...]:
    """A pass's point shifts over [lo, hi]: half the width and one more,
    at most three."""
    return tuple(range(lo, lo + min((hi - lo + 1) // 2, 2) + 1))


def _pass(lo: int, hi: int) -> tuple[tuple[int, ...], list[tuple[int, int, int]]]:
    """Cover a prefix [lo, lo + delta] with delta >= (hi - lo) / 2.

    Phase 0 issues up to three exact point shifts, stopping at the first
    that covers half the width, so tiny intervals never step outside. Each
    later phase l issues up to three level-l queries: the first at the
    largest kappa*2^l whose guaranteed zone still touches the covered
    prefix, then successors until strictly more than half the interval is
    covered. A level-l query at kappa*2^l covers up to exactly
    kappa*2^l + 2^(l-1), past the prefix its kappa was chosen from, so the
    pass stops at the first kappa > need / 2^(l+1), where
    need = width + 2*(lo - 2^(l-1)): that is, at kappa = need // 2^(l+1) + 1.

    Returns the point shifts and one (level, kappa_first, kappa_last) run
    per level: the mirrored pass runs in negated coordinates, where centers
    are not yet valid ApproxQuery values.
    """
    points = _phase0(lo, hi)
    width = hi - lo
    if width <= 4:
        return points, []
    runs = []
    end = lo + 2  # covered prefix [lo, end]
    level = 1
    while True:
        if end - lo < (1 << (level + 1)) - 2:
            raise GapIndexError("entered a phase before covering enough")
        half = 1 << (level - 1)
        first = (end + half) >> level
        stop = ((width + 2 * (lo - half)) >> (level + 1)) + 1
        if stop <= first + 2:
            runs.append((level, first, max(first, stop)))
            return points, runs
        runs.append((level, first, first + 2))
        end = ((first + 2) << level) + half
        level += 1


def reach(universe: int) -> int:
    """The highest level a plan over a gap inside [0, universe - 1] asks.

    It is the top level of the two passes over the whole range, forward
    from 0 and mirrored from universe - 1: no narrower gap inside the range
    asks a higher one. A range of two to five shifts, too narrow for any
    run, still gets level 1, which the exact instance answers at no cost.
    """
    top = max(universe - 1, 0)
    runs = _pass(0, top)[1] + _pass(-top, 0)[1]
    return max([level for level, _, _ in runs], default=min(top, 1))


def _escaped(alpha: int, beta: int, level: int, kappa: int) -> GapIndexError:
    return GapIndexError(
        f"uncertainty of the level-{level} query at {kappa << level}"
        f" escaped [{alpha}, {beta}]"
    )


def _merged_points(alpha: int, beta: int, forward: tuple[int, ...],
                   mirrored: tuple[int, ...]) -> tuple[int, ...]:
    """The forward pass's point shifts, then the mirrored pass's negated,
    each once, every one checked to lie in [alpha, beta]."""
    points = tuple(dict.fromkeys(forward + tuple([-s for s in mirrored])))
    # Every answer relies on this check and plan_cover's zone checks: a
    # point or an uncertain zone outside [alpha, beta] could turn a YES
    # into a witness with the wrong gap.
    for s in points:
        if not alpha <= s <= beta:
            raise GapIndexError(f"point shift {s} escaped [{alpha}, {beta}]")
    return points


def plan_points(alpha: int, beta: int) -> tuple[int, ...]:
    """``plan_cover(alpha, beta).point_shifts``, without planning the
    approximate levels: each pass's points depend only on its width."""
    return _merged_points(alpha, beta, _phase0(alpha, beta), _phase0(-beta, -alpha))


def plan_cover(alpha: int, beta: int) -> CoverPlan:
    """Plan point and approximate queries for the shift interval [alpha, beta]."""
    if not 0 <= alpha <= beta:
        raise FormatError(f"need 0 <= alpha <= beta, got [{alpha}, {beta}]")
    fwd_points, forward = _pass(alpha, beta)
    # The pass from beta is the reflection: plan on [-beta, -alpha], negate.
    bwd_points, mirrored = _pass(-beta, -alpha)
    points = _merged_points(alpha, beta, fwd_points, bwd_points)
    # An uncertain zone is checked like a point. A zone moves with its
    # center, so a run's lowest center bounds its zones below and its
    # highest center above. A level-l query at kappa*2^l asks the quotient
    # shifts 2*kappa - 1, 2*kappa and 2*kappa + 1, so a forward run asks
    # one range of shifts. Level 1 divides by 2^0, so its shifts are exact
    # shifts: those that are not points (alpha to alpha + 2 and beta - 2 to
    # beta, once the gap has runs) join the level-0 probes.
    segments = [(0, points)]
    level_probes = [len(points)]
    size = len(points)
    for level, first, last in forward:
        reach = (1 << level) - 1
        if (first << level) - reach < alpha:
            raise _escaped(alpha, beta, level, first)
        if (last << level) + reach > beta:
            raise _escaped(alpha, beta, level, last)
        size += last - first + 1
        if level > 1:
            segments.append((level, tuple(range(2 * first - 1, 2 * last + 2))))
            level_probes.append(2 * (last - first) + 3)
            continue
        shifts = range(max(2 * first - 1, alpha + 3), min(2 * last + 2, beta - 2))
        level_probes[0] += len(shifts)
        level_probes.append(0)
        if shifts:
            segments.append((0, tuple(shifts)))
    # A backward run asks, from its top center K down, 2K - 1, 2K, 2K + 1
    # and then 2K' - 1, 2K' for each next K'. A shift the forward run of
    # the same level already asks is not a new probe, nor is its center,
    # and neither is a point at level 1.
    backward = []
    for level, top, bottom in mirrored:
        first, last = -top, -bottom
        backward.append((level, first, last))
        reach = (1 << level) - 1
        if (last << level) - reach < alpha:
            raise _escaped(alpha, beta, level, last)
        if (first << level) + reach > beta:
            raise _escaped(alpha, beta, level, first)
        double = 2 * first
        shifts = (double - 1, double, double + 1, double - 3, double - 2, double - 5,
                  double - 4)[: 2 * (first - last) + 3]
        size += first - last + 1
        if level > len(forward):
            level_probes.append(len(shifts))
        else:
            _, f0, f1 = forward[level - 1]
            if f0 <= first + 1 and last - 1 <= f1:  # the shift ranges meet
                s0, s1 = 2 * f0 - 1, 2 * f1 + 1
                shifts = tuple([s for s in shifts if not s0 <= s <= s1])
                size -= max(0, min(f1, first) - max(f0, last) + 1)
            if level == 1:
                shifts, level = tuple([s for s in shifts if alpha + 2 < s < beta - 2]), 0
            if not shifts:
                continue
            level_probes[level] += len(shifts)
        segments.append((level, shifts))
    return CoverPlan(
        gap_lo=alpha,
        gap_hi=beta,
        point_shifts=points,
        forward_runs=tuple(forward),
        backward_runs=tuple(backward),
        segments=tuple(segments),
        level_probes=tuple(level_probes),
        size=size,
    )


def originals(elements: tuple[int, ...], level: int, quotient_value: int) -> list[int]:
    """The elements of a sorted set whose level-l quotient is ``quotient_value``.

    They are the run inside [q << (level - 1), (q + 1) << (level - 1)),
    found by two bisections and read from the set's tuple, so answers share
    the tuple's ints. Queries expand only levels from 2; level 1 is exact.
    """
    shift = level - 1
    lo = bisect_left(elements, quotient_value << shift)
    return list(elements[lo : bisect_left(elements, (quotient_value + 1) << shift, lo)])


def _numbered(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values and each value's code among them, as
    ``np.unique(values, return_inverse=True)`` gives them. When the values
    span no more slots than there are values (a string index's positions
    1..n), a counting pass numbers them with no sort: a presence mask over
    the span, whose ``cumsum`` is each slot's code. The span is taken in
    Python ints, so values near either end of int64 cannot overflow it."""
    if values.size:
        low = int(values.min())
        span = int(values.max()) - low + 1
        if span <= values.size:
            offsets = values - low
            present = np.zeros(span, dtype=bool)
            present[offsets] = True
            return np.flatnonzero(present) + low, (np.cumsum(present) - 1)[offsets]
    return np.unique(values, return_inverse=True)


def quotient_levels(sets: Sequence[tuple[int, ...]], top: int) -> Iterator[SlicedSets]:
    """The quotient sets of levels 2..top, one ``SlicedSets`` per level,
    each made in one bulk pass from the one below.

    Level l's quotient of a is a >> (l - 1) = (a >> (l - 2)) >> 1. Each
    element is kept as the code of its value among the sorted distinct
    values, in set order, with the sets' ends. A ``SlicedSets`` (the
    string index's interval sets) holds them so already: its ``ints`` are
    the distinct values and its ``codes`` are taken as they are. Other
    sets are flattened once into an int64 array and numbered
    (``_numbered``: a counting pass over a dense span, else
    ``np.unique``). A level halves the level below's distinct values,
    maps each code to its half's, and keeps an element when its code
    differs from the previous element's or it is its set's first: every
    quotient set comes out sorted and free of repeats, as dict.fromkeys
    over a >> (l - 1) for a in S would make it. The distinct values stay
    sorted, and so do their halves, so a level needs no sort: a half is
    new where it differs from its left neighbour, and its code counts the
    new halves up to it (a ``cumsum``), as ``np.unique`` would number it.
    A set's end moves to the count of kept elements before it. A level is
    its codes, as an ``array`` of ``sets.code_type``, its ends, and its
    distinct values as one tuple of ints: each set's tuple is made from
    them on first read, and shares those ints. The sets' sizes are read
    once (``set_sizes``), and no set is made. An element outside int64
    raises FormatError.
    """
    sizes = set_sizes(sets)
    if isinstance(sets, SlicedSets):
        distinct = np.array(sets.ints, dtype=np.int64)
        codes = np.frombuffer(sets.codes, sets.codes.typecode)
    else:
        try:
            values = np.fromiter(chain.from_iterable(sets), np.int64, int(sizes.sum()))
        except OverflowError:
            bad = next(a for s in sets for a in s if not _INT64.min <= a <= _INT64.max)
            raise FormatError(f"element {bad} does not fit the quotient levels' int64") from None
        distinct, codes = _numbered(values)
        del values
    ends = np.cumsum(sizes)
    keep = np.ones(len(codes), dtype=bool)
    kept = np.zeros(len(codes) + 1, dtype=np.int64)
    for _ in range(2, top + 1):
        halved = distinct >> 1
        new = np.ones(len(halved), dtype=bool)
        np.not_equal(halved[1:], halved[:-1], out=new[1:])
        distinct = halved[new]
        typecode = code_type(len(distinct))
        codes = (np.cumsum(new, dtype=typecode) - 1).take(codes)
        keep = keep[: len(codes)]
        np.not_equal(codes[1:], codes[:-1], out=keep[1:])
        starts = ends[:-1]
        keep[starts[starts < len(codes)]] = True  # each set's first element
        codes = codes[keep]
        np.cumsum(keep, out=kept[1 : len(keep) + 1])
        ends = kept[ends]
        yield SlicedSets(array(typecode, codes.tobytes()), array("q", ends.tobytes()),
                         tuple(distinct.tolist()))


class LevelIndex:
    """Quotient sets for one level l >= 2 behind their own instance.

    ``quotients[i - 1]`` holds a >> (level - 1) for a in S_i, in order since
    S_i is sorted; ``quotient_levels`` makes every level's codes in one
    pass from the level below, and ``originals`` maps a quotient back.
    The instance reads no set at build: a set's tuple is made on its
    first read, and its member set made on its first probe.
    Level 1 divides by 1, so its quotient sets are the parent's own and the
    exact instance answers it: no LevelIndex exists for level 1.
    ``GappedIndex`` builds levels 2..``max_level`` under ``LinearScan``.
    """

    def __init__(self, quotients: Sequence[tuple[int, ...]], level: int, kind: BackendKind,
                 mem_budget: int):
        self.level = level
        self.instance = AugmentedInstance(quotients, kind, mem_budget)


class GappedIndex:
    """Exact shift index plus one LevelIndex per approximate level from 2
    to ``max_level``.

    ``sets`` holds k sorted element tuples whose elements span at most
    ``universe`` values, as {1..universe} does, kept as ``exact.base``; a
    wider span (``value_range``) would leave differences past the clamp at
    universe - 1, and is refused with FormatError. ``sets`` may be a
    ``SlicedSets`` (the string index's interval sets), whose range is read
    off their codes and whose codes ``quotient_levels`` takes as they
    are, so the build makes none of their tuples. ``max_level`` is
    ``reach(universe)``, the highest level a plan over the clamped gap can
    ask: 0 for a universe of one value, at least 1 above that.
    ``instances[l]`` is the instance that answers level l, for l up to
    ``max_level``: the
    exact one, under ``kind``, at level 0 and for a level-1
    ``ApproxQuery`` (a plan asks level 1's shifts at level 0), and
    ``levels[l - 2].instance`` above, under ``LinearScan``: only pairs the
    exact instance does not tabulate ask a level, so no level stores a
    table. The build runs with the cyclic collector paused, then runs one
    young collection when the caller had it enabled, and restores the
    caller's setting even when the build raises.
    ``total_elements`` counts each stored collection once: the exact
    instance's and each quotient level's.

    After each query ``last_plan_size`` is the number of distinct queries
    it planned: a report's plan size, and for an exists the size of what
    it built (see ``gapped_exists``); 0 when the clamped gap is empty.
    ``last_raw_pairs`` and ``last_max_multiplicity`` describe the last
    report's pairs before deduplication.
    """

    def __init__(self, sets: Sequence[tuple[int, ...]], universe: int, kind: BackendKind,
                 mem_budget: int = DEFAULT_MEM_BUDGET):
        span = value_range(sets)
        if span and span[1] - span[0] >= universe:
            raise FormatError(f"set elements span [{span[0]}, {span[1]}],"
                              f" wider than universe {universe}")
        self.universe = universe
        self.kind = kind
        self.max_level = reach(universe)
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.exact = AugmentedInstance(sets, kind, mem_budget)
            quotients = quotient_levels(self.exact.base, self.max_level)
            self.levels = [
                LevelIndex(level_sets, level, LinearScan(), mem_budget)
                for level, level_sets in enumerate(quotients, start=2)
            ]
        finally:
            if enabled:
                gc.enable()
        if enabled:
            gc.collect(0)
        above = [lvl.instance for lvl in self.levels]
        self.instances = [self.exact] * min(2, self.max_level + 1) + above
        self.total_elements = sum(inst.total_elements for inst in [self.exact] + above)
        if self.total_elements > self.exact.total_elements * (self.max_level + 1):
            raise GapIndexError("gapped element accounting bound violated")
        self.last_plan_size = 0
        self.last_raw_pairs = 0
        self.last_max_multiplicity = 0
        self.fallback_count = 0  # stays 0: by the expansion lemma no query falls back

    def ssi_calls(self) -> int:
        return self.exact.ssi_calls() + sum(lvl.instance.ssi_calls() for lvl in self.levels)

    def _instance(self, level: int) -> AugmentedInstance:
        if not 1 <= level <= self.max_level:
            raise FormatError(f"level {level} outside built range 1..{self.max_level}")
        return self.instances[level]

    def _clamped(self, alpha: int, beta: int) -> Optional[tuple[int, int]]:
        if not 0 <= alpha <= beta:
            raise FormatError(f"need 0 <= alpha <= beta, got [{alpha}, {beta}]")
        hi = min(beta, self.universe - 1)  # differences never exceed u-1
        if alpha > hi:
            return None
        return alpha, hi


def build_gapped_index(
    c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET
) -> GappedIndex:
    return GappedIndex([s.elements for s in c.sets], c.universe, kind, mem_budget)


def approx_exists(g: GappedIndex, i: int, j: int, q: ApproxQuery) -> bool:
    """Answer one approximate query through the level's quotient instance.

    Only levels 1..``g.max_level`` are built; a query at any other level is
    refused with FormatError.
    """
    inst = g._instance(q.level)
    check_set_ids(inst, i, j)
    for shift in _quotient_shifts(q.level, q.center):
        if inst._exists(i, j, shift) is not None:
            return True
    return False


def _clamped_gap(g: GappedIndex, alpha: int, beta: int,
                 plan: Optional[CoverPlan]) -> Optional[tuple[int, int]]:
    """[alpha, beta] clamped to the universe, or None when empty.

    A caller that asks many set pairs the same interval plans it once and
    passes the plan in; it must be the plan of the clamped interval.
    """
    clamped = g._clamped(alpha, beta)
    if plan is not None and clamped != (plan.gap_lo, plan.gap_hi):
        raise FormatError(
            f"plan for [{plan.gap_lo}, {plan.gap_hi}] does not match"
            f" [{alpha}, {beta}] clamped to {clamped}"
        )
    return clamped


def _reached(g: GappedIndex, plan: CoverPlan) -> CoverPlan:
    """The plan, once it is known to ask no level above ``g.max_level``."""
    if len(plan.level_probes) > g.max_level + 1:
        raise GapIndexError(
            f"plan for [{plan.gap_lo}, {plan.gap_hi}] asks level"
            f" {len(plan.level_probes) - 1}, above the top level built, {g.max_level}"
        )
    return plan


# Marks a level whose differences are not yet listed (None: never listed).
_UNLISTED = object()


def gapped_exists(
    g: GappedIndex,
    i: int,
    j: int,
    alpha: int,
    beta: int,
    *,
    plan: Optional[CoverPlan] = None,
) -> Optional[tuple[int, int]]:
    """Some (a, b) with b - a in [alpha, beta], or None when none exists.

    A pair the exact instance tabulates reads the smallest realized shift
    in the clamped gap from its table and asks that shift's smallest-a
    certificate by one call: it builds no plan, and ignores one passed in.
    Any other pair runs the plan.

    Each distinct probe of the plan is asked once, in first-issue order; a
    repeat would give the same answer, so the first witness is the one the
    full sequence of point and approximate queries finds. A pair that
    fails ``range_meets``, an empty set included, lists and asks nothing.
    A listed level asks only the shifts on its list.

    Without a ``plan`` the point shifts (``plan_points``) are asked first,
    and ``plan_cover`` runs only when every one misses; the probes after
    them are the plan's, so the witness is the same, and a pair too large
    to list for the points is weighed again against the plan's exact
    probes. ``g.last_plan_size`` is the size of what was built: the number
    of point shifts when a point answered, the plan's size once a plan is
    built or passed in, and otherwise 0: an empty clamped gap, or a pair
    that fails ``range_meets`` or is tabulated, with no plan passed in.
    """
    clamped = _clamped_gap(g, alpha, beta, plan)
    check_set_ids(g.exact, i, j)
    g.last_plan_size = 0 if plan is None else plan.size
    if clamped is None:
        return None
    lo, hi = clamped
    rows, base = g.exact.backend.rows, g.exact.base
    sa, sb = rows[i - 1] or base[i - 1], rows[j - 1] or base[j - 1]
    if not range_meets(sa, sb, lo, hi):
        return None
    if g.exact.backend.tabulated(i, j):
        shift = g.exact.backend.table.smallest(i, j, lo, hi)
        if shift is None:
            return None
        # The lookup reads the table that holds the shift: a certificate.
        cert = g.exact._exists(i, j, shift)
        return (cert.a, cert.b)
    if plan is None:
        points = plan_points(lo, hi)
        segments: Sequence[tuple[int, tuple[int, ...]]] = ((0, points),)
        counts: Sequence[int] = (len(points),)
        g.last_plan_size = len(points)
    else:
        segments, counts = _reached(g, plan).segments, plan.level_probes
    instances = g.instances
    listed: list = [_UNLISTED] * len(instances)
    while True:
        for level, shifts in segments:
            inst = instances[level]
            realized = listed[level]
            if realized is _UNLISTED:
                realized = listed[level] = inst.backend.differences(i, j, counts[level])
            if realized is not None:
                if realized.isdisjoint(shifts):
                    continue
                shifts = [s for s in shifts if s in realized]
            for shift in shifts:
                cert = inst._exists(i, j, shift)
                if cert is None:
                    continue
                if level == 0:
                    a, b = cert.a, cert.b
                else:
                    # By the expansion lemma any originals will do; take the first.
                    a = originals(sa, level, cert.a)[0]
                    b = originals(sb, level, cert.b)[0]
                if not alpha <= b - a <= beta:
                    raise GapIndexError(
                        f"witness ({a}, {b}) of level-{level} shift {shift} is outside"
                        f" [{alpha}, {beta}]"
                    )
                return (a, b)
        if plan is not None:
            return None
        # Every point missed: plan the levels and go on after the points,
        # weighing a pair too large to list for the points alone again.
        plan = _reached(g, plan_cover(lo, hi))
        segments, counts = plan.segments[1:], plan.level_probes
        g.last_plan_size = plan.size
        if listed[0] is None:
            listed[0] = _UNLISTED


def gapped_report(
    g: GappedIndex,
    i: int,
    j: int,
    alpha: int,
    beta: int,
    *,
    plan: Optional[CoverPlan] = None,
) -> list[tuple[int, int]]:
    """All pairs (a, b) with b - a in [alpha, beta], sorted and deduplicated.

    A pair that fails ``range_meets``, an empty set included, has no pair
    to report: it lists, scans and looks up nothing. A pair the exact
    instance tabulates asks ``report_shift`` at the exact instance for each
    shift in the clamped gap that its table holds, and plans nothing; its
    raw pairs are its pairs, each once. Any other pair's plan is answered
    one level at a time, each level asked all its shifts in one
    ``scan_shifts`` pass that returns one flat list of pairs.
    """
    clamped = _clamped_gap(g, alpha, beta, plan)
    check_set_ids(g.exact, i, j)
    tabulated = g.exact.backend.tabulated(i, j)
    if plan is None and clamped is not None and not tabulated:
        plan = plan_cover(*clamped)
    g.last_plan_size = 0 if plan is None else plan.size
    g.last_raw_pairs = g.last_max_multiplicity = 0
    rows, base = g.exact.backend.rows, g.exact.base
    elements_a, elements_b = rows[i - 1] or base[i - 1], rows[j - 1] or base[j - 1]
    if clamped is None or not range_meets(elements_a, elements_b, *clamped):
        return []
    if tabulated:
        # Pairs at distinct shifts differ, so there is nothing to deduplicate.
        found = [pair for s in g.exact.backend.table.realized(i, j, *clamped)
                 for pair in report_shift(g.exact, i, j, s)]
        g.last_raw_pairs, g.last_max_multiplicity = len(found), min(len(found), 1)
        return sorted(found)
    raw: list[tuple[int, int]] = []
    for level, shifts in enumerate(_reached(g, plan).level_shifts):
        if not shifts:  # level 1, whose shifts the plan asks at level 0
            continue
        found = g.instances[level].backend.scan_shifts(i, j, shifts)
        if level == 0:
            raw += found
            continue
        # By the expansion lemma every original pair has its gap in range.
        for qa, qb in found:
            raw.extend(product(originals(elements_a, level, qa),
                               originals(elements_b, level, qb)))
    counts = Counter(raw)
    g.last_raw_pairs = len(raw)
    g.last_max_multiplicity = max(counts.values(), default=0)
    return sorted(counts)
