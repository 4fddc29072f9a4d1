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

A level-l query asks the quotient shifts 2*kappa - 1, 2*kappa and
2*kappa + 1, so adjacent queries of one level share a shift. The plan lists
every distinct primitive probe once, and a query asks each of them once per
set pair.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .backends import DEFAULT_MEM_BUDGET, BackendKind, ShiftCertificate
from .errors import FormatError, GapIndexError
from .reporting import AugmentedInstance, report_shift
from .sets import IntSet, SetCollection


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

    Approximate queries are stored as (level, center) pairs: the distinct
    ones (forward pass first) and each pass's own list. The ApproxQuery
    values are made when first read, since answering needs only ``probes``:
    the distinct primitive queries as (level, shift) pairs, in the order
    the point shifts (level 0) and then the approximate queries first issue
    them.
    """

    gap_lo: int
    gap_hi: int
    point_shifts: tuple[int, ...]
    approx_centers: tuple[tuple[int, int], ...]
    forward_centers: tuple[tuple[int, int], ...]
    backward_centers: tuple[tuple[int, int], ...]
    phases_forward: int
    phases_backward: int
    probes: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.point_shifts) + len(self.approx_centers)

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

    @cached_property
    def zones(self) -> dict[tuple[int, int], tuple[int, int]]:
        """For each quotient probe, the union of the uncertain zones of the
        approximate queries that issue it.

        Queries of one level share a quotient shift only when their kappas
        differ by one, and then their zones overlap, so the union is the
        interval from the least to the greatest end.
        """
        zones: dict[tuple[int, int], tuple[int, int]] = {}
        for level, center in self.approx_centers:
            u0, u1 = _uncertain(level, center)
            for shift in _quotient_shifts(level, center):
                zone = zones.get((level, shift))
                zones[(level, shift)] = (
                    (u0, u1) if zone is None else (min(zone[0], u0), max(zone[1], u1))
                )
        return zones

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


def _forward_pass(lo: int, hi: int) -> tuple[list[int], list[tuple[int, int]], int]:
    """Cover a prefix [lo, lo + delta] with delta >= (hi - lo) / 2.

    Phase 0 issues up to three exact point shifts, re-testing the stop
    condition (2*delta >= width) after each so tiny intervals never step
    outside. Each later phase l issues up to three level-l queries: the
    first at the largest kappa*2^l whose guaranteed zone still touches the
    covered prefix, then two successors; after any of them the pass stops
    once strictly more than half the interval is covered.

    Returns raw (level, center) pairs: the mirrored pass runs in negated
    coordinates where centers are not yet valid ApproxQuery values.
    """
    width = hi - lo
    points: list[int] = []
    approx: list[tuple[int, int]] = []
    covered_end = lo - 1
    for step in range(3):
        points.append(lo + step)
        covered_end = lo + step
        if 2 * (covered_end - lo) >= width:
            return points, approx, 1
    phases = 1
    level = 1
    while True:
        delta = covered_end - lo
        assert delta >= (1 << (level + 1)) - 2, "entered a phase before covering enough"
        phases += 1
        half = 1 << (level - 1)
        size = 1 << level
        kappa = (covered_end + half) // size
        for step in range(3):
            center = (kappa + step) * size
            approx.append((level, center))
            covered_end = max(covered_end, center + half)
            if 2 * (covered_end - lo) > width:
                return points, approx, phases
        level += 1


def plan_cover(alpha: int, beta: int) -> CoverPlan:
    """Plan point and approximate queries for the shift interval [alpha, beta]."""
    if not 0 <= alpha <= beta:
        raise FormatError(f"need 0 <= alpha <= beta, got [{alpha}, {beta}]")
    fwd_points, fwd_centers, fwd_phases = _forward_pass(alpha, beta)
    # The pass from beta is the reflection: plan on [-beta, -alpha], negate.
    bwd_points, bwd_centers, bwd_phases = _forward_pass(-beta, -alpha)
    bwd_centers = [(lv, -d) for lv, d in bwd_centers]
    points = tuple(dict.fromkeys(fwd_points + [-s for s in bwd_points]))
    centers = tuple(dict.fromkeys(fwd_centers + bwd_centers))

    # Every answer relies on these: a point or an uncertain zone outside
    # [alpha, beta] could turn a YES into a witness with the wrong gap.
    for s in points:
        if not alpha <= s <= beta:
            raise GapIndexError(f"point shift {s} escaped [{alpha}, {beta}]")
    for level, center in centers:
        u0, u1 = _uncertain(level, center)
        if not (alpha <= u0 and u1 <= beta):
            raise GapIndexError(
                f"uncertainty of the level-{level} query at {center}"
                f" escaped [{alpha}, {beta}]"
            )
    probes = [(0, s) for s in points] + [
        (level, shift) for level, center in centers for shift in _quotient_shifts(level, center)
    ]
    return CoverPlan(
        gap_lo=alpha,
        gap_hi=beta,
        point_shifts=points,
        approx_centers=centers,
        forward_centers=tuple(fwd_centers),
        backward_centers=tuple(bwd_centers),
        phases_forward=fwd_phases,
        phases_backward=bwd_phases,
        probes=tuple(dict.fromkeys(probes)),
    )


class LevelIndex:
    """Quotient collection for one level plus lists mapping quotients back."""

    def __init__(self, c: SetCollection, level: int, kind: BackendKind, mem_budget: int):
        self.level = level
        shift = level - 1
        quotient_sets = []
        self.value_lists: list[dict[int, list[int]]] = []
        for s in c.sets:
            lists: dict[int, list[int]] = {}
            for a in s.elements:
                lists.setdefault(a >> shift, []).append(a)
            self.value_lists.append(lists)
            quotient_sets.append(IntSet(id=s.id, elements=tuple(sorted(lists))))
        quotient = SetCollection(sets=tuple(quotient_sets), universe=c.universe)
        self.instance = AugmentedInstance(quotient, kind, mem_budget)

    def originals(self, set_id: int, quotient_value: int) -> list[int]:
        return self.value_lists[set_id - 1][quotient_value]


class GappedIndex:
    """Exact shift index at level 0 plus one LevelIndex per approximate level."""

    def __init__(self, c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET):
        self.collection = c
        self.kind = kind
        self.exact = AugmentedInstance(c, kind, mem_budget)
        self.max_level = max(c.universe - 1, 0).bit_length()  # ceil(log2 u)
        self.levels = [
            LevelIndex(c, level, kind, mem_budget)
            for level in range(1, self.max_level + 1)
        ]
        per_level_bound = self.exact.total_elements
        self.total_elements = self.exact.total_elements + sum(
            lvl.instance.total_elements for lvl in self.levels
        )
        assert self.total_elements <= per_level_bound * (self.max_level + 1), (
            "gapped element accounting bound violated"
        )
        self.last_plan_size = 0
        self.last_raw_pairs = 0
        self.last_max_multiplicity = 0
        self.fallback_count = 0

    def ssi_calls(self) -> int:
        return self.exact.existence_calls + sum(
            lvl.instance.existence_calls for lvl in self.levels
        )

    def _level(self, level: int) -> LevelIndex:
        if not 1 <= level <= self.max_level:
            raise FormatError(f"level {level} outside built range 1..{self.max_level}")
        return self.levels[level - 1]

    def _clamped(self, alpha: int, beta: int) -> Optional[tuple[int, int]]:
        if not 0 <= alpha <= beta:
            raise FormatError(f"need 0 <= alpha <= beta, got [{alpha}, {beta}]")
        hi = min(beta, self.collection.universe - 1)  # differences never exceed u-1
        if alpha > hi:
            return None
        return alpha, hi


def build_gapped_index(
    c: SetCollection, kind: BackendKind, mem_budget: int = DEFAULT_MEM_BUDGET
) -> GappedIndex:
    return GappedIndex(c, kind, mem_budget)


def approx_exists(g: GappedIndex, i: int, j: int, q: ApproxQuery) -> bool:
    """Answer one approximate query through the level's quotient instance."""
    lvl = g._level(q.level)
    for shift in _quotient_shifts(q.level, q.center):
        if lvl.instance._exists(i, j, shift) is not None:
            return True
    return False


def _plan_for(
    g: GappedIndex, alpha: int, beta: int, plan: Optional[CoverPlan]
) -> Optional[CoverPlan]:
    """The plan for [alpha, beta] clamped to the universe, or None when empty.

    A caller that asks many set pairs the same interval plans it once and
    passes the plan in; it must be the plan of the clamped interval.
    """
    clamped = g._clamped(alpha, beta)
    if plan is None:
        return None if clamped is None else plan_cover(*clamped)
    if clamped != (plan.gap_lo, plan.gap_hi):
        raise FormatError(
            f"plan for [{plan.gap_lo}, {plan.gap_hi}] does not match"
            f" [{alpha}, {beta}] clamped to {clamped}"
        )
    return plan


def _approx_witness(
    g: GappedIndex,
    lvl: LevelIndex,
    i: int,
    j: int,
    shift: int,
    cert: ShiftCertificate,
    alpha: int,
    beta: int,
) -> Optional[tuple[int, int]]:
    """An original pair with its gap in [alpha, beta] behind a quotient certificate."""
    a = lvl.originals(i, cert.a)[0]
    b = lvl.originals(j, cert.b)[0]
    if alpha <= b - a <= beta:
        return (a, b)
    # The planner confines uncertainty to [alpha, beta], so this branch
    # should be unreachable; fall back to reporting just in case the
    # certificate's expansion was the one out-of-range combination.
    g.fallback_count += 1
    for qa, qb in report_shift(lvl.instance, i, j, shift):
        for a2 in lvl.originals(i, qa):
            for b2 in lvl.originals(j, qb):
                if alpha <= b2 - a2 <= beta:
                    return (a2, b2)
    return None


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

    Each distinct probe of the plan is asked once, in first-issue order; a
    repeat would give the same answer, so the first witness is the one the
    full sequence of point and approximate queries finds.
    """
    plan = _plan_for(g, alpha, beta, plan)
    if plan is None:
        return None
    g.last_plan_size = plan.size
    # Uncertain zones fit inside the clamped interval, so a plan never
    # reaches past the top level built for the universe.
    levels = g.levels
    for level, shift in plan.probes:
        if level == 0:
            cert = g.exact._exists(i, j, shift)
            if cert is None:
                continue
            if not alpha <= cert.b - cert.a <= beta:
                raise GapIndexError(
                    f"witness ({cert.a}, {cert.b}) of shift {shift} is outside [{alpha}, {beta}]"
                )
            return (cert.a, cert.b)
        lvl = levels[level - 1]
        cert = lvl.instance._exists(i, j, shift)
        if cert is not None:
            witness = _approx_witness(g, lvl, i, j, shift, cert, alpha, beta)
            if witness is not None:
                return witness
    return None


def gapped_report(
    g: GappedIndex,
    i: int,
    j: int,
    alpha: int,
    beta: int,
    *,
    plan: Optional[CoverPlan] = None,
) -> list[tuple[int, int]]:
    """All pairs (a, b) with b - a in [alpha, beta], sorted and deduplicated."""
    plan = _plan_for(g, alpha, beta, plan)
    if plan is None:
        g.last_plan_size = 0
        g.last_raw_pairs = 0
        g.last_max_multiplicity = 0
        return []
    g.last_plan_size = plan.size
    raw: list[tuple[int, int]] = []
    levels = g.levels
    for level, shift in plan.probes:
        if level == 0:
            raw.extend(report_shift(g.exact, i, j, shift))
            continue
        lvl = levels[level - 1]
        found = report_shift(lvl.instance, i, j, shift)
        if not found:
            continue
        # Keep an expanded pair when one of the queries issuing this probe
        # may report its difference.
        zone_lo, zone_hi = plan.zones[(level, shift)]
        for qa, qb in found:
            for a in lvl.originals(i, qa):
                for b in lvl.originals(j, qb):
                    if zone_lo <= b - a <= zone_hi:
                        raw.append((a, b))
    g.last_raw_pairs = len(raw)
    g.last_max_multiplicity = max(Counter(raw).values()) if raw else 0
    return sorted(set(raw))
