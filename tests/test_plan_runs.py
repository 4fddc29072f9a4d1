"""Plans built from per-level runs equal the per-step planner they replace.

``reference_plan_cover`` is the planner that issued one approximate query
at a time and deduplicated probes through a dict; ``plan_cover`` computes
each level's run of centers in closed form. Every field, derived or not,
and ``describe()`` must agree on every gap tested. A pin in ``tests/pins/``
holds the witnesses ``exists`` returns, the first hit in probe order (or,
for a pair the exact instance tabulates, the smallest realized shift in
the gap with its smallest a), with each query's backend calls and
probes."""

import random
from dataclasses import dataclass

import pytest

from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.errors import FormatError, GapIndexError
from gapindex.gapped import ApproxQuery, _quotient_shifts, _uncertain, plan_cover
from gapindex.generators import random_pattern_from, random_text
from gapindex.textindex import build_gapped_string_index
from test_counter_pins import pin_stream


@dataclass(frozen=True)
class ReferencePlan:
    gap_lo: int
    gap_hi: int
    point_shifts: tuple[int, ...]
    approx_centers: tuple[tuple[int, int], ...]
    forward_centers: tuple[tuple[int, int], ...]
    backward_centers: tuple[tuple[int, int], ...]
    phases_forward: int
    phases_backward: int
    probes: tuple[tuple[int, int], ...]
    level_probes: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.point_shifts) + len(self.approx_centers)

    @property
    def level_shifts(self) -> tuple[tuple[int, ...], ...]:
        shifts: list[list[int]] = [[] for _ in self.level_probes]
        for level, shift in self.probes:
            shifts[level].append(shift)
        return tuple(map(tuple, shifts))

    def describe(self) -> str:
        lines = [f"plan [{self.gap_lo}, {self.gap_hi}] queries={self.size}"]
        for s in self.point_shifts:
            lines.append(f"  point {s}")
        for q in (ApproxQuery(level, center) for level, center in self.approx_centers):
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
        if delta < (1 << (level + 1)) - 2:
            raise GapIndexError("entered a phase before covering enough")
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


def reference_plan_cover(alpha: int, beta: int) -> ReferencePlan:
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
    # The same pass lists each distinct probe once and counts each level's.
    for s in points:
        if not alpha <= s <= beta:
            raise GapIndexError(f"point shift {s} escaped [{alpha}, {beta}]")
    probes = dict.fromkeys((0, s) for s in points)
    level_probes = [len(points)] + [0] * max(centers, default=(0, 0))[0]
    for level, center in centers:
        u0, u1 = _uncertain(level, center)
        if not (alpha <= u0 and u1 <= beta):
            raise GapIndexError(
                f"uncertainty of the level-{level} query at {center}"
                f" escaped [{alpha}, {beta}]"
            )
        # Storing a key again keeps its first-issue place, so the growth is
        # the number of new probes. Level 1 divides by 2^0, so its quotient
        # shifts are exact probes, kept at level 0.
        before, at, after = _quotient_shifts(level, center)
        key = level if level > 1 else 0
        n = len(probes)
        probes[key, before] = probes[key, at] = probes[key, after] = None
        level_probes[key] += len(probes) - n
    return ReferencePlan(
        gap_lo=alpha,
        gap_hi=beta,
        point_shifts=points,
        approx_centers=centers,
        forward_centers=tuple(fwd_centers),
        backward_centers=tuple(bwd_centers),
        phases_forward=fwd_phases,
        phases_backward=bwd_phases,
        probes=tuple(probes),
        level_probes=tuple(level_probes),
    )



FIELDS = (
    "gap_lo", "gap_hi", "point_shifts", "approx_centers", "forward_centers",
    "backward_centers", "phases_forward", "phases_backward", "probes",
    "level_probes", "size", "level_shifts",
)


def assert_same_plan(alpha, beta, queries=True):
    got, want = plan_cover(alpha, beta), reference_plan_cover(alpha, beta)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), (alpha, beta, field)
    if queries:  # made from the fields above, so checked on a share of gaps
        assert [(q.level, q.center) for q in got.forward_approx] == list(want.forward_centers)
        assert [(q.level, q.center) for q in got.backward_approx] == list(want.backward_centers)
        assert got.describe() == want.describe(), (alpha, beta)


def test_runs_equal_the_per_step_planner_on_every_small_gap():
    for beta in range(257):
        for alpha in range(beta + 1):
            assert_same_plan(alpha, beta, queries=beta < 64 or alpha % 8 == 0)


def test_runs_equal_the_per_step_planner_on_sampled_wide_gaps():
    # Widths are drawn per power of two, so narrow and wide gaps are both
    # common. Checking every gap with beta < 600 instead takes ~45 s.
    rng = random.Random(600)
    for n in range(20_000):
        alpha = rng.randrange(1 << 20)
        beta = min(alpha + rng.randrange(1 << rng.randrange(21)), 1 << 20)
        assert_same_plan(alpha, beta, queries=n % 16 == 0)


def exists_stream(kind, n, queries, seed=512) -> str:
    """The pin of a seeded stream of gapped-string exists queries."""
    rng = random.Random(seed)
    text = random_text(rng, n, 4)
    idx = build_gapped_string_index(text, kind)
    stream = []
    for _ in range(queries):
        p1, p2 = random_pattern_from(rng, text, 5), random_pattern_from(rng, text, 5)
        lo = rng.randint(0, n // 3)
        stream.append((p1, p2, lo, lo + rng.randint(0, n * 2 // 5)))
    return pin_stream(idx.gapped, lambda q: idx.exists(*q), stream)


@pytest.mark.parametrize(
    "kind, n",
    [
        (LinearScan(), 512),
        # No cover set of these patterns is above the threshold, so no pair
        # is tabulated and the counts are those of linear.
        (SmallUniverse(delta=0.5), 512),
        # Tabulating every pair is quadratic in the stored sets: a small text.
        # Every pair answers from its table, so no query plans.
        (FullTabulation(), 16),
    ],
    ids=["linear", "smalluniverse", "fulltab"],
)
def test_exists_witnesses_and_counts_are_pinned(kind, n, pin):
    """An untabulated pair's witness is the first hit in probe order and
    the CLI prints it, so a plan that reorders its probes moves the
    answers; a change in how many calls or probes a query spends moves the
    counters."""
    pin(f"plan-runs-{kind.name}", exists_stream(kind, n, 600))
