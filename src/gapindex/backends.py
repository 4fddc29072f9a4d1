"""Certificate-returning shifted set intersection (SSI).

One backend answers "is there a in S_i, b in S_j with a + s = b?" and, on
YES, returns the witness pair with the smallest a. It follows one rule:
every pair of sets larger than a size threshold is tabulated (one
certificate per realized shift), and any other pair is answered by
probing the smaller set against the other's member set. The three kinds
only set the threshold:

* ``LinearScan``        -- infinite: nothing is tabulated, every query probes.
* ``FullTabulation``    -- -1: every pair is tabulated, no member sets kept.
* ``SmallUniverse(d)``  -- ceil(N^d): sweeping d trades bytes for probes.

N is the sets' total size unless the caller names another total: an
augmented instance counts every dyadic block of its base sets, stored or
not.

A tabulated pair maps a shift t to a row r, and answers the a-value in
row r, in one of two ways. A pair whose differences span no more slots
than it has differences is a dense row table: one byte (or two, or four,
for sides of 255 or 65,536 and more elements) per shift slot names the
certificate's row in set i, so r is one index. Any other pair is a
sorted table of its realized shifts and their a-values, and r is one
bisection. Both are plain ``bytes``, ``array`` or list objects; numpy
only builds them, and only when every stored value lies inside
(-2^62, 2^62), so that no difference leaves int64: the build reads the
stored sets' least and greatest values once (``sets.value_range``), and
any other collection tabulates with a dict. ``_TabulatedPairs.add_pair``
is the one place that turns a pair into its table. Each unordered pair
is stored once, with the smaller set as set i: (j, i) at shift s reads
(i, j)'s table at -s as its mirror. ``space_bytes`` stays nominal,
counting both orientations; ``table.nbytes`` gives the bytes the tables
store.

Only a probe or a walk reads a member set, so only the sets a caller
names keep one, made on the set's first probe: a tuple of at most
``_TUPLE_MEMBERS`` elements answers ``in`` itself, and a larger set builds
a frozenset. Blocks (an augmented instance's dyadic blocks) are table
operands only, with the ids after the sets: each pair of blocks is
tabulated, never a set and a block, and only ``exists`` reads them.

The sets may be a ``SlicedSets`` (a quotient level, or a string index's
interval sets), whose tuples are made on first read: the queries, and
``tabulated``, read its ``rows`` list and index the sequence only on a
set not yet read, and a build with no large set reads none. The gapped
queries read a base set of the exact instance the same way.

The backend owns each pair's route: ``tabulated(i, j)`` states the rule
that every caller asks. Besides ``exists``, ``scan`` is the one walk: it
lists every pair of two rank ranges at each of a sequence of shifts, as
one flat list, shift by shift. The reporting recursion asks it, with its
one shift, for each node it does not tabulate. ``scan_shifts`` answers
one untabulated pair at many shifts in one pass, as the gapped index asks
a plan's level: it lists the pair's differences once when neither set
outnumbers the shifts, and otherwise is one ``scan`` over the whole sets.
``differences`` gives the set of b - a that such a listing reads.
``meets`` decides whether any b - a of a pair lies in a gap [lo, hi], as
a gapped-string exists asks of each cover pair before it runs the plan,
and follows ``tabulated`` as ``exists`` does: a tabulated pair reads the
gap's range of its table (``table.smallest``: one bisection of a sorted
table, or a strip of the sentinel rows off a dense table's slots), and
any other pair is one walk of its smaller set that stops at the first
such difference. The walk starts from ``range_meets``, the one test of a
pair's difference range against a gap that it and the gapped queries
share. A gapped query on a tabulated pair reads the same range:
``table.smallest`` gives the smallest realized shift in a gap, whose
certificate an exists asks for, and ``table.realized`` every realized
shift in it, each of which a report asks ``report_shift`` for.

The backend counts its own work: ``probes`` grows by the elements a probe
or walk visits, and ``scans`` by one per ``scan``, a walking
``scan_shifts`` pass included; a listing, a ``meets`` (walked or read
from a table) and a table read count no call. Apart from these two
counters, the member sets and a ``SlicedSets``'s tuples, which are filled
on first read, a backend is immutable after build. A fill is idempotent,
so concurrent reads stay safe: two threads that both fill one set's
tuple or member set make equal ones; a ``SlicedSets`` keeps the first
tuple stored, under its lock, and either member set may be kept.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import BudgetError, FormatError
from .sets import SetCollection, SlicedSets, set_sizes, value_range

# Nominal per-entry accounting used for space instrumentation: one stored
# integer is 8 bytes, one tabulated certificate (shift -> pair) is 24.
_INT_BYTES = 8
_CERT_BYTES = 24

DEFAULT_MEM_BUDGET = 1 << 30

# numpy fast paths require differences to stay inside int64: the stored
# values' range must lie inside (-_NP_SAFE, _NP_SAFE).
_NP_SAFE = 1 << 62

# A sorted table narrows to array('i') when its values lie in [-_INT32, _INT32).
_INT32 = 1 << 31

# A set of at most this many elements is its own member set, made like a
# frozenset on the set's first probe. Averaged over
# its hits and one miss, ``in`` took ~73 ns on an 8-tuple against ~28 ns
# on a frozenset (~119 ns on a 16-tuple), on a 2-core Xeon VM under
# Python 3.11; the tuple is 104 bytes where the frozenset takes 728.
_TUPLE_MEMBERS = 8


@dataclass(frozen=True)
class LinearScan:
    name = "linear"


@dataclass(frozen=True)
class FullTabulation:
    name = "fulltab"


@dataclass(frozen=True)
class SmallUniverse:
    delta: float
    name = "smalluniverse"


BackendKind = Union[LinearScan, FullTabulation, SmallUniverse]


@dataclass(frozen=True)
class ShiftQuery:
    i: int
    j: int
    s: int


@dataclass(frozen=True)
class ShiftCertificate:
    a: int
    b: int


def parse_backend(name: str, delta: float = 0.5) -> BackendKind:
    if name == "linear":
        return LinearScan()
    if name == "fulltab":
        return FullTabulation()
    if name == "smalluniverse":
        if isinstance(delta, bool) or not isinstance(delta, (int, float)):
            raise ValueError(f"delta must be a number in [0, 1], got {delta!r}")
        if not 0.0 <= delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {delta}")
        return SmallUniverse(delta=delta)
    raise ValueError(f"unknown backend {name!r} (linear, fulltab, smalluniverse)")


def _as_element_lists(
    c: Union[SetCollection, Sequence[tuple[int, ...]]]
) -> Sequence[tuple[int, ...]]:
    """The sets as a list of element tuples: the caller's own list when it
    already is one, so that a backend shares its instance's list. A
    ``SlicedSets`` is returned as it is, with no set read."""
    if isinstance(c, SetCollection):
        return [s.elements for s in c.sets]
    if isinstance(c, SlicedSets):
        return c
    if type(c) is list and set(map(type, c)) <= {tuple}:
        return c
    return [s if type(s) is tuple else tuple(s) for s in c]


def range_meets(sa: Sequence[int], sb: Sequence[int], lo: int, hi: int) -> bool:
    """Whether the difference range of sorted sets A and B meets [lo, hi].

    Every b - a lies in [min B - max A, max B - min A], so a pair whose
    range misses [lo, hi], or that has an empty set, has no difference
    there. False means no b - a lies in [lo, hi]; True only that one may.
    """
    if not sa or not sb:
        return False
    return sb[-1] - sa[0] >= lo and sb[0] - sa[-1] <= hi


def _row_code(m: int) -> str:
    """Type code (numpy and ``array`` alike) of a row table over an m-row
    side: it must also hold the sentinel m."""
    return "B" if m < 0xFF else "H" if m <= 0xFFFF else "I"


def _scatter_rows(sa: tuple[int, ...], sb: tuple[int, ...], aa, bb):
    """The scatter over a pair's difference range: (lo, rows), or None.

    ``aa`` and ``bb`` are sa and sb as int64 arrays, or None for a pair
    outside numpy's reach. Defined for a numpy pair of at least 64
    differences whose range [lo, hi] = [min b - max a, max b - min a] spans
    no more slots than it has differences. rows[s - lo] is the smallest row
    r (a = sa[r]) with sa[r] + s in sb, or the sentinel len(sa) when no pair
    realizes s, at the item type of ``_row_code``. Any other pair gives None.
    """
    if aa is None or len(sa) * len(sb) < 64:
        return None
    lo = sb[0] - sa[-1]
    width = sb[-1] - sa[0] - lo + 1
    if width > len(sa) * len(sb):
        return None
    # No more slots than differences: the peak stays within what the sort
    # of ``_sorted_certs`` would take.
    # Row-major: position p holds b - a - lo for row p // len(sb).
    slots = ((bb - lo)[None, :] - aa[:, None]).ravel()
    rows = np.full(width, len(sa), dtype=_row_code(len(sa)))
    np.minimum.at(rows, slots, np.repeat(np.arange(len(sa), dtype=rows.dtype), len(sb)))
    return lo, rows


def _certs_from_rows(aa: np.ndarray, lo: int, rows: np.ndarray):
    """A scatter's realized shifts, ascending, and their a-values (int64)."""
    slots = np.flatnonzero(rows < len(aa))
    return slots + lo, aa[rows[slots]]


def _sorted_certs(sa: tuple[int, ...], sb: tuple[int, ...], aa, bb):
    """The (shifts, a-values) of a pair ``_scatter_rows`` does not cover.

    A numpy pair of at least 64 differences, such as widely spread values,
    finds each shift's first row by a stable sort. Small pairs and values
    outside int64 use a dict.
    """
    if aa is not None and len(sa) * len(sb) >= 64:
        diffs = (bb[None, :] - aa[:, None]).ravel()
        # np.unique's return_index picks the first, smallest-a, occurrence.
        shifts, first = np.unique(diffs, return_index=True)
        return shifts, aa[first // len(sb)]
    table: dict[int, int] = {}
    for a in sa:
        for b in sb:
            table.setdefault(b - a, a)
    shifts = sorted(table)
    return shifts, [table[s] for s in shifts]


def _int64(s: tuple[int, ...]) -> np.ndarray:
    return np.asarray(s, dtype=np.int64)


class _TabulatedPairs:
    """Shared (i, j) -> shift table with smallest-a certificates.

    ``_pairs[(i, j)]`` is ``(lo, rows, values, mirrored)``, and both
    layouts map a shift t to a row r and answer ``values[r]``:

    * dense (``lo`` an int): ``r = rows[t - lo]``, one row per shift slot
      of a pair that ``_scatter_rows`` covers, kept when it is no larger
      than the sorted int32 form (``width * itemsize <= 8 * entries``).
      ``rows`` is ``bytes`` under 255 rows, else ``array('H')`` or
      ``array('I')``; ``values`` is set i's own tuple, and row len(values)
      is a miss.
    * sorted (``lo`` None): ``r = bisect_left(rows, t)``, with the realized
      shifts as ``rows`` and their a-values as ``values``. A numpy-built
      table is ``array('i')`` when its shifts and a-values fit in int32,
      else ``array('q')``; a small pair or values outside int64 keep lists.

    ``smallest`` and ``realized`` read a gap's range of the same table:
    realized shifts found by bisection, or the rows of the gap's slots.
    Neither counts a call or a probe.

    Each unordered pair {i, j} is tabulated once, as the ordered pair
    (i, j) it is added as, and (j, i) reads the same stored objects with
    ``mirrored`` set: (j, i)'s certificate at shift s is (a - s, a), where
    a is (i, j)'s smallest-a certificate at -s, because the pairs of
    (j, i) at s are those of (i, j) at -s turned round, and b = a - s
    grows with a. A pair (i, i) is its own mirror and is stored once,
    unmirrored.

    ``entries`` counts the realized shifts of every ordered pair, mirrors
    included; ``pairs`` counts the tables stored and ``nbytes`` their
    rows, shifts and a-values (8 per integer of a list-path pair), without
    object headers.
    """

    __slots__ = ("_pairs", "entries", "pairs", "nbytes")

    def __init__(self) -> None:
        self._pairs: dict[tuple[int, int], tuple] = {}
        self.entries = 0
        self.pairs = 0
        self.nbytes = 0

    def add_pair(self, i: int, j: int, sa, sb, aa=None, bb=None) -> None:
        """Tabulate (i, j) over sets sa and sb, and (j, i) as its mirror.

        ``aa`` and ``bb`` are sa and sb as int64 arrays, or None (the
        default) to tabulate without numpy. The only composition of
        ``_scatter_rows``, ``_certs_from_rows`` and ``_sorted_certs``: a
        scattered pair is kept dense or read off its rows into the sorted
        form, and any other pair is sorted directly.
        """
        scattered = _scatter_rows(sa, sb, aa, bb)
        if scattered is None:
            shifts, avals = _sorted_certs(sa, sb, aa, bb)
        else:
            lo, rows = scattered
            entries = int(np.count_nonzero(rows < len(sa)))
            # The sorted int32 form takes 4 + 4 bytes per realized shift.
            if rows.nbytes <= 8 * entries:
                code = rows.dtype.char
                table = rows.tobytes() if code == "B" else array(code, rows.tobytes())
                self._store(i, j, (lo, table, sa), entries, rows.nbytes)
                return
            shifts, avals = _certs_from_rows(aa, lo, rows)
        if isinstance(shifts, np.ndarray):
            # A numpy pair has at least 64 differences, so shifts[0] exists;
            # every a-value lies within sa.
            fits = -_INT32 <= min(shifts[0], sa[0]) and max(shifts[-1], sa[-1]) < _INT32
            code = "i" if fits else "q"
            shifts, avals = (array(code, x.astype(code).tobytes()) for x in (shifts, avals))
            nbytes = 2 * shifts.itemsize * len(shifts)
        else:
            nbytes = 2 * _INT_BYTES * len(shifts)
        self._store(i, j, (None, shifts, avals), len(shifts), nbytes)

    def _store(self, i: int, j: int, stored: tuple, entries: int, nbytes: int) -> None:
        self._pairs[(i, j)] = (*stored, False)
        self.entries += entries
        self.pairs += 1
        self.nbytes += nbytes
        if i != j:
            self._pairs[(j, i)] = (*stored, True)
            self.entries += entries

    def lookup(self, i: int, j: int, s: int) -> Optional[ShiftCertificate]:
        lo, rows, values, mirrored = self._pairs[(i, j)]
        t = -s if mirrored else s
        if lo is None:
            r = bisect_left(rows, t)
            if r < len(rows) and rows[r] != t:
                return None
        elif 0 <= t - lo < len(rows):
            r = rows[t - lo]
        else:
            return None
        if r == len(values):
            return None
        a = values[r]
        return ShiftCertificate(a - s, a) if mirrored else ShiftCertificate(a, a + s)

    def smallest(self, i: int, j: int, lo: int, hi: int) -> Optional[int]:
        """The smallest shift in [lo, hi] that (i, j) realizes, or None.

        A mirrored pair wants the largest stored shift in [-hi, -lo]. A
        sorted table is one bisection. A dense ``bytes`` table strips the
        sentinel byte off the gap's slots at C speed; an ``array`` table
        first counts the sentinel rows among them, also at C speed, and
        only a slot range with a realized shift is searched in Python.
        """
        lo_slot, rows, values, mirrored = self._pairs[(i, j)]
        t_lo, t_hi = (-hi, -lo) if mirrored else (lo, hi)
        if lo_slot is None:
            if mirrored:
                r = bisect_right(rows, t_hi) - 1
                return -rows[r] if r >= 0 and rows[r] >= t_lo else None
            r = bisect_left(rows, t_lo)
            return rows[r] if r < len(rows) and rows[r] <= t_hi else None
        start, stop = max(t_lo - lo_slot, 0), min(t_hi - lo_slot + 1, len(rows))
        if start >= stop:
            return None
        slots, miss = rows[start:stop], len(values)
        if type(slots) is bytes:
            kept = slots.rstrip(bytes((miss,))) if mirrored else slots.lstrip(bytes((miss,)))
            if not kept:
                return None
            k = len(kept) - 1 if mirrored else len(slots) - len(kept)
        else:
            if slots.count(miss) == len(slots):
                return None
            order = range(len(slots) - 1, -1, -1) if mirrored else range(len(slots))
            k = next(k for k in order if slots[k] != miss)
        t = lo_slot + start + k
        return -t if mirrored else t

    def realized(self, i: int, j: int, lo: int, hi: int) -> list[int]:
        """Every shift in [lo, hi] that (i, j) realizes, ascending: a slice
        of a sorted table, or the gap's slots of a dense one that are not
        the sentinel row. A mirrored pair reads [-hi, -lo], negated."""
        lo_slot, rows, values, mirrored = self._pairs[(i, j)]
        t_lo, t_hi = (-hi, -lo) if mirrored else (lo, hi)
        if lo_slot is None:
            found = list(rows[bisect_left(rows, t_lo):bisect_right(rows, t_hi)])
        else:
            start = max(t_lo - lo_slot, 0)
            miss, base = len(values), lo_slot + start
            found = [base + k for k, r in
                     enumerate(rows[start:max(t_hi - lo_slot + 1, start)]) if r != miss]
        return [-t for t in reversed(found)] if mirrored else found


def size_threshold(kind: BackendKind, total: int) -> float:
    """Size above which a set is "large"; large x large pairs are tabulated.

    ``total`` is the N of ``SmallUniverse``'s ceil(N^delta).
    """
    if isinstance(kind, LinearScan):
        return math.inf
    if isinstance(kind, FullTabulation):
        return -1  # every set, empty ones included
    if isinstance(kind, SmallUniverse):
        return _ceil_pow(total, kind.delta)
    raise ValueError(f"unsupported backend kind {kind!r}")


class SsiBackend:
    """Tabulate every pair of large sets; probe the smaller set otherwise.

    The three kinds differ only in ``threshold``. ``sets`` holds the
    caller's sets, shared; ``count`` is their number, and ``rows`` the
    list the queries read them from (``sets`` itself, or a ``SlicedSets``'s
    rows, where a set not yet read is None and is read from ``sets``
    instead). The ``blocks`` take ids count + 1 to ``last_block``, and
    only their tables keep them. Member sets serve the probes, so
    ``FullTabulation``, which never probes, keeps none; the others keep
    ``members[t]`` for each set, None until set t + 1's first probe
    (``member``): set t's own tuple when it has at most ``_TUPLE_MEMBERS``
    elements, else a frozenset.

    The build reads the sizes once, as one int64 array (``set_sizes``):
    the threshold total, ``dict_entries`` and the large ids are each one
    numpy expression over it, so a build with no large set or block
    (every ``LinearScan`` build) reads no set. Otherwise it reads the
    sets' and the blocks' value range once (``value_range``): the budget
    caps each tabulated pair's certificates at its 2 * (high - low) + 1
    shifts, and the numpy table path runs only when it lies inside
    int64's (-2^62, 2^62); otherwise every pair tabulates with a dict.
    """

    def __init__(self, sets: Sequence[tuple[int, ...]], kind: BackendKind,
                 mem_budget: int = DEFAULT_MEM_BUDGET,
                 blocks: Sequence[tuple[int, ...]] = (),
                 threshold: Optional[float] = None):
        self.sets = sets
        self.count = len(sets)
        self.last_block = len(sets) + len(blocks)
        self.rows = sets.rows if isinstance(sets, SlicedSets) else sets
        self.kind = kind
        self.probes = 0
        self.scans = 0
        sizes = set_sizes(sets)
        stored = int(sizes.sum())
        if threshold is None:
            threshold = size_threshold(kind, stored)
        self.threshold = threshold
        # Two groups, each tabulated pair by pair: the large sets, the blocks.
        groups = [[(i, sets[i - 1]) for i in (np.flatnonzero(sizes > threshold) + 1).tolist()],
                  list(enumerate(blocks, self.count + 1))]
        self.table = _TabulatedPairs()
        # Without large sets or blocks (always so for LinearScan) no set is
        # read: only the tabulation needs the operands' value range.
        if groups[0] or groups[1]:
            # Every b - a of the sets or of the blocks lies in [low - high, high - low].
            low, high = value_range([r for r in map(value_range, (sets, blocks)) if r]) or (0, 0)
            span = 2 * (high - low) + 1
            needed = _CERT_BYTES * sum(min(len(sa) * len(sb), span)
                                       for group in groups for _, sa in group for _, sb in group)
            if needed > mem_budget:
                raise BudgetError(
                    f"{kind.name} build needs ~{needed} bytes, over budget {mem_budget}"
                )
            np_safe = -_NP_SAFE < low and high < _NP_SAFE
            for group in groups:
                # Each operand is converted to int64 once, not once per pair.
                group = [(t, s, _int64(s) if np_safe else None) for t, s in group]
                for x, p in enumerate(group):
                    for q in group[x:]:
                        # The smaller set is the row side: the narrowest rows.
                        (i, sa, aa), (j, sb, bb) = (q, p) if len(q[1]) < len(p[1]) else (p, q)
                        self.table.add_pair(i, j, sa, sb, aa, bb)
        probed = not isinstance(kind, FullTabulation)
        self.members: list[Union[frozenset, tuple[int, ...], None]] = (
            [None] * self.count if probed else [])
        # Logical space: one entry per element a probe can read.
        self.dict_entries = stored if probed else 0

    @property
    def large(self) -> list[bool]:
        """Per set, whether it is above the threshold (tabulated against the large ones)."""
        return (set_sizes(self.sets) > self.threshold).tolist()

    def member(self, t: int) -> Union[frozenset, tuple[int, ...]]:
        """Set t's member set, made and kept: its own tuple when it has at
        most ``_TUPLE_MEMBERS`` elements, else a frozenset."""
        s = self.sets[t - 1]
        self.members[t - 1] = member = s if len(s) <= _TUPLE_MEMBERS else frozenset(s)
        return member

    def tabulated(self, i: int, j: int) -> bool:
        """Whether the pair is answered by table lookups: both sets are large.
        Any other pair is probed, walked or listed."""
        rows = self.rows
        return (len(rows[i - 1] or self.sets[i - 1]) > self.threshold
                and len(rows[j - 1] or self.sets[j - 1]) > self.threshold)

    def exists(self, i: int, j: int, s: int) -> Optional[ShiftCertificate]:
        """Smallest-a certificate for a + s = b over sets (or blocks) i, j, or None."""
        if not (1 <= i <= self.count and 1 <= j <= self.count):
            if self.count < i <= self.last_block and self.count < j <= self.last_block:
                return self.table.lookup(i, j, s)
            raise FormatError(f"set indices ({i}, {j}) out of range 1..{self.count}")
        rows = self.rows
        sa, sb = rows[i - 1] or self.sets[i - 1], rows[j - 1] or self.sets[j - 1]
        # The rule of ``tabulated``, inline: this is the hot path.
        if len(sa) > self.threshold and len(sb) > self.threshold:
            return self.table.lookup(i, j, s)
        # Scan the smaller side against the other's members; scanning the
        # b-side finds a = b - s in ascending order too.
        if len(sa) <= len(sb):
            scan, t, step = sa, j, s
        else:
            scan, t, step = sb, i, -s
        member = self.members[t - 1]
        if member is None:
            member = self.member(t)
        n = 0
        for x in scan:
            n += 1
            if x + step in member:
                self.probes += n
                a = x if scan is sa else x - s
                return ShiftCertificate(a, a + s)
        self.probes += n
        return None

    def scan(self, i: int, a_lo: int, a_hi: int, j: int, b_lo: int, b_hi: int,
             shifts: Sequence[int]) -> list[tuple[int, int]]:
        """Every (a, b) with b - a in ``shifts``, a of ranks [a_lo, a_hi] of
        set i and b of ranks [b_lo, b_hi] of set j: shift by shift in the
        order given, each shift's pairs sorted by a. The rule of ``exists``
        without the stop at the first hit: per shift, two bisections bound
        the smaller range to the elements whose partner can lie in the other
        range, and each is looked up in the other set's members; a hit's
        partner is read from its set by a bisection, so pairs share the
        sets' ints: O(log + min(|A|, |B|) + occ * log) steps. ``scans``
        grows by one per call and ``probes`` by the elements walked; an
        empty range has no pair and walks nothing. The caller vouches for
        the ids and ranks.
        """
        self.scans += 1
        if a_hi < a_lo or b_hi < b_lo:
            return []
        rows = self.rows
        sa, sb = rows[i - 1] or self.sets[i - 1], rows[j - 1] or self.sets[j - 1]
        out: list[tuple[int, int]] = []
        walked = 0
        if a_hi - a_lo <= b_hi - b_lo:
            member, first, last = self.members[j - 1], sb[b_lo - 1], sb[b_hi - 1]
            if member is None:
                member = self.member(j)
            for s in shifts:
                lo = bisect_left(sa, first - s, a_lo - 1, a_hi)
                hi = bisect_right(sa, last - s, lo, a_hi)
                walked += hi - lo
                out += [(x, sb[bisect_left(sb, x + s, b_lo - 1, b_hi)])
                        for x in sa[lo:hi] if x + s in member]
        else:
            member, first, last = self.members[i - 1], sa[a_lo - 1], sa[a_hi - 1]
            if member is None:
                member = self.member(i)
            for s in shifts:
                lo = bisect_left(sb, first + s, b_lo - 1, b_hi)
                hi = bisect_right(sb, last + s, lo, b_hi)
                walked += hi - lo
                out += [(sa[bisect_left(sa, y - s, a_lo - 1, a_hi)], y)
                        for y in sb[lo:hi] if y - s in member]
        self.probes += walked
        return out

    def meets(self, i: int, j: int, lo: int, hi: int) -> bool:
        """Whether some b - a lies in [lo, hi], a of set i and b of set j.

        The rule of ``exists``: a tabulated pair reads its table, which holds
        every realized shift, by one range read (``_TabulatedPairs.smallest``)
        that walks nothing. Any other pair that fails ``range_meets`` walks
        nothing either. Otherwise the smaller set is walked in ascending
        order, one ``bisect_left`` into the other set per element for the
        nearest partner, from a bound that only moves forward, and the walk
        stops at the first b - a in [lo, hi] or once no partner is left: at
        most min(|A|, |B|) * log(max(|A|, |B|)) steps. ``probes`` grows by
        the elements walked; like a listing, neither route counts a call.
        Ids outside 1..len(sets) raise FormatError, as in ``exists``.
        """
        if not (1 <= i <= self.count and 1 <= j <= self.count):
            raise FormatError(f"set indices ({i}, {j}) out of range 1..{self.count}")
        rows = self.rows
        sa, sb = rows[i - 1] or self.sets[i - 1], rows[j - 1] or self.sets[j - 1]
        # The rule of ``tabulated``, inline, as in ``exists``.
        if len(sa) > self.threshold and len(sb) > self.threshold:
            return self.table.smallest(i, j, lo, hi) is not None
        if not range_meets(sa, sb, lo, hi):
            return False
        # Walking a looks for the first b >= a + lo; walking b for the first
        # a >= b - hi. Either bound grows with the walked element.
        if len(sa) <= len(sb):
            walk, other, near, far = sa, sb, lo, hi
        else:
            walk, other, near, far = sb, sa, -hi, -lo
        k, walked, end = 0, 0, len(other)
        for x in walk:
            walked += 1
            k = bisect_left(other, x + near, k)
            if k == end:
                break
            if other[k] <= x + far:
                self.probes += walked
                return True
        self.probes += walked
        return False

    def differences(self, i: int, j: int, count: int) -> Optional[set[int]]:
        """Every difference b - a over sets i and j, or None when a set has
        more than ``count`` elements.

        Listing takes |A|*|B| <= ``count`` * min(|A|, |B|) steps, no more
        than ``count`` probes spend when every one misses. Listing counts
        no call. The gapped queries list only pairs that are not tabulated:
        a tabulated pair reads its table instead.
        """
        rows = self.rows
        sa, sb = rows[i - 1] or self.sets[i - 1], rows[j - 1] or self.sets[j - 1]
        if len(sa) > count or len(sb) > count:
            return None
        return {b - a for a in sa for b in sb}

    def scan_shifts(self, i: int, j: int, shifts: Sequence[int]) -> list[tuple[int, int]]:
        """Every (a, b) of sets i and j with b - a in ``shifts`` (distinct).

        One pass over a pair the backend does not tabulate. When neither
        set has more elements than there are shifts, every difference is
        listed once and the wanted ones are kept, sorted by a then b:
        |A|*|B| <= len(shifts)*min(|A|, |B|) steps, no more than the walks
        spend when every shift misses, and neither counter grows.
        Otherwise one ``scan`` over the whole sets walks the smaller set
        once per shift. The caller vouches for the ids.
        """
        rows = self.rows
        sa, sb = rows[i - 1] or self.sets[i - 1], rows[j - 1] or self.sets[j - 1]
        if len(sa) <= len(shifts) and len(sb) <= len(shifts):
            wanted = set(shifts)
            return [(a, b) for a in sa for b in sb if b - a in wanted]
        # Over whole sets the smaller rank range is the smaller set.
        return self.scan(i, 1, len(sa), j, 1, len(sb), shifts)

    def space_bytes(self) -> int:
        return self.dict_entries * _INT_BYTES + self.table.entries * _CERT_BYTES


def _ceil_pow(total: int, delta: float) -> int:
    if total <= 0:
        return 0
    t = math.ceil(total**delta)
    # Guard against float rounding just above an exact power.
    while t > 1 and (t - 1) >= total**delta:
        t -= 1
    return t


def build_backend(
    c: Union[SetCollection, Sequence[tuple[int, ...]]],
    kind: BackendKind,
    mem_budget: int = DEFAULT_MEM_BUDGET,
    blocks: Sequence[tuple[int, ...]] = (),
    threshold: Optional[float] = None,
) -> SsiBackend:
    """Build the requested backend over a collection or raw sorted sets.

    ``blocks`` are sorted sets tabulated against each other only, under
    the ids after the sets; no set is tabulated against one.
    ``threshold`` is the size above which a set is large; by default
    ``size_threshold`` of the sets' total size.
    """
    return SsiBackend(_as_element_lists(c), kind, mem_budget, blocks, threshold)


def brute_force_ssi(
    c: Union[SetCollection, Sequence[tuple[int, ...]]], q: ShiftQuery
) -> list[tuple[int, int]]:
    """Reference oracle: every (a, b) with a + s = b, sorted by a."""
    sets = _as_element_lists(c)
    sa, sb = sets[q.i - 1], sets[q.j - 1]
    member_b = set(sb)
    return [(a, a + q.s) for a in sa if a + q.s in member_b]
