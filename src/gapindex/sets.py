"""Sorted integer-set collections and the dyadic decomposition machinery.

Everything downstream (shift queries, reporting, gapped queries, the string
index) is built on two primitives defined here: partitioning a sorted set
into dyadic rank blocks, and covering an arbitrary rank range by at most
2*ceil(log2 m) + 1 of those blocks.

A cover is a list of ``(level, block, rank_lo, rank_hi)`` tuples from
``cover_blocks``. A tuple names no set, so one cover serves any set (or
the positions [1, n] of a suffix array): a block's values are the set's
elements at ``rank_lo - 1`` and ``rank_hi - 1``. ``dyadic_subsets``
slices the blocks themselves from the tuple, for a build that stores them.

A ``SlicedSets`` holds k sorted sets as one array of int codes into one
ascending tuple of shared ints, and makes each set's tuple on its first
read: the string index's dyadic interval sets and the quotient levels of
a gapped index are each one. ``code_type`` picks the codes' width.
``set_sizes`` reads the sizes of any sequence of sets into one int64
array, making no set (a ``SlicedSets`` reads them off its ends), so a
build's per-set bookkeeping is numpy expressions over that array.
``value_range`` reads the least and the greatest element of a sequence
of sorted sets off their ends, or a ``SlicedSets``'s off the first and
last of its ``ints``, with no set made: the gapped index's span check,
the tabulation budget's shift span and the int64 guard of the numpy
table path all read it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter
from threading import Lock
from typing import Optional, Sequence

import numpy as np

from .errors import FormatError, GuardError

# Ingestion cap: keeps an ingested collection's values, and the differences
# of two of them, inside int64, where container sections, the numpy table
# path and quotient levels hold them. Collections derived in memory (the
# 3SUM mappings, jumbled encodings) are Python ints and need no cap.
MAX_UNIVERSE = 1 << 40

# A ``cover_blocks`` tuple: (level, block, rank_lo, rank_hi).
Block = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class IntSet:
    """A strictly increasing tuple of integers; its id is its 1-based position."""

    elements: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class SetCollection:
    """k sorted sets over universe {1..u}; set ids are 1-based."""

    sets: tuple[IntSet, ...]
    universe: int

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def total_size(self) -> int:
        return sum(len(s) for s in self.sets)

    def set(self, i: int) -> IntSet:
        if not 1 <= i <= len(self.sets):
            raise FormatError(f"set index {i} out of range 1..{len(self.sets)}")
        return self.sets[i - 1]


def code_type(count: int) -> str:
    """The ``array`` (and numpy) typecode of codes into ``count`` distinct
    values: 'i', int32, unless there are more than 2^31 - 1 of them, 'q'."""
    return "i" if count < 1 << 31 else "q"


class SlicedSets:
    """k sorted element tuples, each made from int codes on first read.

    ``ints`` is one tuple of the sets' distinct values, ascending, one int
    object per value, and every int is some set's value, so ``ints[0]``
    and ``ints[-1]`` are the least and the greatest element. ``codes`` is
    an ``array`` of ``code_type(len(ints))`` holding every set's elements
    in set order as indexes into ``ints``;
    ``ends`` is an ``array('q')``. Set t (from 0) is the values of
    ``codes[ends[t - 1]:ends[t]]``, with 0 before set 0. Neither array
    holds an object, so the cyclic collector walks a level of any size as
    two arrays and the one ``ints`` tuple. A read makes the set once, as
    an ``itemgetter`` over ``ints``, and keeps it in ``rows``, a plain
    list that holds None for a set not yet read: a caller on a hot path
    reads ``rows`` and falls back to indexing the sequence on None, so a
    filled read is one list lookup. A one-element set shares one tuple per
    value, and an empty set is ``()``. Every tuple holds ``ints``'
    objects. Two threads that read an unread set at once may each make
    it, but a lock around the store of a larger set keeps only the first
    tuple stored, and both return it.

    ``len``, indexing, iteration, ``==`` against a list and ``repr``
    behave as the list of tuples would; iterating or comparing fills every
    set. ``sizes`` reads the sizes off ``ends`` as an int64 array and
    fills none; ``filled`` counts the sets read so far.
    """

    __slots__ = ("codes", "ends", "ints", "rows", "_ones", "_lock")

    def __init__(self, codes: array, ends: array, ints: tuple[int, ...]):
        self.codes = codes
        self.ends = ends
        self.ints = ints
        self.rows: list = [None] * len(ends)
        self._ones: dict[int, tuple[int]] = {}
        self._lock = Lock()

    def __getitem__(self, t):
        rows = self.rows
        s = rows[t]
        if s is None:
            if t < 0:
                t += len(rows)
            ends = self.ends
            lo, hi = ends[t - 1] if t else 0, ends[t]
            # An empty set and a one-element set's shared tuple are the same
            # object whichever thread makes them, so either store keeps it.
            if hi - lo == 1:
                v = self.ints[self.codes[lo]]
                rows[t] = s = self._ones.setdefault(v, (v,))
                return s
            if hi == lo:
                rows[t] = ()
                return ()
            s = itemgetter(*self.codes[lo:hi])(self.ints)
            # Two threads may make a larger set at once: the first tuple
            # stored is kept, and both return it. A ``with`` block would
            # cost twice these two calls.
            lock = self._lock
            lock.acquire()
            try:
                if rows[t] is None:
                    rows[t] = s
                return rows[t]
            finally:
                lock.release()
        if type(t) is slice:
            return [self[x] for x in range(*t.indices(len(self.rows)))]
        return s

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rows)))

    def __eq__(self, other):
        if isinstance(other, (list, SlicedSets)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return repr(list(self))

    def filled(self) -> int:
        """The number of sets read so far."""
        return len(self.rows) - self.rows.count(None)

    def sizes(self) -> np.ndarray:
        return np.diff(np.frombuffer(self.ends, np.int64), prepend=0)


def set_sizes(sets: Sequence[tuple[int, ...]]) -> np.ndarray:
    """Each set's size, in one int64 array: a ``SlicedSets`` reads them off
    its ends without making a set, any other sequence is asked ``len`` of
    each set at C speed. The instance and backend accounting read sums,
    maxima and masks of this array, with no Python loop over the sets."""
    if isinstance(sets, SlicedSets):
        return sets.sizes()
    return np.array(list(map(len, sets)), dtype=np.int64)


def value_range(sets: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
    """(least first element, greatest last element) over the non-empty
    sorted sets, or None when every set is empty (or there is none). Each
    set is sorted, so its ends bound it: two passes of ``min`` and ``max``
    over ``itemgetter`` maps, at C speed, read two elements per set and
    build no list. Values past int64 are read as the Python ints they are.
    A ``SlicedSets``'s ``ints`` are its sets' distinct values, ascending,
    so its range is their first and last, read with no set made.
    """
    if isinstance(sets, SlicedSets):
        ints = sets.ints
        return (ints[0], ints[-1]) if ints else None
    low = min(map(itemgetter(0), filter(None, sets)), default=None)
    if low is None:
        return None
    return low, max(map(itemgetter(-1), filter(None, sets)))


def ingest_collection(raw: list[list[int]], u: int) -> SetCollection:
    """Sort, dedupe and validate raw sets against universe {1..u}."""
    if u < 1:
        raise GuardError(f"universe size must be >= 1, got {u}")
    if u > MAX_UNIVERSE:
        raise GuardError(f"universe size {u} exceeds the 2^40 guard")
    sets = []
    for idx, values in enumerate(raw, start=1):
        if not values:
            raise FormatError(f"set {idx} is empty")
        for v in values:
            if not 1 <= v <= u:
                raise FormatError(f"set {idx}: value {v} outside universe 1..{u}")
        sets.append(IntSet(tuple(sorted(set(values)))))
    return SetCollection(sets=tuple(sets), universe=u)


def level_starts(m: int) -> list[int]:
    """Block (j, kappa) of m is number level_starts(m)[j] + kappa, from 0, in the
    level-major order of dyadic_subsets (level j holds m >> j blocks); the
    last entry is the number of blocks."""
    starts = [0]
    for j in range(m.bit_length()):
        starts.append(starts[-1] + (m >> j))
    return starts


def max_cover_blocks(m: int) -> int:
    """Upper bound 2*ceil(log2 m) + 1 on the size of any greedy dyadic cover."""
    return 2 * max(m - 1, 0).bit_length() + 1


def cover_blocks(lo: int, hi: int) -> list[Block]:
    """Greedy left-to-right dyadic cover of ranks [lo, hi] on the absolute grid.

    At rank r takes the largest block aligned at r (r = kappa*2^j + 1) that
    still fits inside [lo, hi]. Returns (level, block, rank_lo, rank_hi)
    tuples in rank order; [] when lo > hi.
    """
    out = []
    r = lo
    while r <= hi:
        fit = (hi - r + 1).bit_length() - 1
        align = ((r - 1) & -(r - 1)).bit_length() - 1 if r > 1 else fit
        j = min(fit, align)
        out.append((j, (r - 1) >> j, r, r + (1 << j) - 1))
        r += 1 << j
    return out


def dyadic_subsets(elements: tuple[int, ...], lowest: int) -> list[tuple[int, ...]]:
    """The dyadic rank blocks of a sorted set from level ``lowest`` up, as
    slices of its tuple, in the level-major order of ``level_starts``."""
    m = len(elements)
    out = []
    for j in range(lowest, m.bit_length()):
        size = 1 << j
        out.extend(elements[lo : lo + size] for lo in range(0, (m >> j) << j, size))
    return out


def parse_collection(text: str) -> SetCollection:
    """Parse the set-collection text format: first line "u k", then one set per line.

    Parsing is strict: exactly k set lines, integers only, no trailing tokens.
    """
    lines = text.splitlines()
    stripped = [ln.strip() for ln in lines]
    if not stripped or not stripped[0]:
        raise FormatError("missing header line 'u k'")
    head = stripped[0].split()
    if len(head) != 2:
        raise FormatError(f"header must be 'u k', got {stripped[0]!r}")
    try:
        u, k = int(head[0]), int(head[1])
    except ValueError as e:
        raise FormatError(f"bad header {stripped[0]!r}: {e}") from None
    if k < 1:
        raise FormatError(f"need at least one set, got k={k}")
    if len(stripped) < 1 + k:
        raise FormatError(f"expected {k} set lines, found {len(stripped) - 1}")
    for extra in stripped[1 + k:]:
        if extra:
            raise FormatError(f"trailing content after {k} set lines: {extra!r}")
    raw = []
    for idx in range(1, 1 + k):
        try:
            raw.append([int(tok) for tok in stripped[idx].split()])
        except ValueError as e:
            raise FormatError(f"set line {idx}: {e}") from None
    return ingest_collection(raw, u)


def format_collection(c: SetCollection) -> str:
    lines = [f"{c.universe} {c.k}"]
    lines.extend(" ".join(str(v) for v in s.elements) for s in c.sets)
    return "\n".join(lines) + "\n"
