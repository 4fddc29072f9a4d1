#!/usr/bin/env python3
"""Reporting every witness pair via dyadic splitting.

A tabulating backend returns one pair per lookup. To report all of them,
the index also stores the dyadic rank blocks it can look up. Each found
witness splits the search into strictly-smaller and strictly-larger
halves, the halves decompose into a logarithmic number of blocks, and only
block pairs whose shifted value ranges still overlap are visited again. A
pair the backend probes instead is reported by one scan of the smaller
side, so the linear backend stores no blocks at all.

A stored block is a slice of its set's tuple (``dyadic_subsets``) that
only the backend's tables keep: blocks are tabulated against blocks, never
against a set. A cover (``cover_blocks``) names blocks by rank range and
reads their values from the set itself.
"""

from gapindex import (
    FullTabulation,
    LinearScan,
    build_reporting_index,
    ingest_collection,
    report_3sum,
    report_shift,
)
from gapindex.sets import cover_blocks, dyadic_subsets, level_starts

values = [4, 9, 11, 15, 20, 26, 31, 40, 47, 52, 58, 63, 70]
collection = ingest_collection([values, [v + 7 for v in values[:9]] + [99, 104]], u=120)
s1 = collection.set(1).elements

# Level j holds len(s1) >> j blocks of 2^j elements, numbered from level_starts[j].
print("dyadic blocks of S_1 (rank ranges):")
blocks = dyadic_subsets(s1, 0)
starts = level_starts(len(s1))
for j in range(len(starts) - 1):
    for kappa in range(starts[j + 1] - starts[j]):
        block = blocks[starts[j] + kappa]
        lo = kappa * len(block) + 1
        print(f"  level {j} block {kappa}: ranks [{lo}, {lo + len(block) - 1}]"
              f" values [{block[0]}, {block[-1]}]")

print("\ncover of ranks [2, 11]:",
      [(lo, hi) for _, _, lo, hi in cover_blocks(2, 11)])

for kind in (FullTabulation(), LinearScan()):
    idx = build_reporting_index(collection, kind)
    print(f"\n{kind.name}: index holds", len(idx.base), "sets and",
          idx.backend.last_block - len(idx.base), "table-only blocks;",
          idx.total_elements, "elements counting every block",
          f"(base {idx.base_elements} + dyadic {idx.dyadic_elements})")

    pairs = report_shift(idx, 1, 2, 7)
    print("all pairs at shift 7:", pairs)
    print("backend calls spent:", idx.last_query_calls, "for", len(pairs), "pairs",
          f"({idx.existence_calls} lookups, {idx.backend.scans} scans so far)")

    pairs = report_shift(idx, 1, 2, 1)
    print("pairs at shift 1:", pairs, "- calls:", idx.last_query_calls)

# The same recursion powers 3SUM reporting: all unordered pairs summing to c.
print("\npairs in {1..10} summing to 11:", report_3sum(list(range(1, 11)), 11))
