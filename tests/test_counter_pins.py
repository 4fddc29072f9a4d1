"""Pinned counters over small fixed query streams.

Each stream runs exists and report queries against one gapped index, and
``tools/digest.py``'s recorder takes, per query, the answer, the SSI calls
and backend probes it spent, and the plan size, raw pairs and largest
multiplicity it left behind (0 for a counter the query does not set).
Each stream's pin in ``tests/pins/`` holds those rows, so a change to how
a pair is routed or counted shows here even when every answer stays
right.
"""

import random

import digest
import pytest

from gapindex import textindex
from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.gapped import build_gapped_index, gapped_exists, gapped_report
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.textindex import build_gapped_string_index


def pin_stream(g, call, queries) -> str:
    """The pin of ``queries`` asked through ``call``, counted on the gapped
    index ``g``."""
    augmented = [g.exact] + [lvl.instance for lvl in g.levels]
    return digest.pin(*digest.record(call, queries, augmented, [g]))


def _set_stream(rng, c, count):
    out = []
    for t in range(count):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        lo = rng.randint(0, c.universe // 4)
        out.append(("exists" if t % 2 else "report", i, j, lo, lo + rng.randint(0, c.universe // 2)))
    return out


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(0.5), FullTabulation()],
                         ids=lambda kind: kind.name)
def test_gapped_set_counters_are_pinned(kind, pin):
    rng = random.Random(14)
    c = random_collection(rng, 6, 92, 256, [4, 4, 4, 24, 24, 32])
    g = build_gapped_index(c, kind)

    def call(q):
        mode, i, j, lo, hi = q
        if mode == "exists":
            return gapped_exists(g, i, j, lo, hi)
        return gapped_report(g, i, j, lo, hi)

    pin(f"counters-set-{kind.name}", pin_stream(g, call, _set_stream(rng, c, 60)))


def test_gapped_string_counters_are_pinned(pin, monkeypatch):
    rng = random.Random(14)
    text = random_text(rng, 300, 3)
    idx = build_gapped_string_index(text, LinearScan())
    queries = []
    for t in range(60):
        lo = rng.randint(0, 60)
        queries.append(("exists" if t % 2 else "report", random_pattern_from(rng, text, 3),
                        random_pattern_from(rng, text, 3), lo, lo + rng.randint(0, 120)))

    # A string report asks one gapped report per cover pair and leaves
    # their raw pairs summed; sum them here too.
    raw = [0]

    def counted_report(g, *args, **kwargs):
        pairs = gapped_report(g, *args, **kwargs)
        raw[0] += g.last_raw_pairs
        return pairs

    monkeypatch.setattr(textindex, "gapped_report", counted_report)

    def call(q):
        mode, p1, p2, lo, hi = q
        if mode == "exists":
            return idx.exists(p1, p2, lo, hi)
        raw[0] = 0
        pairs = idx.report(p1, p2, lo, hi)
        assert idx.gapped.last_raw_pairs == raw[0]
        return pairs

    pin("counters-string", pin_stream(idx.gapped, call, queries))
