"""Pinned counters over small fixed query streams.

Each stream runs exists and report queries against one gapped index and
records, per query, the answer, the SSI calls and backend probes it spent,
and the plan size, raw pairs and largest multiplicity it left behind. The
totals and a digest of the per-query records are pinned, so a change to how
a pair is routed or counted shows here even when every answer stays right.
The string stream's pin moved from 1562 to 1526 SSI calls when a report
stopped scanning cover pairs whose difference range misses the gap: each
such pass walked no element, so the probes and every answer stayed the same.
The set stream's digests moved when an exists without a plan began to ask
its point shifts before planning the rest: ``last_plan_size`` became the
number of points when a point answers and 0 when the pair's difference
range misses the gap, while the calls, probes, raw pairs and every answer
stayed the same. Every pin moved when a plan began to ask level 1's shifts
as exact probes, each once, with every answer the same: the set stream's
calls 141 -> 117 (``linear``), 1147 -> 1012 (``smalluniverse``) and
3398 -> 3176 (``fulltab``) and raw pairs 1567 -> 1517, the string
stream's calls 1526 -> 928, probes 55063 -> 44372 and raw pairs
19137 -> 18636. The string digest also records a report's plan size and
largest multiplicity, which since then describe the whole query.
"""

import hashlib
import random

import pytest

from gapindex import textindex
from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.gapped import build_gapped_index, gapped_exists, gapped_report
from gapindex.generators import random_collection, random_pattern_from, random_text
from gapindex.textindex import build_gapped_string_index


def _probes(g) -> int:
    return sum(inst.backend.probes for inst in [g.exact] + [lvl.instance for lvl in g.levels])


def _run(g, queries, ask) -> tuple[int, int, int, str]:
    """Total SSI calls, probes and raw pairs, and a digest of every query's record.

    ``ask(mode, *args)`` returns the answer and the raw pairs it gathered.
    """
    records = []
    raw_total = 0
    for mode, *args in queries:
        calls, probes = g.ssi_calls(), _probes(g)
        answer, raw = ask(mode, *args)
        raw_total += raw
        records.append((mode, args, answer, g.ssi_calls() - calls, _probes(g) - probes,
                        g.last_plan_size, raw, g.last_max_multiplicity))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()[:16]
    return g.ssi_calls(), _probes(g), raw_total, digest


def _set_stream(rng, c, count):
    out = []
    for t in range(count):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        lo = rng.randint(0, c.universe // 4)
        out.append(("exists" if t % 2 else "report", i, j, lo, lo + rng.randint(0, c.universe // 2)))
    return out


@pytest.mark.parametrize("kind, expected", [
    (LinearScan(), (117, 5815, 1517, "1ad258b0b7e55e99")),
    (SmallUniverse(0.5), (1012, 4911, 1517, "2e308d9a6855d58a")),
    (FullTabulation(), (3176, 0, 1517, "c662ac0c01d06bd8")),
])
def test_gapped_set_counters_are_pinned(kind, expected):
    rng = random.Random(14)
    c = random_collection(rng, 6, 92, 256, [4, 4, 4, 24, 24, 32])
    g = build_gapped_index(c, kind)
    queries = _set_stream(rng, c, 60)

    def ask(mode, i, j, lo, hi):
        if mode == "exists":
            return gapped_exists(g, i, j, lo, hi), 0
        return gapped_report(g, i, j, lo, hi), g.last_raw_pairs

    assert _run(g, queries, ask) == expected


def test_gapped_string_counters_are_pinned(monkeypatch):
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

    def ask(mode, p1, p2, lo, hi):
        if mode == "exists":
            return idx.exists(p1, p2, lo, hi), 0
        raw[0] = 0
        pairs = idx.report(p1, p2, lo, hi)
        assert idx.gapped.last_raw_pairs == raw[0]
        return pairs, raw[0]

    assert _run(idx.gapped, queries, ask) == (928, 44372, 18636, "fd5d658517644006")
