"""Benchmark harness: build sizes, probe counters and query latency.

A bench spec is a JSON object with optional keys:

* ``"ssi"``: list of {"N", "u", "sizes"?, "k"?, "backend", "delta"?,
  "queries", "seed"} entries. Entries sharing N/u/sizes/seed reuse the
  same instance and query stream, so a delta grid measures the space/probe
  trade-off on identical inputs.
* ``"gapped_string"``: list of {"n", "sigma", "backend", "delta"?,
  "queries", "seed"} entries.

``"delta"`` applies only to the ``smalluniverse`` backend, the default of
an ``ssi`` entry; an entry that gives it with another backend is
malformed. Every record names its ``backend`` and ``delta`` (null for a
backend without one).

Each entry yields one line-delimited JSON record. A malformed spec raises
FormatError before the first record. Budget overruns are recorded in the
record, not fatal. An ``ssi`` record gives the nominal
``build_bytes`` (``SsiBackend.space_bytes``) and, beside it, the bytes its
tabulated pairs physically store (``table_bytes``) and the number of
tables stored (``table_pairs``: one per unordered pair of large sets).
Every record of a build gives, beside ``build_seconds``, the seconds of
it spent inside Python's cyclic collector (``build_gc_seconds``, timed
through ``gc.callbacks``). A ``gapped_string`` record gives the same two table
fields for its exact instance and the number of quotient levels its
index built (``levels``: levels 2 up to the manifest's ``levels``). It
times its query stream in three passes in ``report`` mode and then three
in ``exists`` mode. The first pass of each gives the counts and the time
that earlier records give: ``occ_total``, ``base_ssi_calls`` and
``query_us`` for ``report``; ``exists_yes`` (the YES answers),
``exists_ssi_calls`` and ``exists_query_us`` for ``exists``. The first
pass also makes the interval and quotient sets it reads, so the median
of passes 2 and 3 is given apart, as ``rest_query_us`` and
``rest_exists_query_us``.
``exact_sets_read`` counts the interval sets the six passes made, and
``level_sets_read`` the quotient sets: a build makes neither.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from typing import Iterator

from .backends import DEFAULT_MEM_BUDGET, BackendKind, build_backend, parse_backend
from .errors import BudgetError, FormatError
from .generators import random_collection, random_pattern_from, random_text
from .textindex import GappedStringIndex, build_gapped_string_index


# Per entry kind: the default backend and the least value of each integer
# key. "N", "u" and "n" are required, but an "ssi" entry with "sizes" needs
# no "N".
_ENTRY_KEYS = {
    "ssi": ("smalluniverse", {"N": 1, "u": 1, "k": 1, "queries": 0, "seed": -math.inf}),
    "gapped_string": ("linear", {"n": 1, "sigma": 1, "queries": 0, "seed": -math.inf}),
}


def _backend(entry: dict, kind: str) -> BackendKind:
    backend, delta = entry.get("backend", _ENTRY_KEYS[kind][0]), entry.get("delta", 0.5)
    if "delta" in entry and backend != "smalluniverse":
        raise FormatError(f"bench {kind} entry: 'delta' applies only to backend"
                          f" 'smalluniverse', not {backend!r}")
    try:
        return parse_backend(backend, delta)
    except (TypeError, ValueError) as e:
        raise FormatError(f"bench {kind} entry, backend {backend!r} with delta {delta!r}:"
                          f" {e}") from None


def _check_spec(spec) -> None:
    """Raise FormatError unless spec is an object whose entries are objects
    with their required integers and a backend ``parse_backend`` accepts,
    given a ``delta`` only when it is ``smalluniverse``."""
    if not isinstance(spec, dict):
        raise FormatError(f"bench spec must be a JSON object, got {type(spec).__name__}")
    for kind, (_, least) in _ENTRY_KEYS.items():
        entries = spec.get(kind, [])
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise FormatError(f"bench spec {kind!r} must be a list of objects")
        for entry in entries:
            pairs = entry.get("sizes", []) if kind == "ssi" else []
            if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and all(type(x) is int and x >= 1 for x in p)
                for p in pairs
            ):
                raise FormatError("bench ssi entry: 'sizes' must be [[count, size], ...], all >= 1")
            for key, low in least.items():
                if key not in entry:
                    if key in ("N", "u", "n") and not (key == "N" and pairs):
                        raise FormatError(f"bench {kind} entry needs the integer {key!r}")
                elif type(entry[key]) is not int or entry[key] < low:
                    bound = f" >= {low}" if low > -math.inf else ""
                    raise FormatError(f"bench {kind} entry: {key!r} must be an integer{bound}")
            _backend(entry, kind)


def _ssi_record(entry: dict, mem_budget: int) -> dict:
    seed = entry.get("seed", 0)
    u = entry["u"]
    # [[count, size], ...] pairs, e.g. [[20, 40], [20, 460]].
    sizes = [size for count, size in entry.get("sizes", ()) for _ in range(count)]
    k = len(sizes) if sizes else entry.get("k", 8)
    total = sum(sizes) if sizes else entry["N"]
    rng = random.Random(seed)
    collection = random_collection(rng, k, total, u, sizes or None)
    kind = _backend(entry, "ssi")
    record = {
        "kind": "ssi",
        "N": collection.total_size,
        "k": collection.k,
        "u": u,
        "backend": kind.name,
        "delta": getattr(kind, "delta", None),
        "seed": seed,
    }
    started = time.perf_counter()
    try:
        with _CollectorClock() as collector:
            backend = build_backend(collection, kind, mem_budget)
    except BudgetError as e:
        record["error"] = str(e)
        return record
    record["build_seconds"] = round(time.perf_counter() - started, 6)
    record["build_gc_seconds"] = round(collector.seconds, 6)
    record["build_bytes"] = backend.space_bytes()
    record["table_bytes"] = backend.table.nbytes
    record["table_pairs"] = backend.table.pairs
    queries = entry.get("queries", 1000)
    qrng = random.Random(seed + 1)
    plan = [
        (qrng.randint(1, collection.k), qrng.randint(1, collection.k), qrng.randint(-u, u))
        for _ in range(queries)
    ]
    started = time.perf_counter()
    hits = 0
    for i, j, s in plan:
        if backend.exists(i, j, s) is not None:
            hits += 1
    elapsed = time.perf_counter() - started
    record["queries"] = queries
    record["hits"] = hits
    record["probes_total"] = backend.probes
    record["probes_per_query"] = round(backend.probes / max(queries, 1), 3)
    record["query_us"] = round(elapsed / max(queries, 1) * 1e6, 3)
    return record


class _CollectorClock:
    """Seconds spent inside the cyclic collector while entered."""

    def __init__(self):
        self.seconds = 0.0
        self.started = 0.0

    def _tick(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self.started

    def __enter__(self) -> "_CollectorClock":
        gc.callbacks.append(self._tick)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._tick)


def _gapped_string_record(entry: dict, mem_budget: int) -> dict:
    seed = entry.get("seed", 0)
    n = entry["n"]
    sigma = entry.get("sigma", 4)
    rng = random.Random(seed)
    text = random_text(rng, n, sigma)
    kind = _backend(entry, "gapped_string")
    record = {
        "kind": "gapped-string",
        "n": n,
        "sigma": sigma,
        "backend": kind.name,
        "delta": getattr(kind, "delta", None),
        "seed": seed,
    }
    started = time.perf_counter()
    try:
        with _CollectorClock() as collector:
            index = build_gapped_string_index(text, kind, mem_budget)
    except BudgetError as e:
        record["error"] = str(e)
        return record
    record["build_seconds"] = round(time.perf_counter() - started, 6)
    record["build_gc_seconds"] = round(collector.seconds, 6)
    table = index.gapped.exact.backend.table
    record["table_pairs"], record["table_bytes"] = table.pairs, table.nbytes
    record["levels"] = len(index.gapped.levels)
    record["set_elements"] = index.set_elements
    record["stored_elements"] = index.gapped.total_elements
    queries = entry.get("queries", 20)
    stream = []
    for _ in range(queries):
        p1 = random_pattern_from(rng, text, 5)
        p2 = random_pattern_from(rng, text, 5)
        lo = rng.randint(0, n // 2)
        stream.append((p1, p2, lo, lo + rng.randint(0, n // 2)))
    # Each report leaves its largest multiplicity, read as it is scored.
    multiplicity = 0

    def occurrences(pairs: list) -> int:
        nonlocal multiplicity
        multiplicity = max(multiplicity, index.gapped.last_max_multiplicity)
        return len(pairs)

    occ, calls, query_us, rest_us = _passes(index, stream, index.report, occurrences)
    record["queries"] = queries
    record["occ_total"] = occ
    record["base_ssi_calls"] = calls
    record["dedup_max_multiplicity"] = multiplicity
    record["query_us"] = query_us
    record["rest_query_us"] = rest_us
    yes, calls, query_us, rest_us = _passes(index, stream, index.exists,
                                            lambda hit: hit is not None)
    record["exists_yes"] = yes
    record["exists_ssi_calls"] = calls
    record["exists_query_us"] = query_us
    record["rest_exists_query_us"] = rest_us
    record["exact_sets_read"] = index.gapped.exact.base.filled()
    record["level_sets_read"] = sum(lvl.instance.base.filled() for lvl in index.gapped.levels)
    return record


def _passes(index: GappedStringIndex, stream: list, ask, score) -> tuple[int, int, float, float]:
    """Three ``_timed`` passes: the first's score, SSI calls and µs per
    query, and the median µs per query of the other two."""
    first = _timed(index, stream, ask, score)
    rest = [_timed(index, stream, ask, score)[2] for _ in range(2)]
    return (*first, round(statistics.median(rest), 3))


def _timed(index: GappedStringIndex, stream: list, ask, score) -> tuple[int, int, float]:
    """One timed pass of ``ask`` over the stream: the sum of ``score`` over
    its answers, the SSI calls it made and its µs per query."""
    total = 0
    calls = index.ssi_calls()
    started = time.perf_counter()
    for query in stream:
        total += score(ask(*query))
    elapsed = time.perf_counter() - started
    return total, index.ssi_calls() - calls, round(elapsed / max(len(stream), 1) * 1e6, 3)


def run_bench(spec: dict, mem_budget: int = DEFAULT_MEM_BUDGET) -> Iterator[dict]:
    """Yield one record per spec entry; an empty spec yields nothing. The
    whole spec is checked before the first record."""
    _check_spec(spec)
    for entry in spec.get("ssi", []):
        yield _ssi_record(entry, mem_budget)
    for entry in spec.get("gapped_string", []):
        yield _gapped_string_record(entry, mem_budget)
