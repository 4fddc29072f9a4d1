"""Oracle-equivalence suites behind the `verify` command.

Each suite replays seeded random queries against the loaded artifact and an
independent brute-force answer; the first mismatch is reported verbatim so
a failure is immediately reproducible. The ssi suite checks each trial on
both structures that ``gapindex query`` answers from: the backend's
``exists`` and the reporting index's ``report_shift``. The gapped suites
also check that each trial's exists witness is one of the reported pairs,
or None when there are none.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

from .backends import ShiftQuery, brute_force_ssi
from .gapped import gapped_exists, gapped_report
from .jumbled import histogram, sliding_window_matches
from .persist import (
    Artifact,
    make_backend,
    make_gapped_index,
    make_jumbled_index,
    make_reporting_index,
    make_shift_index,
    make_string_index,
)
from .reporting import report_shift
from .smallest_shift import smallest_shift
from .textindex import baseline_linear_scan


def _fail(lines: list[str], query: str, expected, got) -> tuple[bool, list[str]]:
    lines.append(f"FAIL query {query}")
    lines.append(f"  expected {expected!r}")
    lines.append(f"  got      {got!r}")
    return False, lines


def _exists_agrees(hit, expected: list) -> bool:
    """exists says None exactly when report finds nothing, else one reported pair."""
    return hit in expected if expected else hit is None


def verify_artifact(artifact: Artifact, trials: int, seed: int) -> tuple[bool, list[str]]:
    rng = random.Random(seed)
    lines = [f"verify kind={artifact.kind} trials={trials} seed={seed}"]
    checker = {
        "ssi": _verify_ssi,
        "gapped-set": _verify_gapped_set,
        "gapped-string": _verify_gapped_string,
        "jumbled": _verify_jumbled,
        "smallest-shift": _verify_smallest_shift,
    }[artifact.kind]
    ok, lines = checker(artifact, trials, rng, lines)
    lines.append("ok" if ok else "FAILED")
    return ok, lines


def _verify_ssi(artifact, trials, rng, lines):
    c = artifact.collection
    backend = make_backend(artifact)
    index = make_reporting_index(artifact)
    for _ in range(trials):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        s = rng.randint(-c.universe, c.universe)
        q = ShiftQuery(i, j, s)
        expected = brute_force_ssi(c, q)
        cert = backend.exists(i, j, s)
        if (cert is not None) != bool(expected):
            return _fail(lines, f"{i} {j} {s}", bool(expected), cert)
        if cert is not None and (cert.a, cert.b) != expected[0]:
            return _fail(lines, f"{i} {j} {s}", expected[0], (cert.a, cert.b))
        got = report_shift(index, i, j, s)
        if got != expected:
            return _fail(lines, f"{i} {j} {s}", expected, got)
    return True, lines


def _verify_gapped_set(artifact, trials, rng, lines):
    c = artifact.collection
    index = make_gapped_index(artifact)
    for _ in range(trials):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        lo = rng.randint(0, c.universe)
        hi = min(c.universe, lo + rng.randint(0, c.universe // 2 + 1))
        sa, sb = c.set(i).elements, c.set(j).elements
        # Each a's partners are the run of sb within [a + lo, a + hi].
        expected = [
            (a, b) for a in sa for b in sb[bisect_left(sb, a + lo) : bisect_right(sb, a + hi)]
        ]
        got = gapped_report(index, i, j, lo, hi)
        if got != expected:
            return _fail(lines, f"{i} {j} {lo} {hi}", expected, got)
        hit = gapped_exists(index, i, j, lo, hi)
        if not _exists_agrees(hit, expected):
            return _fail(lines, f"exists {i} {j} {lo} {hi}", expected or None, hit)
    return True, lines


def _verify_gapped_string(artifact, trials, rng, lines):
    index = make_string_index(artifact)
    text = artifact.text
    n = len(text)
    for _ in range(trials):
        length1 = rng.randint(1, min(6, n))
        length2 = rng.randint(1, min(6, n))
        start1 = rng.randint(0, n - length1)
        start2 = rng.randint(0, n - length2)
        p1 = text[start1 : start1 + length1]
        p2 = text[start2 : start2 + length2]
        lo = rng.randint(0, n)
        hi = min(n, lo + rng.randint(0, n // 2 + 1))
        expected = baseline_linear_scan(text, p1, p2, lo, hi)
        got = index.report(p1, p2, lo, hi)
        if got != expected:
            return _fail(lines, f"{p1!r} {p2!r} {lo} {hi}", expected, got)
        hit = index.exists(p1, p2, lo, hi)
        if not _exists_agrees(hit, expected):
            return _fail(lines, f"exists {p1!r} {p2!r} {lo} {hi}", expected or None, hit)
    return True, lines


def _verify_jumbled(artifact, trials, rng, lines):
    index = make_jumbled_index(artifact)
    text = artifact.text
    n = len(text)
    for _ in range(trials):
        if rng.random() < 0.8:
            length = rng.randint(1, n)
            start = rng.randint(0, n - length)
            pattern = list(histogram(text[start : start + length], index.alphabet))
        else:
            pattern = [rng.randint(0, max(1, n // 2)) for _ in range(index.sigma)]
        expected = sliding_window_matches(text, index.alphabet, pattern)
        got = index.report(pattern)
        if got != expected:
            return _fail(lines, " ".join(map(str, pattern)), expected, got)
        if index.exists(pattern) != bool(expected):
            return _fail(lines, " ".join(map(str, pattern)), bool(expected), index.exists(pattern))
    return True, lines


def _verify_smallest_shift(artifact, trials, rng, lines):
    c = artifact.collection
    index = make_shift_index(artifact)
    for _ in range(trials):
        i, j = rng.randint(1, c.k), rng.randint(1, c.k)
        diffs = [
            b - a for a in c.set(i).elements for b in c.set(j).elements if b >= a
        ]
        expected = min(diffs) if diffs else None
        got = smallest_shift(index, i, j)
        if got != expected:
            return _fail(lines, f"{i} {j}", expected, got)
    return True, lines
