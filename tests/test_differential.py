"""Every artifact kind answers alike in memory, after a container round
trip, and by its in-repo oracle.

For each kind and each backend the kind takes, hypothesis draws a small
input and a few queries. The in-memory structure is built straight from
the input; the loaded one goes through ``build_artifact``,
``save_artifact``, ``load_artifact`` and the ``make_*`` the CLI uses. Both
must give the same answers, in exists and in report mode, and those must
match the oracle: ``brute_force_ssi``, every pair of two sets,
``baseline_linear_scan``, ``sliding_window_matches`` or the smallest
nonnegative difference. An exists answer must be the oracle's first pair
(ssi), one of its pairs (gapped), or its truth value (jumbled).
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapindex.backends import (
    FullTabulation,
    LinearScan,
    ShiftQuery,
    SmallUniverse,
    brute_force_ssi,
    build_backend,
)
from gapindex.gapped import build_gapped_index, gapped_exists, gapped_report
from gapindex.jumbled import build_jumbled_index, histogram, sliding_window_matches
from gapindex.persist import (
    build_artifact,
    load_artifact,
    make_backend,
    make_gapped_index,
    make_jumbled_index,
    make_reporting_index,
    make_shift_index,
    make_string_index,
    save_artifact,
)
from gapindex.reporting import build_reporting_index, report_shift
from gapindex.sets import format_collection, ingest_collection
from gapindex.smallest_shift import build_smallest_shift, smallest_shift
from gapindex.textindex import baseline_linear_scan, build_gapped_string_index

BACKENDS = (LinearScan(), FullTabulation(), SmallUniverse(0.5))
CASES = [(kind, backend) for kind in ("ssi", "gapped-set", "gapped-string", "jumbled")
         for backend in BACKENDS] + [("smallest-shift", LinearScan())]
QUERIES = 4


def _loaded(kind, source, backend):
    artifact = build_artifact(kind, source, backend)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.gidx")
        save_artifact(path, artifact)
        return load_artifact(path)


def _collection(data):
    u = data.draw(st.integers(1, 64), label="u")
    raw = data.draw(st.lists(st.lists(st.integers(1, u), min_size=1, max_size=6),
                             min_size=1, max_size=6), label="sets")
    return ingest_collection(raw, u)


def _text(data, backend):
    # FullTabulation stores every pair of dyadic blocks: short texts only.
    longest = 12 if isinstance(backend, FullTabulation) else 60
    letters = data.draw(st.sampled_from(("ab", "abc", "abcd")), label="alphabet")
    return data.draw(st.text(letters, min_size=1, max_size=longest), label="text").encode()


def _pattern(data, text):
    if data.draw(st.booleans()):
        start = data.draw(st.integers(0, len(text) - 1))
        return text[start : start + data.draw(st.integers(1, 3))]
    return data.draw(st.text("abcd", min_size=1, max_size=3)).encode()


def _pairs(sa, sb, lo, hi):
    return sorted((a, b) for a in sa for b in sb if lo <= b - a <= hi)


def _ssi(backend, data):
    c = _collection(data)
    loaded = _loaded("ssi", format_collection(c).encode(), backend)
    probes = (build_backend(c, backend), make_backend(loaded))
    reporters = (build_reporting_index(c, backend), make_reporting_index(loaded))
    for _ in range(QUERIES):
        q = ShiftQuery(data.draw(st.integers(1, c.k)), data.draw(st.integers(1, c.k)),
                       data.draw(st.integers(-c.universe, c.universe)))
        expected = brute_force_ssi(c, q)
        for index in probes:
            cert = index.exists(q.i, q.j, q.s)
            assert (None if cert is None else (cert.a, cert.b)) == (expected or [None])[0]
        for index in reporters:
            assert report_shift(index, q.i, q.j, q.s) == expected


def _gapped_set(backend, data):
    c = _collection(data)
    loaded = _loaded("gapped-set", format_collection(c).encode(), backend)
    indexes = (build_gapped_index(c, backend), make_gapped_index(loaded))
    for _ in range(QUERIES):
        i, j = data.draw(st.integers(1, c.k)), data.draw(st.integers(1, c.k))
        lo = data.draw(st.integers(0, c.universe))
        hi = lo + data.draw(st.integers(0, c.universe))
        expected = _pairs(c.set(i).elements, c.set(j).elements, lo, hi)
        hits = [gapped_exists(g, i, j, lo, hi) for g in indexes]
        assert hits[0] == hits[1]
        assert hits[0] in expected if expected else hits[0] is None
        assert [gapped_report(g, i, j, lo, hi) for g in indexes] == [expected] * 2


def _gapped_string(backend, data):
    text = _text(data, backend)
    indexes = (build_gapped_string_index(text, backend),
               make_string_index(_loaded("gapped-string", text, backend)))
    n = len(text)
    for _ in range(QUERIES):
        p1, p2 = _pattern(data, text), _pattern(data, text)
        lo = data.draw(st.integers(0, n))
        hi = lo + data.draw(st.integers(0, n))
        expected = baseline_linear_scan(text, p1, p2, lo, hi)
        hits = [idx.exists(p1, p2, lo, hi) for idx in indexes]
        assert hits[0] == hits[1]
        assert hits[0] in expected if expected else hits[0] is None
        assert [idx.report(p1, p2, lo, hi) for idx in indexes] == [expected] * 2


def _jumbled(backend, data):
    text = _text(data, backend)
    alphabet = sorted(set(text))
    indexes = (build_jumbled_index(text, alphabet, backend),
               make_jumbled_index(_loaded("jumbled", text, backend)))
    n = len(text)
    for _ in range(QUERIES):
        if data.draw(st.booleans()):
            start = data.draw(st.integers(0, n - 1))
            window = text[start : start + data.draw(st.integers(1, n - start))]
            pattern = list(histogram(window, alphabet))
        else:
            pattern = data.draw(st.lists(st.integers(0, n // 2 + 1), min_size=len(alphabet),
                                         max_size=len(alphabet)))
        expected = sliding_window_matches(text, alphabet, pattern)
        assert [idx.exists(pattern) for idx in indexes] == [bool(expected)] * 2
        assert [idx.report(pattern) for idx in indexes] == [expected] * 2


def _smallest_shift(backend, data):
    c = _collection(data)
    indexes = (build_smallest_shift(c),
               make_shift_index(_loaded("smallest-shift", format_collection(c).encode(), backend)))
    for _ in range(QUERIES):
        i, j = data.draw(st.integers(1, c.k)), data.draw(st.integers(1, c.k))
        diffs = [b - a for a in c.set(i).elements for b in c.set(j).elements if b >= a]
        expected = min(diffs) if diffs else None
        assert [smallest_shift(idx, i, j) for idx in indexes] == [expected] * 2


CHECKS = {
    "ssi": _ssi,
    "gapped-set": _gapped_set,
    "gapped-string": _gapped_string,
    "jumbled": _jumbled,
    "smallest-shift": _smallest_shift,
}


@pytest.mark.parametrize("kind, backend", CASES, ids=[f"{k}-{b.name}" for k, b in CASES])
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_kind_agrees_in_memory_after_a_round_trip_and_with_its_oracle(kind, backend, data):
    CHECKS[kind](backend, data)
