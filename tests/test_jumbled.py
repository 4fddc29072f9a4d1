import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.errors import FormatError, GapIndexError, GuardError
from gapindex.generators import random_text
from gapindex.jumbled import (
    build_jumbled_index,
    encode_vector,
    histogram,
    sliding_window_matches,
)

from test_sorted_reads import _layouts


def test_histogram_example():
    assert histogram("acaacabd", "abcd") == (4, 1, 2, 1)


def test_histogram_empty():
    assert histogram("", "ab") == (0, 0)


def test_histogram_counts_sum_to_length():
    rng = random.Random(1)
    text = random_text(rng, 60, 3)
    alphabet = sorted(set(text))
    assert sum(histogram(text, alphabet)) == len(text)


def test_histogram_foreign_letter():
    with pytest.raises(FormatError):
        histogram("abz", "ab")


def test_encode_positional():
    assert encode_vector((1, 2), base=10, dim=2) == 21


def test_encode_additivity():
    v, w = (1, 2, 0), (3, 4, 1)
    total = tuple(a + b for a, b in zip(v, w))
    assert encode_vector(v, 10, 3) + encode_vector(w, 10, 3) == encode_vector(total, 10, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6), st.integers(31, 100))
def test_encode_decode_round_trip(coords, base):
    dim = len(coords)
    x, digits = encode_vector(coords, base, dim), []
    for _ in range(dim):
        x, digit = divmod(x, base)
        digits.append(digit)
    assert x == 0 and digits == coords


def test_encode_guard():
    with pytest.raises(GuardError, match="bits"):
        encode_vector([1] * 8, base=1 << 20, dim=8)
    # The encoding guard, not a cap on sigma, refuses 13 letters at n = 1000.
    text = random_text(random.Random(3), 1000, 13).decode()
    with pytest.raises(GuardError, match="bits"):
        build_jumbled_index(text, sorted(set(text)))


def test_index_sizes_and_tables():
    idx = build_jumbled_index("ab", "ab")
    assert len(idx.prefix_of) == 3 and len(idx.suffix_of) == 3
    # Decode tables invert the encodings.
    for enc, p in idx.prefix_of.items():
        assert encode_vector(histogram("ab"[:p], idx.alphabet), idx.base, idx.sigma) + 1 == enc
    for enc, q in idx.suffix_of.items():
        assert encode_vector(histogram("ab"[q - 1 :], idx.alphabet), idx.base, idx.sigma) + 1 == enc


def test_query_examples():
    idx = build_jumbled_index("ab", "ab")
    assert idx.report((1, 1)) == [(1, 2)]
    idx = build_jumbled_index("acaacabd", "abcd")
    assert idx.report((4, 1, 2, 1)) == [(1, 8)]
    assert idx.exists((4, 1, 2, 1)) is True


def test_query_negative_coordinate_is_immediate_no():
    idx = build_jumbled_index("ab", "ab")
    calls_before = idx.reporting.index.ssi_calls()
    assert idx.report((3, 0)) == []
    assert idx.exists((3, 0)) is False
    assert idx.reporting.index.ssi_calls() == calls_before


def test_query_zero_norm():
    idx = build_jumbled_index("ab", "ab")
    assert idx.report((0, 0)) == []
    assert idx.exists((0, 0)) is False


def test_query_dimension_check():
    idx = build_jumbled_index("ab", "ab")
    with pytest.raises(FormatError):
        idx.report((1,))


def test_nine_letter_alphabet_builds():
    text = "abcdefghi"
    idx = build_jumbled_index(text, text)
    assert idx.report((1,) * 9) == [(1, 9)]
    for i in range(9):
        for j in range(i + 1, 10):
            pattern = histogram(text[i:j], idx.alphabet)
            assert idx.report(pattern) == sliding_window_matches(text, text, pattern)


def test_fuzz_against_sliding_window():
    rng = random.Random(12)
    for _ in range(20):
        sigma = rng.randint(1, 4)
        text = random_text(rng, rng.randint(2, 120), sigma).decode()
        alphabet = sorted(set(text))
        idx = build_jumbled_index(text, alphabet)
        for _ in range(6):
            if rng.random() < 0.7:
                length = rng.randint(1, len(text))
                start = rng.randint(0, len(text) - length)
                pattern = histogram(text[start : start + length], idx.alphabet)
            else:
                pattern = tuple(rng.randint(0, 4) for _ in range(idx.sigma))
            expected = sliding_window_matches(text, idx.alphabet, pattern)
            got = idx.report(pattern)
            assert got == expected
            assert idx.exists(pattern) == bool(expected)
            for i, j in got:
                assert histogram(text[i - 1 : j], idx.alphabet) == tuple(pattern)


def test_decode_length_consistency():
    text = "acaacabd"
    idx = build_jumbled_index(text, "abcd")
    for pattern in [(1, 0, 0, 0), (2, 0, 1, 0), (4, 1, 2, 1)]:
        norm = sum(pattern)
        for i, j in idx.report(pattern):
            p, q = i - 1, j + 1
            assert p + norm + (idx.n - q + 1) == idx.n


def test_every_small_text_and_histogram_decodes_exactly():
    """Every reported pair decodes, for every text and every histogram the
    index asks about: no positional carry makes a false pair."""
    pairs = 0
    for sigma, max_n in ((2, 10), (3, 6), (4, 5)):
        alphabet = "abcd"[:sigma]
        for n in range(1, max_n + 1):
            for text in itertools.product(alphabet, repeat=n):
                idx = build_jumbled_index(text, alphabet)
                for pattern in itertools.product(*(range(c + 1) for c in idx.total)):
                    expected = sliding_window_matches(text, alphabet, pattern)
                    assert idx.report(pattern) == expected, (text, pattern)
                    assert idx.exists(pattern) == bool(expected), (text, pattern)
                    pairs += len(expected)
    assert pairs > 100_000


def test_jumbled_decode_guard_raises(monkeypatch):
    idx = build_jumbled_index("ab", "ab")
    assert idx.report((1, 0)) == [(1, 1)]
    prefix = {p: v for v, p in idx.prefix_of.items()}
    suffix = {q: v + 2 * idx.u_prime for v, q in idx.suffix_of.items()}
    monkeypatch.setattr(idx.reporting, "report", lambda c: [(prefix[0], prefix[1])])
    with pytest.raises(GapIndexError, match="not one prefix and one suffix"):
        idx.report((1, 0))
    # The empty prefix and the whole-string suffix frame nothing between them.
    monkeypatch.setattr(idx.reporting, "exists", lambda c: (prefix[0], suffix[1]))
    with pytest.raises(GapIndexError, match="do not frame a length-1 occurrence"):
        idx.exists((1, 0))


def test_reports_share_one_int_per_position():
    # Above 256 CPython makes a new int per sum; two reports of one pattern
    # must hand back the same objects for the same positions.
    text = random_text(random.Random(5), 600, 2).decode()
    idx = build_jumbled_index(text, "ab")
    pattern = (3, 2)
    first, second = idx.report(pattern), idx.report(pattern)
    assert first == second
    high = [(x, y) for p, q in zip(first, second) for x, y in zip(p, q) if x > 256]
    assert high and all(x is y for x, y in high)


def _answers_as_the_oracle(text, alphabet, kind, queries=100):
    """An index over text whose merged universe has 4u' >= 2^62, checked on
    substring and random histograms."""
    idx = build_jumbled_index(text, alphabet, kind)
    assert 4 * idx.u_prime >= 1 << 62
    rng = random.Random(len(text))
    hits = 0
    for q in range(queries):
        if q % 2:
            pattern = tuple(rng.randint(0, 3) for _ in range(idx.sigma))
        else:
            length = rng.randint(1, min(40, len(text)))
            start = rng.randint(0, len(text) - length)
            pattern = histogram(text[start : start + length], idx.alphabet)
        expected = sliding_window_matches(text, idx.alphabet, pattern)
        assert idx.report(pattern) == expected, pattern
        assert idx.exists(pattern) == bool(expected), pattern
        hits += bool(expected)
    assert hits >= queries // 2
    return idx


@pytest.mark.parametrize("sigma, n", [(6, 2000), (7, 1000), (8, 250), (8, 1000)])
def test_sigma_6_to_8_past_the_old_merge_limit_under_linear(sigma, n):
    text = random_text(random.Random(3), n, sigma).decode()
    _answers_as_the_oracle(text, sorted(set(text)), LinearScan())


def test_sigma_7_and_8_past_the_old_merge_limit_under_smalluniverse():
    kind = SmallUniverse(delta=0.5)
    for sigma, n in ((7, 500), (8, 250)):
        text = random_text(random.Random(3), n, sigma).decode()
        idx = _answers_as_the_oracle(text, "abcdefgh"[:sigma], kind)
        assert _layouts(idx.reporting.index.backend) == {"array"}
    # Mostly the top letter: u' ~ n * (n + 1)^7 puts the values past 2^63,
    # and every table is built as lists, not int64 arrays.
    rng = random.Random(8)
    text = "".join(rng.choice("abcdefg") if rng.random() < 0.1 else "h" for _ in range(220))
    idx = _answers_as_the_oracle(text, "abcdefgh", kind)
    assert idx.merged.values[-1] >= 1 << 63
    assert _layouts(idx.reporting.index.backend) == {"list"}


@pytest.mark.parametrize("kind", [SmallUniverse(delta=0.5), FullTabulation()],
                         ids=["smalluniverse", "fulltab"])
def test_sixteen_letters_past_2_63_tabulate_as_lists(kind):
    text = random_text(random.Random(16), 20, 16).decode()
    idx = _answers_as_the_oracle(text, "abcdefghijklmnop", kind)
    assert idx.merged.values[-1] >= 1 << 63
    assert _layouts(idx.reporting.index.backend) == {"list"}
