"""Reads of sorted sequences, each written once.

``pattern_interval`` bisects the suffix array keyed by each suffix's
m-byte prefix and must equal the brute-force interval: the ranks whose
suffix starts with the pattern, after every suffix whose prefix sorts
below it. ``value_range`` is the least first and greatest last element
over the non-empty sorted sets; the gapped index's span check, the
tabulation budget's span and the int64 guard of the numpy table path read
it, so these tests pin its edge cases and what each caller makes of them.
"""

import random
from array import array

import pytest

from gapindex.backends import (
    FullTabulation,
    LinearScan,
    ShiftQuery,
    SmallUniverse,
    brute_force_ssi,
    build_backend,
)
from gapindex.errors import BudgetError, FormatError
from gapindex.gapped import GappedIndex
from gapindex.sets import SlicedSets, value_range
from gapindex.textindex import build_suffix_array, pattern_interval

ALPHABETS = {1: b"a", 2: b"ab", 4: b"acgt"}


def brute_interval(text: bytes, order, pattern: bytes) -> tuple[int, int]:
    """1 + the suffixes whose m-byte prefix sorts below the pattern, and
    that plus the suffixes that start with it."""
    m = len(pattern)
    prefixes = [text[p - 1 : p - 1 + m] for p in order]
    below = sum(prefix < pattern for prefix in prefixes)
    hits = [t for t, prefix in enumerate(prefixes) if prefix == pattern]
    assert hits == list(range(below, below + len(hits)))
    return below + 1, below + 1 + len(hits)


def patterns_of(rng: random.Random, text: bytes, alphabet: bytes) -> list[bytes]:
    """Substrings of the text, random words over the alphabet and one byte
    outside it, the whole text, and words longer than the text."""
    n = len(text)
    out = []
    for _ in range(12):
        start = rng.randrange(n)
        out.append(text[start : start + rng.randint(1, 12)])
    for _ in range(6):
        out.append(bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
    out += [b"z", bytes([alphabet[0], 0]), b"\x00", b"\xff", text, text + alphabet[:1],
            text[1:] + b"\xff" * 3, alphabet[-1:] * (n + 1)]
    return out


@pytest.mark.parametrize("sigma", sorted(ALPHABETS))
def test_pattern_interval_equals_the_brute_force_interval(sigma):
    rng = random.Random(100 + sigma)
    alphabet = ALPHABETS[sigma]
    for n in (1, 2, 3, 7, 64, 257, 2048):
        text = bytes(rng.choice(alphabet) for _ in range(n))
        sa = build_suffix_array(text)
        for pattern in patterns_of(rng, text, alphabet):
            assert pattern_interval(sa, pattern) == brute_interval(text, sa.sa, pattern), \
                (n, pattern)


def test_pattern_interval_reads_bytes_past_0x7f():
    rng = random.Random(7)
    alphabet = b"\x7f\x80\xc3\xff"
    for n in (1, 5, 300, 2048):
        text = bytes(rng.choice(alphabet) for _ in range(n))
        sa = build_suffix_array(text)
        for pattern in patterns_of(rng, text, alphabet) + [b"\x80", b"\xff\xff", b"\x7f\x80"]:
            assert pattern_interval(sa, pattern) == brute_interval(text, sa.sa, pattern)


def test_pattern_interval_of_an_empty_pattern_is_refused():
    with pytest.raises(FormatError, match="pattern must be nonempty"):
        pattern_interval(build_suffix_array(b"abc"), b"")


def test_value_range_edge_cases():
    assert value_range([]) is None
    assert value_range([(), (), ()]) is None
    assert value_range([(5,)]) == (5, 5)
    assert value_range([(3, 4, 9)]) == (3, 9)
    assert value_range([(-3, 4), (), (-10, -1), (2, 9), ()]) == (-10, 9)
    big = 2**70
    assert value_range([(big, big + 1), (-big, 0)]) == (-big, big + 1)
    assert value_range([(2**63 - 1,), (-2**63,)]) == (-2**63, 2**63 - 1)
    # Any sequence of sorted sequences: lists, arrays, a quotient level.
    assert value_range([[4, 6], array("q", [-1, 2])]) == (-1, 6)
    level = SlicedSets(array("i", [0, 1, 4, 2, 5, 3]), array("q", [3, 3, 5, 6]), (1, 2, 3, 4, 5, 7))
    assert value_range(level) == value_range(list(level)) == (1, 7)
    # A SlicedSets is read off its first and last int, no set made.
    for ints, codes, ends in (((-2**63, 0, 2**63 - 1), [0, 1, 2], [1, 1, 3]),
                              ((2, 4, 9), [1, 2, 0], [2, 2, 3]), ((), [], [0, 0])):
        level = SlicedSets(array("i", codes), array("q", ends), ints)
        got = value_range(level)
        assert level.filled() == 0 and got == value_range([tuple(s) for s in level])
        assert got is None or (got[0] is ints[0] and got[1] is ints[-1])


class _Unreadable:
    """Stands in for a ``SlicedSets``'s codes, and raises on any read."""

    def __getattr__(self, name):
        raise AssertionError(f"codes.{name} was read")

    def __bool__(self):
        raise AssertionError("codes were tested for truth")

    def __len__(self):
        raise AssertionError("codes were measured")

    def __getitem__(self, at):
        raise AssertionError("codes were indexed")

    def __iter__(self):
        raise AssertionError("codes were iterated")


def test_value_range_of_a_sliced_sets_reads_no_code():
    # Every int is some set's value, so the ends of ``ints`` are the range.
    ints = (-2**70, 3, 2**70)
    level = SlicedSets(array("i", [0, 2, 1]), array("q", [2, 3]), ints)
    level.codes = _Unreadable()
    low, high = value_range(level)
    assert low is ints[0] and high is ints[-1]
    assert value_range(SlicedSets(_Unreadable(), array("q", [0]), ())) is None


def _tables_answer_as_the_oracle(sets, kind):
    backend = build_backend(sets, kind)
    for i, sa in enumerate(sets, start=1):
        for j, sb in enumerate(sets, start=1):
            shifts = {b - a for a in sa for b in sb}
            for s in shifts | {s + 1 for s in shifts} | {0, 2**62, -2**64}:
                expected = brute_force_ssi(sets, ShiftQuery(i, j, s))
                cert = backend.exists(i, j, s)
                assert (cert and (cert.a, cert.b)) == (expected[0] if expected else None)
    return backend


def _layouts(backend) -> set[str]:
    return {"list" if isinstance(rows, list) else "array"
            for _, rows, _, _ in backend.table._pairs.values()}


def test_values_near_and_past_2_62_tabulate_through_the_dict_path():
    edge = 2**62
    rng = random.Random(11)

    def side(centre):
        return tuple(sorted(rng.sample(range(centre - 40, centre + 40), 10)))

    # Inside (-2^62, 2^62): numpy builds the tables.
    inside = [side(edge - 50), side(-edge + 50), side(0)]
    assert _layouts(_tables_answer_as_the_oracle(inside, FullTabulation())) == {"array"}
    # One value at 2^62, at -2^62 or past int64: every pair takes the dict.
    for far in ((edge - 30, edge), (-edge, -edge + 30), side(2**64), side(-2**70)):
        sets = inside + [far]
        assert _layouts(_tables_answer_as_the_oracle(sets, FullTabulation())) == {"list"}
        backend = _tables_answer_as_the_oracle(sets, SmallUniverse(delta=0.0))
        assert _layouts(backend) == {"list"}


def test_the_budget_span_is_the_value_range():
    # Two sets of 49 values over [1, 49]: every ordered pair is capped at
    # the 2 * 48 + 1 shifts of the range, 24 bytes each.
    sets = [tuple(range(1, 50)), tuple(range(1, 50))]
    with pytest.raises(BudgetError, match=r"^fulltab build needs ~9312 bytes, over budget 100$"):
        build_backend(sets, FullTabulation(), mem_budget=100)
    # Negative and past-int64 values: the range, in Python ints.
    sets = [(-2**70, 0, 2**70), (1, 2, 3)]
    with pytest.raises(BudgetError, match=r"^fulltab build needs ~864 bytes, over budget 100$"):
        build_backend(sets, FullTabulation(), mem_budget=100)
    # All sets empty: a span of one shift and nothing to store.
    backend = build_backend([(), ()], FullTabulation(), mem_budget=0)
    assert backend.table.entries == 0 and backend.exists(1, 2, 0) is None


def test_the_span_check_reads_the_value_range():
    with pytest.raises(FormatError, match=r"^set elements span \[-5, 3\], wider than universe 8$"):
        GappedIndex([(-5, 0), (), (1, 3)], 8, LinearScan())
    with pytest.raises(FormatError, match=r"^set elements span \[-5, 3\], wider than universe 8$"):
        GappedIndex([(-5, 0), (), (1, 3)], 8, FullTabulation())
    assert GappedIndex([(-5, 0), (), (1, 3)], 9, LinearScan()).universe == 9
    assert GappedIndex([(), ()], 1, LinearScan()).max_level == 0
