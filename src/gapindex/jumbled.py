"""Jumbled (histogram) indexing for constant-size alphabets.

A query histogram P matches substring S[i..j] when the letter counts agree
exactly. The index encodes every prefix histogram and every suffix
histogram positionally (base n + 1), merges the two sets into a single
3SUM-with-reporting instance, and answers a query P by asking for pair
sums equal to the encoding of h(S) - P.

Every reported pair decodes to an occurrence. Write enc(v) for
sum(v[t] * base^t); it is linear in v, and injective on vectors with
coordinates in [0, n] since base = n + 1. Let u' be the largest enc + 1
over all prefixes and suffixes. An A-value (prefix) is enc + 1 in [1, u'],
a B-value (suffix) is enc + 1 + 2u' in [2u' + 1, 3u'], and a query is
asked only at values in [2u' + 2, 4u'], and only for a nonzero P <= h(S).

* Two A-values sum to at most 2u' and two B-values to at least 4u' + 2,
  so a reported pair is one prefix S[1..p] and one suffix S[q..n], with
  enc(h(S[1..p])) + enc(h(S[q..n])) = enc(h(S)) - enc(P).
* If p >= q the two overlap, and by linearity the left side is
  enc(h(S)) + enc(h(S[q..p])). Then enc(h(S[q..p])) + enc(P) = 0, which
  cannot hold for a nonempty overlap, since both terms are >= 0 and the
  first is >= 1.
* If p < q the left side is enc(h(S)) - enc(h(S[p+1..q-1])), so
  enc(h(S[p+1..q-1])) = enc(P). Both vectors have coordinates in [0, n],
  so injectivity gives h(S[p+1..q-1]) = P: S[p+1..q-1] is an occurrence
  and its length q - p - 1 is |P|.

So no positional carry can produce a false pair, and a pair that does not
decode means a broken index: decoding raises GapIndexError on it.

The encodings are Python ints with no width guard, so values past 2^63 are
carried exactly. The one limit on sigma is the encoding guard: (n + 1)^sigma
may not pass 2^120.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

from .backends import DEFAULT_MEM_BUDGET, BackendKind, LinearScan
from .errors import FormatError, GapIndexError, GuardError
from .reporting import ThreeSumReporting

_ENCODE_BITS = 120

Symbol = Union[str, int]


def histogram(s: Iterable[Symbol], alphabet: Sequence[Symbol]) -> tuple[int, ...]:
    """Letter-count vector of s over the given alphabet order."""
    index = {ch: t for t, ch in enumerate(alphabet)}
    counts = [0] * len(alphabet)
    for ch in s:
        if ch not in index:
            raise FormatError(f"symbol {ch!r} not in alphabet {list(alphabet)!r}")
        counts[index[ch]] += 1
    return tuple(counts)


def _check_encode_guard(base: int, dim: int) -> None:
    if base ** dim > 1 << _ENCODE_BITS:
        bits = math.ceil(dim * math.log2(base))
        raise GuardError(
            f"encoding {dim} coordinates in base {base} needs ~{bits} bits,"
            f" over the {_ENCODE_BITS}-bit guard"
        )


def encode_vector(v: Sequence[int], base: int, dim: int) -> int:
    """Positional encoding sum(v[t] * base^t); injective for coordinates < base."""
    if len(v) != dim:
        raise FormatError(f"expected {dim} coordinates, got {len(v)}")
    _check_encode_guard(base, dim)
    out = 0
    for t in range(dim - 1, -1, -1):
        if not 0 <= v[t] < base:
            raise GuardError(f"coordinate {v[t]} outside [0, {base})")
        out = out * base + v[t]
    return out


class JumbledIndex:
    """Reporting structure over encoded prefix and suffix histograms."""

    def __init__(
        self,
        text: Sequence[Symbol],
        alphabet: Sequence[Symbol],
        kind: Optional[BackendKind] = None,
        mem_budget: int = DEFAULT_MEM_BUDGET,
    ):
        self.alphabet = tuple(sorted(set(alphabet)))
        self.sigma = len(self.alphabet)
        self.text = text
        self.n = len(text)
        self.base = self.n + 1
        # Reports read positions 0..n+1 from here, so every answer naming a
        # position shares one int object.
        self.positions = list(range(self.n + 2))
        _check_encode_guard(self.base, self.sigma)
        self.total = histogram(text, self.alphabet)

        # enc is linear, so one more letter t adds base^t: prefix_enc[p] is
        # enc(h(S[1..p])), and suffix_enc[t] is enc(h(S[t+1..n])).
        power = {ch: self.base**t for t, ch in enumerate(self.alphabet)}
        prefix_enc = list(accumulate(map(power.__getitem__, text), initial=0))
        suffix_enc = list(accumulate(map(power.__getitem__, reversed(text)), initial=0))
        suffix_enc.reverse()

        # Shift encodings by +1 into {1..u'}; norms strictly increase along
        # prefixes (and suffixes), so both decode tables are injective.
        self.prefix_of = {enc + 1: p for p, enc in enumerate(prefix_enc)}
        self.suffix_of = {enc + 1: q + 1 for q, enc in enumerate(suffix_enc)}
        a_store = sorted(self.prefix_of)
        b_store = sorted(self.suffix_of)
        self.u_prime = max(a_store[-1], b_store[-1])
        from .reductions import merge_two_set_3sum

        self.merged = merge_two_set_3sum(a_store, b_store, self.u_prime)
        self.reporting = ThreeSumReporting(list(self.merged.values), kind or LinearScan(), mem_budget)

    def _decode_occurrence(self, pair: tuple[int, int], norm: int) -> tuple[int, int]:
        """The occurrence (start, end) framed by a reported (prefix, suffix) pair."""
        by_kind = dict(self.merged.decode(v) for v in pair)
        if len(by_kind) != 2:
            raise GapIndexError(f"reported pair {pair} is not one prefix and one suffix")
        p = self.prefix_of[by_kind["A"]]
        q = self.suffix_of[by_kind["B"]]
        if q - p - 1 != norm:
            raise GapIndexError(
                f"prefix 1..{p} and suffix {q}..{self.n} do not frame a length-{norm} occurrence"
            )
        return (self.positions[p + 1], self.positions[q - 1])

    def _query_value(self, pattern: Sequence[int]) -> Optional[tuple[int, int]]:
        if len(pattern) != self.sigma:
            raise FormatError(f"pattern histogram must have {self.sigma} coordinates")
        rest = []
        for have, want in zip(self.total, pattern):
            if want < 0:
                raise FormatError(f"negative count {want} in pattern histogram")
            if have < want:
                return None
            rest.append(have - want)
        norm = sum(pattern)
        if norm == 0:
            return None  # empty substrings are not occurrences
        c_store = encode_vector(rest, self.base, self.sigma) + 2
        value = self.merged.query_value(c_store)
        if value is None:
            return None
        return value, norm

    def exists(self, pattern: Sequence[int]) -> bool:
        prepared = self._query_value(pattern)
        if prepared is None:
            return False
        value, norm = prepared
        hit = self.reporting.exists(value)
        if hit is None:
            return False
        self._decode_occurrence(hit, norm)  # raises on a pair that frames no occurrence
        return True

    def report(self, pattern: Sequence[int]) -> list[tuple[int, int]]:
        prepared = self._query_value(pattern)
        if prepared is None:
            return []
        value, norm = prepared
        return sorted(self._decode_occurrence(pair, norm) for pair in self.reporting.report(value))


def build_jumbled_index(
    text: Sequence[Symbol],
    alphabet: Sequence[Symbol],
    kind: Optional[BackendKind] = None,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> JumbledIndex:
    return JumbledIndex(text, alphabet, kind, mem_budget)


def sliding_window_matches(
    text: Sequence[Symbol], alphabet: Sequence[Symbol], pattern: Sequence[int]
) -> list[tuple[int, int]]:
    """Oracle: all substrings with the pattern histogram, by a rolling window."""
    alpha = tuple(sorted(set(alphabet)))
    index = {ch: t for t, ch in enumerate(alpha)}
    norm = sum(pattern)
    n = len(text)
    if norm == 0 or norm > n:
        return []
    counts = [0] * len(alpha)
    for ch in text[:norm]:
        counts[index[ch]] += 1
    out = []
    target = list(pattern)
    if counts == target:
        out.append((1, norm))
    for start in range(1, n - norm + 1):
        counts[index[text[start - 1]]] -= 1
        counts[index[text[start + norm - 1]]] += 1
        if counts == target:
            out.append((start + 1, start + norm))
    return out
