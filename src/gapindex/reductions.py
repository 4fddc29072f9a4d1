"""Two-way reductions between 3SUM indexing and shifted set intersection.

The mappings carry explicit affine offsets so every derived collection keeps
positive elements; decode helpers invert them exactly so a certificate on
either side always converts to a certificate on the other.

The arithmetic is Python ints, with no width guard: a value past 2^63 is
carried exactly, and the backends keep it off their int64 table path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .backends import ShiftQuery
from .errors import GuardError
from .sets import IntSet, SetCollection


@dataclass(frozen=True)
class ThreeSumInstance:
    """Two-set formulation: query c is YES iff some a in A, b in B has a + b = c."""

    A: tuple[int, ...]
    B: tuple[int, ...]
    universe_bound: int

    @cached_property
    def member_b(self) -> frozenset[int]:
        """B's member set, made on the first query and kept."""
        return frozenset(self.B)

    def query(self, c: int) -> Optional[tuple[int, int]]:
        """Smallest-a witness for a + b = c, by scanning A against B's member set."""
        member_b = self.member_b
        for a in self.A:
            if c - a in member_b:
                return (a, c - a)
        return None


@dataclass(frozen=True)
class ThreeSumToSsiMap:
    """3SUM query c over set A <-> SSI query (S_2, S_1, c) with negation offset."""

    offset: int  # S_2 stores offset - a

    def query(self, c: int) -> ShiftQuery:
        return ShiftQuery(i=2, j=1, s=c - self.offset)

    def decode(self, a: int, b: int) -> tuple[int, int]:
        """Map an SSI certificate (a in S_2, b in S_1) back to (a1, a2) in A x A."""
        return (self.offset - a, b)


def reduce_3sum_to_ssi(A: list[int]) -> tuple[SetCollection, ThreeSumToSsiMap]:
    """S_1 = A, S_2 = negated A shifted into {1..u}; c maps to (S_2, S_1, c)."""
    if not A:
        raise GuardError("3SUM instance must be nonempty")
    vals = sorted(set(A))
    if vals[0] < 1:
        raise GuardError(f"3SUM elements must be >= 1, got {vals[0]}")
    u = vals[-1]
    offset = u + 1
    s1 = IntSet(tuple(vals))
    s2 = IntSet(tuple(sorted(offset - a for a in vals)))
    collection = SetCollection(sets=(s1, s2), universe=u)
    return collection, ThreeSumToSsiMap(offset=offset)


@dataclass(frozen=True)
class SsiToThreeSumMap:
    """SSI query (i, j, s) -> 3SUM query s + (j*(k+1) + i) * 2u, and inverses."""

    k: int
    u: int

    def _stride(self) -> int:
        return 2 * self.u

    def query(self, i: int, j: int, s: int) -> Optional[int]:
        """Encoded 3SUM query value, or None when |s| > u (always NO)."""
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise GuardError(f"set indices ({i}, {j}) out of range 1..{self.k}")
        if abs(s) > self.u:
            return None
        return s + (j * (self.k + 1) + i) * self._stride()

    def decode_a(self, value: int) -> tuple[int, int]:
        """A-side element e + j*(k+1)*2u -> (j, e)."""
        j, e = divmod(value, (self.k + 1) * self._stride())
        return j, e

    def decode_b(self, value: int) -> tuple[int, int]:
        """B-side element -e + i*2u -> (i, e); uses 1 <= e <= u < 2u."""
        stride = self._stride()
        i = (value + self.u) // stride
        return i, i * stride - value

    def decode_pair(self, a_value: int, b_value: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """3SUM certificate (a, b) -> ((i, e1), (j, e2)) with e1 + s = e2."""
        j, e2 = self.decode_a(a_value)
        i, e1 = self.decode_b(b_value)
        return (i, e1), (j, e2)


def reduce_ssi_to_3sum(c: SetCollection) -> tuple[ThreeSumInstance, SsiToThreeSumMap]:
    """Encode a collection into one 3SUM instance over universe O(k^2 u)."""
    k, u = c.k, c.universe
    stride = 2 * u
    a_side = []
    b_side = []
    for sid, s in enumerate(c.sets, start=1):
        block_a = sid * (k + 1) * stride
        block_b = sid * stride
        for e in s.elements:
            a_side.append(e + block_a)
            b_side.append(block_b - e)
    instance = ThreeSumInstance(
        A=tuple(sorted(a_side)),
        B=tuple(sorted(b_side)),
        universe_bound=(k * (k + 1) + k + 1) * stride,
    )
    return instance, SsiToThreeSumMap(k=k, u=u)


@dataclass(frozen=True)
class MergedThreeSum:
    """One-set 3SUM instance A' = A u {b + 2u' | b in B} for a two-set instance."""

    values: tuple[int, ...]
    u_prime: int

    def query_value(self, c: int) -> Optional[int]:
        """Map a two-set query c to the one-set query c + 2u'; None when out of range."""
        if not 2 <= c <= 2 * self.u_prime:
            return None
        return c + 2 * self.u_prime

    def decode(self, value: int) -> tuple[str, int]:
        """Classify a one-set element as original ('A', a) or shifted ('B', b)."""
        if value > 2 * self.u_prime:
            return "B", value - 2 * self.u_prime
        return "A", value


def merge_two_set_3sum(A: list[int], B: list[int], u_prime: int) -> MergedThreeSum:
    if not A or not B:
        raise GuardError("merge needs nonempty A and B")
    if min(A) < 1 or min(B) < 1 or max(A) > u_prime or max(B) > u_prime:
        raise GuardError(f"elements must lie in 1..{u_prime}")
    merged = set(A) | {b + 2 * u_prime for b in B}
    return MergedThreeSum(values=tuple(sorted(merged)), u_prime=u_prime)
