"""Pinned structures of built gapped indexes.

Each case builds one gapped index and records, for every instance it holds
(the exact one and one per quotient level from 2), the base sets' ids and
element tuples, the backend's sets (the base sets, which it shares; its
stored blocks are table operands only), the dyadic and total element
counts, the lowest stored block level, each base set's first block id, and
the backend's threshold and per-set ``large`` flags. A digest of those
records is pinned, so a change to how a level or an instance is built shows
here even when every answer stays right.
"""

import hashlib
import random

import pytest

from gapindex.backends import FullTabulation, LinearScan, SmallUniverse
from gapindex.gapped import build_gapped_index
from gapindex.generators import random_collection, random_text
from gapindex.textindex import build_gapped_string_index


def _digest(g) -> tuple[int, str]:
    """The number of instances and a digest of what each one stores."""
    records = []
    for inst in [g.exact] + [lvl.instance for lvl in g.levels]:
        backend = inst.backend
        records.append((
            list(enumerate(inst.base, start=1)),
            backend.sets,
            inst.dyadic_elements,
            inst.total_elements,
            inst.lowest_level,
            [inst.first_block_id(i) for i in range(1, len(inst.base) + 1)],
            backend.threshold,
            backend.large,
        ))
    return len(records), hashlib.sha256(repr(records).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind, expected", [
    (LinearScan(), (6, "57d61044341dafb8")),
    (SmallUniverse(0.5), (6, "3b0485c766c810aa")),
    (FullTabulation(), (6, "8c3076d1dc06aa6f")),
])
def test_gapped_set_structures_are_pinned(kind, expected):
    rng = random.Random(15)
    c = random_collection(rng, 8, 120, 512, [1, 2, 5, 8, 9, 16, 31, 48])
    assert _digest(build_gapped_index(c, kind)) == expected


def test_gapped_string_structures_are_pinned():
    text = random_text(random.Random(15), 300, 4)
    idx = build_gapped_string_index(text, LinearScan())
    assert _digest(idx.gapped) == (6, "b37155c307c30124")
