import random

import pytest

from gapindex.backends import LinearScan, build_backend
from gapindex.errors import GuardError
from gapindex.generators import random_collection
from gapindex.reductions import (
    merge_two_set_3sum,
    reduce_3sum_to_ssi,
    reduce_ssi_to_3sum,
)
from gapindex.sets import ingest_collection


def test_3sum_to_ssi_example():
    collection, mapping = reduce_3sum_to_ssi([2, 3])
    backend = build_backend(collection, LinearScan())
    q = mapping.query(5)
    cert = backend.exists(q.i, q.j, q.s)
    assert cert is not None
    a1, a2 = mapping.decode(cert.a, cert.b)
    assert a1 + a2 == 5 and {a1, a2} == {2, 3}
    q = mapping.query(7)
    assert backend.exists(q.i, q.j, q.s) is None


def test_3sum_to_ssi_fuzz():
    rng = random.Random(3)
    values = sorted(rng.sample(range(1, 400), 50))
    collection, mapping = reduce_3sum_to_ssi(values)
    backend = build_backend(collection, LinearScan())
    sums = {a + b for a in values for b in values}
    for c in range(2, 2 * max(values) + 1):
        q = mapping.query(c)
        cert = backend.exists(q.i, q.j, q.s)
        assert (cert is not None) == (c in sums)
        if cert is not None:
            a1, a2 = mapping.decode(cert.a, cert.b)
            assert a1 in values and a2 in values and a1 + a2 == c


def test_ssi_to_3sum_hand_example():
    c = ingest_collection([[1], [3]], u=4)
    instance, mapping = reduce_ssi_to_3sum(c)
    assert instance.A == (25, 51)
    assert instance.B == (7, 13)
    assert mapping.query(1, 2, 2) == 58
    pair = instance.query(58)
    assert pair is not None and pair[0] + pair[1] == 58
    (i, e1), (j, e2) = mapping.decode_pair(51, 7)
    assert (i, e1, j, e2) == (1, 1, 2, 3)
    assert instance.query(mapping.query(1, 2, 1)) is None


def test_ssi_to_3sum_sizes_and_round_trip():
    rng = random.Random(9)
    c = random_collection(rng, 5, 60, 30)
    instance, mapping = reduce_ssi_to_3sum(c)
    n = c.total_size
    assert len(instance.A) == n and len(instance.B) == n
    bound = (c.k * (c.k + 1) + c.k + 1) * 2 * c.universe
    assert max(instance.A) < bound and max(instance.B) < bound
    for sid, s in enumerate(c.sets, start=1):
        for e in s.elements:
            a_enc = e + sid * (c.k + 1) * 2 * c.universe
            b_enc = -e + sid * 2 * c.universe
            assert mapping.decode_a(a_enc) == (sid, e)
            assert mapping.decode_b(b_enc) == (sid, e)


def test_claim1_equivalence_fuzz():
    rng = random.Random(21)
    for _ in range(25):
        k = rng.randint(1, 4)
        u = rng.randint(4, 40)
        c = random_collection(rng, k, rng.randint(k, 50), u)
        instance, mapping = reduce_ssi_to_3sum(c)
        sums = {}
        for a in instance.A:
            for b in instance.B:
                sums.setdefault(a + b, (a, b))
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                member_j = set(c.set(j).elements)
                for s in range(-u, u + 1):
                    direct = any(a + s in member_j for a in c.set(i).elements)
                    encoded = mapping.query(i, j, s)
                    mapped = encoded in sums
                    assert mapped == direct, (i, j, s)
                    if mapped:
                        (pi, e1), (pj, e2) = mapping.decode_pair(*sums[encoded])
                        assert (pi, pj) == (i, j)
                        assert e1 in c.set(i).elements
                        assert e2 in c.set(j).elements
                        assert e1 + s == e2


def test_reduction_overflow_guard():
    big = ingest_collection([[1]] * 3000, u=1 << 40)
    with pytest.raises(GuardError, match="63-bit"):
        reduce_ssi_to_3sum(big)


def test_merge_two_set_example():
    merged = merge_two_set_3sum([1], [2], u_prime=3)
    assert merged.values == (1, 8)
    assert merged.query_value(3) == 9
    assert 1 + 8 == 9
    # c = 2 maps to 8; possible sums are 2, 9, 16: NO.
    sums = {x + y for x in merged.values for y in merged.values}
    assert merged.query_value(2) == 8 and 8 not in sums


def test_merge_equivalence_fuzz():
    rng = random.Random(17)
    for _ in range(100):
        u_prime = rng.randint(3, 60)
        A = sorted(rng.sample(range(1, u_prime + 1), rng.randint(1, min(8, u_prime))))
        B = sorted(rng.sample(range(1, u_prime + 1), rng.randint(1, min(8, u_prime))))
        merged = merge_two_set_3sum(A, B, u_prime)
        merged_sums = {x + y for x in merged.values for y in merged.values}
        c = rng.randint(2, 2 * u_prime)
        direct = any(a + b == c for a in A for b in B)
        assert (merged.query_value(c) in merged_sums) == direct


def test_merge_decode():
    merged = merge_two_set_3sum([1, 4], [2], u_prime=5)
    assert merged.decode(1) == ("A", 1)
    assert merged.decode(12) == ("B", 2)


def test_merge_guards():
    with pytest.raises(GuardError):
        merge_two_set_3sum([], [1], 4)
    with pytest.raises(GuardError):
        merge_two_set_3sum([5], [1], 4)
