import random

import pytest

from gapindex.backends import (
    FullTabulation,
    LinearScan,
    ShiftQuery,
    SmallUniverse,
    brute_force_ssi,
    build_backend,
)
from gapindex.errors import GuardError
from gapindex.generators import random_collection
from gapindex.reductions import (
    ThreeSumInstance,
    merge_two_set_3sum,
    reduce_3sum_to_ssi,
    reduce_ssi_to_3sum,
)
from gapindex.reporting import ThreeSumReporting
from gapindex.sets import ingest_collection

from test_sorted_reads import _layouts


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


def _answers_as_brute_force(c, queries):
    """Each (i, j, s) is YES in the reduction iff `brute_force_ssi` finds a
    pair, and a YES decodes to i, j and a certificate pair."""
    instance, mapping = reduce_ssi_to_3sum(c)
    assert max(instance.A).bit_length() > 63
    yes = 0
    for i, j, s in queries:
        expected = brute_force_ssi(c, ShiftQuery(i, j, s))
        encoded = mapping.query(i, j, s)
        pair = None if encoded is None else instance.query(encoded)
        assert (pair is not None) == bool(expected), (i, j, s)
        if pair is not None:
            (pi, e1), (pj, e2) = mapping.decode_pair(*pair)
            assert (pi, pj) == (i, j) and (e1, e2) in expected
            yes += 1
    return yes


def test_reduction_past_63_bits_answers_as_brute_force():
    # 3,000 sets at u = 2^40 encode to values past 2^64: Python ints carry them.
    u = 1 << 40
    rng = random.Random(40)
    queries = [(rng.randint(1, 3000), rng.randint(1, 3000), s)
               for s in (0, 0, 0, 1, -1, u - 1, 1 - u, u, rng.randint(-u, u))]
    assert _answers_as_brute_force(ingest_collection([[1]] * 3000, u=u), queries) == 3
    pool = [1, 2, u // 2, u - 1, u]
    sets = [sorted(rng.sample(pool, rng.randint(1, 3))) for _ in range(3000)]
    c = ingest_collection(sets, u=u)
    queries = [(rng.randint(1, 3000), rng.randint(1, 3000), b - a)
               for a in pool for b in pool for _ in range(3)]
    yes = _answers_as_brute_force(c, queries)
    assert 0 < yes < len(queries)


@pytest.mark.parametrize("base", [0, (1 << 63) - 40, 1 << 64], ids=["small", "near-2^63", "past-2^64"])
def test_three_sum_instance_answers_as_the_pair_scan(base):
    # B's member set is made once, on the first query, and every query
    # reads it; each answer is the smallest-a pair of a brute-force scan.
    rng = random.Random(base % 997)
    A = tuple(sorted({base + rng.randrange(80) for _ in range(25)}))
    B = tuple(sorted({base + rng.randrange(80) for _ in range(25)}))
    instance = ThreeSumInstance(A, B, universe_bound=2 * base + 160)
    assert "member_b" not in vars(instance)
    sums = sorted({a + b for a in A for b in B})
    for c in sums + [2 * base - 1, 2 * base + 160, sums[0] - 1, sums[-1] + 1] + [
            2 * base + rng.randrange(160) for _ in range(60)]:
        expected = min(((a, b) for a in A for b in B if a + b == c), default=None)
        assert instance.query(c) == expected, c
    assert instance.member_b == frozenset(B)
    member = instance.member_b
    instance.query(sums[0])
    assert instance.member_b is member
    assert instance == ThreeSumInstance(A, B, universe_bound=2 * base + 160)


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


@pytest.mark.parametrize("kind", [LinearScan(), SmallUniverse(delta=0.5), FullTabulation()],
                         ids=["linear", "smalluniverse", "fulltab"])
def test_three_sum_reporting_past_2_63_matches_the_pair_scan(kind):
    rng = random.Random(63)
    A = sorted({(1 << 64) + rng.randrange(1 << 12) for _ in range(48)})
    reporting = ThreeSumReporting(A, kind)
    # Values past int64 never reach the numpy table path.
    tabulated = not isinstance(kind, LinearScan)
    assert _layouts(reporting.index.backend) == ({"list"} if tabulated else set())
    sums = [rng.choice(A) + rng.choice(A) for _ in range(40)]
    for c in sums + [c + 1 for c in sums] + [2 * A[0] - 1, 2 * A[-1] + 1, 3]:
        expected = sorted({(a, b) for a in A for b in A if a <= b and a + b == c})
        assert reporting.report(c) == expected, c
        hit = reporting.exists(c)
        assert (hit in expected) if expected else hit is None, c


def test_merge_past_2_63_answers_two_set_queries():
    rng = random.Random(70)
    u_prime = 1 << 70
    A = sorted({rng.randint(1, u_prime) for _ in range(20)})
    B = sorted({rng.randint(1, u_prime) for _ in range(20)})
    merged = merge_two_set_3sum(A, B, u_prime)
    reporting = ThreeSumReporting(list(merged.values), LinearScan())
    for c in [rng.choice(A) + rng.choice(B) for _ in range(20)] + [A[0] + B[0] - 1]:
        expected = sorted((a, b) for a in A for b in B if a + b == c)
        got = sorted(
            tuple(v for _, v in sorted(map(merged.decode, pair)))
            for pair in reporting.report(merged.query_value(c))
        )
        assert got == expected, c
