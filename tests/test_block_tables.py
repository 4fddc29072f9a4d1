"""Dyadic blocks are table operands only.

An augmented instance's backend holds the base sets, shared, and
tabulates two groups: pairs of large base sets and pairs of stored blocks.
No table pairs a base set with a block, since a report asks base x base
only at its root and block x block below it. The budget estimate sums
exactly the pairs the build tabulates, and a string build slices only the
interval sets it tabulates.
"""

import random
import re

import pytest

from gapindex.backends import (
    FullTabulation,
    ShiftQuery,
    SmallUniverse,
    brute_force_ssi,
    parse_backend,
)
from gapindex.bench import run_bench
from gapindex.errors import BudgetError
from gapindex.generators import random_collection, random_text
from gapindex.reporting import AugmentedInstance, build_reporting_index, report_shift
from gapindex.sets import SlicedSets, set_sizes
from gapindex.textindex import build_gapped_string_index

from test_reporting import read_ranks, stored_blocks

KINDS = [FullTabulation(), SmallUniverse(0.0), SmallUniverse(0.5)]


def _instances(kind):
    """Reporting instances over random collections, and a string index's
    exact instance."""
    rng = random.Random(43)
    out = [build_reporting_index(random_collection(rng, k, rng.randint(k, 60), 150), kind)
           for k in (2, 3, 5)]
    n = 300 if kind == SmallUniverse(0.5) else 24
    out.append(build_gapped_string_index(random_text(rng, n, 4), kind).gapped.exact)
    return out


def _operand_groups(inst):
    """The large base sets and the stored blocks, as (id, elements)."""
    backend = inst.backend
    large = [(t, s) for t, s in enumerate(inst.base, start=1) if len(s) > backend.threshold]
    blocks = [(b, read_ranks(inst, *ranks)) for b, ranks in stored_blocks(inst).items()]
    return large, blocks


def _estimate(inst):
    """24 bytes per certificate over the ordered pairs the build
    tabulates, each capped at the shifts the stored values span."""
    values = [a for s in inst.base for a in s]
    span = 2 * (max(values) - min(values)) + 1
    return 24 * sum(min(len(sa) * len(sb), span)
                    for group in _operand_groups(inst) for _, sa in group for _, sb in group)


@pytest.mark.parametrize("kind", KINDS, ids=["fulltab", "smalluniverse-0", "smalluniverse-0.5"])
def test_no_table_pairs_a_base_set_with_a_block(kind):
    stored = 0
    for inst in _instances(kind):
        backend = inst.backend
        k = len(inst.base)
        assert backend.sets is inst.base
        large, blocks = _operand_groups(inst)
        large_ids, block_ids = {t for t, _ in large}, {b for b, _ in blocks}
        keys = set(backend.table._pairs)
        assert all({i, j} <= large_ids or {i, j} <= block_ids for i, j in keys)
        assert keys == {(i, j) for group in (large_ids, block_ids) for i in group for j in group}
        assert backend.last_block == k + len(blocks)
        stored += len(blocks)
    assert stored > 0


@pytest.mark.parametrize("kind", KINDS, ids=["fulltab", "smalluniverse-0", "smalluniverse-0.5"])
def test_the_budget_names_the_pairs_the_build_tabulates(kind):
    for inst in _instances(kind):
        if not stored_blocks(inst):
            continue
        with pytest.raises(BudgetError) as refused:
            AugmentedInstance(inst.base, kind, mem_budget=1)
        needed = int(re.search(r"needs ~(\d+) bytes", str(refused.value)).group(1))
        assert needed == _estimate(inst)


def test_a_budget_between_the_old_and_the_new_estimate_builds():
    """The estimate once also counted every large base set against every
    block; a budget between that and the pairs tabulated now builds, and
    its reports are right."""
    rng = random.Random(59)
    c = random_collection(rng, 4, 160, 400, [16, 40, 48, 56])
    kind = SmallUniverse(0.25)
    inst = build_reporting_index(c, kind)
    large, blocks = _operand_groups(inst)
    assert large and blocks
    values = [a for s in inst.base for a in s]
    span = 2 * (max(values) - min(values)) + 1
    both = large + blocks
    old = 24 * sum(min(len(sa) * len(sb), span) for _, sa in both for _, sb in both)
    new = _estimate(inst)
    assert new < old
    budget = (new + old) // 2
    inst = build_reporting_index(c, kind, mem_budget=budget)
    with pytest.raises(BudgetError):
        build_reporting_index(c, kind, mem_budget=new - 1)
    for i in range(1, c.k + 1):
        for j in range(1, c.k + 1):
            shifts = sorted({b - a for a in c.set(i).elements for b in c.set(j).elements})
            for s in rng.sample(shifts, 12) + [10**6]:
                assert report_shift(inst, i, j, s) == brute_force_ssi(c, ShiftQuery(i, j, s))


@pytest.mark.parametrize("n", [300, 2048])
def test_a_string_build_slices_only_the_interval_sets_it_tabulates(n):
    idx = build_gapped_string_index(random_text(random.Random(n), n, 4), SmallUniverse(0.5))
    exact = idx.gapped.exact
    assert isinstance(exact.base, SlicedSets)
    above = int((set_sizes(exact.base) > exact.backend.threshold).sum())
    assert 0 < above < len(exact.base)
    assert exact.base.filled() == above
    assert exact.backend.sets is exact.base


def test_a_fulltab_string_build_slices_every_non_empty_interval_set():
    exact = build_gapped_string_index(random_text(random.Random(64), 64, 4),
                                      FullTabulation()).gapped.exact
    assert exact.backend.sets is exact.base
    assert exact.base.filled() == int((set_sizes(exact.base) > 0).sum()) == len(exact.base)


def test_a_gapped_string_bench_record_gives_the_exact_instances_tables():
    entries = [{"n": 24, "sigma": 3, "backend": "fulltab", "seed": 5, "queries": 2},
               {"n": 200, "sigma": 4, "backend": "smalluniverse", "delta": 0.5, "seed": 6,
                "queries": 2},
               {"n": 200, "sigma": 4, "backend": "linear", "seed": 6, "queries": 2}]
    records = list(run_bench({"gapped_string": entries}))
    for entry, record in zip(entries, records):
        kind = parse_backend(entry["backend"], entry.get("delta", 0.5))
        text = random_text(random.Random(entry["seed"]), entry["n"], entry["sigma"])
        table = build_gapped_string_index(text, kind).gapped.exact.backend.table
        assert (record["table_pairs"], record["table_bytes"]) == (table.pairs, table.nbytes)
        assert (table.pairs > 0) == (entry["backend"] != "linear")
    assert records[2]["table_pairs"] == records[2]["table_bytes"] == 0
