"""A backend's tabulation runs with the cyclic collector paused.

Tabulating pairs makes containers per pair and no reference cycle, so a
collector pass during it walks the growing tables and frees nothing.
``SsiBackend`` pauses the collector around the int64 conversion and the
``add_pair`` loop only, after the budget check, restores the caller's
setting also when a pair raises, and then runs the one young collection
the pause owes. So a tabulating build of any kind runs a handful of
passes, where an unpaused one ran over a thousand.
"""

import gc
import random

import pytest

from gapindex.backends import FullTabulation, _TabulatedPairs, build_backend
from gapindex.errors import BudgetError
from gapindex.generators import random_collection
from gapindex.reporting import build_reporting_index


def test_a_tabulating_reporting_build_runs_at_most_two_collector_passes():
    # 8 sets of 3 to 88 elements and their dyadic blocks: 136,539 tables.
    c = random_collection(random.Random(5), 8, 300, 400)
    passes = []

    def log(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(log)
    try:
        inst = build_reporting_index(c, FullTabulation())
    finally:
        gc.callbacks.remove(log)
    assert inst.backend.table.pairs > 10 * gc.get_threshold()[0]
    assert len(passes) <= 2, passes


class _Refused(Exception):
    pass


def test_the_pause_covers_only_tabulation_and_restores_the_callers_setting(monkeypatch):
    sets = [tuple(range(t, 40 + t, 1 + t)) for t in range(6)]
    real = _TabulatedPairs.add_pair
    seen = []

    def failing(self, *args):
        seen.append(gc.isenabled())
        if len(seen) % 4 == 0:
            raise _Refused
        return real(self, *args)

    monkeypatch.setattr(_TabulatedPairs, "add_pair", failing)
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(_Refused):
                build_backend(sets, FullTabulation())
            assert gc.isenabled() is enabled
        # Every pair was tabulated with the collector paused.
        assert len(seen) == 8 and not any(seen)
    finally:
        (gc.enable if was else gc.disable)()

    # A budget refusal comes before the pause, and touches no collector state.
    touched = []
    for name in ("disable", "enable", "collect"):
        monkeypatch.setattr(gc, name, lambda *a, name=name: touched.append(name))
    with pytest.raises(BudgetError):
        build_backend(sets, FullTabulation(), mem_budget=1000)
    assert touched == []
