"""The benchmark's build tracer times the block slicer a reporting build runs.

``perfbench/layers.py`` wraps ``reporting.dyadic_subsets`` in a span named
``sets.dyadic_subsets``, and ``build_metrics`` reports that layer's self time
as ``sets.dyadic_build_s``. Both are read here, not changed: the span must
open once per base set that stores blocks: every set under
``FullTabulation``, only the sets of at least 2^``lowest_level`` elements
under ``SmallUniverse``.
"""

import random
import sys
from pathlib import Path

from gapindex import reporting
from gapindex.backends import FullTabulation, SmallUniverse
from gapindex.generators import random_collection

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_the_sets_span_times_the_slicing_of_each_base_set():
    c = random_collection(random.Random(31), 5, 80, 200)
    tracer = Tracer()
    layers.trace_builds(tracer)
    try:
        index = tracer.run("setup", "setup.reporting",
                           reporting.build_reporting_index, c, FullTabulation())
    finally:
        tracer.uninstall()
    assert index.lowest_level == 0  # every set stores its blocks
    assert tracer.count["sets.dyadic_subsets"] == c.k
    assert layers.build_metrics(tracer)["sets.dyadic_build_s"] > 0
    assert not hasattr(reporting.dyadic_subsets, "__wrapped__")  # uninstalled


def test_the_sets_span_opens_only_for_the_sets_that_store_blocks():
    c = random_collection(random.Random(37), 6, 120, 400, [2, 3, 5, 10, 40, 60])
    tracer = Tracer()
    layers.trace_builds(tracer)
    try:
        index = tracer.run("setup", "setup.reporting",
                           reporting.build_reporting_index, c, SmallUniverse(0.5))
    finally:
        tracer.uninstall()
    storing = sum(len(s) >= 1 << index.lowest_level for s in c.sets)
    assert 0 < storing < c.k
    assert tracer.count["sets.dyadic_subsets"] == storing
