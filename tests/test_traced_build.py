"""The benchmark's build tracer times the block slicer a reporting build runs.

``perfbench/layers.py`` wraps ``reporting.dyadic_subsets`` in a span named
``sets.dyadic_subsets``, and ``build_metrics`` reports that layer's self time
as ``sets.dyadic_build_s``. Both are read here, not changed: the span must
open once per base set of an index that stores blocks.
"""

import random
import sys
from pathlib import Path

from gapindex import reporting
from gapindex.backends import FullTabulation
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
