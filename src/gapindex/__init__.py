"""Gapped string indexing and the set-intersection machinery underneath it.

The package is organized bottom-up:

* ``sets``           sorted integer-set collections, dyadic blocks and covers
* ``backends``       the certificate-returning shifted set intersection backend
* ``reductions``     the two-way 3SUM indexing reductions
* ``reporting``      report-all-pairs via dyadic augmentation
* ``gapped``         interval-of-shifts queries via leveled approximation
* ``textindex``      suffix array, gapped string index and both baselines
* ``jumbled``        histogram (jumbled) indexing over constant alphabets
* ``smallest_shift`` minimum nonnegative shift queries
* ``cli``            build / query / verify / bench / gen command line
"""

from .backends import (
    BackendKind,
    FullTabulation,
    LinearScan,
    ShiftCertificate,
    ShiftQuery,
    SmallUniverse,
    SsiBackend,
    brute_force_ssi,
    build_backend,
    parse_backend,
)
from .errors import BudgetError, FormatError, GapIndexError, GuardError, VerificationError
from .gapped import (
    ApproxQuery,
    CoverPlan,
    GappedIndex,
    approx_exists,
    build_gapped_index,
    gapped_exists,
    gapped_report,
    plan_cover,
)
from .jumbled import (
    JumbledIndex,
    build_jumbled_index,
    encode_vector,
    histogram,
    sliding_window_matches,
)
from .reductions import (
    MergedThreeSum,
    SsiToThreeSumMap,
    ThreeSumInstance,
    merge_two_set_3sum,
    reduce_3sum_to_ssi,
    reduce_ssi_to_3sum,
)
from .reporting import (
    AugmentedInstance,
    ThreeSumReporting,
    build_reporting_index,
    matching_pairs,
    report_3sum,
    report_shift,
)
from .sets import (
    IntSet,
    SetCollection,
    ingest_collection,
    parse_collection,
)
from .smallest_shift import ShiftIndex, build_smallest_shift, smallest_shift
from .textindex import (
    GappedStringIndex,
    QuadraticBaseline,
    SuffixArray,
    baseline_linear_scan,
    build_gapped_string_index,
    build_suffix_array,
    pattern_interval,
)

__version__ = "0.1.0"
