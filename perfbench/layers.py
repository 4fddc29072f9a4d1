"""Which gapindex entry points the traced run wraps, and the per-layer metrics
derived from the spans and from the indexes' public counters.

Span names are ``<layer>.<entry point>``; the layer is the gapindex module
whose work the call does. ``ThreeSumReporting`` lives in ``reporting`` but is
the 3SUM side of the reduction, so its spans count under ``reductions``.
A module attribute is patched in the module that looks it up, because the
package imports names (``from .gapped import gapped_exists``) rather than
modules.
"""

from __future__ import annotations

import importlib

from gapindex import gapped, jumbled, reductions, reporting, textindex

# ``gapindex.smallest_shift`` is the re-exported function, not the module.
smallest_shift = importlib.import_module("gapindex.smallest_shift")

QUERY_LAYERS = ("textindex", "gapped", "reporting", "backends", "jumbled", "reductions",
                "smallest_shift")
SECTIONS = ("text", "sa", "lcp", "universe", "set_offsets", "set_elements", "alphabet")

# name -> unit, in print order. Every workload prints every name; a layer
# the workload does not run reads 0.
PER_LAYER = {
    "sets.dyadic_elements": "count",
    "sets.dyadic_build_s": "s",
    "backends.build_s": "s",
    "backends.space_bytes": "bytes",
    "backends.exists_calls_per_query": "count",
    "backends.probes_per_query": "count",
    "backends.exists_us": "us",
    "backends.hit_ratio": "ratio",
    "reporting.build_s": "s",
    "reporting.report_shift_calls_per_query": "count",
    "reporting.report_shift_us": "us",
    "reporting.pairs_per_exists_call": "ratio",
    "gapped.build_s": "s",
    "gapped.stored_elements": "count",
    "gapped.calls_per_query": "count",
    "gapped.plan_size": "count",
    "gapped.plan_us": "us",
    "gapped.raw_per_unique": "ratio",
    "gapped.max_multiplicity": "count",
    "gapped.fallbacks": "count",
    "textindex.sa_build_s": "s",
    "textindex.build_s": "s",
    "textindex.pattern_interval_us": "us",
    "textindex.scan_baseline_us": "us",
    "persist.save_s": "s",
    "persist.decode_s": "s",
    "persist.rebuild_s": "s",
    **{f"persist.section_bytes.{name}": "bytes" for name in SECTIONS},
    "jumbled.build_s": "s",
    "jumbled.report_us": "us",
    "jumbled.decode_reject_ratio": "ratio",
    "reductions.build_s": "s",
    "reductions.three_sum_report_us": "us",
    "smallest_shift.build_s": "s",
    "smallest_shift.query_us": "us",
    "smallest_shift.probes_per_query": "count",
    **{f"{layer}.query_self_us": "us" for layer in QUERY_LAYERS},
    "trace.overhead_frac": "ratio",
    "trace.spans_per_query": "count",
}


def trace_builds(tracer) -> None:
    """Wrap the build entry points, outermost first."""
    for owner, attr, name in (
        (textindex, "build_gapped_string_index", "textindex.build_gapped_string_index"),
        (textindex, "build_suffix_array", "textindex.build_suffix_array"),
        (textindex, "GappedIndex", "gapped.GappedIndex"),
        (gapped, "build_gapped_index", "gapped.build_gapped_index"),
        (gapped, "GappedIndex", "gapped.GappedIndex"),
        (gapped, "AugmentedInstance", "reporting.AugmentedInstance"),
        (reporting, "build_reporting_index", "reporting.build_reporting_index"),
        (reporting, "AugmentedInstance", "reporting.AugmentedInstance"),
        (reporting, "dyadic_subsets", "sets.dyadic_subsets"),
        (reporting, "build_backend", "backends.build_backend"),
        (reporting, "reduce_3sum_to_ssi", "reductions.reduce_3sum_to_ssi"),
        (reductions, "merge_two_set_3sum", "reductions.merge_two_set_3sum"),
        (jumbled, "build_jumbled_index", "jumbled.build_jumbled_index"),
        (jumbled, "ThreeSumReporting", "reductions.ThreeSumReporting"),
        (smallest_shift, "build_smallest_shift", "smallest_shift.build_smallest_shift"),
    ):
        tracer.patch(owner, attr, name)


def _after_exists(tracer, args, result):
    tracer.add("backends.hits", result is not None)


def _after_gapped_exists(tracer, args, result):
    tracer.add("gapped.plan_total", args[0].last_plan_size)


def _after_gapped_report(tracer, args, result):
    g = args[0]
    tracer.add("gapped.plan_total", g.last_plan_size)
    tracer.add("gapped.raw_pairs", g.last_raw_pairs)
    tracer.add("gapped.unique_pairs", len(result or ()))
    tracer.high("gapped.max_multiplicity", g.last_max_multiplicity)


def _after_report_shift(tracer, args, result):
    tracer.add("reporting.pairs", len(result or ()))


def _after_jumbled_report(tracer, args, result):
    tracer.add("jumbled.accepted", len(result or ()))


def _after_three_sum_report(tracer, args, result):
    tracer.add("reductions.candidates", len(result or ()))


def trace_queries(tracer, parts: dict) -> None:
    """Wrap the query entry points of the loaded structures."""
    for owner in (textindex, gapped):
        tracer.patch(owner, "gapped_exists", "gapped.gapped_exists", _after_gapped_exists)
        tracer.patch(owner, "gapped_report", "gapped.gapped_report", _after_gapped_report)
    tracer.patch(textindex, "pattern_interval", "textindex.pattern_interval")
    tracer.patch(gapped, "plan_cover", "gapped.plan_cover")
    for owner in (gapped, reporting):
        tracer.patch(owner, "report_shift", "reporting.report_shift", _after_report_shift)
    tracer.patch(smallest_shift, "smallest_shift", "smallest_shift.smallest_shift")
    for idx in parts["string"]:
        tracer.patch(idx, "exists", "textindex.exists")
        tracer.patch(idx, "report", "textindex.report")
    for jx in parts["jumbled"]:
        tracer.patch(jx, "exists", "jumbled.exists")
        tracer.patch(jx, "report", "jumbled.report", _after_jumbled_report)
        tracer.patch(jx.reporting, "exists", "reductions.three_sum_exists")
        tracer.patch(jx.reporting, "report", "reductions.three_sum_report",
                     _after_three_sum_report)
    for backend in parts["backends"]:
        tracer.patch(backend, "exists", "backends.exists", _after_exists)


def counters(parts: dict) -> dict:
    """The indexes' public instrumentation counters, summed over structures."""
    return {
        "probes": sum(b.probes for b in parts["backends"]),
        "existence_calls": sum(a.existence_calls for a in parts["augmented"]),
        "shift_probes": sum(s.probes for s in parts["shift"]),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_call_us(tracer, name: str) -> float:
    return _ratio(tracer.self_time.get(name, 0.0), tracer.count.get(name, 0)) * 1e6


def build_metrics(setup) -> dict:
    """Per-layer build seconds: the self time of each layer's build spans."""
    sa = setup.self_time.get("textindex.build_suffix_array", 0.0)
    return {
        "sets.dyadic_build_s": setup.layer_self_time("sets"),
        "backends.build_s": setup.layer_self_time("backends"),
        "reporting.build_s": setup.layer_self_time("reporting"),
        "gapped.build_s": setup.layer_self_time("gapped"),
        "textindex.sa_build_s": sa,
        "textindex.build_s": setup.layer_self_time("textindex") - sa,
        "jumbled.build_s": setup.layer_self_time("jumbled"),
        "reductions.build_s": setup.layer_self_time("reductions"),
        "smallest_shift.build_s": setup.layer_self_time("smallest_shift"),
    }


def structure_metrics(parts: dict) -> dict:
    return {
        "sets.dyadic_elements": sum(a.dyadic_elements for a in parts["augmented"]),
        "backends.space_bytes": sum(b.space_bytes() for b in parts["backends"]),
        "gapped.stored_elements": sum(g.total_elements for g in parts["gapped"]),
        "gapped.fallbacks": sum(g.fallback_count for g in parts["gapped"]),
    }


def query_metrics(tracer, delta: dict) -> dict:
    """Per-query counts and per-call self times from the traced queries;
    ``delta`` holds the counter increments over those queries."""
    q = tracer.queries
    calls = tracer.count
    exists_calls = calls.get("backends.exists", 0)
    direct = sum(n for (parent, child), n in tracer.child_calls.items()
                 if child == "backends.exists" and parent.startswith("query."))
    counted = delta["existence_calls"]
    if counted + direct != exists_calls:
        raise RuntimeError(
            f"traced {exists_calls} backend calls but the indexes counted {counted} + {direct}")
    gapped_calls = calls.get("gapped.gapped_exists", 0) + calls.get("gapped.gapped_report", 0)
    candidates = tracer.values.get("reductions.candidates", 0)
    return {
        "backends.exists_calls_per_query": _ratio(exists_calls, q),
        "backends.probes_per_query": _ratio(delta["probes"], q),
        "backends.exists_us": _per_call_us(tracer, "backends.exists"),
        "backends.hit_ratio": _ratio(tracer.values.get("backends.hits", 0), exists_calls),
        "reporting.report_shift_calls_per_query": _ratio(calls.get("reporting.report_shift", 0), q),
        "reporting.report_shift_us": _per_call_us(tracer, "reporting.report_shift"),
        "reporting.pairs_per_exists_call": _ratio(
            tracer.values.get("reporting.pairs", 0),
            tracer.child_calls.get(("reporting.report_shift", "backends.exists"), 0)),
        "gapped.calls_per_query": _ratio(gapped_calls, q),
        "gapped.plan_size": _ratio(tracer.values.get("gapped.plan_total", 0), gapped_calls),
        "gapped.plan_us": _per_call_us(tracer, "gapped.plan_cover"),
        "gapped.raw_per_unique": _ratio(tracer.values.get("gapped.raw_pairs", 0),
                                        tracer.values.get("gapped.unique_pairs", 0)),
        "gapped.max_multiplicity": tracer.maxima.get("gapped.max_multiplicity", 0),
        "textindex.pattern_interval_us": _per_call_us(tracer, "textindex.pattern_interval"),
        "jumbled.report_us": _per_call_us(tracer, "jumbled.report"),
        "jumbled.decode_reject_ratio": _ratio(
            candidates - tracer.values.get("jumbled.accepted", 0), candidates),
        "reductions.three_sum_report_us": _per_call_us(tracer, "reductions.three_sum_report"),
        "smallest_shift.query_us": _per_call_us(tracer, "smallest_shift.smallest_shift"),
        "smallest_shift.probes_per_query": _ratio(
            delta["shift_probes"], calls.get("smallest_shift.smallest_shift", 0)),
        **{f"{layer}.query_self_us": _ratio(tracer.layer_self_time(layer), q) * 1e6
           for layer in QUERY_LAYERS},
        "trace.spans_per_query": _ratio(sum(calls.values()), q),
    }
