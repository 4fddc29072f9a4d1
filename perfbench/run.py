"""gapindex benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload string-exists --seed 11 --seconds 10 --trace 0

With ``--trace 0`` a run

1. builds and saves the workload's containers (``build_artifact``,
   ``save_artifact``; ``container_bytes``);
2. ``REPS`` times, builds every structure the workload queries from the
   generated raw input (median: ``setup_s``) and loads the containers
   (``load_artifact`` + ``make_*``; median: ``load_s``), and after each of
   these runs one query chunk on the fresh structures: a closed loop with
   one client (each query is issued after the previous answer returns)
   through the seeded query stream, ``--seconds`` in all;
3. checks every answer against an oracle, outside the timed region.

The host's speed drifts by up to 2x over seconds to minutes, so
``speed.SpeedSampler`` times a tiny fixed probe every ``SAMPLE_EVERY_S``
throughout, and each reported time is scaled to the speed at which the probe
takes ``REFERENCE_PROBE_S``. Times as measured are in the ``record`` line.

With ``--trace 1`` the set-up runs once with build spans on, and the query
phase alternates blocks of queries untraced and the same blocks traced; the
last line carries the per-layer metrics, including the traced to untraced
query-time ratio. The exit status is 1 when any query failed and 2 when the
gapindex sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_PROBE_S, SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REPS = 3  # set-ups and loads per run; the median of each is reported
SAMPLE_EVERY_S = 0.05  # machine-speed sampling period
SLICE_S = 0.25  # queries scaled by one speed estimate
WARMUP_QUERIES = 50
TRACE_BLOCK = 20  # queries per untraced/traced alternation in the traced run
EXAMPLE_SPANS = 50  # spans of one traced query kept in the record
TAIL = 0.99
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "load_s": "s",
    "peak_rss_mb": "MB",
    "container_bytes": "bytes",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
}


class Failure:
    """An exception raised by a query, kept in place of its answer."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self) -> str:
        return f"raised {self.text}"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["string-exists", "string-report", "set-questions"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--config", choices=["full", "smoke"], default="full",
                   help="instance sizes; smoke is for the benchmark's own test")
    return p.parse_args(argv)


# -- stamps ------------------------------------------------------------------

def git_commit(root: Path):
    """HEAD of the repository at ``root``; None outside one (git does not
    search above ``root``)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamps(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "config": args.config,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC / "gapindex"),
    }


# -- phases ------------------------------------------------------------------

def build_once(wl, tracer=None) -> tuple[dict, dict]:
    """Build every structure from raw input; return them and the seconds each took."""
    structures, seconds = {}, {}
    for name, step in wl.build_steps():
        start = perf_counter()
        if tracer is None:
            structures[name] = step()
        else:
            structures[name] = tracer.run("setup", f"setup.{name}", step)
        seconds[name] = perf_counter() - start
    return structures, seconds


def save(wl, workdir: Path) -> dict:
    from gapindex import persist

    start = perf_counter()
    artifacts = wl.artifacts()
    artifact_s = perf_counter() - start
    out = {"paths": [], "save_s": 0.0, "section_bytes": {}, "artifact_s": artifact_s}
    for kind, artifact in artifacts:
        path = workdir / f"{kind}.gidx"
        start = perf_counter()
        persist.save_artifact(str(path), artifact)
        out["save_s"] += perf_counter() - start
        for name, value in artifact.sections.items():
            size = value.nbytes if hasattr(value, "nbytes") else len(value)
            out["section_bytes"][name] = out["section_bytes"].get(name, 0) + size
        out["paths"].append((kind, path))
    out["container_bytes"] = sum(path.stat().st_size for _, path in out["paths"])
    return out


def load_once(wl, paths) -> tuple[dict, float, float]:
    from gapindex import persist

    structures, decode_s, rebuild_s = {}, 0.0, 0.0
    for kind, path in paths:
        start = perf_counter()
        artifact = persist.load_artifact(str(path))
        middle = perf_counter()
        name, make = wl.make(kind)
        structures[name] = make(artifact)
        decode_s += middle - start
        rebuild_s += perf_counter() - middle
    return structures, decode_s, rebuild_s


def timed_loop(call, stream, seconds=None, count=None, offset=0, speed=None):
    """Closed loop over ``stream`` (cycling, from ``offset``) until ``seconds``
    pass or ``count`` queries are done. Returns the issued queries, their
    latencies (net of ``speed`` sampling) and answers, and the wall time."""
    issued, latencies, answers = [], [], []
    size = len(stream)
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    k = offset
    while True:
        q = stream[k % size]
        spent = speed.spent if speed else 0.0
        t0 = perf_counter()
        try:
            answer = call(q)
        except Exception as exc:  # counted as a failed query, never fatal
            answer = Failure(exc)
        t1 = perf_counter()
        issued.append(q)
        latencies.append(t1 - t0 - ((speed.spent - spent) if speed else 0.0))
        answers.append(answer)
        k += 1
        if (count is not None and k - offset >= count) or (deadline is not None and t1 >= deadline):
            break
    return issued, latencies, answers, perf_counter() - start


def traced_block(tracer, call, block, first_id):
    answers = []
    start = perf_counter()
    for k, q in enumerate(block):
        try:
            answers.append(tracer.run(first_id + k, f"query.{q[0]}", call, q))
        except Exception as exc:  # counted as a failed query, never fatal
            answers.append(Failure(exc))
        tracer.queries += 1
    return answers, perf_counter() - start


def gate(wl, issued, answers) -> tuple[int, dict, list]:
    """Check answers against the oracle once per distinct query; a repeat must
    equal the first answer. Returns failures, first answers and examples."""
    verdict, first, failed, examples = {}, {}, 0, []
    for q, answer in zip(issued, answers):
        if isinstance(answer, Failure):
            ok = False
        elif q not in verdict:
            first[q] = answer
            verdict[q] = ok = wl.check(q, answer)
        else:
            ok = verdict[q] and answer == first[q]
        if not ok:
            failed += 1
            if len(examples) < 3:
                examples.append(f"{q!r} -> {answer!r}")
    return failed, first, examples


def percentile(sorted_values, q: float) -> float:
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_summary(latencies) -> dict:
    """p50 and p99, or the highest percentile with TAIL_SAMPLES beyond it."""
    values = sorted(latencies)
    n = len(values)
    tail = min(TAIL, max(0.5, 1 - TAIL_SAMPLES / n))
    return {
        "samples": n,
        "p50_us": percentile(values, 0.5) * 1e6,
        "tail": round(tail, 4),
        "tail_us": percentile(values, tail) * 1e6,
        "mean_us": statistics.fmean(values) * 1e6,
    }


def by_mode(wl, queries, latencies) -> dict:
    out = {"all": latency_summary(latencies)}
    for mode in ("exists", "report"):
        picked = [t for q, t in zip(queries, latencies) if wl.query_mode(q) == mode]
        if picked:
            out[mode] = latency_summary(picked)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the run -----------------------------------------------------------------

def run(args, workdir: Path) -> tuple[dict, dict, int, int]:
    import layers
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.config)
    record = {"stamps": stamps(args)}
    traced = bool(args.trace)

    saved = save(wl, workdir)
    gc.collect()
    stream = wl.stream
    issued, latencies, scaled, answers = [], [], [], []
    setup_raw, setup_ref, load_raw, load_ref, decode_s, rebuild_s = [], [], [], [], [], []
    speed = SpeedSampler(SAMPLE_EVERY_S)

    def build(tracer=None):
        (built, by_structure), seconds, scale = speed.measure(lambda: build_once(wl, tracer))
        setup_raw.append(seconds)
        setup_ref.append(seconds * scale)
        return built, by_structure

    def load():
        (structures, decode, rebuild), seconds, scale = speed.measure(
            lambda: load_once(wl, saved["paths"]))
        decode_s.append(decode)
        rebuild_s.append(rebuild)
        load_raw.append(seconds)
        load_ref.append(seconds * scale)
        return structures

    def warm(structures):
        call = wl.dispatch(structures)
        timed_loop(call, stream, count=min(WARMUP_QUERIES, len(stream)))
        return call

    def query_chunk(structures, seconds) -> float:
        """Queries for ``seconds``, in slices of SLICE_S; each slice is scaled
        by the speed samples taken during it."""
        call = warm(structures)
        end, wall, scaled_wall = perf_counter() + seconds, 0.0, 0.0
        while (left := end - perf_counter()) > 0:
            begin, spent = perf_counter(), speed.spent
            q, lat, ans, slice_wall = timed_loop(call, stream, seconds=min(SLICE_S, left),
                                                 offset=len(issued), speed=speed)
            scale = speed.scale(begin, perf_counter())
            issued.extend(q)
            latencies.extend(lat)
            scaled.extend(t * scale for t in lat)
            answers.extend(ans)
            wall += slice_wall
            scaled_wall += (slice_wall - (speed.spent - spent)) * scale
        return wall, scaled_wall

    with speed:
        if not traced:
            # Set-ups, loads and query chunks alternate, so each metric samples
            # the whole run. Each chunk continues the stream where the last
            # one stopped.
            chunk, wall, scaled_wall = args.seconds / (2 * REPS), 0.0, 0.0
            for rep in range(REPS):
                gc.collect()
                built, by_structure = build()
                raw, ref = query_chunk(built, chunk)
                wall, scaled_wall = wall + raw, scaled_wall + ref
                del built
                gc.collect()
                structures = load()
                raw, ref = query_chunk(structures, chunk)
                wall, scaled_wall = wall + raw, scaled_wall + ref
                if rep < REPS - 1:
                    del structures
            untraced_issued = issued
            record["latency_reference_speed"] = by_mode(wl, issued, scaled)
        else:
            build_tracer = Tracer()
            layers.trace_builds(build_tracer)
            try:
                built, by_structure = build(build_tracer)
            finally:
                build_tracer.uninstall()
            del built
            gc.collect()
            structures = load()
            call = warm(structures)
            parts = wl.parts(structures)
            # Untraced and traced runs of the same block alternate, so the ratio of
            # their times is taken over the same stretch of machine time.
            query_tracer = Tracer()
            delta = dict.fromkeys(layers.counters(parts), 0)
            untraced_issued = []
            untraced_s = traced_s = 0.0
            deadline = perf_counter() + args.seconds
            while perf_counter() < deadline:
                block, lat, ans, wall = timed_loop(call, stream, count=TRACE_BLOCK,
                                                   offset=len(untraced_issued), speed=speed)
                untraced_s += wall
                layers.trace_queries(query_tracer, parts)
                before = layers.counters(parts)
                try:
                    traced_answers, wall = traced_block(query_tracer, call, block,
                                                        query_tracer.queries)
                finally:
                    query_tracer.uninstall()
                for key, value in layers.counters(parts).items():
                    delta[key] += value - before[key]
                traced_s += wall
                issued += block + block
                untraced_issued += block
                latencies += lat
                answers += ans + traced_answers
            wall = untraced_s
    record["speed_probe_ms"] = {"samples": len(speed.seconds),
                                "median": statistics.median(speed.seconds) * 1e3,
                                "min": min(speed.seconds) * 1e3,
                                "reference": REFERENCE_PROBE_S * 1e3}
    record["setup"] = {"raw_s": setup_raw, "reference_speed_s": setup_ref,
                       "last_by_structure_raw_s": by_structure}
    record["persist"] = {k: saved[k] for k in ("artifact_s", "save_s", "container_bytes",
                                               "section_bytes")}
    record["persist"].update(load_raw_s=load_raw, load_reference_speed_s=load_ref,
                             decode_raw_s=decode_s, rebuild_raw_s=rebuild_s)

    failed, first, examples = gate(wl, issued, answers)
    attempted = len(answers)
    record["workload"] = wl.properties(structures, first)
    record["latency_all_samples"] = by_mode(wl, untraced_issued, latencies)
    record["queries"] = {"completed": len(latencies), "wall_s": wall,
                         "completed_per_s": len(latencies) / wall,
                         "distinct": len(stream)}
    record["failed_frac"] = failed / attempted
    record["failures"] = examples
    scan = getattr(wl, "scan_seconds", [])
    record["scan_baseline_us"] = statistics.fmean(scan) * 1e6 if scan else None

    if not traced:
        overall = record["latency_reference_speed"]["all"]
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "load_s": statistics.median(load_ref),
            "peak_rss_mb": peak_rss_mb(),
            "container_bytes": saved["container_bytes"],
            "query_p50_us": overall["p50_us"],
            "query_p99_us": overall["tail_us"],
            "queries_per_s": len(latencies) / scaled_wall,
        }
        units = END_TO_END
    else:
        metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
        metrics.update(layers.build_metrics(build_tracer))
        metrics.update(layers.structure_metrics(parts))
        metrics.update(layers.query_metrics(query_tracer, delta))
        metrics.update({
            "textindex.scan_baseline_us": record["scan_baseline_us"] or 0.0,
            "persist.save_s": saved["save_s"],
            "persist.decode_s": decode_s[0],
            "persist.rebuild_s": rebuild_s[0],
        })
        # One run-wide factor puts the layer times at reference speed too.
        scale = speed.median_scale()
        for name, unit in layers.PER_LAYER.items():
            if unit in ("s", "us"):
                metrics[name] *= scale
        metrics["trace.overhead_frac"] = traced_s / untraced_s
        for name, size in saved["section_bytes"].items():
            metrics[f"persist.section_bytes.{name}"] = size
        units = layers.PER_LAYER
        record["trace"] = {"untraced_s": untraced_s, "traced_s": traced_s,
                           "traced_queries": query_tracer.queries,
                           "example_query_spans": [
                               {"id": i, "parent": parent, "query": q, "name": name,
                                "us": (end - start) * 1e6}
                               for i, parent, q, name, start, end
                               in sorted(query_tracer.example)[:EXAMPLE_SPANS]]}
    return record, {name: (metrics[name], units[name]) for name in units}, attempted, failed


def report(record: dict, metrics: dict) -> None:
    s = record["stamps"]
    print(f"perfbench {s['workload']} seed={s['seed']} traced={int(s['traced'])}"
          f" config={s['config']} nproc={s['nproc']} python={s['python']}"
          f" numpy={s['numpy']} commit={s['git_commit']} source={s['source_sha256']}")
    for key, what in (("latency_reference_speed", "at reference speed"),
                      ("latency_all_samples", "as timed")):
        for mode, lat in record.get(key, {}).items():
            label = "query" if mode == "all" else mode
            print(f"  {label}_p50_us = {lat['p50_us']:.2f} us; {label}_p{lat['tail'] * 100:g}_us"
                  f" = {lat['tail_us']:.2f} us; samples = {lat['samples']} ({what})")
    q = record["queries"]
    print(f"  completed = {q['completed']} in {q['wall_s']:.3f} s"
          f" ({q['completed_per_s']:.2f} 1/s over {q['distinct']} distinct queries)")
    print(f"  failed_frac = {record['failed_frac']:.6f}")
    for example in record["failures"]:
        print(f"  FAILED {example}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    spans = record.get("trace", {}).get("example_query_spans", [])
    if spans:
        print(f"  first spans of traced query {spans[0]['query']}:")
        depth = {}
        for span in sorted(spans, key=lambda sp: sp["id"])[:12]:
            depth[span["id"]] = depth.get(span["parent"], -1) + 1
            print(f"    {'  ' * depth[span['id']]}{span['name']} {span['us']:.1f} us")
    print("record " + json.dumps(record, sort_keys=True, default=str))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gapindex" / "__init__.py").is_file():
        print(f"perfbench: gapindex sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        record, metrics, attempted, failed = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    report(record, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
