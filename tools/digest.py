"""Digest one benchmark workload's whole query stream: its answers, its
per-query counters and the structures it queries, one line each.

    python3 tools/digest.py --workload string-exists --seed 21 [--config smoke]
        [--per-query FILE]

The workload (inputs, structures and stream) comes from
``perfbench/workloads.py``, imported as it is; the package comes from the
``src`` next to this directory. The structures are built once and every
query of the stream is asked once, in order. Two checkouts that print the
same three lines gave the same answers at the same per-query cost over
the same stored sets.

* ``answers``: the repr of every answer.
* ``counters``: per query, the SSI calls (``ssi_calls()`` summed over the
  augmented instances) and backend probes it made, and each gapped
  index's ``last_plan_size``, ``last_raw_pairs`` and
  ``last_max_multiplicity`` after it; the smallest-shift index's probes.
* ``structures``: per augmented instance, its backend's stored sets,
  ``threshold`` and ``large`` flags, and the instance's
  ``dyadic_elements``, ``total_elements``, ``lowest_level`` and each
  base set's ``first_block_id``.

With ``--per-query FILE`` the tool also writes one JSON line per query,
in stream order: the query's number, a digest of its answer and the
counters the ``counters`` line digests (``ssi_calls``, ``probes``, and per
gapped index ``plan_size``, ``raw_pairs`` and ``max_multiplicity``; per
smallest-shift index ``shift_probes``). Two checkouts' files compare
query by query, e.g. that no query's calls rise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _feed(h, value) -> None:
    h.update(repr(value).encode())
    h.update(b"\n")


def _counters(parts: dict) -> tuple:
    augmented = parts["augmented"]
    return (
        sum(inst.ssi_calls() for inst in augmented),
        sum(inst.backend.probes for inst in augmented),
        [(g.last_plan_size, g.last_raw_pairs, g.last_max_multiplicity) for g in parts["gapped"]],
        [shift.probes for shift in parts["shift"]],
    )


def digest(workload: str, seed: int, config: str, per_query=None) -> dict[str, str]:
    """The three hex digests of one workload's stream; each query's line
    goes to ``per_query`` when it is an open file."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, config)
    structures = {name: step() for name, step in wl.build_steps()}
    parts = wl.parts(structures)
    call = wl.dispatch(structures)
    answers, counters, stored = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for inst in parts["augmented"]:
        backend = inst.backend
        _feed(stored, (backend.sets, backend.threshold, backend.large, inst.dyadic_elements,
                       inst.total_elements, inst.lowest_level,
                       [inst.first_block_id(i) for i in range(1, len(inst.base) + 1)]))
    before = _counters(parts)
    for number, q in enumerate(wl.stream):
        answer = call(q)
        _feed(answers, answer)
        after = _counters(parts)
        row = (after[0] - before[0], after[1] - before[1], after[2],
               [b - a for a, b in zip(before[3], after[3])])
        _feed(counters, row)
        before = after
        if per_query is not None:
            calls, probes, gapped, shift = row
            per_query.write(json.dumps({
                "query": number,
                "answer": hashlib.sha256(repr(answer).encode()).hexdigest()[:16],
                "ssi_calls": calls,
                "probes": probes,
                "plan_size": [g[0] for g in gapped],
                "raw_pairs": [g[1] for g in gapped],
                "max_multiplicity": [g[2] for g in gapped],
                "shift_probes": shift,
            }) + "\n")
    return {name: h.hexdigest()[:16]
            for name, h in (("answers", answers), ("counters", counters),
                            ("structures", stored))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["string-exists", "string-report", "set-questions"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", default="full", choices=["full", "smoke"])
    parser.add_argument("--per-query", metavar="FILE",
                        help="also write one JSON line of counters per query to FILE")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    with open(args.per_query, "w") if args.per_query else contextlib.nullcontext() as per_query:
        lines = digest(args.workload, args.seed, args.config, per_query)
    for name, value in lines.items():
        print(f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
