"""Pin one benchmark workload's query stream: its answers, the structures
it queries and what each query counted.

    python3 tools/digest.py --workload string-exists --seed 21 [--config smoke]
        [--per-query FILE]

The workload (inputs, structures and stream) comes from
``perfbench/workloads.py``, imported as it is; the package comes from the
``src`` next to this directory. The structures are built once and every
query of the stream is asked once, in order. The output is the stream's
pin, as ``tests/pins/`` holds them:

* ``answers``: a digest of every answer's repr.
* ``structures``: a digest of, per augmented instance, its backend's
  stored sets, ``threshold`` and ``large`` flags, and the instance's
  ``dyadic_elements``, ``total_elements``, ``lowest_level`` and each base
  set's ``first_block_id``.
* Per counter of ``compare_queries.COUNTERS``, its total over the stream.
* The rows, one JSON line per query: its number, its answer's digest, the
  SSI calls (``ssi_calls()`` summed over the augmented instances) and
  backend probes it made, each gapped index's ``last_plan_size``,
  ``last_raw_pairs`` and ``last_max_multiplicity`` after it (all three are
  set to 0 before each query, so a row holds only what its own query
  left), and each smallest-shift index's probes. Over ``ROWS_AS_TEXT``
  queries, one ``rows`` digest of those lines stands for them.

``--per-query FILE`` writes every row to FILE, for
``tools/compare_queries.py``. ``record`` and ``pin`` serve any stream.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from compare_queries import COUNTERS, value

ROOT = Path(__file__).resolve().parent.parent
ROWS_AS_TEXT = 100


def _hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record(call, stream, augmented, gapped, shift=()) -> tuple[str, list[dict]]:
    """Ask every query of ``stream`` through ``call``, in order: the
    answers' digest and one row per query."""
    def counts():
        return (sum(inst.ssi_calls() for inst in augmented),
                sum(inst.backend.probes for inst in augmented), [s.probes for s in shift])

    answers, rows, before = hashlib.sha256(), [], counts()
    for number, q in enumerate(stream):
        # A query that does not set a counter leaves it 0, not as the last
        # query that set it left it.
        for g in gapped:
            g.last_plan_size = g.last_raw_pairs = g.last_max_multiplicity = 0
        answer = repr(call(q))
        answers.update(answer.encode() + b"\n")
        after = counts()
        rows.append({
            "query": number, "answer": _hex(answer),
            "ssi_calls": after[0] - before[0], "probes": after[1] - before[1],
            "plan_size": [g.last_plan_size for g in gapped],
            "raw_pairs": [g.last_raw_pairs for g in gapped],
            "max_multiplicity": [g.last_max_multiplicity for g in gapped],
            "shift_probes": [b - a for a, b in zip(before[2], after[2])],
        })
        before = after
    return answers.hexdigest()[:16], rows


def pin(answers: str, rows: list[dict], structures: str | None = None) -> str:
    """The text of a stream's pin."""
    lines = [f"answers {answers}"] + ([f"structures {structures}"] if structures else [])
    lines += [f"{counter} {sum(value(row, counter) for row in rows)}" for counter in COUNTERS]
    text = [json.dumps(row) for row in rows]
    if len(text) > ROWS_AS_TEXT:
        text = ["rows " + _hex("\n".join(text))]
    return "\n".join(lines + text) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["string-exists", "string-report", "set-questions"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--config", default="full", choices=["full", "smoke"])
    parser.add_argument("--per-query", metavar="FILE",
                        help="also write every row, one JSON line per query, to FILE")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.config)
    built = {name: step() for name, step in wl.build_steps()}
    parts = wl.parts(built)
    structures = _hex("".join(
        repr((inst.backend.sets, inst.backend.threshold, inst.backend.large,
              inst.dyadic_elements, inst.total_elements, inst.lowest_level,
              [inst.first_block_id(i) for i in range(1, len(inst.base) + 1)])) + "\n"
        for inst in parts["augmented"]))
    answers, rows = record(wl.dispatch(built), wl.stream, parts["augmented"], parts["gapped"],
                           parts["shift"])
    if args.per_query:
        Path(args.per_query).write_text("".join(json.dumps(row) + "\n" for row in rows))
    sys.stdout.write(pin(answers, rows, structures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
