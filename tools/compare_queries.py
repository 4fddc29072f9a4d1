"""Compare two per-query files of ``tools/digest.py``, query by query.

    python3 tools/compare_queries.py OLD NEW

OLD and NEW are files written by ``tools/digest.py --per-query`` for the
same workload, seed and config, e.g. from two checkouts. For each counter
(``ssi_calls``, ``probes``, and ``plan_size``, ``raw_pairs``,
``max_multiplicity`` and ``shift_probes`` summed over their indexes) the
tool prints both totals and how many queries rose and fell. It exits 1
when the files hold a different number of queries or any query's answer
digest differs, naming the first such queries, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

COUNTERS = ("ssi_calls", "probes", "plan_size", "raw_pairs", "max_multiplicity",
            "shift_probes")


def _rows(path: str) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _value(row: dict, counter: str) -> int:
    value = row[counter]
    return sum(value) if isinstance(value, list) else value


def compare(old: list[dict], new: list[dict]) -> tuple[list[str], bool]:
    """The report's lines, and whether both files give the same answers."""
    if len(old) != len(new):
        return [f"queries differ: {len(old)} old, {len(new)} new"], False
    lines = [f"queries {len(old)}"]
    changed = [o["query"] for o, n in zip(old, new) if o["answer"] != n["answer"]]
    if changed:
        shown = ", ".join(map(str, changed[:10]))
        lines.append(f"answers differ on {len(changed)} queries: {shown}")
    else:
        lines.append("answers equal")
    for counter in COUNTERS:
        pairs = [(_value(o, counter), _value(n, counter)) for o, n in zip(old, new)]
        rose = sum(b > a for a, b in pairs)
        fell = sum(b < a for a, b in pairs)
        lines.append(f"{counter} old {sum(a for a, _ in pairs)} new {sum(b for _, b in pairs)}"
                     f" rose {rose} fell {fell}")
    return lines, not changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="per-query file of the reference checkout")
    parser.add_argument("new", help="per-query file of the checkout compared")
    args = parser.parse_args(argv)
    lines, same = compare(_rows(args.old), _rows(args.new))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
