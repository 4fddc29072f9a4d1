"""Compare two per-query files of ``tools/digest.py``, query by query.

    python3 tools/compare_queries.py OLD NEW

OLD and NEW are files written by ``tools/digest.py --per-query`` for the
same workload, seed and config, e.g. from two checkouts, or two pins of
``tests/pins/`` that hold their rows. For each counter (``ssi_calls``,
``probes``, and ``plan_size``, ``raw_pairs``, ``max_multiplicity`` and
``shift_probes`` summed over their indexes) the tool prints both totals
and how many queries rose and fell. It exits 1 when the files hold a
different number of queries or any query's answer digest differs, naming
the first such queries, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

COUNTERS = ("ssi_calls", "probes", "plan_size", "raw_pairs", "max_multiplicity",
            "shift_probes")


def parse(text: str) -> tuple[dict[str, str], list[dict]]:
    """A pin's ``<name> <value>`` lines as a dict, and its JSON rows."""
    lines = text.splitlines()
    return (dict(line.split(" ", 1) for line in lines if line[:1] not in ("{", "")),
            [json.loads(line) for line in lines if line.startswith("{")])


def value(row: dict, counter: str) -> int:
    got = row[counter]
    return sum(got) if isinstance(got, list) else got


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
        pairs = [(value(o, counter), value(n, counter)) for o, n in zip(old, new)]
        rose = sum(b > a for a, b in pairs)
        fell = sum(b < a for a, b in pairs)
        lines.append(f"{counter} old {sum(a for a, _ in pairs)} new {sum(b for _, b in pairs)}"
                     f" rose {rose} fell {fell}")
    return lines, not changed


def pin_diff(old: str, new: str) -> list[str]:
    """Each line that differs between two pins, as ``<name> old <value> new
    <value>``; when both hold rows, ``compare``'s lines stand for the
    counter totals."""
    (old_head, old_rows), (new_head, new_rows) = parse(old), parse(new)
    rows = bool(old_rows and new_rows)
    return [f"{name} old {old_head.get(name)} new {new_head.get(name)}"
            for name in dict.fromkeys([*old_head, *new_head])
            if old_head.get(name) != new_head.get(name) and not (rows and name in COUNTERS)
            ] + (compare(old_rows, new_rows)[0] if rows else [])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="per-query file of the reference checkout")
    parser.add_argument("new", help="per-query file of the checkout compared")
    args = parser.parse_args(argv)
    lines, same = compare(*(parse(Path(path).read_text())[1] for path in (args.old, args.new)))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
