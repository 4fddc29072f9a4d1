"""Digest one fixed ``gapindex`` command-line session: every command's
argv, exit code, stdout and stderr, and the bytes of every file it writes.

    python3 tools/cli_digest.py

The package comes from the ``src`` next to this directory. The session runs
in a new temporary directory, whose path is replaced by ``<tmp>`` before it
is digested, and each command is one ``gapindex.cli.main`` call. It prints
the session's pin: a ``session`` digest of everything with each counter
line (``--count-queries``: ``#`` and ``name=value`` pairs) cut to ``#``, the
total of each counter field, and a ``counters`` digest of those lines. Two
checkouts that print the same pin answered the same session byte for byte.

The session:

* ``gen``: a collection of 36 elements over u=200 and texts of 48 and 16
  letters over three.
* One more collection, with values up to 2^33: sets of 255 and 256 close
  values, two sparse sets of 10 below 10^8, 10 values near 2^33 and sets
  of 3, 5 and 12. Its tables take every stored layout: dense rows of one
  and two bytes, sorted ``array('i')`` and ``array('q')`` tables, lists.
* ``build`` of every artifact kind but ``smallest-shift`` under
  ``linear``, ``fulltab`` and ``smalluniverse`` delta 0.0 and 0.5. The set
  kinds build the small collection, and ``fulltab`` builds the 16-letter
  text, so every reporting structure ``fulltab`` tabulates holds at most
  ~40 elements. The wide collection builds ``ssi`` under each backend and
  ``gapped-set`` under ``linear`` and delta 0.5. ``smallest-shift``, which
  builds no backend, is built once with no backend flag; two more builds
  pass ``--backend fulltab`` and ``--backend smalluniverse --delta 0.0``
  and are refused.
* Per container, ``query --mode exists`` and ``--mode report``, both with
  ``--count-queries`` and, on the gapped kinds, ``--plan``; a gapped-string
  query file repeats its first query with the first pattern as a ``hex:``
  escape, and each query file ends in one line that is an error: a set id
  past the collection or a malformed line. Then ``verify --trials 50``. The wide ``ssi``
  containers under ``fulltab`` and delta 0.0 answer ``exists`` only: a
  report, and ``verify``, which checks reports, would tabulate every
  dyadic block of its 561 elements.
* ``query --mode report`` of a format-1 ``gapped-set`` container of the
  small collection under ``linear``, written by ``write_v1_container``, a
  frozen copy of that format's writer, so the session also reads the old
  format.

The containers are zlib-compressed, so the ``session`` digest, though not
the answers or the counters, can differ under another zlib build.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import struct
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BACKENDS = (("linear",), ("fulltab",), ("smalluniverse", "0.0"), ("smalluniverse", "0.5"))
KINDS = ("ssi", "gapped-set", "gapped-string", "jumbled", "smallest-shift")


def _backend_flags(backend: tuple[str, ...]) -> list[str]:
    return [f for pair in zip(("--backend", "--delta"), backend) for f in pair]


def _wide_collection() -> str:
    rng = random.Random(33)
    sets = [
        list(range(1, 256)),
        list(range(2, 514, 2)),
        sorted(rng.sample(range(1, 10**8), 10)),
        sorted(rng.sample(range(1, 10**8), 10)),
        sorted(rng.sample(range(2**33 - 10**6, 2**33 + 1), 10)),
        [7, 900, 10**7],
        [3, 50, 4000, 2**32, 2**33 - 5],
        sorted(rng.sample(range(1, 31), 12)),
    ]
    return "\n".join([f"{2**33} {len(sets)}"] + [" ".join(map(str, s)) for s in sets]) + "\n"


def _read_sets(path: Path) -> list[list[int]]:
    return [list(map(int, line.split())) for line in path.read_text().splitlines()[1:]]


def write_v1_container(path: Path, kind: str, backend: str, collection: Path) -> None:
    """A format-1 container of a collection file: each section as
    uncompressed little-endian int64 values under tag 0."""
    sets, offsets = _read_sets(collection), [0]
    for values in sets:
        offsets.append(offsets[-1] + len(values))
    sections = {"universe": [int(collection.read_text().split()[0])], "set_offsets": offsets,
                "set_elements": [x for values in sets for x in values]}
    payload = struct.pack("<I", len(sections)) + b"".join(
        struct.pack("<H", len(name)) + name.encode() + struct.pack("<BQ", 0, 8 * len(values))
        + struct.pack(f"<{len(values)}q", *values) for name, values in sections.items())
    manifest = json.dumps({"backend": backend, "counters": {}, "format_version": 1, "kind": kind,
                           "payload_digest": hashlib.sha256(payload).hexdigest()},
                          sort_keys=True).encode()
    path.write_bytes(b"GIDX" + struct.pack("<IQ", 1, len(manifest)) + manifest + payload)


def _set_queries(sets: list[list[int]], kind: str, rng: random.Random) -> str:
    """Ten queries of a set kind, then one that names a set past the
    collection. The first asks sets 1 and 2 at the difference of their first
    elements; the others draw the pair, and every other one a realized
    difference."""
    lines = []
    for t in range(10):
        if t == 0:
            i, j, s = 1, 2, sets[1][0] - sets[0][0]
        else:
            i, j = rng.randint(1, len(sets)), rng.randint(1, len(sets))
            s = rng.choice(sets[j - 1]) - rng.choice(sets[i - 1]) if t % 2 else rng.randint(-99, 99)
        if kind == "ssi":
            lines.append(f"{i} {j} {s}")
        elif kind == "gapped-set":
            lo = max(0, abs(s) - rng.randint(0, 40))
            lines.append(f"{i} {j} {lo} {lo + rng.randint(0, 120)}")
        else:
            lines.append(f"{i} {j}")
    rest = {"ssi": " 0", "gapped-set": " 0 1"}.get(kind, "")
    lines.append(f"{len(sets) + 1} 1{rest}")
    return "\n".join(lines) + "\n"


def _text_queries(text: bytes, kind: str, rng: random.Random) -> str:
    lines = []
    for _ in range(10):
        if kind == "gapped-string":
            p1, p2 = (text[t:t + rng.randint(1, 3)].decode()
                      for t in (rng.randrange(len(text)), rng.randrange(len(text))))
            lo = rng.randint(0, len(text) // 2)
            lines.append(f"{p1} {p2} {lo} {lo + rng.randint(0, len(text) // 2)}")
        else:
            start = rng.randrange(len(text) - 3)
            window = text[start:start + rng.randint(1, 4)]
            lines.append(" ".join(str(window.count(c)) for c in b"abc"))
    if kind == "gapped-string":
        # The first query again, its first pattern spelled in hex.
        p1, rest = lines[0].split(" ", 1)
        lines.append(f"hex:{p1.encode().hex()} {rest}")
    lines.append("ab" if kind == "gapped-string" else "1 x 0")
    return "\n".join(lines) + "\n"


def run_session(tmp: Path, record) -> None:
    """Run the session in ``tmp``, handing ``record`` each command's argv
    and the files it wrote."""
    from gapindex import cli

    def run(*argv: str, writes: tuple[Path, ...] = ()) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        record(argv, code, out.getvalue(), err.getvalue(), [p.read_bytes() for p in writes])

    small, text, tiny, wide = (tmp / name for name in ("small.txt", "text.txt", "tiny.txt",
                                                       "wide.txt"))
    run("gen", "--kind", "collection", "-o", str(small), "--seed", "3", "--k", "4",
        "--total", "36", "--u", "200", writes=(small,))
    run("gen", "--kind", "text", "-o", str(text), "--seed", "5", "--length", "48",
        "--sigma", "3", writes=(text,))
    run("gen", "--kind", "text", "-o", str(tiny), "--seed", "6", "--length", "16",
        "--sigma", "3", writes=(tiny,))
    wide.write_text(_wide_collection())
    rng = random.Random(7)
    queries = {}
    for kind in KINDS:
        if kind in ("gapped-string", "jumbled"):
            for name, source in (("text", text), ("tiny", tiny)):
                queries[kind, name] = _text_queries(source.read_bytes(), kind, rng)
        else:
            queries[kind, "small"] = _set_queries(_read_sets(small), kind, rng)
    for kind in ("ssi", "gapped-set"):
        queries[kind, "wide"] = _set_queries(_read_sets(wide), kind, rng)
    for (kind, name), body in queries.items():
        (tmp / f"{kind}-{name}.q").write_text(body)

    def session(kind: str, source: Path, backend: tuple[str, ...], reports: bool = True):
        name = source.stem
        container = tmp / f"{'-'.join((kind, name, *backend))}.gidx"
        run("build", str(source), "-o", str(container), "--kind", kind,
            *_backend_flags(backend), writes=(container,))
        plan = ("--plan",) if kind.startswith("gapped") else ()
        for mode in ("exists", "report") if reports else ("exists",):
            run("query", str(container), str(tmp / f"{kind}-{name}.q"), "--mode", mode,
                "--count-queries", *plan)
        if reports:  # verify checks reports too
            run("verify", str(container), "--trials", "50")

    for kind in KINDS:
        if kind == "smallest-shift":
            # It builds no backend: one build, and each backend flag refused.
            session(kind, small, ())
            for backend in BACKENDS[1:3]:
                run("build", str(small), "-o", str(tmp / "refused.gidx"), "--kind", kind,
                    *_backend_flags(backend))
            continue
        for backend in BACKENDS:
            if kind in ("gapped-string", "jumbled"):
                session(kind, tiny if backend == ("fulltab",) else text, backend)
            else:
                session(kind, small, backend)
    # Every block of the wide collection is stored under fulltab and delta
    # 0.0, so those containers answer no report.
    for backend in BACKENDS:
        reports = backend in (("linear",), ("smalluniverse", "0.5"))
        session("ssi", wide, backend, reports)
        if reports:
            session("gapped-set", wide, backend)
    old = tmp / "gapped-set-small-v1.gidx"
    write_v1_container(old, "gapped-set", "linear", small)
    run("query", str(old), str(tmp / "gapped-set-small.q"), "--mode", "report", "--count-queries")


COUNTER_LINE = re.compile(r"^#(?: \w+=-?\d+)*$", re.MULTILINE)


def digest() -> str:
    session, counters, totals = hashlib.sha256(), hashlib.sha256(), Counter()
    with tempfile.TemporaryDirectory() as name:

        def record(argv, code, out, err, written):
            for line in COUNTER_LINE.findall(out):
                counters.update(line.encode() + b"\n")
                totals.update({k: int(v) for k, v in (f.split("=") for f in line.split()[1:])})
            for part in (repr(argv), str(code), COUNTER_LINE.sub("#", out), err):
                session.update(part.replace(name, "<tmp>").encode() + b"\0")
            session.update(b"".join(data + b"\0" for data in written))

        run_session(Path(name), record)
    return "".join([f"session {session.hexdigest()[:16]}\n",
                    *(f"{field} {totals[field]}\n" for field in sorted(totals)),
                    f"counters {counters.hexdigest()[:16]}\n"])


def main() -> int:
    sys.path[:0] = [str(ROOT / "src")]
    sys.stdout.write(digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
