"""Command line: build, query, verify, bench and gen.

Exit codes: 0 success, 2 format/parse errors, 3 guard or budget rejections,
4 verification failure. Query output is line-delimited; `--count-queries`
appends `#`-prefixed counter lines that parsers can skip.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .backends import DEFAULT_MEM_BUDGET, parse_backend
from .bench import run_bench
from .errors import FormatError, GapIndexError, GuardError, VerificationError
from .gapped import gapped_exists, gapped_report, plan_cover
from .generators import random_collection, random_text
from .persist import (
    KINDS,
    build_artifact,
    load_artifact,
    make_backend,
    make_gapped_index,
    make_jumbled_index,
    make_reporting_index,
    make_shift_index,
    make_string_index,
    save_artifact,
)
from .reporting import report_shift
from .sets import MAX_UNIVERSE, format_collection
from .verify import verify_artifact

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_GUARD = 3
EXIT_VERIFY = 4


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gapindex")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build and persist an index")
    p_build.add_argument("input")
    p_build.add_argument("-o", "--out", required=True)
    p_build.add_argument("--kind", required=True, choices=KINDS)
    # Unset means linear and 0.5; smallest-shift refuses either when given,
    # and only smalluniverse takes --delta.
    p_build.add_argument("--backend", choices=["linear", "fulltab", "smalluniverse"])
    p_build.add_argument("--delta", type=float)
    p_build.add_argument("--mem-budget", type=int, default=DEFAULT_MEM_BUDGET)

    p_query = sub.add_parser("query", help="answer a query file against an index")
    p_query.add_argument("index")
    p_query.add_argument("queries")
    p_query.add_argument("--mode", default="exists", choices=["exists", "report"])
    p_query.add_argument("--count-queries", action="store_true")
    p_query.add_argument("--plan", action="store_true",
                         help="dump the cover plan for gapped queries")
    p_query.add_argument("--mem-budget", type=int, default=DEFAULT_MEM_BUDGET)

    p_verify = sub.add_parser("verify", help="run the oracle suite for an index")
    p_verify.add_argument("index")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--mem-budget", type=int, default=DEFAULT_MEM_BUDGET)

    p_bench = sub.add_parser("bench", help="run a bench spec, one JSON record per line")
    p_bench.add_argument("spec")
    p_bench.add_argument("--mem-budget", type=int, default=DEFAULT_MEM_BUDGET)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--kind", required=True, choices=["collection", "text"])
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=4)
    p_gen.add_argument("--total", type=int, default=100)
    p_gen.add_argument("--u", type=int, default=1000)
    p_gen.add_argument("--length", type=int, default=200)
    p_gen.add_argument("--sigma", type=int, default=4)
    return parser


def _cmd_build(args) -> int:
    with open(args.input, "rb") as fh:
        source = fh.read()
    if args.kind == "smallest-shift" and (args.backend, args.delta) != (None, None):
        raise FormatError("--backend and --delta do not apply to --kind smallest-shift,"
                          " which builds no backend")
    if args.delta is not None and args.backend != "smalluniverse":
        raise FormatError("--delta applies only to --backend smalluniverse")
    try:
        backend = parse_backend(args.backend or "linear",
                                0.5 if args.delta is None else args.delta)
    except ValueError as e:
        raise FormatError(str(e)) from None
    try:
        artifact = build_artifact(args.kind, source, backend, args.mem_budget)
    except UnicodeDecodeError as e:
        # Only a collection source is decoded; a text is indexed as bytes.
        raise FormatError(f"{args.input} is not UTF-8: {e}") from None
    save_artifact(args.out, artifact)
    manifest = dict(artifact.manifest)
    manifest["out"] = args.out
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def _read_lines(path: str) -> list[str]:
    """A query file's or bench spec's lines; bytes that are not UTF-8 are
    a format error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8: {e}") from None


def _parse_ints(tokens: list[str], want: int, line: str) -> list[int]:
    if len(tokens) != want:
        raise FormatError(f"expected {want} fields, got {len(tokens)}: {line!r}")
    try:
        return [int(t) for t in tokens]
    except ValueError as e:
        raise FormatError(f"bad integer in {line!r}: {e}") from None


def _pattern(token: str) -> bytes:
    """A gapped-string pattern field: its UTF-8 bytes, or, after a ``hex:``
    prefix, the bytes its hex digits spell, so a pattern can hold
    whitespace or bytes that are not UTF-8."""
    if not token.startswith("hex:"):
        return token.encode()
    try:
        return bytes.fromhex(token[4:])
    except ValueError as e:
        raise FormatError(f"bad hex pattern {token!r}: {e}") from None


def _write_report(pairs, out) -> None:
    """A report answer: ``occ=<n>``, then one ``a b`` line per pair."""
    out.write(f"occ={len(pairs)}\n")
    for a, b in pairs:
        out.write(f"{a} {b}\n")


class _QueryEngine:
    """Per-kind query answering over a loaded artifact."""

    def __init__(self, artifact, mode: str, show_plan: bool):
        self.artifact = artifact
        self.mode = mode
        self.show_plan = show_plan
        kind = artifact.kind
        if kind == "ssi":
            self.index = (
                make_reporting_index(artifact) if mode == "report" else None
            )
            self.backend = self.index.backend if self.index else make_backend(artifact)
        elif kind == "gapped-set":
            self.index = make_gapped_index(artifact)
        elif kind == "gapped-string":
            self.index = make_string_index(artifact)
        elif kind == "jumbled":
            self.index = make_jumbled_index(artifact)
        elif kind == "smallest-shift":
            self.index = make_shift_index(artifact)

    def counters(self) -> str:
        kind = self.artifact.kind
        if kind == "ssi":
            calls = self.index.existence_calls if self.index else 0
            return f"# probes={self.backend.probes} existence_calls={calls}"
        if kind in ("gapped-set", "gapped-string"):
            g = self.index if kind == "gapped-set" else self.index.gapped
            return (
                f"# ssi_calls={g.ssi_calls()}"
                f" plan_size={g.last_plan_size}"
                f" raw_pairs={g.last_raw_pairs}"
            )
        if kind == "smallest-shift":
            return f"# probes={self.index.probes}"
        return "#"

    def _write_plan(self, g, lo: int, hi: int, out) -> None:
        """With ``--plan``, the query's one plan for [lo, hi] clamped to the
        universe, as ``#`` lines; nothing when the clamped gap is empty."""
        if not self.show_plan:
            return
        clamped = g._clamped(lo, hi)
        if clamped is not None:
            for text in plan_cover(*clamped).describe().splitlines():
                out.write(f"# {text}\n")

    def answer(self, line: str, out) -> None:
        kind = self.artifact.kind
        tokens = line.split()
        if kind == "ssi":
            i, j, s = _parse_ints(tokens, 3, line)
            if self.mode == "exists":
                cert = self.backend.exists(i, j, s)
                out.write(f"YES {cert.a} {cert.b}\n" if cert else "NO\n")
            else:
                _write_report(report_shift(self.index, i, j, s), out)
        elif kind == "gapped-set":
            i, j, lo, hi = _parse_ints(tokens, 4, line)
            self._write_plan(self.index, lo, hi, out)
            if self.mode == "exists":
                hit = gapped_exists(self.index, i, j, lo, hi)
                out.write(f"YES {hit[0]} {hit[1]}\n" if hit else "NO\n")
            else:
                _write_report(gapped_report(self.index, i, j, lo, hi), out)
        elif kind == "gapped-string":
            if len(tokens) != 4:
                raise FormatError(f"expected 'P1 P2 lo hi', got {line!r}")
            p1, p2 = _pattern(tokens[0]), _pattern(tokens[1])
            lo, hi = _parse_ints(tokens[2:], 2, line)
            self._write_plan(self.index.gapped, lo, hi, out)
            if self.mode == "exists":
                hit = self.index.exists(p1, p2, lo, hi)
                out.write(f"YES {hit[0]} {hit[1]}\n" if hit else "NO\n")
            else:
                _write_report(self.index.report(p1, p2, lo, hi), out)
        elif kind == "jumbled":
            pattern = _parse_ints(tokens, self.index.sigma, line)
            if self.mode == "exists":
                out.write("YES\n" if self.index.exists(pattern) else "NO\n")
            else:
                _write_report(self.index.report(pattern), out)
        elif kind == "smallest-shift":
            i, j = _parse_ints(tokens, 2, line)
            from .smallest_shift import smallest_shift

            shift = smallest_shift(self.index, i, j)
            out.write("NONE\n" if shift is None else f"{shift}\n")


def _cmd_query(args) -> int:
    artifact = load_artifact(args.index, args.mem_budget)
    engine = _QueryEngine(artifact, args.mode, args.plan)
    lines = [ln.strip() for ln in _read_lines(args.queries) if ln.strip()]
    status = EXIT_OK
    for line in lines:
        try:
            engine.answer(line, sys.stdout)
            if args.count_queries:
                print(engine.counters())
        except FormatError as e:
            print(f"format error: {e}", file=sys.stderr)
            status = EXIT_FORMAT
    return status


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise FormatError(f"--trials must be >= 1, got {args.trials}")
    artifact = load_artifact(args.index, args.mem_budget)
    ok, lines = verify_artifact(artifact, args.trials, args.seed)
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_bench(args) -> int:
    body = "".join(_read_lines(args.spec)).strip()
    try:
        spec = json.loads(body) if body else {}
    except json.JSONDecodeError as e:
        raise FormatError(f"bench spec is not valid JSON: {e}") from None
    for record in run_bench(spec, args.mem_budget):
        print(json.dumps(record, sort_keys=True))
    return EXIT_OK


def _cmd_gen(args) -> int:
    for name in ("k", "total", "u", "length"):
        if getattr(args, name) < 1:
            raise FormatError(f"--{name} must be >= 1, got {getattr(args, name)}")
    if args.u > MAX_UNIVERSE:
        raise FormatError(f"--u must be at most 2^40, got {args.u}")
    if not 1 <= args.sigma <= 26:
        raise FormatError(f"--sigma must be in 1..26, got {args.sigma}")
    rng = random.Random(args.seed)
    if args.kind == "collection":
        collection = random_collection(rng, args.k, args.total, args.u)
        payload = format_collection(collection).encode()
    else:
        payload = random_text(rng, args.length, args.sigma)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(json.dumps({"kind": args.kind, "out": args.out, "bytes": len(payload),
                      "seed": args.seed}, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "build": _cmd_build,
        "query": _cmd_query,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "gen": _cmd_gen,
    }[args.command]
    try:
        if getattr(args, "mem_budget", 0) < 0:
            raise FormatError(f"--mem-budget must be >= 0, got {args.mem_budget}")
        return handler(args)
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except GuardError as e:
        print(f"guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    except VerificationError as e:
        print(f"verification: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except FileNotFoundError as e:
        print(f"format error: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except GapIndexError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
