import hashlib
import io
import json
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapindex import cli
from gapindex.backends import LinearScan, SmallUniverse, build_backend, parse_backend
from gapindex.gapped import plan_cover
from gapindex.generators import random_collection
from gapindex.persist import (
    FORMAT_VERSION,
    MAGIC,
    Artifact,
    build_artifact,
    load_artifact,
    save_artifact,
)
from gapindex.sets import format_collection
from gapindex.textindex import baseline_linear_scan, build_gapped_string_index

import test_container_format as fmt


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def collection_file(tmp_path):
    rng = random.Random(44)
    c = random_collection(rng, 4, 60, 90)
    path = tmp_path / "inst.txt"
    path.write_text(format_collection(c))
    return path


def build(tmp_path, capsys, source, kind, *extra):
    out = tmp_path / f"{kind}.gidx"
    code, stdout, _ = run_cli(
        ["build", str(source), "-o", str(out), "--kind", kind, *extra], capsys
    )
    assert code == 0
    return out, json.loads(stdout)


def query_output(capsys, index, queries, *flags):
    code, out, err = run_cli(["query", str(index), str(queries), *flags], capsys)
    return code, out, err


def test_build_manifest_counters(tmp_path, capsys, collection_file):
    _, manifest = build(tmp_path, capsys, collection_file, "ssi", "--backend", "fulltab")
    assert manifest["kind"] == "ssi"
    assert manifest["backend"] == "fulltab"
    assert manifest["counters"]["k"] == 4
    assert "source_digest" in manifest


def test_gapped_string_manifest_accounting(tmp_path, capsys):
    src = tmp_path / "text.txt"
    src.write_bytes(b"banana")
    _, manifest = build(tmp_path, capsys, src, "gapped-string")
    counters = manifest["counters"]
    assert counters["n"] == 6
    assert counters["set_elements"] == 16
    assert counters["set_elements_bound"] == 18
    # The top level a plan over a gap inside [0, 5] asks: level 1, which the
    # exact instance answers, so no quotient level is built.
    assert counters["levels"] == 1


def test_universe_guard_exit_code(tmp_path, capsys):
    src = tmp_path / "huge.txt"
    src.write_text(f"{(1 << 40) + 1} 1\n5\n")
    out = tmp_path / "x.gidx"
    code, _, err = run_cli(
        ["build", str(src), "-o", str(out), "--kind", "ssi"], capsys
    )
    assert code == 3
    assert "guard" in err


def test_format_error_exit_code(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("not a header\n")
    code, _, err = run_cli(
        ["build", str(src), "-o", str(tmp_path / "x.gidx"), "--kind", "ssi"], capsys
    )
    assert code == 2


def assert_utf8_format_error(code, out, err, path):
    """Exit 2 with one ``format error:`` line naming the file, no traceback."""
    assert (code, out) == (2, "")
    assert err.startswith(f"format error: {path} is not UTF-8:"), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("kind", ["ssi", "gapped-set", "smallest-shift"])
def test_build_rejects_a_source_that_is_not_utf8(tmp_path, capsys, kind):
    src = tmp_path / "bad.txt"
    src.write_bytes(b"10 1\n1 2 \xff\n")
    out = tmp_path / "x.gidx"
    result = run_cli(["build", str(src), "-o", str(out), "--kind", kind], capsys)
    assert_utf8_format_error(*result, src)
    assert not out.exists()


def test_query_rejects_a_query_file_that_is_not_utf8(tmp_path, capsys):
    src = tmp_path / "text.txt"
    src.write_bytes(b"abracadabra")
    index, _ = build(tmp_path, capsys, src, "gapped-string")
    queries = tmp_path / "bad.q"
    queries.write_bytes(b"ab \xff 0 3\n")
    assert_utf8_format_error(*query_output(capsys, index, queries), queries)


def test_bench_rejects_a_spec_that_is_not_utf8(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"ssi": [\xff]}')
    assert_utf8_format_error(*run_cli(["bench", str(spec)], capsys), spec)


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run_cli(
        ["build", str(tmp_path / "nope.txt"), "-o", str(tmp_path / "x"), "--kind", "ssi"],
        capsys,
    )
    assert code == 2


def test_budget_exit_code(tmp_path, capsys, collection_file):
    code, _, err = run_cli(
        [
            "build", str(collection_file), "-o", str(tmp_path / "x.gidx"),
            "--kind", "ssi", "--backend", "fulltab", "--mem-budget", "64",
        ],
        capsys,
    )
    assert code == 3


def test_negative_mem_budget_rejected_before_building(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    queries = tmp_path / "q.txt"
    queries.write_text("1 2 3\n")
    spec = tmp_path / "spec.json"
    spec.write_text("{}")
    out = tmp_path / "neg.gidx"
    for argv in (
        ["build", str(collection_file), "-o", str(out), "--kind", "ssi",
         "--backend", "linear"],
        ["query", str(index), str(queries)],
        ["verify", str(index), "--trials", "5"],
        ["bench", str(spec)],
    ):
        code, stdout, err = run_cli([*argv, "--mem-budget", "-1"], capsys)
        assert code == 2, argv
        assert stdout == ""
        assert "--mem-budget" in err
    assert not out.exists()


def test_corrupted_container_rejected(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    blob = bytearray(index.read_bytes())
    blob[-1] ^= 0xFF
    bad = tmp_path / "bad.gidx"
    bad.write_bytes(bytes(blob))
    queries = tmp_path / "q.txt"
    queries.write_text("1 2 3\n")
    code, _, err = query_output(capsys, bad, queries)
    assert code == 2
    assert "digest mismatch" in err


def test_query_round_trip_matches_in_memory(tmp_path, capsys, collection_file):
    """build -> persist -> load -> query equals querying the fresh build."""
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    queries = tmp_path / "q.txt"
    rng = random.Random(3)
    lines = [f"{rng.randint(1, 4)} {rng.randint(1, 4)} {rng.randint(-90, 90)}" for _ in range(40)]
    queries.write_text("\n".join(lines) + "\n")
    _, persisted_out, _ = query_output(capsys, index, queries, "--mode", "report")

    source = collection_file.read_bytes()
    artifact = build_artifact("ssi", source, LinearScan())
    engine = cli._QueryEngine(artifact, "report", False)
    buffer = io.StringIO()
    for line in lines:
        engine.answer(line, buffer)
    assert buffer.getvalue() == persisted_out


def test_query_all_kinds_round_trip(tmp_path, capsys):
    text = tmp_path / "text.txt"
    text.write_bytes(b"abracadabra")
    cases = [
        ("gapped-string", "abra ra 1 9\nzz ra 0 5\n", "report"),
        ("jumbled", "2 1 0 0 1\n", "report"),
    ]
    for kind, body, mode in cases:
        index, _ = build(tmp_path, capsys, text, kind)
        queries = tmp_path / f"{kind}.q"
        queries.write_text(body)
        code, first, _ = query_output(capsys, index, queries, "--mode", mode)
        assert code == 0
        code, second, _ = query_output(capsys, index, queries, "--mode", mode)
        assert first == second


def test_query_golden_outputs(tmp_path, capsys):
    text = tmp_path / "banana.txt"
    text.write_bytes(b"banana")
    index, _ = build(tmp_path, capsys, text, "gapped-string")
    queries = tmp_path / "g.q"
    queries.write_text("an na 1 3\n")
    _, out, _ = query_output(capsys, index, queries, "--mode", "report")
    assert out == "occ=3\n2 3\n2 5\n4 5\n"

    jtext = tmp_path / "j.txt"
    jtext.write_bytes(b"acaacabd")
    index, _ = build(tmp_path, capsys, jtext, "jumbled")
    queries = tmp_path / "j.q"
    queries.write_text("4 1 2 1\n")
    _, out, _ = query_output(capsys, index, queries, "--mode", "report")
    assert out == "occ=1\n1 8\n"


@pytest.mark.parametrize("mode", ["exists", "report"])
def test_gapped_string_patterns_take_a_hex_escape(tmp_path, capsys, mode):
    """A ``hex:`` pattern is the bytes its digits spell, in either case, so
    a query can hold whitespace and bytes that are not UTF-8: a container
    answers it as the in-memory index answers those bytes, and a UTF-8
    pattern spelled in hex as the plain pattern."""
    text = b"ab \xff\tab \xffcd\xff \xfe ab \xff"
    src = tmp_path / "text.bin"
    src.write_bytes(text)
    index, _ = build(tmp_path, capsys, src, "gapped-string")
    idx = build_gapped_string_index(text, LinearScan())
    cases = [(b" \xff", b"\xff", 0, 20), (b"ab", b"\t", 0, 5), (b"\xfe", b"ab", 1, 4),
             (b"ab", b"ab", 1, 20), (b"\xff \xfe", b"cd", 0, 9)]
    lines, want = [], []
    for p1, p2, lo, hi in cases:
        spelled = [f"hex:{p1.hex()} hex:{p2.hex().upper()} {lo} {hi}"]
        if (p1 + p2).isalpha():
            spelled.append(f"{p1.decode()} {p2.decode()} {lo} {hi}")
        for line in spelled:
            lines.append(line)
            if mode == "exists":
                hit = idx.exists(p1, p2, lo, hi)
                want.append(f"YES {hit[0]} {hit[1]}" if hit else "NO")
            else:
                pairs = idx.report(p1, p2, lo, hi)
                assert pairs == baseline_linear_scan(text, p1, p2, lo, hi)
                want += [f"occ={len(pairs)}"] + [f"{a} {b}" for a, b in pairs]
    queries = tmp_path / "hex.q"
    queries.write_text("\n".join(lines) + "\n")
    code, out, err = query_output(capsys, index, queries, "--mode", mode)
    assert (code, err) == (0, "")
    assert out.splitlines() == want
    empty = {"NO", "occ=0"}
    assert empty & set(want) and set(want) - empty


def test_a_bad_hex_pattern_is_a_format_error(tmp_path, capsys):
    """Digits that spell no bytes (a letter past f, an odd count) or spell
    none at all exit 2 with one ``format error:`` line per bad line; the
    other lines are answered."""
    src = tmp_path / "text.bin"
    src.write_bytes(b"ab ab")
    index, _ = build(tmp_path, capsys, src, "gapped-string")
    queries = tmp_path / "bad.q"
    queries.write_text("hex:zz ab 0 3\nab hex:616 0 3\nhex:6162 hex:2061 0 3\nhex: ab 0 3\n")
    code, out, err = query_output(capsys, index, queries)
    assert code == 2
    assert out == "YES 1 3\n"
    lines = err.splitlines()
    assert len(lines) == 3 and all(line.startswith("format error: ") for line in lines)
    assert "bad hex pattern 'hex:zz'" in lines[0] and "bad hex pattern 'hex:616'" in lines[1]
    assert lines[2] == "format error: pattern must be nonempty"


def test_gapped_set_query_and_plan(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "gapped-set")
    queries = tmp_path / "g.q"
    queries.write_text("1 2 10 20\n")
    code, out, _ = query_output(capsys, index, queries, "--mode", "report", "--plan")
    assert code == 0
    assert "# plan [10, 20]" in out
    assert "occ=" in out


@pytest.mark.parametrize("mode", ["exists", "report"])
def test_gapped_string_query_prints_its_plan(tmp_path, capsys, mode):
    """Each query's one plan, clamped to the text, precedes its answer; a
    gap past the text has no plan and prints none."""
    src = tmp_path / "text.txt"
    src.write_bytes(b"abracadabra")
    index, _ = build(tmp_path, capsys, src, "gapped-string")
    queries = tmp_path / "s.q"
    queries.write_text("ab ra 2 40\nzz ab 0 3\nab ab 20 30\n")
    code, out, _ = query_output(capsys, index, queries, "--mode", mode, "--plan")
    assert code == 0
    plan = [f"# {line}" for line in plan_cover(2, 10).describe().splitlines()]
    small = [f"# {line}" for line in plan_cover(0, 3).describe().splitlines()]
    if mode == "exists":
        answers = [["YES 8 10"], ["NO"], ["NO"]]
    else:
        pairs = baseline_linear_scan(b"abracadabra", b"ab", b"ra", 2, 40)
        answers = [[f"occ={len(pairs)}"] + [f"{a} {b}" for a, b in pairs], ["occ=0"], ["occ=0"]]
    assert out.splitlines() == plan + answers[0] + small + answers[1] + answers[2]
    _, plain, _ = query_output(capsys, index, queries, "--mode", mode)
    assert plain.splitlines() == answers[0] + answers[1] + answers[2]


def test_gapped_string_counters_name_the_plan_and_raw_pairs(tmp_path, capsys):
    """``--count-queries`` on a gapped-string container prints the same
    fields as on a gapped-set one, read from the string index's gapped
    index: a YES's plan size, 0 for a NO that built no plan, and a report's
    plan size and raw pairs as that index records them."""
    src = tmp_path / "text.txt"
    src.write_bytes(b"abracadabra")
    index, _ = build(tmp_path, capsys, src, "gapped-string")
    queries = tmp_path / "s.q"
    queries.write_text("ab ra 2 40\nab ab 1 6\nab ab 20 30\n")
    idx = build_gapped_string_index(b"abracadabra", LinearScan())
    plan_size = plan_cover(2, 10).size
    code, out, _ = query_output(capsys, index, queries, "--mode", "exists", "--count-queries")
    assert code == 0
    lines = out.splitlines()
    assert lines[::2] == ["YES 8 10", "NO", "NO"]
    calls = []
    for query, line in zip(queries.read_text().splitlines(), lines[1::2]):
        p1, p2, lo, hi = query.split()
        idx.exists(p1.encode(), p2.encode(), int(lo), int(hi))
        calls.append(idx.ssi_calls())
        assert line == (f"# ssi_calls={calls[-1]} plan_size={idx.gapped.last_plan_size}"
                        f" raw_pairs=0")
    assert [line.split()[2] for line in lines[1::2]] == [f"plan_size={plan_size}",
                                                         "plan_size=0", "plan_size=0"]
    assert calls[0] > 0
    queries.write_text("ab ra 2 40\n")
    code, out, _ = query_output(capsys, index, queries, "--mode", "report", "--count-queries")
    assert code == 0
    idx = build_gapped_string_index(b"abracadabra", LinearScan())
    assert idx.report(b"ab", b"ra", 2, 40) == [(1, 3), (1, 10), (8, 10)]
    assert idx.gapped.last_plan_size == plan_size and idx.gapped.last_raw_pairs > 0
    assert out.splitlines() == ["occ=3", "1 3", "1 10", "8 10",
                                f"# ssi_calls={idx.ssi_calls()} plan_size={plan_size}"
                                f" raw_pairs={idx.gapped.last_raw_pairs}"]


def test_gapped_string_report_counters_describe_the_query(tmp_path, capsys):
    """A string report's ``raw_pairs`` sums its cover pairs' raw pairs, and a
    report with no cover pair (a gap past the text, an absent pattern) reads
    ``plan_size=0 raw_pairs=0`` whatever the query before it left."""
    src = tmp_path / "text.txt"
    src.write_bytes(b"abracadabra")
    index, _ = build(tmp_path, capsys, src, "gapped-string")
    queries = tmp_path / "s.q"
    queries.write_text("ab ra 2 40\nab ab 20 30\nzz ab 1 3\n")
    code, out, _ = query_output(capsys, index, queries, "--mode", "report", "--count-queries")
    assert code == 0
    plan_size = plan_cover(2, 10).size
    assert out.splitlines() == [
        "occ=3", "1 3", "1 10", "8 10", f"# ssi_calls=0 plan_size={plan_size} raw_pairs=3",
        "occ=0", "# ssi_calls=0 plan_size=0 raw_pairs=0",
        "occ=0", "# ssi_calls=0 plan_size=0 raw_pairs=0",
    ]
    idx = build_gapped_string_index(b"abracadabra", LinearScan())
    idx.report(b"ab", b"ra", 2, 40)
    assert (idx.gapped.last_raw_pairs, idx.gapped.last_max_multiplicity) == (3, 1)


def test_smallest_shift_query(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text("16 3\n5 10\n7\n3\n")
    index, _ = build(tmp_path, capsys, src, "smallest-shift")
    queries = tmp_path / "s.q"
    queries.write_text("1 2\n2 3\n1 3\n")
    code, out, _ = query_output(capsys, index, queries)
    assert code == 0
    assert out.splitlines() == ["2", "NONE", "NONE"]


@pytest.mark.parametrize(
    "flags",
    [["--backend", "linear"], ["--backend", "fulltab"], ["--delta", "0.3"],
     ["--backend", "smalluniverse", "--delta", "0.5"]],
    ids=["linear", "fulltab", "delta", "smalluniverse"],
)
def test_smallest_shift_build_refuses_backend_flags(tmp_path, capsys, flags):
    src = tmp_path / "s.txt"
    src.write_text("16 3\n5 10\n7\n3\n")
    out = tmp_path / "x.gidx"
    code, stdout, err = run_cli(
        ["build", str(src), "-o", str(out), "--kind", "smallest-shift", *flags], capsys
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("format error: --backend and --delta do not apply"), err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_smallest_shift_manifest_names_no_backend(tmp_path, capsys):
    src = tmp_path / "s.txt"
    src.write_text("16 3\n5 10\n7\n3\n")
    index, manifest = build(tmp_path, capsys, src, "smallest-shift")
    assert "backend" not in manifest and "delta" not in manifest
    # A container written with the backend fields still loads and answers alike.
    artifact = load_artifact(str(index))
    assert "backend" not in artifact.manifest
    artifact.manifest.update(backend="smalluniverse", delta=0.3)
    old = tmp_path / "old.gidx"
    save_artifact(str(old), artifact)
    assert load_artifact(str(old)).manifest["backend"] == "smalluniverse"
    queries = tmp_path / "s.q"
    queries.write_text("1 2\n2 3\n1 3\n")
    for container in (index, old):
        code, out, _ = query_output(capsys, container, queries, "--count-queries")
        assert code == 0
        assert out.splitlines()[::2] == ["2", "NONE", "NONE"]


def test_malformed_query_line(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    queries = tmp_path / "q.txt"
    queries.write_text("1 2 3\nbogus line\n2 1 0\n")
    code, out, err = query_output(capsys, index, queries)
    assert code == 2
    assert "error:" in err
    assert len([ln for ln in out.splitlines() if ln]) == 2  # other lines answered


def test_out_of_range_set_index(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    queries = tmp_path / "q.txt"
    queries.write_text("0 2 3\n99 1 0\n1 2 3\n")
    code, out, err = query_output(capsys, index, queries)
    assert code == 2
    assert err.count("error:") == 2
    assert len(out.splitlines()) == 1


@pytest.mark.parametrize("mode", ["exists", "report"])
def test_gapped_set_rejects_a_block_id(tmp_path, capsys, mode):
    """Ids 3 and 4 name dyadic blocks the backend stores after the 2 sets;
    their pair realizes no shift in [5, 6], so no backend call would catch
    them."""
    src = tmp_path / "c.txt"
    src.write_text("8 2\n1 2\n5\n")
    index, _ = build(tmp_path, capsys, src, "gapped-set")
    queries = tmp_path / "g.q"
    queries.write_text("3 4 5 6\n1 2 3 4\n")
    code, out, err = query_output(capsys, index, queries, "--mode", mode)
    assert code == 2
    assert "set index 3 out of range 1..2" in err
    assert out == ("YES 2 5\n" if mode == "exists" else "occ=2\n1 5\n2 5\n")


def test_count_queries_flag(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    queries = tmp_path / "q.txt"
    queries.write_text("1 2 3\n")
    code, out, _ = query_output(capsys, index, queries, "--count-queries")
    assert code == 0
    assert any(line.startswith("# probes=") for line in out.splitlines())


def test_verify_ok_and_seed_stable(tmp_path, capsys, collection_file):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    code, first, _ = run_cli(["verify", str(index), "--trials", "300", "--seed", "9"], capsys)
    assert code == 0
    assert first.rstrip().endswith("ok")
    code, second, _ = run_cli(["verify", str(index), "--trials", "300", "--seed", "9"], capsys)
    assert first == second


def test_verify_failure_exit_code(tmp_path, capsys, collection_file, monkeypatch):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    monkeypatch.setattr(cli, "verify_artifact", lambda *a: (False, ["FAIL query 1 2 3"]))
    code, out, _ = run_cli(["verify", str(index)], capsys)
    assert code == 4
    assert "FAIL" in out


def test_verify_all_kinds(tmp_path, capsys):
    text = tmp_path / "text.txt"
    text.write_bytes(b"abracadabraabracadabra")
    for kind in ("gapped-string", "jumbled"):
        index, _ = build(tmp_path, capsys, text, kind)
        code, out, _ = run_cli(["verify", str(index), "--trials", "40"], capsys)
        assert code == 0, out
    src = tmp_path / "c.txt"
    rng = random.Random(4)
    src.write_text(format_collection(random_collection(rng, 3, 40, 60)))
    for kind in ("gapped-set", "smallest-shift"):
        index, _ = build(tmp_path, capsys, src, kind)
        code, out, _ = run_cli(["verify", str(index), "--trials", "60"], capsys)
        assert code == 0, out


def test_verify_finishes_on_a_wide_universe_gapped_set(tmp_path, capsys):
    # Gaps reach u/2 = 2^32 wide; the oracle must not visit every shift.
    src = tmp_path / "wide.txt"
    code, _, _ = run_cli(["gen", "--kind", "collection", "-o", str(src), "--k", "8",
                          "--total", "400", "--u", str(1 << 33)], capsys)
    assert code == 0
    index, _ = build(tmp_path, capsys, src, "gapped-set", "--backend", "linear")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-m", "gapindex.cli", "verify", str(index), "--trials", "200"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "ok"


def test_verify_checks_exists_against_report(tmp_path, capsys, monkeypatch):
    """A witness outside the report, or a NO where the report finds pairs,
    fails verify on the gapped kinds."""
    from gapindex import textindex, verify

    src = tmp_path / "c.txt"
    src.write_text(format_collection(random_collection(random.Random(4), 3, 40, 60)))
    text = tmp_path / "text.txt"
    text.write_bytes(b"abracadabraabracadabra")
    set_index, _ = build(tmp_path, capsys, src, "gapped-set")
    string_index, _ = build(tmp_path, capsys, text, "gapped-string")
    monkeypatch.setattr(verify, "gapped_exists", lambda *a: (0, 0))
    monkeypatch.setattr(textindex.GappedStringIndex, "exists", lambda *a: None)
    for index in (set_index, string_index):
        code, out, _ = run_cli(["verify", str(index), "--trials", "60"], capsys)
        assert code == 4
        assert "FAIL query exists " in out


def test_verify_checks_ssi_reports(tmp_path, capsys, collection_file, monkeypatch):
    """A report missing a pair fails verify on ssi, whose exists still agrees."""
    from gapindex import verify

    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    report = verify.report_shift
    monkeypatch.setattr(verify, "report_shift", lambda *a: report(*a)[1:])
    code, out, _ = run_cli(["verify", str(index), "--trials", "300"], capsys)
    assert code == 4
    assert out.splitlines()[1].startswith("FAIL query ")
    assert out.rstrip().endswith("FAILED")


def test_gen_deterministic(tmp_path, capsys):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    run_cli(["gen", "--kind", "collection", "-o", str(a), "--seed", "5"], capsys)
    run_cli(["gen", "--kind", "collection", "-o", str(b), "--seed", "5"], capsys)
    run_cli(["gen", "--kind", "collection", "-o", str(c), "--seed", "6"], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--sigma", "0"), ("--sigma", "27"), ("--sigma", "200"), ("--u", "0"),
    ("--u", str((1 << 40) + 1)), ("--total", "0"), ("--k", "0"), ("--k", "-2"),
    ("--length", "0"), ("--length", "-5"),
])
def test_gen_rejects_bad_arguments_before_writing(tmp_path, capsys, flag, value):
    for kind in ("collection", "text"):
        out = tmp_path / f"{kind}.txt"
        code, stdout, err = run_cli(["gen", "--kind", kind, "-o", str(out), flag, value], capsys)
        assert code == 2, (kind, flag, value)
        assert stdout == ""
        assert flag in err
        assert not out.exists()


def test_gen_output_builds(tmp_path, capsys):
    sets, text = tmp_path / "sets.txt", tmp_path / "text.txt"
    for argv in (
        ["--kind", "collection", "-o", str(sets), "--k", "1", "--total", "1", "--u", "1"],
        ["--kind", "text", "-o", str(text), "--length", "1", "--sigma", "1"],
    ):
        code, _, _ = run_cli(["gen", *argv], capsys)
        assert code == 0
    build(tmp_path, capsys, sets, "gapped-set")
    build(tmp_path, capsys, text, "jumbled")
    for argv in (
        ["--kind", "collection", "-o", str(sets), "--seed", "3"],
        ["--kind", "text", "-o", str(text), "--length", "40", "--sigma", "26"],
    ):
        code, _, _ = run_cli(["gen", *argv], capsys)
        assert code == 0
    build(tmp_path, capsys, sets, "ssi")
    build(tmp_path, capsys, text, "gapped-string")


def test_eight_letter_jumbled_text_builds_verifies_and_reports(tmp_path, capsys):
    # 300 letters over eight put the merged universe 4u' past 2^62.
    from gapindex.jumbled import histogram, sliding_window_matches

    text_path = tmp_path / "text8.txt"
    code, _, _ = run_cli(["gen", "--kind", "text", "--sigma", "8", "--length", "300",
                          "-o", str(text_path)], capsys)
    assert code == 0
    index, manifest = build(tmp_path, capsys, text_path, "jumbled")
    assert manifest["counters"] == {"n": 300, "sigma": 8}
    code, out, _ = run_cli(["verify", str(index), "--trials", "200"], capsys)
    assert code == 0 and out.rstrip().endswith("ok"), out
    text = text_path.read_text()
    alphabet = sorted(set(text))
    cuts = ((0, 1), (17, 3), (150, 9), (0, 300))
    patterns = [histogram(text[i : i + m], alphabet) for i, m in cuts] + [(1,) * 8]
    queries = tmp_path / "j8.q"
    queries.write_text("".join(" ".join(map(str, p)) + "\n" for p in patterns))
    code, out, _ = query_output(capsys, index, queries, "--mode", "report")
    expected = ""
    for p in patterns:
        occurrences = sliding_window_matches(text, alphabet, p)
        expected += f"occ={len(occurrences)}\n" + "".join(f"{i} {j}\n" for i, j in occurrences)
    assert code == 0 and out == expected


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(tmp_path, capsys, collection_file, trials):
    index, _ = build(tmp_path, capsys, collection_file, "ssi")
    code, stdout, err = run_cli(["verify", str(index), "--trials", trials], capsys)
    assert code == 2
    assert stdout == ""
    assert "--trials" in err


def test_bench_empty_spec(tmp_path, capsys):
    spec = tmp_path / "empty.json"
    spec.write_text("{}")
    code, out, _ = run_cli(["bench", str(spec)], capsys)
    assert code == 0
    assert out == ""


def test_bench_sizes_stand_in_for_n(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ssi": [{"u": 50, "sizes": [[2, 3], [1, 9]], "queries": 4}]}))
    code, out, _ = run_cli(["bench", str(spec)], capsys)
    assert code == 0
    (record,) = [json.loads(line) for line in out.splitlines()]
    assert record["k"] == 3 and record["queries"] == 4


def test_bench_records(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "ssi": [
            {"N": 200, "k": 5, "u": 100, "backend": "smalluniverse",
             "delta": d, "queries": 50, "seed": 2}
            for d in (0.0, 0.5, 1.0)
        ],
        "gapped_string": [{"n": 60, "sigma": 3, "queries": 4, "seed": 1}],
    }))
    code, out, _ = run_cli(["bench", str(spec)], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 4
    ssi = [r for r in records if r["kind"] == "ssi"]
    assert all("build_bytes" in r for r in ssi)
    assert all(0 <= r["table_bytes"] <= r["build_bytes"] for r in ssi)
    assert any(r["table_bytes"] > 0 for r in ssi)
    # One table per unordered pair of the L large sets, (i, i) included.
    for r in ssi:
        kind = parse_backend("smalluniverse", r["delta"])
        large = sum(build_backend(random_collection(random.Random(2), 5, 200, 100), kind).large)
        assert r["table_pairs"] == large * (large + 1) // 2
    assert any(r["table_pairs"] > 0 for r in ssi)
    assert [r["delta"] for r in ssi] == [0.0, 0.5, 1.0]
    gs = [r for r in records if r["kind"] == "gapped-string"]
    assert gs[0]["base_ssi_calls"] > 0
    # The same stream in exists mode: each YES is a query whose report has
    # a pair.
    assert 0 < gs[0]["exists_yes"] <= min(gs[0]["queries"], gs[0]["occ_total"])
    assert gs[0]["exists_ssi_calls"] >= 0 and gs[0]["exists_query_us"] > 0
    # Levels 2..reach(60) = 3 are built; the collector's time is part of the build's.
    assert gs[0]["levels"] == 2
    assert 0 < gs[0]["build_gc_seconds"] <= gs[0]["build_seconds"]


GOOD_SSI = {"N": 20, "u": 10, "queries": 2}


@pytest.mark.parametrize("spec, message", [
    ({"ssi": [GOOD_SSI, {"u": 10}]}, "needs the integer 'N'"),
    ([1, 2], "must be a JSON object"),
    ({"ssi": [GOOD_SSI, {**GOOD_SSI, "backend": "nope"}]}, "unknown backend 'nope'"),
    ({"ssi": [GOOD_SSI], "gapped_string": [{"sigma": 4}]}, "needs the integer 'n'"),
    ({"ssi": 5}, "must be a list of objects"),
    ({"ssi": [GOOD_SSI, {**GOOD_SSI, "seed": "7"}]}, "'seed' must be an integer"),
    ({"gapped_string": [{"n": 0}]}, "'n' must be an integer >= 1"),
    ({"ssi": [GOOD_SSI, {"u": 10, "sizes": [[2, 0]]}]}, "'sizes' must be"),
    ({"ssi": [GOOD_SSI, {**GOOD_SSI, "delta": "x"}]}, "delta 'x'"),
    # Delta is a number, never a bool or a numeric string.
    ({"ssi": [GOOD_SSI, {**GOOD_SSI, "delta": True}]},
     "delta must be a number in [0, 1], got True"),
    ({"ssi": [GOOD_SSI, {**GOOD_SSI, "delta": "0.5"}]},
     "delta must be a number in [0, 1], got '0.5'"),
    # A gapped_string entry defaults to linear, which takes no delta.
    ({"ssi": [GOOD_SSI], "gapped_string": [{"n": 20, "delta": 0.3}]},
     "'delta' applies only to backend 'smalluniverse', not 'linear'"),
    ({"ssi": [GOOD_SSI, {**GOOD_SSI, "backend": "fulltab", "delta": 0.5}]},
     "'delta' applies only to backend 'smalluniverse', not 'fulltab'"),
])
def test_bench_rejects_a_malformed_spec_before_any_record(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(["bench", str(path)], capsys)
    assert code == 2
    assert out == ""  # not even the well-formed entry's record
    assert message in err


def test_artifact_save_load_sections(tmp_path, collection_file):
    artifact = build_artifact("ssi", collection_file.read_bytes(), SmallUniverse(0.5))
    path = tmp_path / "x.gidx"
    save_artifact(str(path), artifact)
    loaded = load_artifact(str(path))
    assert loaded.kind == "ssi"
    assert loaded.backend == SmallUniverse(0.5)
    assert [s.elements for s in loaded.collection.sets] == [
        s.elements for s in artifact.collection.sets
    ]
    # Saving the loaded artifact reproduces the container bit for bit.
    second = tmp_path / "y.gidx"
    save_artifact(str(second), loaded)
    assert path.read_bytes() == second.read_bytes()


def test_gapped_string_container_round_trip(tmp_path):
    artifact = build_artifact("gapped-string", b"mississippi", LinearScan())
    path = tmp_path / "s.gidx"
    save_artifact(str(path), artifact)
    loaded = load_artifact(str(path))
    assert loaded.text == b"mississippi"
    assert list(loaded.sections) == list(artifact.sections) == ["text"]
    second = tmp_path / "s2.gidx"
    save_artifact(str(second), loaded)
    assert path.read_bytes() == second.read_bytes()
    from gapindex.persist import make_string_index

    index = make_string_index(loaded)
    assert index.report(b"ss", b"pp", 0, 11) == [(3, 9), (6, 9)]


def test_gapped_string_container_with_derived_sections_still_loads(tmp_path):
    # Containers written before the slimming also held the suffix array, the
    # LCP array and the dyadic interval sets; they must answer the same.
    from gapindex.persist import _collection_to_sections, make_string_index
    from gapindex.sets import IntSet, SetCollection

    text = b"abracadabra" * 3
    slim = build_artifact("gapped-string", text, LinearScan())
    index = make_string_index(slim)
    intervals = SetCollection(
        sets=tuple(IntSet(s) for s in index.gapped.exact.base),
        universe=len(text),
    )
    old = build_artifact("gapped-string", text, LinearScan())
    old.sections = {
        "text": text,
        "sa": np.array(index.suffixes.sa, dtype=np.int64),
        "lcp": np.array(index.suffixes.lcp, dtype=np.int64),
        **_collection_to_sections(intervals),
    }
    slim_path, old_path = tmp_path / "slim.gidx", tmp_path / "old.gidx"
    save_artifact(str(slim_path), slim)
    save_artifact(str(old_path), old)
    assert old_path.stat().st_size > slim_path.stat().st_size
    from_slim = make_string_index(load_artifact(str(slim_path)))
    from_old = make_string_index(load_artifact(str(old_path)))
    n = len(text)
    rng = random.Random(3)
    for _ in range(60):
        p1 = text[(a := rng.randrange(n - 2)) : a + rng.randint(1, 2)]
        p2 = text[(b := rng.randrange(n - 2)) : b + rng.randint(1, 2)]
        lo = rng.randint(0, n)
        hi = min(n, lo + rng.randint(0, n // 2))
        expected = baseline_linear_scan(text, p1, p2, lo, hi)
        assert from_old.report(p1, p2, lo, hi) == from_slim.report(p1, p2, lo, hi) == expected
        assert from_old.exists(p1, p2, lo, hi) == from_slim.exists(p1, p2, lo, hi)


def test_jumbled_container_has_only_the_text():
    artifact = build_artifact("jumbled", b"abracadabra", LinearScan())
    assert list(artifact.sections) == ["text"]
    assert artifact.manifest["counters"] == {"n": 11, "sigma": 5}


def test_jumbled_container_with_an_alphabet_section_still_loads(tmp_path):
    # Jumbled containers used to carry an ``alphabet`` section; load ignores
    # it and rebuilds the alphabet from the text, so both answer the same.
    from gapindex.jumbled import sliding_window_matches
    from gapindex.persist import make_jumbled_index

    text = b"abracadabra" * 3
    slim = build_artifact("jumbled", text, LinearScan())
    old = build_artifact("jumbled", text, LinearScan())
    old.sections = {"text": text, "alphabet": bytes(sorted(set(text)))}
    slim_path, old_path = tmp_path / "slim.gidx", tmp_path / "old.gidx"
    save_artifact(str(slim_path), slim)
    save_artifact(str(old_path), old)
    assert old_path.stat().st_size > slim_path.stat().st_size
    from_slim = make_jumbled_index(load_artifact(str(slim_path)))
    from_old = make_jumbled_index(load_artifact(str(old_path)))
    assert from_old.alphabet == from_slim.alphabet == tuple(sorted(set(text)))
    rng = random.Random(5)
    answered = 0
    for _ in range(40):
        pattern = [rng.randint(0, 4) for _ in from_slim.alphabet]
        expected = sliding_window_matches(text, from_slim.alphabet, pattern)
        assert from_old.report(pattern) == from_slim.report(pattern) == expected
        assert from_old.exists(pattern) == from_slim.exists(pattern) == bool(expected)
        answered += bool(expected)
    assert answered > 0


SET_SECTIONS = {
    "universe": np.array([8], dtype=np.int64),
    "set_offsets": np.array([0, 2, 3], dtype=np.int64),
    "set_elements": np.array([1, 5, 7], dtype=np.int64),
}


@pytest.mark.parametrize(
    "shape, kind, backend, sections",
    [
        ("shorter_than_header", None, None, None),
        ("manifest_not_an_object", None, None, None),
        ("missing_backend", "ssi", None, SET_SECTIONS),
        ("unknown_backend", "ssi", "quantum", SET_SECTIONS),
        ("set_kind_without_set_sections", "gapped-set", "linear", {"text": b"abab"}),
        ("text_kind_without_text", "jumbled", "linear", SET_SECTIONS),
        ("empty_universe", "ssi", "linear",
         {**SET_SECTIONS, "universe": np.array([], dtype=np.int64)}),
        ("value_outside_universe", "ssi", "linear",
         {**SET_SECTIONS, "set_elements": np.array([1, 5, 9], dtype=np.int64)}),
        ("offsets_past_the_end", "ssi", "linear",
         {**SET_SECTIONS, "set_offsets": np.array([0, 2, 5], dtype=np.int64)}),
        ("unsorted_duplicated_set", "ssi", "linear",
         {**SET_SECTIONS, "set_offsets": np.array([0, 3, 4], dtype=np.int64),
          "set_elements": np.array([5, 3, 3, 7], dtype=np.int64)}),
        ("universe_not_an_int64_section", "ssi", "linear", {**SET_SECTIONS, "universe": b"\x08"}),
        ("section_name_not_utf8", "ssi", "linear", None),
        ("text_not_a_raw_section", "jumbled", "linear",
         {"text": np.array([97, 98, 97, 98], dtype=np.int64)}),
        # Lists of format-1 section records, written under a matching digest:
        ("int64_section_not_whole_values", "ssi", "linear",
         [fmt.section("universe", 0, struct.pack("<q", 8)),
          fmt.section("set_offsets", 0, struct.pack("<3q", 0, 2, 3)),
          fmt.section("set_elements", 0, struct.pack("<3q", 1, 5, 7)[:-1])]),
        ("section_named_twice", "ssi", "linear",
         [fmt.section("universe", 0, struct.pack("<q", 8)),
          fmt.section("set_offsets", 0, struct.pack("<3q", 0, 2, 3)),
          fmt.section("set_elements", 0, struct.pack("<3q", 1, 5, 7)),
          fmt.section("set_elements", 0, struct.pack("<3q", 2, 3, 4))]),
    ],
)
def test_malformed_container_exits_2(tmp_path, capsys, shape, kind, backend, sections):
    bad = tmp_path / "bad.gidx"
    if shape == "shorter_than_header":
        bad.write_bytes(MAGIC + b"\x01\x00")
    elif shape == "manifest_not_an_object":
        blob = b"[1, 2]"
        bad.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob)
    elif shape == "section_name_not_utf8":
        # One empty raw section named b"\xff\xfe", under a matching digest.
        payload = struct.pack("<IH", 1, 2) + b"\xff\xfe" + struct.pack("<BQ", 1, 0)
        blob = json.dumps({"format_version": FORMAT_VERSION, "kind": kind, "backend": backend,
                           "payload_digest": hashlib.sha256(payload).hexdigest()}).encode()
        bad.write_bytes(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(blob)) + blob + payload)
    elif isinstance(sections, list):
        bad.write_bytes(fmt.container({"kind": kind, "backend": backend},
                                      fmt.payload(*sections), 1))
    else:
        # save_artifact writes a matching digest, so only the named defect remains.
        manifest = {"format_version": FORMAT_VERSION, "kind": kind, "counters": {}}
        if backend is not None:
            manifest["backend"] = backend
        save_artifact(str(bad), Artifact(kind=kind, backend=LinearScan(), mem_budget=0,
                                         manifest=manifest, sections=sections))
    queries = tmp_path / "q.txt"
    queries.write_text("1 2 3\n")
    code, out, err = query_output(capsys, bad, queries)
    assert code == 2
    assert out == ""
    assert err.startswith("format error:")


@pytest.mark.parametrize("flags", [["--delta", "0.3"], ["--backend", "fulltab", "--delta", "0.9"],
                                   ["--backend", "linear", "--delta", "0.5"]],
                         ids=["no-backend", "fulltab", "linear"])
def test_build_refuses_delta_without_smalluniverse(tmp_path, capsys, collection_file, flags):
    """Only ``smalluniverse`` reads delta: any other build given one exits 2
    and writes nothing, where it once built and dropped delta."""
    out = tmp_path / "x.gidx"
    code, stdout, err = run_cli(
        ["build", str(collection_file), "-o", str(out), "--kind", "gapped-set", *flags], capsys
    )
    assert (code, stdout) == (2, "")
    assert err == "format error: --delta applies only to --backend smalluniverse\n"
    assert not out.exists()


def test_gapped_string_records_name_their_delta(tmp_path, capsys):
    """Two smalluniverse entries that differ only in delta say which delta
    each ran; a backend without one records null."""
    spec = tmp_path / "spec.json"
    entry = {"n": 40, "sigma": 3, "queries": 2, "seed": 3}
    spec.write_text(json.dumps({"gapped_string": [
        {**entry, "backend": "smalluniverse", "delta": 0.3},
        {**entry, "backend": "smalluniverse", "delta": 0.7},
        {**entry, "backend": "fulltab"},
        entry,
    ]}))
    code, out, _ = run_cli(["bench", str(spec)], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [(r["backend"], r["delta"]) for r in records] == [
        ("smalluniverse", 0.3), ("smalluniverse", 0.7), ("fulltab", None), ("linear", None)]


def test_build_with_delta_outside_unit_interval_exits_2(tmp_path, capsys, collection_file):
    out = tmp_path / "x.gidx"
    code, _, err = run_cli(
        ["build", str(collection_file), "-o", str(out), "--kind", "ssi",
         "--backend", "smalluniverse", "--delta", "2"],
        capsys,
    )
    assert code == 2
    assert "delta must be in [0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("backend, delta, message", [
    (SmallUniverse(0.5), True, "delta must be a number in [0, 1], got True"),
    (LinearScan(), 0.3, "delta applies only to backend 'smalluniverse', not 'linear'"),
])
def test_load_refuses_a_manifest_delta_build_would_refuse(
        tmp_path, capsys, collection_file, backend, delta, message):
    """A container whose manifest was edited to a bool delta, or to a delta
    beside a backend that reads none, does not load."""
    artifact = build_artifact("ssi", collection_file.read_bytes(), backend)
    artifact.manifest["delta"] = delta
    path = tmp_path / "edited.gidx"
    save_artifact(str(path), artifact)
    queries = tmp_path / "q.txt"
    queries.write_text("1 2 3\n")
    code, out, err = query_output(capsys, path, queries)
    assert code == 2
    assert out == ""
    assert err == f"format error: {path}: bad backend in manifest: {message}\n"


def test_exists_plan_size_reads_0_for_a_gap_beyond_the_universe(tmp_path, capsys):
    src = tmp_path / "c.txt"
    src.write_text("100 2\n1 5 9 40\n3 20 77\n")
    index, _ = build(tmp_path, capsys, src, "gapped-set")
    queries = tmp_path / "g.q"
    queries.write_text("1 2 0 60\n1 2 200 300\n")
    counters = {}
    for mode in ("exists", "report"):
        code, out, _ = query_output(capsys, index, queries, "--mode", mode, "--count-queries")
        assert code == 0
        counters[mode] = [ln for ln in out.splitlines() if ln.startswith("#")]
    plan_sizes = {
        mode: [ln.split("plan_size=")[1].split()[0] for ln in lines]
        for mode, lines in counters.items()
    }
    assert plan_sizes["exists"][0] != "0"
    assert plan_sizes["exists"][1] == plan_sizes["report"][1] == "0"
