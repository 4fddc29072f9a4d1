"""Container format 2: zlib-compressed sections, int64 ones as first
differences, and format 1 still read.

``v1_container`` is a frozen copy of the format-1 writer: every section
uncompressed, an int64 array under tag 0 and bytes under tag 1. Containers
it writes must load to the same sections and answer byte for byte as the
format-2 containers of the same artifacts. ``container`` writes any payload
under a matching digest, so each malformed case below fails on its one
defect.
"""

import hashlib
import json
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from gapindex import cli
from gapindex.backends import LinearScan, SmallUniverse
from gapindex.generators import random_collection, random_text
from gapindex.persist import MAGIC, Artifact, build_artifact, load_artifact, save_artifact
from gapindex.sets import format_collection


def container(manifest: dict, payload: bytes, version: int) -> bytes:
    """A container holding ``payload`` under a matching digest."""
    manifest = dict(manifest, format_version=version,
                    payload_digest=hashlib.sha256(payload).hexdigest())
    blob = json.dumps(manifest, sort_keys=True).encode()
    return MAGIC + struct.pack("<IQ", version, len(blob)) + blob + payload


def section(name: str, tag: int, data: bytes, decoded: int | None = None) -> bytes:
    """One section record; ``decoded`` is the decoded length the
    compressed tags 2 and 3 declare."""
    head = struct.pack("<BQ", tag, len(data))
    if decoded is not None:
        head += struct.pack("<Q", decoded)
    return struct.pack("<H", len(name.encode())) + name.encode() + head + data


def payload(*sections: bytes) -> bytes:
    return struct.pack("<I", len(sections)) + b"".join(sections)


def v1_container(artifact: Artifact) -> bytes:
    """The container format 1 wrote for ``artifact``."""
    records = []
    for name, value in artifact.sections.items():
        array = isinstance(value, np.ndarray)
        blob = value.astype("<i8").tobytes() if array else bytes(value)
        records.append(section(name, 0 if array else 1, blob))
    return container(artifact.manifest, payload(*records), 1)


COLLECTION = format_collection(random_collection(random.Random(8), 5, 70, 300)).encode()
TEXT = random_text(random.Random(9), 40, 3)


def _queries(kind: str, rng: random.Random) -> str:
    lines = []
    for _ in range(12):
        i, j = rng.randint(1, 5), rng.randint(1, 5)
        lo = rng.randint(0, 30)
        if kind == "ssi":
            lines.append(f"{i} {j} {rng.randint(-60, 60)}")
        elif kind == "gapped-set":
            lines.append(f"{i} {j} {lo} {lo + rng.randint(0, 60)}")
        elif kind == "smallest-shift":
            lines.append(f"{i} {j}")
        elif kind == "gapped-string":
            p1, p2 = (TEXT[t:t + rng.randint(1, 2)].decode()
                      for t in (rng.randrange(38), rng.randrange(38)))
            lines.append(f"{p1} {p2} {lo} {lo + rng.randint(0, 20)}")
        else:
            lines.append(" ".join(str(rng.randint(0, 2)) for _ in range(3)))
    return "\n".join(lines) + "\n"


def _answers(capsys, path, queries) -> list[tuple[int, str, str]]:
    out = []
    for mode in ("exists", "report"):
        code = cli.main(["query", str(path), str(queries), "--mode", mode, "--count-queries"])
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


KIND_CASES = [("ssi", SmallUniverse(0.5)), ("gapped-set", SmallUniverse(0.5)),
              ("gapped-string", LinearScan()), ("jumbled", LinearScan()),
              ("smallest-shift", LinearScan())]


@pytest.mark.parametrize("kind, backend", KIND_CASES, ids=[k for k, _ in KIND_CASES])
def test_a_format_1_container_loads_and_answers_as_its_format_2_twin(tmp_path, capsys,
                                                                     kind, backend):
    source = TEXT if kind in ("gapped-string", "jumbled") else COLLECTION
    artifact = build_artifact(kind, source, backend)
    old, new = tmp_path / "v1.gidx", tmp_path / "v2.gidx"
    old.write_bytes(v1_container(artifact))
    save_artifact(str(new), artifact)
    from_old, from_new = load_artifact(str(old)), load_artifact(str(new))
    assert list(from_old.sections) == list(from_new.sections) == list(artifact.sections)
    for name, value in artifact.sections.items():
        for loaded in (from_old, from_new):
            assert type(loaded.sections[name]) is type(value)
            if isinstance(value, np.ndarray):
                assert loaded.sections[name].dtype == np.int64
                assert loaded.sections[name].tolist() == value.tolist()
            else:
                assert loaded.sections[name] == value
    queries = tmp_path / "q.txt"
    queries.write_text(_queries(kind, random.Random(kind)))
    answers = _answers(capsys, new, queries)
    assert answers == _answers(capsys, old, queries)
    assert all(code == 0 and out and not err for code, out, err in answers)
    # A format-1 container saved again is the format-2 container, bit for bit.
    again = tmp_path / "again.gidx"
    save_artifact(str(again), from_old)
    assert again.read_bytes() == new.read_bytes()


@pytest.mark.parametrize("kind, backend", KIND_CASES, ids=[k for k, _ in KIND_CASES])
def test_a_save_after_a_load_reproduces_the_container(tmp_path, kind, backend):
    source = TEXT if kind in ("gapped-string", "jumbled") else COLLECTION
    first, second = tmp_path / "a.gidx", tmp_path / "b.gidx"
    save_artifact(str(first), build_artifact(kind, source, backend))
    save_artifact(str(second), load_artifact(str(first)))
    assert first.read_bytes() == second.read_bytes()


def test_int64_sections_round_trip_their_extremes(tmp_path):
    # First differences wrap modulo 2^64, and so does their running sum.
    extremes = np.array([2**63 - 1, -2**63, 0, 5, -7, 2**63 - 1], dtype=np.int64)
    artifact = build_artifact("jumbled", TEXT, LinearScan())
    artifact.sections = {"text": TEXT, "extra": extremes, "empty": np.array([], dtype=np.int64)}
    path = tmp_path / "x.gidx"
    save_artifact(str(path), artifact)
    loaded = load_artifact(str(path)).sections
    assert loaded["extra"].tolist() == extremes.tolist()
    assert loaded["empty"].dtype == np.int64 and len(loaded["empty"]) == 0


JUMBLED = {"kind": "jumbled", "backend": "linear", "counters": {}}


@pytest.mark.parametrize("record", [
    section("text", 3, b"not a zlib stream", 17),
    section("text", 3, zlib.compress(b"abab"), 5),
    section("text", 3, zlib.compress(b"ababa"), 4),
    section("text", 3, zlib.compress(b"abab")[:-3], 4),
    section("text", 3, zlib.compress(b"abab") + b"\0", 4),
    section("text", 2, zlib.compress(b"\1" * 12), 12),
], ids=["not_zlib", "inflates_to_fewer", "inflates_to_more", "stream_cut_short",
        "bytes_after_the_stream", "int64_section_of_12_bytes"])
def test_a_bad_compressed_section_exits_2(tmp_path, capsys, record):
    bad = tmp_path / "bad.gidx"
    bad.write_bytes(container(JUMBLED, payload(record), 2))
    queries = tmp_path / "q.txt"
    queries.write_text("1 1 0\n")
    code = cli.main(["query", str(bad), str(queries)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("format error:") and captured.err.count("\n") == 1


def test_a_section_declared_over_the_memory_budget_is_refused_before_inflating(tmp_path,
                                                                                capsys):
    declared = 20_000_000
    big = section("text", 3, zlib.compress(b"a" * declared), declared)
    # A second section with an unknown tag: a load that inflated the first
    # would stop there with exit 2, and never index 20 MB of text.
    bad = tmp_path / "big.gidx"
    bad.write_bytes(container(JUMBLED, payload(big, section("x", 9, b"")), 2))
    queries = tmp_path / "q.txt"
    queries.write_text("1\n")
    tracemalloc.start()
    try:
        code = cli.main(["query", str(bad), str(queries), "--mem-budget", "1000000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("guard:") and str(declared) in captured.err
    # Inflating the section would have taken its whole declared size.
    assert peak < declared // 20
