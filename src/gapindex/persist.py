"""Versioned binary container for built indexes.

One file holds a JSON manifest plus named binary sections (int64 arrays or
raw bytes) with a payload digest, so a corrupted or truncated file is
rejected at load. Only the primary input is persisted: the set collection
(``universe``, ``set_offsets``, ``set_elements``) for the set kinds, and the
``text`` for the text kinds. Everything else, the suffix array, the dyadic
interval sets and the jumbled alphabet included, is rebuilt
deterministically on load, which keeps the container portable and query
outputs bit-exact across save/load. Containers written with extra sections
(``sa``, ``lcp`` and interval sets for gapped-string, ``alphabet`` for
jumbled) still load; their index is rebuilt from the text alone.

Format 2 stores every section zlib-compressed at level ``ZLIB_LEVEL`` and
records its decoded byte length: an int64 array as its first differences
(little-endian int64, wrapping), so sorted sets and offsets become small
gaps, and raw bytes as they are. Format 1 stored the same sections
uncompressed; its containers, and its two section tags, still load. A load
inflates each section to exactly its declared length and refuses, before
inflating anything more, sections whose declared lengths add up to more
than the memory budget. In memory a section is an int64 array or
``bytes`` under either format. The compressed bytes come from the zlib
build, so a container's bytes, though never its answers, may differ
between machines.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backends import DEFAULT_MEM_BUDGET, BackendKind, SmallUniverse, parse_backend
from .errors import BudgetError, FormatError
from .sets import MAX_UNIVERSE, IntSet, SetCollection, parse_collection

MAGIC = b"GIDX"
FORMAT_VERSION = 2
ZLIB_LEVEL = 9

KINDS = ("ssi", "gapped-set", "gapped-string", "jumbled", "smallest-shift")

# Section tags: format 1 wrote the first two, format 2 writes the last two.
_SEC_I64 = 0  # little-endian int64 values
_SEC_RAW = 1  # bytes as they are
_SEC_I64_DIFFS_Z = 2  # decoded length, then zlib of the int64 first differences
_SEC_RAW_Z = 3  # decoded length, then zlib of the bytes


@dataclass
class Artifact:
    """A built (or loaded) index: manifest plus the primary payload."""

    kind: str
    backend: BackendKind
    mem_budget: int
    manifest: dict
    collection: Optional[SetCollection] = None
    text: Optional[bytes] = None
    sections: dict = field(default_factory=dict)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode_sections(sections: dict) -> bytes:
    out = [struct.pack("<I", len(sections))]
    for name, value in sections.items():
        if isinstance(value, np.ndarray):
            tag, raw = _SEC_I64_DIFFS_Z, np.diff(value.astype("<i8"), prepend=0).tobytes()
        else:
            tag, raw = _SEC_RAW_Z, bytes(value)
        blob = zlib.compress(raw, ZLIB_LEVEL)
        encoded_name = name.encode()
        out.append(struct.pack("<H", len(encoded_name)))
        out.append(encoded_name)
        out.append(struct.pack("<BQQ", tag, len(blob), len(raw)))
        out.append(blob)
    return b"".join(out)


def _inflate(name: str, blob: bytes, size: int) -> bytes:
    """The zlib stream ``blob``, which must inflate to exactly ``size`` bytes."""
    stream = zlib.decompressobj()
    try:
        data = stream.decompress(blob, size + 1)
    except zlib.error as e:
        raise FormatError(f"section {name!r} is not a zlib stream: {e}") from None
    if len(data) != size:
        more = "more" if len(data) > size else "fewer"
        raise FormatError(f"section {name!r} inflates to {more} bytes than its declared {size}")
    if not stream.eof or stream.unused_data:
        raise FormatError(f"section {name!r} is not one complete zlib stream")
    return data


def _int64s(name: str, data: bytes) -> np.ndarray:
    if len(data) % 8:
        raise FormatError(f"int64 section {name!r} holds {len(data)} bytes, not a multiple of 8")
    return np.frombuffer(data, dtype="<i8").astype(np.int64)


def _decode_sections(blob: bytes, mem_budget: int) -> dict:
    view = memoryview(blob)
    off = 0
    declared = 0

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(view):
            raise FormatError("container truncated inside a section")
        chunk = view[off : off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    sections = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        try:
            name = bytes(take(name_len)).decode()
        except UnicodeDecodeError:
            raise FormatError("section name is not UTF-8") from None
        if name in sections:
            raise FormatError(f"section {name!r} appears twice")
        tag, length = struct.unpack("<BQ", take(9))
        if tag in (_SEC_I64_DIFFS_Z, _SEC_RAW_Z):
            (size,) = struct.unpack("<Q", take(8))
            declared += size
            if declared > mem_budget:
                raise BudgetError(f"container sections declare {declared} decoded bytes,"
                                  f" over budget {mem_budget}")
            data = _inflate(name, bytes(take(length)), size)
        else:
            data = bytes(take(length))
        if tag == _SEC_I64:
            sections[name] = _int64s(name, data)
        elif tag == _SEC_I64_DIFFS_Z:
            sections[name] = np.cumsum(_int64s(name, data), dtype=np.int64)
        elif tag in (_SEC_RAW, _SEC_RAW_Z):
            sections[name] = data
        else:
            raise FormatError(f"unknown section tag {tag}")
    if off != len(view):
        raise FormatError("trailing bytes after the last section")
    return sections


def save_artifact(path: str, artifact: Artifact) -> None:
    payload = _encode_sections(artifact.sections)
    manifest = dict(artifact.manifest, format_version=FORMAT_VERSION)
    manifest["payload_digest"] = _digest(payload)
    manifest_blob = json.dumps(manifest, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(manifest_blob)))
        fh.write(manifest_blob)
        fh.write(payload)


def load_artifact(path: str, mem_budget: int = DEFAULT_MEM_BUDGET) -> Artifact:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC or len(data) < 16:
        raise FormatError(f"{path}: not a gapindex container (bad magic or short header)")
    (version,) = struct.unpack("<I", data[4:8])
    if version not in (1, FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported container version {version}")
    (mlen,) = struct.unpack("<Q", data[8:16])
    manifest_blob = data[16 : 16 + mlen]
    payload = data[16 + mlen :]
    try:
        manifest = json.loads(manifest_blob)
    except ValueError as e:  # bad JSON or bad UTF-8
        raise FormatError(f"{path}: bad manifest JSON: {e}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if manifest.get("payload_digest") != _digest(payload):
        raise FormatError(f"{path}: payload digest mismatch (corrupted file)")
    sections = _decode_sections(payload, mem_budget)
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise FormatError(f"{path}: unknown artifact kind {kind!r}")
    # A smallest-shift manifest names no backend; an older one that does is
    # still read.
    name = manifest.get("backend", "linear" if kind == "smallest-shift" else None)
    if "delta" in manifest and name != "smalluniverse":
        raise FormatError(f"{path}: bad backend in manifest: delta applies only to backend"
                          f" 'smalluniverse', not {name!r}")
    try:
        backend = parse_backend(name, manifest.get("delta", 0.5))
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad backend in manifest: {e}") from None
    text_kind = kind in ("gapped-string", "jumbled")
    required = ("text",) if text_kind else ("universe", "set_offsets", "set_elements")
    if not all(name in sections for name in required):
        raise FormatError(f"{path}: a {kind} container needs the sections {', '.join(required)}")
    if text_kind and not isinstance(sections["text"], bytes):
        raise FormatError(f"{path}: the text section must be raw bytes, not an int64 array")
    return Artifact(
        kind=kind,
        backend=backend,
        mem_budget=mem_budget,
        manifest=manifest,
        collection=None if text_kind else _sections_to_collection(sections),
        text=sections["text"] if text_kind else None,
        sections=sections,
    )


def _collection_to_sections(c: SetCollection) -> dict:
    offsets = [0]
    elements: list[int] = []
    for s in c.sets:
        elements.extend(s.elements)
        offsets.append(len(elements))
    return {
        "universe": np.array([c.universe], dtype=np.int64),
        "set_offsets": np.array(offsets, dtype=np.int64),
        "set_elements": np.array(elements, dtype=np.int64),
    }


def _sections_to_collection(sections: dict) -> SetCollection:
    """Rebuild the collection, holding the sections to what ingest_collection
    accepts: a universe 1..2^40, one or more non-empty sets that exactly tile
    ``set_elements``, and strictly increasing values inside 1..u."""
    universe, offsets, elements = (
        sections[name] for name in ("universe", "set_offsets", "set_elements")
    )
    if not all(isinstance(v, np.ndarray) for v in (universe, offsets, elements)):
        raise FormatError("set sections must be int64 arrays")
    if len(universe) != 1 or not 1 <= universe[0] <= MAX_UNIVERSE:
        raise FormatError("universe section must hold one size in 1..2^40")
    u = int(universe[0])
    if (len(offsets) < 2 or offsets[0] != 0 or offsets[-1] != len(elements)
            or np.any(np.diff(offsets) < 1)):
        raise FormatError("set offsets must rise strictly from 0 to the number of set elements")
    if elements.min() < 1 or elements.max() > u:
        raise FormatError(f"a set value lies outside universe 1..{u}")
    # A step that does not rise is allowed only where one set ends and the next starts.
    falls = np.diff(elements) < 1
    falls[offsets[1:-1] - 1] = False
    if falls.any():
        raise FormatError("a set's values are not strictly increasing")
    values, bounds = elements.tolist(), offsets.tolist()
    sets = tuple(IntSet(tuple(values[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))
    return SetCollection(sets=sets, universe=u)


def _base_manifest(kind: str, backend: BackendKind, source: bytes) -> dict:
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "source_digest": _digest(source),
        "counters": {},
    }
    # A smallest-shift index builds no backend, so its manifest names none.
    if kind != "smallest-shift":
        manifest["backend"] = backend.name
        if isinstance(backend, SmallUniverse):
            manifest["delta"] = backend.delta
    return manifest


def build_artifact(
    kind: str,
    source: bytes,
    backend: BackendKind,
    mem_budget: int = DEFAULT_MEM_BUDGET,
) -> Artifact:
    """Parse and validate a source file, build the index once to collect
    accounting counters and trip every guard, and assemble the payload."""
    if kind not in KINDS:
        raise FormatError(f"unknown artifact kind {kind!r} (expected one of {KINDS})")
    manifest = _base_manifest(kind, backend, source)
    counters = manifest["counters"]
    artifact = Artifact(kind=kind, backend=backend, mem_budget=mem_budget, manifest=manifest)

    if kind in ("ssi", "gapped-set", "smallest-shift"):
        collection = parse_collection(source.decode())
        artifact.collection = collection
        artifact.sections = _collection_to_sections(collection)
        counters["total_size"] = collection.total_size
        counters["k"] = collection.k
        counters["universe"] = collection.universe
        if kind == "ssi":
            built = make_backend(artifact)
            counters["backend_bytes"] = built.space_bytes()
        elif kind == "gapped-set":
            index = make_gapped_index(artifact)
            counters["stored_elements"] = index.total_elements
            counters["levels"] = index.max_level
        else:
            index = make_shift_index(artifact)
            counters["large_sets"] = len(index.large_ids)
            counters["threshold"] = index.threshold
    else:
        if not source:
            raise FormatError("text source is empty")
        artifact.text = source
        artifact.sections = {"text": source}
        counters["n"] = n = len(source)
        if kind == "gapped-string":
            index = make_string_index(artifact)
            counters["set_elements"] = index.set_elements
            counters["set_elements_bound"] = n * n.bit_length()
            counters["levels"] = index.gapped.max_level
        else:
            counters["sigma"] = make_jumbled_index(artifact).sigma
    return artifact


def make_backend(artifact: Artifact):
    from .backends import build_backend

    return build_backend(artifact.collection, artifact.backend, artifact.mem_budget)


def make_reporting_index(artifact: Artifact):
    from .reporting import build_reporting_index

    return build_reporting_index(artifact.collection, artifact.backend, artifact.mem_budget)


def make_gapped_index(artifact: Artifact):
    from .gapped import build_gapped_index

    return build_gapped_index(artifact.collection, artifact.backend, artifact.mem_budget)


def make_shift_index(artifact: Artifact):
    from .smallest_shift import build_smallest_shift

    return build_smallest_shift(artifact.collection)


def make_string_index(artifact: Artifact):
    from .textindex import build_gapped_string_index

    return build_gapped_string_index(artifact.text, artifact.backend, artifact.mem_budget)


def make_jumbled_index(artifact: Artifact):
    from .jumbled import build_jumbled_index

    alphabet = sorted(set(artifact.text))
    if not alphabet:
        raise FormatError("text source is empty")
    return build_jumbled_index(artifact.text, alphabet, artifact.backend, artifact.mem_budget)
