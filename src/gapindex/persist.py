"""Versioned binary container for built indexes.

One file holds a JSON manifest plus named binary sections (little-endian
int64 arrays or raw bytes) with a payload digest, so a corrupted or
truncated file is rejected at load. Only the primary input is persisted:
the set collection (``universe``, ``set_offsets``, ``set_elements``) for
the set kinds, and the ``text`` for the text kinds. Everything else, the
suffix array, the dyadic interval sets and the jumbled alphabet included,
is rebuilt deterministically on load, which keeps the container portable
and query outputs bit-exact across save/load. Containers written with
extra sections (``sa``, ``lcp`` and interval sets for gapped-string,
``alphabet`` for jumbled) still load; their index is rebuilt from the
text alone.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .backends import DEFAULT_MEM_BUDGET, BackendKind, SmallUniverse, parse_backend
from .errors import FormatError
from .sets import MAX_UNIVERSE, IntSet, SetCollection, parse_collection

MAGIC = b"GIDX"
FORMAT_VERSION = 1

KINDS = ("ssi", "gapped-set", "gapped-string", "jumbled", "smallest-shift")

_SEC_I64 = 0
_SEC_RAW = 1


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
        blob = value.astype("<i8").tobytes() if isinstance(value, np.ndarray) else bytes(value)
        tag = _SEC_I64 if isinstance(value, np.ndarray) else _SEC_RAW
        encoded_name = name.encode()
        out.append(struct.pack("<H", len(encoded_name)))
        out.append(encoded_name)
        out.append(struct.pack("<BQ", tag, len(blob)))
        out.append(blob)
    return b"".join(out)


def _decode_sections(blob: bytes) -> dict:
    view = memoryview(blob)
    off = 0

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
        tag, length = struct.unpack("<BQ", take(9))
        data = bytes(take(length))
        if tag == _SEC_I64:
            sections[name] = np.frombuffer(data, dtype="<i8").astype(np.int64)
        elif tag == _SEC_RAW:
            sections[name] = data
        else:
            raise FormatError(f"unknown section tag {tag}")
    if off != len(view):
        raise FormatError("trailing bytes after the last section")
    return sections


def save_artifact(path: str, artifact: Artifact) -> None:
    payload = _encode_sections(artifact.sections)
    manifest = dict(artifact.manifest)
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
    if version != FORMAT_VERSION:
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
    sections = _decode_sections(payload)
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
