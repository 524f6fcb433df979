"""Self-describing checkpoint container.

Layout: 8-byte magic, little-endian uint32 manifest length, UTF-8 JSON
manifest, then a contiguous little-endian blob. The manifest carries the
format version, config hash, stage tag, a tensor directory (name -> shape,
dtype, byte offset, byte length), free-form metadata, and a SHA-256 of the
blob so corruption is detected on load.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

MAGIC = b"RECGPT01"
FORMAT_VERSION = 1

_DTYPES = {"<f4", "<f8", "<i4", "<i8"}


class CheckpointError(RuntimeError):
    pass


def save(path, tensors: dict[str, np.ndarray], stage: str, config_hash: str,
         meta: dict | None = None) -> None:
    directory = {}
    blob_parts = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in _DTYPES:
            raise CheckpointError(f"tensor {name}: unsupported dtype {arr.dtype}")
        raw = arr.astype(dtype, copy=False).tobytes()
        directory[name] = {
            "shape": list(arr.shape),
            "dtype": dtype,
            "offset": offset,
            "length": len(raw),
        }
        blob_parts.append(raw)
        offset += len(raw)
    blob = b"".join(blob_parts)
    manifest = {
        "format_version": FORMAT_VERSION,
        "stage": stage,
        "config_hash": config_hash,
        "meta": meta or {},
        "tensors": directory,
        "blob_length": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
    }
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(len(payload), dtype="<u4").tobytes())
        fh.write(payload)
        fh.write(blob)


def load(path) -> tuple[dict[str, np.ndarray], dict]:
    """Returns (tensors, manifest); raises CheckpointError on any corruption."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc}") from exc
    if len(raw) < 12 or raw[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a recgpt checkpoint")
    manifest_len = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    header_end = 12 + manifest_len
    if len(raw) < header_end:
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version")
    blob = raw[header_end:]
    if not _is_count(manifest.get("blob_length")):
        raise CheckpointError(f"{path}: manifest blob_length must be a non-negative integer")
    if len(blob) != manifest["blob_length"]:
        raise CheckpointError(
            f"{path}: blob length {len(blob)} != manifest {manifest['blob_length']}"
        )
    if hashlib.sha256(blob).hexdigest() != manifest.get("blob_sha256"):
        raise CheckpointError(f"{path}: blob checksum mismatch (corrupt or tampered)")
    if not isinstance(manifest.get("tensors"), dict):
        raise CheckpointError(f"{path}: manifest tensors must be a directory of entries")
    tensors = {}
    for name, entry in manifest["tensors"].items():
        _check_entry(f"{path}: tensor {name}", entry, len(blob))
        start = entry["offset"]
        arr = np.frombuffer(blob[start:start + entry["length"]], dtype=entry["dtype"])
        tensors[name] = arr.reshape(entry["shape"]).copy()
    return tensors, manifest


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_entry(where: str, entry, blob_length: int) -> None:
    """Refuse a directory entry unless it names a supported dtype, a shape of
    non-negative ints, and a byte range inside the blob that holds exactly
    that shape of that dtype."""
    if not isinstance(entry, dict):
        raise CheckpointError(f"{where}: directory entry must be a dict")
    if entry.get("dtype") not in _DTYPES:
        raise CheckpointError(f"{where}: dtype {entry.get('dtype')!r:.20} not in "
                              f"{sorted(_DTYPES)}")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
        raise CheckpointError(f"{where}: shape must be a list of non-negative integers")
    start, length = entry.get("offset"), entry.get("length")
    if not (_is_count(start) and _is_count(length)) or start + length > blob_length:
        raise CheckpointError(f"{where}: offset and length must lie inside the "
                              f"{blob_length}-byte blob")
    if length != math.prod(shape) * np.dtype(entry["dtype"]).itemsize:
        raise CheckpointError(f"{where}: {length} bytes do not hold shape {shape} "
                              f"of {entry['dtype']}")
