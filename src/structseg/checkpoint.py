"""Single-file checkpoint format: JSON header line + raw little-endian float64.

The header records tensor names, shapes and byte offsets into the binary
section that follows; round-trips are bit-exact.
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Tuple

import numpy as np

FORMAT_TAG = "structseg-blob-v1"


class CheckpointError(ValueError):
    """The file is not a readable structseg checkpoint (wrong format,
    unparsable or incomplete header, tensors that do not fit the payload,
    or tensors that do not fit the net the header describes)."""


def write_blob(path, arrays: Dict[str, np.ndarray], meta: Optional[dict] = None) -> None:
    """Write named float64 arrays with a JSON header; offsets are relative
    to the start of the binary section (the byte after the header newline)."""
    entries = []
    blobs = []
    offset = 0
    for name, arr in arrays.items():
        a = np.asarray(arr, dtype="<f8")
        raw = np.ascontiguousarray(a).tobytes()
        entries.append({
            "name": name,
            "shape": list(a.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        blobs.append(raw)
        offset += len(raw)
    header = {"format": FORMAT_TAG, "meta": meta or {}, "tensors": entries}
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for raw in blobs:
            f.write(raw)


def read_blob(path) -> Tuple[Dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        header_line = f.readline()
        data = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: unreadable checkpoint header ({e})") from None
    if not isinstance(header, dict) or header.get("format") != FORMAT_TAG:
        raise CheckpointError(f"{path} is not a {FORMAT_TAG} file")
    meta, entries = header.get("meta", {}), header.get("tensors")
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise CheckpointError(f"{path}: the header lacks its meta object or tensor list")
    arrays = {}
    for entry in entries:
        try:
            name, shape, n, off = (entry[k] for k in ("name", "shape", "nbytes", "offset"))
            fits = 0 <= off <= off + n <= len(data)
            arr = np.frombuffer(data[off:off + n], dtype="<f8").reshape(shape) if fits else None
        except (KeyError, TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: malformed tensor entry {entry!r} ({e})") from None
        if arr is None:
            raise CheckpointError(
                f"{path}: tensor {name} ({n} bytes at offset {off}) lies "
                f"outside the {len(data)}-byte payload; is the file truncated?")
        arrays[name] = arr.astype(np.float64)
    return arrays, meta
