"""Flat binary container for named float64 tensors and their metadata.

Layout (all integers little-endian):

    magic   b"EFT2"
    u32     header length in bytes
    bytes   utf-8 JSON object (the metadata)
    u32     tensor count
    per tensor:
        u16     name length in bytes
        bytes   utf-8 name
        u8      ndim
        u64*ndim  extents
        f64*prod  row-major data

No compression, no alignment games; the point is a format whose every
byte is accounted for and that round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"EFT2"


class FormatError(ValueError):
    """Container is malformed or not ours."""


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace path with data, or leave it as it was.

    The bytes go to a temp file in the same directory, which os.replace
    then renames over path, so a failed or interrupted write never leaves
    a partial file behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write meta and tensors as one container through one write_atomic."""
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", len(header)), header, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        # asarray keeps 0-d shapes; ascontiguousarray would promote to 1-d
        arr = np.asarray(arr, dtype="<f8", order="C")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name[:32]}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    write_atomic(path, b"".join(chunks))


class _Reader:
    """Bounds-checked cursor over a container's bytes; slices are views."""

    def __init__(self, buf: bytes, pos: int):
        self.buf = memoryview(buf)
        self.pos = pos

    def take(self, n: int, what: str) -> memoryview:
        end = self.pos + n
        if end > len(self.buf):
            raise FormatError(
                f"truncated container: {what} needs {n} bytes at offset {self.pos}, "
                f"{len(self.buf) - self.pos} left"
            )
        chunk = self.buf[self.pos : end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def load_tensors(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read (meta, tensors); any malformed or truncated input raises FormatError."""
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise FormatError(f"bad magic {buf[:4]!r}, expected {MAGIC!r}")
    reader = _Reader(buf, len(MAGIC))
    header = reader.take(reader.unpack("<I", "header length")[0], "header")
    try:
        meta = json.loads(bytes(header).decode("utf-8"))
    except (ValueError, RecursionError) as err:  # bad utf-8 or JSON, or too deeply nested
        raise FormatError(f"header is not utf-8 JSON: {err}") from err
    if not isinstance(meta, dict):
        raise FormatError(f"header must be a JSON object, got {type(meta).__name__}")
    (count,) = reader.unpack("<I", "tensor count")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H", "name length")
        try:
            name = bytes(reader.take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError as err:
            raise FormatError(f"tensor name at offset {reader.pos - name_len} is not utf-8") from err
        if name in out:
            raise FormatError(f"tensor name {name!r} appears twice")
        (ndim,) = reader.unpack("<B", f"rank of {name!r}")
        shape = reader.unpack(f"<{ndim}Q", f"shape of {name!r}")
        n = math.prod(shape)  # python ints: a garbled extent cannot wrap around
        data = reader.take(8 * n, f"data of {name!r}")
        # owned, native-endian copy
        out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
    if reader.pos != len(buf):
        raise FormatError(f"{len(buf) - reader.pos} trailing bytes after last tensor")
    return meta, out
