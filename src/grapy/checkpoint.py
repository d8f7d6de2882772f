"""Flat binary parameter checkpoints.

Layout: magic b"GRPY", format version u32, then one record per entry:
u32 name length, UTF-8 name, u32 rank, u64 extents, little-endian float64
values. Metadata strings (taxonomy bindings and model layout hints) travel
as records named ``meta.<key>`` whose values are the UTF-8 byte codepoints;
that keeps the container flat and the round-trip bit-exact. Record names
are unique, parameter values finite and metadata values byte codes. A save
writes through ``replacing``, so a failed save leaves the old file as it was.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

MAGIC = b"GRPY"
VERSION = 1
_META_PREFIX = "meta."


class CheckpointError(ValueError):
    """Malformed checkpoint container."""


@contextmanager
def replacing(path):
    """A binary file whose bytes replace ``path`` when the block ends: written
    to a temporary file next to it, synced, then renamed over it. A block that
    raises leaves ``path`` as it was and no temporary file behind; an OSError
    on the temporary file is raised naming ``path``."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> None:
    """Write ``arrays`` and ``meta``. A parameter holding NaN or Inf, which loading
    refuses, or named like metadata is refused before the file opens."""
    for name, arr in arrays.items():
        if name.startswith(_META_PREFIX):
            raise CheckpointError(f"parameter name {name!r} collides with metadata prefix")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"parameter {name!r} holds NaN or Inf")
    with replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for key, text in (meta or {}).items():
            _write_record(fh, _META_PREFIX + key, np.frombuffer(text.encode("utf-8"), np.uint8))
        for name, arr in arrays.items():
            _write_record(fh, name, arr)


def _write_record(fh, name: str, values) -> None:
    values = np.asarray(values, dtype="<f8")
    raw = name.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<I", values.ndim))
    for ext in values.shape:
        fh.write(struct.pack("<Q", ext))
    fh.write(values.tobytes())  # C order


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic bytes at offset 0: {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointError("truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported format version {version}")
    pos = 8
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, str] = {}
    names: set[str] = set()
    while pos < len(blob):
        start = pos
        name, values, pos = _read_record(blob, pos)
        if name in names:
            raise CheckpointError(f"duplicate record name {name!r} at offset {start}")
        names.add(name)
        if name.startswith(_META_PREFIX):
            if not ((values >= 0) & (values <= 255) & (values == np.round(values))).all():
                raise CheckpointError(f"value of {name!r} in the record at offset {start} "
                                      "holds codes that are not bytes (integers in [0, 255])")
            meta[name[len(_META_PREFIX):]] = _text(bytes(values.astype(np.uint8)),
                                                   f"value of {name!r}", start)
        elif not np.isfinite(values).all():
            raise CheckpointError(f"parameter {name!r} in the record at offset {start} "
                                  "holds NaN or Inf")
        else:
            arrays[name] = values
    return arrays, meta


def _text(raw: bytes, what: str, pos: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} in the record at offset {pos} is not UTF-8: "
                              f"{raw!r}") from None


def _read_record(blob: bytes, pos: int):
    def need(n, what):
        if pos + n > len(blob):
            raise CheckpointError(f"truncated {what} at offset {pos}")

    need(4, "name length")
    (nlen,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    need(nlen, "name")
    name = _text(blob[pos : pos + nlen], "name", pos - 4)
    pos += nlen
    need(4, "rank")
    (rank,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    need(8 * rank, "extents")
    shape = struct.unpack_from(f"<{rank}Q" if rank else "<0Q", blob, pos)
    pos += 8 * rank
    count = 1
    for ext in shape:
        count *= ext
    need(8 * count, f"values of {name!r}")
    try:  # a zero extent lets any others through need(); numpy caps rank and size
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(shape).copy()
    except ValueError:
        raise CheckpointError(f"extents {shape} of {name!r} at offset {pos - 8 * rank} "
                              "make no array") from None
    pos += 8 * count
    return name, values, pos
