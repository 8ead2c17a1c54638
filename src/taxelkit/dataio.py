"""Binary file formats: gesture dataset (TGK1) and model checkpoint (TGKM).

Both are little-endian with a fixed header; each writer also emits a JSON
sidecar/manifest describing the file.

TGK1 layout:
    magic "TGK1" | version u32 | n_recordings u32 | frames u32 | taxels u32
    per recording: label u8 | user_id u16 | seed u64 | frames*taxels*3 float32

TGKM layout:
    magic "TGKM" | version u32 | c_in u32
    parameters in declared order as float64
"""
from __future__ import annotations

import hashlib
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .geometry import N_TAXELS
from .gestures import N_CLASSES, N_FRAMES, GestureRecording, block_recordings

DATASET_MAGIC = b"TGK1"
CHECKPOINT_MAGIC = b"TGKM"
FORMAT_VERSION = 1

_DATASET_HEADER = struct.Struct("<4sIIII")
_RECORD_HEADER = struct.Struct("<BHQ")
_CHECKPOINT_HEADER = struct.Struct("<4sII")


class FormatError(ValueError):
    pass


def sidecar_path(path) -> Path:
    """The JSON sidecar (dataset) or manifest (checkpoint) written next to ``path``."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


@contextmanager
def _replacing(path):
    """A binary file to write in place of ``path``: a temporary file in the
    same directory, moved onto ``path`` by ``os.replace`` once the block ends.
    If the block raises, the temporary file is removed and ``path`` keeps
    its old contents, so no reader ever sees a half-written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(recordings: list[GestureRecording], path, config: dict | None = None) -> None:
    with _replacing(path) as fh:
        fh.write(_DATASET_HEADER.pack(DATASET_MAGIC, FORMAT_VERSION, len(recordings), N_FRAMES,
                                      N_TAXELS))
        for rec in recordings:
            fh.write(_RECORD_HEADER.pack(int(rec.label), rec.user_id, rec.seed))
            fh.write(np.ascontiguousarray(rec.frames, dtype="<f4"))
    sidecar = {
        "format": "TGK1",
        "version": FORMAT_VERSION,
        "n_recordings": len(recordings),
        "frames": N_FRAMES,
        "taxels": N_TAXELS,
        "config": config or {},
    }
    with _replacing(sidecar_path(path)) as fh:
        fh.write(json.dumps(sidecar, indent=1).encode())


def load_dataset(path) -> list[GestureRecording]:
    """Read a TGK1 file; the frames are rows of one aligned, read-only block."""
    with open(path, "rb") as fh:
        header = fh.read(_DATASET_HEADER.size)
        if len(header) < _DATASET_HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, n_rec, frames, taxels = _DATASET_HEADER.unpack(header)
        if magic != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if frames != N_FRAMES or taxels != N_TAXELS:
            raise FormatError(f"{path}: unexpected tensor dims {frames}x{taxels}")
        size = os.fstat(fh.fileno()).st_size
        expected = _DATASET_HEADER.size + n_rec * (_RECORD_HEADER.size + frames * taxels * 3 * 4)
        if size < expected:
            raise FormatError(f"{path}: truncated: {n_rec} recordings need {expected} bytes, "
                              f"file has {size}")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes")
        # the size check above bounds this allocation by the file's size
        block = np.empty((n_rec, frames, taxels, 3), dtype="<f4")
        record = bytearray(_RECORD_HEADER.size)
        headers = []
        for i, row in enumerate(block):
            if fh.readinto(record) != len(record) or fh.readinto(row) != row.nbytes:
                raise FormatError(f"{path}: truncated at recording {i}")
            label, user_id, seed = _RECORD_HEADER.unpack(record)
            if label >= N_CLASSES:
                raise FormatError(f"{path}: recording {i} has unknown label {label}")
            if not np.isfinite(row).all():
                raise FormatError(f"{path}: recording {i} has non-finite forces")
            headers.append((label, user_id, seed))
    return block_recordings(block, headers)


def dataset_id(recordings: list[GestureRecording]) -> str:
    """SHA-256 over the record count and each record's (label, user, seed) header.

    Recording seeds derive from the master seed, so the headers tell datasets
    apart without hashing the frames.
    """
    digest = hashlib.sha256(struct.pack("<I", len(recordings)))
    for rec in recordings:
        digest.update(_RECORD_HEADER.pack(int(rec.label), rec.user_id, rec.seed))
    return digest.hexdigest()


def save_checkpoint(params: dict[str, np.ndarray], c_in: int, path, config: dict | None = None) -> None:
    """Write parameters in declared (insertion) order as float64."""
    with _replacing(path) as fh:
        fh.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, FORMAT_VERSION, c_in))
        for value in params.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
    manifest = {
        "format": "TGKM",
        "version": FORMAT_VERSION,
        "c_in": c_in,
        "parameters": {name: list(value.shape) for name, value in params.items()},
        "config": config or {},
    }
    with _replacing(sidecar_path(path)) as fh:
        fh.write(json.dumps(manifest, indent=1).encode())


def load_checkpoint(path, shapes: dict[str, tuple[int, ...]]) -> tuple[dict[str, np.ndarray], int]:
    data = Path(path).read_bytes()
    if len(data) < _CHECKPOINT_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, c_in = _CHECKPOINT_HEADER.unpack_from(data, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    offset = _CHECKPOINT_HEADER.size
    params = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        if offset + count * 8 > len(data):
            raise FormatError(f"{path}: size does not match declared shapes")
        params[name] = np.frombuffer(data, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += count * 8
    if offset != len(data):
        raise FormatError(f"{path}: size does not match declared shapes")
    return params, c_in
