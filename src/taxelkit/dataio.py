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
from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from .geometry import N_TAXELS
from .gestures import N_CLASSES, N_FRAMES, GestureRecording, block_recordings

DATASET_MAGIC = b"TGK1"
CHECKPOINT_MAGIC = b"TGKM"
FORMAT_VERSION = 1

_DATASET_HEADER = struct.Struct("<4sIIII")
# label u8 | user_id u16 | seed u64, packed: 11 bytes
RECORD_HEADER = np.dtype([("label", "u1"), ("user_id", "<u2"), ("seed", "<u8")])
_RECORD_SIZE = RECORD_HEADER.itemsize + N_FRAMES * N_TAXELS * 3 * 4
_CHECKPOINT_HEADER = struct.Struct("<4sII")


class FormatError(ValueError):
    pass


def sidecar_path(path) -> Path:
    """The JSON sidecar (dataset) or manifest (checkpoint) written next to ``path``."""
    path = Path(path)
    return path.with_suffix(path.suffix + ".json")


@contextmanager
def replacing(*paths):
    """Binary files to write in place of ``paths``: temporary files in the same
    directory, each moved onto its path by ``os.replace`` once the block ends,
    so every file is written in full before any is replaced. If the block
    raises, the temporary files are removed and every path keeps its old
    contents, so no reader ever sees a half-written file or a new file beside
    an old sidecar."""
    tmps = [Path(p).with_name(f".{Path(p).name}.{os.getpid()}.tmp") for p in paths]
    try:
        with ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "wb")) for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def record_headers(records) -> np.ndarray:
    """The ``RECORD_HEADER`` array of a recording list, one row per recording;
    a header array is returned as it is."""
    if isinstance(records, np.ndarray):
        return records
    return np.array([(int(r.label), r.user_id, r.seed) for r in records], dtype=RECORD_HEADER)


def save_dataset(recordings: list[GestureRecording], path, config: dict | None = None) -> None:
    headers = record_headers(recordings)
    sidecar = {
        "format": "TGK1",
        "version": FORMAT_VERSION,
        "n_recordings": len(recordings),
        "frames": N_FRAMES,
        "taxels": N_TAXELS,
        "config": config or {},
    }
    with replacing(path, sidecar_path(path)) as (fh, side):
        fh.write(_DATASET_HEADER.pack(DATASET_MAGIC, FORMAT_VERSION, len(recordings), N_FRAMES,
                                      N_TAXELS))
        for header, rec in zip(headers, recordings):
            fh.write(header.tobytes())
            fh.write(np.ascontiguousarray(rec.frames, dtype="<f4"))
        side.write(json.dumps(sidecar, indent=1).encode())


class DatasetReader:
    """A TGK1 file read in two passes, one open file for both.

    Opening runs the header pass: it checks the file header and the exact
    file size, then reads only each record's 11-byte header into
    ``headers``, a read-only ``RECORD_HEADER`` array, and checks its label.
    Nothing frame-sized is allocated. ``frames()`` runs the frame pass.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb", buffering=0)
        try:
            self.headers = self._header_pass()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _header_pass(self) -> np.ndarray:
        fh, path = self._fh, self.path
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
        expected = _DATASET_HEADER.size + n_rec * _RECORD_SIZE
        if size < expected:
            raise FormatError(f"{path}: truncated: {n_rec} recordings need {expected} bytes, "
                              f"file has {size}")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes")
        # the size check above bounds this allocation by the file's size
        headers = np.empty(n_rec, dtype=RECORD_HEADER)
        raw = headers.view(np.uint8).reshape(n_rec, RECORD_HEADER.itemsize)
        for i, record in enumerate(raw):
            fh.seek(_DATASET_HEADER.size + i * _RECORD_SIZE)
            if fh.readinto(record) != record.nbytes:
                raise FormatError(f"{path}: truncated at recording {i}")
        headers.flags.writeable = False
        unknown = np.flatnonzero(headers["label"] >= N_CLASSES)
        if unknown.size:
            i = unknown[0]
            raise FormatError(f"{path}: recording {i} has unknown label {headers['label'][i]}")
        return headers

    def frames(self, block: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
        """The frame pass: yield ``(i, frames)`` for every record i in file
        order, after checking that its forces are finite, used or not.
        ``frames`` is ``block[i]`` when a block is given, else one
        ``(122, 49, 3)`` float32 row that the next record overwrites."""
        fh, path = self._fh, self.path
        fh.seek(_DATASET_HEADER.size)
        record = bytearray(RECORD_HEADER.itemsize)
        row = np.empty((N_FRAMES, N_TAXELS, 3), dtype="<f4")
        for i in range(len(self.headers)):
            frames = row if block is None else block[i]
            if fh.readinto(record) != len(record) or fh.readinto(frames) != frames.nbytes:
                raise FormatError(f"{path}: truncated at recording {i}")
            if not np.isfinite(frames).all():
                raise FormatError(f"{path}: recording {i} has non-finite forces")
            yield i, frames


def load_dataset(path) -> list[GestureRecording]:
    """Read a TGK1 file; the frames are rows of one aligned, read-only block."""
    with DatasetReader(path) as reader:
        block = np.empty((len(reader.headers), N_FRAMES, N_TAXELS, 3), dtype="<f4")
        for _ in reader.frames(block):
            pass
    return block_recordings(block, reader.headers.tolist())


def dataset_id(records) -> str:
    """SHA-256 over the record count and each record's (label, user, seed) header,
    of a recording list or a header array.

    Recording seeds derive from the master seed, so the headers tell datasets
    apart without hashing the frames.
    """
    headers = record_headers(records)
    return hashlib.sha256(struct.pack("<I", len(headers)) + headers.tobytes()).hexdigest()


def save_checkpoint(params: dict[str, np.ndarray], c_in: int, path, config: dict | None = None) -> None:
    """Write parameters in declared (insertion) order as float64."""
    manifest = {
        "format": "TGKM",
        "version": FORMAT_VERSION,
        "c_in": c_in,
        "parameters": {name: list(value.shape) for name, value in params.items()},
        "config": config or {},
    }
    with replacing(path, sidecar_path(path)) as (fh, side):
        fh.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, FORMAT_VERSION, c_in))
        for value in params.values():
            fh.write(np.ascontiguousarray(value, dtype="<f8").tobytes())
        side.write(json.dumps(manifest, indent=1).encode())


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
