"""Binary file formats: gesture dataset (TGK1) and model checkpoint (TGKM).

Both are little-endian with a fixed header; each writer also emits a JSON
sidecar/manifest describing the file.

TGK1 layout:
    magic "TGK1" | version u32 | n_recordings u32 | frames u32 | taxels u32
    per recording: label u8 | user_id u16 | seed u64 | frames*taxels*3 float32,
    one ``gestures.RECORDING`` row

TGKM layout:
    magic "TGKM" | version u32
    parameters in declared order as float32; ``c_in`` is in the manifest only
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from .geometry import N_TAXELS
from .gestures import N_CLASSES, N_FRAMES, RECORD_HEADER, RECORDING
from .workers import run_chunks, shared_array

DATASET_MAGIC = b"TGK1"
CHECKPOINT_MAGIC = b"TGKM"
DATASET_VERSION = 1
CHECKPOINT_VERSION = 2

_DATASET_HEADER = struct.Struct("<4sIIII")
_RECORD_SIZE = RECORDING.itemsize
_FRAMES_AT = _DATASET_HEADER.size + RECORD_HEADER.itemsize  # offset of record 0's frames
_CHECKPOINT_HEADER = struct.Struct("<4sI")
SCAN_CHUNK = 256  # records per chunk of the opening scan's workers, ~6 ms of scan


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


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of ``data`` at ``offset`` of ``fd``. A positional write leaves
    the descriptor's file position alone, so forked processes may share it."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


@contextmanager
def writing_dataset(path, headers: np.ndarray, config: dict | None = None):
    """Write a TGK1 file of the recordings a ``RECORD_HEADER`` array lists and
    its JSON sidecar, both through ``replacing``. Yields ``write(i, frames)``,
    which writes record i's 11-byte header and ``(122, 49, 3)`` frames at the
    record's offset with positional writes, so any process forked inside the
    block may call it, in any order. The block must write every record once;
    the sidecar is written after it ends."""
    headers = np.asarray(headers, dtype=RECORD_HEADER)
    n = len(headers)
    sidecar = {
        "format": "TGK1",
        "version": DATASET_VERSION,
        "n_recordings": n,
        "frames": N_FRAMES,
        "taxels": N_TAXELS,
        "config": config or {},
    }
    with replacing(path, sidecar_path(path)) as (fh, side):
        fd = fh.fileno()
        _pwrite(fd, _DATASET_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, n, N_FRAMES, N_TAXELS), 0)

        def write(i: int, frames: np.ndarray) -> None:
            if not 0 <= i < n or frames.shape != (N_FRAMES, N_TAXELS, 3):
                raise ValueError(f"no record {i} of {n} with frames of shape {frames.shape}")
            offset = _DATASET_HEADER.size + i * _RECORD_SIZE
            _pwrite(fd, headers[i].tobytes(), offset)
            _pwrite(fd, np.ascontiguousarray(frames, dtype="<f4"), offset + RECORD_HEADER.itemsize)

        yield write
        side.write(json.dumps(sidecar, indent=1).encode())


def save_dataset(records: np.ndarray, path, config: dict | None = None) -> None:
    """Write a ``RECORDING`` array as a TGK1 file and its JSON sidecar."""
    headers = records[list(RECORD_HEADER.names)].astype(RECORD_HEADER)
    with writing_dataset(path, headers, config) as write:
        for i, frames in enumerate(records["frames"]):
            write(i, frames)


class DatasetReader:
    """A TGK1 file, one open file for all of its reads.

    Opening checks the file header and the exact file size before it
    allocates anything, then scans every record once, in chunks of records
    on ``workers.run_chunks``' workers: each 11-byte header goes into
    ``headers``, a read-only ``RECORD_HEADER`` array in a shared mapping,
    and the frames into one reused ``(122, 49, 3)`` row per worker, and the
    record's label, then its forces, are checked. A chunk stops at its first
    corrupt record and the lowest failing chunk's ``FormatError`` is raised,
    so it names the first corrupt record in file order. ``read(i)`` reads
    one record's frames on demand.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb", buffering=0)
        self._fd = self._fh.fileno()
        try:
            self.headers = self._scan()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self) -> "DatasetReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def _scan(self) -> np.ndarray:
        fh, path = self._fh, self.path
        header = fh.read(_DATASET_HEADER.size)
        if len(header) < _DATASET_HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, n_rec, frames, taxels = _DATASET_HEADER.unpack(header)
        if magic != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != DATASET_VERSION:
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
        headers = shared_array(n_rec, RECORD_HEADER)
        raw = headers.view(np.uint8).reshape(n_rec, RECORD_HEADER.itemsize)
        labels = headers["label"]

        def scan(lo: int, hi: int) -> None:
            row = np.empty((N_FRAMES, N_TAXELS, 3), dtype="<f4")
            for i in range(lo, hi):
                offset = _DATASET_HEADER.size + i * _RECORD_SIZE
                if os.preadv(self._fd, [raw[i], row], offset) != _RECORD_SIZE:
                    raise FormatError(f"{path}: truncated at recording {i}")
                if labels[i] >= N_CLASSES:
                    raise FormatError(f"{path}: recording {i} has unknown label {labels[i]}")
                if not np.isfinite(row).all():
                    raise FormatError(f"{path}: recording {i} has non-finite forces")
        run_chunks(n_rec, SCAN_CHUNK, scan)
        headers.flags.writeable = False
        return headers

    def read(self, i: int) -> np.ndarray:
        """Record i's ``(122, 49, 3)`` float32 frames in a fresh array, read
        with one positional read at the record's offset. Their forces are as
        the scan checked them, unless the file changed since."""
        if not 0 <= i < len(self.headers):
            raise IndexError(f"no record {i} of {len(self.headers)}")
        frames = np.empty((N_FRAMES, N_TAXELS, 3), dtype="<f4")
        if os.preadv(self._fd, [frames], _FRAMES_AT + i * _RECORD_SIZE) != frames.nbytes:
            raise FormatError(f"{self.path}: truncated at recording {i}")
        return frames


def load_dataset(path) -> np.recarray:
    """Read a TGK1 file into a read-only ``RECORDING`` record array. Once the
    reader's opening scan has checked the file, its records, the array's
    bytes, are read in one sequential read (one per 2 GiB, the most Linux
    reads at once); a file cut since the scan raises FormatError."""
    with DatasetReader(path) as reader:
        records = np.empty(len(reader.headers), dtype=RECORDING)
        body, done = records.view(np.uint8), 0
        while done < body.size:
            got = os.preadv(reader._fd, [body[done:]], _DATASET_HEADER.size + done)
            if not got:
                raise FormatError(f"{path}: truncated at recording {done // _RECORD_SIZE}")
            done += got
    records.flags.writeable = False
    return records.view(np.recarray)


def dataset_id(headers: np.ndarray) -> str:
    """SHA-256 over the record count and each record's (label, user, seed)
    header, of a ``RECORD_HEADER`` array.

    Recording seeds derive from the master seed, so the headers tell datasets
    apart without hashing the frames.
    """
    headers = np.asarray(headers, dtype=RECORD_HEADER)
    return hashlib.sha256(struct.pack("<I", len(headers)) + headers.tobytes()).hexdigest()


def save_checkpoint(params: dict[str, np.ndarray], c_in: int, path, config: dict | None = None) -> None:
    """Write parameters in declared (insertion) order as float32, and ``c_in``
    and their shapes in the manifest."""
    manifest = {
        "format": "TGKM",
        "version": CHECKPOINT_VERSION,
        "c_in": c_in,
        "parameters": {name: list(value.shape) for name, value in params.items()},
        "config": config or {},
    }
    with replacing(path, sidecar_path(path)) as (fh, side):
        fh.write(_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION))
        for value in params.values():
            fh.write(np.ascontiguousarray(value, dtype="<f4").tobytes())
        side.write(json.dumps(manifest, indent=1).encode())


def load_checkpoint(path, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """A TGKM file's float32 parameters, shaped as ``shapes`` declares them;
    a file whose size is not the header plus those parameters is malformed."""
    data = Path(path).read_bytes()
    if len(data) < _CHECKPOINT_HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version = _CHECKPOINT_HEADER.unpack_from(data, 0)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    counts = [math.prod(shape) for shape in shapes.values()]
    expected = _CHECKPOINT_HEADER.size + 4 * sum(counts)
    if len(data) != expected:
        raise FormatError(f"{path}: {len(data)} bytes, but the declared shapes need {expected}")
    values = np.frombuffer(data, dtype="<f4", offset=_CHECKPOINT_HEADER.size).astype(np.float32)
    return {name: part.reshape(shape) for (name, shape), part
            in zip(shapes.items(), np.split(values, np.cumsum(counts)[:-1]))}
