import errno
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from taxelkit import dataio
from taxelkit.cli import main
from taxelkit.dataio import (CHECKPOINT_MAGIC, DATASET_MAGIC, RECORD_HEADER, DatasetReader,
                             FormatError, dataset_id, load_checkpoint, load_dataset,
                             save_checkpoint, save_dataset)
from taxelkit.gestures import N_CLASSES, RECORDING, SynthSection, study_protocol, synth_dataset
from taxelkit.nn import CnnModel, param_shapes
from taxelkit.pipeline import select, split_dataset


@pytest.fixture(scope="module")
def recordings():
    return synth_dataset(SynthSection(n_users=2, n_blocks=1, reps_per_block=1), master_seed=42)


def headers_of(records: np.ndarray) -> np.ndarray:
    """A dataset's ``RECORD_HEADER`` array, packed as ``save_dataset`` packs it."""
    return records[list(RECORD_HEADER.names)].astype(RECORD_HEADER)


class TestDataset:
    def test_round_trip(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(recordings)
        for name in RECORDING.names:
            assert loaded[name].tobytes() == recordings[name].tobytes(), name
        assert [int(r.label) for r in loaded] == recordings["label"].tolist()

    def test_loaded_frames_are_read_only_views(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path)
        loaded = load_dataset(path)
        assert not loaded.flags.writeable and not loaded["frames"].flags.writeable
        again = tmp_path / "again.tgk"
        save_dataset(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_loaded_frames_are_rows_of_one_block(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, np.recarray) and loaded.dtype == RECORDING
        # a row is one TGK1 record: its 11-byte header, then its frames
        assert RECORDING.fields["frames"][1] == 11 and RECORDING.itemsize == 71_747
        assert loaded.flags.c_contiguous and loaded.flags.aligned
        start = loaded.__array_interface__["data"][0]
        for i, frames in enumerate(loaded["frames"]):
            assert frames.shape == (122, 49, 3) and frames.dtype == np.dtype("<f4")
            assert frames.__array_interface__["data"][0] == start + i * RECORDING.itemsize + 11
            assert frames.flags.c_contiguous

    def test_loaded_bytes_equal_the_synthesized(self, recordings, tmp_path):
        # every byte of a row is a field's, so a loaded array holds the file's
        # bytes, not whatever a freed block of the same size left behind
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path)
        for _ in range(5):
            dirty = np.full(recordings.nbytes, 0xA5, np.uint8)
            del dirty
            assert load_dataset(path).tobytes() == recordings.tobytes() == path.read_bytes()[20:]

    def test_size_checked_before_allocation(self, recordings, tmp_path):
        path = tmp_path / "huge.tgk"
        save_dataset(recordings[:1], path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 8, 2**32 - 1)  # n_recordings
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated: 4294967295 recordings"):
                load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # not even one (122, 49, 3) float32 block

    def test_dataset_id_covers_record_headers(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path)
        loaded = headers_of(load_dataset(path))
        assert dataset_id(loaded) == dataset_id(headers_of(recordings))
        assert dataset_id(loaded[:-1]) != dataset_id(loaded)
        assert dataset_id(loaded[::-1]) != dataset_id(loaded)
        raw = bytearray(path.read_bytes())
        raw[20 + 3] ^= 1  # a bit of the first record's seed
        path.write_bytes(bytes(raw))
        assert dataset_id(headers_of(load_dataset(path))) != dataset_id(loaded)

    def test_desk_digests_are_pinned(self, tmp_path):
        # every checkpoint's manifest stores both digests and eval refuses a mismatch,
        # so a change to either breaks every saved checkpoint; both hash only integers
        # (seeds, users, labels and row ids), never floats. train and eval take them
        # from the header array of the file, ablate's split from the record array.
        desk = synth_dataset(SynthSection(4, 3, 3), 0)
        save_dataset(desk, tmp_path / "desk.tgk")
        with DatasetReader(tmp_path / "desk.tgk") as reader:
            headers = reader.headers
        for records in (desk, headers):
            assert dataset_id(headers_of(records)) == \
                "5c1e5a7c562ccf10b214b01e74755f34a270bc666c2391d6b5d61a9216a59a53"
            assert split_dataset(records, seed=0).digest() == \
                "7ae3d940d27dee5d6dfed957e81019ac1d2d9fe26d743ef7d11d827657f2ae14"

    def test_record_header_layout(self, recordings):
        # the header array is the file's 11-byte record headers, byte for byte,
        # and the first 11 bytes of each row of a dataset
        headers = study_protocol(SynthSection(2, 1, 1), 42)
        assert RECORD_HEADER.itemsize == 11
        assert headers.dtype == RECORD_HEADER
        assert headers.tobytes() == b"".join(struct.pack("<BHQ", int(r.label), r.user_id, r.seed)
                                             for r in recordings)
        rows = recordings.view(np.uint8).reshape(len(recordings), RECORDING.itemsize)
        assert rows[:, :11].tobytes() == headers_of(recordings).tobytes() == headers.tobytes()

    def test_open_holds_one_row(self, recordings, tmp_path):
        # opening scans every record through one reused row, so its peak is
        # below two records' frames and does not grow with the file
        peaks = []
        for copies in (1, 20):  # 26 and 520 records, 1.9 and 37 MB
            path = tmp_path / f"data{copies}.tgk"
            many = np.tile(recordings, copies)
            save_dataset(many, path)
            tracemalloc.start()
            try:
                with DatasetReader(path) as reader:
                    peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * 71_736
        assert peaks[1] < peaks[0] + 8_192  # 494 more 11-byte headers are 5,434 bytes
        assert reader.headers.tobytes() == headers_of(many).tobytes()
        assert not reader.headers.flags.writeable

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_force(self, recordings, tmp_path, value):
        path = tmp_path / "nan.tgk"
        save_dataset(recordings[:2], path)
        raw = bytearray(path.read_bytes())
        # a float in the second record's frames
        struct.pack_into("<f", raw, 20 + 2 * 11 + 122 * 49 * 3 * 4 + 400, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="recording 1 has non-finite"):
            load_dataset(path)
        with pytest.raises(FormatError, match="recording 1 has non-finite"):
            DatasetReader(path)

    def test_sidecar(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path, config={"reps": 1})
        sidecar = json.loads((tmp_path / "data.tgk.json").read_text())
        assert sidecar["format"] == "TGK1"
        assert sidecar["n_recordings"] == len(recordings)
        assert sidecar["frames"] == 122
        assert sidecar["taxels"] == 49
        assert sidecar["config"] == {"reps": 1}

    def test_header_layout(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings[:1], path)
        raw = path.read_bytes()
        magic, version, n_rec, frames, taxels = struct.unpack_from("<4sIIII", raw)
        assert magic == DATASET_MAGIC
        assert (version, n_rec, frames, taxels) == (1, 1, 122, 49)
        # fixed record size: 11-byte record header + float32 payload
        assert len(raw) == 20 + 11 + 122 * 49 * 3 * 4

    def test_deterministic_bytes(self, recordings, tmp_path):
        a, b = tmp_path / "a.tgk", tmp_path / "b.tgk"
        save_dataset(recordings, a)
        save_dataset(recordings, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_dataset(self, recordings, tmp_path):
        path = tmp_path / "empty.tgk"
        save_dataset(recordings[:0], path)
        loaded = load_dataset(path)
        assert len(loaded) == 0 and loaded.dtype == RECORDING

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tgk"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(FormatError, match="magic"):
            load_dataset(path)

    def test_bad_version(self, recordings, tmp_path):
        path = tmp_path / "v9.tgk"
        save_dataset(recordings[:1], path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4, 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_dataset(path)

    def test_truncated(self, recordings, tmp_path):
        path = tmp_path / "cut.tgk"
        save_dataset(recordings[:1], path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(FormatError):
            load_dataset(path)

    def test_trailing_bytes(self, recordings, tmp_path):
        path = tmp_path / "extra.tgk"
        save_dataset(recordings[:1], path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_dataset(path)

    def test_unknown_label(self, recordings, tmp_path):
        path = tmp_path / "label.tgk"
        save_dataset(recordings[:1], path)
        raw = bytearray(path.read_bytes())
        raw[20] = 13  # first record's label byte
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="label"):
            load_dataset(path)


def _record_arrays(n: int):
    """Strategy for ``RECORDING`` arrays of n records: any label, user id and
    seed a record can hold, and finite float32 frames."""
    frames = st.floats(width=32, allow_nan=False, allow_infinity=False)
    return st.tuples(hnp.arrays("u1", n, elements=st.integers(0, N_CLASSES - 1)),
                     hnp.arrays("<u2", n), hnp.arrays("<u8", n),
                     hnp.arrays("<f4", (n, 122, 49, 3), elements=frames))


class TestRoundTripProperty:
    @settings(max_examples=25, deadline=None)
    @given(fields=st.integers(0, 5).flatmap(_record_arrays))
    def test_any_records(self, tmp_path_factory, fields):
        records = np.zeros(len(fields[0]), dtype=RECORDING)
        for name, values in zip(RECORDING.names, fields):
            records[name] = values
        path = tmp_path_factory.mktemp("round_trip") / "data.tgk"
        save_dataset(records, path)
        loaded = load_dataset(path)
        for name in RECORDING.names:
            assert loaded[name].tobytes() == records[name].tobytes(), name
        with DatasetReader(path) as reader:
            headers = reader.headers
        assert dataset_id(headers) == dataset_id(headers_of(records)) == \
            dataset_id(headers_of(loaded))
        if len(records):
            assert split_dataset(headers, seed=3) == split_dataset(records, seed=3)


class TestPackedRows:
    """A ``RECORDING`` row is byte for byte one TGK1 record, so a dataset's
    bytes are its file's after the 20-byte file header."""

    @settings(max_examples=10, deadline=None)
    @given(n_users=st.integers(1, 3), n_blocks=st.integers(1, 2), seed=st.integers(0, 3),
           data=st.data())
    def test_file_body_is_the_array(self, tmp_path_factory, n_users, n_blocks, seed, data):
        out = tmp_path_factory.mktemp("synth")
        config = out / "config.json"
        config.write_text(json.dumps({"synth": {"n_users": n_users, "n_blocks": n_blocks,
                                                "reps_per_block": 1}, "seed": seed}))
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0
        raw = (out / "dataset.tgk").read_bytes()
        records = synth_dataset(SynthSection(n_users, n_blocks, 1), seed)
        assert RECORDING.itemsize == 71_747
        assert raw[20:] == records.tobytes() == load_dataset(out / "dataset.tgk").tobytes()
        # empty, repeated and unsorted id lists select those rows of the file
        drawn = data.draw(st.lists(st.integers(0, len(records) - 1), max_size=12))
        for ids in ([], [12, 3, 3, 0], drawn):
            assert select(records, ids).tobytes() == \
                b"".join(raw[20 + i * 71_747:20 + (i + 1) * 71_747] for i in ids)

    def test_cut_after_the_scan(self, recordings, tmp_path, monkeypatch):
        # load_dataset reads the records once the scan has checked the file;
        # a file cut in between is malformed, not a short array
        path = tmp_path / "data.tgk"
        save_dataset(recordings[:3], path)
        scan = DatasetReader.__init__

        def scan_then_cut(reader, *args):
            scan(reader, *args)
            os.truncate(path, 20 + 2 * 71_747 + 500)  # part of record 2
        monkeypatch.setattr(DatasetReader, "__init__", scan_then_cut)
        with pytest.raises(FormatError, match="truncated at recording 2"):
            load_dataset(path)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = CnnModel(in_channels=6, seed=0, conv_channels=4, hidden=5, dtype=np.float32)
        path = tmp_path / "model.tgkm"
        save_checkpoint(model.params, 6, path)
        loaded = load_checkpoint(path, param_shapes(6, conv_channels=4, hidden=5))
        assert list(loaded) == list(model.params)
        for name, value in model.params.items():
            assert loaded[name].dtype == np.float32
            assert loaded[name].tobytes() == value.tobytes()  # bit-exact
            assert loaded[name].flags.writeable

    def test_manifest(self, tmp_path):
        model = CnnModel(in_channels=6, seed=0, conv_channels=4, hidden=5)
        path = tmp_path / "model.tgkm"
        save_checkpoint(model.params, 6, path, config={"mode": "normal-only"})
        manifest = json.loads((tmp_path / "model.tgkm.json").read_text())
        assert manifest["format"] == "TGKM" and manifest["version"] == 2
        assert manifest["c_in"] == 6
        assert manifest["config"]["mode"] == "normal-only"
        assert manifest["parameters"] == {k: list(v.shape) for k, v in model.params.items()}

    def test_header(self, tmp_path):
        # magic and version, then the float32 values; c_in is in the manifest only
        model = CnnModel(in_channels=3, seed=1, conv_channels=2, hidden=4, dtype=np.float32)
        path = tmp_path / "model.tgkm"
        save_checkpoint(model.params, 3, path)
        data = path.read_bytes()
        magic, version = struct.unpack_from("<4sI", data)
        assert magic == CHECKPOINT_MAGIC and version == 2
        assert data[8:] == b"".join(v.astype("<f4").tobytes() for v in model.params.values())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tgkm"
        path.write_bytes(b"WHAT" + bytes(8))
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path, {})

    def test_size_mismatch(self, tmp_path):
        model = CnnModel(in_channels=3, seed=1, conv_channels=2, hidden=4)
        path = tmp_path / "model.tgkm"
        save_checkpoint(model.params, 3, path)
        wrong = param_shapes(3, conv_channels=2, hidden=4)
        first = next(iter(wrong))
        wrong[first] = tuple(d + 1 for d in wrong[first])
        with pytest.raises(FormatError):
            load_checkpoint(path, wrong)

    def test_model_restores_exactly(self, tmp_path):
        model = CnnModel(in_channels=6, seed=3, conv_channels=4, hidden=5, dtype=np.float32)
        path = tmp_path / "model.tgkm"
        save_checkpoint(model.params, 6, path)
        params = load_checkpoint(path, param_shapes(6, conv_channels=4, hidden=5))
        clone = CnnModel(in_channels=6, seed=99, conv_channels=4, hidden=5, dtype=np.float32)
        clone.set_params(params)
        x = np.random.default_rng(0).normal(size=(2, 6, 5, 10)).astype(np.float32)
        logits_a, _ = model.forward(x)
        logits_b, _ = clone.forward(x)
        assert np.array_equal(logits_a, logits_b)


@pytest.fixture(scope="module")
def saved_files(recordings, tmp_path_factory):
    root = tmp_path_factory.mktemp("truncation")
    save_dataset(recordings[:2], root / "data.tgk")
    model = CnnModel(in_channels=3, seed=1, conv_channels=2, hidden=4)
    save_checkpoint(model.params, 3, root / "model.tgkm")
    return root, param_shapes(3, conv_channels=2, hidden=4)


class TestTruncation:
    """Cutting a file at any offset gives FormatError, never struct/numpy errors."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_dataset(self, saved_files, data):
        root, _ = saved_files
        raw = (root / "data.tgk").read_bytes()
        cut = root / "cut.tgk"
        cut.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(FormatError):
            load_dataset(cut)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_checkpoint(self, saved_files, data):
        root, shapes = saved_files
        raw = (root / "model.tgkm").read_bytes()
        cut = root / "cut.tgkm"
        cut.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(FormatError):
            load_checkpoint(cut, shapes)


_RECORD_BYTES = 11 + 122 * 49 * 3 * 4
_FORCES = 122 * 49 * 3


@st.composite
def _corrupted_files(draw):
    """A record count from 1 to 4 and up to two corruptions, in the order
    they are made: ``("label", record, value)``, ``("force", record, float,
    value)``, then at most one ``("cut", length)`` or ``("trailing", count)``."""
    n = draw(st.integers(1, 4))
    record = st.integers(0, n - 1)
    in_records = draw(st.lists(st.one_of(
        st.tuples(st.just("label"), record, st.integers(N_CLASSES, 255)),
        st.tuples(st.just("force"), record, st.integers(0, _FORCES - 1),
                  st.sampled_from([np.nan, np.inf, -np.inf]))), max_size=2))
    size = st.one_of(st.tuples(st.just("cut"), st.integers(0, 20 + n * _RECORD_BYTES - 1)),
                     st.tuples(st.just("trailing"), st.integers(1, 64)))
    return n, in_records + draw(st.lists(size, max_size=min(1, 2 - len(in_records))))


def _expected_error(n, corruptions, size):
    """The message opening a file of n records with ``corruptions`` gives
    (``size`` bytes long), or None for a clean file: the size check first,
    then the first corrupt record in file order, its label before its forces."""
    for kind, *amount in corruptions:
        if kind == "cut":
            return "truncated header" if size < 20 else (
                f"truncated: {n} recordings need {20 + n * _RECORD_BYTES} bytes, file has {size}")
        if kind == "trailing":
            return f"{amount[0]} trailing bytes"
    if not corruptions:
        return None
    first = min(c[1] for c in corruptions)
    labels = [c[2] for c in corruptions if c[:2] == ("label", first)]
    return (f"recording {first} has unknown label {labels[-1]}" if labels
            else f"recording {first} has non-finite forces")


@pytest.fixture(scope="module")
def clean_files(tmp_path_factory):
    """Files of the first 1 to 4 of four records with random finite forces."""
    rng = np.random.default_rng(5)
    records = np.zeros(4, dtype=RECORDING)
    records["label"] = rng.integers(0, N_CLASSES, 4)
    records["user_id"] = rng.integers(0, 2**16, 4)
    records["seed"] = rng.integers(0, 2**63, 4)
    records["frames"] = rng.normal(size=records["frames"].shape)
    root = tmp_path_factory.mktemp("one_pass")
    for n in range(1, 5):
        save_dataset(records[:n], root / f"{n}.tgk")
    return root, records


class TestOnePassOpen:
    """Opening a file checks it in one scan: a corrupt file raises the size
    message, else names its first corrupt record in file order."""

    @settings(max_examples=100, deadline=None)
    @given(case=_corrupted_files())
    @example(case=(2, [("force", 0, 5, np.nan), ("label", 1, 13)]))  # the earlier record wins
    def test_first_corrupt_record(self, clean_files, case):
        root, records = clean_files
        n, corruptions = case
        raw = bytearray((root / f"{n}.tgk").read_bytes())
        for kind, *args in corruptions:
            if kind == "label":
                raw[20 + args[0] * _RECORD_BYTES] = args[1]
            elif kind == "force":
                struct.pack_into("<f", raw, 20 + args[0] * _RECORD_BYTES + 11 + 4 * args[1],
                                 args[2])
            elif kind == "cut":
                del raw[args[0]:]
            else:
                raw += bytes(args[0])
        path = root / "corrupt.tgk"
        path.write_bytes(raw)
        message = _expected_error(n, corruptions, len(raw))
        if message is None:
            with DatasetReader(path) as reader:
                for i in range(n):
                    assert reader.read(i).tobytes() == records["frames"][i].tobytes()
            assert load_dataset(path).tobytes() == records[:n].tobytes()
            return
        for open_file in (DatasetReader, load_dataset):
            with pytest.raises(FormatError) as error:
                open_file(path)
            assert str(error.value) == f"{path}: {message}"


class _FullDisk:
    """A disk with ``room`` bytes left, shared by every file written on it:
    ``open`` stands in for ``dataio.open`` and ``pwrite`` for ``os.pwrite``.
    A write past the room is cut short and raises ENOSPC."""

    def __init__(self, room):
        self.room = room
        self._pwrite = os.pwrite

    def write(self, data, put):
        """``put(data)``, or ``put`` of what fits, then ENOSPC."""
        data = memoryview(data).cast("B")
        left, self.room = self.room, max(0, self.room - len(data))
        if len(data) > left:
            put(data[:left])
            raise OSError(errno.ENOSPC, "No space left on device")
        return put(data)

    def pwrite(self, fd, data, offset):
        return self.write(data, lambda part: self._pwrite(fd, part, offset))

    def open(self, path, mode):
        return _FullDiskFile(self, open(path, mode))


class _FullDiskFile:
    def __init__(self, disk, fh):
        self._disk, self._fh = disk, fh

    def write(self, data):
        return self._disk.write(data, self._fh.write)

    def fileno(self):
        return self._fh.fileno()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


class TestInterruptedWrite:
    """A writer that fails part-way leaves the earlier file whole and no temporary file."""

    @pytest.fixture
    def full_disk(self, monkeypatch):
        def arm(room):
            disk = _FullDisk(room)
            monkeypatch.setattr(dataio, "open", disk.open, raising=False)
            monkeypatch.setattr(os, "pwrite", disk.pwrite)
        return arm

    @pytest.mark.parametrize("room", [0, 30, 50_000, 150_000])
    def test_dataset(self, recordings, tmp_path, full_disk, room):
        path = tmp_path / "data.tgk"
        save_dataset(recordings[:2], path, config={"run": 1})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        full_disk(room)
        with pytest.raises(OSError, match="No space"):
            save_dataset(recordings[1:4], path, config={"run": 2})
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("room", [0, 11, 2_000])
    def test_checkpoint(self, tmp_path, full_disk, room):
        # a 3,036-byte binary: the disk fills in conv_w (room 11) or fc1_w (room 2,000)
        path = tmp_path / "model.tgkm"
        old = CnnModel(in_channels=3, seed=1, conv_channels=4, hidden=4)
        save_checkpoint(old.params, 3, path)
        assert path.stat().st_size == 3_036
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        full_disk(room)
        new = CnnModel(in_channels=3, seed=2, conv_channels=4, hidden=4)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(new.params, 3, path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_first_write_leaves_nothing(self, recordings, tmp_path, full_disk):
        full_disk(1000)
        with pytest.raises(OSError, match="No space"):
            save_dataset(recordings[:2], tmp_path / "data.tgk")
        assert list(tmp_path.iterdir()) == []

    def test_sidecar_failure_keeps_old_sidecar(self, recordings, tmp_path, full_disk):
        # the data file is complete before its sidecar is written; a failed
        # sidecar write replaces neither file nor leaves a temporary, so a
        # new data file never sits beside an old sidecar
        path = tmp_path / "data.tgk"
        save_dataset(recordings[:1], path, config={"run": 1})
        data = path.read_bytes()
        sidecar = (tmp_path / "data.tgk.json").read_bytes()
        data_bytes = 31 + 2 * (11 + 122 * 49 * 3 * 4)
        full_disk(data_bytes + 10)
        with pytest.raises(OSError, match="No space"):
            save_dataset(recordings[:2], path, config={"run": 2})
        assert (tmp_path / "data.tgk.json").read_bytes() == sidecar
        assert path.read_bytes() == data
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.tgk", "data.tgk.json"]
