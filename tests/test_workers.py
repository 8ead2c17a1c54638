"""The forked passes: ``workers.run_chunks`` and the passes that use it (the
dataset scan and ``fit_normalization``; ``synth`` is tested in
test_gestures.py and test_cli.py) give the serial result's bytes, and fail
as the serial pass fails, at any worker count."""
import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import taxelkit
from taxelkit import dataio, pipeline, workers
from taxelkit.cli import main
from taxelkit.dataio import DatasetReader, FormatError, dataset_id, save_dataset
from taxelkit.gestures import N_CLASSES, RECORD_HEADER, RECORDING
from taxelkit.pipeline import SUM_BLOCK, AblationMode, TensorView, fit_normalization

needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                                reason="the passes fork workers only where os.fork exists")

SIZES = [0, 1, 2, 3, 4, 5, 7, 12, 13, 29, 41]
_RECORD_BYTES = 11 + 122 * 49 * 3 * 4


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Files of the first n of 41 records with random offset forces, for each n in SIZES."""
    rng = np.random.default_rng(11)
    records = np.zeros(max(SIZES), dtype=RECORDING)
    records["label"] = rng.integers(0, N_CLASSES, len(records))
    records["user_id"] = rng.integers(0, 2**16, len(records))
    records["seed"] = rng.integers(0, 2**63, len(records))
    records["frames"] = rng.normal(3.0, 2.0, size=records["frames"].shape)
    root = tmp_path_factory.mktemp("sizes")
    for n in SIZES:
        save_dataset(records[:n], root / f"{n}.tgk")
    return root, records


def fork_every_chunk(mp, n_workers: int) -> None:
    """Run each pass on n_workers workers, in chunks of one record or leaf."""
    mp.setattr(workers, "worker_count", lambda n: n_workers)
    mp.setattr(dataio, "SCAN_CHUNK", 1)
    mp.setattr(pipeline, "FIT_CHUNK", 1)


def assert_all_reaped() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class RowError(Exception):
    """The typed failure of one row of a drawn pass."""


@needs_fork
@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 64), chunk=st.integers(1, 16),
       n_workers=st.sampled_from([1, 2, 3, 5]), untyped=st.booleans())
def test_run_chunks_runs_each_row_once_and_fails_as_serial(data, n, chunk, n_workers, untyped):
    # a row in `failing` raises RowError wherever it runs; with `untyped`,
    # every forked worker raises KeyError in its first chunk
    failing = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()), label="failing")
    counts = workers.shared_array(n, np.int64)  # runs of each row, in every process
    parent = os.getpid()

    def work(lo: int, hi: int) -> None:
        if untyped and os.getpid() != parent:
            raise KeyError(lo)
        for i in range(lo, hi):
            if i in failing:
                raise RowError(i)
            counts[i] += 1

    def run() -> None:
        workers.run_chunks(n, chunk, work, errors=(RowError,))
    forks = n_workers > 1 and n // chunk >= 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "worker_count", lambda n: n_workers)
        if untyped and forks:
            with pytest.raises(RuntimeError, match=f"over {n} rows exited with status 1"):
                run()
        elif failing:
            with pytest.raises(RowError) as error:
                run()
            assert error.value.args == (min(failing),)  # a serial pass's first failure
        else:
            run()
            assert counts.tolist() == [1] * n
    assert all(c <= 1 for c in counts.tolist()) and not any(counts[i] for i in failing)
    assert_all_reaped()


def passes(path, records, n: int, dtype) -> list:
    """The scan's header bytes and dataset_id, then each arm's fitted mean and
    std bytes, of the reader's view and of a view of ``dtype`` over the
    records in memory."""
    with DatasetReader(path) as reader:
        out = [reader.headers.tobytes(), dataset_id(reader.headers)]
        for mode in AblationMode if n else []:
            view = TensorView(reader.read, range(n), mode)
            memory = TensorView(records["frames"].__getitem__, range(n), mode, dtype=dtype)
            for x in (view, memory):
                stats = fit_normalization(x, mode)
                out += [stats.mean.tobytes(), stats.std.tobytes()]
    return out


@needs_fork
@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(SIZES), n_workers=st.sampled_from([1, 2, 3, 5]),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_forked_passes_match_serial(files, n, n_workers, dtype):
    root, records = files
    path = root / f"{n}.tgk"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workers, "worker_count", lambda n: 1)
        serial = passes(path, records, n, dtype)
        fork_every_chunk(mp, n_workers)
        forked = passes(path, records, n, dtype)
    assert forked == serial
    headers = records[:n][list(RECORD_HEADER.names)].astype(RECORD_HEADER)
    assert serial[:2] == [headers.tobytes(), dataset_id(headers)]
    assert_all_reaped()


@needs_fork
@pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
def test_empty_dataset_exits_5(files, tmp_path, monkeypatch, caplog, n_workers):
    fork_every_chunk(monkeypatch, n_workers)
    path = files[0] / "0.tgk"
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path)]) == 5
    assert f"{path}: dataset has no recordings" in caplog.text
    assert_all_reaped()


@needs_fork
@pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
@pytest.mark.parametrize("nan_at, label_at", [(3, 30), (30, 3), (40, 0), (8, 9)])
def test_scan_names_the_first_corrupt_record(files, tmp_path, monkeypatch, n_workers,
                                             nan_at, label_at):
    # ten chunks of four or five records: each pair but (8, 9) lies in two chunks
    raw = bytearray((files[0] / "41.tgk").read_bytes())
    struct.pack_into("<f", raw, 20 + nan_at * _RECORD_BYTES + 11 + 400, np.nan)
    raw[20 + label_at * _RECORD_BYTES] = N_CLASSES
    path = tmp_path / "corrupt.tgk"
    path.write_bytes(raw)
    monkeypatch.setattr(workers, "worker_count", lambda n: n_workers)
    monkeypatch.setattr(dataio, "SCAN_CHUNK", 4)
    first = min(nan_at, label_at)
    what = "non-finite forces" if first == nan_at else f"unknown label {N_CLASSES}"
    with pytest.raises(FormatError) as error:
        DatasetReader(path)
    assert str(error.value) == f"{path}: recording {first} has {what}"
    assert_all_reaped()


@needs_fork
@pytest.mark.parametrize("n_workers", [2, 3])
@pytest.mark.parametrize("mode", ["normal-only", "normal-and-shear"])
def test_dataset_truncated_after_the_scan_exits_5(files, tmp_path, monkeypatch, capfd, caplog,
                                                  n_workers, mode):
    # the file loses all but five records between the scan and the fit: a
    # forked worker's short read exits 5 without a traceback
    path = tmp_path / "data.tgk"
    path.write_bytes((files[0] / "41.tgk").read_bytes())
    fit = pipeline.fit_normalization

    def truncate_then_fit(x, mode):
        os.truncate(path, 20 + 5 * _RECORD_BYTES)
        return fit(x, mode)
    monkeypatch.setattr(pipeline, "fit_normalization", truncate_then_fit)
    fork_every_chunk(monkeypatch, n_workers)
    assert main(["train", "--dataset", str(path), "--mode", mode,
                 "--out", str(tmp_path / "out")]) == 5
    assert "truncated at recording" in caplog.text
    assert "Traceback" not in capfd.readouterr().err
    assert_all_reaped()


@needs_fork
@pytest.mark.parametrize("n_workers", [1, 2, 3])
def test_normal_only_fit_reads_each_record_once(files, tmp_path, monkeypatch, n_workers):
    # each of the two passes reads every record once, plus at most the one
    # record that a chunk shares with the chunk before it
    frames = np.tile(files[1], 3)["frames"]  # 123 records
    ids = np.random.default_rng(0).permutation(len(frames))
    log = os.open(tmp_path / "reads", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def read(i):  # an appended byte per call, so the workers' calls count too
        os.write(log, b"r")
        return frames[i]
    monkeypatch.setattr(workers, "worker_count", lambda n: n_workers)
    monkeypatch.setattr(pipeline, "FIT_CHUNK", 2 * SUM_BLOCK)  # eight chunks of two leaves
    try:
        fit_normalization(TensorView(read, ids, AblationMode.NORMAL_ONLY), AblationMode.NORMAL_ONLY)
    finally:
        os.close(log)
    total = len(ids) * 122 * 50
    leaves = pipeline._pairwise(lambda lo, m: 1, 0, total)
    chunks = leaves // (pipeline.FIT_CHUNK * leaves // total) if n_workers > 1 else 1
    reads = (tmp_path / "reads").stat().st_size
    assert 2 * len(ids) <= reads <= 2 * (len(ids) + chunks - 1), (reads, chunks)
    if n_workers == 1:
        assert reads == 2 * len(ids)


_COMMANDS = """
import os, sys
from taxelkit import workers
from taxelkit.cli import main
if sys.argv[1] == "pinned":  # this process only: the BLAS threads keep their count
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    assert workers.worker_count(1000) == 1
for argv in (["synth"], ["train"], ["eval"]):
    if main([*argv, "--config", sys.argv[2], "--out", sys.argv[3]]) != 0:
        sys.exit(f"{argv[0]} failed")
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_runs_give_the_same_artifacts(tmp_path):
    # desk synth, a 1-epoch train and eval, pinned to one CPU (every pass
    # serial) and at the default affinity (forked): every artifact's SHA-256
    src = str(Path(taxelkit.__file__).resolve().parents[1])
    env = {**os.environ, "TAXELKIT_LOG": "WARNING",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    config = tmp_path / "config.json"
    config.write_text('{"train": {"epochs": 1}}')
    digests = {}
    for run in ("pinned", "default"):
        proc = subprocess.run([sys.executable, "-c", _COMMANDS, run, str(config),
                               str(tmp_path / run)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests[run] = {p.relative_to(tmp_path / run): hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted((tmp_path / run).rglob("*")) if p.is_file()}
    assert len(digests["pinned"]) == 9
    assert digests["pinned"] == digests["default"]
