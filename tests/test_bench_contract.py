"""The benchmark's use of the taxelkit API, checked without running it for time.

``bench/`` calls ``load_dataset``, ``split_dataset``, ``select`` and
``assemble_tensor(records, mode)``, reads the ``label`` field of each row of
the record array ``load_dataset`` returns, and wraps the functions listed in
``bench/layers.WRAPS``; a refactor that breaks any of these shows up here
instead of as failed benchmark operations.
"""
import sys
from pathlib import Path

import numpy as np

import taxelkit
from taxelkit import cli, nn

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402


def test_every_wrap_target_resolves():
    recorder = Recorder()
    layers.install(recorder, taxelkit)
    try:
        assert recorder.absent == []
    finally:
        recorder.restore()


def test_conv_backward_result_feeds_its_wrap():
    # the span name and the FLOP count read dW from slot 1 of (None, dw, db)
    (_, _, name, counts), = [t for t in layers.WRAPS if t[:2] == ("nn", "conv2d_backward")]
    _, cache = nn.conv2d_forward(np.zeros((2, 122, 5, 10)), np.zeros((4, 122, 3, 3)), np.zeros(4))
    args = (np.ones((2, 4, 5, 10)), cache)
    result = nn.conv2d_backward(*args)
    assert name(args, {}, result) == "nn.conv_bwd.c122"
    assert counts(args, {}, result) == {"samples": 2, "flops": 2 * 2 * 4 * 122 * 9 * 5 * 10}


def test_one_iteration_then_deep_check(tmp_path, monkeypatch):
    # the data, train and calib stages of the desk workload, cut to one epoch and one pass
    monkeypatch.setattr(run, "WORK", tmp_path)
    workload = run.Workload("contract", full_scale=False, epochs=1, data_repeats=1)
    bench_run = run.Run(workload, seed=1, cli=cli, work=tmp_path / "work")
    bench_run.setup()
    bench_run.iteration()
    bench_run.ledger.check("deep check", bench_run.deep_check)
    assert bench_run.ledger.errors == []
    assert bench_run.ledger.failed == 0
    assert (tmp_path / "dataset-468-seed1.sha256").exists()
