"""Per-layer wrap targets, metric table and the layer -> end-to-end map.

A layer is a taxelkit module. Each wrap target is a public function (or a
method of a public class) looked up through its module at call time, so
wrapping the module attribute catches every caller. Span names carry a
channel suffix (``c122`` / ``c366``) where the cost depends on the input
channel count.
"""
from __future__ import annotations

import fnmatch
import os

from spans import SpanStats

# ---------------------------------------------------------------------------
# wrap targets: (module, attribute path, span name or name fn, counts fn)


def _c(n) -> str:
    return f"c{int(n)}"


def _conv_fwd_flops(args, kwargs, result):
    x, w = args[0], args[1]
    n, c, h, wd = x.shape
    return {"samples": n, "flops": 2 * n * w.shape[0] * c * 9 * h * wd}


def _conv_bwd_flops(args, kwargs, result):
    dy = args[0]
    dx, dw = result[0], result[1]
    n, k, h, wd = dy.shape
    per_grad = 2 * n * k * dw.shape[1] * 9 * h * wd
    # dW is always produced; dx only when the layer returns it
    return {"samples": n, "flops": per_grad * (1 if dx is None else 2)}


def _file_bytes(path_arg_index):
    def counts(args, kwargs, result):
        path = args[path_arg_index] if len(args) > path_arg_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}
    return counts


def _batch(args, kwargs, result):
    return {"samples": len(args[1])}


WRAPS = [
    # nn
    ("nn", "conv2d_forward", lambda a, k, r: f"nn.conv_fwd.{_c(a[1].shape[1])}", _conv_fwd_flops),
    ("nn", "conv2d_backward", lambda a, k, r: f"nn.conv_bwd.{_c(r[1].shape[1])}", _conv_bwd_flops),
    ("nn", "maxpool2_forward", "nn.maxpool_fwd", None),
    ("nn", "maxpool2_backward", "nn.maxpool_bwd", None),
    ("nn", "relu_forward", "nn.relu", None),
    ("nn", "relu_backward", "nn.relu", None),
    ("nn", "dropout_mask", "nn.dropout", None),
    ("nn", "dropout_forward", "nn.dropout", None),
    ("nn", "dropout_backward", "nn.dropout", None),
    ("nn", "linear_forward", "nn.fc_fwd", None),
    ("nn", "linear_backward", "nn.fc_bwd", None),
    ("nn", "softmax_cross_entropy", "nn.softmax_ce", None),
    ("nn", "AdamState.step", lambda a, k, r: f"nn.adam.{_c(a[1]['conv_w'].shape[1])}", None),
    ("nn", "CnnModel.loss_and_grads",
     lambda a, k, r: f"nn.loss_and_grads.{_c(a[0].in_channels)}", _batch),
    ("nn", "CnnModel.predict", lambda a, k, r: f"nn.predict.{_c(a[0].in_channels)}", _batch),
    # pipeline
    ("pipeline", "train", lambda a, k, r: f"pipeline.train.{_c(a[0].shape[1])}", None),
    ("pipeline", "assemble_tensor",
     lambda a, k, r: f"pipeline.assemble_tensor.{_c(r[0].shape[1])}", None),
    ("pipeline", "fit_normalization", "pipeline.fit_normalization", None),
    ("pipeline", "apply_normalization", "pipeline.apply_normalization", None),
    ("pipeline", "split_dataset", "pipeline.split_dataset", None),
    ("pipeline", "select", "pipeline.select", None),
    ("pipeline", "evaluate", "pipeline.evaluate", None),
    # gestures
    ("gestures", "synth_dataset", "gestures.synth_dataset", None),
    ("gestures", "synth_recording", "gestures.synth_recording", None),
    # dataio
    ("dataio", "save_dataset", "dataio.save_dataset", _file_bytes(1)),
    ("dataio", "load_dataset", "dataio.load_dataset", _file_bytes(0)),
    ("dataio", "save_checkpoint", "dataio.save_checkpoint", _file_bytes(2)),
    ("dataio", "load_checkpoint", "dataio.load_checkpoint", _file_bytes(0)),
    # magnetics
    ("magnetics", "simulate_taxel", "magnetics.simulate_taxel", None),
    ("magnetics", "dipole_flux", "magnetics.dipole_flux", None),
    ("magnetics", "flux_sweep", "magnetics.flux_sweep", None),
    # calibration
    ("calibration", "fit_taxel", "calibration.fit_taxel", None),
    ("calibration", "quadratic_features", "calibration.quadratic_features", None),
    ("calibration", "rms_error", "calibration.rms_error", None),
    # cli: self time is the command's own loops, e.g. _calibration_samples
    ("cli", "cmd_synth", "cli.synth", None),
    ("cli", "cmd_calibrate", "cli.calibrate", None),
]


def install(recorder, package) -> None:
    """Wrap every target that exists in ``package``; missing ones are absent."""
    for module_name, path, name, counts in WRAPS:
        owner = getattr(package, module_name, None)
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None:
            recorder.absent.append(f"{module_name}.{path}")
            continue
        recorder.wrap(owner, attr, name, counts)


# ---------------------------------------------------------------------------
# per-layer metric table

_C = ("c122", "c366")
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "p50_ms": "ms", "tail_ms": "ms",
          "gflop_s": "GFLOP/s", "mb_per_s": "MB/s", "overhead_pct": "%"}
_HIGHER = {"gflop_s", "mb_per_s"}


def _names(prefixes, stats):
    return [f"{p}.{s}" for p in prefixes for s in stats]


PER_LAYER_NAMES = (
    _names([f"nn.conv_fwd.{c}" for c in _C], ("self_s", "p50_ms", "gflop_s", "calls"))
    + _names([f"nn.conv_bwd.{c}" for c in _C], ("self_s", "p50_ms", "gflop_s", "calls"))
    + _names([f"nn.adam.{c}" for c in _C], ("self_s",))
    + _names([f"nn.loss_and_grads.{c}" for c in _C], ("p50_ms", "tail_ms", "calls"))
    + _names([f"nn.{f}" for f in ("maxpool_fwd", "maxpool_bwd", "relu", "dropout",
                                   "fc_fwd", "fc_bwd", "softmax_ce")], ("self_s",))
    + _names([f"nn.predict.{c}" for c in _C], ("s", "calls"))
    + _names([f"pipeline.train.{c}" for c in _C], ("s", "self_s"))
    + _names([f"pipeline.assemble_tensor.{c}" for c in _C]
             + [f"pipeline.{f}" for f in ("fit_normalization", "apply_normalization",
                                          "split_dataset", "select", "evaluate")], ("s",))
    + ["gestures.synth_dataset.s"]
    + _names(["gestures.synth_recording"], ("calls", "p50_ms", "tail_ms"))
    + _names(["dataio.save_dataset", "dataio.load_dataset"], ("s", "mb_per_s"))
    + ["dataio.load_dataset.calls", "dataio.save_checkpoint.s", "dataio.load_checkpoint.s"]
    + _names(["magnetics.simulate_taxel"], ("calls", "s"))
    + _names(["magnetics.dipole_flux"], ("calls", "self_s"))
    + ["magnetics.flux_sweep.s"]
    + _names(["calibration.fit_taxel"], ("calls", "s", "p50_ms"))
    + ["calibration.quadratic_features.calls", "calibration.rms_error.s"]
    + _names(["cli.synth", "cli.calibrate"], ("self_s",))
    + ["trace.overhead_pct"]
)


def unit_of(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def better_of(name: str) -> str:
    return "higher" if name.rsplit(".", 1)[1] in _HIGHER else "lower"


def _value(st: SpanStats | None, stat: str, iterations: int) -> float:
    """One statistic of one span name; zero when the layer did not run."""
    if st is None or st.calls == 0:
        return 0.0
    if stat == "s":
        return st.s / iterations
    if stat == "self_s":
        return st.self_s / iterations
    if stat == "calls":
        return st.calls / iterations
    if stat == "p50_ms":
        return st.p50_ms()
    if stat == "tail_ms":
        tail = st.tail()
        return tail[1] * 1e3 if tail else 0.0
    if stat == "gflop_s":
        return st.flops / st.s / 1e9 if st.s > 0 else 0.0
    if stat == "mb_per_s":
        return st.bytes / st.s / 1e6 if st.s > 0 else 0.0
    raise KeyError(stat)


def layer_metrics(stats: dict[str, SpanStats], iterations: int,
                  overhead_pct: float) -> dict[str, dict]:
    """Every per-layer metric by name with its unit.

    Totals (s, self_s, calls) are per traced iteration; p50/tail are over
    every call; rates are computed from shapes or file sizes over measured
    time. A layer that did not run on this workload reads zero.
    """
    out = {}
    for name in PER_LAYER_NAMES:
        if name == "trace.overhead_pct":
            value = overhead_pct
        else:
            span_name, stat = name.rsplit(".", 1)
            value = _value(stats.get(span_name), stat, iterations)
        out[name] = {"value": value, "unit": unit_of(name)}
    return out


# ---------------------------------------------------------------------------
# which end-to-end metric each layer should move, and on which workload.
# Every workload runs every stage, so "holds" names metrics that must stay
# put on all workloads when only that layer changes.

MOVES = [
    ("nn.predict.*", ["study_data:eval_s"], ["*:synth_s", "*:prep_s"]),
    ("nn.*", ["desk_train:train_samples_per_s", "desk_train:wall_s"],
     ["*:synth_s", "*:prep_s"]),
    ("pipeline.train.*", ["desk_train:train_samples_per_s"], ["*:synth_s"]),
    ("pipeline.*", ["study_data:prep_s", "study_data:eval_s", "study_data:peak_rss_mb"],
     ["*:synth_s", "*:calib_rms_n"]),
    ("gestures.*", ["study_data:synth_s", "*:setup_s"], ["*:train_samples_per_s"]),
    ("dataio.*", ["study_data:synth_s", "study_data:prep_s", "study_data:eval_s",
                  "study_data:peak_rss_mb"], ["*:train_samples_per_s"]),
    ("magnetics.*", ["*:wall_s"],
     ["*:train_samples_per_s", "*:synth_s", "*:calib_rms_n"]),
    ("calibration.*", ["*:wall_s"],
     ["*:train_samples_per_s", "*:calib_rms_n"]),
    ("cli.synth.*", ["study_data:synth_s"], ["*:train_samples_per_s"]),
    ("cli.calibrate.*", ["*:wall_s"], ["*:train_samples_per_s"]),
    ("trace.*", [], []),
]


def moves_for(name: str) -> tuple[list[str], list[str]]:
    """The first MOVES entry whose pattern matches a per-layer metric name."""
    for pattern, moves, holds in MOVES:
        if fnmatch.fnmatchcase(name, pattern):
            return moves, holds
    raise KeyError(name)
