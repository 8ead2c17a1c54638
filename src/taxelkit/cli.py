"""Command-line entry point.

Subcommands: sweep, calibrate, synth, train, eval, ablate, viz — one per
pipeline artifact (flux curves, calibration table, dataset, checkpoint,
evaluation report, ablation report, force-field figures), each file written
in full through ``dataio.replacing``, then moved into place.

Exit codes: 0 success, 2 config error, 3 missing input or an unusable input or
output path (a directory, or one of the command's inputs), 4 numerical failure
(also no calibratable taxel), 5 malformed .tgk/.tgkm file (also a dataset with
no recordings), 6 a checkpoint evaluated on a dataset or split it was not trained on.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import calibration as cal
from . import dataio, gestures, magnetics, pipeline, svgplot
from .config import FULL_SCALE_SYNTH, ConfigError, RunConfig
from .geometry import N_TAXELS
from .gestures import GestureClass
from .nn import CnnModel, param_shapes

log = logging.getLogger("taxelkit")

CLASS_NAMES = [c.name.capitalize() for c in GestureClass]


class MissingInputError(FileNotFoundError):
    pass


class DatasetMismatchError(ValueError):
    """The dataset or split differs from the one a checkpoint was trained on."""


def _write(path: Path, text: str) -> None:
    with dataio.replacing(path) as (fh,):
        fh.write(text.encode())


def _csv(header, rows) -> str:
    """A header row and ``rows`` as CSV text, with csv's CRLF line ends."""
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _outdir(args, cfg: RunConfig, *names, inputs=()) -> list[Path]:
    """The paths of the files a command writes, ``names`` relative to ``--out``.
    Fails before any work if two of them (``config_echo.json`` included) are
    one file, or one is a directory or one of the command's ``inputs``; only
    then creates their directories and echoes the config, so a refused
    command writes no file."""
    paths = [args.out / name for name in ("config_echo.json", *names)]
    sources = {os.path.realpath(p): p for p in inputs}  # realpath: no error on a symlink loop
    outputs = {}
    for path in paths:
        real = os.path.realpath(path)
        if real in outputs:
            raise ConfigError(f"two outputs are the same file: {outputs[real]} and {path}")
        outputs[real] = path
        if path.is_dir():
            raise IsADirectoryError(f"output path is a directory: {path}")
        if real in sources:
            raise OSError(f"output {path} is an input of this command: {sources[real]}")
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    _write(paths[0], json.dumps(cfg.to_dict(), indent=1, sort_keys=True))
    return paths[1:]


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args, cfg: RunConfig) -> int:
    csv_path, *svgs = _outdir(args, cfg, "sweep.csv", "sweep_bx.svg", "sweep_bz.svg")
    curves = magnetics.flux_sweep(args.heights, args.max_shear, args.steps,
                                  cfg.geometry, cfg.dipole)
    _write(csv_path, _csv(["height_mm", "shear_mm", "bx_mT", "bz_mT"], (
        [c.magnet_height, f"{d:.6g}", f"{bx:.9g}", f"{bz:.9g}"]
        for c in curves for d, bx, bz in zip(c.shear_mm, c.bx, c.bz))))
    for comp, svg in zip(("bx", "bz"), svgs):
        series = [(f"h = {c.magnet_height:g} mm", getattr(c, comp)) for c in curves]
        _write(svg, svgplot.curves_svg(curves[0].shear_mm, series,
                                       f"{comp} vs shear displacement"))
    log.info("wrote %s, %s and %s", csv_path, *svgs)
    return 0


# ---------------------------------------------------------------------------
# calibrate

def _calibration_samples(cfg: RunConfig, taxel: int, n: int, noise: float, source: str
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(flux, force) arrays of n samples for one taxel, (n, 3) each."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, taxel, 0x43414C]))
    s = cfg.stiffness
    # per-taxel fabrication spread on the compliance
    jitter = rng.uniform(0.9, 1.1, size=3)
    stiff = replace(s, kx=s.kx * jitter[0], ky=s.ky * jitter[1], kz=s.kz * jitter[2])
    fx = rng.uniform(-2.0, 2.0, size=n)
    fy = rng.uniform(-2.0, 2.0, size=n)
    fz = rng.uniform(-7.0, 0.0, size=n)
    forces = np.stack([fx, fy, fz], axis=1)
    # row 0 is the zero-force baseline that every flux reading is taken against
    flux = magnetics.simulate_taxel(np.vstack([np.zeros(3), forces]),
                                    cfg.geometry, cfg.dipole, stiff)
    flux = flux[1:] - flux[0]
    if source == "quadratic":
        truth = rng.normal(0.0, 0.5, size=(3, cal.N_FEATURES))
        forces = cal.quadratic_features(flux) @ truth.T
    if noise > 0:
        forces = forces + rng.normal(0.0, noise, size=forces.shape)
    return flux, forces


def cmd_calibrate(args, cfg: RunConfig) -> int:
    failures_json, models_json, rms_csv = _outdir(
        args, cfg, "calibration_failures.json", "calibration.json", "rms.csv")
    models: dict[int, cal.CalibrationModel] = {}
    per_taxel_rms = {}
    failures = {}
    for taxel in range(N_TAXELS):
        flux, force = _calibration_samples(cfg, taxel, args.samples, args.noise, args.source)
        try:
            model = cal.fit_taxel(flux, force)
        except cal.DegenerateFitError as e:
            failures[taxel] = str(e)
            log.warning("taxel %d: %s", taxel, e)
            continue
        models[taxel] = model
        per_taxel_rms[taxel] = cal.rms_error(model, flux, force)
    # a rerun into the same --out leaves no file of an earlier run behind
    if failures:
        _write(failures_json, json.dumps(failures, indent=1))
    else:
        failures_json.unlink(missing_ok=True)
    if not models:
        for stale in (models_json, rms_csv):
            stale.unlink(missing_ok=True)
        raise np.linalg.LinAlgError(f"no taxel could be fitted; the {len(failures)} degenerate "
                                    f"fits are listed in {failures_json}")
    cal.save_models(models, models_json)
    rms = np.array([per_taxel_rms[i] for i in sorted(per_taxel_rms)])
    rows = [[i, *per_taxel_rms[i]] for i in sorted(per_taxel_rms)]
    rows += [["Mean", *rms.mean(axis=0)], ["Standard Deviation", *rms.std(axis=0)]]
    _write(rms_csv, _csv(["taxel", "rms_fx_n", "rms_fy_n", "rms_fz_n"],
                         ([name] + [f"{v:.6g}" for v in values] for name, *values in rows)))
    log.info("calibrated %d/%d taxels; aggregate RMS %s", len(models), N_TAXELS,
             rms.mean(axis=0))
    return 0


# ---------------------------------------------------------------------------
# synth / train / eval / ablate / viz

def _synth_section(args, cfg: RunConfig):
    """The synth section that ``--full-scale`` or the config selects."""
    return FULL_SCALE_SYNTH if getattr(args, "full_scale", False) else cfg.synth


def cmd_synth(args, cfg: RunConfig) -> int:
    path, _ = _outdir(args, cfg, cfg.paths.dataset, dataio.sidecar_path(cfg.paths.dataset))
    s = _synth_section(args, cfg)
    headers = gestures.study_protocol(s.n_users, s.n_blocks, s.reps_per_block, cfg.seed)
    config = {**asdict(s), "master_seed": cfg.seed}
    # every worker writes its own rows into the file, so no process holds the frame block
    with dataio.writing_dataset(path, headers, config) as write:
        gestures.synth_frames(headers, cfg.seed, write)
    log.info("wrote %d recordings to %s", len(headers), path)
    return 0


@contextmanager
def _read_dataset(path):
    """A dataset file's reader, whose opening scan checks every record, so a
    malformed file exits 5 before any other input is checked. A command then
    reads the records it uses with ``reader.read``, so no dataset array is
    built."""
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"dataset file not found: {path} (run 'synth' first)")
    with dataio.DatasetReader(path) as reader:
        if not len(reader.headers):
            raise dataio.FormatError(f"{path}: dataset has no recordings")
        yield reader


def _write_history(history, path) -> None:
    _write(path, _csv(["epoch", "train_loss", "val_acc"], (
        [rec.epoch, f"{rec.train_loss:.9g}", f"{rec.val_acc:.6g}"] for rec in history)))


def cmd_train(args, cfg: RunConfig) -> int:
    dataset = args.dataset or args.out / cfg.paths.dataset
    names = cfg.paths.checkpoint, dataio.sidecar_path(cfg.paths.checkpoint), "history.csv"
    ckpt, _, history_csv = _outdir(args, cfg, *names, inputs=[dataset])
    mode = pipeline.AblationMode(args.mode.replace("-", "_"))
    tconf = pipeline.TrainConfig(epochs=cfg.train.epochs, batch_size=cfg.train.batch_size,
                                 seed=cfg.seed)
    with _read_dataset(dataset) as reader:
        headers = reader.headers
        split = pipeline.split_dataset(headers, seed=cfg.seed)
        [(train_x, train_y), (val_x, val_y)], stats = pipeline.prepare_views(
            reader.read, headers["label"], [split.train, split.val], mode)
        model, history = pipeline.train(train_x, train_y, val_x, val_y, tconf)
    dataio.save_checkpoint(model.params, model.in_channels, ckpt, config={
        "mode": mode.value, "split_seed": cfg.seed, "epochs": tconf.epochs,
        "batch_size": tconf.batch_size,
        "norm_mean": stats.mean.tolist(), "norm_std": stats.std.tolist(),
        "dataset_id": dataio.dataset_id(headers), "split_digest": split.digest()})
    _write_history(history, history_csv)
    log.info("wrote %s (best val acc %.3f)", ckpt,
             max((h.val_acc for h in history), default=0.0))
    return 0


def _load_model(ckpt_path):
    """A checkpoint's model, normalization stats, split seed and the
    (dataset_id, split_digest) it was trained on."""
    ckpt_path = Path(ckpt_path)
    if not ckpt_path.is_file():
        raise MissingInputError(f"checkpoint not found: {ckpt_path} (run 'train' first)")
    manifest_path = dataio.sidecar_path(ckpt_path)
    if not manifest_path.is_file():
        raise MissingInputError(f"checkpoint manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        c_in, mconf = manifest["c_in"], manifest["config"]
        mode = pipeline.AblationMode(mconf["mode"])
        # float32, as fitted by ``train``: eval then normalizes exactly like ``ablate``;
        # a value that overflows float32 is rejected below as non-finite
        with np.errstate(over="ignore"):
            stats = pipeline.NormalizationStats(
                mode=mode, mean=np.array(mconf["norm_mean"], dtype=np.float32),
                std=np.array(mconf["norm_std"], dtype=np.float32))
        split_seed = mconf["split_seed"]
        trained_on = mconf["dataset_id"], mconf["split_digest"]
    except (KeyError, TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise dataio.FormatError(f"{manifest_path}: unreadable manifest: {e!r}")
    axes = (mode.n_axes,)
    # a JSON float (122.0) or bool can equal an int but is not one: ``type(...) is int``
    if (type(c_in) is not int or c_in != pipeline.channels_for(mode) or stats.mean.shape != axes
            or stats.std.shape != axes or type(split_seed) is not int or split_seed < 0):
        raise dataio.FormatError(f"{manifest_path}: c_in, normalization stats or split seed "
                                 f"do not fit mode {mode.value}")
    if not all(isinstance(digest, str) for digest in trained_on):
        raise dataio.FormatError(f"{manifest_path}: dataset_id and split_digest must be strings")
    if not (np.isfinite(stats.mean).all() and (np.isfinite(stats.std) & (stats.std > 0)).all()):
        raise dataio.FormatError(f"{manifest_path}: normalization stats must be finite float32 "
                                 f"values with std > 0")
    # conv_w is (122, c_in, 3, 3), so the size check refuses a binary of the other arm
    params = dataio.load_checkpoint(ckpt_path, param_shapes(c_in))
    for name, value in params.items():
        non_finite = np.count_nonzero(~np.isfinite(value))
        if non_finite:
            raise dataio.FormatError(f"{ckpt_path}: parameter {name} has {non_finite} "
                                     f"non-finite values")
    # float32, as trained by ``train``: eval then predicts exactly like ``ablate``
    model = CnnModel(in_channels=c_in, dtype=np.float32, params=params)
    return model, stats, split_seed, trained_on


def _confusion_outputs(cm: pipeline.ConfusionMatrix, csv_path: Path, svg: Path) -> dict:
    _write(csv_path, _csv(["true\\pred"] + CLASS_NAMES,
                          ([name] + row.tolist() for name, row in zip(CLASS_NAMES, cm.counts))))
    _write(svg, svgplot.heatmap_svg(cm.rates(), CLASS_NAMES,
                                    f"{svg.stem} (overall {cm.overall_accuracy:.1%})"))
    return {"overall_accuracy": cm.overall_accuracy,
            "macro_accuracy": cm.macro_accuracy,
            "counts": cm.counts.tolist(),
            "rates": cm.rates().round(6).tolist()}


def cmd_eval(args, cfg: RunConfig) -> int:
    dataset = args.dataset or args.out / cfg.paths.dataset
    ckpt = args.checkpoint or args.out / cfg.paths.checkpoint
    json_path, *confusion = _outdir(args, cfg, "evaluation.json", "confusion.csv", "confusion.svg",
                                    inputs=[dataset, ckpt, dataio.sidecar_path(ckpt)])
    with _read_dataset(dataset) as reader:
        model, stats, split_seed, trained_on = _load_model(ckpt)
        split = pipeline.split_dataset(reader.headers, seed=split_seed)
        found = dataio.dataset_id(reader.headers), split.digest()
        if found != trained_on:
            raise DatasetMismatchError(
                f"{ckpt} was trained on dataset {trained_on[0]} with split {trained_on[1]}, "
                f"but this dataset is {found[0]} with split {found[1]}")
        [(test_x, test_y)], _ = pipeline.prepare_views(
            reader.read, reader.headers["label"], [split.test], stats.mode, stats)
        cm = pipeline.evaluate(model, test_x, test_y)
    report = {"mode": stats.mode.value, "test_size": len(test_y),
              **_confusion_outputs(cm, *confusion)}
    _write(json_path, json.dumps(report, indent=1))
    log.info("test accuracy %.3f (macro %.3f)", cm.overall_accuracy, cm.macro_accuracy)
    return 0


def cmd_ablate(args, cfg: RunConfig) -> int:
    json_path, *arm_paths = _outdir(args, cfg, "ablation.json", *(
        f"{stem}_{mode.value}.{ext}" for mode in pipeline.AblationMode
        for stem, ext in (("confusion", "csv"), ("confusion", "svg"), ("history", "csv"))),
        inputs=[args.dataset] if args.dataset else [])
    tconf = pipeline.TrainConfig(epochs=cfg.train.epochs, batch_size=cfg.train.batch_size,
                                 seed=cfg.seed)
    if args.dataset:  # both arms read their batches from the file, as train and eval do
        with _read_dataset(args.dataset) as reader:
            report = pipeline.ablate(reader.headers, reader.read, tconf, split_seed=cfg.seed)
    else:
        s = _synth_section(args, cfg)
        recs = gestures.synth_dataset(s.n_users, s.n_blocks, s.reps_per_block, cfg.seed)
        report = pipeline.ablate(recs, recs["frames"].__getitem__, tconf, split_seed=cfg.seed)
    payload = {}
    for i, arm in enumerate((report.normal_only, report.normal_and_shear)):
        confusion_csv, confusion_svg, history_csv = arm_paths[3 * i:3 * i + 3]
        payload[arm.mode.value] = _confusion_outputs(arm.result, confusion_csv, confusion_svg)
        _write_history(arm.history, history_csv)
    deltas = report.per_class_delta()
    payload["per_class_delta"] = {name: round(float(d), 6)
                                  for name, d in zip(CLASS_NAMES, deltas)}
    payload["per_class_winner"] = {name: ("shear" if d > 0 else "normal" if d < 0 else "tie")
                                   for name, d in zip(CLASS_NAMES, deltas)}
    payload["shear_wins"] = report.shear_wins()
    _write(json_path, json.dumps(payload, indent=1))
    log.info("ablation: normal-only %.3f vs normal+shear %.3f",
             payload["normal_only"]["overall_accuracy"],
             payload["normal_and_shear"]["overall_accuracy"])
    return 0


def cmd_viz(args, cfg: RunConfig) -> int:
    sub = Path(f"recording_{args.recording_id:05d}")
    dataset = args.dataset or args.out / cfg.paths.dataset
    names = [sub / f"frame_{i:03d}.svg" for i in range(gestures.N_FRAMES)] + [sub / "montage.svg"]
    *frame_svgs, montage = _outdir(args, cfg, *names, inputs=[dataset])
    with _read_dataset(dataset) as reader:
        if not 0 <= args.recording_id < len(reader.headers):
            raise MissingInputError(f"unknown recording id {args.recording_id} "
                                    f"(dataset has ids 0..{len(reader.headers) - 1})")
        frames = reader.read(args.recording_id)
    label = GestureClass(reader.headers["label"][args.recording_id])
    for svg, frame in zip(frame_svgs, frames):
        _write(svg, svgplot.force_field_svg(frame))
    _write(montage, svgplot.montage_svg(frames))
    log.info("wrote %d frame SVGs for recording %d (%s) to %s",
             len(frames), args.recording_id, label.name, montage.parent)
    return 0


# ---------------------------------------------------------------------------

def _number(cast, minimum, strict: bool = False):
    """argparse type: a finite ``cast`` value >= minimum (> minimum when strict)."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value: {text!r}")
        if not (math.isfinite(value) and (value > minimum if strict else value >= minimum)):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {minimum}, got {text!r}")
        return value
    return parse


_positive = _number(float, 0.0, strict=True)


def _heights(text: str) -> list[float]:
    return [_positive(h) for h in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taxelkit",
                                     description="tri-axial tactile gesture toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config")
        p.add_argument("--out", help="output directory (default from config paths.out_dir)")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("sweep", help="flux vs shear curves per magnet height")
    common(p)
    p.add_argument("--heights", type=_heights, default="2,4,6,10",
                   help="comma-separated magnet heights, mm")
    p.add_argument("--max-shear", type=_positive, default=5.0)
    p.add_argument("--steps", type=_number(int, 2), default=101)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help=f"fit all {N_TAXELS} taxels on synthetic sweeps")
    common(p)
    p.add_argument("--samples", type=_number(int, cal.N_FEATURES), default=120,
                   help="samples per taxel")
    p.add_argument("--noise", type=_number(float, 0.0), default=0.12,
                   help="force noise sigma, N")
    p.add_argument("--source", choices=["dipole", "quadratic"], default="dipole",
                   help="ground-truth generator: dipole forward model, or an exact "
                        "quadratic map (for recovery checks)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("synth", help="generate a labeled gesture dataset")
    common(p)
    p.add_argument("--full-scale", action="store_true",
                   help="11 users x 9 blocks x 3 reps (default: desk scale from config)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one classifier arm")
    common(p)
    p.add_argument("--dataset", help="dataset file (default: <out>/dataset.tgk)")
    p.add_argument("--mode", choices=["normal-only", "normal-and-shear"],
                   default="normal-and-shear")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--dataset", help="dataset file")
    p.add_argument("--checkpoint", help="checkpoint file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="paired normal-only vs normal+shear study")
    common(p)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dataset",
                        help="existing dataset file (default: synthesize per config)")
    source.add_argument("--full-scale", action="store_true")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("viz", help="per-frame force-field SVGs for one recording")
    common(p)
    p.add_argument("--dataset", help="dataset file")
    p.add_argument("--recording-id", type=int, required=True)
    p.set_defaults(func=cmd_viz)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("TAXELKIT_LOG", "INFO").upper()
    if not isinstance(logging.getLevelName(level), int):  # an unknown name maps to a str
        print(f"config error: TAXELKIT_LOG={level!r} is not a logging level", file=sys.stderr)
        return 2
    logging.basicConfig(level=level, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg = RunConfig.from_dict({**cfg.to_dict(), "seed": args.seed})
        args.out = Path(args.out or cfg.paths.out_dir)
        return args.func(args, cfg)
    except ConfigError as e:
        log.error("config error: %s", e)
        return 2
    except OSError as e:  # a missing input, or a path that cannot be read or written
        log.error("%s", e)
        return 3
    except (pipeline.TrainingDivergedError, magnetics.SingularFieldError,
            np.linalg.LinAlgError, FloatingPointError) as e:
        log.error("numerical failure: %s", e)
        return 4
    except dataio.FormatError as e:
        log.error("malformed file: %s", e)
        return 5
    except DatasetMismatchError as e:
        log.error("dataset mismatch: %s", e)
        return 6


if __name__ == "__main__":
    sys.exit(main())
