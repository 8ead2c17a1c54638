import csv
import errno
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import taxelkit
from taxelkit import dataio, gestures, magnetics, pipeline
from taxelkit.cli import _load_model, main
from taxelkit.config import ConfigError, FULL_SCALE_SYNTH, RunConfig
from taxelkit.dataio import load_dataset, save_dataset
from taxelkit.gestures import synth_dataset
from taxelkit.magnetics import DipoleParams, StiffnessModel, TaxelGeometry


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "synth": {"n_users": 2, "n_blocks": 1, "reps_per_block": 1},
        "train": {"epochs": 1, "batch_size": 32},
        "seed": 7,
    }))
    return str(path)


def run(*argv):
    return main(list(argv))


def assert_crlf_lines(path: Path) -> None:
    """Every line of a CSV output ends in csv's \\r\\n."""
    raw = path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")


def files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.train.epochs == 60
        assert cfg.train.batch_size == 32
        assert cfg.synth.n_users == 4
        assert cfg.paths.out_dir == "out"

    def test_full_scale_protocol(self):
        s = FULL_SCALE_SYNTH
        assert (s.n_users, s.n_blocks, s.reps_per_block) == (11, 9, 3)
        assert s.n_users * s.n_blocks * s.reps_per_block * 13 == 3861

    def test_round_trip(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="epocs"):
            RunConfig.from_dict({"train": {"epocs": 3}})

    def test_unknown_top_level(self):
        with pytest.raises(ConfigError, match="trian"):
            RunConfig.from_dict({"trian": {}})

    def test_sections_are_model_parameters(self):
        cfg = RunConfig()
        assert cfg.geometry == TaxelGeometry()
        assert cfg.dipole == DipoleParams()
        assert cfg.stiffness == StiffnessModel()
        cfg = RunConfig.from_dict({"geometry": {"magnet_height": 4.0},
                                   "dipole": {"moment": 0.02, "direction": [1, 0, 0]},
                                   "stiffness": {"kz": 3.0}})
        assert cfg.geometry == TaxelGeometry(magnet_height=4.0)
        assert cfg.dipole == DipoleParams(moment=0.02, direction=(1, 0, 0))
        assert cfg.stiffness == StiffnessModel(kz=3.0)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("section,key", [("geometry", "magnet_height_mm"),
                                             ("dipole", "moment_am2"),
                                             ("stiffness", "kx_n_per_mm")])
    def test_unit_suffixed_key_rejected(self, section, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict({section: {key: 1.0}})

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            RunConfig.load("/nonexistent/config.json")

    def test_load_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.load(bad)


class TestSweep:
    def test_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run("sweep", "--out", str(out), "--heights", "4,6", "--steps", "11") == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["height_mm", "shear_mm", "bx_mT", "bz_mT"]
        assert len(rows) == 1 + 2 * 11
        assert {r[0] for r in rows[1:]} == {"4.0", "6.0"}
        assert (out / "sweep_bx.svg").exists()
        assert (out / "sweep_bz.svg").exists()
        assert (out / "config_echo.json").exists()


class TestCalibrate:
    def test_quadratic_source_exact(self, tmp_path):
        out = tmp_path / "out"
        assert run("calibrate", "--out", str(out), "--samples", "30",
                   "--noise", "0", "--source", "quadratic") == 0
        models = json.loads((out / "calibration.json").read_text())
        assert len(models) == 49
        with open(out / "rms.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[-2][0] == "Mean"
        assert rows[-1][0] == "Standard Deviation"
        assert_crlf_lines(out / "rms.csv")
        assert all(float(v) < 1e-9 for v in rows[-2][1:])
        assert not (out / "calibration_failures.json").exists()

    def test_dipole_source_noisy(self, tmp_path):
        out = tmp_path / "out"
        assert run("calibrate", "--out", str(out), "--samples", "60",
                   "--noise", "0.1") == 0
        with open(out / "rms.csv") as fh:
            rows = list(csv.reader(fh))
        mean = [float(v) for v in rows[-2][1:]]
        assert all(v < 0.3 for v in mean)  # within 3x the injected noise

    def test_no_taxel_fits(self, tmp_path, capsys, caplog):
        # shear stiffness so high that no sample moves a magnet sideways:
        # every taxel's feature matrix is rank-deficient
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({"stiffness": {"kx": 1e12, "ky": 1e12}}))
        out = tmp_path / "out"
        assert run("calibrate", "--config", str(config), "--out", str(out)) == 4
        assert len(json.loads((out / "calibration_failures.json").read_text())) == 49
        assert not (out / "rms.csv").exists()
        assert "no taxel could be fitted" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("fits_first", [True, False])
    def test_rerun_leaves_no_stale_outputs(self, tmp_path, fits_first):
        # a run that fits every taxel and one that fits none, into the same
        # --out in either order: only the last run's outputs remain
        config = tmp_path / "stiff.json"
        config.write_text(json.dumps({"stiffness": {"kx": 1e12, "ky": 1e12}}))
        out = tmp_path / "out"
        fitting = ("calibrate", "--out", str(out), "--samples", "30")
        failing = ("calibrate", "--config", str(config), "--out", str(out), "--samples", "30")
        runs = [(fitting, 0), (failing, 4)]
        for args, code in runs if fits_first else runs[::-1]:
            assert run(*args) == code
        if fits_first:
            assert len(json.loads((out / "calibration_failures.json").read_text())) == 49
            assert not (out / "calibration.json").exists()
            assert not (out / "rms.csv").exists()
        else:
            assert len(json.loads((out / "calibration.json").read_text())) == 49
            assert (out / "rms.csv").exists()
            assert not (out / "calibration_failures.json").exists()


class TestPipelineCommands:
    def test_synth_train_eval_viz(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("synth", "--config", tiny_config, "--out", str(out)) == 0
        recs = load_dataset(out / "dataset.tgk")
        assert len(recs) == 26
        sidecar = json.loads((out / "dataset.tgk.json").read_text())
        assert sidecar["config"]["master_seed"] == 7

        assert run("train", "--config", tiny_config, "--out", str(out),
                   "--mode", "normal-and-shear") == 0
        manifest = json.loads((out / "model.tgkm.json").read_text())
        assert manifest["c_in"] == 366
        assert manifest["config"]["mode"] == "normal_and_shear"
        assert manifest["config"]["split_seed"] == 7
        with open(out / "history.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_acc"]
        assert len(rows) == 2  # one epoch
        assert_crlf_lines(out / "history.csv")

        assert run("eval", "--config", tiny_config, "--out", str(out)) == 0
        report = json.loads((out / "evaluation.json").read_text())
        assert report["mode"] == "normal_and_shear"
        assert 0.0 <= report["overall_accuracy"] <= 1.0
        assert np.array(report["counts"]).sum() == report["test_size"]
        assert (out / "confusion.csv").exists()
        assert (out / "confusion.svg").exists()

        assert run("viz", "--config", tiny_config, "--out", str(out),
                   "--recording-id", "3") == 0
        frame_dir = out / "recording_00003"
        assert (frame_dir / "frame_000.svg").exists()
        assert (frame_dir / "frame_121.svg").exists()
        assert (frame_dir / "montage.svg").exists()

    def test_seed_override_changes_dataset(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--config", tiny_config, "--out", str(a))
        run("synth", "--config", tiny_config, "--out", str(b), "--seed", "8")
        assert (a / "dataset.tgk").read_bytes() != (b / "dataset.tgk").read_bytes()

    def test_synth_deterministic(self, tmp_path, tiny_config):
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth", "--config", tiny_config, "--out", str(a))
        run("synth", "--config", tiny_config, "--out", str(b))
        assert (a / "dataset.tgk").read_bytes() == (b / "dataset.tgk").read_bytes()


class TestExitCodes:
    def test_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": "sixty"}}))
        bad2 = tmp_path / "bad2.json"
        bad2.write_text(json.dumps({"nonsense": {}}))
        assert run("synth", "--config", str(bad2), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("level", ["bogus", "10", ""])
    def test_unknown_log_level(self, tmp_path, capsys, monkeypatch, level):
        monkeypatch.setenv("TAXELKIT_LOG", level)
        assert run("sweep", "--out", str(tmp_path / "o")) == 2
        assert "TAXELKIT_LOG" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # refused before any output

    def test_known_log_level_any_case(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TAXELKIT_LOG", "warning")
        assert run("sweep", "--out", str(tmp_path / "o"), "--steps", "2") == 0

    @pytest.mark.parametrize("bad", [
        {"geometry": {"magnet_height": -1}},
        {"dipole": {"direction": 5}},
        {"dipole": {"direction": [0, 0, 2]}},
        {"stiffness": {"kx": "a"}},
        {"synth": {"n_users": 0}},
        {"train": {"batch_size": 0}},
        {"seed": -1},
        # json writes and reads these as the non-standard literal Infinity
        {"geometry": {"magnet_height": float("inf")}},
        {"dipole": {"moment": float("inf")}},
        {"stiffness": {"kz": float("inf")}},
    ])
    def test_bad_config_value(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        # rejected at load time, also by commands that never read the value
        for command in ("synth", "sweep", "calibrate"):
            assert run(command, "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("synth", [
        {"n_users": 65537},
        {"n_users": 65536, "n_blocks": 65536},
    ], ids=["u16-user-id", "u32-record-count"])
    def test_synth_counts_beyond_tgk1(self, tmp_path, capsys, synth):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"synth": synth}))
        assert run("synth", "--config", str(path), "--out", str(tmp_path / "o")) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o" / "dataset.tgk").exists()
        RunConfig.from_dict({"synth": {"n_users": 65536}})  # the largest u16 user count loads

    @pytest.mark.parametrize("argv", [
        ("sweep", "--steps", "1"),
        ("sweep", "--heights", "0"),
        ("sweep", "--heights", "abc"),
        ("sweep", "--max-shear", "0"),
        ("calibrate", "--samples", "5"),
        ("calibrate", "--noise", "-1"),
    ], ids=["steps-1", "heights-0", "heights-abc", "max-shear-0", "samples-5", "noise-neg"])
    def test_bad_numeric_flag(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            run(*argv, "--out", str(tmp_path / "o"))
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}:" in err and "Traceback" not in err

    def test_ablate_dataset_and_full_scale_conflict(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            run("ablate", "--dataset", str(tmp_path / "d.tgk"), "--full-scale",
                "--out", str(tmp_path / "o"))
        assert exit_.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_dataset(self, tmp_path, tiny_config):
        assert run("train", "--config", tiny_config, "--out", str(tmp_path / "empty")) == 3

    def test_truncated_dataset(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        run("synth", "--config", tiny_config, "--out", str(out))
        data = out / "dataset.tgk"
        data.write_bytes(data.read_bytes()[:-1000])
        assert run("train", "--config", tiny_config, "--out", str(out)) == 5
        assert run("viz", "--config", tiny_config, "--out", str(out),
                   "--recording-id", "0") == 5
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_force(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        run("synth", "--config", tiny_config, "--out", str(out))
        data = out / "dataset.tgk"
        raw = bytearray(data.read_bytes())
        struct.pack_into("<f", raw, 20 + 11 + 4 * 1000, float("nan"))
        data.write_bytes(bytes(raw))
        assert run("train", "--config", tiny_config, "--out", str(out)) == 5
        assert run("viz", "--config", tiny_config, "--out", str(out),
                   "--recording-id", "0") == 5
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_force(self, tmp_path, tiny_config, capsys, caplog):
        out = tmp_path / "out"
        run("synth", "--config", tiny_config, "--out", str(out))
        data = out / "dataset.tgk"
        raw = bytearray(data.read_bytes())
        struct.pack_into("<f", raw, 20 + 11 + 4 * 2, 3e38)  # frame 0, taxel 0, z
        data.write_bytes(bytes(raw))
        assert run("train", "--config", tiny_config, "--out", str(out)) == 4
        assert "normalization stats overflow" in caplog.text
        assert not (out / "model.tgkm").exists()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "viz", "ablate"])
    def test_empty_dataset(self, tmp_path, tiny_config, capsys, caplog, command):
        data = tmp_path / "empty.tgk"
        save_dataset([], data)
        extra = ["--recording-id", "0"] if command == "viz" else []
        assert run(command, "--dataset", str(data), *extra, "--config", tiny_config,
                   "--out", str(tmp_path / "out")) == 5
        assert "has no recordings" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_truncated_checkpoint(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        run("synth", "--config", tiny_config, "--out", str(out))
        assert run("train", "--config", tiny_config, "--out", str(out)) == 0
        ckpt = out / "model.tgkm"
        ckpt.write_bytes(ckpt.read_bytes()[:6])
        assert run("eval", "--config", tiny_config, "--out", str(out)) == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["train", "--dataset", "DIR"], 3),
        (["eval", "--dataset", "DIR"], 3),
        (["eval", "--checkpoint", "DIR"], 3),
        (["eval", "--checkpoint", "MANIFEST_DIR"], 3),
        (["viz", "--dataset", "DIR", "--recording-id", "0"], 3),
        (["ablate", "--dataset", "DIR"], 3),
        (["synth", "--config", "DIR"], 2),
    ], ids=["train-dataset", "eval-dataset", "eval-checkpoint", "eval-manifest",
            "viz-dataset", "ablate-dataset", "synth-config"])
    def test_directory_as_input_path(self, tmp_path, tiny_config, capsys, argv, code):
        out = tmp_path / "out"
        assert run("synth", "--config", tiny_config, "--out", str(out)) == 0
        ckpt = tmp_path / "model.tgkm"
        ckpt.write_bytes(b"")
        (tmp_path / "model.tgkm.json").mkdir()  # the checkpoint's manifest path
        argv = [{"DIR": str(tmp_path), "MANIFEST_DIR": str(ckpt)}.get(a, a) for a in argv]
        if "--config" not in argv:
            argv += ["--config", tiny_config]
        assert run(*argv, "--out", str(out)) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv, target", [
        (["synth"], "dataset.tgk"),
        (["synth"], "dataset.tgk.json"),
        (["train"], "model.tgkm"),
        (["train"], "model.tgkm.json"),
        (["train"], "history.csv"),
        (["viz", "--recording-id", "0"], "recording_00000/montage.svg"),
        (["viz", "--recording-id", "0"], "recording_00000/frame_121.svg"),
        (["sweep"], "sweep.csv"),
        (["calibrate"], "rms.csv"),
        (["ablate"], "ablation.json"),
        (["ablate"], "confusion_normal_and_shear.svg"),
        (["ablate"], "history_normal_only.csv"),
        (["eval"], "evaluation.json"),
        (["eval"], "confusion.svg"),
    ], ids=["synth", "synth-sidecar", "train", "train-manifest", "train-history", "viz",
            "viz-frame", "sweep", "calibrate", "ablate", "ablate-confusion", "ablate-history",
            "eval", "eval-confusion"])
    def test_directory_as_output_path(self, tmp_path, tiny_config, capsys, caplog, monkeypatch,
                                      argv, target):
        out = tmp_path / "out"
        if argv[0] in ("train", "viz"):
            assert run("synth", "--config", tiny_config, "--out", str(out)) == 0
            (out / "config_echo.json").unlink()
        (out / target).mkdir(parents=True)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def unreachable(*args, **kwargs):
            raise AssertionError("output paths must be checked before any work")
        monkeypatch.setattr(gestures, "synth_dataset", unreachable)
        monkeypatch.setattr(pipeline, "train", unreachable)
        monkeypatch.setattr(magnetics, "flux_sweep", unreachable)
        monkeypatch.setattr(magnetics, "simulate_taxel", unreachable)
        assert run(*argv, "--config", tiny_config, "--out", str(out)) == 3
        assert str(out / target) in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        # no file was written, the config echo included
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_unknown_recording_id(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        run("synth", "--config", tiny_config, "--out", str(out))
        assert run("viz", "--config", tiny_config, "--out", str(out),
                   "--recording-id", "999") == 3


class TestCheckpointManifest:
    @pytest.fixture()
    def trained(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("synth", "--config", tiny_config, "--out", str(out)) == 0
        assert run("train", "--config", tiny_config, "--out", str(out)) == 0
        return out

    def eval_exit(self, out, tiny_config, capsys):
        code = run("eval", "--config", tiny_config, "--out", str(out))
        assert "Traceback" not in capsys.readouterr().err
        return code

    def test_unparsable_manifest(self, trained, tiny_config, capsys):
        (trained / "model.tgkm.json").write_text("{not json")
        assert self.eval_exit(trained, tiny_config, capsys) == 5

    def test_manifest_missing_key(self, trained, tiny_config, capsys):
        path = trained / "model.tgkm.json"
        manifest = json.loads(path.read_text())
        del manifest["config"]["norm_mean"]
        path.write_text(json.dumps(manifest))
        assert self.eval_exit(trained, tiny_config, capsys) == 5

    @pytest.mark.parametrize("key,value", [("norm_std", 0.0), ("norm_std", -1.0),
                                           ("norm_std", 1e300), ("norm_mean", 1e300)])
    def test_unusable_normalization_stats(self, trained, tiny_config, capsys, key, value):
        path = trained / "model.tgkm.json"
        manifest = json.loads(path.read_text())
        manifest["config"][key] = [value] * len(manifest["config"][key])
        path.write_text(json.dumps(manifest))
        assert self.eval_exit(trained, tiny_config, capsys) == 5

    def test_header_channels_disagree_with_manifest(self, trained, tiny_config, capsys):
        ckpt = trained / "model.tgkm"
        data = bytearray(ckpt.read_bytes())
        assert struct.unpack_from("<I", data, 8) == (366,)
        struct.pack_into("<I", data, 8, 122)
        ckpt.write_bytes(bytes(data))
        assert self.eval_exit(trained, tiny_config, capsys) == 5

    @pytest.mark.parametrize("mode", ["normal-only", "normal-and-shear"])
    def test_eval_normalizes_like_ablate(self, tmp_path, tiny_config, mode):
        out = tmp_path / "out"
        assert run("synth", "--config", tiny_config, "--out", str(out)) == 0
        assert run("train", "--config", tiny_config, "--out", str(out), "--mode", mode) == 0
        _, stats, split_seed, _ = _load_model(out / "model.tgkm")
        recs = load_dataset(out / "dataset.tgk")
        split = pipeline.split_dataset(recs, seed=split_seed)
        _, fitted = pipeline.prepare_tensors(*pipeline._recording_rows(recs), [split.train],
                                             stats.mode)
        assert stats.mean.tobytes() == fitted.mean.tobytes()
        assert stats.std.tobytes() == fitted.std.tobytes()
        [(from_manifest, _)], _ = pipeline.prepare_tensors(
            *pipeline._recording_rows(recs), [split.test], stats.mode, stats)
        [(in_process, _)], _ = pipeline.prepare_tensors(
            *pipeline._recording_rows(recs), [split.test], stats.mode, fitted)
        assert from_manifest.dtype == np.float32
        assert from_manifest.tobytes() == in_process.tobytes()


class TestTrainedOn:
    """eval refuses a dataset or split its checkpoint was not trained on."""

    @pytest.fixture()
    def trained(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("synth", "--config", tiny_config, "--out", str(out), "--seed", "0") == 0
        assert run("train", "--config", tiny_config, "--out", str(out), "--seed", "0") == 0
        return out

    def test_manifest_binds_dataset_and_split(self, trained):
        config = json.loads((trained / "model.tgkm.json").read_text())["config"]
        recs = load_dataset(trained / "dataset.tgk")
        assert config["dataset_id"] == dataio.dataset_id(recs)
        assert config["split_digest"] == pipeline.split_dataset(recs, seed=0).digest()

    def test_other_dataset(self, trained, tmp_path, tiny_config, capsys, caplog):
        other = tmp_path / "other"
        assert run("synth", "--config", tiny_config, "--out", str(other), "--seed", "1") == 0
        assert run("eval", "--config", tiny_config, "--out", str(trained),
                   "--dataset", str(other / "dataset.tgk")) == 6
        assert "Traceback" not in capsys.readouterr().err
        config = json.loads((trained / "model.tgkm.json").read_text())["config"]
        other_id = dataio.dataset_id(load_dataset(other / "dataset.tgk"))
        assert config["dataset_id"] in caplog.text and other_id in caplog.text

    def test_other_split(self, trained, tiny_config, capsys, caplog):
        path = trained / "model.tgkm.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["split_seed"] = 1
        path.write_text(json.dumps(manifest))
        assert run("eval", "--config", tiny_config, "--out", str(trained)) == 6
        assert "Traceback" not in capsys.readouterr().err
        assert manifest["config"]["split_digest"] in caplog.text

    @pytest.mark.parametrize("key", ["dataset_id", "split_digest"])
    def test_manifest_missing_key(self, trained, tiny_config, capsys, key):
        path = trained / "model.tgkm.json"
        manifest = json.loads(path.read_text())
        del manifest["config"][key]
        path.write_text(json.dumps(manifest))
        assert run("eval", "--config", tiny_config, "--out", str(trained)) == 5
        assert "Traceback" not in capsys.readouterr().err


RECORD_BYTES = 11 + 122 * 49 * 3 * 4


def poke_force(path: Path, record: int, value: float) -> None:
    """Write ``value`` over one force of a record's frames (frame 0, taxel 0, z)."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 20 + record * RECORD_BYTES + 11 + 4 * 2, value)
    path.write_bytes(bytes(raw))


class TestUnusedRows:
    """A corrupt record exits 5 also when the command does not use it: train
    and eval check every record, not only the split they read."""

    @pytest.fixture()
    def data(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        assert run("synth", "--config", tiny_config, "--out", str(out)) == 0
        split = pipeline.split_dataset(load_dataset(out / "dataset.tgk"), seed=7)
        return out, split

    def exit_code(self, capsys, command, out, tiny_config):
        code = run(command, "--config", tiny_config, "--out", str(out))
        assert "Traceback" not in capsys.readouterr().err
        return code

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_train_non_finite_test_row(self, data, tiny_config, capsys, caplog, value):
        out, split = data
        poke_force(out / "dataset.tgk", split.test[0], value)
        assert self.exit_code(capsys, "train", out, tiny_config) == 5
        assert f"recording {split.test[0]} has non-finite forces" in caplog.text
        assert not (out / "model.tgkm").exists()

    def test_train_finite_extreme_test_row_is_unused(self, data, tiny_config, capsys):
        # 3e38 is a finite float32, so the file is well-formed; in a training row it
        # overflows the stats (exit 4, test_overflowing_force), in a test row train
        # never reads it and writes the same checkpoint as on the clean file
        out, split = data
        assert self.exit_code(capsys, "train", out, tiny_config) == 0
        clean = {name: (out / name).read_bytes() for name in ("model.tgkm", "model.tgkm.json")}
        poke_force(out / "dataset.tgk", split.test[0], 3e38)
        assert self.exit_code(capsys, "train", out, tiny_config) == 0
        assert {name: (out / name).read_bytes() for name in clean} == clean

    def test_eval_non_finite_train_row(self, data, tiny_config, capsys, caplog):
        out, split = data
        assert self.exit_code(capsys, "train", out, tiny_config) == 0
        poke_force(out / "dataset.tgk", split.train[0], float("nan"))
        assert self.exit_code(capsys, "eval", out, tiny_config) == 5
        assert f"recording {split.train[0]} has non-finite forces" in caplog.text
        assert not (out / "evaluation.json").exists()

    def test_eval_non_finite_row_of_other_dataset(self, data, tmp_path, tiny_config, capsys):
        # malformed (5) and not the dataset the checkpoint was trained on (6): 5 wins
        out, _ = data
        assert self.exit_code(capsys, "train", out, tiny_config) == 0
        other = tmp_path / "other"
        assert run("synth", "--config", tiny_config, "--out", str(other), "--seed", "8") == 0
        poke_force(other / "dataset.tgk", 0, float("nan"))
        assert run("eval", "--config", tiny_config, "--out", str(out),
                   "--dataset", str(other / "dataset.tgk")) == 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, unused", [("train", "test"), ("eval", "train")])
    def test_unknown_label_in_unused_row(self, data, tiny_config, capsys, caplog,
                                         command, unused):
        out, split = data
        assert self.exit_code(capsys, "train", out, tiny_config) == 0
        record = getattr(split, unused)[0]
        raw = bytearray((out / "dataset.tgk").read_bytes())
        raw[20 + record * RECORD_BYTES] = 13
        (out / "dataset.tgk").write_bytes(bytes(raw))
        assert self.exit_code(capsys, command, out, tiny_config) == 5
        assert f"recording {record} has unknown label 13" in caplog.text

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_truncated_mid_record(self, data, tiny_config, capsys, caplog, command):
        out, _ = data
        assert self.exit_code(capsys, "train", out, tiny_config) == 0
        path = out / "dataset.tgk"
        path.write_bytes(path.read_bytes()[:20 + 3 * RECORD_BYTES + 11 + 500])
        assert self.exit_code(capsys, command, out, tiny_config) == 5
        assert "truncated" in caplog.text


def test_train_and_eval_never_build_the_frame_block(tmp_path, monkeypatch):
    # train and eval stream each record into the tensors; on the desk set they
    # write what the in-memory path (load_dataset, prepare_tensors, as ablate does) gives
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 1}, "seed": 0}))
    out.mkdir()
    save_dataset(synth_dataset(4, 3, 3, 0), out / "dataset.tgk")
    recs = load_dataset(out / "dataset.tgk")
    split = pipeline.split_dataset(recs, seed=0)
    mode = pipeline.AblationMode.NORMAL_ONLY
    [(train_x, train_y), (val_x, val_y), (test_x, test_y)], stats = pipeline.prepare_tensors(
        *pipeline._recording_rows(recs), [split.train, split.val, split.test], mode)
    model, history = pipeline.train(train_x, train_y, val_x, val_y,
                                     pipeline.TrainConfig(epochs=1, seed=0))
    cm = pipeline.evaluate(model, test_x, test_y)

    def no_block(path):
        raise AssertionError("train and eval must not load the frame block")
    monkeypatch.setattr(dataio, "load_dataset", no_block)
    argv = ["--config", str(config), "--out", str(out)]
    assert main(["train", "--mode", "normal-only", *argv]) == 0
    assert main(["eval", *argv]) == 0
    params, _ = dataio.load_checkpoint(out / "model.tgkm", model.shapes())
    assert all(params[k].tobytes() == v.tobytes() for k, v in model.params.items())
    manifest = json.loads((out / "model.tgkm.json").read_text())["config"]
    assert manifest["norm_mean"] == stats.mean.tolist()
    assert manifest["norm_std"] == stats.std.tolist()
    with open(out / "history.csv") as fh:
        assert list(csv.reader(fh))[1] == [
            "0", f"{history[0].train_loss:.9g}", f"{history[0].val_acc:.6g}"]
    assert json.loads((out / "evaluation.json").read_text())["counts"] == cm.counts.tolist()


class TestOutputPaths:
    UNREACHABLE = [(gestures, "synth_dataset"), (pipeline, "train"),
                   (dataio, "DatasetReader"), (dataio, "load_dataset")]

    @pytest.fixture()
    def no_work(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("output paths must be checked before any work")
        for module, name in self.UNREACHABLE:
            monkeypatch.setattr(module, name, unreachable)

    @pytest.mark.parametrize("argv, paths, name", [
        (["train"], {"checkpoint": "dataset.tgk"}, "dataset.tgk"),
        (["train"], {"dataset": "model.tgkm.json"}, "model.tgkm.json"),
        (["eval", "--dataset", "IN"], {}, "confusion.csv"),
        (["eval", "--checkpoint", "IN"], {}, "evaluation.json"),
        (["eval", "--checkpoint", "IN"], {}, "config_echo"),
        (["ablate", "--dataset", "IN"], {}, "history_normal_only.csv"),
        (["viz", "--recording-id", "0", "--dataset", "IN"], {}, "recording_00000/montage.svg"),
    ], ids=["train-checkpoint", "train-manifest", "eval-dataset", "eval-checkpoint",
            "eval-manifest", "ablate-dataset", "viz-dataset"])
    def test_output_is_an_input(self, tmp_path, capsys, caplog, no_work, argv, paths, name):
        # e.g. paths.checkpoint = dataset.tgk: train would replace its own dataset
        out = tmp_path / "out"
        source = out / name
        source.parent.mkdir(parents=True)
        for path in (source, dataio.sidecar_path(source)):  # a checkpoint and its manifest
            path.write_bytes(b"input")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": paths}))
        before = files(out)
        # the input as given: another spelling of the output's path, or the config's
        given = str(out / ".." / "out" / name) if "IN" in argv else str(source)
        argv = [given if a == "IN" else a for a in argv]
        assert run(*argv, "--config", str(config), "--out", str(out)) == 3
        assert "Traceback" not in capsys.readouterr().err
        output = str(source.with_suffix(".json")) if name == "config_echo" else str(source)
        assert f"output {output} is an input of this command: {given}" in caplog.text
        assert files(out) == before  # no file written, the config echo included

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_symlink_loop_at_an_input(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.mkdir()
        os.symlink("loop.tgk", out / "loop.tgk")
        assert run(command, "--dataset", str(out / "loop.tgk"), "--out", str(out)) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_parent_directories_created(self, tmp_path, tiny_config):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**json.loads(Path(tiny_config).read_text()),
                                      "paths": {"dataset": "sub/d.tgk",
                                                "checkpoint": "models/a/m.tgkm"}}))
        out = tmp_path / "out"
        assert run("synth", "--config", str(config), "--out", str(out)) == 0
        assert run("train", "--config", str(config), "--out", str(out)) == 0
        assert run("eval", "--config", str(config), "--out", str(out)) == 0
        assert {"sub/d.tgk", "sub/d.tgk.json", "models/a/m.tgkm", "models/a/m.tgkm.json",
                "evaluation.json"} <= {str(p) for p in files(out)}

    def test_parent_directory_not_creatable(self, tmp_path, caplog, no_work):
        out = tmp_path / "out"
        out.mkdir()
        (out / "sub").write_bytes(b"a file")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"dataset": "sub/d.tgk"}}))
        assert run("synth", "--config", str(config), "--out", str(out)) == 3
        assert str(out / "sub") in caplog.text
        assert files(out) == {Path("sub"): b"a file"}


class TestInterruptedWrite:
    """A command whose write of one output fails part-way leaves that file with
    its old bytes, every other output old or whole, and no temporary file."""

    @pytest.fixture()
    def cut(self, monkeypatch):
        """``cut(name)`` arms ``dataio.open``: the temporary file of output
        ``name`` takes half its first write, then the disk is full; every other
        file opens as usual. ``cut(name)`` returns the call that disarms it."""
        real_open = open

        class CutFile:
            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                data = memoryview(data).cast("B")
                self._fh.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def arm(name):
            def opener(path, *args, **kwargs):
                fh = real_open(path, *args, **kwargs)
                return CutFile(fh) if Path(path).name.startswith(f".{name}.") else fh
            monkeypatch.setattr(dataio, "open", opener, raising=False)
            return monkeypatch.undo
        return arm

    def check(self, out, cut, name, argv):
        old = files(out)
        disarm = cut(name)
        assert run(*argv) == 3
        disarm()
        interrupted = files(out)
        assert run(*argv) == 0
        new = files(out)
        assert interrupted[Path(name)] == old[Path(name)] != new[Path(name)]
        assert not [p for p in interrupted if p.name.endswith(".tmp")]
        for path, data in interrupted.items():
            assert data in (old.get(path), new[path]), path

    @pytest.mark.parametrize("name", ["calibration.json", "rms.csv"])
    def test_calibrate(self, tmp_path, cut, name):
        out = tmp_path / "out"
        assert run("calibrate", "--out", str(out), "--samples", "30") == 0
        self.check(out, cut, name,
                   ["calibrate", "--out", str(out), "--samples", "30", "--noise", "0.05"])

    @pytest.mark.parametrize("name", ["confusion.csv", "confusion.svg", "evaluation.json"])
    def test_eval(self, tmp_path, tiny_config, cut, name):
        out = tmp_path / "out"
        argv = ["--config", tiny_config, "--out", str(out)]
        assert run("synth", *argv) == 0
        assert run("train", "--mode", "normal-only", *argv) == 0
        assert run("eval", *argv) == 0
        assert run("train", *argv) == 0  # normal-and-shear: eval now reports other bytes
        self.check(out, cut, name, ["eval", *argv])

    @pytest.mark.parametrize("name", ["history_normal_only.csv", "confusion_normal_and_shear.svg",
                                      "ablation.json"])
    def test_ablate(self, tmp_path, tiny_config, cut, name):
        out = tmp_path / "out"
        argv = ["ablate", "--config", tiny_config, "--out", str(out)]
        assert run(*argv) == 0
        self.check(out, cut, name, [*argv, "--seed", "8"])


DOCUMENTED_EXIT_CODES = {0, 2, 3, 4, 5, 6}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A valid 2-recording dataset and the checkpoint trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 1}, "seed": 3}))
    save_dataset(synth_dataset(n_users=2, n_blocks=1, reps_per_block=1, master_seed=3)[:2],
                 root / "dataset.tgk")
    assert main(["train", "--config", str(config), "--out", str(root)]) == 0
    return root


class TestBitFlips:
    """Any one flipped byte in a .tgk, .tgkm or manifest gives a documented exit code."""

    def flipped(self, root: Path, name: str, data) -> Path:
        work = Path(tempfile.mkdtemp(dir=root))
        for f in ("config.json", "dataset.tgk", "model.tgkm", "model.tgkm.json"):
            shutil.copy(root / f, work / f)
        raw = bytearray((work / name).read_bytes())
        at = data.draw(st.one_of(st.integers(0, 63), st.integers(0, len(raw) - 1)), label="at")
        raw[at] ^= data.draw(st.integers(1, 255), label="mask")
        (work / name).write_bytes(bytes(raw))
        return work

    def check_exit(self, work: Path, *argv: str) -> None:
        code = main([*argv, "--config", str(work / "config.json"), "--out", str(work)])
        assert code in DOCUMENTED_EXIT_CODES

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_dataset(self, fuzz_files, data):
        work = self.flipped(fuzz_files, "dataset.tgk", data)
        try:
            self.check_exit(work, "eval")
            self.check_exit(work, "viz", "--recording-id", "1")
            self.check_exit(work, "train")
        finally:
            shutil.rmtree(work)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), name=st.sampled_from(["model.tgkm", "model.tgkm.json"]))
    def test_checkpoint(self, fuzz_files, data, name):
        work = self.flipped(fuzz_files, name, data)
        try:
            self.check_exit(work, "eval")
        finally:
            shutil.rmtree(work)


# Runs `synth` in a fresh interpreter with stdout a pipe, so the first line sits
# unflushed in the parent's buffer when the workers fork; at least two workers
# on any host. A worker that flushed inherited buffers or ran atexit handlers
# would print a line twice.
_FORK_HYGIENE = """
import atexit, os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
atexit.register(print, "atexit ran")
print("before synth")
from taxelkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="synth forks workers only where os.fork exists")
def test_synth_workers_leave_parent_buffers_and_atexit_alone(tmp_path, tiny_config):
    src = str(Path(taxelkit.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _FORK_HYGIENE, "synth", "--config", tiny_config,
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["before synth", "atexit ran"]
    assert "Traceback" not in proc.stderr
    assert (tmp_path / "o" / "dataset.tgk").exists()
