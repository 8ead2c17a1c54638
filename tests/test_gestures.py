import errno
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit import gestures, workers
from taxelkit.cli import main
from taxelkit.dataio import load_dataset, save_dataset
from taxelkit.geometry import NORMAL_MIN_N, SHEAR_MAX_N
from taxelkit.gestures import (MAX_RECORDINGS, MAX_USERS, N_FRAMES, RECORDING, GestureClass,
                               UserProfile, protocol_size, synth_dataset, synth_recording,
                               user_profile)

# (row, col) of each taxel in index order: the 5x10 grid in row-major order
# without its phantom cell (4, 9); a taxel's (x, y) is (col, row) * 1.5 cm
CELLS = [(r, c) for r in range(5) for c in range(10) if (r, c) != (4, 9)]
POS = np.array([[c * 1.5, r * 1.5] for r, c in CELLS])

QUIET = UserProfile(amplitude_scale=1.0, speed_scale=1.0,
                    location_bias=(0.0, 0.0), noise_level=0.0, seed=1234)


def reference_rasterize(track):
    """(T, 49, 3) force contribution of one patch, assembled frame-major."""
    diff = track.centers[:, None, :] - POS[None, :, :]
    d2 = np.sum(diff**2, axis=-1)
    w = np.exp(-d2 / (2.0 * track.sigma**2))
    w[d2 > (3.0 * track.sigma) ** 2] = 0.0
    if track.y_gradient != 0.0:
        rel_y = POS[None, :, 1] - track.centers[:, None, 1]
        w = w * np.clip(1.0 + track.y_gradient * rel_y, 0.0, None)
    out = np.empty((track.centers.shape[0], len(POS), 3))
    out[:, :, 0] = w * track.shear[:, 0:1]
    out[:, :, 1] = w * track.shear[:, 1:2]
    out[:, :, 2] = -w * track.amp[:, None]
    return out


def reference_clamp(frames):
    np.clip(frames[:, :, 0], -SHEAR_MAX_N, SHEAR_MAX_N, out=frames[:, :, 0])
    np.clip(frames[:, :, 1], -SHEAR_MAX_N, SHEAR_MAX_N, out=frames[:, :, 1])
    np.clip(frames[:, :, 2], NORMAL_MIN_N, 0.0, out=frames[:, :, 2])


def reference_frames(gesture, profile, recording_seed):
    """A recording's frames from the same draws, one (T, 49, 3) array per patch."""
    rng = np.random.default_rng(np.random.SeedSequence(
        [recording_seed, int(gesture), profile.seed, gestures._TAG_RECORDING]))
    frames = np.zeros((N_FRAMES, 49, 3))
    for track in gestures._tracks(gesture, profile, rng):
        frames += reference_rasterize(track)
    reference_clamp(frames)
    if profile.noise_level > 0:
        frames = frames + rng.normal(0.0, profile.noise_level, size=frames.shape)
        reference_clamp(frames)
    return frames.astype(np.float32)


def grid_image(frame):
    """(49, 3) frame -> dict of (row, col) -> force triple for valid cells."""
    return {CELLS[i]: frame[i] for i in range(49)}


def active_components(frame, frac=0.5):
    """Connected components (4-adjacency) of cells with |fz| above frac*max."""
    fz = np.abs(frame[:, 2])
    threshold = frac * fz.max()
    cells = {cell for i, cell in enumerate(CELLS) if fz[i] > threshold}
    comps = []
    while cells:
        stack = [cells.pop()]
        comp = set()
        while stack:
            r, c = stack.pop()
            comp.add((r, c))
            for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if nb in cells:
                    cells.remove(nb)
                    stack.append(nb)
        comps.append(comp)
    return comps


class TestUserProfile:
    def test_deterministic(self):
        assert user_profile(3, 99) == user_profile(3, 99)

    def test_distinct_users(self):
        profiles = [user_profile(u, 42) for u in range(11)]
        assert len({p.seed for p in profiles}) == 11
        assert len({(p.amplitude_scale, p.speed_scale) for p in profiles}) == 11

    def test_scale_bounds(self):
        for u in range(1000):
            p = user_profile(u, 7)
            assert 0.5 <= p.amplitude_scale <= 2.0
            assert 0.5 <= p.speed_scale <= 2.0
            assert p.noise_level >= 0

    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            UserProfile(3.0, 1.0, (0, 0), 0.0, 1)


class TestSynthRecording:
    def test_shape_and_dtype(self):
        frames = synth_recording(GestureClass.STROKE, QUIET, 5)
        assert frames.shape == (N_FRAMES, 49, 3)
        assert frames.dtype == np.float32

    def test_deterministic_bitwise(self):
        a = synth_recording(GestureClass.GRAB, QUIET, 17)
        b = synth_recording(GestureClass.GRAB, QUIET, 17)
        assert np.array_equal(a, b)

    def test_seed_changes_recording(self):
        a = synth_recording(GestureClass.GRAB, QUIET, 17)
        b = synth_recording(GestureClass.GRAB, QUIET, 18)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("gesture", list(GestureClass))
    def test_range_safety(self, gesture):
        profile = user_profile(2, 0)
        frames = synth_recording(gesture, profile, 31)
        assert np.isfinite(frames).all()
        assert (np.abs(frames[:, :, 0]) <= 2.0 + 1e-6).all()
        assert (np.abs(frames[:, :, 1]) <= 2.0 + 1e-6).all()
        assert (frames[:, :, 2] <= 0).all()
        assert (frames[:, :, 2] >= -7.0 - 1e-6).all()

    def test_press_low_shear(self):
        for seed in range(10):
            frames = synth_recording(GestureClass.PRESS, QUIET, seed)
            shear = np.abs(frames[:, :, :2]).sum()
            normal = np.abs(frames[:, :, 2]).sum()
            assert shear / normal < 0.1

    def test_pinch_two_opposing_patches(self):
        for seed in range(10):
            frames = synth_recording(GestureClass.PINCH, QUIET, seed)
            peak = int(np.argmax(np.abs(frames[:, :, 2]).sum(axis=1)))
            frame = frames[peak]
            assert len(active_components(frame)) == 2
            shear_sum = frame[:, :2].sum(axis=0)
            pos = frame[frame[:, 0] > 0.01][:, :2].sum(axis=0)
            assert np.linalg.norm(shear_sum) < 0.1 * np.linalg.norm(pos)

    def test_rub_oscillates(self):
        for seed in range(10):
            frames = synth_recording(GestureClass.RUB, QUIET, seed)
            fz = np.abs(frames[:, :, 2])
            active = fz.sum(axis=1) > 0.2 * fz.sum(axis=1).max()
            x = POS[:, 0]
            centroid = (fz[active] * x).sum(axis=1) / fz[active].sum(axis=1)
            centered = centroid - centroid.mean()
            crossings = int(np.sum(np.diff(np.sign(centered)) != 0))
            assert crossings >= 2

    def test_press_slap_envelope_duration(self):
        for seed in range(10):
            press = synth_recording(GestureClass.PRESS, QUIET, seed)
            slap = synth_recording(GestureClass.SLAP, QUIET, seed + 100)

            def duration(frames):
                total = np.abs(frames[:, :, 2]).sum(axis=1)
                return int(np.sum(total > 0.2 * total.max()))

            assert duration(press) >= 5 * duration(slap)

    def test_poke_pinch_normal_overlap_shear_disjoint(self):
        # normal-force peaks overlap between the two classes; the
        # opposing-shear signature separates them cleanly
        def stats(gesture, seeds):
            peaks, opposing = [], []
            for s in seeds:
                frames = synth_recording(gesture, QUIET, s)
                fz_total = np.abs(frames[:, :, 2]).sum(axis=1)
                peak = int(np.argmax(fz_total))
                peaks.append(fz_total[peak])
                shear = frames[peak, :, :2]
                mags = np.linalg.norm(shear, axis=1).sum()
                net = np.linalg.norm(shear.sum(axis=0))
                opposing.append(1.0 - net / mags if mags > 1e-6 else 0.0)
            return np.array(peaks), np.array(opposing)

        seeds = range(100)
        poke_peak, poke_opp = stats(GestureClass.POKE, seeds)
        pinch_peak, pinch_opp = stats(GestureClass.PINCH, seeds)
        # overlapping peak-force intervals
        assert poke_peak.max() > pinch_peak.min() and pinch_peak.max() > poke_peak.min()
        # disjoint opposing-shear metric
        assert poke_opp.max() < pinch_opp.min()

    @settings(max_examples=150, deadline=None)
    @given(gesture=st.sampled_from(list(GestureClass)),
           user=st.one_of(st.none(), st.integers(0, 50)),
           master_seed=st.integers(0, 2**32 - 1),
           recording_seed=st.integers(0, 2**64 - 1))
    def test_matches_frame_major_reference(self, gesture, user, master_seed, recording_seed):
        profile = QUIET if user is None else user_profile(user, master_seed)
        frames = synth_recording(gesture, profile, recording_seed)
        assert frames.dtype == np.float32 and frames.flags.c_contiguous
        assert frames.tobytes() == reference_frames(gesture, profile, recording_seed).tobytes()

    def test_label_integrity(self):
        # each record's label is the class its frames were generated as
        recs = synth_dataset(1, 1, 1, 3)
        assert sorted(recs["label"].tolist()) == list(range(13))
        for rec in recs:
            frames = synth_recording(GestureClass(rec.label), user_profile(rec.user_id, 3),
                                     int(rec.seed))
            assert frames.tobytes() == rec.frames.tobytes()


class TestSynthDataset:
    def test_single_block(self):
        recs = synth_dataset(1, 1, 1, 0)
        assert len(recs) == 13
        assert sorted(int(r.label) for r in recs) == list(range(13))

    def test_counts_and_histogram(self):
        recs = synth_dataset(3, 2, 2, 1)
        assert len(recs) == 3 * 2 * 2 * 13
        hist = np.bincount([int(r.label) for r in recs], minlength=13)
        assert (hist == 3 * 2 * 2).all()

    def test_block_orders_differ(self):
        recs = synth_dataset(1, 2, 1, 5)
        first = [int(r.label) for r in recs[:13]]
        second = [int(r.label) for r in recs[13:]]
        assert first != second  # pseudo-randomized differently per block

    def test_determinism(self):
        a = synth_dataset(2, 1, 1, 9)
        b = synth_dataset(2, 1, 1, 9)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.frames, rb.frames)

    def test_user_ids_and_recording_ids(self):
        recs = synth_dataset(2, 1, 2, 3)
        assert [r.user_id for r in recs] == [0] * 26 + [1] * 26  # a recording's id is its row

    def test_desk_scale_matches_frame_major_reference(self):
        recs = synth_dataset(4, 3, 3, 0)  # the default (desk) protocol: 468 recordings
        assert len(recs) == 468
        for i, rec in enumerate(recs):
            ref = reference_frames(GestureClass(rec.label), user_profile(rec.user_id, 0),
                                   int(rec.seed))
            assert rec.frames.tobytes() == ref.tobytes(), i

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 1, 1, 0)

    @pytest.mark.parametrize("counts", [(MAX_USERS + 1, 1, 1), (MAX_USERS, MAX_USERS, 1)],
                             ids=["u16-user-id", "u32-record-count"])
    def test_counts_beyond_tgk1_rejected(self, counts):
        with pytest.raises(ValueError, match="TGK1"):
            synth_dataset(*counts, 0)  # raises before any job is listed

    def test_protocol_size_limits(self):
        assert protocol_size(MAX_USERS, 1, 1) == 13 * MAX_USERS
        assert protocol_size(1, 1, MAX_RECORDINGS // 13) == MAX_RECORDINGS // 13 * 13
        with pytest.raises(ValueError):
            protocol_size(1, 1, MAX_RECORDINGS // 13 + 1)


def frames_of(records):
    """The frames field of a record array, each row's frames at byte 11 of its
    71,747-byte record, as in a TGK1 file."""
    assert RECORDING.fields["frames"][1] == 11 and RECORDING.itemsize == 71_747
    start = records.__array_interface__["data"][0]
    for i, frames in enumerate(records["frames"]):
        assert frames.__array_interface__["data"][0] == start + i * RECORDING.itemsize + 11
        assert frames.flags.c_contiguous
    return records["frames"]


needs_fork = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                                reason="synth_dataset forks workers only where os.fork exists")


class TestSharedBlockWorkers:
    @needs_fork
    def test_desk_scale_bytes_independent_of_worker_count(self, monkeypatch):
        every_cpu = synth_dataset(4, 3, 3, 0)
        monkeypatch.setattr(workers, "worker_count", lambda n: 5)  # five workers, 117 chunks
        five = synth_dataset(4, 3, 3, 0)
        monkeypatch.setattr(workers, "worker_count", lambda n: 1)
        serial = synth_dataset(4, 3, 3, 0)
        for recs in (every_cpu, five):
            assert frames_of(recs).tobytes() == frames_of(serial).tobytes()
            assert recs.tobytes() == serial.tobytes()
            assert [(r.label, r.user_id, r.seed) for r in recs] == \
                [(r.label, r.user_id, r.seed) for r in serial]

    def test_frames_are_read_only_rows_of_one_block(self, tmp_path):
        recs = synth_dataset(1, 2, 1, 4)
        frames = frames_of(recs)
        assert isinstance(recs, np.recarray) and recs.dtype == RECORDING
        assert frames.shape == (26, N_FRAMES, 49, 3) and frames.dtype == np.dtype("<f4")
        assert recs.flags.c_contiguous and recs.flags.aligned
        assert not recs.flags.writeable and not frames.flags.writeable
        save_dataset(recs, tmp_path / "data.tgk")
        assert frames_of(load_dataset(tmp_path / "data.tgk")).tobytes() == frames.tobytes()

    @needs_fork
    def test_fewer_recordings_than_cpus(self, monkeypatch):
        monkeypatch.setattr(workers, "worker_count", lambda n: 1)
        serial = synth_dataset(1, 1, 1, 0)
        monkeypatch.undo()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert workers.worker_count(13) == 13  # capped at one worker per recording
        assert frames_of(synth_dataset(1, 1, 1, 0)).tobytes() == frames_of(serial).tobytes()

    @needs_fork
    def test_failing_child_raises_in_parent(self, monkeypatch, capfd):
        parent, real = os.getpid(), gestures.synth_recording

        def fail_in_child(*args, **kwargs):
            if os.getpid() != parent:
                raise RuntimeError("injected child failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(gestures, "synth_recording", fail_in_child)
        monkeypatch.setattr(workers, "worker_count", lambda n: 3)
        with pytest.raises(RuntimeError, match="exited with status 1"):
            synth_dataset(1, 1, 1, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped
        assert "injected child failure" in capfd.readouterr().err

    @needs_fork
    def test_failing_child_write_exits_3(self, tmp_path, monkeypatch, capfd, caplog):
        # a child's row write fails as on a full disk: synth exits 3 without a
        # traceback, like a failed write in the parent, and keeps the old files
        out = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth": {"n_users": 1, "n_blocks": 1, "reps_per_block": 1}}))
        argv = ["synth", "--config", str(config), "--out", str(out)]
        assert main([*argv, "--seed", "0"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        parent, real = os.getpid(), os.pwrite

        def full_in_child(fd, data, offset):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", full_in_child)
        monkeypatch.setattr(workers, "worker_count", lambda n: 3)
        assert main([*argv, "--seed", "1"]) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped
        assert "No space left on device" in caplog.text
        assert "Traceback" not in capfd.readouterr().err
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        # the config echo is replaced before any work; the dataset and its sidecar are not
        assert after.pop("config_echo.json") != before.pop("config_echo.json")
        assert after == before

    @needs_fork
    def test_failing_parent_reaps_children(self, monkeypatch):
        parent, real = os.getpid(), gestures.synth_recording

        def fail_in_parent(*args, **kwargs):
            if os.getpid() == parent:
                raise KeyError("injected parent failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(gestures, "synth_recording", fail_in_parent)
        monkeypatch.setattr(workers, "worker_count", lambda n: 3)
        with pytest.raises(KeyError, match="injected parent failure"):
            synth_dataset(1, 1, 1, 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
