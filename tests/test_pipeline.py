import gc
import logging
import mmap
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit import pipeline
from taxelkit.dataio import DatasetReader, load_dataset, save_dataset
from taxelkit.gestures import RECORDING, SynthSection, synth_dataset
from taxelkit.pipeline import (SPLIT_RATIO, STD_FLOOR, AblationMode, ConfusionMatrix,
                               DatasetSplit, NormalizationStats, TensorView, TrainConfig,
                               TrainingDivergedError, apply_normalization, assemble_tensor,
                               channels_for, evaluate, fit_normalization, prepare_views,
                               select, split_dataset, train)
from taxelkit.nn import CONV_CHANNELS, CnnModel


def view_of(frames, mode, dtype=np.float64):
    """A ``TensorView`` of ``dtype`` over every record of an ``(n, 122, 49, 3)``
    frame array."""
    return TensorView(frames.__getitem__, range(len(frames)), mode, dtype=dtype)


def fit_of(frames, mode):
    """``fit_normalization`` over every record of an ``(n, 122, 49, 3)`` frame array."""
    return fit_normalization(frames.__getitem__, range(len(frames)), mode)


def read_of(records):
    """The record reader and labels of a record array, for ``prepare_views``."""
    return records["frames"].__getitem__, records["label"]


def zero_records(user_ids, labels=0):
    """A ``RECORDING`` array of these users and labels with zero frames, in an
    anonymous mapping, so only the pages a split reads become resident."""
    records = np.ndarray(len(user_ids), RECORDING,
                         buffer=mmap.mmap(-1, max(1, len(user_ids)) * RECORDING.itemsize))
    records["user_id"] = user_ids
    records["label"] = labels
    return records


def reference_tensor(records, mode, dtype):
    """The grid-map scatter ``tensor[i][:, rr, cc] = vals`` over the valid cells:
    the 5x10 grid minus the phantom cell (4, 9), in row-major order."""
    mask = np.ones((5, 10), dtype=bool)
    mask[4, 9] = False
    rr, cc = np.nonzero(mask)
    c = channels_for(mode)
    tensor = np.zeros((len(records), c, 5, 10), dtype=dtype)
    for i, frames in enumerate(records["frames"]):
        if mode is AblationMode.NORMAL_AND_SHEAR:
            vals = frames.transpose(0, 2, 1).reshape(c, 49)  # (366, 49)
        else:
            vals = frames[:, :, 2]  # (122, 49)
        tensor[i][:, rr, cc] = vals
    return tensor


def one_expression(stats, x):
    """The out-of-place normalization of ``x`` with the stats rounded to its
    dtype; ``x`` itself is left as it is."""
    n, c, h, w = x.shape
    k = len(stats.mean)
    mean, std = (v.astype(x.dtype)[None, None, :, None, None] for v in (stats.mean, stats.std))
    return ((x.reshape(n, c // k, k, h, w) - mean) / std).reshape(x.shape)


def _reference_largest_remainder(quotas, total):
    base = np.floor(quotas).astype(int)
    short = total - base.sum()
    order = np.argsort(-(quotas - base), kind="stable")
    base[order[:short]] += 1
    return base


def reference_split(records, seed, ratio=SPLIT_RATIO):
    """The per-user loop split_dataset replaced: one pass over the recordings
    per user, and a repair step that rescans every user."""
    user_ids = records["user_id"].tolist()
    users = sorted(set(user_ids))
    by_user = {u: [i for i, v in enumerate(user_ids) if v == u] for u in users}
    n_total = len(user_ids)
    r_tot = sum(ratio)
    targets = _reference_largest_remainder(np.array([n_total * r / r_tot for r in ratio]),
                                           n_total)
    quotas = {u: np.array([len(by_user[u]) * r / r_tot for r in ratio]) for u in users}
    alloc = {u: _reference_largest_remainder(quotas[u], len(by_user[u])) for u in users}

    def totals():
        return np.sum([alloc[u] for u in users], axis=0)

    cur = totals()
    while not np.array_equal(cur, targets):
        over = int(np.argmax(cur - targets))
        under = int(np.argmin(cur - targets))
        candidates = [u for u in users if alloc[u][over] > 0]
        donor = max(candidates, key=lambda u: (alloc[u][over] - quotas[u][over], -u))
        alloc[donor][over] -= 1
        alloc[donor][under] += 1
        cur = totals()

    train, val, test = [], [], []
    for u in users:
        ids = np.array(by_user[u])
        rng = np.random.default_rng(np.random.SeedSequence([seed, u, 0x53504C54]))
        rng.shuffle(ids)
        a, b, c = alloc[u]
        train += ids[:a].tolist()
        val += ids[a:a + b].tolist()
        test += ids[a + b:a + b + c].tolist()
    return DatasetSplit(train=train, val=val, test=test)


@pytest.fixture(scope="module")
def recordings():
    # 4 users x 2 blocks x 1 rep x 13 classes = 104 recordings
    return synth_dataset(SynthSection(n_users=4, n_blocks=2, reps_per_block=1), master_seed=7)


class TestAssembleTensor:
    def test_channels(self):
        assert channels_for(AblationMode.NORMAL_ONLY) == 122
        assert channels_for(AblationMode.NORMAL_AND_SHEAR) == 366

    def test_shapes_and_labels(self, recordings):
        x, y = assemble_tensor(recordings[:5], AblationMode.NORMAL_AND_SHEAR)
        assert x.shape == (5, 366, 5, 10)
        assert y.tolist() == [int(r.label) for r in recordings[:5]]

    def test_dtype(self, recordings):
        x, _ = assemble_tensor(recordings[:2], AblationMode.NORMAL_ONLY, dtype=np.float32)
        assert x.dtype == np.float32

    def test_phantom_cell_zero(self, recordings):
        x, _ = assemble_tensor(recordings[:5], AblationMode.NORMAL_AND_SHEAR)
        assert (x[:, :, 4, 9] == 0).all()

    def test_channel_order_frame_major_axis_minor(self, recordings):
        frames = recordings[0].frames
        x, _ = assemble_tensor(recordings[:1], AblationMode.NORMAL_AND_SHEAR)
        # channel 3f+a at grid cell (r, c) holds frame f, axis a of that taxel
        for f, taxel, axis, (r, c) in [(0, 0, 0, (0, 0)), (7, 25, 1, (2, 5)),
                                       (121, 48, 2, (4, 8))]:
            assert x[0, 3 * f + axis, r, c] == frames[f, taxel, axis]

    def test_normal_only_is_z_slice(self, recordings):
        both, _ = assemble_tensor(recordings[:8], AblationMode.NORMAL_AND_SHEAR)
        normal, _ = assemble_tensor(recordings[:8], AblationMode.NORMAL_ONLY)
        assert np.array_equal(normal, both[:, 2::3])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 6), mode=st.sampled_from(AblationMode),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    def test_matches_grid_map_scatter(self, n, mode, dtype, seed):
        rng = np.random.default_rng(seed)
        recs = np.zeros(n, RECORDING)
        recs["frames"] = rng.normal(size=(n, 122, 49, 3))
        recs["label"] = rng.integers(13, size=n)
        recs["seed"] = np.arange(n)
        x, y = assemble_tensor(recs, mode, dtype=dtype)
        ref = reference_tensor(recs, mode, dtype)
        assert x.dtype == ref.dtype and x.shape == ref.shape
        assert x.tobytes() == ref.tobytes()
        assert y.tolist() == recs["label"].tolist()

    def test_loaded_frames_match_grid_map_scatter(self, recordings, tmp_path):
        path = tmp_path / "data.tgk"
        save_dataset(recordings, path)
        loaded = load_dataset(path)
        for mode in AblationMode:
            x, _ = assemble_tensor(loaded, mode, dtype=np.float32)
            assert x.tobytes() == reference_tensor(loaded, mode, np.float32).tobytes()

    def test_wrong_frame_count(self, recordings):
        # a record holds exactly 122 frames; fewer cannot be stored in one
        recs = np.zeros(1, RECORDING)
        with pytest.raises(ValueError):
            recs["frames"] = recordings["frames"][:1, :10]


@pytest.fixture(scope="module")
def saved_recordings(recordings, tmp_path_factory):
    path = tmp_path_factory.mktemp("streamed") / "data.tgk"
    save_dataset(recordings, path)
    return path


class TestStreamedTensors:
    """train, eval and ablate --dataset read their batches from the file; a
    view's batches are the bytes of the tensor assembled and normalized in
    memory."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_match_assembled_from_loaded(self, saved_recordings, data):
        # disjoint, unsorted id lists of any size, empty and single ones included
        loaded = load_dataset(saved_recordings)
        with DatasetReader(saved_recordings) as reader:
            n = len(reader.headers)
            ids = data.draw(st.permutations(range(n)), label="ids")
            cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=3, max_size=3),
                                    label="cuts"))
            id_lists = [ids[:cuts[0]], ids[cuts[0]:cuts[1]], ids[cuts[1]:cuts[2]]]
            mode = data.draw(st.sampled_from(AblationMode), label="mode")
            for id_list in id_lists:
                x = TensorView(reader.read, id_list, mode)[:]
                ref_x, _ = assemble_tensor(select(loaded, id_list), mode, np.float32)
                assert x.dtype == ref_x.dtype and x.shape == ref_x.shape
                assert x.tobytes() == ref_x.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(AblationMode),
           dtype=st.sampled_from([np.float32, np.float64]), source=st.sampled_from(["file", "memory"]))
    def test_view_matches_prepared_tensor(self, recordings, saved_recordings, data, mode, dtype,
                                          source):
        n = len(recordings)
        ids = data.draw(st.permutations(range(n)), label="ids")
        n_train = data.draw(st.integers(1, n), label="n_train")
        n_val = data.draw(st.integers(0, n - n_train), label="n_val")
        n_test = data.draw(st.sampled_from([0, 1, 3, n - n_train - n_val]), label="n_test")
        n_test = min(n_test, n - n_train - n_val)
        id_lists = [ids[:n_train], ids[n_train:n_train + n_val],
                    ids[n_train + n_val:n_train + n_val + n_test]]
        k = mode.n_axes
        with DatasetReader(saved_recordings) as reader:
            read = reader.read if source == "file" else recordings["frames"].__getitem__
            stats = fit_normalization(read, id_lists[0], mode)
            train_x, _ = assemble_tensor(select(recordings, id_lists[0]), mode, np.float64)
            view = train_x.reshape(n_train, 122, k, 5, 10)
            axes = (0, 1, 3, 4)
            assert stats.mean.dtype == stats.std.dtype == np.float64
            np.testing.assert_allclose(stats.mean, view.mean(axis=axes), rtol=1e-6, atol=1e-12)
            np.testing.assert_allclose(stats.std, np.maximum(view.std(axis=axes), STD_FLOOR),
                                       rtol=1e-6)
            for id_list in id_lists:
                x = TensorView(read, id_list, mode, stats, dtype)
                raw, labels = assemble_tensor(select(recordings, id_list), mode, dtype)
                prepared = one_expression(stats, raw)
                assert x.shape == prepared.shape and len(x) == len(id_list) and x.dtype == dtype
                ints = st.lists(st.integers(0, len(x) - 1), max_size=9) if len(x) else st.just([])
                idx = np.array(data.draw(ints, label="idx"), dtype=np.intp)
                lo, hi = sorted(data.draw(st.lists(st.integers(-len(x) - 1, len(x) + 1),
                                                   min_size=2, max_size=2), label="slice"))
                step = data.draw(st.sampled_from([None, 1, 2, 3]), label="step")
                for index in (idx, slice(lo, hi, step), slice(None)):
                    batch = x[index]
                    assert batch.flags.c_contiguous and batch.dtype == dtype
                    assert batch.tobytes() == prepared[index].tobytes()
                _, y = prepare_views(read, recordings["label"], [id_list], mode, stats)[0][0]
                assert y.dtype == np.int64 and y.tolist() == labels.tolist()

    @pytest.mark.parametrize("mode", list(AblationMode))
    def test_prepared_split_matches_prepare(self, recordings, saved_recordings, mode):
        split = split_dataset(recordings, seed=0)
        with DatasetReader(saved_recordings) as reader:
            pairs, stats = prepare_views(reader.read, reader.headers["label"],
                                         [split.train, split.val, split.test], mode)
            streamed = [(x[:], y) for x, y in pairs]
        refs, fitted = prepare_views(*read_of(recordings),
                                     [split.train, split.val, split.test], mode)
        assert stats.mean.tobytes() == fitted.mean.tobytes()
        assert stats.std.tobytes() == fitted.std.tobytes()
        for (x, y), (ref_x, ref_y) in zip(streamed, refs):
            assert x.tobytes() == ref_x[:].tobytes() and y.tolist() == ref_y.tolist()


class TestSplitDataset:
    def test_sizes_desk_scale(self, recordings):
        split = split_dataset(recordings, seed=0)
        # 104 * (3081, 390, 390) / 3861 -> 83 / 10.5 / 10.5 -> 83/11/10
        assert len(split.train) + len(split.val) + len(split.test) == 104
        assert len(split.train) == 83
        assert {len(split.val), len(split.test)} == {10, 11}

    def test_partition(self, recordings):
        split = split_dataset(recordings, seed=1)
        all_ids = split.train + split.val + split.test
        assert sorted(all_ids) == list(range(len(recordings)))

    def test_every_user_in_every_split(self, recordings):
        split = split_dataset(recordings, seed=2)
        for part in (split.train, split.val, split.test):
            assert {recordings[i].user_id for i in part} == {0, 1, 2, 3}

    def test_deterministic(self, recordings):
        assert split_dataset(recordings, seed=3) == split_dataset(recordings, seed=3)
        assert split_dataset(recordings, seed=3) != split_dataset(recordings, seed=4)

    def test_full_scale_sizes(self):
        # exercised without synthesis: only ids and users matter
        recs = zero_records(np.arange(3861) % 11)
        split = split_dataset(recs, seed=0)
        assert (len(split.train), len(split.val), len(split.test)) == (3081, 390, 390)

    def test_empty(self):
        with pytest.raises(ValueError):
            split_dataset(np.zeros(0, RECORDING), seed=0)

    @settings(max_examples=60, deadline=None)
    @given(per_user=st.lists(st.integers(1, 40), min_size=1, max_size=12),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_partition_at_global_target(self, per_user, seed, data):
        users = [u for u, n in enumerate(per_user) for _ in range(n)]
        users = data.draw(st.permutations(users))
        recs = zero_records(users)
        split = split_dataset(recs, seed=seed)
        parts = (split.train, split.val, split.test)
        assert sorted(split.train + split.val + split.test) == list(range(len(recs)))
        # global largest-remainder allocation of SPLIT_RATIO (ties to the earlier split)
        n = len(recs)
        quotas = [n * r / sum(SPLIT_RATIO) for r in SPLIT_RATIO]
        target = [int(q) for q in quotas]
        for k in sorted(range(3), key=lambda k: -(quotas[k] - target[k]))[:n - sum(target)]:
            target[k] += 1
        assert [len(p) for p in parts] == target

    @settings(max_examples=100, deadline=None)
    @given(per_user=st.lists(st.integers(1, 30), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_reference(self, per_user, seed, data):
        # non-contiguous user ids, recordings in any order
        user_ids = data.draw(st.lists(st.integers(0, 65535), min_size=len(per_user),
                                      max_size=len(per_user), unique=True))
        users = data.draw(st.permutations(
            [u for u, n in zip(user_ids, per_user) for _ in range(n)]))
        recs = zero_records(users)
        assert split_dataset(recs, seed) == reference_split(recs, seed)

    def test_matches_reference_at_many_users(self):
        ids = np.arange(300 * 13)
        recs = zero_records(ids // 13, labels=ids % 13)
        assert split_dataset(recs, 5) == reference_split(recs, 5)

    def test_digest_names_the_id_lists(self, recordings):
        split = split_dataset(recordings, seed=0)
        assert split.digest() == split_dataset(recordings, seed=0).digest()
        assert split.digest() != split_dataset(recordings, seed=1).digest()
        moved = DatasetSplit(train=split.train[1:], val=split.train[:1] + split.val,
                             test=split.test)
        assert moved.digest() != split.digest()

    def test_select(self, recordings):
        split = split_dataset(recordings, seed=0)
        picked = select(recordings, split.val)
        assert len(picked) == len(split.val) and picked.dtype == RECORDING
        for name in RECORDING.names:
            assert picked[name].tobytes() == \
                b"".join(recordings[name][i].tobytes() for i in split.val), name

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_select_bytes(self, recordings, saved_recordings, data):
        # empty, repeated and unsorted id lists: whole rows, every byte,
        # of a synthesized and of a loaded array
        for records in (recordings, load_dataset(saved_recordings)):
            ids = data.draw(st.lists(st.integers(0, len(records) - 1), max_size=12))
            assert select(records, ids).tobytes() == \
                b"".join(records[i:i + 1].tobytes() for i in ids)


class TestNormalization:
    def test_train_stats(self, recordings):
        view = view_of(recordings["frames"][:20], AblationMode.NORMAL_AND_SHEAR)
        stats = fit_of(recordings["frames"][:20], AblationMode.NORMAL_AND_SHEAR)
        assert stats.mean.shape == (3,) and stats.std.shape == (3,)
        z = apply_normalization(stats, view[:])
        cells = z.reshape(20, 122, 3, 5, 10)
        assert np.allclose(cells.mean(axis=(0, 1, 3, 4)), 0.0, atol=1e-10)
        assert np.allclose(cells.std(axis=(0, 1, 3, 4)), 1.0, atol=1e-10)

    def test_normal_only_single_axis(self, recordings):
        view = view_of(recordings["frames"][:10], AblationMode.NORMAL_ONLY)
        stats = fit_of(recordings["frames"][:10], AblationMode.NORMAL_ONLY)
        assert stats.mean.shape == (1,)
        z = apply_normalization(stats, view[:])
        assert z.mean() == pytest.approx(0.0, abs=1e-10)
        assert z.std() == pytest.approx(1.0, abs=1e-10)

    def test_applies_train_stats_to_other_tensors(self, recordings):
        xb, _ = assemble_tensor(recordings[10:20], AblationMode.NORMAL_ONLY)
        stats = fit_of(recordings["frames"][:10], AblationMode.NORMAL_ONLY)
        ref = (xb - stats.mean[0]) / stats.std[0]
        assert np.allclose(apply_normalization(stats, xb), ref)

    @pytest.mark.parametrize("mode", list(AblationMode))
    @pytest.mark.parametrize("stats_dtype", [np.float32, np.float64])
    def test_in_place_matches_one_expression(self, recordings, mode, stats_dtype):
        fitted = fit_of(recordings["frames"][:10], mode)
        x = view_of(recordings["frames"][:10], mode, np.float32)[:]
        stats = NormalizationStats(mode=mode, mean=fitted.mean.astype(stats_dtype),
                                   std=fitted.std.astype(stats_dtype))
        ref = one_expression(stats, x.copy())
        z = apply_normalization(stats, x)
        assert z is x and z.dtype == np.float32  # in place; the tensor keeps its dtype
        assert z.tobytes() == ref.tobytes()

    def test_in_place_on_a_strided_tensor(self, recordings):
        mode = AblationMode.NORMAL_AND_SHEAR
        stats = fit_of(recordings["frames"][:10], mode)
        x = view_of(recordings["frames"][:10], mode, np.float32)[:]
        every_other = x[::2]
        ref = one_expression(stats, every_other.copy())
        assert apply_normalization(stats, every_other) is every_other
        assert x[::2].tobytes() == ref.tobytes()

    def test_float64_stats_act_as_their_float32_rounding(self, recordings):
        mode = AblationMode.NORMAL_AND_SHEAR
        # float64 values, most not float32-exact
        stats = fit_of(recordings["frames"][:10], mode)
        rounded = NormalizationStats(mode=mode, mean=stats.mean.astype(np.float32),
                                     std=stats.std.astype(np.float32))
        x, _ = assemble_tensor(recordings[:10], mode, dtype=np.float32)
        z = apply_normalization(stats, x.copy())
        assert z.dtype == np.float32
        assert z.tobytes() == apply_normalization(rounded, x).tobytes()

    def test_constant_channel_std_floor(self):
        # zero forces: every cell of the tensor, the phantom cell too, is 0
        view = view_of(np.zeros((4, 122, 49, 3)), AblationMode.NORMAL_ONLY)
        stats = fit_of(np.zeros((4, 122, 49, 3)), AblationMode.NORMAL_ONLY)
        assert stats.std[0] >= 1e-8
        assert np.isfinite(apply_normalization(stats, view[:])).all()

    def test_overflowing_stats(self):
        # a finite float32 force whose square overflows float32: the float64
        # sums hold it, and the stats and the normalized tensor are finite
        frames = np.zeros((2, 122, 49, 3), dtype=np.float32)
        frames[0, 0, 0, 2] = force = float(np.float32(3e38))
        stats = fit_of(frames, AblationMode.NORMAL_ONLY)
        cells = 2 * 122 * 50
        mean = force / cells
        np.testing.assert_allclose(stats.mean, [mean], rtol=1e-12)
        np.testing.assert_allclose(stats.std, [np.sqrt(force * force / cells - mean * mean)],
                                   rtol=1e-12)
        x = view_of(frames, AblationMode.NORMAL_ONLY, np.float32)[:]
        assert np.isfinite(apply_normalization(stats, x)).all()

    def test_both_arms_get_the_same_z_stats(self, recordings):
        # the arms differ only in the axes the CNN sees: on one training split,
        # normal-only's stats are normal+shear's z entry, bit for bit
        train = split_dataset(recordings, seed=0).train
        only, shear = (fit_normalization(recordings["frames"].__getitem__, train, mode)
                       for mode in AblationMode)
        assert only.mean.tobytes() == shear.mean[2:].tobytes()
        assert only.std.tobytes() == shear.std[2:].tobytes()

    def test_empty(self):
        with pytest.raises(ValueError):
            fit_of(np.zeros((0, 122, 49, 3)), AblationMode.NORMAL_ONLY)


def assert_fit_matches_numpy(frames, mode):
    """fit_normalization's float64 stats are, to 1e-6 relative, numpy's float64
    ``mean`` and floored ``std`` of the grid tensor ``view[:]`` over every axis
    but the force axis."""
    x = view_of(frames, mode, np.float64)[:]
    cells = x.reshape(x.shape[0], 122, mode.n_axes, 5, 10)
    axes = (0, 1, 3, 4)
    stats = fit_of(frames, mode)
    assert stats.mean.dtype == stats.std.dtype == np.float64
    np.testing.assert_allclose(stats.mean, cells.mean(axis=axes), rtol=1e-6, atol=1e-12)
    np.testing.assert_allclose(stats.std, np.maximum(cells.std(axis=axes), STD_FLOOR), rtol=1e-6)


def random_frames(n, dtype, seed):
    """Offset, scaled normal frames of ``dtype``: a one-pass variance loses
    digits as the offset grows against the scale."""
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((n, 122, 49, 3)) * rng.uniform(0.01, 10.0)
    return (frames + rng.uniform(-50.0, 50.0)).astype(dtype)


class TestFitBits:
    """The one-pass float64 stats against numpy's two-pass float64 ``mean``
    and ``std`` of the whole tensor."""

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(list(AblationMode)),
           dtype=st.sampled_from([np.float32, np.float64]),
           n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_std(self, mode, dtype, n, seed):
        assert_fit_matches_numpy(random_frames(n, dtype, seed), mode)

    @pytest.mark.parametrize("seed", range(6))
    def test_normal_only_pairwise_split(self, seed):
        # a larger split than the drawn ones: 97 records, 592 k cells
        assert_fit_matches_numpy(random_frames(97, np.float32, seed), AblationMode.NORMAL_ONLY)

    @pytest.mark.parametrize("seed", range(3))
    def test_shear_rows_span_blocks(self, seed):
        assert_fit_matches_numpy(random_frames(30, np.float32, seed),
                                 AblationMode.NORMAL_AND_SHEAR)


class TestPrepare:
    def test_matches_assemble_then_normalize(self, recordings):
        split = split_dataset(recordings, seed=0)
        mode = AblationMode.NORMAL_AND_SHEAR
        [(x, y)], stats = prepare_views(*read_of(recordings), [split.train], mode)
        picked = select(recordings, split.train)
        raw, raw_y = assemble_tensor(picked, mode, dtype=np.float32)
        ref = fit_of(picked["frames"], mode)
        assert x.dtype == np.float32 and x.shape == raw.shape
        assert np.array_equal(y, raw_y)
        assert stats.mean.tobytes() == ref.mean.tobytes()
        assert stats.std.tobytes() == ref.std.tobytes()
        assert x[:].tobytes() == one_expression(ref, raw).tobytes()

    def test_reuses_given_stats(self, recordings):
        split = split_dataset(recordings, seed=0)
        mode = AblationMode.NORMAL_ONLY
        _, stats = prepare_views(*read_of(recordings), [split.train], mode)
        [(x, y)], same = prepare_views(*read_of(recordings), [split.val], mode, stats)
        assert same is stats
        assert x.shape == (len(split.val), 122, 5, 10) and len(y) == len(split.val)
        raw, _ = assemble_tensor(select(recordings, split.val), mode, dtype=np.float32)
        assert x[:].tobytes() == one_expression(stats, raw).tobytes()
        # the float64 stats rounded to float32, as eval reads a checkpoint manifest's
        stats32 = NormalizationStats(mode=mode, mean=stats.mean.astype(np.float32),
                                     std=stats.std.astype(np.float32))
        [(x32, _)], _ = prepare_views(*read_of(recordings), [split.val], mode, stats32)
        assert x32.dtype == np.float32 and x32[:].tobytes() == x[:].tobytes()

    def test_fits_on_train_once_and_normalizes_once_per_call(self, recordings, monkeypatch):
        """prepare_views fits once, and each batch read normalizes once, both through
        the module attributes, so the benchmark's wrapped ``pipeline.*_normalization``
        rows time the real work."""
        calls = []
        for name in ("fit_normalization", "apply_normalization"):
            def counted(*args, _real=getattr(pipeline, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(pipeline, name, counted)
        split = split_dataset(recordings, seed=0)
        mode = AblationMode.NORMAL_ONLY
        _, stats = prepare_views(*read_of(recordings), [split.train], mode)
        assert calls == ["fit_normalization"]
        calls.clear()
        [(x, _)], _ = prepare_views(*read_of(recordings), [split.val], mode, stats)
        assert calls == []
        x[:3], x[np.array([4, 0])]
        assert calls == ["apply_normalization"] * 2

    @pytest.mark.parametrize("mode", list(AblationMode))
    def test_tensor_freed_without_the_cycle_collector(self, recordings, mode):
        """Nothing a view leaves behind (no closure cycle) keeps a dropped batch or view alive."""
        gc.disable()
        try:
            [(view, _)], _ = prepare_views(*read_of(recordings), [list(range(40))], mode)
            x = view[:]
            alive = [weakref.ref(x if x.base is None else x.base), weakref.ref(view)]
            del x, view
            assert [ref() for ref in alive] == [None, None]
        finally:
            gc.enable()

    def test_holds_no_tensor(self):
        """prepare_views allocates one record's float64 axes and the per-record
        sums, never a tensor-sized array; a batch read allocates its batch and
        one record's frames."""
        n = 300
        rng = np.random.default_rng(0)
        recs = np.zeros(n, RECORDING)
        recs["frames"] = rng.standard_normal((n, 122, 49, 3)).astype(np.float32)
        recs["label"] = np.arange(n) % 13
        recs["seed"] = np.arange(n)
        for mode in AblationMode:
            record = 122 * mode.n_axes * 50 * 4
            tensor = n * record
            tracemalloc.start()
            try:
                [(x, _)], _ = prepare_views(*read_of(recs), [list(range(n))], mode)
                fit_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                batch = x[np.arange(32)]
                batch_peak = tracemalloc.get_traced_memory()[1] - batch.nbytes
            finally:
                tracemalloc.stop()
            # a record's float64 axes, the per-record sums, and 256 KiB for labels and lists
            margin = 3 * 122 * 49 * 8 + n * 2 * 3 * 8 + (1 << 18)
            assert fit_peak <= margin and fit_peak < tensor / 10, (mode, fit_peak, margin, tensor)
            assert batch_peak <= 122 * 49 * 3 * 4 + (1 << 16), (mode, batch_peak)


class TestTrain:
    def small_data(self, n=26, cin=6, seed=0):
        rng = np.random.default_rng(seed)
        y = np.arange(n) % 13
        x = rng.normal(size=(n, cin, 5, 10)) * 0.1
        # plant a strong class-dependent spike so the task is learnable
        x[np.arange(n), y % cin, 2, y % 10] += 4.0
        return x, y

    @pytest.mark.parametrize("key,value", [("batch_size", 0), ("epochs", -1), ("epochs", 1.5),
                                           ("batch_size", True)])
    def test_config_refuses_bad_values_when_built(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_zero_epochs(self):
        x, y = self.small_data()
        model, history = train(x, y, x, y, TrainConfig(epochs=0), seed=1)
        assert history == []
        fresh = CnnModel(in_channels=6, seed=1)
        assert np.array_equal(model.params["conv_w"], fresh.params["conv_w"])

    def test_deterministic(self):
        x, y = self.small_data()
        cfg = TrainConfig(epochs=2, batch_size=8)
        m1, h1 = train(x, y, x, y, cfg, seed=5)
        m2, h2 = train(x, y, x, y, cfg, seed=5)
        assert h1 == h2
        for k in m1.params:
            assert np.array_equal(m1.params[k], m2.params[k])

    def test_logs_one_line_per_epoch(self, caplog):
        x, y = self.small_data()
        with caplog.at_level(logging.INFO, logger="taxelkit"):
            train(x, y, x, y, TrainConfig(epochs=3, batch_size=8), seed=5)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert [line.split()[1] for line in lines] == ["1/3", "2/3", "3/3"]
        assert all("val acc" in line and "samples/s" in line for line in lines)

    def test_learns_separable_toy(self):
        x, y = self.small_data(n=52)
        cfg = TrainConfig(epochs=20, batch_size=16)
        model, history = train(x, y, x, y, cfg, seed=0, lr=1e-3)
        assert history[-1].train_loss < history[0].train_loss
        assert np.mean(model.predict(x) == y) > 0.9

    def test_best_checkpoint_returned(self):
        x, y = self.small_data(n=26)
        cfg = TrainConfig(epochs=5, batch_size=8)
        model, history = train(x, y, x, y, cfg, seed=2, lr=1e-3)
        best = max(h.val_acc for h in history)
        assert np.mean(model.predict(x) == y) == pytest.approx(best)

    def test_best_parameters_are_kept_in_one_set_of_arrays(self, monkeypatch):
        # the best parameters are cloned once, before the first epoch, and
        # each improving epoch overwrites those arrays in place: they and the
        # returned model end with the bytes of the first best epoch's end
        x, y = self.small_data(n=26)
        clones, at_epoch_end = [], []
        clone, predict = CnnModel.clone_params, pipeline._predict_batched

        def cloning(model):
            clones.append(clone(model))
            return clones[-1]

        def predicting(model, val_x):
            at_epoch_end.append(clone(model))
            return predict(model, val_x)
        monkeypatch.setattr(CnnModel, "clone_params", cloning)
        monkeypatch.setattr(pipeline, "_predict_batched", predicting)
        model, history = train(x, y, x, y, TrainConfig(epochs=5, batch_size=8), seed=2, lr=1e-3)
        accs = [h.val_acc for h in history]
        assert sum(a > max(accs[:i], default=-1) for i, a in enumerate(accs)) >= 3
        assert len(clones) == 1 and len(at_epoch_end) == 5
        for name, value in at_epoch_end[accs.index(max(accs))].items():
            assert clones[0][name].tobytes() == value.tobytes(), name
            assert model.params[name].tobytes() == value.tobytes(), name

    def test_predictions_fit_the_training_workspace(self):
        # validation (47 rows) and evaluation (390 rows) predict in batches no
        # larger than the training batch, so the conv workspace keeps the
        # 32-sample sizes a training step grew it to
        x, y = self.small_data(n=40, cin=4)
        val_x, val_y = self.small_data(n=47, cin=4, seed=1)
        model, _ = train(x, y, val_x, val_y, TrainConfig(epochs=1, batch_size=32), seed=0)
        evaluate(model, *self.small_data(n=390, cin=4, seed=2))
        sizes = {name: buf.size for name, buf in model._work._bufs.items()}
        assert sizes == {"input": 4 * 32 * 5 * 10, "taps": 9 * CONV_CHANNELS * 32 * 5 * 10}

    def test_divergence_detected(self):
        x, y = self.small_data(n=13)
        x[0, 0, 0, 0] = np.nan  # poison the forward pass
        with pytest.raises(TrainingDivergedError):
            train(x, y, x, y, TrainConfig(epochs=1, batch_size=13), seed=0, lr=1e-4)


class TestConfusionAndEvaluate:
    def test_perfect_predictions(self):
        y = np.arange(13)
        cm = ConfusionMatrix.from_predictions(y, y)
        assert np.array_equal(cm.counts, np.eye(13, dtype=int))
        assert cm.overall_accuracy == 1.0
        assert cm.macro_accuracy == 1.0

    def test_known_counts(self):
        y_true = np.array([0, 0, 1, 1, 1, 2])
        y_pred = np.array([0, 1, 1, 1, 2, 2])
        cm = ConfusionMatrix.from_predictions(y_true, y_pred)
        assert cm.counts[0, 0] == 1 and cm.counts[0, 1] == 1
        assert cm.counts[1, 1] == 2 and cm.counts[1, 2] == 1
        assert cm.overall_accuracy == pytest.approx(4 / 6)
        assert cm.per_class_accuracy()[:3] == pytest.approx([0.5, 2 / 3, 1.0])
        # macro averages only the populated rows
        assert cm.macro_accuracy == pytest.approx((0.5 + 2 / 3 + 1.0) / 3)

    def test_rates_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 13, size=200)
        y_pred = rng.integers(0, 13, size=200)
        rates = ConfusionMatrix.from_predictions(y_true, y_pred).rates()
        assert np.allclose(rates.sum(axis=1), 1.0)

    def test_evaluate_channel_mismatch(self):
        model = CnnModel(in_channels=122, conv_channels=2, hidden=3)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((1, 366, 5, 10)), np.zeros(1, dtype=int))

    def test_evaluate_matches_manual(self):
        model = CnnModel(in_channels=6, seed=0, conv_channels=2, hidden=3)
        x = np.random.default_rng(1).normal(size=(20, 6, 5, 10))
        y = np.random.default_rng(2).integers(0, 13, size=20)
        res = evaluate(model, x, y)
        assert res.overall_accuracy == pytest.approx(np.mean(model.predict(x) == y))
