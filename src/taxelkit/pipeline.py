"""Dataset tensorization, splitting, normalization, training, evaluation,
and the normal-vs-normal+shear ablation study.

Tensor layout is (N, C, 5, 10) with channels stacked frame-major,
axis-minor: frame 0 (x, y, z), frame 1 (x, y, z), ... The normal-only
ablation keeps just the z channel of every frame, so C is 366 or 122.
An arm's tensors are ``TensorView``s: each batch is read from the records
when it is indexed, so no tensor of a whole split is built.
"""
from __future__ import annotations

import enum
import hashlib
import json
import logging
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .geometry import COLS, N_TAXELS, ROWS
from .gestures import N_CLASSES, N_FRAMES, require_int
from .nn import AdamState, CnnModel
from .workers import run_chunks, shared_array

log = logging.getLogger("taxelkit")

# Full-scale split of the 3861-recording study: 3081 / 390 / 390.
SPLIT_RATIO = (3081, 390, 390)

STD_FLOOR = 1e-8
# Records per chunk of fit_normalization's workers, about 3.5 ms of reads and
# sums: the desk set's 374 training records, three chunks, fit in about 9 ms
# on two CPUs against 11.5 ms in one process.
FIT_CHUNK = 114

# Bounds the conv workspace a prediction grows: its stacked-tap products hold
# 9*K*50 values per sample. 32 is the default training batch, so a prediction
# reuses the buffers a training step grew.
PREDICT_BATCH = 32


class AblationMode(enum.Enum):
    NORMAL_ONLY = "normal_only"  # z per frame -> 122 input channels
    NORMAL_AND_SHEAR = "normal_and_shear"  # x, y, z per frame -> 366

    @property
    def n_axes(self) -> int:
        """How many force axes the arm reads: the last n_axes of (x, y, z)."""
        return 1 if self is AblationMode.NORMAL_ONLY else 3


class TrainingDivergedError(RuntimeError):
    pass


def channels_for(mode: AblationMode) -> int:
    return N_FRAMES * mode.n_axes


class TensorView:
    """One arm's ``(N, C, 5, 10)`` input tensor over the records ``ids`` names,
    read on demand. ``read(id)`` gives a record's ``(122, 49, 3)`` frames, e.g.
    ``DatasetReader.read``, whose records the reader checked when it opened
    the file, or ``records["frames"].__getitem__``. ``view[index]``,
    for a slice or an index array, copies the records it selects into a
    fresh C-order batch of ``dtype`` and normalizes it by ``stats`` with
    ``apply_normalization`` (a view without stats gives the raw values). A
    record's frames are stacked along the channel axis, and a frame's taxels
    are the first cells of the flat grid (see ``geometry``). So an arm is
    held one batch at a time, never as a tensor."""

    def __init__(self, read: Callable[[int], np.ndarray], ids, mode: AblationMode,
                 stats: NormalizationStats | None = None, dtype=np.float32):
        self.read, self.mode, self.stats = read, mode, stats
        self.ids = np.asarray(ids, dtype=np.intp)
        self.dtype = np.dtype(dtype)
        self.shape = (len(self.ids), channels_for(mode), ROWS, COLS)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index) -> np.ndarray:
        ids = self.ids[index]
        batch = np.empty((len(ids), *self.shape[1:]), dtype=self.dtype)
        k = self.mode.n_axes
        rows = batch.reshape(len(ids), N_FRAMES, k, ROWS * COLS)
        rows[..., N_TAXELS:] = 0
        for slot, i in zip(rows[..., :N_TAXELS], ids.tolist()):  # (122, k, 49) each
            slot[...] = self.read(i)[:, :, 3 - k:].transpose(0, 2, 1)
        return batch if self.stats is None else apply_normalization(self.stats, batch)


def assemble_tensor(records: np.ndarray, mode: AblationMode,
                    dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """One arm's input tensor and labels for every record of a dataset: a
    full read of its ``TensorView``."""
    view = TensorView(records["frames"].__getitem__, range(len(records)), mode, dtype=dtype)
    return view[:], np.asarray(records["label"], dtype=np.int64)


@dataclass(frozen=True)
class DatasetSplit:
    train: list[int]
    val: list[int]
    test: list[int]

    def digest(self) -> str:
        """SHA-256 over the train, val and test id lists."""
        return hashlib.sha256(json.dumps([self.train, self.val, self.test]).encode()).hexdigest()


def _largest_remainder(quotas: np.ndarray, total) -> np.ndarray:
    """Round each row of quotas down, then up by one in its largest remainders
    (earlier column first on a tie) until the row sums to its total."""
    base = np.floor(quotas).astype(int)
    short = np.expand_dims(total - base.sum(axis=-1), -1)
    order = np.argsort(-(quotas - base), axis=-1, kind="stable")
    base += np.argsort(order, axis=-1) < short  # the first `short` columns of `order`
    return base


def split_dataset(records: np.ndarray, seed: int) -> DatasetSplit:
    """Per-user proportional split at the global train/val/test ratio
    ``SPLIT_RATIO``, of a dataset or a ``dataio.RECORD_HEADER`` array.

    Each user's recordings are shuffled by the seed; per-user allocations use
    largest-remainder rounding, then a repair pass pins the global sizes.
    """
    user_ids = records["user_id"]
    if not len(user_ids):
        raise ValueError("cannot split an empty dataset")
    users, which, counts = np.unique(user_ids, return_inverse=True, return_counts=True)
    by_user = np.split(np.argsort(which, kind="stable"), np.cumsum(counts)[:-1])
    n_total = len(user_ids)
    r_tot = sum(SPLIT_RATIO)
    targets = _largest_remainder(np.array([n_total * r / r_tot for r in SPLIT_RATIO]), n_total)

    # per-user largest-remainder allocation: (users, 3), one row per user
    quotas = counts[:, None] * np.array(SPLIT_RATIO) / r_tot
    alloc = _largest_remainder(quotas, counts)

    # repair pass: shift single recordings between splits until global totals match
    cur = alloc.sum(axis=0)
    while not np.array_equal(cur, targets):
        over = int(np.argmax(cur - targets))
        under = int(np.argmin(cur - targets))
        # move from the user most over-allocated in the oversized split; the
        # first index on a tie is the lowest user id
        surplus = np.where(alloc[:, over] > 0, alloc[:, over] - quotas[:, over], -np.inf)
        donor = int(np.argmax(surplus))
        alloc[donor, over] -= 1
        alloc[donor, under] += 1
        cur[over] -= 1
        cur[under] += 1

    train, val, test = [], [], []
    for u, ids, (a, b, c) in zip(users.tolist(), by_user, alloc.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence([seed, u, 0x53504C54]))
        rng.shuffle(ids)
        train += ids[:a].tolist()
        val += ids[a:a + b].tolist()
        test += ids[a + b:a + b + c].tolist()
    return DatasetSplit(train=train, val=val, test=test)


def select(records: np.ndarray, ids: list[int]) -> np.ndarray:
    """The rows ``ids`` names, in order, in a fresh array."""
    return records[ids]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-force-axis mean/std pooled over recordings, frames and grid cells."""

    mode: AblationMode
    mean: np.ndarray  # (3,) or (1,)
    std: np.ndarray


def fit_normalization(read: Callable[[int], np.ndarray], ids, mode: AblationMode
                      ) -> NormalizationStats:
    """Per-axis float64 mean and floored std of the records ``ids`` names,
    pooled over recordings, frames and all 50 grid cells (the phantom cell
    counts as its zero). One pass: ``run_chunks``' workers read each record
    once into a float64 row per axis and write its sums and sums of squares
    to row j of a shared array, which is added here in record order, so the
    bits do not depend on the worker count and both arms get the same z
    stats."""
    ids = np.asarray(ids, dtype=np.intp)
    if not len(ids):
        raise ValueError("empty training split")
    sums = shared_array((len(ids), 2, 3), np.float64)  # per record: sums, sums of squares

    def record_sums(lo: int, hi: int) -> None:
        axes = np.empty((3, N_FRAMES * N_TAXELS))
        for j, i in enumerate(ids[lo:hi].tolist(), lo):
            axes.T[...] = read(i).reshape(-1, 3)
            np.add.reduce(axes, axis=1, out=sums[j, 0])
            np.add.reduce(np.multiply(axes, axes, out=axes), axis=1, out=sums[j, 1])
    run_chunks(len(ids), FIT_CHUNK, record_sums)
    k = mode.n_axes
    mean, squares = np.add.reduce(sums, axis=0)[:, 3 - k:] / (len(ids) * N_FRAMES * ROWS * COLS)
    std = np.sqrt(np.maximum(squares - mean * mean, 0.0))
    return NormalizationStats(mode=mode, mean=mean, std=np.maximum(std, STD_FLOOR))


def apply_normalization(stats: NormalizationStats, tensor: np.ndarray) -> np.ndarray:
    """Normalize ``tensor`` in place and return it. The stats are cast to the
    tensor's dtype first, so float64 stats on a float32 tensor give exactly
    what their float32 rounding gives, and the tensor keeps its dtype. Each is
    spread over a whole (C, 5, 10) sample first, so numpy runs one long loop
    per sample instead of one per 50-cell channel."""
    c, h, w = tensor.shape[1:]
    k = stats.mode.n_axes  # channel c reads axis c % k
    sample = np.empty((c // k, k, h * w), dtype=tensor.dtype)
    for value, op in ((stats.mean, np.subtract), (stats.std, np.divide)):
        sample[...] = value.astype(tensor.dtype)[:, None]
        op(tensor, sample.reshape(c, h, w), out=tensor)
    return tensor


def prepare_views(read: Callable[[int], np.ndarray], labels: np.ndarray,
                  id_lists: list[list[int]], mode: AblationMode,
                  stats: NormalizationStats | None = None
                  ) -> tuple[list[tuple[TensorView, np.ndarray]], NormalizationStats]:
    """One arm's normalized float32 ``TensorView`` and labels for each id list;
    ``labels[id]`` is a record's label. When ``stats`` is None they are fitted
    on the first list's records (the training split) and returned for the
    others. Nothing tensor-sized is allocated."""
    if stats is None:
        stats = fit_normalization(read, id_lists[0], mode)
    labels = np.asarray(labels, dtype=np.int64)
    return [(TensorView(read, ids, mode, stats), labels[np.asarray(ids, dtype=np.intp)])
            for ids in id_lists], stats


@dataclass(frozen=True)
class TrainConfig:
    """The config's ``train`` section, checked on construction."""

    epochs: int = 60
    batch_size: int = 32

    def __post_init__(self):
        require_int(self.epochs, "epochs", 0)
        require_int(self.batch_size, "batch_size", 1)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    val_acc: float


def _predict_batched(model: CnnModel, x: np.ndarray) -> np.ndarray:
    preds = np.empty(len(x), dtype=np.int64)
    for i in range(0, len(x), PREDICT_BATCH):
        preds[i:i + PREDICT_BATCH] = model.predict(x[i:i + PREDICT_BATCH])
    return preds


def train(train_x: np.ndarray, train_y: np.ndarray, val_x: np.ndarray, val_y: np.ndarray,
          config: TrainConfig, seed: int, lr: float = 1e-4) -> tuple[CnnModel, list[EpochRecord]]:
    """Mini-batch Adam in the training tensor's dtype; returns the
    best-validation-accuracy checkpoint. ``seed`` fixes the initial weights,
    the batch order and the dropout masks."""
    model = CnnModel(in_channels=train_x.shape[1], seed=seed, dtype=train_x.dtype)
    adam = AdamState(lr=lr)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x545241494E]))
    history: list[EpochRecord] = []
    best_acc = -1.0
    best_params = model.clone_params()  # overwritten in place when validation improves
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(len(train_x))
        losses = []
        for i in range(0, len(perm), config.batch_size):
            idx = perm[i:i + config.batch_size]
            loss, grads = model.loss_and_grads(train_x[idx], train_y[idx], dropout_rng=rng)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"loss became {loss} at epoch {epoch}, batch {i // config.batch_size}")
            adam.step(model.params, grads)
            del grads  # applied: the next batch is read and run without them
            losses.append(loss)
        val_acc = float(np.mean(_predict_batched(model, val_x) == val_y)) if len(val_y) else 0.0
        history.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)), val_acc=val_acc))
        seconds = time.perf_counter() - t0
        log.info("epoch %d/%d (C=%d): train loss %.4f, val acc %.3f, %.2f s, %.0f samples/s",
                 epoch + 1, config.epochs, train_x.shape[1], history[-1].train_loss, val_acc,
                 seconds, len(train_x) / seconds)
        if val_acc > best_acc:
            best_acc = val_acc
            for name, value in model.params.items():
                np.copyto(best_params[name], value)
    model.set_params(best_params)
    return model, history


@dataclass
class ConfusionMatrix:
    counts: np.ndarray  # (13, 13) true x predicted

    @classmethod
    def from_predictions(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionMatrix":
        counts = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
        np.add.at(counts, (y_true, y_pred), 1)
        return cls(counts=counts)

    def rates(self) -> np.ndarray:
        row = self.counts.sum(axis=1, keepdims=True)
        return np.divide(self.counts, row, out=np.zeros((N_CLASSES, N_CLASSES)), where=row > 0)

    @property
    def overall_accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.trace(self.counts) / total) if total else 0.0

    def per_class_accuracy(self) -> np.ndarray:
        return np.diag(self.rates())

    @property
    def macro_accuracy(self) -> float:
        row = self.counts.sum(axis=1)
        if not row.any():
            return 0.0
        return float(self.per_class_accuracy()[row > 0].mean())


def evaluate(model: CnnModel, test_x: np.ndarray, test_y: np.ndarray) -> ConfusionMatrix:
    if test_x.shape[1] != model.in_channels:
        raise ValueError(f"tensor has {test_x.shape[1]} channels, model expects {model.in_channels}")
    return ConfusionMatrix.from_predictions(test_y, _predict_batched(model, test_x))


@dataclass(frozen=True)
class AblationArm:
    mode: AblationMode
    result: ConfusionMatrix
    history: list[EpochRecord]


@dataclass(frozen=True)
class AblationReport:
    normal_only: AblationArm  # one arm per AblationMode, in its order
    normal_and_shear: AblationArm

    def per_class_delta(self) -> np.ndarray:
        """Shear-arm minus normal-arm per-class accuracy."""
        return (self.normal_and_shear.result.per_class_accuracy()
                - self.normal_only.result.per_class_accuracy())

    def shear_wins(self) -> int:
        return int(np.sum(self.per_class_delta() > 0))


def run_arm(headers: np.ndarray, read: Callable[[int], np.ndarray], split: DatasetSplit,
            mode: AblationMode, config: TrainConfig, seed: int) -> AblationArm:
    [(train_x, train_y), (val_x, val_y), (test_x, test_y)], _ = prepare_views(
        read, headers["label"], [split.train, split.val, split.test], mode)
    model, history = train(train_x, train_y, val_x, val_y, config, seed)
    return AblationArm(mode=mode, result=evaluate(model, test_x, test_y), history=history)


def ablate(headers: np.ndarray, read: Callable[[int], np.ndarray], config: TrainConfig,
           seed: int) -> AblationReport:
    """Train and evaluate both arms of a dataset on the split ``seed`` draws,
    each trained from ``seed``.

    ``headers`` is a dataset or its ``dataio.RECORD_HEADER`` array; ``read(id)``
    gives a record's frames, e.g. a ``dataio.DatasetReader``'s ``read``, or
    ``records["frames"].__getitem__``. Each arm reads its batches
    through ``TensorView``s, so neither holds a tensor."""
    split = split_dataset(headers, seed=seed)
    return AblationReport(*[run_arm(headers, read, split, mode, config, seed)
                            for mode in AblationMode])
