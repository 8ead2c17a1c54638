"""Dataset tensorization, splitting, normalization, training, evaluation,
and the normal-vs-normal+shear ablation study.

Tensor layout is (N, C, 5, 10) with channels stacked frame-major,
axis-minor: frame 0 (x, y, z), frame 1 (x, y, z), ... The normal-only
ablation keeps just the z channel of every frame, so C is 366 or 122.
"""
from __future__ import annotations

import enum
import hashlib
import json
import logging
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import dataio
from .geometry import COLS, N_TAXELS, ROWS
from .gestures import N_CLASSES, N_FRAMES, GestureRecording
from .nn import AdamState, CnnModel

log = logging.getLogger("taxelkit")

# Full-scale split of the 3861-recording study: 3081 / 390 / 390.
SPLIT_RATIO = (3081, 390, 390)

STD_FLOOR = 1e-8
SUM_BLOCK = 1 << 16  # elements per block of fit_normalization's sum of squares

PREDICT_BATCH = 32  # the default training batch, so predictions fit the conv workspace


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


def fill_tensors(rows: Iterable[tuple[int, np.ndarray]], labels: np.ndarray,
                 id_lists: list[list[int]], mode: AblationMode, dtype=np.float32
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One arm's input tensor and labels for each list of record ids, filled in
    one pass over ``rows``, ``(id, (122, 49, 3) frames)`` pairs; ``labels[id]``
    is a record's label. Each used record's frames are stacked along the
    channel axis; a frame's taxels are the first cells of the flat grid (see
    ``geometry``). A row's frames are copied before the next row is read, so
    a row source may reuse one buffer."""
    k = mode.n_axes
    tensors = [np.zeros((len(ids), N_FRAMES, k, ROWS * COLS), dtype=dtype) for ids in id_lists]
    slots: dict[int, list[np.ndarray]] = {}
    for tensor, ids in zip(tensors, id_lists):
        for slot, i in zip(tensor[..., :N_TAXELS], ids):  # (122, k, 49) each
            slots.setdefault(i, []).append(slot)
    for i, frames in rows:
        for slot in slots.get(i, ()):
            slot[...] = frames[:, :, 3 - k:].transpose(0, 2, 1)
    labels = np.asarray(labels, dtype=np.int64)
    return [(tensor.reshape(len(ids), N_FRAMES * k, ROWS, COLS),
             labels[np.asarray(ids, dtype=np.intp)]) for tensor, ids in zip(tensors, id_lists)]


def _recording_rows(recordings: list[GestureRecording]
                   ) -> tuple[Iterator[tuple[int, np.ndarray]], np.ndarray]:
    """The row source and labels of an in-memory recording list, for ``fill_tensors``."""
    return enumerate(r.frames for r in recordings), dataio.record_headers(recordings)["label"]


def assemble_tensor(recordings: list[GestureRecording], mode: AblationMode,
                    dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """One arm's input tensor and labels for every recording of a list."""
    return fill_tensors(*_recording_rows(recordings), [range(len(recordings))], mode, dtype)[0]


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


def split_dataset(records, seed: int, ratio: tuple[int, int, int] = SPLIT_RATIO) -> DatasetSplit:
    """Per-user proportional split at the global train/val/test ratio, of a
    recording list or a ``dataio.RECORD_HEADER`` array.

    Each user's recordings are shuffled by the seed; per-user allocations use
    largest-remainder rounding, then a repair pass pins the global sizes.
    """
    user_ids = dataio.record_headers(records)["user_id"]
    if not len(user_ids):
        raise ValueError("cannot split an empty dataset")
    users, which, counts = np.unique(user_ids, return_inverse=True, return_counts=True)
    by_user = np.split(np.argsort(which, kind="stable"), np.cumsum(counts)[:-1])
    n_total = len(user_ids)
    r_tot = sum(ratio)
    targets = _largest_remainder(np.array([n_total * r / r_tot for r in ratio]), n_total)

    # per-user largest-remainder allocation: (users, 3), one row per user
    quotas = counts[:, None] * np.array(ratio) / r_tot
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


def select(recordings: list[GestureRecording], ids: list[int]) -> list[GestureRecording]:
    return [recordings[i] for i in ids]


@dataclass(frozen=True)
class NormalizationStats:
    """Per-force-axis mean/std pooled over recordings, frames, and taxels."""

    mode: AblationMode
    mean: np.ndarray  # (3,) or (1,)
    std: np.ndarray


def _pairwise(leaf, lo: int, n: int):
    """numpy's pairwise sum of a run of n elements from ``lo``, split by halves
    ``n2 = n // 2 - (n // 2) % 8`` down to ``leaf(lo, n)`` sums of at most
    ``SUM_BLOCK`` elements. Module-level, so no closure cycle keeps the run alive."""
    if n <= SUM_BLOCK:
        return leaf(lo, n)
    n2 = n // 2 - (n // 2) % 8
    return _pairwise(leaf, lo, n2) + _pairwise(leaf, lo + n2, n - n2)


def _squared_deviations(view: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Per-axis sum of ``(view - mean)**2`` over a C-contiguous axis view, in
    ``SUM_BLOCK``-element blocks, added in the order ``np.var`` adds them (numpy 2.x):

    - n_axes > 1: each (recording, frame, axis) row of cells is summed pairwise,
      then the rows are added in row order;
    - n_axes = 1: the whole tensor is one run, summed by ``_pairwise``.
    """
    buf = np.empty(SUM_BLOCK, dtype=view.dtype)

    def block(x, m, out=None):  # the sums of squares of one block of deviations
        d = np.subtract(x, m, out=buf[:x.size].reshape(x.shape))
        return np.add.reduce(np.multiply(d, d, out=d), axis=-1, out=out)

    k = view.shape[2]
    if k == 1:
        flat = view.reshape(-1)
        total = _pairwise(lambda lo, n: block(flat[lo:lo + n], mean[0]), 0, flat.size)
        return np.array([total], dtype=view.dtype)
    rows = view.reshape(-1, k, view.shape[3] * view.shape[4])
    part = np.empty(rows.shape[:2], dtype=view.dtype)
    step = max(1, SUM_BLOCK // (k * rows.shape[2]))
    for i in range(0, len(rows), step):
        block(rows[i:i + step], mean[:, None], out=part[i:i + step])
    return np.add.reduce(part, axis=0)


def fit_normalization(train_tensor: np.ndarray, mode: AblationMode) -> NormalizationStats:
    """Per-axis mean and floored std, bit for bit ``view.mean`` and ``view.std``
    over every axis but the force axis, without a tensor-sized temporary."""
    if train_tensor.size == 0:
        raise ValueError("empty training tensor")
    n, c, h, w = train_tensor.shape
    view = train_tensor.reshape(n, c // mode.n_axes, mode.n_axes, h, w)
    axes = (0, 1, 3, 4)
    with np.errstate(over="ignore"):  # an overflow is reported below
        mean = view.mean(axis=axes)
        var = _squared_deviations(view, mean)
        np.true_divide(var, np.intp(view.size // mode.n_axes), out=var, casting="unsafe")
        std = np.maximum(np.sqrt(var, out=var), STD_FLOOR)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise FloatingPointError(f"normalization stats overflow {train_tensor.dtype}: "
                                 f"mean {mean.tolist()}, std {std.tolist()}")
    return NormalizationStats(mode=mode, mean=mean, std=std)


def apply_normalization(stats: NormalizationStats, tensor: np.ndarray) -> np.ndarray:
    """Normalize ``tensor`` in place and return it. The stats are cast to the
    tensor's dtype first, so float64 stats on a float32 tensor give exactly
    what their float32 rounding gives, and the tensor keeps its dtype."""
    frames = tensor.shape[1] // stats.mode.n_axes  # channel c reads axis c % n_axes
    tensor -= np.tile(stats.mean.astype(tensor.dtype), frames)[:, None, None]
    tensor /= np.tile(stats.std.astype(tensor.dtype), frames)[:, None, None]
    return tensor


def prepare_tensors(rows: Iterable[tuple[int, np.ndarray]], labels: np.ndarray,
                    id_lists: list[list[int]], mode: AblationMode,
                    stats: NormalizationStats | None = None
                    ) -> tuple[list[tuple[np.ndarray, np.ndarray]], NormalizationStats]:
    """One arm's float32 input tensor and labels for each id list, filled in
    one pass over ``rows`` (see ``fill_tensors``).

    Every tensor is normalized in place by ``stats``; when None, the stats are
    fitted on the first list's tensor (the training split) and returned for
    the others. The tensors are the only tensor-sized arrays this allocates.
    """
    pairs = fill_tensors(rows, labels, id_lists, mode)
    if stats is None:
        stats = fit_normalization(pairs[0][0], mode)
    for x, _ in pairs:
        apply_normalization(stats, x)
    return pairs, stats


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    seed: int = 0
    lr: float = 1e-4


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
          config: TrainConfig) -> tuple[CnnModel, list[EpochRecord]]:
    """Mini-batch Adam; returns the best-validation-accuracy checkpoint."""
    model = CnnModel(in_channels=train_x.shape[1], seed=config.seed)
    adam = AdamState(lr=config.lr)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x545241494E]))
    history: list[EpochRecord] = []
    best_acc = -1.0
    best_params = model.clone_params()
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
            losses.append(loss)
        val_acc = float(np.mean(_predict_batched(model, val_x) == val_y)) if len(val_y) else 0.0
        history.append(EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)), val_acc=val_acc))
        seconds = time.perf_counter() - t0
        log.info("epoch %d/%d (C=%d): train loss %.4f, val acc %.3f, %.2f s, %.0f samples/s",
                 epoch + 1, config.epochs, train_x.shape[1], history[-1].train_loss, val_acc,
                 seconds, len(train_x) / seconds)
        if val_acc > best_acc:
            best_acc = val_acc
            best_params = model.clone_params()
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


def run_arm(recordings: list[GestureRecording], split: DatasetSplit, mode: AblationMode,
            config: TrainConfig) -> AblationArm:
    [(train_x, train_y), (val_x, val_y), (test_x, test_y)], _ = prepare_tensors(
        *_recording_rows(recordings), [split.train, split.val, split.test], mode)
    model, history = train(train_x, train_y, val_x, val_y, config)
    return AblationArm(mode=mode, result=evaluate(model, test_x, test_y), history=history)


def ablate(recordings: list[GestureRecording], config: TrainConfig,
           split_seed: int = 0) -> AblationReport:
    """Train and evaluate both arms on identical splits and seeds."""
    split = split_dataset(recordings, seed=split_seed)
    return AblationReport(*[run_arm(recordings, split, mode, config) for mode in AblationMode])
