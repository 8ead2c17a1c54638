"""Acceptance gate: the eight release criteria, each printing one
pass/fail line (run with -s to see them inline).
"""
import time

import numpy as np
import pytest

from taxelkit import calibration as cal
from taxelkit.cli import main
from taxelkit.gestures import synth_dataset
from taxelkit.magnetics import DipoleParams, TaxelGeometry, dipole_flux, flux_sweep
from taxelkit.nn import CnnModel, maxpool2_forward, param_shapes
from taxelkit.pipeline import (AblationMode, TensorView, TrainConfig, ablate,
                               apply_normalization, assemble_tensor,
                               fit_normalization, select, split_dataset, train)

FULL_SEED = 0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def full_recordings():
    return synth_dataset(n_users=11, n_blocks=9, reps_per_block=3, master_seed=FULL_SEED)


@pytest.fixture(scope="session")
def full_split(full_recordings):
    return split_dataset(full_recordings, seed=FULL_SEED)


def test_criterion_1_shape_fidelity(full_recordings, full_split):
    t0 = time.time()
    train_recs = select(full_recordings, full_split.train)
    both, _ = assemble_tensor(train_recs, AblationMode.NORMAL_AND_SHEAR, dtype=np.float32)
    normal, _ = assemble_tensor(train_recs, AblationMode.NORMAL_ONLY, dtype=np.float32)
    shapes_ok = both.shape == (3081, 366, 5, 10) and normal.shape == (3081, 122, 5, 10)
    dtype_ok = both.dtype == np.float32 and normal.dtype == np.float32
    pooled, _ = maxpool2_forward(np.zeros((1, 122, 5, 10)))
    flat = int(np.prod(pooled.shape[1:]))
    flat_ok = flat == 4392 and param_shapes(122)["fc1_w"][1] == 4392
    elapsed = time.time() - t0
    report(1, shapes_ok and dtype_ok and flat_ok and elapsed < 60,
           f"train tensors {both.shape} / {normal.shape}, post-pool features {flat}, "
           f"{elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2)
    model = CnnModel(in_channels=3, seed=0, conv_channels=4, hidden=7)
    x = rng.normal(size=(2, 3, 5, 10))
    labels = np.array([4, 11])
    _, grads = model.loss_and_grads(x, labels, np.random.default_rng(1))

    worst = 0.0
    step = 1e-5
    for name, p in model.params.items():
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi, _ = model.loss_and_grads(x, labels, np.random.default_rng(1))
            p[idx] = orig - step
            lo, _ = model.loss_and_grads(x, labels, np.random.default_rng(1))
            p[idx] = orig
            num[idx] = (hi - lo) / (2 * step)
        denom = max(np.abs(grads[name]).max(), np.abs(num).max(), 1e-12)
        worst = max(worst, np.abs(grads[name] - num).max() / denom)
    elapsed = time.time() - t0
    report(2, worst < 1e-4 and elapsed < 60,
           f"worst end-to-end relative gradient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_calibration_exactness():
    t0 = time.time()
    worst_rms, worst_rel = 0.0, 0.0
    for taxel in range(49):
        rng = np.random.default_rng(np.random.SeedSequence([taxel, 0x414343]))
        truth = rng.normal(0.0, 0.5, size=(3, 9))
        fluxes = rng.normal(0.0, 2.0, size=(40, 3))
        forces = np.stack([truth @ cal.quadratic_features(b) for b in fluxes])
        model = cal.fit_taxel(fluxes, forces)
        worst_rms = max(worst_rms, max(cal.rms_error(model, fluxes, forces)))
        rel = np.abs(model.coeffs - truth).max() / np.abs(truth).max()
        worst_rel = max(worst_rel, rel)
    elapsed = time.time() - t0
    report(3, worst_rms < 1e-9 and worst_rel < 1e-8 and elapsed < 10,
           f"49 taxels: worst RMS {worst_rms:.2e} N, worst coeff rel err {worst_rel:.2e}, "
           f"{elapsed:.1f}s")


def test_criterion_4_dipole_analytics():
    t0 = time.time()
    geom, dip = TaxelGeometry(), DipoleParams()
    z0 = geom.sensor_standoff

    def ternary_max(f, lo, hi):
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            if f(m1) < f(m2):
                lo = m1
            else:
                hi = m2
        return 0.5 * (lo + hi)

    bx_peak = ternary_max(lambda d: abs(dipole_flux((d, 0, 0), geom, dip)[0]), 0.01, 3 * z0)
    bz_stat = ternary_max(lambda d: -dipole_flux((d, 0, 0), geom, dip)[2], 0.01, 6 * z0)
    err_bx = abs(bx_peak - z0 / 2) / z0
    err_bz = abs(bz_stat - 2 * z0) / z0
    curves = flux_sweep([2.0, 4.0, 6.0, 10.0], shear_max=3.0, steps=301, geom=geom, dip=dip)
    deltas = [max(c.bx.max() - c.bx.min(), c.bz.max() - c.bz.min()) for c in curves]
    ordered = all(a > b for a, b in zip(deltas, deltas[1:]))
    elapsed = time.time() - t0
    report(4, err_bx < 0.005 and err_bz < 0.005 and ordered and elapsed < 10,
           f"bx extremum off z0/2 by {err_bx:.2%} of z0, bz stationary off 2*z0 by "
           f"{err_bz:.2%}; signal change by height {[f'{d:.3f}' for d in deltas]}, {elapsed:.1f}s")


def test_criterion_5_ablation_property():
    t0 = time.time()
    recs = synth_dataset(n_users=4, n_blocks=3, reps_per_block=3, master_seed=FULL_SEED)
    assert len(recs) == 468
    config = TrainConfig(epochs=60, batch_size=32, seed=FULL_SEED)
    rep = ablate(recs, recs["frames"].__getitem__, config, split_seed=FULL_SEED)
    acc_n = rep.normal_only.result.overall_accuracy
    acc_s = rep.normal_and_shear.result.overall_accuracy
    elapsed = time.time() - t0
    report(5, acc_s >= acc_n + 0.05 and acc_n >= 0.23 and acc_s >= 0.23 and elapsed < 900,
           f"normal-only {acc_n:.1%} vs normal+shear {acc_s:.1%} "
           f"(gap {acc_s - acc_n:+.1%}), {elapsed:.0f}s")


def test_criterion_6_dataset_arithmetic(full_recordings, full_split):
    t0 = time.time()
    n_ok = len(full_recordings) == 3861
    hist = np.bincount([int(r.label) for r in full_recordings], minlength=13)
    hist_ok = (hist == 297).all()
    sizes = (len(full_split.train), len(full_split.val), len(full_split.test))
    sizes_ok = sizes == (3081, 390, 390)
    users_ok = all({full_recordings[i].user_id for i in part} == set(range(11))
                   for part in (full_split.train, full_split.val, full_split.test))
    elapsed = time.time() - t0
    report(6, n_ok and hist_ok and sizes_ok and users_ok and elapsed < 60,
           f"{len(full_recordings)} recordings, class histogram {hist[0]}x13 uniform, "
           f"split {sizes}, all 11 users in every split, {elapsed:.1f}s")


def test_criterion_7_determinism(tmp_path):
    import json
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "synth": {"n_users": 2, "n_blocks": 1, "reps_per_block": 1},
        "train": {"epochs": 2, "batch_size": 32},
        "seed": 11,
    }))
    digests = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        for cmd in (["synth"], ["train", "--mode", "normal-and-shear"], ["eval"]):
            assert main(cmd + ["--config", str(config), "--out", str(run_dir)]) == 0
        digests.append({name: (run_dir / name).read_bytes()
                        for name in ("dataset.tgk", "model.tgkm", "history.csv",
                                     "evaluation.json", "confusion.csv")})
    same = all(digests[0][k] == digests[1][k] for k in digests[0])
    report(7, same, "repeated synth/train/eval runs byte-identical across "
                    f"{sorted(digests[0])}")


def test_criterion_8_memorization_sanity():
    t0 = time.time()
    recs = synth_dataset(n_users=1, n_blocks=5, reps_per_block=1, master_seed=3)[:64]
    x, y = assemble_tensor(recs, AblationMode.NORMAL_AND_SHEAR, dtype=np.float32)
    stats = fit_normalization(TensorView(recs["frames"].__getitem__, range(64),
                                         AblationMode.NORMAL_AND_SHEAR, dtype=np.float32),
                              AblationMode.NORMAL_AND_SHEAR)
    view = x.reshape(64, 122, 3, 5, 10)
    ref = ((view - stats.mean[None, None, :, None, None])
           / stats.std[None, None, :, None, None]).reshape(x.shape)
    x = apply_normalization(stats, x)  # in place
    assert x.tobytes() == ref.tobytes()
    model, history = train(x, y, x, y, TrainConfig(epochs=50, batch_size=32, seed=0, lr=1e-3))
    acc = float(np.mean(model.predict(np.asarray(x, dtype=np.float64)) == y))
    elapsed = time.time() - t0
    report(8, acc > 0.9 and len(history) <= 50 and elapsed < 120,
           f"64-recording toy set train accuracy {acc:.1%} after {len(history)} epochs, "
           f"{elapsed:.0f}s")
