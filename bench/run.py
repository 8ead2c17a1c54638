#!/usr/bin/env python3
"""taxelkit end-to-end benchmark.

    python3 bench/run.py --workload study_data --seed 1 --seconds 50 --trace 0
    python3 -m pytest bench/test_bench.py

Each run builds nothing: it imports taxelkit from ``src/`` of the checkout
it sits in and drives ``taxelkit.cli.main`` in a closed loop, one command
after the previous one returns. Every iteration walks the whole user path:

    data stage   synth -> train (0 epochs) x 2 arms -> eval x 2 arms
    train stage  ablate --dataset <seeded desk set> for a few epochs
    calib stage  sweep -> calibrate --samples 1000

so every end-to-end metric exists on every workload. The workloads differ
in which stage is scaled up, which moves the bottleneck between layers:
study_data runs the data stage on the 3861-recording study set and trains
two epochs; desk_train runs the data stage three times on the
468-recording desk set and trains four epochs. Timings are medians over
the samples of a run.

Loss and accuracy come from a fixed reference ablation (desk set, seed 0,
one epoch) run once after timing. On seeded desk sets their quartile
spread across seeds is 10-35%, which would hide any arithmetic change;
on the fixed input they repeat exactly for a given build.

``--trace 1`` runs half the time untraced and half with every public
layer function wrapped (layers.py), and prints per-layer metrics plus
the tracing overhead instead of the end-to-end ones. Spans are written
to .bench_work/spans-<workload>-seed<n>.jsonl.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it records the environment and any failures.
"""
from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fixed inputs of the reference ablation that yields the loss/accuracy guards.
REFERENCE_SEED = 0
REFERENCE_EPOCHS = 1

SETUP_REPEATS = 5
CALIB_SAMPLES = 1000
SPLIT_RATIO = (3081, 390, 390)
FULL_SCALE = 11 * 9 * 3 * 13
DESK_SCALE = 4 * 3 * 3 * 13
SWEEP_ROWS = 4 * 101


@dataclass(frozen=True)
class Workload:
    name: str
    full_scale: bool  # data stage on the 3861-recording study set, else the desk set
    epochs: int  # ablate epochs in the train stage
    data_repeats: int  # data stages per iteration, so short stages get enough samples


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("study_data", full_scale=True, epochs=2, data_repeats=1),
    Workload("desk_train", full_scale=False, epochs=4, data_repeats=3),
)}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "synth_s": "s", "prep_s": "s", "eval_s": "s",
    "train_samples_per_s": "1/s",
    "loss_final.normal_only": "nat", "loss_final.normal_and_shear": "nat",
    "test_acc.normal_only": "fraction", "test_acc.normal_and_shear": "fraction",
    "calib_rms_n": "N",
}

ARMS = (("normal-only", "normal_only", 122), ("normal-and-shear", "normal_and_shear", 366))


# ---------------------------------------------------------------------------
# environment

def limit_blas_threads() -> None:
    """Give BLAS no more threads than this process may run on."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= n:
            os.environ[var] = str(n)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports from inside this process, if loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_build = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "taxelkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": blas_build,
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running and checking commands


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def expected_split(n: int) -> tuple[int, int, int]:
    """Global split sizes by largest remainder over SPLIT_RATIO."""
    quotas = [n * r / sum(SPLIT_RATIO) for r in SPLIT_RATIO]
    base = [math.floor(q) for q in quotas]
    order = sorted(range(3), key=lambda i: -(quotas[i] - base[i]))
    for i in order[:n - sum(base)]:
        base[i] += 1
    return tuple(base)


@functools.cache
def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


def settle_heap() -> None:
    """Collect garbage and hand free heap memory back to the OS, so each
    command starts from a heap like a fresh CLI process has, not one shaped
    by the command before it."""
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Ledger:
    """Operations attempted and failed; a failed check fails its operation."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def run(self, cli, argv: list[str], check=None) -> float:
        """Run one CLI command, time it, then check its outputs untimed."""
        self.attempted += 1
        settle_heap()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # the benchmark keeps going and counts the failure
            self._fail(argv, traceback.format_exc())
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        if rc != 0:
            self._fail(argv, f"exit code {rc}")
        elif check is not None:
            self.check(argv, check)
        return dt

    def check(self, what, check) -> None:
        try:
            check()
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as e:
            self._fail(what, f"{type(e).__name__}: {e}")

    def _fail(self, what, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {why}")
        print(f"benchmark: failed {what}: {why}", file=sys.stderr)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ---------------------------------------------------------------------------
# the workload


class Run:
    def __init__(self, workload: Workload, seed: int, cli, work: Path):
        self.w = workload
        self.seed = seed
        self.cli = cli
        self.work = work
        self.ledger = Ledger()
        self.n_data = FULL_SCALE if workload.full_scale else DESK_SCALE
        self.data_digest: str | None = None
        self.desk_train_n = 0

    def argv(self, command: str, out: str, *extra: str, seed: int | None = None) -> list[str]:
        return [command, "--out", str(self.work / out),
                "--seed", str(self.seed if seed is None else seed), *extra]

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Fresh work dir, configs, and the seeded desk set for the train stage."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for name, epochs in (("zero", 0), ("train", self.w.epochs),
                             ("reference", REFERENCE_EPOCHS)):
            (self.work / f"{name}.json").write_text(json.dumps({"train": {"epochs": epochs}}))
        self.ledger.run(self.cli, self.argv("synth", "desk"), self._check_desk)

    def _check_desk(self) -> None:
        from taxelkit import dataio, pipeline
        recs = dataio.load_dataset(self.work / "desk" / "dataset.tgk")
        _require(len(recs) == DESK_SCALE, f"desk set has {len(recs)} recordings")
        split = pipeline.split_dataset(recs, seed=self.seed)
        sizes = (len(split.train), len(split.val), len(split.test))
        _require(sizes == expected_split(DESK_SCALE), f"desk split {sizes}")
        self.desk_train_n = sizes[0]

    # -- one closed-loop iteration -----------------------------------------

    def iteration(self) -> dict:
        """One pass over every stage; a metric's value may hold several samples."""
        cli, led, w = self.cli, self.ledger, self.w
        dataset = str(self.work / "data" / "dataset.tgk")
        scale = ["--full-scale"] if w.full_scale else []
        it = {"synth_s": [], "prep_s": [], "eval_s": []}
        for _ in range(w.data_repeats):
            it["synth_s"].append(led.run(cli, self.argv("synth", "data", *scale),
                                         self._check_data))
            prep = ev = 0.0
            for mode, arm, c_in in ARMS:
                prep += led.run(cli, self.argv("train", arm, "--config",
                                               str(self.work / "zero.json"),
                                               "--dataset", dataset, "--mode", mode),
                                lambda arm=arm, c_in=c_in: self._check_checkpoint(arm, c_in))
                ev += led.run(cli, self.argv("eval", arm, "--dataset", dataset),
                              lambda arm=arm: self._check_eval(arm))
            it["prep_s"].append(prep)
            it["eval_s"].append(ev)
        ablate_s = led.run(cli, self.argv("ablate", "ablate", "--config",
                                          str(self.work / "train.json"), "--dataset",
                                          str(self.work / "desk" / "dataset.tgk")),
                           lambda: self._check_ablate("ablate", w.epochs))
        it["train_samples_per_s"] = 2 * w.epochs * self.desk_train_n / ablate_s
        sweep_s = led.run(cli, self.argv("sweep", "calib"), self._check_sweep)
        calib_s = led.run(cli, self.argv("calibrate", "calib", "--samples", str(CALIB_SAMPLES)),
                          self._check_calibration)
        it["wall_s"] = (sum(it["synth_s"]) + sum(it["prep_s"]) + sum(it["eval_s"])
                        + ablate_s + sweep_s + calib_s)
        return it

    def _check_data(self) -> None:
        path = self.work / "data" / "dataset.tgk"
        sidecar = json.loads(path.with_suffix(".tgk.json").read_text())
        _require(sidecar["n_recordings"] == self.n_data,
                 f"dataset has {sidecar['n_recordings']} recordings, want {self.n_data}")
        digest = sha256_file(path)
        if self.data_digest is None:
            self.data_digest = digest
        _require(digest == self.data_digest, "dataset.tgk differs between iterations")

    def _check_checkpoint(self, arm: str, c_in: int) -> None:
        manifest = json.loads((self.work / arm / "model.tgkm.json").read_text())
        _require(manifest["c_in"] == c_in, f"{arm} checkpoint c_in {manifest['c_in']}")
        _require(manifest["parameters"]["conv_w"][1] == c_in, f"{arm} conv_w shape")

    def _check_eval(self, arm: str) -> None:
        report = json.loads((self.work / arm / "evaluation.json").read_text())
        test_n = expected_split(self.n_data)[2]
        _require(report["test_size"] == test_n, f"{arm} test_size {report['test_size']}")
        _require(0.0 <= report["overall_accuracy"] <= 1.0, f"{arm} accuracy out of range")

    def _check_ablate(self, out: str, epochs: int) -> None:
        report = json.loads((self.work / out / "ablation.json").read_text())
        for _, arm, _ in ARMS:
            acc = report[arm]["overall_accuracy"]
            _require(0.0 <= acc <= 1.0, f"{out} {arm} accuracy {acc}")
            rows = _read_rows(self.work / out / f"history_{arm}.csv")[1:]
            _require(len(rows) == epochs, f"{out} {arm} history has {len(rows)} epochs")
            _require(_finite(v for row in rows for v in row[1:]), f"{out} {arm} non-finite")

    def _check_sweep(self) -> None:
        rows = _read_rows(self.work / "calib" / "sweep.csv")[1:]
        _require(len(rows) == SWEEP_ROWS, f"sweep has {len(rows)} rows")
        _require(_finite(v for row in rows for v in row), "sweep has non-finite flux")

    def _check_calibration(self) -> None:
        out = self.work / "calib"
        _require(len(json.loads((out / "calibration.json").read_text())) == 49,
                 "calibration.json does not hold 49 taxels")
        _require(not (out / "calibration_failures.json").exists(), "taxels failed to fit")
        rows = _read_rows(out / "rms.csv")[1:]
        _require(len(rows) == 49 + 2, f"rms.csv has {len(rows)} rows")
        _require(_finite(v for row in rows for v in row[1:]), "non-finite RMS")

    def calib_rms_n(self) -> float:
        mean_row = _read_rows(self.work / "calib" / "rms.csv")[-2]
        return statistics.fmean(float(v) for v in mean_row[1:])

    # -- checks and guards outside the timed loop --------------------------

    def deep_check(self) -> None:
        """Class histogram, split sizes and tensor shapes of the data stage."""
        from taxelkit import dataio, pipeline
        recs = dataio.load_dataset(self.work / "data" / "dataset.tgk")
        n = len(recs)
        _require(n == self.n_data, f"loaded {n} recordings")
        counts = [0] * 13
        for r in recs:
            counts[int(r.label)] += 1
        _require(counts == [n // 13] * 13, f"class histogram {counts}")
        split = pipeline.split_dataset(recs, seed=self.seed)
        sizes = (len(split.train), len(split.val), len(split.test))
        _require(sizes == expected_split(n), f"split {sizes}")
        _require(not set(split.train) & set(split.test), "train and test overlap")
        test = pipeline.select(recs, split.test)
        for mode, c_in in ((pipeline.AblationMode.NORMAL_ONLY, 122),
                           (pipeline.AblationMode.NORMAL_AND_SHEAR, 366)):
            x, y = pipeline.assemble_tensor(test, mode)
            _require(x.shape == (sizes[2], c_in, 5, 10), f"test tensor {x.shape}")
        # same seed, same bytes, across runs too
        _require(self.data_digest is not None, "no dataset digest")
        record = WORK / f"dataset-{self.n_data}-seed{self.seed}.sha256"
        if record.exists():
            _require(record.read_text().strip() == self.data_digest,
                     "dataset.tgk differs from an earlier run with this seed")
        else:
            record.write_text(self.data_digest + "\n")

    def reference(self) -> dict:
        """Loss and accuracy of the fixed reference ablation."""
        led = self.ledger
        led.run(self.cli, self.argv("synth", "reference", seed=REFERENCE_SEED))
        led.run(self.cli, self.argv("ablate", "reference", "--config",
                                    str(self.work / "reference.json"), "--dataset",
                                    str(self.work / "reference" / "dataset.tgk"),
                                    seed=REFERENCE_SEED),
                lambda: self._check_ablate("reference", REFERENCE_EPOCHS))
        out = {}
        report = json.loads((self.work / "reference" / "ablation.json").read_text())
        for _, arm, _ in ARMS:
            rows = _read_rows(self.work / "reference" / f"history_{arm}.csv")
            out[f"loss_final.{arm}"] = float(rows[-1][1])
            out[f"test_acc.{arm}"] = float(report[arm]["overall_accuracy"])
        return out


def closed_loop(run: Run, seconds: float, recorder=None) -> list[dict]:
    """Iterate until the next iteration would not fit in ``seconds`` (at least once)."""
    start = time.perf_counter()
    iterations = []
    while True:
        if recorder is not None:
            recorder.run_id += 1
        t0 = time.perf_counter()
        iterations.append(run.iteration())
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return iterations


def medians(iterations: list[dict]) -> dict[str, float]:
    """Median of each metric over every sample of every iteration."""
    def samples(v):
        return v if isinstance(v, list) else [v]
    return {k: statistics.median(x for it in iterations for x in samples(it[k]))
            for k in iterations[0]}


def end_to_end_metrics(values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "taxelkit" / "cli.py").is_file():
        print(f"benchmark: no taxelkit sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    os.environ["TAXELKIT_LOG"] = "WARNING"
    sys.path.insert(0, str(SRC))
    import numpy as np
    import taxelkit
    from taxelkit import cli
    if Path(taxelkit.__file__).resolve().parent != (SRC / "taxelkit").resolve():
        print(f"benchmark: imported taxelkit from {taxelkit.__file__}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed, cli,
              WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            run.setup()
            setup_times.append(time.perf_counter() - t0)

        if args.trace:
            metrics = traced(run, args.seconds, taxelkit)
        else:
            values = medians(closed_loop(run, args.seconds))
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values["setup_s"] = statistics.median(setup_times)
            values["calib_rms_n"] = run.calib_rms_n()
            values.update(run.reference())
            metrics = end_to_end_metrics(values)
        run.ledger.attempted += 1
        run.ledger.check("deep check", run.deep_check)
        print(json.dumps({"environment": environment(np, args.workload, args.seed),
                          "errors": run.ledger.errors}))
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    led = run.ledger
    print(json.dumps({"correct": led.failed == 0, "attempted": led.attempted,
                      "failed": led.failed, "metrics": metrics}))
    return 0


def traced(run: Run, seconds: float, package) -> dict:
    """Half the time untraced, half traced; per-layer metrics per traced iteration."""
    import layers
    from spans import Recorder, aggregate
    plain = closed_loop(run, seconds / 2)
    recorder = Recorder()
    layers.install(recorder, package)
    try:
        traced_its = closed_loop(run, seconds / 2, recorder)
    finally:
        recorder.restore()
    recorder.write(WORK / f"spans-{run.w.name}-seed{run.seed}.jsonl")
    if recorder.absent or recorder.count_errors:
        print(json.dumps({"absent": recorder.absent, "count_errors": recorder.count_errors}))
    overhead = (statistics.median(it["wall_s"] for it in traced_its)
                / statistics.median(it["wall_s"] for it in plain) - 1.0) * 100.0
    return layers.layer_metrics(aggregate(recorder.spans), len(traced_its), overhead)


if __name__ == "__main__":
    sys.exit(main())
