"""Synthetic touch-gesture generator for the 13 gesture classes.

Each class is realized by a small generative grammar: one or more contact
patches moving over the array, a normal-force envelope, and a shear pattern.
Several pairs are deliberate near-twins in their normal-force statistics
(press vs pull, stroke vs scratch, poke vs pinch) and differ mainly in the
shear pattern, so removing the shear channels measurably hurts a
downstream classifier.

All randomness flows through numpy SeedSequence keys, so generation is
bitwise deterministic and safe to parallelize per recording. study_protocol
lists every recording's (class, user, seed) in protocol order as one
RECORD_HEADER array; synth_frames synthesizes each row's frames and hands
them to a sink, such as a dataset file's row writer or the frames field of
a RECORDING array in a shared mapping (synth_dataset), in chunks of rows
spread over every usable CPU by workers.run_chunks. The list, not the worker
count, fixes each row's seed, so the bytes do not depend on the CPU count.
"""
from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np

from . import workers
from .geometry import (COLS, N_TAXELS, NORMAL_MIN_N, PITCH_CM, POSITIONS_CM, ROWS,
                       SHEAR_MAX_N)

N_FRAMES = 122
FPS = 25.0
_CENTER_MARGIN_CM = 0.5  # how close a contact center may come to the array's edge

# Domain-separation tags for seed derivation.
_TAG_PROFILE = 0x50524F46  # "PROF"
_TAG_RECORDING = 0x52454344  # "RECD"
_TAG_BLOCK = 0x424C4F43  # "BLOC"


class GestureClass(enum.IntEnum):
    STROKE = 0
    SCRATCH = 1
    TICKLE = 2
    PAT = 3
    TAP = 4
    SLAP = 5
    POKE = 6
    PINCH = 7
    PULL = 8
    RUB = 9
    PRESS = 10
    GRAB = 11
    SHAKE = 12


N_CLASSES = len(GestureClass)


@dataclass(frozen=True)
class UserProfile:
    """Per-user modulation of gesture templates."""

    amplitude_scale: float
    speed_scale: float
    location_bias: tuple[float, float]  # cm
    noise_level: float  # N, per axis per taxel
    seed: int

    def __post_init__(self):
        if not (0.5 <= self.amplitude_scale <= 2.0 and 0.5 <= self.speed_scale <= 2.0):
            raise ValueError("profile scales must lie in [0.5, 2.0]")
        if self.noise_level < 0:
            raise ValueError("noise_level must be >= 0")


@dataclass(frozen=True)
class GestureTemplate:
    """Class-level generation parameters before per-user modulation.

    Every class draws the first three, in this order; PINCH, GRAB and SHAKE
    have their own builders and read nothing else.
    """

    amp_range_n: tuple[float, float]
    shear_ratio: tuple[float, float]
    patch_sigma_cm: tuple[float, float]
    trajectory: str = "static"  # static | sweep | oscillate | walk
    shear_pattern: str = "uniform"  # uniform | along_motion | alternating
    patch_count: tuple[int, int] = (1, 1)
    contact_count: tuple[int, int] = (1, 1)
    contact_frames: tuple[int, int] = (0, 0)
    sustained: bool = True
    split_amp: bool = False  # divide amplitude across patches (multi-finger contact)
    y_gradient: float = 0.0  # relative fz slope per cm along +y


_GRIP = GestureTemplate((2.5, 4.5), (0.3, 0.6), (1.1, 1.4))  # GRAB and SHAKE


TEMPLATES: dict[GestureClass, GestureTemplate] = {
    GestureClass.STROKE: GestureTemplate((0.8, 1.8), (0.2, 0.4), (0.45, 0.9), "sweep",
                                         "along_motion"),
    GestureClass.SCRATCH: GestureTemplate((0.8, 1.8), (0.6, 1.0), (0.3, 0.6), "sweep",
                                          "along_motion", patch_count=(2, 3), split_amp=True),
    GestureClass.TICKLE: GestureTemplate((0.3, 0.8), (0.1, 0.25), (0.3, 0.6), "walk",
                                         "along_motion", patch_count=(1, 2)),
    GestureClass.PAT: GestureTemplate((1.5, 3.0), (0.0, 0.04), (1.8, 2.3), contact_count=(2, 5),
                                      contact_frames=(6, 9), sustained=False),
    GestureClass.TAP: GestureTemplate((1.0, 2.5), (0.0, 0.05), (0.4, 0.7), contact_count=(2, 6),
                                      contact_frames=(3, 5), sustained=False),
    GestureClass.SLAP: GestureTemplate((4.5, 6.5), (0.15, 0.3), (2.0, 2.5), contact_frames=(3, 5),
                                       sustained=False),
    GestureClass.POKE: GestureTemplate((2.0, 4.0), (0.0, 0.08), (0.4, 1.0)),
    GestureClass.PINCH: GestureTemplate((2.4, 4.8), (0.4, 0.8), (0.7, 0.7)),
    GestureClass.PULL: GestureTemplate((2.2, 4.5), (0.3, 0.6), (2.1, 2.6), y_gradient=0.03),
    GestureClass.RUB: GestureTemplate((1.5, 3.0), (0.4, 0.7), (0.8, 1.2), "oscillate",
                                      "alternating"),
    GestureClass.PRESS: GestureTemplate((2.2, 4.5), (0.0, 0.02), (2.1, 2.6)),
    GestureClass.GRAB: _GRIP,
    GestureClass.SHAKE: _GRIP,
}


# A recording's class, user and seed, packed: the 11-byte header of a TGK1 record.
RECORD_HEADER = np.dtype([("label", "u1"), ("user_id", "<u2"), ("seed", "<u8")])

# One labeled 122-frame recording, byte for byte one TGK1 record: its header,
# then its frames at byte 11. A dataset is an array of them, whose bytes are
# a TGK1 file's after its file header, and a recording's id is its row.
RECORDING = np.dtype(RECORD_HEADER.descr + [("frames", "<f4", (N_FRAMES, N_TAXELS, 3))])


def _seed_int(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def user_profile(user_id: int, master_seed: int) -> UserProfile:
    """Deterministic per-user template modulation."""
    rng = np.random.default_rng(np.random.SeedSequence([master_seed, user_id, _TAG_PROFILE]))
    return UserProfile(
        amplitude_scale=float(rng.uniform(0.7, 1.4)),
        speed_scale=float(rng.uniform(0.7, 1.4)),
        location_bias=(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.0, 1.0))),
        noise_level=float(rng.uniform(0.03, 0.07)),
        seed=_seed_int(master_seed, user_id, _TAG_PROFILE, 1),
    )


def _trapezoid(t: np.ndarray, onset: int, offset: int, ramp: int) -> np.ndarray:
    env = np.clip((t - onset + 1) / max(ramp, 1), 0.0, 1.0)
    env *= np.clip((offset - t) / max(ramp, 1), 0.0, 1.0)
    return env


def _contacts(t: np.ndarray, rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    """n half-sine bumps of the given frame width, spread over the recording."""
    env = np.zeros_like(t, dtype=float)
    slots = np.linspace(8, N_FRAMES - 8 - width, n)
    starts = slots + rng.uniform(-3, 3, size=n)
    for s in starts:
        phase = (t - s) / width
        active = (phase >= 0) & (phase <= 1)
        env[active] = np.maximum(env[active], np.sin(np.pi * phase[active]))
    return env


def _clip_center(xy: np.ndarray) -> np.ndarray:
    xmax = (COLS - 1) * PITCH_CM
    ymax = (ROWS - 1) * PITCH_CM
    xy[..., 0] = np.clip(xy[..., 0], _CENTER_MARGIN_CM, xmax - _CENTER_MARGIN_CM)
    xy[..., 1] = np.clip(xy[..., 1], _CENTER_MARGIN_CM, ymax - _CENTER_MARGIN_CM)
    return xy


@dataclass(frozen=True)
class _PatchTrack:
    """One contact patch: per-frame center, normal amplitude, shear vector."""

    centers: np.ndarray  # (T, 2) cm
    sigma: float
    amp: np.ndarray  # (T,) N, >= 0
    shear: np.ndarray  # (T, 2) N
    y_gradient: float = 0.0

    def add_to(self, forces: np.ndarray) -> None:
        """Add this patch's (x, y, z) force to a channel-first (3, T, 49) buffer
        through a truncated Gaussian footprint."""
        centers = self.centers
        if (centers == centers[0]).all():
            centers = centers[:1]  # one (1, 49) footprint serves every frame
        d2 = ((centers[:, 0:1] - POSITIONS_CM[:, 0]) ** 2
              + (centers[:, 1:2] - POSITIONS_CM[:, 1]) ** 2)
        w = np.exp(-d2 / (2.0 * self.sigma**2))
        w[d2 > (3.0 * self.sigma) ** 2] = 0.0
        if self.y_gradient != 0.0:
            rel_y = POSITIONS_CM[:, 1] - centers[:, 1:2]
            w = w * np.clip(1.0 + self.y_gradient * rel_y, 0.0, None)
        forces[0] += w * self.shear[:, 0:1]
        forces[1] += w * self.shear[:, 1:2]
        forces[2] += -w * self.amp[:, None]


def _base_trajectory(tmpl: GestureTemplate, t, rng, profile) -> np.ndarray:
    """Shared per-recording contact path; multi-finger patches ride on it."""
    if tmpl.trajectory == "sweep":
        x0 = rng.uniform(0.0, 2.5)
        x1 = rng.uniform(10.5, 13.0)
        if rng.random() < 0.5:
            x0, x1 = x1, x0
        y = rng.uniform(1.5, 4.5)
        frac = np.clip((t - 8) / (N_FRAMES - 20), 0.0, 1.0)
        centers = np.stack([x0 + (x1 - x0) * frac, np.full_like(frac, y)], axis=-1)
        centers[:, 1] += rng.normal(0.0, 0.1, size=len(t))
    elif tmpl.trajectory == "walk":
        steps = rng.normal(0.0, 0.35, size=(len(t), 2))
        path = np.cumsum(steps, axis=0)
        kernel = np.ones(7) / 7.0
        path = np.stack([np.convolve(path[:, i], kernel, mode="same") for i in range(2)], axis=-1)
        start = np.array([rng.uniform(3, 10), rng.uniform(1.5, 4.5)])
        centers = start + path
    elif tmpl.trajectory == "oscillate":
        x0 = rng.uniform(5.0, 9.0)
        span = rng.uniform(2.0, 4.0)
        freq = rng.uniform(0.8, 1.2) * profile.speed_scale
        y = rng.uniform(1.5, 4.5)
        centers = np.stack([x0 + span * np.sin(2 * np.pi * freq * t / FPS),
                            np.full_like(t, y)], axis=-1)
    else:  # static
        start = np.array([rng.uniform(3, 10.5), rng.uniform(1.5, 4.5)])
        centers = np.tile(start, (len(t), 1))
    centers = centers + np.asarray(profile.location_bias)
    return _clip_center(centers)


def synth_recording(gesture: GestureClass, profile: UserProfile,
                    recording_seed: int) -> np.ndarray:
    """The (122, 49, 3) float32 frames of one recording of the given class
    for one user."""
    rng = np.random.default_rng(
        np.random.SeedSequence([recording_seed, int(gesture), profile.seed, _TAG_RECORDING]))
    # channel-first, so each track and each clamp works on contiguous (T, 49) blocks
    forces = np.zeros((3, N_FRAMES, N_TAXELS))
    for track in _tracks(gesture, profile, rng):
        track.add_to(forces)

    # range safety before noise, clamp again after noise
    _clamp(forces)
    if profile.noise_level > 0:
        noise = rng.normal(0.0, profile.noise_level, size=(N_FRAMES, N_TAXELS, 3))
        forces += noise.transpose(2, 0, 1)
        _clamp(forces)

    return forces.transpose(1, 2, 0).astype(np.float32, order="C")


def _tracks(gesture: GestureClass, profile: UserProfile,
            rng: np.random.Generator) -> list[_PatchTrack]:
    """The contact patches of one recording, drawn from its generator."""
    tmpl = TEMPLATES[gesture]
    t = np.arange(N_FRAMES, dtype=float)

    amp_lo, amp_hi = tmpl.amp_range_n
    base_amp = rng.uniform(amp_lo, amp_hi) * profile.amplitude_scale
    ratio = rng.uniform(*tmpl.shear_ratio)
    sigma = rng.uniform(*tmpl.patch_sigma_cm)

    if gesture is GestureClass.PINCH:
        return _pinch_tracks(t, rng, sigma, base_amp, ratio)
    if gesture in (GestureClass.GRAB, GestureClass.SHAKE):
        return _grab_tracks(t, rng, profile, sigma, base_amp, ratio,
                            shake=(gesture is GestureClass.SHAKE))
    base = _base_trajectory(tmpl, t, rng, profile)
    n_patches = int(rng.integers(tmpl.patch_count[0], tmpl.patch_count[1] + 1))
    per_patch_amp = base_amp / n_patches if tmpl.split_amp else base_amp
    tracks = []
    for k in range(n_patches):
        offset = rng.uniform(-0.6, 0.6, size=2) if n_patches > 1 else np.zeros(2)
        centers = _clip_center(base + offset)
        tracks.append(_generic_track(gesture, t, rng, tmpl, centers, sigma,
                                     per_patch_amp, ratio))
    return tracks


def _clamp(forces: np.ndarray) -> None:
    """Clamp a channel-first (3, T, 49) buffer to the sensor's force range in place."""
    np.clip(forces[:2], -SHEAR_MAX_N, SHEAR_MAX_N, out=forces[:2])
    np.clip(forces[2], NORMAL_MIN_N, 0.0, out=forces[2])


def _generic_track(gesture, t, rng, tmpl, centers, sigma, amp_peak, ratio) -> _PatchTrack:
    amp_peak = amp_peak * rng.uniform(0.9, 1.1)  # per-patch spread

    if tmpl.sustained:
        onset = int(rng.integers(8, 20))
        offset = int(rng.integers(N_FRAMES - 20, N_FRAMES - 6))
        env = _trapezoid(t, onset, offset, ramp=6)
    else:
        n = int(rng.integers(tmpl.contact_count[0], tmpl.contact_count[1] + 1))
        width = int(rng.integers(tmpl.contact_frames[0], tmpl.contact_frames[1] + 1))
        env = _contacts(t, rng, n, width)
    amp = amp_peak * env

    s_mag = ratio * amp
    if tmpl.shear_pattern == "along_motion":
        vel = np.gradient(centers, axis=0)
        norm = np.linalg.norm(vel, axis=-1, keepdims=True)
        direction = np.divide(vel, norm, out=np.zeros_like(vel), where=norm > 1e-9)
        shear = direction * s_mag[:, None]
    elif tmpl.shear_pattern == "alternating":
        shear = np.zeros((len(t), 2))
        shear[:, 0] = np.tanh(np.gradient(centers[:, 0]) / 0.05) * s_mag
    else:  # uniform: one direction for the whole contact
        if gesture is GestureClass.PULL:
            direction = np.array([0.0, -1.0])
        else:
            ang = rng.uniform(0, 2 * np.pi)
            direction = np.array([np.cos(ang), np.sin(ang)])
        shear = direction[None, :] * s_mag[:, None]

    return _PatchTrack(centers, sigma, amp, shear, y_gradient=tmpl.y_gradient)


def _pinch_tracks(t, rng, sigma, base_amp, ratio) -> list[_PatchTrack]:
    """Two grid-aligned patches two pitches apart with exactly opposing shear.

    Grid alignment makes the two footprints congruent, so the opposing shear
    contributions cancel exactly in the frame sum.
    """
    col = int(rng.integers(2, 8))
    row = int(rng.integers(1, 4))
    center = np.array([col * PITCH_CM, row * PITCH_CM])
    half = np.array([PITCH_CM, 0.0])
    onset = int(rng.integers(10, 24))
    offset = int(rng.integers(N_FRAMES - 24, N_FRAMES - 8))
    env = _trapezoid(t, onset, offset, ramp=5)
    amp = (base_amp / 2.0) * env
    s_mag = np.minimum(ratio * base_amp * env, SHEAR_MAX_N)
    # left patch pushes +x, right patch pushes -x: a squeeze
    shear_l = np.stack([s_mag, np.zeros_like(s_mag)], axis=-1)
    shear_r = -shear_l
    cl = np.tile(center - half, (len(t), 1))
    cr = np.tile(center + half, (len(t), 1))
    return [_PatchTrack(cl, sigma, amp, shear_l), _PatchTrack(cr, sigma, amp, shear_r)]


def _grab_tracks(t, rng, profile, sigma, base_amp, ratio, shake: bool) -> list[_PatchTrack]:
    """Wide contacts at opposite y-edges squeezing toward each other."""
    x = rng.uniform(4.0, 9.5) + profile.location_bias[0]
    x = float(np.clip(x, 2.0, 11.5))
    onset = int(rng.integers(6, 14))
    offset = int(rng.integers(N_FRAMES - 22, N_FRAMES - 8))
    env = _trapezoid(t, onset, offset, ramp=3)  # sudden, rough onset
    amp = base_amp * env
    s_mag = ratio * amp

    y_lo, y_hi = 0.75, 5.25
    c_lo = np.tile([x, y_lo], (len(t), 1)).astype(float)
    c_hi = np.tile([x, y_hi], (len(t), 1)).astype(float)
    shear_lo = np.stack([np.zeros_like(s_mag), s_mag], axis=-1)  # pushes +y
    shear_hi = -shear_lo
    if shake:
        freq = rng.uniform(2.0, 4.0) * profile.speed_scale
        osc = np.sin(2 * np.pi * freq * t / FPS)
        c_lo[:, 1] += 0.6 * osc
        c_hi[:, 1] += 0.6 * osc
        c_lo[:, 0] += 0.3 * osc
        c_hi[:, 0] += 0.3 * osc
        mod = 1.0 + 0.35 * osc
        amp = amp * mod
        shear_lo = shear_lo * mod[:, None]
        shear_hi = shear_hi * mod[:, None]
        _clip_center(c_lo)
        _clip_center(c_hi)
    return [_PatchTrack(c_lo, sigma, amp, shear_lo), _PatchTrack(c_hi, sigma, amp, shear_hi)]


MAX_USERS = 1 << 16  # a TGK1 record stores its user id as u16
MAX_RECORDINGS = (1 << 32) - 1  # and a TGK1 header the record count as u32


def require_int(value, name: str, minimum: int) -> None:
    """ValueError unless ``value`` is an int, not a bool, and >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class SynthSection:
    """The config's ``synth`` section: a study protocol's counts, each >= 1 and
    within what a TGK1 file can store, checked on construction."""

    n_users: int = 4
    n_blocks: int = 3
    reps_per_block: int = 3

    def __post_init__(self):
        for f in fields(self):
            require_int(getattr(self, f.name), f.name, 1)
        if self.n_users > MAX_USERS:
            raise ValueError(f"n_users {self.n_users} exceeds {MAX_USERS}, the most users "
                             "a TGK1 file can number (u16 user id)")
        n = self.n_users * self.n_blocks * self.reps_per_block * N_CLASSES
        if n > MAX_RECORDINGS:
            raise ValueError(f"{n} recordings exceed {MAX_RECORDINGS}, the most a TGK1 "
                             "file can hold (u32 record count)")


# the full-scale study: 11 users x 9 blocks x 3 reps, 3861 recordings
FULL_SCALE_SYNTH = SynthSection(n_users=11, n_blocks=9, reps_per_block=3)


def study_protocol(protocol: SynthSection, master_seed: int) -> np.ndarray:
    """The full study protocol as a RECORD_HEADER array: every user performs
    every class reps times per block, in a per-block pseudo-randomized order,
    and row i holds recording i's (label, user_id, seed)."""
    rows = []
    for user in range(protocol.n_users):
        for block in range(protocol.n_blocks):
            order = [g for g in GestureClass for _ in range(protocol.reps_per_block)]
            block_rng = np.random.default_rng(
                np.random.SeedSequence([master_seed, user, block, _TAG_BLOCK]))
            block_rng.shuffle(order)
            rows += [(gesture, user,
                      _seed_int(master_seed, user, block, k, int(gesture), _TAG_RECORDING))
                     for k, gesture in enumerate(order)]
    return np.array(rows, dtype=RECORD_HEADER)


def synth_dataset(protocol: SynthSection, master_seed: int) -> np.recarray:
    """The study protocol's recordings as a read-only RECORDING record array,
    as load_dataset returns, filled in an anonymous shared mapping."""
    headers = study_protocol(protocol, master_seed)
    records = workers.shared_array(len(headers), RECORDING)
    records[list(RECORD_HEADER.names)] = headers
    synth_frames(headers, master_seed, records["frames"].__setitem__)
    records.flags.writeable = False
    return records.view(np.recarray)


SYNTH_CHUNK = 4  # recordings per chunk of synth_frames' workers, ~5 ms of synthesis


Sink = Callable[[int, np.ndarray], None]


def synth_frames(headers: np.ndarray, master_seed: int, sink: Sink) -> None:
    """Synthesize the frames of every row of a RECORD_HEADER array, such as
    study_protocol's, and call ``sink(i, frames)`` once for each row i.

    The rows run in chunks on ``workers.run_chunks``' forked workers, so the
    sink must be safe to call from any of them: a writer of a file at fixed
    offsets, or the rows of an array in shared memory. The first failing
    row's exception, such as a failed write's OSError, is raised here, as a
    serial loop would raise it.
    """
    profiles = {u: user_profile(u, master_seed) for u in set(headers["user_id"].tolist())}
    jobs = [(GestureClass(label), profiles[user], seed) for label, user, seed in headers.tolist()]

    def work(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            gesture, profile, seed = jobs[i]
            sink(i, synth_recording(gesture, profile, seed))
    workers.run_chunks(len(jobs), SYNTH_CHUNK, work)
