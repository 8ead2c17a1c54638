"""Per-taxel flux-to-force calibration.

Each taxel gets an independent second-order least-squares fit with no bias
term, so zero flux always maps to zero force. The feature basis is the nine
degree-2 monomials of (bx, by, bz) excluding the constant.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import dataio

N_FEATURES = 9
FEATURE_NAMES = ["bx", "by", "bz", "bx^2", "by^2", "bz^2", "bx*by", "bx*bz", "by*bz"]


class DegenerateFitError(ValueError):
    """Feature matrix is rank-deficient; the message names the unidentifiable directions."""

    def __init__(self, null_directions: np.ndarray):
        named = "; ".join(
            " + ".join(f"{v:+.3f}*{n}" for v, n in zip(vec, FEATURE_NAMES) if abs(v) > 1e-6)
            for vec in null_directions
        )
        super().__init__(f"degenerate calibration fit, unidentifiable feature directions: {named}")


@dataclass(frozen=True)
class CalibrationModel:
    """3x9 coefficient matrix; rows (fx, fy, fz), columns the feature basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (3, N_FEATURES):
            raise ValueError(f"coeffs must be 3x{N_FEATURES}, got {self.coeffs.shape}")

    def to_json_dict(self, taxel_index: int) -> dict:
        return {"taxel_index": taxel_index, "coeffs": self.coeffs.ravel().tolist()}


def quadratic_features(flux) -> np.ndarray:
    """[bx, by, bz, bx^2, by^2, bz^2, bx*by, bx*bz, by*bz] of (..., 3) flux, as (..., 9)."""
    bx, by, bz = np.moveaxis(np.asarray(flux, dtype=float), -1, 0)
    return np.stack([bx, by, bz, bx * bx, by * by, bz * bz, bx * by, bx * bz, by * bz], axis=-1)


def _pairs(flux, force) -> tuple[np.ndarray, np.ndarray]:
    flux, force = np.asarray(flux, dtype=float), np.asarray(force, dtype=float)
    if flux.ndim != 2 or flux.shape[1] != 3 or force.shape != flux.shape:
        raise ValueError(f"flux and force must both be (n, 3), got {flux.shape} and {force.shape}")
    return flux, force


def fit_taxel(flux, force) -> CalibrationModel:
    """Ordinary least squares per output axis, no intercept.

    ``flux`` (mT) and ``force`` (N) are (n, 3) arrays of paired samples.
    Raises DegenerateFitError when the feature matrix is rank-deficient.
    """
    flux, force = _pairs(flux, force)
    if len(flux) < N_FEATURES:
        raise ValueError(f"need at least {N_FEATURES} samples, got {len(flux)}")
    u, s, vt = np.linalg.svd(quadratic_features(flux), full_matrices=False)
    rank = int(np.sum(s > s[0] * 1e-10))
    if rank < N_FEATURES:
        raise DegenerateFitError(vt[rank:])
    # pseudo-inverse solve through the same decomposition
    coeffs = (vt.T @ ((u.T @ force) / s[:, None])).T
    return CalibrationModel(coeffs=coeffs)


def predict_force(model: CalibrationModel, flux) -> np.ndarray:
    """Force (..., 3) N for flux (..., 3) mT."""
    return quadratic_features(flux) @ model.coeffs.T


def rms_error(model: CalibrationModel, flux, force) -> tuple[float, float, float]:
    """Per-axis RMS of predicted minus ground-truth force over (n, 3) samples, N."""
    flux, force = _pairs(flux, force)
    if len(flux) == 0:
        raise ValueError("rms_error needs at least one sample")
    rms = np.sqrt(np.mean((predict_force(model, flux) - force) ** 2, axis=0))
    return (float(rms[0]), float(rms[1]), float(rms[2]))


def save_models(models: dict[int, CalibrationModel], path) -> None:
    payload = [models[i].to_json_dict(i) for i in sorted(models)]
    with dataio.replacing(path) as (fh,):
        fh.write(json.dumps(payload, indent=1).encode())

