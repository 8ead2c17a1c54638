"""Sensor array layout: 49 taxels on a 5x10 grid at a fixed pitch.

The array is a full 5x9 block plus a 4-taxel extra column (col 9, rows 0-3).
Taxel i is flat cell i of the row-major 5x10 image, so the taxels are its
first 49 cells and the phantom cell (4, 9), which is always zero, is the last.
"""
from __future__ import annotations

import numpy as np

ROWS = 5
COLS = 10
N_TAXELS = 49
PITCH_CM = 1.5

# Force range per taxel: shear +-2 N, normal 0..-7 N (compression negative).
SHEAR_MAX_N = 2.0
NORMAL_MIN_N = -7.0

# (49, 2) taxel (x, y) cm: x = col * pitch along the 16 cm axis, y = row * pitch
POSITIONS_CM = np.stack(np.divmod(np.arange(N_TAXELS), COLS)[::-1], axis=1) * PITCH_CM
POSITIONS_CM.flags.writeable = False


def to_grid(frame: np.ndarray) -> np.ndarray:
    """Scatter a (49, 3) frame of forces (N) onto a (3, 5, 10) force image.

    Channel order is (x, y, z); the phantom cell stays zero.
    """
    forces = np.asarray(frame)
    if forces.shape != (N_TAXELS, 3):
        raise ValueError(f"expected (49, 3) forces, got {forces.shape}")
    image = np.zeros((3, ROWS * COLS), dtype=forces.dtype)
    image[:, :N_TAXELS] = forces.T
    return image.reshape(3, ROWS, COLS)


def from_grid(image: np.ndarray) -> np.ndarray:
    """Gather the (49, 3) frame back out of a (3, 5, 10) force image."""
    image = np.asarray(image)
    if image.shape != (3, ROWS, COLS):
        raise ValueError(f"expected (3, 5, 10) image, got {image.shape}")
    return image.reshape(3, ROWS * COLS)[:, :N_TAXELS].T.copy()
