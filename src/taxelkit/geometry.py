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

