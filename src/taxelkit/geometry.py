"""Sensor array layout: the 49-taxel grid embedded in a 5x10 image.

The array is a full 5x9 block plus a 4-taxel extra column (col 9, rows 0-3);
cell (4, 9) is a phantom that is always zero-padded. Taxels are indexed
row-major over the valid cells, 0..48.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ROWS = 5
COLS = 10
N_TAXELS = 49
PITCH_CM = 1.5
FOOTPRINT_CM = (8.0, 16.0)

# Force range per taxel: shear +-2 N, normal 0..-7 N (compression negative).
SHEAR_MAX_N = 2.0
NORMAL_MIN_N = -7.0


def _default_mask() -> np.ndarray:
    mask = np.ones((ROWS, COLS), dtype=bool)
    mask[4, 9] = False
    return mask


@dataclass(frozen=True)
class TaxelGrid:
    """Geometry and index map of the sensor array."""

    rows: int = ROWS
    cols: int = COLS
    pitch_cm: float = PITCH_CM
    valid_mask: np.ndarray = field(default_factory=_default_mask)

    def __post_init__(self):
        if self.valid_mask.shape != (self.rows, self.cols):
            raise ValueError("valid_mask shape mismatch")
        if int(self.valid_mask.sum()) != N_TAXELS:
            raise ValueError("grid must have exactly 49 valid cells")

    def taxel_index(self, row: int, col: int) -> int | None:
        """Stable 0..48 index of a valid cell, None for the phantom cell."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"cell ({row}, {col}) outside {self.rows}x{self.cols} grid")
        if not self.valid_mask[row, col]:
            return None
        flat = self.valid_mask.ravel()
        return int(flat[: row * self.cols + col].sum())

    def valid_cells(self) -> list[tuple[int, int]]:
        """(row, col) of every valid cell in taxel-index order."""
        rr, cc = np.nonzero(self.valid_mask)
        return list(zip(rr.tolist(), cc.tolist()))

    def positions_cm(self) -> np.ndarray:
        """(49, 2) array of (x, y) cm positions, x along the 16 cm axis (columns)."""
        cells = self.valid_cells()
        return np.array([[c * self.pitch_cm, r * self.pitch_cm] for r, c in cells])


GRID = TaxelGrid()


def to_grid(frame: np.ndarray, grid: TaxelGrid = GRID) -> np.ndarray:
    """Scatter a (49, 3) frame of forces (N) onto a (3, 5, 10) force image.

    Channel order is (x, y, z); the phantom cell stays zero.
    """
    forces = np.asarray(frame)
    if forces.shape != (N_TAXELS, 3):
        raise ValueError(f"expected (49, 3) forces, got {forces.shape}")
    image = np.zeros((3, grid.rows, grid.cols), dtype=forces.dtype)
    rr, cc = np.nonzero(grid.valid_mask)
    image[:, rr, cc] = forces.T
    return image


def from_grid(image: np.ndarray, grid: TaxelGrid = GRID) -> np.ndarray:
    """Gather the (49, 3) frame back out of a (3, 5, 10) force image."""
    image = np.asarray(image)
    if image.shape != (3, grid.rows, grid.cols):
        raise ValueError(f"expected (3, 5, 10) image, got {image.shape}")
    rr, cc = np.nonzero(grid.valid_mask)
    return image[:, rr, cc].T
