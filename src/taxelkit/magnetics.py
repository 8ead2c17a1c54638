"""Point-dipole forward model of a single magnetic taxel.

A disc magnet sits above a tri-axial Hall chip; applied force displaces the
magnet through a diagonal linear compliance and the chip sees the dipole
field of the magnet. Closed forms replace finite-element simulation: with a
vertical moment and pure x-shear, bx is extremal at dx = z0/2 and bz is
stationary at dx = 2*z0, and field magnitude falls off as 1/z0^3.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

MU0_OVER_4PI = 1e-7  # T*m/A

# mm, vertical gap between cavity ceiling and the Hall chip die. Chosen so
# the bx extremum (z0/2) sits past the 3 mm inter-taxel gap at h = 6 mm.
CHIP_OFFSET_MM = 1.5


class SingularFieldError(ValueError):
    """Magnet center coincides with the sensor location."""


def _require_positive(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) and value > 0)):
            raise ValueError(f"{name} must be a finite positive number, got {value!r}")


@dataclass(frozen=True)
class TaxelGeometry:
    """Structural dimensions of one taxel, mm."""

    cavity_height: float = 1.5875  # 1/16 in
    magnet_height: float = 6.0
    chip_offset: float = CHIP_OFFSET_MM

    def __post_init__(self):
        _require_positive(self, "cavity_height", "magnet_height", "chip_offset")

    @property
    def sensor_standoff(self) -> float:
        """z0: rest distance from magnet center down to the Hall chip, mm."""
        return self.cavity_height + self.magnet_height / 2.0 + self.chip_offset


@dataclass(frozen=True)
class DipoleParams:
    """Equivalent point-dipole of the disc magnet."""

    moment: float = 0.01  # A*m^2; gives a rest bz of order 10 mT
    direction: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self):
        _require_positive(self, "moment")
        direction = np.asarray(self.direction, dtype=float)
        if direction.shape != (3,) or not abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-9:
            raise ValueError("direction must be a unit-norm 3-vector")


@dataclass(frozen=True)
class StiffnessModel:
    """Diagonal compliance of the silicone structure, N/mm.

    Defaults keep the full force range (+-2 N shear, -7 N normal) under
    1.5 mm of travel, well clear of the 3 mm inter-taxel gap and stiff
    enough that a quadratic flux-to-force fit is a good inverse.
    """

    kx: float = 1.5
    ky: float = 1.5
    kz: float = 5.0

    def __post_init__(self):
        _require_positive(self, "kx", "ky", "kz")


def _xyz(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (3,):
        raise ValueError(f"expected a trailing axis of 3, got shape {a.shape}")
    return a


def dipole_flux(
    displacement,
    geom: TaxelGeometry = TaxelGeometry(),
    dip: DipoleParams = DipoleParams(),
) -> np.ndarray:
    """Flux (mT) at the chip for magnets displaced (dx, dy, dz) mm from rest.

    ``displacement`` is (..., 3); the result has the same shape, columns
    (bx, by, bz). B(r) = (mu0/4pi) * (3(m.rhat)rhat - m) / |r|^3 with r the
    sensor-to-magnet-center vector; vertical component of r is z0 - dz.
    """
    d = _xyz(displacement)
    r = np.stack([d[..., 0], d[..., 1], geom.sensor_standoff - d[..., 2]], axis=-1) * 1e-3  # m
    dist = np.linalg.norm(r, axis=-1, keepdims=True)
    if (dist == 0.0).any():
        raise SingularFieldError("magnet center coincides with the sensor")
    rhat = r / dist
    m_vec = dip.moment * np.asarray(dip.direction, dtype=float)
    m_dot_rhat = np.sum(m_vec * rhat, axis=-1, keepdims=True)
    b_tesla = MU0_OVER_4PI * (3.0 * m_dot_rhat * rhat - m_vec) / dist**3
    return b_tesla * 1e3  # mT


@dataclass(frozen=True)
class SweepCurve:
    """Flux vs pure x-shear for one magnet height."""

    magnet_height: float
    shear_mm: np.ndarray
    bx: np.ndarray
    bz: np.ndarray


def flux_sweep(
    heights: list[float],
    shear_max: float,
    steps: int,
    geom: TaxelGeometry = TaxelGeometry(),
    dip: DipoleParams = DipoleParams(),
) -> list[SweepCurve]:
    """Tabulate (bx, bz) along pure x-shear for each magnet height."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if shear_max <= 0:
        raise ValueError("shear_max must be positive")
    shears = np.linspace(0.0, shear_max, steps)
    displacement = np.zeros((steps, 3))
    displacement[:, 0] = shears
    curves = []
    for h in heights:
        b = dipole_flux(displacement, replace(geom, magnet_height=h), dip)
        curves.append(SweepCurve(magnet_height=h, shear_mm=shears, bx=b[:, 0], bz=b[:, 2]))
    return curves


def force_to_displacement(force, k: StiffnessModel = StiffnessModel()) -> np.ndarray:
    """Linear compliance: displacement (mm) per axis is force (N) / stiffness.

    ``force`` is (..., 3), columns (fx, fy, fz); the result has the same shape.
    """
    return _xyz(force) / np.array([k.kx, k.ky, k.kz])


def simulate_taxel(
    force,
    geom: TaxelGeometry = TaxelGeometry(),
    dip: DipoleParams = DipoleParams(),
    k: StiffnessModel = StiffnessModel(),
) -> np.ndarray:
    """Force (..., 3) N -> displacement -> flux (..., 3) mT for one taxel."""
    return dipole_flux(force_to_displacement(force, k), geom, dip)
