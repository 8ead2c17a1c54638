import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit.magnetics import (MU0_OVER_4PI, DipoleParams, SingularFieldError,
                                StiffnessModel, TaxelGeometry, dipole_flux,
                                flux_sweep, force_to_displacement, simulate_taxel)

GEOM = TaxelGeometry()
DIP = DipoleParams()
Z0 = GEOM.sensor_standoff


def bx_at(dx, geom=GEOM):
    return dipole_flux((dx, 0.0, 0.0), geom, DIP)[0]


def bz_at(dx, geom=GEOM):
    return dipole_flux((dx, 0.0, 0.0), geom, DIP)[2]


def ternary_max(f, lo, hi, iters=200):
    """Locate the maximizer of f on [lo, hi] to high precision."""
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


class TestDipoleFlux:
    def test_on_axis_symmetry(self):
        b = dipole_flux((0, 0, 0), GEOM, DIP)
        assert b[0] == 0.0 and b[1] == 0.0

    def test_on_axis_closed_form(self):
        b = dipole_flux((0, 0, 0), GEOM, DIP)
        expected_mT = MU0_OVER_4PI * 2 * DIP.moment / (Z0 * 1e-3) ** 3 * 1e3
        assert b[2] == pytest.approx(expected_mT, rel=1e-12)

    def test_bx_extremum_at_half_z0(self):
        peak = ternary_max(lambda d: abs(bx_at(d)), 0.01, 3 * Z0)
        assert peak == pytest.approx(Z0 / 2, rel=1e-6)

    def test_bz_stationary_at_two_z0(self):
        # bz decreases from its on-axis max, bottoms out at 2*z0, then rises to 0
        trough = ternary_max(lambda d: -bz_at(d), 0.01, 6 * Z0)
        assert trough == pytest.approx(2 * Z0, rel=1e-6)

    def test_parity(self):
        for dx in (0.3, 1.1, 2.6):
            assert bx_at(dx) == pytest.approx(-bx_at(-dx), rel=1e-12)
            assert bz_at(dx) == pytest.approx(bz_at(-dx), rel=1e-12)

    def test_xy_exchange_symmetry(self):
        a = dipole_flux((1.2, 0.4, 0.0), GEOM, DIP)
        b = dipole_flux((0.4, 1.2, 0.0), GEOM, DIP)
        assert a[0] == pytest.approx(b[1], rel=1e-12)
        assert a[1] == pytest.approx(b[0], rel=1e-12)
        assert a[2] == pytest.approx(b[2], rel=1e-12)

    def test_decay_with_standoff(self):
        mags = []
        for h in (2.0, 4.0, 6.0, 10.0):
            g = TaxelGeometry(magnet_height=h)
            mags.append(np.linalg.norm(dipole_flux((0, 0, 0), g, DIP)))
        assert all(a > b for a, b in zip(mags, mags[1:]))

    def test_singularity(self):
        with pytest.raises(SingularFieldError):
            dipole_flux((0.0, 0.0, Z0), GEOM, DIP)


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_rows(self, n, seed):
        rng = np.random.default_rng(seed)
        d = rng.uniform(-3.0, 3.0, size=(n, 3))
        batch = dipole_flux(d, GEOM, DIP)
        assert batch.shape == (n, 3)
        assert np.array_equal(batch, np.stack([dipole_flux(row, GEOM, DIP) for row in d]))
        f = d * 2.0
        assert np.array_equal(simulate_taxel(f), np.stack([simulate_taxel(row) for row in f]))

    def test_matches_scalar_formula(self):
        # one sample at a time, Python floats: B = (mu0/4pi)(3(m.rhat)rhat - m)/|r|^3
        d = np.random.default_rng(0).uniform(-3.0, 3.0, size=(500, 3))
        m = DIP.moment * np.asarray(DIP.direction)
        expected = []
        for dx, dy, dz in d:
            r = np.array([dx, dy, Z0 - dz]) * 1e-3
            dist = float(np.linalg.norm(r))
            rhat = r / dist
            expected.append(MU0_OVER_4PI * (3.0 * np.dot(m, rhat) * rhat - m) / dist**3 * 1e3)
        # summation order may differ from the batch; allow a few float64 ulps of the
        # field scale, since bz = 3(m.rhat)rhat_z - m_z can cancel
        expected = np.array(expected)
        scale = np.abs(expected).max()
        assert np.allclose(dipole_flux(d, GEOM, DIP), expected, rtol=1e-14, atol=1e-14 * scale)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 50), data=st.data())
    def test_any_row_on_sensor_is_singular(self, n, data):
        d = np.zeros((n, 3))
        d[data.draw(st.integers(0, n - 1)), 2] = Z0
        with pytest.raises(SingularFieldError):
            dipole_flux(d, GEOM, DIP)

    def test_leading_axes_kept(self):
        d = np.zeros((2, 4, 3))
        assert dipole_flux(d, GEOM, DIP).shape == (2, 4, 3)

    def test_trailing_axis_must_be_three(self):
        with pytest.raises(ValueError):
            dipole_flux(np.zeros((5, 2)), GEOM, DIP)


class TestFluxSweep:
    def test_bz_peak_after_bx_peak(self):
        (curve,) = flux_sweep([6.0], shear_max=4 * Z0, steps=2001)
        bx_peak = curve.shear_mm[np.argmax(np.abs(curve.bx))]
        bz_ext = curve.shear_mm[np.argmin(curve.bz)]
        assert bz_ext > bx_peak

    def test_signal_change_shrinks_with_height(self):
        curves = flux_sweep([2.0, 4.0, 6.0, 10.0], shear_max=3.0, steps=301)
        deltas = [max(c.bx.max() - c.bx.min(), c.bz.max() - c.bz.min()) for c in curves]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_bx_monotone_within_gap_at_selected_height(self):
        # the 3 mm inter-taxel gap: no signal peak before the magnet travels that far
        (curve,) = flux_sweep([6.0], shear_max=3.0, steps=301)
        assert (np.diff(curve.bx) > 0).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            flux_sweep([6.0], shear_max=3.0, steps=1)
        with pytest.raises(ValueError):
            flux_sweep([6.0], shear_max=0.0, steps=10)


class TestForceToDisplacement:
    def test_zero(self):
        assert force_to_displacement((0, 0, 0)).tolist() == [0, 0, 0]

    def test_unit_definition(self):
        k = StiffnessModel(kx=1.5, ky=1.5, kz=5.0)
        d = force_to_displacement((1.5, 0, 0), k)
        assert d == pytest.approx((1.0, 0.0, 0.0))

    def test_linearity(self):
        k = StiffnessModel()
        d1 = force_to_displacement((0.7, -0.3, -2.0), k)
        d2 = force_to_displacement((1.4, -0.6, -4.0), k)
        assert np.allclose(d2, 2 * d1)


class TestSimulateTaxel:
    def test_zero_force_baseline(self):
        b = simulate_taxel((0, 0, 0))
        assert b == pytest.approx(dipole_flux((0, 0, 0), GEOM, DIP))

    def test_shear_antisymmetry(self):
        b0 = simulate_taxel((0, 0, 0))[0]
        bp = simulate_taxel((1.5, 0, 0))[0]
        bm = simulate_taxel((-1.5, 0, 0))[0]
        assert bp - b0 == pytest.approx(-(bm - b0), rel=1e-12)

    def test_finite_over_input_range(self):
        # F_xy in +-2 N, F_z in [-7, 0] N
        for fx in np.linspace(-2, 2, 7):
            for fy in np.linspace(-2, 2, 7):
                for fz in np.linspace(-7, 0, 8):
                    b = simulate_taxel((fx, fy, fz))
                    assert np.isfinite(b).all()


class TestValidation:
    def test_geometry_positive(self):
        with pytest.raises(ValueError):
            TaxelGeometry(magnet_height=0.0)

    def test_dipole_unit_direction(self):
        with pytest.raises(ValueError):
            DipoleParams(direction=(0, 0, 2))

    def test_stiffness_positive(self):
        with pytest.raises(ValueError):
            StiffnessModel(kx=-1.0)

    @pytest.mark.parametrize("make", [
        lambda v: TaxelGeometry(magnet_height=v),
        lambda v: DipoleParams(moment=v),
        lambda v: StiffnessModel(kz=v),
    ], ids=["geometry", "dipole", "stiffness"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, make, value):
        with pytest.raises(ValueError, match="finite positive"):
            make(value)
