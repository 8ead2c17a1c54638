import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taxelkit import calibration as cal
from taxelkit.calibration import (CalibrationModel, DegenerateFitError, fit_taxel,
                                  predict_force, quadratic_features, rms_error, save_models)
from taxelkit.magnetics import simulate_taxel


def make_samples(coeffs, fluxes, noise=0.0, rng=None):
    """(flux, force) arrays: force = coeffs @ quadratic_features(flux), plus noise."""
    forces = []
    for b in fluxes:
        f = coeffs @ quadratic_features(b)
        if noise > 0:
            f = f + rng.normal(0.0, noise, size=3)
        forces.append(f)
    return np.asarray(fluxes, dtype=float), np.array(forces)


def random_fluxes(n, rng, scale=2.0):
    return rng.normal(0.0, scale, size=(n, 3))


class TestQuadraticFeatures:
    def test_zero(self):
        assert (quadratic_features((0, 0, 0)) == 0).all()

    def test_unit_bx(self):
        feats = quadratic_features((1, 0, 0))
        assert feats.tolist() == [1, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_one_two_three(self):
        feats = quadratic_features((1, 2, 3))
        assert feats.tolist() == [1, 2, 3, 1, 4, 9, 2, 3, 6]


class TestFitTaxel:
    def test_exact_recovery(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(50, rng))
        model = fit_taxel(*samples)
        assert np.allclose(model.coeffs, truth, rtol=1e-8, atol=1e-10)
        assert max(rms_error(model, *samples)) < 1e-9

    def test_zero_forces_zero_coeffs(self):
        rng = np.random.default_rng(1)
        samples = make_samples(np.zeros((3, 9)), random_fluxes(30, rng))
        model = fit_taxel(*samples)
        assert np.allclose(model.coeffs, 0.0, atol=1e-12)

    def test_noisy_fit_rms_bounded(self):
        # forward-model fluxes plus Gaussian force noise: the fit error stays
        # within 3x the injected noise level
        rng = np.random.default_rng(3)
        noise = 0.1
        baseline = simulate_taxel((0, 0, 0))
        fluxes, forces = [], []
        for _ in range(300):
            f = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-7, 0)])
            fluxes.append(simulate_taxel(f) - baseline)
            forces.append(f + rng.normal(0.0, noise, size=3))
        model = fit_taxel(fluxes, forces)
        assert max(rms_error(model, fluxes, forces)) < 3 * noise

    def test_too_few_samples(self):
        rng = np.random.default_rng(0)
        samples = make_samples(np.zeros((3, 9)), random_fluxes(8, rng))
        with pytest.raises(ValueError):
            fit_taxel(*samples)

    def test_rank_deficient(self):
        # all flux points on the bx axis: by/bz features are unidentifiable
        fluxes = np.zeros((20, 3))
        fluxes[:, 0] = np.linspace(0.1, 2.0, 20)
        samples = make_samples(np.ones((3, 9)), fluxes)
        with pytest.raises(DegenerateFitError) as err:
            fit_taxel(*samples)
        assert "by" in str(err.value)

    def test_ill_conditioned_exact_recovery(self):
        # bz tracks bx to 1e-3: full rank, but cond(A^T A) is far above 1e12,
        # where a normal-equation solve loses the coefficients
        rng = np.random.default_rng(5)
        fluxes = random_fluxes(40, rng)
        fluxes[:, 2] = fluxes[:, 0] + 1e-3 * rng.normal(size=40)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, fluxes)
        A = np.stack([quadratic_features(b) for b in fluxes])
        assert np.linalg.cond(A.T @ A) > 1e12
        assert np.allclose(fit_taxel(*samples).coeffs, truth, rtol=0, atol=1e-6)

    def test_identifiability_from_nine_samples(self):
        rng = np.random.default_rng(11)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(9, rng))
        model = fit_taxel(*samples)
        assert np.allclose(model.coeffs, truth, rtol=1e-6, atol=1e-8)

    def test_axis_decoupling(self):
        # joint fit equals three independent per-axis fits
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(40, rng), noise=0.2, rng=rng)
        model = fit_taxel(*samples)
        A = quadratic_features(samples[0])
        F = samples[1]
        for axis in range(3):
            solo = np.linalg.lstsq(A, F[:, axis], rcond=None)[0]
            assert np.allclose(model.coeffs[axis], solo, rtol=1e-8, atol=1e-10)

    def test_local_optimality(self):
        rng = np.random.default_rng(9)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(60, rng), noise=0.3, rng=rng)
        model = fit_taxel(*samples)
        A = quadratic_features(samples[0])
        F = samples[1]

        def sse(coeffs):
            return np.sum((A @ coeffs.T - F) ** 2)

        base = sse(model.coeffs)
        for i in range(3):
            for j in range(9):
                for delta in (1e-3, -1e-3):
                    perturbed = model.coeffs.copy()
                    perturbed[i, j] += delta
                    assert sse(perturbed) >= base


class TestArrayProperties:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(9, 200), seed=st.integers(0, 2**32 - 1))
    def test_exact_quadratic_map_recovered(self, n, seed):
        rng = np.random.default_rng(seed)
        truth = rng.normal(size=(3, 9))
        flux = random_fluxes(n, rng)
        force = quadratic_features(flux) @ truth.T
        model = fit_taxel(flux, force)
        assert np.allclose(model.coeffs, truth, rtol=0, atol=1e-6)
        assert max(rms_error(model, flux, force)) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
    def test_batch_equals_rows(self, n, seed):
        rng = np.random.default_rng(seed)
        flux = random_fluxes(n, rng)
        model = CalibrationModel(coeffs=rng.normal(size=(3, 9)))
        feats = quadratic_features(flux)
        assert feats.shape == (n, 9)
        assert np.array_equal(feats, np.stack([quadratic_features(b) for b in flux]))
        rows = np.stack([predict_force(model, b) for b in flux])
        assert np.allclose(predict_force(model, flux), rows, rtol=1e-12, atol=1e-12)


class TestPredict:
    def test_zero_flux_zero_force(self):
        rng = np.random.default_rng(2)
        model = CalibrationModel(coeffs=rng.normal(size=(3, 9)))
        f = predict_force(model, (0, 0, 0))
        assert f.tolist() == [0, 0, 0]

    def test_identity_like(self):
        coeffs = np.zeros((3, 9))
        coeffs[0, 0] = coeffs[1, 1] = coeffs[2, 2] = 1.0
        f = predict_force(CalibrationModel(coeffs=coeffs), (0.5, -1.0, 2.0))
        assert f == pytest.approx([0.5, -1.0, 2.0])

    def test_prediction_matches_residuals(self):
        rng = np.random.default_rng(6)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(30, rng), noise=0.1, rng=rng)
        model = fit_taxel(*samples)
        residuals = np.stack([
            predict_force(model, b) - f for b, f in zip(*samples)])
        expected = np.sqrt(np.mean(residuals**2, axis=0))
        assert rms_error(model, *samples) == pytest.approx(tuple(expected))


class TestRmsError:
    def test_perfect_model(self):
        rng = np.random.default_rng(4)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(20, rng))
        assert rms_error(CalibrationModel(coeffs=truth), *samples) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_constant_offset(self):
        rng = np.random.default_rng(8)
        truth = rng.normal(size=(3, 9))
        fluxes = random_fluxes(20, rng)
        forces = [truth @ quadratic_features(b) - np.array([0, 0, 1.0]) for b in fluxes]
        rms = rms_error(CalibrationModel(coeffs=truth), fluxes, forces)
        assert rms == pytest.approx((0, 0, 1.0), abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            rms_error(CalibrationModel(coeffs=np.zeros((3, 9))),
                      np.zeros((0, 3)), np.zeros((0, 3)))


def test_serialization_round_trip(tmp_path):
    # documented schema: one entry per taxel in index order, each a taxel_index
    # and its 27 coefficients row-major, exactly as floats round-trip in JSON
    rng = np.random.default_rng(10)
    models = {i: CalibrationModel(coeffs=rng.normal(size=(3, 9))) for i in range(49)}
    path = tmp_path / "calibration.json"
    save_models(models, path)
    raw = json.loads(path.read_text())
    assert [entry["taxel_index"] for entry in raw] == list(range(49))
    for i, entry in enumerate(raw):
        assert entry["coeffs"] == models[i].coeffs.ravel().tolist()
