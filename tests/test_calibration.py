import json

import numpy as np
import pytest

from taxelkit import calibration as cal
from taxelkit.calibration import (CalibrationModel, CalibrationSample,
                                  DegenerateFitError, fit_taxel, load_models,
                                  predict_force, quadratic_features, rms_error,
                                  save_models)
from taxelkit.geometry import ForceVector
from taxelkit.magnetics import FluxSample, simulate_taxel


def make_samples(coeffs, fluxes, noise=0.0, rng=None):
    samples = []
    for b in fluxes:
        f = coeffs @ quadratic_features(b)
        if noise > 0:
            f = f + rng.normal(0.0, noise, size=3)
        samples.append(CalibrationSample(flux=FluxSample(*b), force=ForceVector(*f)))
    return samples


def random_fluxes(n, rng, scale=2.0):
    return rng.normal(0.0, scale, size=(n, 3))


class TestQuadraticFeatures:
    def test_zero(self):
        assert (quadratic_features(FluxSample(0, 0, 0)) == 0).all()

    def test_unit_bx(self):
        feats = quadratic_features(FluxSample(1, 0, 0))
        assert feats.tolist() == [1, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_one_two_three(self):
        feats = quadratic_features(FluxSample(1, 2, 3))
        assert feats.tolist() == [1, 2, 3, 1, 4, 9, 2, 3, 6]


class TestFitTaxel:
    def test_exact_recovery(self):
        rng = np.random.default_rng(7)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(50, rng))
        model = fit_taxel(samples)
        assert np.allclose(model.coeffs, truth, rtol=1e-8, atol=1e-10)
        assert max(rms_error(model, samples)) < 1e-9

    def test_zero_forces_zero_coeffs(self):
        rng = np.random.default_rng(1)
        samples = make_samples(np.zeros((3, 9)), random_fluxes(30, rng))
        model = fit_taxel(samples)
        assert np.allclose(model.coeffs, 0.0, atol=1e-12)

    def test_noisy_fit_rms_bounded(self):
        # forward-model fluxes plus Gaussian force noise: the fit error stays
        # within 3x the injected noise level
        rng = np.random.default_rng(3)
        noise = 0.1
        baseline = simulate_taxel(ForceVector(0, 0, 0)).as_array()
        samples = []
        for _ in range(300):
            f = ForceVector(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-7, 0))
            b = simulate_taxel(f).as_array() - baseline
            noisy = f.as_array() + rng.normal(0.0, noise, size=3)
            samples.append(CalibrationSample(flux=FluxSample(*b), force=ForceVector(*noisy)))
        model = fit_taxel(samples)
        assert max(rms_error(model, samples)) < 3 * noise

    def test_too_few_samples(self):
        rng = np.random.default_rng(0)
        samples = make_samples(np.zeros((3, 9)), random_fluxes(8, rng))
        with pytest.raises(ValueError):
            fit_taxel(samples)

    def test_rank_deficient(self):
        # all flux points on the bx axis: by/bz features are unidentifiable
        fluxes = np.zeros((20, 3))
        fluxes[:, 0] = np.linspace(0.1, 2.0, 20)
        samples = make_samples(np.ones((3, 9)), fluxes)
        with pytest.raises(DegenerateFitError) as err:
            fit_taxel(samples)
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
        assert np.allclose(fit_taxel(samples).coeffs, truth, rtol=0, atol=1e-6)

    def test_identifiability_from_nine_samples(self):
        rng = np.random.default_rng(11)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(9, rng))
        model = fit_taxel(samples)
        assert np.allclose(model.coeffs, truth, rtol=1e-6, atol=1e-8)

    def test_axis_decoupling(self):
        # joint fit equals three independent per-axis fits
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(40, rng), noise=0.2, rng=rng)
        model = fit_taxel(samples)
        A = np.stack([quadratic_features(s.flux) for s in samples])
        F = np.stack([s.force.as_array() for s in samples])
        for axis in range(3):
            solo = np.linalg.lstsq(A, F[:, axis], rcond=None)[0]
            assert np.allclose(model.coeffs[axis], solo, rtol=1e-8, atol=1e-10)

    def test_local_optimality(self):
        rng = np.random.default_rng(9)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(60, rng), noise=0.3, rng=rng)
        model = fit_taxel(samples)
        A = np.stack([quadratic_features(s.flux) for s in samples])
        F = np.stack([s.force.as_array() for s in samples])

        def sse(coeffs):
            return np.sum((A @ coeffs.T - F) ** 2)

        base = sse(model.coeffs)
        for i in range(3):
            for j in range(9):
                for delta in (1e-3, -1e-3):
                    perturbed = model.coeffs.copy()
                    perturbed[i, j] += delta
                    assert sse(perturbed) >= base


class TestPredict:
    def test_zero_flux_zero_force(self):
        rng = np.random.default_rng(2)
        model = CalibrationModel(coeffs=rng.normal(size=(3, 9)))
        f = predict_force(model, FluxSample(0, 0, 0))
        assert f.as_array().tolist() == [0, 0, 0]

    def test_identity_like(self):
        coeffs = np.zeros((3, 9))
        coeffs[0, 0] = coeffs[1, 1] = coeffs[2, 2] = 1.0
        f = predict_force(CalibrationModel(coeffs=coeffs), FluxSample(0.5, -1.0, 2.0))
        assert f.as_array() == pytest.approx([0.5, -1.0, 2.0])

    def test_prediction_matches_residuals(self):
        rng = np.random.default_rng(6)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(30, rng), noise=0.1, rng=rng)
        model = fit_taxel(samples)
        residuals = np.stack([
            predict_force(model, s.flux).as_array() - s.force.as_array() for s in samples])
        expected = np.sqrt(np.mean(residuals**2, axis=0))
        assert rms_error(model, samples) == pytest.approx(tuple(expected))


class TestRmsError:
    def test_perfect_model(self):
        rng = np.random.default_rng(4)
        truth = rng.normal(size=(3, 9))
        samples = make_samples(truth, random_fluxes(20, rng))
        assert rms_error(CalibrationModel(coeffs=truth), samples) == pytest.approx((0, 0, 0), abs=1e-12)

    def test_constant_offset(self):
        rng = np.random.default_rng(8)
        truth = rng.normal(size=(3, 9))
        fluxes = random_fluxes(20, rng)
        samples = [CalibrationSample(
            flux=FluxSample(*b),
            force=ForceVector(*(truth @ quadratic_features(b) - np.array([0, 0, 1.0]))))
            for b in fluxes]
        rms = rms_error(CalibrationModel(coeffs=truth), samples)
        assert rms == pytest.approx((0, 0, 1.0), abs=1e-12)

    def test_empty(self):
        with pytest.raises(ValueError):
            rms_error(CalibrationModel(coeffs=np.zeros((3, 9))), [])


def test_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    models = {i: CalibrationModel(coeffs=rng.normal(size=(3, 9))) for i in range(49)}
    path = tmp_path / "calibration.json"
    save_models(models, path)
    loaded = load_models(path)
    assert set(loaded) == set(range(49))
    for i in range(49):
        assert np.array_equal(loaded[i].coeffs, models[i].coeffs)
    # documented schema: taxel_index + 27-entry row-major coeff list
    raw = json.loads(path.read_text())
    assert raw[0]["taxel_index"] == 0
    assert len(raw[0]["coeffs"]) == 27
