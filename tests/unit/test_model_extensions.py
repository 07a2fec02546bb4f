"""Tests for the model extensions: Rician likelihood, nonlinear fitting."""

import numpy as np
import pytest
from scipy.stats import rice

from repro.errors import ModelError
from repro.io import GradientTable
from repro.models import LogPosterior, MultiFiberModel, gaussian_loglike, rician_loglike
from repro.models.fitting import fit_ball_stick
from repro.utils.geometry import fibonacci_sphere, spherical_to_cartesian


@pytest.fixture
def gtab():
    bvals = np.concatenate([np.zeros(3), np.full(28, 1000.0)])
    bvecs = np.concatenate([np.zeros((3, 3)), fibonacci_sphere(28)])
    return GradientTable(bvals, bvecs)


class TestRicianLoglike:
    def test_matches_scipy_rice(self):
        rng = np.random.default_rng(0)
        mu = np.abs(rng.normal(10, 2, size=(3, 6)))
        sigma = np.array([1.0, 2.0, 0.5])
        data = np.abs(rng.normal(10, 2, size=(3, 6)))
        ll = rician_loglike(data, mu, sigma)
        expect = np.array(
            [
                rice.logpdf(data[i], mu[i] / sigma[i], scale=sigma[i]).sum()
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(ll, expect, rtol=1e-10)

    def test_high_snr_approaches_gaussian(self):
        # At SNR 100 the Rician and Gaussian log-likelihood differences
        # across nearby mu values agree closely.
        rng = np.random.default_rng(1)
        mu = np.full((1, 20), 1000.0)
        data = mu + rng.normal(scale=10.0, size=mu.shape)
        sigma = np.array([10.0])
        dg = gaussian_loglike(data, mu, sigma) - gaussian_loglike(
            data, mu * 1.01, sigma
        )
        dr = rician_loglike(data, mu, sigma) - rician_loglike(
            data, mu * 1.01, sigma
        )
        np.testing.assert_allclose(dr, dg, rtol=0.02)

    def test_low_snr_differs_from_gaussian(self):
        # Near zero signal the Rician density is Rayleigh-like and the
        # Gaussian approximation is visibly wrong.
        data = np.full((1, 50), 1.2)
        sigma = np.array([1.0])
        mu0 = np.zeros((1, 50))
        g = gaussian_loglike(data, mu0, sigma)
        r = rician_loglike(data, mu0, sigma)
        assert abs(float(g[0] - r[0])) > 1.0

    def test_nonpositive_data_is_minus_inf(self):
        ll = rician_loglike(
            np.array([[0.0, 1.0]]), np.ones((1, 2)), np.array([1.0])
        )
        assert np.isneginf(ll[0])

    def test_nonpositive_sigma_is_minus_inf(self):
        ll = rician_loglike(np.ones((1, 2)), np.ones((1, 2)), np.array([0.0]))
        assert np.isneginf(ll[0])

    def test_overflow_free_at_huge_snr(self):
        ll = rician_loglike(
            np.array([[1e6]]), np.array([[1e6]]), np.array([1.0])
        )
        assert np.isfinite(ll[0])

    def test_shape_validation(self):
        with pytest.raises(ModelError):
            rician_loglike(np.ones((1, 2)), np.ones((1, 3)), np.ones(1))
        with pytest.raises(ModelError):
            rician_loglike(np.ones((1, 2)), np.ones((1, 2)), np.ones(2))


class TestRicianPosterior:
    def test_noise_model_option(self, gtab):
        rng = np.random.default_rng(2)
        model = MultiFiberModel(2)
        mu = model.predict(
            gtab,
            s0=np.full(3, 500.0),
            d=np.full(3, 1e-3),
            f=np.tile([0.5, 0.1], (3, 1)),
            theta=np.tile([1.2, 0.4], (3, 1)),
            phi=np.tile([0.3, 2.0], (3, 1)),
        )
        data = np.abs(mu + rng.normal(scale=20.0, size=mu.shape))
        g = LogPosterior(gtab, data, noise_model="gaussian")
        r = LogPosterior(gtab, data, noise_model="rician")
        params = g.initial_params()
        lg, lr = g(params), r(params)
        assert np.all(np.isfinite(lg)) and np.all(np.isfinite(lr))
        assert not np.allclose(lg, lr)

    def test_unknown_noise_model_rejected(self, gtab):
        with pytest.raises(ModelError):
            LogPosterior(gtab, np.ones((1, 31)), noise_model="poisson")

    def test_rician_sampler_runs(self, gtab):
        from repro.mcmc import MCMCConfig, MCMCSampler

        rng = np.random.default_rng(3)
        model = MultiFiberModel(2)
        mu = model.predict(
            gtab,
            s0=np.full(2, 500.0),
            d=np.full(2, 1e-3),
            f=np.tile([0.5, 0.0], (2, 1)),
            theta=np.tile([np.pi / 2, 1.0], (2, 1)),
            phi=np.tile([0.0, 1.0], (2, 1)),
        )
        data = np.abs(mu + rng.normal(scale=10.0, size=mu.shape))
        post = LogPosterior(gtab, data, noise_model="rician")
        res = MCMCSampler(MCMCConfig(n_burnin=30, n_samples=5)).run(post)
        assert np.all(np.isfinite(post(res.samples[-1])))

    def test_scalar_lockstep_agree_rician(self, gtab):
        from repro.mcmc import MCMCConfig, MCMCSampler

        rng = np.random.default_rng(4)
        data = np.abs(rng.normal(300, 30, size=(2, 31)))
        post = LogPosterior(gtab, data, noise_model="rician")
        cfg = MCMCConfig(n_burnin=10, n_samples=3, sample_interval=1)
        lock = MCMCSampler(cfg).run(post)
        scal = MCMCSampler(cfg).run_scalar(post)
        np.testing.assert_array_equal(lock.samples, scal.samples)


class TestBallStickFit:
    def make_signal(self, gtab, f=0.55, theta=1.1, phi=0.7, s0=800.0, d=1.2e-3):
        return MultiFiberModel(1).predict(
            gtab,
            s0=np.array([s0]),
            d=np.array([d]),
            f=np.array([[f]]),
            theta=np.array([[theta]]),
            phi=np.array([[phi]]),
        )[0]

    def test_recovers_single_fiber_noiseless(self, gtab):
        sig = self.make_signal(gtab)
        fit = fit_ball_stick(gtab, sig, n_fibers=1)
        assert fit.s0 == pytest.approx(800.0, rel=1e-3)
        assert fit.d == pytest.approx(1.2e-3, rel=1e-2)
        assert fit.f[0] == pytest.approx(0.55, abs=0.02)
        v_true = spherical_to_cartesian(1.1, 0.7)
        v_fit = spherical_to_cartesian(fit.theta[0], fit.phi[0])
        assert abs(np.dot(v_true, v_fit)) > 0.999
        assert fit.residual_rms < 1.0

    def test_recovers_with_noise(self, gtab):
        rng = np.random.default_rng(5)
        sig = self.make_signal(gtab) + rng.normal(scale=8.0, size=len(gtab))
        fit = fit_ball_stick(gtab, np.abs(sig), n_fibers=1)
        assert fit.f[0] == pytest.approx(0.55, abs=0.1)
        v_true = spherical_to_cartesian(1.1, 0.7)
        v_fit = spherical_to_cartesian(fit.theta[0], fit.phi[0])
        assert abs(np.dot(v_true, v_fit)) > 0.98

    def test_two_fiber_crossing(self, gtab):
        # Crossing resolution needs b ~ 2000+.
        from repro.data import make_gradient_table

        g2 = make_gradient_table(n_directions=48, bvalue=2500.0, n_b0=4)
        mu = MultiFiberModel(2).predict(
            g2,
            s0=np.array([500.0]),
            d=np.array([1e-3]),
            f=np.array([[0.45, 0.45]]),
            theta=np.array([[np.pi / 2, np.pi / 2]]),
            phi=np.array([[0.0, np.pi / 3]]),
        )[0]
        fit = fit_ball_stick(g2, mu, n_fibers=2)
        v1 = spherical_to_cartesian(fit.theta[0], fit.phi[0])
        v2 = spherical_to_cartesian(fit.theta[1], fit.phi[1])
        t1 = spherical_to_cartesian(np.pi / 2, 0.0)
        t2 = spherical_to_cartesian(np.pi / 2, np.pi / 3)
        hits = {
            max(abs(np.dot(v1, t1)), abs(np.dot(v2, t1))) > 0.97,
            max(abs(np.dot(v1, t2)), abs(np.dot(v2, t2))) > 0.97,
        }
        assert hits == {True}
        assert fit.f.sum() == pytest.approx(0.9, abs=0.1)

    def test_fractions_descending_and_in_simplex(self, gtab):
        sig = self.make_signal(gtab)
        fit = fit_ball_stick(gtab, sig, n_fibers=2)
        assert fit.f[0] >= fit.f[1] >= 0.0
        assert fit.f.sum() <= 1.0

    def test_canonical_angles(self, gtab):
        sig = self.make_signal(gtab, theta=2.8, phi=4.0)  # lower hemisphere
        fit = fit_ball_stick(gtab, sig, n_fibers=1)
        assert 0.0 <= fit.theta[0] <= np.pi / 2 + 1e-9  # folded to z >= 0
        assert 0.0 <= fit.phi[0] < 2 * np.pi

    def test_validation(self, gtab):
        with pytest.raises(ModelError):
            fit_ball_stick(gtab, np.ones(5))
        with pytest.raises(ModelError):
            fit_ball_stick(gtab, np.ones(len(gtab)), n_fibers=0)
        bad = np.ones(len(gtab))
        bad[0] = 0.0
        with pytest.raises(ModelError):
            fit_ball_stick(gtab, bad)
