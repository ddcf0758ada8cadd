"""Distribution layer: closed forms against scipy and finite differences."""

import numpy as np
import pytest
from scipy import special, stats

from betamix.distributions import (
    DomainError,
    GammaShapeRate,
    _trigamma,
    beta_curv_mu,
    beta_logpdf_arrays,
    beta_score_mu,
    gamma_logpdf,
    wishart_logpdf,
)


def test_beta_logpdf_matches_scipy(rng):
    for _ in range(40):
        mu = rng.uniform(0.05, 0.95)
        phi = rng.uniform(0.5, 400.0)
        y = rng.uniform(0.01, 0.99, size=7)
        got = beta_logpdf_arrays(y, mu, phi)
        want = stats.beta.logpdf(y, mu * phi, (1.0 - mu) * phi)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)


def test_beta_logpdf_arrays_matches_scipy(rng):
    y = rng.uniform(0.02, 0.98, size=60)
    mu = rng.uniform(0.1, 0.9, size=60)
    phi = rng.uniform(1.0, 300.0, size=60)
    got = beta_logpdf_arrays(y, mu, phi)
    want = stats.beta.logpdf(y, mu * phi, (1.0 - mu) * phi)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)


def test_beta_gradient_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(25):
        mu = rng.uniform(0.1, 0.9)
        phi = rng.uniform(2.0, 200.0)
        y = rng.uniform(0.05, 0.95, size=5)
        fd_mu = (beta_logpdf_arrays(y, mu + h, phi) - beta_logpdf_arrays(y, mu - h, phi)) / (2 * h)
        np.testing.assert_allclose(beta_score_mu(y, mu, phi), fd_mu, rtol=2e-5, atol=1e-5)


def test_beta_score_and_curvature_match_finite_differences(rng):
    h = 1e-6
    mu = rng.uniform(0.2, 0.8, size=10)
    phi = rng.uniform(5.0, 150.0, size=10)
    y = rng.uniform(0.1, 0.9, size=10)
    fd_score = (beta_logpdf_arrays(y, mu + h, phi) - beta_logpdf_arrays(y, mu - h, phi)) / (2 * h)
    np.testing.assert_allclose(beta_score_mu(y, mu, phi), fd_score, rtol=3e-5, atol=3e-5)
    fd_curv = (beta_score_mu(y, mu + h, phi) - beta_score_mu(y, mu - h, phi)) / (2 * h)
    np.testing.assert_allclose(beta_curv_mu(mu, phi), fd_curv, rtol=3e-5, atol=3e-4)


def test_beta_curvature_is_y_free_and_negative(rng):
    mu = rng.uniform(0.1, 0.9, size=20)
    phi = rng.uniform(1.0, 500.0, size=20)
    assert np.all(beta_curv_mu(mu, phi) < 0.0)


def test_trigamma_matches_hurwitz_zeta():
    x = np.logspace(-4.0, 5.0, 2001)
    np.testing.assert_allclose(_trigamma(x), special.zeta(2.0, x), rtol=4e-15, atol=0.0)
    # elements on both sides of the recurrence threshold in one array
    mixed = np.array([[1e-3, 0.7, 9.999, 10.0], [10.001, 3.5, 250.0, 6e4]])
    np.testing.assert_allclose(_trigamma(mixed), special.zeta(2.0, mixed), rtol=4e-15, atol=0.0)
    assert np.shape(_trigamma(2.5)) == ()
    assert np.shape(_trigamma(np.float64(12.0))) == ()
    assert _trigamma(np.array([2.5])).shape == (1,)
    assert _trigamma(np.inf) == 0.0


@pytest.mark.parametrize("bad", [0.0, -0.5, -3.0, -np.inf, np.nan])
def test_trigamma_rejects_nonpositive_and_nan(bad):
    with pytest.raises(DomainError):
        _trigamma(np.array([4.0, bad, 20.0]))
    with pytest.raises(DomainError):
        _trigamma(bad)


def test_gamma_logpdf_matches_scipy(rng):
    for _ in range(30):
        a = rng.uniform(0.2, 8.0)
        b = rng.uniform(0.001, 5.0)
        x = rng.uniform(0.01, 50.0, size=5)
        got = gamma_logpdf(x, GammaShapeRate(a, b))
        want = stats.gamma.logpdf(x, a, scale=1.0 / b)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-10)


def test_wishart_logpdf_matches_scipy(rng):
    for _ in range(10):
        df = rng.uniform(2.5, 12.0)
        a = rng.normal(size=(2, 2))
        scale = a @ a.T + 2.0 * np.eye(2)
        b = rng.normal(size=(3, 2, 2))
        q = b @ b.transpose(0, 2, 1) + 0.5 * np.eye(2)
        got = wishart_logpdf(q, df, scale)
        assert got.shape == (3,)
        for k in range(3):
            want = stats.wishart.logpdf(q[k], df, scale)
            np.testing.assert_allclose(wishart_logpdf(q[k], df, scale), want,
                                       rtol=1e-9, atol=1e-8)
            assert got[k] == wishart_logpdf(q[k], df, scale)


def test_domain_errors():
    with pytest.raises(DomainError):
        beta_logpdf_arrays(0.5, 0.0, 10.0)
    with pytest.raises(DomainError):
        beta_logpdf_arrays(0.5, 0.5, -1.0)
    with pytest.raises(DomainError):
        beta_logpdf_arrays(np.array([0.5, 1.0]), 0.5, 10.0)
    with pytest.raises(DomainError):
        GammaShapeRate(1.0, 0.0)


def test_gamma_mean():
    g = GammaShapeRate(0.5, 0.001487)
    np.testing.assert_allclose(g.mean, 0.5 / 0.001487, rtol=1e-12)
