"""Gridded densities: exact summaries, transforms, kernel estimates."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from betamix.density import MARGINAL_POINTS, MarginalDensity, kde_density
from betamix.laplace import LaplaceOptions, fit_laplace
from betamix.model import covariance_rho
from betamix.simulate import simulate_study


def _gridded_normal(mu=0.0, sd=1.0, n=801, span=8.0):
    x = np.linspace(mu - span * sd, mu + span * sd, n)
    return MarginalDensity(x, stats.norm.pdf(x, mu, sd), name="z")


def test_normalization_and_moments():
    d = _gridded_normal(2.0, 3.0)
    assert np.trapezoid(d.pdf, d.x) == pytest.approx(1.0, abs=1e-12)
    assert d.mean() == pytest.approx(2.0, abs=1e-6)
    assert d.sd() == pytest.approx(3.0, rel=1e-4)


def test_cdf_quantile_roundtrip():
    d = _gridded_normal(0.0, 1.0)
    for p in (0.001, 0.025, 0.31, 0.5, 0.77, 0.975, 0.999):
        assert d.cdf(d.quantile(p)) == pytest.approx(p, abs=1e-12)
    # quantiles match the normal to grid accuracy
    assert d.quantile(0.975) == pytest.approx(1.959964, abs=2e-4)


def test_interval_consistency():
    d = _gridded_normal()
    lo, hi = d.equal_tail_interval(0.95)
    assert d.cdf(hi) - d.cdf(lo) == pytest.approx(0.95, abs=1e-12)
    assert d.cdf(d.x[-1]) - d.cdf(d.x[0]) == pytest.approx(1.0, abs=1e-12)
    assert d.cdf(d.x[0] - 1.0) == 0.0
    assert d.cdf(d.x[-1] + 1.0) == 1.0


def test_pdf_at_interpolates_and_vanishes_outside():
    d = _gridded_normal()
    assert d.pdf_at(0.0) == pytest.approx(stats.norm.pdf(0.0), rel=1e-4)
    assert d.pdf_at(-100.0) == 0.0
    assert d.pdf_at(100.0) == 0.0


def test_construction_validation():
    x = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        MarginalDensity(x, np.ones(4))
    with pytest.raises(ValueError):
        MarginalDensity(x[::-1], np.ones(5))
    with pytest.raises(ValueError):
        MarginalDensity(x, -np.ones(5))
    with pytest.raises(ValueError):
        MarginalDensity(x, np.zeros(5))
    with pytest.raises(ValueError):
        MarginalDensity(x, np.array([1.0, np.nan, 1, 1, 1]))


def test_map_monotone_log_exp_roundtrip():
    """Push a lognormal grid through log: get the generating normal back."""
    mu, sd = 0.4, 0.25
    x = np.exp(np.linspace(mu - 6 * sd, mu + 6 * sd, 1201))
    d = MarginalDensity(x, stats.lognorm.pdf(x, sd, scale=np.exp(mu)))
    z = d.map_monotone(np.log, "logged")
    assert z.name == "logged"
    assert z.mean() == pytest.approx(mu, abs=1e-5)
    assert z.sd() == pytest.approx(sd, rel=1e-4)
    # decreasing maps are re-oriented rather than rejected
    neg = d.map_monotone(lambda v: -v)
    assert neg.mean() == pytest.approx(-d.mean(), rel=1e-10)
    with pytest.raises(ValueError):
        d.map_monotone(np.cos)


def test_kde_recovers_gaussian_sample(rng):
    draws = rng.normal(1.5, 0.7, size=8000)
    d = kde_density(draws, name="g")
    assert np.trapezoid(d.pdf, d.x) == pytest.approx(1.0, abs=1e-12)
    assert d.mean() == pytest.approx(draws.mean(), abs=0.02)
    assert d.sd() == pytest.approx(0.7, rel=0.08)


def test_kde_weights_match_replication(rng):
    """Integer weights reproduce the KDE of the replicated sample."""
    vals = rng.normal(size=300)
    w = rng.integers(1, 4, size=300).astype(float)
    rep = np.repeat(vals, w.astype(int))
    a = kde_density(vals, weights=w, n_eff=rep.size)
    b = kde_density(rep, n_eff=rep.size)
    np.testing.assert_allclose(a.pdf, b.pdf, rtol=1e-9, atol=1e-12)


def test_kde_log_scale_positive_support(rng):
    draws = rng.lognormal(3.0, 0.5, size=6000)
    d = kde_density(draws, name="tau", log_scale=True)
    assert d.x[0] > 0.0
    assert np.trapezoid(d.pdf, d.x) == pytest.approx(1.0, abs=1e-12)
    # log-scale estimate is globally closer to the generating lognormal
    # (Hellinger), and a plain kernel even leaks mass below zero
    from betamix.sensitivity import hellinger

    true = stats.lognorm(0.5, scale=np.exp(3.0))
    xs = np.linspace(true.ppf(1e-5), true.ppf(1 - 1e-6), 4001)
    truth = MarginalDensity(xs, true.pdf(xs))
    plain = kde_density(draws, name="tau")
    assert hellinger(truth, d) < hellinger(truth, plain)
    assert plain.x[0] < 0.0


def test_kde_log_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        kde_density(np.array([0.5, 0.0, 2.0]), log_scale=True)
    with pytest.raises(ValueError):
        kde_density(np.array([0.5, -1.0, 2.0]), log_scale=True)


# -- the binned estimator against the exact kernel sum ---------------------------


def _exact_kde(values, weights=None, log_scale=False):
    """The exact Gaussian kernel sum on ``kde_density``'s abscissae and
    bandwidth rule: the reference the binned estimate is held to."""
    values = np.asarray(values, dtype=float)
    if log_scale:
        return _exact_kde(np.log(values), weights).map_monotone(np.exp)
    w = np.full(values.size, 1.0 / values.size) if weights is None else weights / np.sum(weights)
    mean = np.sum(w * values)
    sd = np.sqrt(np.sum(w * (values - mean) ** 2))
    h = 1.06 * sd * max(1.0 / np.sum(w * w), 2.0) ** (-0.2)
    xs = np.linspace(values.min() - 4.0 * h, values.max() + 4.0 * h, MARGINAL_POINTS)
    pdf = np.array([np.sum(w * np.exp(-0.5 * ((x - values) / h) ** 2)) for x in xs])
    return MarginalDensity(xs, pdf)


def _assert_near_exact(got, ref):
    """Tolerances fixed before the binned estimator was written: the largest
    pointwise gap 2e-4 of the peak, the mean within 1e-4 SD and the SD
    within a relative 2e-4; the abscissae are the exact estimate's."""
    np.testing.assert_allclose(got.x, ref.x, rtol=1e-12, atol=1e-12)
    assert np.max(np.abs(got.pdf - ref.pdf)) <= 2e-4 * np.max(ref.pdf)
    assert abs(got.mean() - ref.mean()) <= 1e-4 * ref.sd()
    assert abs(got.sd() / ref.sd() - 1.0) <= 2e-4


def test_kde_matches_the_exact_kernel_sum_on_a_gaussian_sample(rng):
    draws = rng.normal(1.5, 0.7, size=4000)
    _assert_near_exact(kde_density(draws), _exact_kde(draws))


def test_kde_matches_the_exact_kernel_sum_on_a_weighted_sample(rng):
    draws = rng.normal(-2.0, 3.0, size=4000)
    w = rng.gamma(2.0, size=4000)
    _assert_near_exact(kde_density(draws, weights=w), _exact_kde(draws, w))


def test_kde_matches_the_exact_kernel_sum_on_the_log_scale(rng):
    draws = rng.lognormal(3.0, 0.5, size=4000)
    _assert_near_exact(kde_density(draws, log_scale=True), _exact_kde(draws, log_scale=True))


@pytest.fixture(scope="module")
def design_draws():
    """The asymmetric-Gaussian draws of one seeded q = 2 design, with the
    derived ``rho`` of each draw as a last column."""
    study = simulate_study(seed=2, random="intercept+slope")
    grid = fit_laplace(study.data, study.spec,
                       options=LaplaceOptions(compute_gof=False)).theta_grid
    assert grid.integration == "ccd"
    draws = grid.hyper_draws
    return np.column_stack([draws, covariance_rho(draws[:, 1:])])


@pytest.mark.parametrize("j", range(5), ids=["phi", "tau1_sq", "tau2_sq", "rho_corr", "rho"])
def test_kde_matches_the_exact_kernel_sum_on_design_draws(design_draws, j):
    _assert_near_exact(kde_density(design_draws[:, j]), _exact_kde(design_draws[:, j]))


def test_kde_memory_is_linear_in_the_draws(rng):
    """An n x grid kernel matrix took 47.4 MiB at its peak here."""
    draws = rng.normal(size=200_000)
    tracemalloc.start()
    try:
        kde_density(draws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
