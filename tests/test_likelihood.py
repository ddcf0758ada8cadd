"""Maximum likelihood and profile intervals against direct oracles."""

import numpy as np
import pytest
from scipy import integrate, optimize

from betamix.distributions import DomainError, beta_logpdf_arrays
from betamix.likelihood import _MarginalLoglik, marginal_loglik, ml_fit, profile_interval
from betamix.model import COORD_CAP, Dataset, HyperPoint, build_design, moment_start, out_of_support
from betamix.simulate import simulate_study


@pytest.fixture(scope="module")
def small_study():
    return simulate_study(seed=6, n_groups=6, n_total=90)


@pytest.fixture(scope="module")
def small_ml(small_study):
    return ml_fit(small_study.data, small_study.spec)


# -- fixed-effects-only oracle ---------------------------------------------------


def test_ml_without_random_effects_matches_direct_optimizer():
    study = simulate_study(seed=8, n_groups=4, n_total=60, random="none")
    data, spec = study.data, study.spec
    fit = ml_fit(data, spec)
    assert fit.converged

    info = build_design(data, spec)
    x_mat, y = info.X, data.y

    def negll(v):
        eta = x_mat @ v[:-1]
        mu = 1.0 / (1.0 + np.exp(-eta))
        return -float(np.sum(beta_logpdf_arrays(y, mu, np.exp(v[-1]))))

    v0 = np.zeros(x_mat.shape[1] + 1)
    v0[-1] = np.log(50.0)
    opt = optimize.minimize(negll, v0, method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000})
    assert fit.loglik == pytest.approx(-opt.fun, abs=1e-6)
    beta_names = [n for n in fit.names if n != "phi"]
    assert len(beta_names) == x_mat.shape[1]
    for j, name in enumerate(beta_names):
        assert fit.estimate(name) == pytest.approx(opt.x[j], abs=2e-5)
    assert fit.estimate("phi") == pytest.approx(np.exp(opt.x[-1]), rel=2e-5)


def test_ml_fit_converges_on_default_study(default_ml):
    assert default_ml.converged, default_ml.message
    assert default_ml.n_eval < 2000


def test_ml_fit_q2_boundary_converges():
    """Here the likelihood peaks at the boundary rho_corr -> 1, where Q and
    with it every group's curvature grow without bound: the group modes
    there are found to the resolution of their values before their
    gradients fall below a fixed 1e-3, and must still be accepted."""
    study = simulate_study(seed=0, random="intercept+slope")
    fit = ml_fit(study.data, study.spec)
    assert fit.converged, fit.message


# -- integrated likelihood oracle ------------------------------------------------


def test_marginal_loglik_matches_quadrature():
    """Tight random effects: the adaptive Gaussian approximation of each
    group integral must track brute quadrature to high accuracy, for a
    random intercept (1-D integrals) and an intercept+slope pair (2-D)."""
    beta = np.array([0.4, -0.07, -0.13, 0.47])
    # (random, theta, tolerance); Laplace's own error on one 2-D group
    # integral here is about 1.7e-4, so the q = 2 tolerance is looser
    cases = (
        ("intercept", HyperPoint.from_natural(600.0, 200.0), 1e-4),
        ("intercept+slope", HyperPoint.from_natural(600.0, 200.0, 200.0, 0.5), 1e-3),
    )
    for random, theta, tol in cases:
        study = simulate_study(seed=10, n_groups=3, n_total=120, random=random, phi=600.0,
                               tau1_sq=200.0, tau2_sq=200.0, rho_corr=0.5)
        data, spec = study.data, study.spec
        info = build_design(data, spec)
        got = marginal_loglik(beta, theta, data, spec)

        eta0 = info.X @ beta
        q_mat = theta.precision_matrix()
        half = 12.0 * np.sqrt(np.diag(np.linalg.inv(q_mat)))
        log_norm = 0.5 * np.linalg.slogdet(q_mat)[1] - 0.5 * spec.q * np.log(2 * np.pi)
        total = 0.0
        for g in range(data.n_groups):
            sl = slice(data.group_starts[g], data.group_starts[g] + data.group_sizes[g])

            def log_lik(b, sl=sl):
                """Log integrand at effect vectors ``b`` of shape (..., q)."""
                mu = 1.0 / (1.0 + np.exp(-(eta0[sl] + b @ info.Z[sl].T)))
                ll = np.sum(beta_logpdf_arrays(data.y[sl], mu, 600.0), axis=-1)
                return ll + log_norm - 0.5 * np.sum((b @ q_mat) * b, axis=-1)

            # integrate exp(log_lik - peak) so large group likelihoods cannot
            # overflow; the shift is added back afterwards
            peak = log_lik(np.zeros(spec.q))
            if spec.q == 1:
                val, err = integrate.quad(lambda b: np.exp(log_lik(np.array([b])) - peak),
                                          -half[0], half[0], limit=200)
                assert err < 1e-7 * val
            else:
                # tensor trapezoid rule over the same box: the integrand is
                # smooth and negligible at the edges, so the rule converges
                # geometrically; a grid of half the density checks that
                def trapezoid_2d(n):
                    b1s, b2s = (np.linspace(-h, h, n) for h in half)
                    inner = [np.trapezoid(np.exp(log_lik(np.column_stack([np.full(n, b1), b2s]))
                                                 - peak), b2s) for b1 in b1s]
                    return np.trapezoid(inner, b1s)

                val = trapezoid_2d(401)
                assert abs(val - trapezoid_2d(201)) < 1e-7 * val
            total += np.log(val) + peak
        assert got == pytest.approx(total, abs=tol), random


def test_marginal_loglik_peaks_near_truth(small_study):
    """The integrated likelihood prefers the generating hyperparameters to
    badly wrong ones."""
    data, spec = small_study.data, small_study.spec
    beta = np.array([0.4, -0.07, -0.13, 0.47])
    at_truth = marginal_loglik(beta, HyperPoint.from_natural(93.0, 64.0), data, spec)
    wrong_phi = marginal_loglik(beta, HyperPoint.from_natural(3.0, 64.0), data, spec)
    wrong_tau = marginal_loglik(beta, HyperPoint.from_natural(93.0, 0.05), data, spec)
    assert at_truth > wrong_phi
    assert at_truth > wrong_tau


# -- the stacked evaluator -------------------------------------------------------


def _lik_at_start(random):
    """The likelihood of a small study, warm at the start point of ``ml_fit``,
    and a stack of seven points around that start."""
    study = simulate_study(seed=2, n_groups=6, n_total=90, random=random)
    lik = _MarginalLoglik(study.data, study.spec)
    start = np.zeros(lik.dim)
    start[0] = np.log(np.mean(study.data.y) / (1.0 - np.mean(study.data.y)))
    start[lik.p:] = moment_start(study.data.y, study.spec.q).as_array()
    lik(start)
    return lik, start + 0.1 * np.sin(np.arange(7 * lik.dim)).reshape(7, lik.dim)


@pytest.mark.parametrize("random", ["intercept", "intercept+slope"])
def test_stack_rows_equal_one_row_calls_from_the_same_warm_state(random):
    """Every row of a stack is its own N group blocks of one Newton search,
    started from the warm state, so it runs the arithmetic of a one-row call
    from that state; only the order of vectorized sums may differ, to a
    relative 1e-12.  The warm state then moves to row 0's modes."""
    lik, stack = _lik_at_start(random)
    warm = lik._warm.copy()
    calls, points = lik.n_calls, lik.n_points
    values = lik(stack)
    assert values.shape == (len(stack),)
    assert (lik.n_calls, lik.n_points) == (calls + 1, points + len(stack))
    after = lik._warm.copy()
    for k, row in enumerate(stack):
        lik._warm = warm.copy()
        one = lik(row)
        assert isinstance(one, float)
        assert values[k] == pytest.approx(one, rel=1e-12, abs=0.0), k
        if k == 0:
            np.testing.assert_allclose(after, lik._warm, rtol=1e-12, atol=1e-12)


def test_rows_outside_the_support_leave_the_other_rows_unchanged():
    lik, stack = _lik_at_start("intercept")
    warm = lik._warm.copy()
    plain = lik(stack[:3])
    not_finite, beyond = stack[3].copy(), stack[4].copy()
    not_finite[1] = np.nan
    beyond[-1] = COORD_CAP + 1.0
    lik._warm = warm.copy()
    mixed = lik(np.array([stack[0], not_finite, stack[1], beyond, stack[2]]))
    np.testing.assert_array_equal(mixed[[0, 2, 4]], plain)
    assert mixed[1] == out_of_support(not_finite)
    assert mixed[3] == out_of_support(beyond)


def test_rows_of_a_batch_that_cannot_be_evaluated_are_retried_alone(monkeypatch):
    lik, stack = _lik_at_start("intercept")
    warm = lik._warm.copy()
    plain = lik(stack[:3])
    integrals = lik._integrals

    def batch_fails(rows):
        if len(rows) > 1:
            raise DomainError("forced")
        return integrals(rows)

    monkeypatch.setattr(lik, "_integrals", batch_fails)
    lik._warm = warm.copy()
    np.testing.assert_allclose(lik(stack[:3]), plain, rtol=1e-12, atol=0.0)


# -- estimates and intervals -----------------------------------------------------


def test_ml_fit_estimates_near_truth(small_ml, small_study):
    truth = small_study.truth
    for name, val in truth.beta.items():
        est = small_ml.estimate(f"beta_{name}")
        se = small_ml.se_of(f"beta_{name}")
        assert abs(est - val) < 4.0 * se
    assert small_ml.estimate("phi") > 0.0
    assert small_ml.estimate("tau1_sq") > 0.0
    assert small_ml.converged
    assert small_ml.n_obs == 90 and small_ml.n_groups == 6


def test_wald_and_profile_agree_on_well_behaved_slope(small_ml):
    wl, wh = small_ml.wald_interval("beta_income", 0.95)
    pi = profile_interval(small_ml, "beta_income", 0.95)
    assert (pi.upper - pi.lower) == pytest.approx(wh - wl, rel=0.10)
    est = small_ml.estimate("beta_income")
    assert pi.lower < est < pi.upper


def test_profile_matches_wald_at_small_drops(small_ml):
    """As the level shrinks the profile interval collapses to the Wald one."""
    wl, wh = small_ml.wald_interval("beta_income", 0.2)
    pi = profile_interval(small_ml, "beta_income", 0.2)
    assert pi.lower == pytest.approx(wl, abs=0.02 * (wh - wl))
    assert pi.upper == pytest.approx(wh, abs=0.02 * (wh - wl))


def test_profile_width_monotone_in_level(small_ml):
    widths = []
    for level in (0.5, 0.8, 0.95):
        pi = profile_interval(small_ml, "beta_income", level)
        widths.append(pi.upper - pi.lower)
    assert widths[0] < widths[1] < widths[2]


def test_profile_positive_parameters_stay_positive(small_ml):
    for name in ("phi", "tau1_sq"):
        pi = profile_interval(small_ml, name, 0.95)
        assert 0.0 < pi.lower < small_ml.estimate(name) < pi.upper


def test_ml_fit_invariant_to_row_order(small_study, small_ml, rng):
    data = small_study.data
    labels = np.asarray(data.group_labels)[data.groups]
    cols = {k: np.asarray(v) for k, v in data.columns.items()}
    perm = rng.permutation(data.n)
    data2 = Dataset(data.y[perm], labels[perm], {k: v[perm] for k, v in cols.items()})
    fit2 = ml_fit(data2, small_study.spec)
    assert fit2.loglik == pytest.approx(small_ml.loglik, abs=1e-9)
    for name in small_ml.names:
        assert fit2.estimate(name) == pytest.approx(small_ml.estimate(name), rel=1e-8)
