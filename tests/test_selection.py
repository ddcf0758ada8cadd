"""Model comparison: DIC, marginal likelihood, and CPO against oracles."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gammaln

from betamix.distributions import gamma_logpdf
from betamix.laplace import LaplaceOptions, fit_laplace
from betamix.model import Dataset, ModelSpec
from betamix.priors import default_priors
from betamix.selection import compare_models, cpo, dic
from betamix.simulate import simulate_study


@pytest.fixture(scope="module")
def signal_study():
    return simulate_study(seed=14, n_groups=6, n_total=150)


@pytest.fixture(scope="module")
def ladder_fits(signal_study):
    data = signal_study.data
    specs = [
        ("null", ModelSpec(fixed=(), random="none")),
        ("fixed", ModelSpec(fixed=("size", "income"), random="none")),
        ("full", signal_study.spec),
    ]
    return [
        fit_laplace(data, spec, options=LaplaceOptions(compute_gof=True), model_name=name)
        for name, spec in specs
    ]


def test_compare_models_recomputes_the_stored_criteria(ladder_fits):
    fresh = compare_models([replace(f, gof=None, _gof_pass=None) for f in ladder_fits])
    for key in ("lml", "dic", "p_d", "mean_log_cpo"):
        stored = [f.gof[key] for f in ladder_fits]
        np.testing.assert_allclose(getattr(fresh, key), stored, rtol=1e-12, err_msg=key)


def test_dic_prefers_the_generating_model(ladder_fits):
    d = {f.model_name: f.gof["dic"] for f in ladder_fits}
    assert d["full"] < d["null"]
    assert d["fixed"] < d["null"]


def test_lml_prefers_the_generating_model(ladder_fits):
    lml = {f.model_name: f.gof["lml"] for f in ladder_fits}
    assert lml["full"] > lml["null"]


def test_effective_parameters_positive_and_ordered(ladder_fits):
    p_d = {f.model_name: f.gof["p_d"] for f in ladder_fits}
    for name, val in p_d.items():
        assert val > 0.0, name
    # adding covariates and a random effect buys effective parameters
    assert p_d["full"] > p_d["null"]


def test_dic_recomputation_matches_gof(ladder_fits):
    fit = ladder_fits[-1]
    # a copy without the grid sums that fit_laplace left on the fit
    dic_val, p_d = dic(replace(fit, _gof_pass=None))
    assert dic_val == pytest.approx(fit.gof["dic"], abs=1e-9)
    assert p_d == pytest.approx(fit.gof["p_d"], abs=1e-9)


def test_noise_covariate_changes_dic_little(signal_study):
    data = signal_study.data
    rng = np.random.default_rng(99)
    labels = np.asarray(data.group_labels)[data.groups]
    cols = {k: np.asarray(v) for k, v in data.columns.items()}
    cols["noise"] = rng.normal(size=data.n)
    data2 = Dataset(data.y, labels, cols)
    base = fit_laplace(data2, signal_study.spec)
    spec2 = ModelSpec(fixed=("size", "income", "noise"), random="intercept")
    extra = fit_laplace(data2, spec2)
    assert abs(extra.gof["dic"] - base.gof["dic"]) < 10.0
    # and the ordering machinery still counts one more effective parameter
    assert extra.gof["p_d"] > base.gof["p_d"]


# -- CPO ---------------------------------------------------------------------


def _log_evidences_q0(y, keep, priors):
    """Log evidence of the intercept-only model on each data set, the rows
    of ``y`` that a row of the 0/1 matrix ``keep`` marks: one vectorised
    double quadrature, b0 in (-3, 3) inside phi in (1, 1500), with every
    evidence's error below 1e-6 of it.  The beta density is written out
    with ``gammaln``."""
    log_y, log_1my = np.log(y), np.log1p(-y)

    def over_b0(phi):
        log_prior = gamma_logpdf(phi, priors.phi)

        def integrand(b0):
            a = phi / (1.0 + np.exp(-b0))
            b = phi - a
            rows = gammaln(phi) - gammaln(a) - gammaln(b) + (a - 1.0) * log_y + (b - 1.0) * log_1my
            return np.exp(keep @ rows + log_prior)

        return integrate.quad_vec(integrand, -3.0, 3.0, norm="max")[0]

    val, err = integrate.quad_vec(over_b0, 1.0, 1500.0, norm="max")
    assert np.all(err < 1e-6 * val)
    return np.log(val)


def test_cpo_matches_leave_one_out_quadrature():
    """CPO_i is the predictive density of y_i given the rest: the ratio of
    the full evidence to the leave-one-out evidence."""
    rng = np.random.default_rng(21)
    y = np.clip(rng.beta(0.5 * 60, 0.5 * 60, size=12), 1e-4, 1 - 1e-4)
    data = Dataset(y, ["all"] * 12)
    spec = ModelSpec(fixed=(), random="none")
    priors = default_priors(spec)
    fit = fit_laplace(data, spec, options=LaplaceOptions(step=0.35, cutoff=10.0))
    res = cpo(fit)
    # row 0 keeps every observation, row i + 1 leaves out observation i
    log_m = _log_evidences_q0(y, 1.0 - np.eye(13, 12, k=-1), priors)
    for i in range(12):
        oracle = log_m[0] - log_m[i + 1]
        assert res.log_values[i] == pytest.approx(oracle, abs=np.log(1.05)), i


def test_cpo_is_pure_and_row_ordered(ladder_fits, signal_study):
    fit = ladder_fits[-1]
    a = cpo(fit)
    b = cpo(replace(fit, _gof_pass=None))
    np.testing.assert_array_equal(a.values, b.values)
    assert a.values.size == signal_study.data.n
    assert np.all(a.values > 0.0)
    np.testing.assert_allclose(np.log(a.values), a.log_values, rtol=1e-12)
    assert a.mean_log == pytest.approx(float(np.mean(a.log_values)), rel=1e-12)
    assert a.zero_rows == ()


# -- comparison table ----------------------------------------------------------


def test_compare_models_table(ladder_fits, tmp_path):
    comp = compare_models(ladder_fits)
    assert comp.model_names == ("null", "fixed", "full")
    assert comp.means.shape == (len(comp.param_names), 3)
    # null lacks covariates: its column has NaN on covariate rows
    i_income = comp.param_names.index("beta_income")
    assert np.isnan(comp.means[i_income, 0])
    assert np.isfinite(comp.means[i_income, 2])
    # with only six groups the Bayes factor may prefer the fixed-effects
    # model over the hierarchical one, but never the empty model
    assert comp.best_lml in ("fixed", "full")
    assert comp.best_dic in ("fixed", "full")
    # phi posterior mean rises as structure soaks up dispersion
    i_phi = comp.param_names.index("phi")
    assert comp.means[i_phi, 2] > comp.means[i_phi, 0]

    out = tmp_path / "comparison.csv"
    comp.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("quantity")
    assert len(lines) == len(comp.param_names) + 7
