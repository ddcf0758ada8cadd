"""Hellinger machinery, prior calibration, and the sensitivity scan driver."""

import logging
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

import betamix.sensitivity as sens_mod
from betamix import model
from betamix.density import MarginalDensity
from betamix.distributions import DomainError, GammaShapeRate
from betamix.laplace import LaplaceOptions, fit_laplace
from betamix.model import Dataset, ModelSpec
from betamix.priors import default_priors
from betamix.sensitivity import (
    PHI_SCAN_DEFAULT,
    calibrate_prior,
    gamma_hellinger_closed,
    hellinger,
    sensitivity_scan,
)
from betamix.simulate import simulate_study

TAU_BASE = GammaShapeRate(0.5, 0.001487)


def _gamma_pdf(g: GammaShapeRate):
    return stats.gamma(a=g.shape, scale=1.0 / g.rate).pdf


# -- Hellinger distance --------------------------------------------------------


def test_quadrature_matches_closed_form_on_random_gamma_pairs():
    """The closed form against adaptive quadrature of the overlap on (0, inf)."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        g1 = GammaShapeRate(rng.uniform(0.5, 10.0), rng.uniform(0.01, 20.0))
        g2 = GammaShapeRate(rng.uniform(0.5, 10.0), rng.uniform(0.01, 20.0))
        f1, f2 = _gamma_pdf(g1), _gamma_pdf(g2)
        bc, err = integrate.quad(lambda x: np.sqrt(f1(x) * f2(x)), 0.0, np.inf, limit=400)
        assert err <= 1e-6
        num = np.sqrt(1.0 - min(max(bc, 0.0), 1.0))
        assert num == pytest.approx(gamma_hellinger_closed(g1, g2), abs=1e-6)


def test_hellinger_is_symmetric():
    g1 = GammaShapeRate(1.0, 0.01)
    g2 = GammaShapeRate(1.0, 0.0338)
    # two different grids, so the union grid is not either one
    x1 = np.linspace(0.01, 1500.0, 3001)
    x2 = np.geomspace(0.01, 500.0, 1200)
    d1 = MarginalDensity(x1, _gamma_pdf(g1)(x1))
    d2 = MarginalDensity(x2, _gamma_pdf(g2)(x2))
    assert hellinger(d1, d2) == hellinger(d2, d1)
    assert hellinger(d1, d2) == pytest.approx(gamma_hellinger_closed(g1, g2), abs=1e-3)
    assert gamma_hellinger_closed(g1, g2) == gamma_hellinger_closed(g2, g1)


def test_identical_densities_have_zero_distance():
    g = GammaShapeRate(2.0, 0.5)
    assert gamma_hellinger_closed(g, g) == 0.0
    xs = np.linspace(0.01, 30.0, 1200)
    d = MarginalDensity(xs, _gamma_pdf(g)(xs))
    # sqrt(1 - bc) turns float roundoff in bc into ~1e-7
    assert hellinger(d, d) <= 1e-6


def test_disjoint_supports_have_distance_one():
    a = MarginalDensity(np.linspace(0.0, 1.0, 200), np.ones(200))
    b = MarginalDensity(np.linspace(5.0, 6.0, 200), np.ones(200))
    assert hellinger(a, b) == pytest.approx(1.0, abs=1e-12)


def test_gridded_path_matches_closed_form():
    g1 = GammaShapeRate(1.0, 0.01)
    g2 = GammaShapeRate(1.0, 0.05)
    lo = min(stats.gamma.ppf(1e-7, g1.shape, scale=1 / g1.rate),
             stats.gamma.ppf(1e-7, g2.shape, scale=1 / g2.rate))
    hi = max(stats.gamma.ppf(1 - 1e-7, g1.shape, scale=1 / g1.rate),
             stats.gamma.ppf(1 - 1e-7, g2.shape, scale=1 / g2.rate))
    xs = np.linspace(max(lo, 1e-9), hi, 3001)
    d1 = MarginalDensity(xs, _gamma_pdf(g1)(xs))
    d2 = MarginalDensity(xs, _gamma_pdf(g2)(xs))
    assert hellinger(d1, d2) == pytest.approx(gamma_hellinger_closed(g1, g2), abs=1e-3)


# -- published calibration tables ----------------------------------------------

PHI_TABLE = [
    # (rate of the shifted prior, Hellinger distance from Gamma(1, 0.01))
    (0.0135, 0.1058),
    (0.0178, 0.2005),
    (0.0242, 0.3005),
    (0.0338, 0.4006),
    (0.0500, 0.5046),
    (0.0765, 0.6004),
]

TAU_TABLE = [
    # (rate of the shifted prior, Hellinger distance from Gamma(0.5, 0.001487))
    (0.00225, 0.1030),
    (0.00350, 0.2086),
    (0.00550, 0.3085),
    (0.00880, 0.4017),
    (0.01600, 0.5031),
    (0.03300, 0.6022),
]


@pytest.mark.parametrize("rate, expected", PHI_TABLE)
def test_precision_scan_table(rate, expected):
    h = gamma_hellinger_closed(PHI_SCAN_DEFAULT, GammaShapeRate(1.0, rate))
    tol = 5e-3 if expected == 0.1058 else 1e-3
    assert h == pytest.approx(expected, abs=tol)


@pytest.mark.parametrize("rate, expected", TAU_TABLE)
def test_variance_scan_table(rate, expected):
    h = gamma_hellinger_closed(TAU_BASE, GammaShapeRate(0.5, rate))
    assert h == pytest.approx(expected, abs=1e-3)


def test_calibrate_prior_reproduces_published_rates():
    # invert the table rows: calibrating to the tabulated distance recovers
    # the tabulated rate
    phi_cal = calibrate_prior(PHI_SCAN_DEFAULT, 0.3005)
    assert phi_cal.shape == 1.0
    assert phi_cal.rate == pytest.approx(0.0242, abs=5e-5)
    assert gamma_hellinger_closed(PHI_SCAN_DEFAULT, phi_cal) == pytest.approx(0.3005, abs=1e-6)

    tau_cal = calibrate_prior(TAU_BASE, 0.4017)
    assert tau_cal.shape == 0.5
    assert tau_cal.rate == pytest.approx(0.0088, abs=5e-5)
    assert gamma_hellinger_closed(TAU_BASE, tau_cal) == pytest.approx(0.4017, abs=1e-6)


def test_calibrate_prior_rejects_bad_targets():
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            calibrate_prior(PHI_SCAN_DEFAULT, bad)


def test_calibrated_rate_monotone_in_target():
    rates = [calibrate_prior(PHI_SCAN_DEFAULT, t).rate for t in (0.1, 0.3, 0.5, 0.7)]
    assert all(b > a for a, b in zip(rates, rates[1:]))


# -- the scan driver -----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_data():
    rng = np.random.default_rng(31)
    mu = 0.55
    y = np.clip(rng.beta(mu * 80, (1 - mu) * 80, size=40), 1e-4, 1 - 1e-4)
    return Dataset(y, ["g1"] * 20 + ["g2"] * 20)


@pytest.fixture(scope="module")
def tiny_scan(tiny_data):
    spec = ModelSpec(fixed=(), random="none")
    return sensitivity_scan(tiny_data, spec, param="phi", targets=(0.2, 0.4))


def test_scan_rows_hit_their_targets(tiny_scan):
    assert tiny_scan.param == "phi"
    assert tiny_scan.marginal_name == "phi"
    assert tiny_scan.base_prior == PHI_SCAN_DEFAULT
    assert len(tiny_scan.rows) == 2
    for row, t in zip(tiny_scan.rows, (0.2, 0.4)):
        assert row.ok
        assert row.prior_h == pytest.approx(t, abs=1e-6)
        assert row.prior.rate > PHI_SCAN_DEFAULT.rate
        assert "phi" in row.summary


def test_scan_posterior_moves_less_than_prior(tiny_scan):
    hs = [row.posterior_h for row in tiny_scan.rows]
    assert hs[0] < hs[1]
    for row in tiny_scan.rows:
        assert 0.0 < row.posterior_h < row.prior_h
        assert row.ratio == pytest.approx(row.posterior_h / row.prior_h, rel=1e-12)
        assert row.ratio < 1.0


def test_scan_validates_targets(tiny_data):
    spec = ModelSpec(fixed=(), random="none")
    with pytest.raises(DomainError, match="strictly increasing"):
        sensitivity_scan(tiny_data, spec, targets=(0.3, 0.3))
    with pytest.raises(DomainError, match="strictly in"):
        sensitivity_scan(tiny_data, spec, targets=(0.2, 1.0))
    with pytest.raises(DomainError):
        sensitivity_scan(tiny_data, spec, targets=())


def test_scan_validates_parameter(tiny_data):
    spec = ModelSpec(fixed=(), random="none")
    with pytest.raises(DomainError, match="'phi' or 'tau'"):
        sensitivity_scan(tiny_data, spec, param="sigma")
    with pytest.raises(DomainError, match="random-effect"):
        sensitivity_scan(tiny_data, spec, param="tau")


def test_failed_refit_is_recorded_not_raised(tiny_data, monkeypatch, tmp_path):
    spec = ModelSpec(fixed=(), random="none")
    real = sens_mod.calibrate_prior

    # the row at the second target fails in its calibration, a step a
    # reweighted row still takes
    def flaky(default, target):
        if target == 0.4:
            raise RuntimeError("boom")
        return real(default, target)

    monkeypatch.setattr(sens_mod, "calibrate_prior", flaky)
    report = sensitivity_scan(tiny_data, spec, param="phi", targets=(0.2, 0.4))
    assert report.rows[0].ok
    assert not report.rows[1].ok
    assert report.rows[1].error == "RuntimeError: boom"
    assert np.isnan(report.rows[1].ratio)
    assert len([r for r in report.rows if r.ok]) == 1

    out = tmp_path / "scan.csv"
    report.write_csv(out)
    text = out.read_text()
    assert "RuntimeError: boom" in text


@pytest.fixture(scope="module")
def ccd_study():
    """A small intercept+slope study: its fits integrate on the central
    composite design, so a scan of it refits."""
    return simulate_study(seed=1, n_total=160, random="intercept+slope")


@pytest.fixture(scope="module")
def ccd_scan(ccd_study):
    return sensitivity_scan(ccd_study.data, ccd_study.spec, param="phi", targets=(0.2, 0.4))


def test_forked_scan_equals_the_serial_scan(ccd_study, ccd_scan, monkeypatch):
    """Two refits on two workers against one process."""
    assert [(r.method, r.extension_solves) for r in ccd_scan.rows] == [("refit", 0)] * 2
    reports = {}
    for cpus in (2, 1):
        monkeypatch.setattr(model, "_cpus", lambda cpus=cpus: cpus)
        reports[cpus] = sensitivity_scan(ccd_study.data, ccd_study.spec, param="phi",
                                         targets=(0.2, 0.4))
        assert multiprocessing.active_children() == []
    forked, serial = reports[2], reports[1]
    assert forked.rows == serial.rows
    assert [r.ratio for r in forked.rows] == [r.ratio for r in serial.rows]
    assert forked.default_summary == serial.default_summary
    assert [r.summary for r in forked.rows] == [r.summary for r in serial.rows]
    assert forked == serial == ccd_scan


def test_a_failing_default_fit_raises_and_leaves_no_worker(tiny_data, monkeypatch):
    spec = ModelSpec(fixed=(), random="none")
    real = sens_mod.fit_laplace

    def failing(*args, **kwargs):
        if kwargs["priors"].phi == PHI_SCAN_DEFAULT:
            raise RuntimeError("default fit failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(sens_mod, "fit_laplace", failing)
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^default fit failed$"):
        sensitivity_scan(tiny_data, spec, param="phi", targets=(0.2, 0.4))
    assert multiprocessing.active_children() == []


def test_warnings_of_each_fit_are_logged_once_in_fit_order(ccd_study, monkeypatch, caplog):
    """An unconverged hyper-mode search in every fit, as in the Laplace
    tests: the default fit in process, then the two forked refits.  A cap of
    20 search iterations stops every search of this study short, yet close
    enough to the mode that the design holds."""
    real = sens_mod.fit_laplace

    def announced(*args, **kwargs):
        logging.getLogger("betamix").warning("fit at rate %r", kwargs["priors"].phi.rate)
        return real(*args, **kwargs)

    monkeypatch.setattr(sens_mod, "fit_laplace", announced)
    monkeypatch.setattr(model, "MAXIMIZE_ITER", 20)
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    caplog.set_level(logging.WARNING, logger="betamix")
    report = sensitivity_scan(ccd_study.data, ccd_study.spec, param="phi", targets=(0.2, 0.4))
    assert all(row.ok for row in report.rows)
    assert all(row.method == "refit" for row in report.rows)
    rates = [PHI_SCAN_DEFAULT.rate, *(row.prior.rate for row in report.rows)]
    messages = [r.getMessage() for r in caplog.records if r.name == "betamix"]
    assert len(messages) == 2 * len(rates)
    for rate, announce, warning in zip(rates, messages[::2], messages[1::2]):
        assert announce == f"fit at rate {rate!r}"
        assert warning.startswith("hyper-mode search did not converge")


def test_a_reweighted_scan_fits_once(tiny_data, monkeypatch):
    spec = ModelSpec(fixed=(), random="none")
    real = sens_mod.fit_laplace
    priors = []

    def counted(*args, **kwargs):
        priors.append(kwargs["priors"].phi)
        return real(*args, **kwargs)

    monkeypatch.setattr(sens_mod, "fit_laplace", counted)
    report = sensitivity_scan(tiny_data, spec, param="phi", targets=(0.2, 0.4))
    assert priors == [PHI_SCAN_DEFAULT]
    assert [(r.method, r.extension_solves) for r in report.rows] == [("reweighted", 0)] * 2


def test_report_csv_layout(tiny_scan, tmp_path):
    out = tmp_path / "scan.csv"
    tiny_scan.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == (
        "target,shape,rate,prior_hellinger,posterior_hellinger,sensitivity_ratio,error"
    )
    assert len(lines) == 3

    wide = tmp_path / "scan_summary.csv"
    tiny_scan.write_summary_csv(wide)
    rows = wide.read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header[:3] == ["parameter", "default_mean", "default_sd"]
    assert "H0.2_mean" in header and "H0.4_sd" in header
    # one body row per parameter in the default summary
    assert len(rows) == 1 + len(tiny_scan.default_summary)


# -- reweighting against fine-grid refits --------------------------------------

#: tolerances of a reweighted row against a full refit on a fine grid, set
#: before the reweighting was written: the posterior Hellinger distance within
#: 10 % of the reference's, every posterior mean within 0.05 reference SD and
#: every posterior SD within 5 %
H_RTOL = 0.10
MEAN_SD_TOL = 0.05
SD_RTOL = 0.05
FINE = LaplaceOptions(step=0.25, cutoff=10.0, compute_gof=False)


def _refit_reference(study, param, targets):
    """Posterior distances and summaries of full refits on the fine grid."""
    priors = default_priors(study.spec)
    if param == "phi":
        base, name, put = PHI_SCAN_DEFAULT, "phi", lambda g: replace(priors, phi=g)
    else:
        base, name, put = priors.require_raneff_gamma(), "tau1_sq", lambda g: replace(priors,
                                                                                     raneff=g)
    default = fit_laplace(study.data, study.spec, priors=put(base), options=FINE)
    out = []
    for t in targets:
        refit = fit_laplace(study.data, study.spec, priors=put(calibrate_prior(base, t)),
                            options=FINE)
        out.append((hellinger(default.marginal(name), refit.marginal(name)), refit.summary()))
    return out


def _assert_matches_reference(report, reference):
    for row, (ref_h, ref_summary) in zip(report.rows, reference):
        assert row.ok and row.method == "reweighted"
        assert row.posterior_h == pytest.approx(ref_h, rel=H_RTOL), row.target
        for name, ref in ref_summary.items():
            got = row.summary[name]
            assert abs(got["mean"] - ref["mean"]) <= MEAN_SD_TOL * ref["sd"], (row.target, name)
            assert got["sd"] == pytest.approx(ref["sd"], rel=SD_RTOL), (row.target, name)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("param", ["tau", "phi"])
def test_reweighted_scan_matches_fine_grid_refits(seed, param):
    study = simulate_study(seed=seed)
    targets = (0.1, 0.3)
    report = sensitivity_scan(study.data, study.spec, param=param, targets=targets)
    _assert_matches_reference(report, _refit_reference(study, param, targets))


def test_large_phi_shift_extends_the_grid_and_matches_the_refit():
    """At the CLI's largest default target the shifted posterior reaches past
    the default fit's evaluated points, so the grid must grow."""
    study = simulate_study(seed=1)
    report = sensitivity_scan(study.data, study.spec, param="phi", targets=(0.6,))
    assert report.rows[0].extension_solves >= 1
    _assert_matches_reference(report, _refit_reference(study, "phi", (0.6,)))
