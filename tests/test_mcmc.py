"""Adaptive sampler: diagnostics, prior recovery, reproducibility."""

import logging
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from betamix import mcmc, model
from betamix.density import kde_density
from betamix.distributions import DomainError
from betamix.mcmc import (
    McmcConfig,
    _BetaModelTarget,
    effective_sample_size,
    export_chains,
    gelman_rubin,
    run_mcmc,
)
from betamix.model import HyperPoint, ModelContext
from betamix.priors import default_priors
from betamix.simulate import simulate_study

PARAMS = ("beta_intercept", "beta_size_Medium", "beta_size_Small", "beta_income", "phi", "tau1_sq")


# -- configuration arithmetic --------------------------------------------------


def test_stored_draw_counts():
    assert McmcConfig().n_stored == 4900
    assert McmcConfig(iterations=50_000, burn_in=10_000, thin=8).n_stored == 5000
    with pytest.raises(Exception):
        McmcConfig(iterations=100, burn_in=200)
    with pytest.raises(DomainError, match="stores no draw"):
        McmcConfig(iterations=30, burn_in=25, thin=10)


# -- diagnostics on synthetic chain arrays -------------------------------------


def test_gelman_rubin_identical_chains_is_one(rng):
    row = rng.normal(size=500)
    chains = np.stack([row, row, row])
    assert gelman_rubin(chains) == 1.0


def test_gelman_rubin_flags_disagreeing_chains(rng):
    chains = np.stack(
        [rng.normal(loc=c * 3.0, size=400) for c in range(3)]
    )
    assert gelman_rubin(chains) > 1.2


def test_gelman_rubin_well_mixed_near_one(rng):
    chains = rng.normal(size=(3, 2000))
    assert 1.0 <= gelman_rubin(chains) < 1.05


def test_effective_sample_size_iid_vs_autocorrelated(rng):
    iid = rng.normal(size=(3, 1500))
    ess_iid = effective_sample_size(iid)
    assert ess_iid > 0.5 * iid.size
    # AR(1) with strong positive correlation loses most of its sample size
    rho = 0.95
    ar = np.empty((3, 1500))
    ar[:, 0] = rng.normal(size=3)
    for t in range(1, 1500):
        ar[:, t] = rho * ar[:, t - 1] + np.sqrt(1 - rho * rho) * rng.normal(size=3)
    assert effective_sample_size(ar) < 0.25 * ar.size


# -- the all-groups pass ----------------------------------------------------------

# Fixed before the group pass was written: its log ratios must match a direct
# evaluation of the joint posterior, and its incremental caches a freshly
# built target's.
GROUP_LOG_RATIO_TOL = 1e-9
GROUP_CACHE_TOL = 1e-10
CACHED_FIELDS = ("eta", "row_terms", "group_lik", "lik_total", "prior_quad", "phi",
                 "hyper_lp", "q_mat", "q_logdet")


def _recenter_pairs(ctx):
    return [(a, k) for a in range(ctx.q) for k in range(ctx.p)
            if np.array_equal(ctx.X[:, k], ctx.Z[:, a])]


def _group_target(random, lam, rng):
    study = simulate_study(seed=4, n_groups=6, n_total=48, random=random)
    priors = replace(default_priors(study.spec), intercept_precision=1e-2)
    ctx = ModelContext(study.data, study.spec, priors)
    theta = (HyperPoint.from_natural(80.0, 40.0) if ctx.q == 1
             else HyperPoint.from_natural(80.0, 40.0, 300.0, 0.3))
    x = rng.normal(scale=0.3, size=ctx.n_latent)
    target = _BetaModelTarget(ctx, theta.as_array(), x, lam, _recenter_pairs(ctx))
    delta = rng.normal(scale=0.2, size=(ctx.n_groups, ctx.q))
    return ctx, theta, x, target, delta


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("random", ["intercept", "intercept+slope"])
def test_group_pass_log_ratios_match_joint_posterior(random, lam, rng):
    ctx, theta, x, target, delta = _group_target(random, lam, rng)
    logr = target.stage_groups(delta)
    assert logr.shape == (ctx.n_groups,)
    base = ctx.joint_log_posterior(x, theta)
    base_lik = ctx.loglik(ctx.eta(x), theta.phi)
    for i in range(ctx.n_groups):
        moved = x.copy()
        moved[i * ctx.q : (i + 1) * ctx.q] += delta[i]
        lik_change = ctx.loglik(ctx.eta(moved), theta.phi) - base_lik
        # the joint change with its likelihood part tempered by lambda
        expected = ctx.joint_log_posterior(moved, theta) - base - (1.0 - lam) * lik_change
        assert abs(logr[i] - expected) < GROUP_LOG_RATIO_TOL, (i, logr[i], expected)


def _state(target):
    return np.concatenate([target.x_b.ravel(), target.x_beta]), HyperPoint.from_array(target.theta)


def _tempered_log_posterior(ctx, target, lam):
    x, theta = _state(target)
    return ctx.joint_log_posterior(x, theta) - (1.0 - lam) * ctx.loglik(ctx.eta(x), theta.phi)


def _assert_caches_match_fresh_target(ctx, target, lam):
    x, _ = _state(target)
    fresh = _BetaModelTarget(ctx, target.theta, x, lam, _recenter_pairs(ctx))
    for name in CACHED_FIELDS:
        np.testing.assert_allclose(getattr(target, name), getattr(fresh, name), rtol=0,
                                   atol=GROUP_CACHE_TOL, err_msg=name)


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("random", ["intercept", "intercept+slope"])
def test_group_pass_commit_keeps_caches_consistent(random, lam, rng):
    """Every site kind's staged and committed moves leave the caches equal
    to those of a target built afresh at the committed state, and each
    committed scalar or hyper move's log ratio is the tempered posterior's
    change."""
    ctx, _, _, target, delta = _group_target(random, lam, rng)
    accepted = np.arange(ctx.n_groups) % 3 != 1
    b_before = target.x_b.copy()
    target.stage_groups(delta)
    target.commit_groups(accepted)
    np.testing.assert_array_equal(target.x_b[accepted], b_before[accepted] + delta[accepted])
    np.testing.assert_array_equal(target.x_b[~accepted], b_before[~accepted])
    _assert_caches_match_fresh_target(ctx, target, lam)
    with pytest.raises(RuntimeError):
        target.commit_groups(accepted)

    m = target.theta.size
    keys = ([("beta", k) for k in range(ctx.p)] + [("theta",)]
            + [("recenter", a) for a, _ in _recenter_pairs(ctx)] + [("groups",)])
    assert ("recenter", 0) in keys
    for key in [keys[i] for _ in range(6) for i in rng.permutation(len(keys))]:
        commit = rng.random() < 0.7
        if key == ("groups",):
            target.stage_groups(rng.normal(scale=0.2, size=(ctx.n_groups, ctx.q)))
            target.commit_groups(rng.random(ctx.n_groups) < (0.6 if commit else 0.0))
        else:
            dim = m if key == ("theta",) else 1
            before = _tempered_log_posterior(ctx, target, lam)
            logr = target.log_ratio(key, rng.normal(scale=0.1, size=dim))
            if commit:
                target.commit(key)
                change = _tempered_log_posterior(ctx, target, lam) - before
                assert abs(logr - change) < GROUP_LOG_RATIO_TOL, (key, logr, change)
        _assert_caches_match_fresh_target(ctx, target, lam)

    target.log_ratio(("beta", 0), np.array([0.1]))
    with pytest.raises(RuntimeError):
        target.commit(("theta",))
    with pytest.raises(RuntimeError):
        target.commit_groups(accepted)


# -- prior recovery (likelihood switched off) ----------------------------------


def test_prior_recovery_with_likelihood_off():
    """With the likelihood mute, slope samples reproduce their own prior."""
    study = simulate_study(seed=1, n_groups=5, n_total=60)
    priors = replace(default_priors(study.spec), intercept_precision=1e-4)
    cfg = McmcConfig(
        n_chains=3, iterations=6_000, burn_in=1_000, thin=2, seed=3, likelihood_scale=0.0
    )
    out = run_mcmc(study.data, study.spec, priors=priors, config=cfg)
    prior_sd = 1.0 / np.sqrt(1e-4)
    for name in ("beta_income", "beta_intercept"):
        draws = out.draws(name)
        se = prior_sd / np.sqrt(max(out.ess(name), 1.0))
        assert abs(np.mean(draws)) < 4.0 * se
        assert np.std(draws) == pytest.approx(prior_sd, rel=0.2)


# -- end-to-end runs ------------------------------------------------------------


def test_reduced_run_diagnostics(reduced_mcmc):
    out = reduced_mcmc
    assert out.samples.shape[0] == 3
    assert out.samples.shape[1] == 5000
    assert out.max_rhat() < 1.05
    for site, rate in out.acceptance.items():
        r = np.asarray(rate, dtype=float)
        assert np.all((r >= 0.1) & (r <= 0.6)), (site, rate)
    for name in PARAMS:
        assert out.ess(name) > 200.0, name


def test_reduced_run_moments_near_laplace(reduced_mcmc, default_fit):
    for name in PARAMS:
        draws = reduced_mcmc.draws(name)
        m = default_fit.marginal(name)
        # agreement of location at the scale of the posterior sd
        assert abs(np.mean(draws) - m.mean()) < 0.1 * m.sd(), name


def test_summary_keys(reduced_mcmc):
    s = reduced_mcmc.summary()
    row = s["phi"]
    for key in ("mean", "sd", "q0.025", "q0.5", "q0.975", "rhat", "ess"):
        assert key in row
    assert row["q0.025"] < row["q0.5"] < row["q0.975"]


def test_kde_uses_log_scale_for_positive_hypers(reduced_mcmc):
    k_phi = reduced_mcmc.kde("phi")
    assert k_phi.x[0] > 0.0
    k_beta = reduced_mcmc.kde("beta_intercept")
    assert k_beta.x[0] < k_beta.x[-1]
    # the plain kernel on the same draws and effective size
    forced = kde_density(reduced_mcmc.draws("phi"), name="phi", n_eff=reduced_mcmc.ess("phi"))
    assert forced.x[0] < k_phi.x[0]


@pytest.mark.parametrize("random", ["none", "intercept", "intercept+slope"])
def test_fixed_seed_bitwise_reproducibility(random):
    study = simulate_study(seed=2, n_groups=4, n_total=32, random=random)
    assert study.spec.slope_column == ("income" if random == "intercept+slope" else None)
    cfg = McmcConfig(n_chains=2, iterations=1_500, burn_in=300, thin=3, seed=11)
    a = run_mcmc(study.data, study.spec, config=cfg)
    b = run_mcmc(study.data, study.spec, config=cfg)
    np.testing.assert_array_equal(a.samples, b.samples)
    # acceptance rates come in sweep order: fixed effects, groups, theta, recentering
    kinds = [k.split("'")[1] for k in a.acceptance]
    assert kinds == sorted(kinds, key=("beta", "b", "theta", "recenter").index)
    group_keys = sorted(k for k in a.acceptance if k.startswith("('b',"))
    n_group_sites = 0 if random == "none" else 4
    assert group_keys == sorted(str(("b", i)) for i in range(n_group_sites))
    c = run_mcmc(study.data, study.spec, config=replace(cfg, seed=12))
    assert not np.array_equal(a.samples, c.samples)


def test_progress_is_logged_once_per_chain(caplog):
    study = simulate_study(seed=2, n_groups=4, n_total=32)
    cfg = McmcConfig(n_chains=2, iterations=60, burn_in=20, thin=2, seed=1)
    with caplog.at_level(logging.INFO, logger="betamix"):
        out = run_mcmc(study.data, study.spec, config=cfg)
    lines = [r for r in caplog.records if r.name == "betamix"]
    assert [r.levelno for r in lines] == [logging.INFO, logging.INFO]
    for c, record in enumerate(lines):
        msg = record.getMessage()
        assert f"chain {c + 1} of 2" in msg and "60 sweeps" in msg
        rate = np.mean([out.acceptance[str(("b", i))][c] for i in range(4)])
        assert msg.endswith(f"mean group acceptance {rate:.3f}")


@pytest.mark.parametrize("random", ["intercept", "intercept+slope"])
def test_forked_chains_equal_the_serial_run(random, monkeypatch):
    """Three chains on two workers (one worker runs two) against one process."""
    study = simulate_study(seed=2, n_groups=4, n_total=32, random=random)
    cfg = McmcConfig(n_chains=3, iterations=300, burn_in=100, thin=2, seed=5)
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(model, "_cpus", lambda cpus=cpus: cpus)
        runs[cpus] = run_mcmc(study.data, study.spec, config=cfg)
        assert multiprocessing.active_children() == []
    forked, serial = runs[2], runs[1]
    assert np.array_equal(forked.samples, serial.samples)
    assert list(forked.acceptance) == list(serial.acceptance)
    for key, rates in serial.acceptance.items():
        assert np.array_equal(forked.acceptance[key], rates)


def test_a_failing_chain_raises_and_leaves_no_worker(monkeypatch):
    study = simulate_study(seed=2, n_groups=4, n_total=32)
    cfg = McmcConfig(n_chains=3, iterations=60, burn_in=20, thin=2, seed=1)

    def failing(*args, **kwargs):
        raise RuntimeError("sampler failed")

    monkeypatch.setattr(mcmc, "sample_metropolis", failing)
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^sampler failed$"):
        run_mcmc(study.data, study.spec, config=cfg)
    assert multiprocessing.active_children() == []


def test_export_chains(tmp_path, reduced_mcmc):
    files = export_chains(reduced_mcmc, tmp_path)
    assert len(files) == 3
    import csv

    with open(files[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(reduced_mcmc.names)
    assert len(rows) == 1 + reduced_mcmc.config.n_stored
    first = np.array(rows[1], dtype=float)
    np.testing.assert_allclose(first, reduced_mcmc.samples[0, 0], rtol=1e-12)
