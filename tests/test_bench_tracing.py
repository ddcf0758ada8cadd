"""The benchmark's tracer still wraps the package: every wrapper installs,
the likelihood and Laplace layers are counted, and the originals come back.

``bench/tracing.py`` patches functions and methods by name, so renaming one
of them inside the package would otherwise only show up as a broken traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from betamix import laplace, likelihood, mcmc
from betamix.simulate import simulate_study

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_every_engine_layer(tracing):
    study = simulate_study(seed=3, n_groups=4, n_total=60)
    original_call = likelihood._MarginalLoglik.__dict__["__call__"]
    tracer = tracing.Tracer()
    # called through the modules, as the benchmark does: the tracer replaces
    # module attributes, not names already imported elsewhere
    with tracing.installed(tracer):
        fit = likelihood.ml_fit(study.data, study.spec)
        likelihood.profile_interval(fit, "beta_income")
        laplace.fit_laplace(study.data, study.spec,
                            options=laplace.LaplaceOptions(compute_gof=False))

    assert likelihood._MarginalLoglik.__dict__["__call__"] is original_call
    assert tracer.counts["likelihood.fit_evals"] > 0
    assert tracer.counts["likelihood.profile_evals"] > 0
    assert tracer.counts["distributions.logpdf_rows"] > 0
    assert tracer.counts["distributions.score_rows"] > 0
    assert tracer.counts["laplace.grid_points"] > 0
    for span in ("likelihood.ml_fit", "likelihood.profile_interval",
                 "likelihood._MarginalLoglik.__call__", "laplace.fit_laplace",
                 "laplace.explore_theta", "laplace.find_conditional_mode",
                 "model.ModelContext.grad_hessian"):
        assert tracer.n_calls(span) > 0, span
    layers = tracing.layer_metrics(tracer, rounds=1)
    # the tracer counts calls of the stacked evaluator, one per stencil;
    # ``n_eval`` counts the points in them
    assert layers["likelihood.fit_evals"] + layers["likelihood.profile_evals"] == fit._lik.n_calls
    # the one outer search calls scipy through the name the tracer wraps,
    # and no fallback search runs after it
    assert layers["laplace.optimizer_fallbacks"] == 0
    assert layers["laplace.optimizer_runs"] >= 1
    assert layers["laplace.optimizer_evals"] > 0
    assert layers["likelihood.optimizer_runs"] >= 1


def test_tracer_counts_every_scalar_and_hyper_site(tracing):
    study = simulate_study(seed=3, n_groups=4, n_total=60)
    original = {verb: mcmc._BetaModelTarget.__dict__[verb] for verb in ("log_ratio", "commit")}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        mcmc.run_mcmc(study.data, study.spec,
                      config=mcmc.McmcConfig(n_chains=1, iterations=40, burn_in=20, thin=1))

    for verb, fn in original.items():
        assert mcmc._BetaModelTarget.__dict__[verb] is fn, verb
    layers = tracing.layer_metrics(tracer, rounds=1)
    for kind in ("beta", "theta", "recenter"):
        assert layers[f"mcmc.site_updates.{kind}"] > 0, kind
