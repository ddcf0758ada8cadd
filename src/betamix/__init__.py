"""Bayesian and likelihood inference for beta mixed regression.

Responses in (0, 1) are modeled with a beta law in the mean/precision
parametrization; the mean follows a link-transformed linear predictor with
optional group-level random intercepts or intercept+slope pairs.

Three inference engines share one model core: a nested Laplace
approximation over the hyperparameters (a grid for q <= 1, INLA's central
composite design for q = 2; fast, deterministic), an adaptive
Metropolis-within-Gibbs sampler (the simulation cross-check), and maximum
likelihood with profile intervals, whose group integrals are Laplace
approximations around modes found by one batched Newton over all groups.
Model choice uses the log marginal likelihood, DIC and cross-validatory
CPO; prior robustness is quantified with calibrated Hellinger scans.
"""

from .config import AnalysisConfig, load_csv
from .density import MarginalDensity, kde_density
from .distributions import DomainError, GammaShapeRate
from .laplace import FitResult, LaplaceOptions, fit_laplace
from .likelihood import (
    MLFit,
    ProfileInterval,
    marginal_loglik,
    ml_fit,
    profile_interval,
)
from .mcmc import ChainOutput, McmcConfig, run_mcmc
from .model import Dataset, HyperPoint, ModelContext, ModelSpec
from .priors import (
    ElicitationInput,
    PriorSpec,
    WishartPrior,
    default_priors,
    elicit_gamma_prior,
    elicited_range_roundtrip,
)
from .selection import ModelComparison, compare_models, cpo, dic
from .sensitivity import calibrate_prior, gamma_hellinger_closed, hellinger, sensitivity_scan
from .simulate import SimulatedStudy, simulate_study

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "ChainOutput",
    "Dataset",
    "DomainError",
    "ElicitationInput",
    "FitResult",
    "GammaShapeRate",
    "HyperPoint",
    "LaplaceOptions",
    "MLFit",
    "MarginalDensity",
    "McmcConfig",
    "ModelComparison",
    "ModelContext",
    "ModelSpec",
    "PriorSpec",
    "ProfileInterval",
    "SimulatedStudy",
    "WishartPrior",
    "calibrate_prior",
    "compare_models",
    "cpo",
    "default_priors",
    "dic",
    "elicit_gamma_prior",
    "elicited_range_roundtrip",
    "fit_laplace",
    "gamma_hellinger_closed",
    "hellinger",
    "kde_density",
    "load_csv",
    "marginal_loglik",
    "ml_fit",
    "profile_interval",
    "run_mcmc",
    "sensitivity_scan",
    "simulate_study",
    "__version__",
]
