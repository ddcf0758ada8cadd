"""Model selection criteria computed from a nested Laplace fit.

Three criteria, all driven by the hyperparameter integration points (the
grid for q <= 1, the central composite design for q = 2), their weights and
the Gaussian latent conditionals stored in a
:class:`~betamix.laplace.FitResult`:

* ``dic``: deviance information criterion.  The plug-in deviance is
  evaluated at the posterior means of (beta, b, phi); the posterior mean
  deviance averages the per-row expected log likelihood over the
  integration points, with each row's linear predictor treated as
  conditionally Gaussian (its exact law under the nested Laplace
  representation) and integrated by Gauss-Hermite quadrature.
* the log marginal likelihood: the unnormalized posterior integrated over
  the same points (``ThetaGrid.log_evidence``).  All proper normalizing
  constants are kept, so differences are meaningful between models fit by
  this engine on the same data.
* ``cpo``: conditional predictive ordinates through the harmonic identity
  1/CPO_i = E_posterior[1 / f(y_i | eta_i, phi)], with the same points plus
  Gauss-Hermite expectation evaluated entirely in log space.

``compare_models`` assembles the Table-style comparison: posterior means of
the shared parameters and the three criteria, one column per model, with
CSV export.

The sign convention for the CPO summary is explicit: ``mean_log`` is the
average of log CPO_i over observations, so larger (less negative) values
indicate better predictive fit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from ._io import atomic_write
from .distributions import DomainError
from .laplace import FitResult
from .model import loglik_rows

__all__ = [
    "CpoResult",
    "ModelComparison",
    "compare_models",
    "cpo",
    "dic",
]

_GH_NODES = 25


def _rowwise_loglik(fit: FitResult, cond, phi: float, nodes, ctx) -> np.ndarray:
    """Per-row log likelihood at every Gauss-Hermite abscissa, (n, k)."""
    mean, var = cond.predictor_moments(ctx.X, ctx.Z, ctx.groups, ctx.n_groups, ctx.q)
    eta = mean[:, None] + np.sqrt(2.0) * np.sqrt(var)[:, None] * nodes[None, :]
    return loglik_rows(ctx.link, ctx.y[:, None], eta, phi)


@dataclass(frozen=True)
class _GofPass:
    """The weighted sums over the integration points of the Gauss-Hermite
    row matrices that DIC and CPO use."""

    mean_dev: float  # posterior mean deviance
    x_mean: np.ndarray  # posterior mean of the latent vector
    log_inv_cpo: np.ndarray  # log E[1 / f(y_i)] per row, in model row order


def _gof_pass(fit: FitResult) -> _GofPass:
    """One pass over the integration points with mass (grid or design, read
    through ``weights``, ``theta`` and ``conditionals`` alike), building each
    point's row matrix once for both criteria; kept on the fit, whose
    points are fixed."""
    if fit._gof_pass is not None:
        return fit._gof_pass
    ctx = fit._require_ctx()
    grid = fit.theta_grid
    if grid is None or grid.conditionals is None:
        raise DomainError("fit carries no hyperparameter grid with conditionals")
    nodes, gh_w = np.polynomial.hermite.hermgauss(_GH_NODES)
    gh_w = gh_w / np.sqrt(np.pi)
    log_gh_w = np.log(gh_w)
    phis = grid.natural_values(0)

    mean_dev = 0.0
    x_mean = np.zeros(ctx.n_latent)
    terms = []
    for t in range(grid.size):
        w = float(grid.weights[t])
        if w <= 0.0:
            continue
        cond = grid.conditionals[t]
        ll = _rowwise_loglik(fit, cond, float(phis[t]), nodes, ctx)
        mean_dev += w * (-2.0) * float(np.sum(ll @ gh_w))
        x_mean += w * cond.mean
        # log E_cond[1/f] per row, then weighted across the points; the
        # max-shifted sum is scipy's logsumexp without its per-call checks
        a = log_gh_w[None, :] - ll
        top = a.max(axis=1)
        terms.append(np.log(w) + top + np.log(np.exp(a - top[:, None]).sum(axis=1)))
    fit._gof_pass = _GofPass(mean_dev, x_mean, logsumexp(np.vstack(terms), axis=0))
    return fit._gof_pass


def dic(fit: FitResult) -> tuple[float, float]:
    """Deviance information criterion and effective parameter count.

    Returns ``(DIC, p_D)`` with ``DIC = D(mean) + 2 p_D`` and
    ``p_D = E[D] - D(mean)``; the deviance is -2 times the beta log
    likelihood only, so prior terms never enter.  A negative ``p_D``
    indicates the posterior approximation failed badly; it is returned
    as computed so callers can flag it.
    """
    gof = _gof_pass(fit)
    ctx = fit._require_ctx()
    phi_mean = fit.theta_grid.hyper_mean(0)
    eta_mean = ctx.eta(gof.x_mean)
    d_hat = -2.0 * ctx.loglik(eta_mean, phi_mean)
    p_d = gof.mean_dev - d_hat
    return d_hat + 2.0 * p_d, p_d


@dataclass(frozen=True)
class CpoResult:
    """Conditional predictive ordinates in the caller's row order."""

    values: np.ndarray
    log_values: np.ndarray
    mean_log: float
    zero_rows: tuple[int, ...]


def cpo(fit: FitResult) -> CpoResult:
    """Conditional predictive ordinate of every observation.

    Uses the harmonic identity: the posterior expectation of the reciprocal
    row likelihood, accumulated in log space over the integration points and
    the Gauss-Hermite abscissae so extreme rows cannot overflow.  Rows whose CPO
    underflows to zero are reported in ``zero_rows`` (indices in the
    caller's row order).
    """
    ctx = fit._require_ctx()
    log_cpo_orig = ctx.data.to_original_order(-_gof_pass(fit).log_inv_cpo)
    values = np.exp(log_cpo_orig)
    zero_rows = tuple(int(i) for i in np.flatnonzero(values <= 0.0))
    return CpoResult(
        values=values,
        log_values=log_cpo_orig,
        mean_log=float(np.mean(log_cpo_orig)),
        zero_rows=zero_rows,
    )


@dataclass(frozen=True)
class ModelComparison:
    """Posterior means and selection criteria, one column per model."""

    model_names: tuple[str, ...]
    param_names: tuple[str, ...]
    means: np.ndarray  # (n_params, n_models), NaN where a model lacks the row
    lml: np.ndarray
    dic: np.ndarray
    p_d: np.ndarray
    mean_log_cpo: np.ndarray

    @property
    def best_lml(self) -> str:
        return self.model_names[int(np.argmax(self.lml))]

    @property
    def best_dic(self) -> str:
        return self.model_names[int(np.argmin(self.dic))]

    def rows(self) -> list[list[str]]:
        """Table body as strings: one row per quantity, one column per model."""
        out = [["quantity", *self.model_names]]
        for j, name in enumerate(self.param_names):
            cells = [
                "" if np.isnan(v) else f"{v:.4f}" for v in self.means[j]
            ]
            out.append([name, *cells])
        out.append(["log marginal likelihood", *[f"{v:.2f}" for v in self.lml]])
        out.append(["DIC", *[f"{v:.2f}" for v in self.dic]])
        out.append(["p_D", *[f"{v:.2f}" for v in self.p_d]])
        out.append(["mean log CPO", *[f"{v:.4f}" for v in self.mean_log_cpo]])
        out.append(["best LML", *["*" if m == self.best_lml else "" for m in self.model_names]])
        out.append(["best DIC", *["*" if m == self.best_dic else "" for m in self.model_names]])
        return out

    def write_csv(self, path) -> str:
        with atomic_write(path) as fh:
            csv.writer(fh).writerows(self.rows())
        return str(path)


def compare_models(fits: list[FitResult]) -> ModelComparison:
    """Selection criteria side by side for models fit on the same data.

    Parameter rows are the union of the models' parameter names in first
    appearance order; a model that lacks a row gets an empty cell.
    """
    if not fits:
        raise DomainError("need at least one fit to compare")
    fp = fits[0].data_fingerprint
    for f in fits[1:]:
        if f.data_fingerprint != fp:
            raise DomainError("fits were computed on different datasets")

    names: list[str] = []
    for f in fits:
        for name in f.param_names:
            if name not in names:
                names.append(name)

    n_m = len(fits)
    means = np.full((len(names), n_m), np.nan)
    lml = np.empty(n_m)
    dic_v = np.empty(n_m)
    p_d = np.empty(n_m)
    mlc = np.empty(n_m)
    model_names = []
    for m, f in enumerate(fits):
        model_names.append(f.model_name or f"model_{m + 1}")
        for j, name in enumerate(names):
            if name in f.param_names:
                means[j, m] = f.posterior_mean(name)
        lml[m] = f.theta_grid.log_evidence
        dic_v[m], p_d[m] = dic(f)
        mlc[m] = cpo(f).mean_log

    return ModelComparison(
        model_names=tuple(model_names),
        param_names=tuple(names),
        means=means,
        lml=lml,
        dic=dic_v,
        p_d=p_d,
        mean_log_cpo=mlc,
    )
