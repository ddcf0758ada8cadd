"""Output checks, computed apart from the package.

Every check returns a list of problems; an empty list means the output
passed.  Densities come from ``scipy.stats``, integrals from the
benchmark's own quadrature rules, and the design matrices are rebuilt here
from the study's columns, so a check does not share the code it checks.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, optimize, special, stats

from studies import Study

#: chi-square(1) 0.95 quantile over two: the drop that ends a 95 % profile interval
PROFILE_DROP = 0.5 * float(stats.chi2.ppf(0.95, 1))
#: the fixed-effect labels of the size + income design, intercept first
BETA_NAMES = ("beta_intercept", "beta_size_Medium", "beta_size_Small", "beta_income")

_NODES, _WEIGHTS = np.polynomial.hermite_e.hermegauss(20)
_WEIGHTS = _WEIGHTS / np.sqrt(2.0 * np.pi)  # E g(Z) for Z ~ N(0, 1) is sum(w * g(node))


def design(study: Study) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed design X, random design Z and 0-based group index per row."""
    X = np.column_stack([
        np.ones(study.n),
        (study.size == "Medium").astype(float),
        (study.size == "Small").astype(float),
        study.income,
    ])
    q = 1 if study.random == "intercept" else 2
    Z = np.ones((study.n, 1)) if q == 1 else np.column_stack([np.ones(study.n), study.income])
    labels = np.unique(study.group)
    return X, Z, np.searchsorted(labels, study.group)


def beta_loglik(y, eta, phi):
    """Row log densities of the logit-link mean/precision beta, by scipy.stats."""
    mu = np.clip(special.expit(eta), 1e-12, 1.0 - 1e-12)
    return stats.beta.logpdf(y, mu * phi, (1.0 - mu) * phi)


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    return bool(np.isfinite(a) and np.isfinite(b) and abs(a - b) <= atol + rtol * abs(b))


# ---------------------------------------------------------------------------
# slope_fit: marginals, DIC and CPO of a nested Laplace fit
# ---------------------------------------------------------------------------


def laplace_gof(fit, study: Study, chunk: int = 64) -> dict[str, float]:
    """DIC, p_D and mean log CPO from the fit's grid weights and Gaussian
    latent conditionals, with a 20-node Hermite rule and scipy's beta."""
    X, Z, g = design(study)
    y = study.y
    grid = fit.theta_grid
    keep = np.flatnonzero(grid.weights > 0.0)
    n_b = Z.shape[1] * int(g.max() + 1)
    q = Z.shape[1]
    mean_dev = 0.0
    log_inv_cpo = np.full(y.size, -np.inf)
    x_mean = 0.0
    phi_mean = 0.0
    for start in range(0, keep.size, chunk):
        idx = keep[start:start + chunk]
        w = grid.weights[idx]
        phi = np.exp(grid.theta[idx, 0])
        conds = [grid.conditionals[t] for t in idx]
        mean = np.stack([c.mean for c in conds])  # (T, n_latent)
        b = mean[:, :n_b].reshape(len(idx), -1, q)[:, g, :]  # (T, n, q)
        eta = mean[:, n_b:] @ X.T + np.einsum("tnq,nq->tn", b, Z)
        v_xx = np.stack([c.v_xx for c in conds])
        v_bb = np.stack([c.v_bb for c in conds])[:, g]
        c_bx = np.stack([c.c_bx for c in conds])[:, g]
        var = (np.einsum("np,tps,ns->tn", X, v_xx, X)
               + np.einsum("nq,tnqr,nr->tn", Z, v_bb, Z)
               + 2.0 * np.einsum("nq,tnqp,np->tn", Z, c_bx, X))
        nodes = eta[..., None] + np.sqrt(np.maximum(var, 0.0))[..., None] * _NODES
        ll = beta_loglik(y[None, :, None], nodes, phi[:, None, None])  # (T, n, K)
        mean_dev += float(np.sum(w * (-2.0) * np.sum(ll @ _WEIGHTS, axis=1)))
        inv = special.logsumexp(np.log(_WEIGHTS) - ll, axis=2) + np.log(w)[:, None]
        log_inv_cpo = np.logaddexp(log_inv_cpo, special.logsumexp(inv, axis=0))
        x_mean = x_mean + w @ mean
        phi_mean += float(w @ phi)
    b_mean = x_mean[:n_b].reshape(-1, q)[g]
    eta_mean = X @ x_mean[n_b:] + np.sum(Z * b_mean, axis=1)
    d_hat = -2.0 * float(np.sum(beta_loglik(y, eta_mean, phi_mean)))
    p_d = mean_dev - d_hat
    return {"dic": d_hat + 2.0 * p_d, "p_d": p_d, "mean_log_cpo": float(np.mean(-log_inv_cpo))}


def check_laplace_fit(fit, study: Study) -> list[str]:
    problems = []
    for name, m in fit.marginals.items():
        mass = float(np.trapezoid(m.pdf, m.x))
        if not (np.all(np.isfinite(m.pdf)) and np.all(m.pdf >= 0.0) and abs(mass - 1.0) < 1e-6):
            problems.append(f"marginal {name} integrates to {mass!r}")
    grid = fit.theta_grid
    if abs(float(np.sum(grid.weights)) - 1.0) > 1e-9:
        problems.append("grid weights do not sum to 1")
    # fixed-effect marginals are Gaussian mixtures: their means are the
    # weighted conditional means
    n_b = len(fit.latent_names) - len(BETA_NAMES)
    if tuple(fit.latent_names[n_b:]) != BETA_NAMES:
        return problems + [f"unexpected latent layout {fit.latent_names[n_b:]}"]
    mix = sum(w * c.mean[n_b:] for w, c in zip(grid.weights, grid.conditionals))
    for k, name in enumerate(BETA_NAMES):
        got = fit.marginals[name].mean()
        if not _close(got, float(mix[k]), 0.0, 1e-6 * float(np.sqrt(grid.conditionals[0].v_xx[k, k]))):
            problems.append(f"{name} marginal mean {got} != mixture mean {mix[k]}")
    if fit.gof is None:
        return problems + ["fit carries no goodness of fit"]
    ref = laplace_gof(fit, study)
    for key, rtol in (("dic", 1e-6), ("p_d", 1e-4), ("mean_log_cpo", 1e-6)):
        if not _close(fit.gof[key], ref[key], rtol, 1e-6):
            problems.append(f"{key} {fit.gof[key]!r} differs from recomputed {ref[key]!r}")
    return problems


# ---------------------------------------------------------------------------
# scan_wide: prior distances of a Hellinger sensitivity scan
# ---------------------------------------------------------------------------


def gamma_hellinger(shape1, rate1, shape2, rate2) -> float:
    """Hellinger distance of two gammas by quadrature on the log axis."""
    def overlap(u):
        x = np.exp(u)
        lf = stats.gamma.logpdf(x, shape1, scale=1.0 / rate1)
        lg = stats.gamma.logpdf(x, shape2, scale=1.0 / rate2)
        return np.exp(0.5 * (lf + lg) + u)

    # below u = -100 the overlap is under exp(-50 min(shape)); above the upper
    # limit it is under exp(-500)
    modes = sorted(np.log([shape1 / rate1, shape2 / rate2]))
    upper = float(np.log(1000.0 * max(1.0, shape1, shape2) / min(rate1, rate2)))
    bc, _ = integrate.quad(overlap, -100.0, upper, points=modes, epsabs=1e-13,
                           epsrel=1e-12, limit=500)
    return float(np.sqrt(max(1.0 - bc, 0.0)))


def check_scan(report, tau_truth: float) -> list[str]:
    problems = []
    base = report.base_prior
    for row in report.rows:
        if not row.ok:
            problems.append(f"row {row.target}: {row.error}")
            continue
        h = gamma_hellinger(base.shape, base.rate, row.prior.shape, row.prior.rate)
        if abs(h - row.target) > 1e-8 or abs(h - row.prior_h) > 1e-8:
            problems.append(f"row {row.target}: prior distance {row.prior_h} recomputed {h}")
        if not 0.0 <= row.posterior_h < h:
            problems.append(f"row {row.target}: posterior moved {row.posterior_h} >= prior {h}")
    # a four-SD band: a 95 % interval would miss the truth on one seed in twenty
    s = report.default_summary["tau1_sq"]
    if not abs(s["mean"] - tau_truth) <= 4.0 * s["sd"]:
        problems.append(f"tau1_sq posterior {s['mean']} +- {s['sd']} misses {tau_truth}")
    return problems


# ---------------------------------------------------------------------------
# mcmc_wide: chain means and acceptance rates
# ---------------------------------------------------------------------------


def check_chains(out, truth: dict[str, float], n_sd: float = 6.0) -> list[str]:
    problems = []
    for name in (*BETA_NAMES, "phi"):
        draws = out.draws(name)
        mean, sd = float(np.mean(draws)), float(np.std(draws, ddof=1))
        if not (np.isfinite(mean) and sd > 0.0 and abs(mean - truth[name]) <= n_sd * sd):
            problems.append(f"{name}: chain mean {mean} +- {sd} vs generating {truth[name]}")
    for site, rates in out.acceptance.items():
        rates = np.asarray(rates)
        if not np.all((rates > 0.05) & (rates < 0.95)):
            problems.append(f"site {site}: acceptance {rates.tolist()}")
    return problems


# ---------------------------------------------------------------------------
# ml_profile: the marginal likelihood and profile interval ends
# ---------------------------------------------------------------------------


class QuadratureLoglik:
    """Random-intercept marginal log likelihood, one adaptive Gauss-Hermite
    integral per group around a Newton mode of the group's integrand."""

    #: log of weight / N(node; 0, 1), so that sum(exp(log_w) g(node)) integrates g
    log_w = np.log(_WEIGHTS) + 0.5 * _NODES**2 + 0.5 * np.log(2.0 * np.pi)

    def __init__(self, study: Study):
        self.X, _, self.g = design(study)
        self.y = study.y
        self.n_groups = int(self.g.max() + 1)
        self.logit_y = np.log(self.y) - np.log1p(-self.y)

    def _group_sums(self, v):
        return np.bincount(self.g, weights=v, minlength=self.n_groups)

    def __call__(self, vec) -> float:
        """``vec`` = (beta, log phi, log tau1_sq), the package's coordinates."""
        vec = np.asarray(vec, dtype=float)
        beta, phi, tau = vec[:4], np.exp(vec[4]), np.exp(vec[5])
        eta0 = self.X @ beta
        b = np.zeros(self.n_groups)
        for _ in range(50):
            mu = special.expit(eta0 + b[self.g])
            a, c = mu * phi, (1.0 - mu) * phi
            d1 = mu * (1.0 - mu)
            s_mu = phi * (special.digamma(c) - special.digamma(a) + self.logit_y)
            c_mu = -phi**2 * (special.polygamma(1, a) + special.polygamma(1, c))
            grad = self._group_sums(s_mu * d1) - tau * b
            curv = tau - self._group_sums(c_mu * d1 * d1 + s_mu * d1 * (1.0 - 2.0 * mu))
            step = grad / curv
            b = b + step
            if np.max(np.abs(step)) < 1e-10:
                break
        sd = 1.0 / np.sqrt(curv)
        nodes = b[:, None] + sd[:, None] * _NODES[None, :]  # (groups, K)
        ll = beta_loglik(self.y[:, None], eta0[:, None] + nodes[self.g], phi)
        h = np.zeros(nodes.shape)
        np.add.at(h, self.g, ll)
        h += 0.5 * np.log(tau / (2.0 * np.pi)) - 0.5 * tau * nodes**2
        # integral of exp(h) over b = sd * integral over z of exp(h(b + sd z))
        return float(np.sum(special.logsumexp(h + self.log_w, axis=1) + np.log(sd)))

    def maximise(self, start, fixed: int | None = None, value: float | None = None):
        """Maximum over all coordinates, or over all but ``fixed`` held at ``value``."""
        start = np.asarray(start, dtype=float)
        free = [k for k in range(start.size) if k != fixed]

        def full(w):
            v = start.copy()
            v[free] = w
            if fixed is not None:
                v[fixed] = value
            return v

        res = optimize.minimize(lambda w: -self(full(w)), start[free], method="BFGS",
                                options={"gtol": 1e-4})
        return -float(res.fun), full(res.x)


def check_ml_fit(fit, loglik_at_mle: float, quad: QuadratureLoglik) -> list[str]:
    """The package's Laplace marginal likelihood at the MLE against quadrature."""
    problems = []
    ref = quad(fit.vector)
    # Laplace's error is 6.5e-4 on the ml_profile study, 1.9e-3 on the
    # self-test's six groups of 20 rows
    if not _close(loglik_at_mle, ref, 0.0, 0.01):
        problems.append(f"marginal_loglik at the MLE {loglik_at_mle} vs quadrature {ref}")
    if not _close(fit.loglik, loglik_at_mle, 0.0, 1e-6):
        problems.append(f"fit.loglik {fit.loglik} vs marginal_loglik {loglik_at_mle}")
    return problems


def check_profile(fit, interval, quad: QuadratureLoglik, peak: tuple[float, np.ndarray],
                  tol: float = 0.02) -> list[str]:
    """Each finite end of a profile interval lies PROFILE_DROP below the peak
    of the quadrature likelihood, re-optimised over the other coordinates."""
    problems = []
    j = fit.index(interval.name)
    top, v_top = peak
    for end in (interval.lower, interval.upper):
        if not (np.isfinite(end) and end > 0.0):
            problems.append(f"{interval.name}: open interval end {end}")
            continue
        prof, _ = quad.maximise(v_top, fixed=j, value=float(np.log(end)))
        drop = top - prof
        if abs(drop - PROFILE_DROP) > tol:
            problems.append(f"{interval.name} end {end}: drop {drop:.5f} != {PROFILE_DROP:.5f}")
    return problems
