"""Adaptive Metropolis-within-Gibbs sampler for the beta mixed model.

This is the cross-check engine: it targets exactly the same unnormalized
joint posterior as the nested Laplace approximation but shares none of its
computational shortcuts, so agreement between the two is evidence that both
are right.

One sweep visits, in this order:

1. every fixed effect, as a scalar site;
2. every group's effect vector, each as its own block site, all in one
   vector pass;
3. the unconstrained hyperparameters, as one block;
4. the recentering sites (below).

The group pass is exact, not an approximation.  Given the fixed effects and
the hyperparameters, the group effects are conditionally independent and
each one touches only its own rows: a move of group i changes its prior
quadratic form, its rows' linear predictor and its likelihood sum, and no
other group's acceptance ratio.  Proposing every group at once, computing
all N log ratios with a handful of array operations, and accepting or
rejecting each against its own uniform is therefore the same kernel as
visiting the groups one after another.  The normals and uniforms come from
the same slices of the sweep's draws that a one-group-at-a-time loop would
use, so the seeded chain is that loop's chain.

Proposal scales adapt toward standard target rates (0.44 for scalars, 0.234
for blocks, each group on its own) in windows during burn-in only, with
diminishing step sizes; after burn-in the kernels are fixed, so the
post-burn-in chain is a plain Metropolis-within-Gibbs sampler.

A fixed effect whose column also carries a random effect (the intercept,
and the slope column when present) rides a near-flat ridge against the
group effects: adding d to the coefficient and subtracting d from every
group effect leaves the linear predictor untouched.  One extra scalar
"recentering" site per such pair proposes exactly that exchange; the
likelihood cancels from its acceptance ratio, only the priors enter, and
mixing along the ridge improves by orders of magnitude.

The chain state keeps the linear predictor and per-group likelihood sums
incrementally, which makes a sweep cost a handful of vector operations
rather than a full model evaluation per site.

``likelihood_scale`` tempers the likelihood contribution: 1 is the posterior
and 0 drops the data entirely, in which case the sampler must reproduce the
prior (a standard end-to-end correctness check; it requires proper priors on
the fixed effects).

Reproducibility: one integer seed drives every chain through spawned
``numpy.random.SeedSequence`` children, so results are identical run to run
regardless of how many chains are drawn.  Progress goes to the ``betamix``
logger, one ``INFO`` line per chain.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from ._io import atomic_write
from .density import MarginalDensity, kde_density
from .distributions import DomainError
from .model import MU_EPS, Dataset, HyperPoint, ModelContext, ModelSpec
from .priors import PriorSpec, default_priors

__all__ = [
    "McmcConfig",
    "Site",
    "GroupSites",
    "sample_metropolis",
    "ChainOutput",
    "run_mcmc",
    "gelman_rubin",
    "effective_sample_size",
    "interval_containment",
    "export_chains",
]

logger = logging.getLogger("betamix")

# hyper sites with positive support, density-estimated on the log scale
_POSITIVE_SITES = frozenset({"phi", "tau1_sq", "tau2_sq"})


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; the defaults are the full verification protocol."""

    n_chains: int = 3
    iterations: int = 500_000
    burn_in: int = 10_000
    thin: int = 100
    seed: int = 0
    likelihood_scale: float = 1.0
    adapt_window: int = 50
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise DomainError("need at least one chain")
        if self.burn_in >= self.iterations:
            raise DomainError("burn-in must be shorter than the run")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if not 0.0 <= self.likelihood_scale <= 1.0:
            raise DomainError("likelihood_scale must lie in [0, 1]")

    @property
    def n_stored(self) -> int:
        return (self.iterations - self.burn_in) // self.thin


def _target_rate(dim: int) -> float:
    return 0.44 if dim == 1 else 0.234


def _adapted(scale, rate, target_rate: float, gain: float):
    """One adaptation step: scale * exp(gain * (rate - target)), clamped."""
    return np.clip(scale * np.exp(gain * (rate - target_rate)), 1e-8, 1e8)


@dataclass
class Site:
    """One Metropolis site: key, dimension and its (adaptive) proposal."""

    key: tuple
    dim: int
    scale: float
    chol: np.ndarray | None = None  # proposal shape; None means identity
    target_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.target_rate == 0.0:
            self.target_rate = _target_rate(self.dim)


@dataclass
class GroupSites:
    """The N group-effect sites ``("b", i)``, swept in one vector pass.

    Group i proposes ``scales[i] * chols[i] @ z_i``; each group keeps its
    own acceptance count and adapts its own scale.
    """

    chols: np.ndarray  # (N, q, q) proposal shapes
    scales: np.ndarray  # (N,)
    target_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.target_rate == 0.0:
            self.target_rate = _target_rate(self.dim)

    @property
    def dim(self) -> int:
        return self.chols.shape[1]

    @property
    def keys(self) -> list[tuple]:
        return [("b", i) for i in range(self.scales.size)]


def sample_metropolis(
    target,
    sites: list[Site | GroupSites],
    iterations: int,
    burn_in: int,
    thin: int,
    rng: np.random.Generator,
    adapt_window: int = 50,
) -> tuple[np.ndarray, dict[tuple, float]]:
    """Generic adaptive Metropolis-within-Gibbs sweep driver.

    ``sites`` is the sweep in order.  For a `Site`, ``target`` must provide
    ``log_ratio(key, delta) -> float`` (stage a move of site ``key`` by
    ``delta`` and return the log acceptance ratio) and ``commit(key)``
    (apply the staged move).  For a `GroupSites` block it must provide
    ``stage_groups(delta) -> ndarray`` (stage every group's move, ``delta``
    of shape (N, q), and return the N log ratios) and
    ``commit_groups(accepted)`` (apply the staged moves where the boolean
    mask is true).  ``param_vector() -> ndarray`` gives the recorded state.
    Each sweep draws one normal per site coordinate and one uniform per
    site, in site order.  Returns the stored draws (one row per ``thin``
    post-burn-in sweeps, ``(iterations - burn_in) // thin`` in total) and
    the post-burn-in acceptance rate per site key.
    """
    n_params = target.param_vector().size
    n_stored = (iterations - burn_in) // thin
    out = np.empty((n_stored, n_params))
    keys: list[tuple] = []
    layout = []  # (site, offset into the normals, offset into the uniforms)
    total_dim = 0
    for site in sites:
        layout.append((site, total_dim, len(keys)))
        if isinstance(site, GroupSites):
            keys += site.keys
            total_dim += site.scales.size * site.dim
        else:
            keys.append(site.key)
            total_dim += site.dim
    n_sites = len(keys)
    acc_run = np.zeros(n_sites, dtype=np.int64)
    acc_win = np.zeros(n_sites, dtype=np.int64)
    stored = 0
    log = np.log
    log_ratio = target.log_ratio
    commit = target.commit

    for it in range(iterations):
        z_all = rng.standard_normal(total_dim)
        u_all = rng.random(n_sites)
        in_burnin = it < burn_in
        acc = acc_win if in_burnin else acc_run
        for site, zo, uo in layout:
            if isinstance(site, GroupSites):
                n, q = site.scales.size, site.dim
                z = z_all[zo : zo + n * q].reshape(n, q, 1)
                # a stacked matmul runs the same q x q product per group as
                # a lone ``chol @ z`` would, so the proposals match bit for bit
                delta = site.scales[:, None] * np.matmul(site.chols, z)[:, :, 0]
                logr = target.stage_groups(delta)
                accepted = (logr >= 0.0) | (log(u_all[uo : uo + n]) < logr)
                target.commit_groups(accepted)
                acc[uo : uo + n] += accepted
            else:
                z = z_all[zo : zo + site.dim]
                delta = site.scale * (site.chol @ z if site.chol is not None else z)
                logr = log_ratio(site.key, delta)
                if logr >= 0.0 or log(u_all[uo]) < logr:
                    commit(site.key)
                    acc[uo] += 1
        if in_burnin:
            if (it + 1) % adapt_window == 0:
                gain = 1.0 / np.sqrt((it + 1) // adapt_window)
                rate = acc_win / adapt_window
                for site, _, uo in layout:
                    if isinstance(site, GroupSites):
                        site.scales = _adapted(site.scales, rate[uo : uo + site.scales.size],
                                               site.target_rate, gain)
                    else:
                        site.scale = float(_adapted(site.scale, rate[uo], site.target_rate, gain))
                acc_win[:] = 0
        elif (it - burn_in) % thin == thin - 1:
            out[stored] = target.param_vector()
            stored += 1

    denom = max(iterations - burn_in, 1)
    rates = {keys[s]: float(acc_run[s]) / denom for s in range(n_sites)}
    return out[:stored], rates


# ---------------------------------------------------------------------------
# model target with incremental caches
# ---------------------------------------------------------------------------


class _BetaModelTarget:
    """Sampler state for the beta mixed model with incremental bookkeeping.

    Caches the linear predictor, per-row log likelihood terms, per-group
    likelihood sums, the random-effect prior quadratic forms and the
    hyperprior value; each site move touches only what it invalidates.
    """

    def __init__(self, ctx: ModelContext, theta0: np.ndarray, x0: np.ndarray,
                 likelihood_scale: float, recenter_pairs: list[tuple[int, int]]):
        self.ctx = ctx
        self.lam = float(likelihood_scale)
        if self.lam == 0.0 and np.any(ctx.beta_prior_prec <= 0.0):
            raise DomainError(
                "prior sampling (likelihood_scale = 0) requires proper priors "
                "on every fixed effect; set intercept_precision > 0"
            )
        self.x_b, self.x_beta = (a.copy() for a in ctx.split(np.asarray(x0, dtype=float)))
        self.theta = np.asarray(theta0, dtype=float).copy()
        self.ylog = np.log(ctx.y)
        self.y1mlog = np.log1p(-ctx.y)
        self.ylog_both = self.ylog + self.y1mlog
        self._linkinv = ctx.link.inv
        self.starts = ctx.group_starts
        self.eta = ctx.eta(np.asarray(x0, dtype=float))
        self._staged: tuple | None = None
        self._rebuild_theta_caches()
        self._rebuild_lik_caches()
        self.beta_lp = ctx.beta_log_prior(self.x_beta)
        self.recenter_fixed = dict(recenter_pairs)  # random column -> fixed column

    # -- cache plumbing ------------------------------------------------------

    def _hyper(self, theta: np.ndarray) -> HyperPoint:
        return HyperPoint.from_array(theta)

    def _rebuild_theta_caches(self) -> None:
        hp = self._hyper(self.theta)
        self.phi = hp.phi
        self.hyper_lp = self.ctx.hyper_log_prior(hp)
        if self.ctx.q:
            self.q_mat = hp.precision_matrix()
            chol = np.linalg.cholesky(self.q_mat)
            self.q_logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
            self.prior_quad = 0.5 * np.einsum("nq,qr,nr->n", self.x_b, self.q_mat, self.x_b)
        else:
            self.q_mat = None
            self.q_logdet = 0.0
            self.prior_quad = np.zeros(0)

    def _rebuild_lik_caches(self) -> None:
        if self.lam > 0.0:
            self.row_terms = self._terms(self.eta, self.phi)
            self.group_lik = np.add.reduceat(self.row_terms, self.starts)
            self.lik_total = float(np.sum(self.group_lik))
        else:
            self.row_terms = np.zeros(self.ctx.n)
            self.group_lik = np.zeros(self.ctx.n_groups)
            self.lik_total = 0.0

    def _terms(self, eta: np.ndarray, phi: float) -> np.ndarray:
        mu = np.minimum(np.maximum(self._linkinv(eta), MU_EPS), 1.0 - MU_EPS)
        a = mu * phi
        b = phi - a
        return (gammaln(phi) - gammaln(a) - gammaln(b) + a * self.ylog + b * self.y1mlog
                - self.ylog_both)

    # -- site interface -------------------------------------------------------

    def log_ratio(self, key: tuple, delta: np.ndarray) -> float:
        kind = key[0]
        if kind == "beta":
            return self._stage_beta(key[1], float(delta[0]))
        if kind == "theta":
            return self._stage_theta(delta)
        if kind == "recenter":
            return self._stage_recenter(key[1], float(delta[0]))
        raise KeyError(f"unknown site {key!r}")

    def commit(self, key: tuple) -> None:
        staged = self._staged
        if staged is None or staged[0] != key:
            raise RuntimeError(f"no staged move for site {key!r}")
        self._staged = None
        if key[0] == "beta":
            _, _, k, new_bk, eta_new, terms = staged
            self.x_beta[k] = new_bk
            if self.lam > 0.0:
                self.eta = eta_new
                self.row_terms = terms
                self.group_lik = np.add.reduceat(terms, self.starts)
                self.lik_total = float(np.sum(self.group_lik))
            else:
                self.eta = eta_new
            self.beta_lp = self.ctx.beta_log_prior(self.x_beta)
        elif key[0] == "recenter":
            _, _, k, a, new_bk, b_col, quad_new = staged
            self.x_beta[k] = new_bk
            self.x_b[:, a] = b_col
            self.prior_quad = quad_new
            self.beta_lp = self.ctx.beta_log_prior(self.x_beta)
        elif key[0] == "theta":
            (_, _, theta_new, terms, q_mat, q_logdet, prior_quad, hyper_lp) = staged
            self.theta = theta_new
            self.phi = float(np.exp(theta_new[0]))
            self.hyper_lp = hyper_lp
            if self.ctx.q:
                self.q_mat = q_mat
                self.q_logdet = q_logdet
                self.prior_quad = prior_quad
            if self.lam > 0.0:
                self.row_terms = terms
                self.group_lik = np.add.reduceat(terms, self.starts)
                self.lik_total = float(np.sum(self.group_lik))
        else:
            raise KeyError(f"unknown site {key!r}")

    def stage_groups(self, delta: np.ndarray) -> np.ndarray:
        """Stage a move of every group's effect vector by its row of ``delta``
        (N, q) and return the N log acceptance ratios.

        Group i's ratio involves only its prior quadratic form and its own
        rows, so it is the ratio a move of that group alone would have.
        """
        b_new = self.x_b + delta
        quad = 0.5 * np.einsum("nq,qr,nr->n", b_new, self.q_mat, b_new)
        logr = self.prior_quad - quad
        eta = self.eta + np.sum(self.ctx.Z * delta[self.ctx.groups], axis=1)
        terms = lik = None
        if self.lam > 0.0:
            terms = self._terms(eta, self.phi)
            lik = np.add.reduceat(terms, self.starts)
            logr += self.lam * (lik - self.group_lik)
        self._staged = (("groups",), b_new, quad, eta, terms, lik)
        return logr

    def commit_groups(self, accepted: np.ndarray) -> None:
        """Apply the staged group moves where the mask ``accepted`` is true."""
        staged = self._staged
        if staged is None or staged[0] != ("groups",):
            raise RuntimeError("no staged group moves")
        self._staged = None
        _, b_new, quad, eta, terms, lik = staged
        self.x_b[accepted] = b_new[accepted]
        self.prior_quad[accepted] = quad[accepted]
        rows = accepted[self.ctx.groups]
        self.eta[rows] = eta[rows]
        if self.lam > 0.0:
            self.row_terms[rows] = terms[rows]
            # add the accepted groups' changes in index order, the same
            # sequence of roundings a group-by-group sweep makes
            change = lik[accepted] - self.group_lik[accepted]
            self.lik_total = float(np.add.accumulate(np.append(self.lik_total, change))[-1])
            self.group_lik[accepted] = lik[accepted]

    # -- staging ---------------------------------------------------------------

    def _stage_beta(self, k: int, d: float) -> float:
        new_bk = self.x_beta[k] + d
        prec = self.ctx.beta_prior_prec[k]
        dlp = -0.5 * prec * (new_bk * new_bk - self.x_beta[k] * self.x_beta[k])
        eta_new = self.eta + d * self.ctx.X[:, k]
        terms = None
        if self.lam > 0.0:
            terms = self._terms(eta_new, self.phi)
            dlp += self.lam * (float(np.sum(terms)) - self.lik_total)
        self._staged = (("beta", k), "beta", k, new_bk, eta_new, terms)
        return float(dlp)

    def _stage_recenter(self, a: int, d: float) -> float:
        """Exchange d between fixed effect k and random column a.

        The two columns are elementwise equal, so eta and every likelihood
        cache stay exactly as they are; only the two priors move.
        """
        k = self.recenter_fixed[a]
        new_bk = self.x_beta[k] + d
        prec = self.ctx.beta_prior_prec[k]
        dlp = -0.5 * prec * (new_bk * new_bk - self.x_beta[k] * self.x_beta[k])
        b_col = self.x_b[:, a] - d
        # quad(b - d e_a) = quad(b) - d (Q b)_a + d^2 Q_aa / 2 per group.
        qb_a = self.x_b @ self.q_mat[a]
        quad_new = self.prior_quad - d * qb_a + 0.5 * d * d * self.q_mat[a, a]
        dlp += float(np.sum(self.prior_quad) - np.sum(quad_new))
        self._staged = (("recenter", a), "recenter", k, a, new_bk, b_col, quad_new)
        return float(dlp)

    def _stage_theta(self, delta: np.ndarray) -> float:
        theta_new = self.theta + delta
        if np.max(np.abs(theta_new)) > 50.0:
            self._staged = (("theta",), "theta", theta_new, None, None, 0.0, None, -np.inf)
            return -np.inf
        hp = self._hyper(theta_new)
        hyper_lp = self.ctx.hyper_log_prior(hp)
        dlp = hyper_lp - self.hyper_lp
        q_mat = q_logdet = prior_quad = None
        if self.ctx.q:
            q_mat = hp.precision_matrix()
            chol = np.linalg.cholesky(q_mat)
            q_logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
            prior_quad = 0.5 * np.einsum("nq,qr,nr->n", self.x_b, q_mat, self.x_b)
            dlp += 0.5 * self.ctx.n_groups * (q_logdet - self.q_logdet)
            dlp += float(np.sum(self.prior_quad) - np.sum(prior_quad))
        terms = None
        if self.lam > 0.0:
            terms = self._terms(self.eta, hp.phi)
            dlp += self.lam * (float(np.sum(terms)) - self.lik_total)
        self._staged = (
            ("theta",), "theta", theta_new, terms, q_mat, q_logdet, prior_quad, hyper_lp
        )
        return float(dlp)

    # -- reporting ---------------------------------------------------------------

    def natural_hyper(self) -> list[float]:
        out = [float(np.exp(self.theta[0]))]
        if self.ctx.q == 1:
            out.append(float(np.exp(self.theta[1])))
        elif self.ctx.q == 2:
            t1 = float(np.exp(self.theta[1]))
            t2 = float(np.exp(self.theta[2]))
            c = float(np.tanh(self.theta[3]))
            out.extend([t1, t2, c, c / float(np.sqrt(t1 * t2))])
        return out

    def param_vector(self) -> np.ndarray:
        return np.concatenate([self.x_beta, self.natural_hyper(), self.x_b.ravel()])


def _param_names(ctx: ModelContext) -> tuple[str, ...]:
    names = list(ctx.beta_names) + list(ctx.hyper_names)
    if ctx.q == 2:
        names.append("rho")
    names.extend(ctx.latent_names[: ctx.n_groups * ctx.q])
    return tuple(names)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def gelman_rubin(chains: np.ndarray) -> float:
    """Potential scale reduction factor for one parameter.

    ``chains`` is (n_chains, n_draws).  Uses the between/within variance
    form; the result is clipped below at 1 so sampling noise cannot report
    an impossible value.  A single chain returns 1 by convention.
    """
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 2:
        raise DomainError("chains must be (n_chains, n_draws)")
    m, n = chains.shape
    if m < 2 or n < 2:
        return 1.0
    means = chains.mean(axis=1)
    w = float(np.mean(chains.var(axis=1, ddof=1)))
    b_over_n = float(np.var(means, ddof=1))
    if w == 0.0:
        return 1.0
    v_hat = (n - 1) / n * w + b_over_n
    return float(max(np.sqrt(v_hat / w), 1.0))


def _ess_single(x: np.ndarray) -> float:
    """Initial positive sequence estimator on one chain."""
    n = x.size
    x = x - x.mean()
    acov = np.correlate(x, x, mode="full")[n - 1 :] / n
    if acov[0] <= 0.0:
        return float(n)
    rho = acov / acov[0]
    tau = 1.0
    t = 1
    while t + 1 < n:
        gam = rho[t] + rho[t + 1]
        if gam <= 0.0:
            break
        tau += 2.0 * gam
        t += 2
    return float(n / tau)


def effective_sample_size(chains: np.ndarray) -> float:
    """Sum of per-chain effective sizes (Geyer initial positive sequence)."""
    chains = np.atleast_2d(np.asarray(chains, dtype=float))
    return float(sum(_ess_single(c) for c in chains))


def interval_containment(draws: np.ndarray, interval: tuple[float, float]) -> float:
    """Fraction of draws inside a closed interval."""
    lo, hi = interval
    draws = np.asarray(draws, dtype=float).ravel()
    return float(np.mean((draws >= lo) & (draws <= hi)))


# ---------------------------------------------------------------------------
# output container
# ---------------------------------------------------------------------------


@dataclass
class ChainOutput:
    """Stored draws from all chains plus diagnostics and provenance."""

    samples: np.ndarray  # (n_chains, n_stored, n_params)
    names: tuple[str, ...]
    acceptance: dict[str, np.ndarray]  # site label -> per-chain rate
    config: McmcConfig
    runtime: float
    data_fingerprint: str = ""

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def draws(self, name: str, pooled: bool = True) -> np.ndarray:
        arr = self.samples[:, :, self.index(name)]
        return arr.ravel() if pooled else arr

    def rhat(self, name: str) -> float:
        return gelman_rubin(self.draws(name, pooled=False))

    def ess(self, name: str) -> float:
        return effective_sample_size(self.draws(name, pooled=False))

    def max_rhat(self, names: tuple[str, ...] | None = None) -> float:
        return max(self.rhat(n) for n in (names or self.names))

    def kde(self, name: str, grid_points: int = 401, log_scale: bool | None = None) -> MarginalDensity:
        """Pooled-chain kernel density estimate for one parameter.

        ``log_scale=None`` picks the log-scale kernel automatically for the
        positive hyperparameters (dispersion and random-effect precisions),
        whose right-skewed posteriors a plain Gaussian kernel oversmooths.
        """
        pooled = self.draws(name)
        if log_scale is None:
            log_scale = name in _POSITIVE_SITES and bool(np.all(pooled > 0.0))
        return kde_density(
            pooled,
            name=name,
            n_eff=self.ess(name),
            grid_points=grid_points,
            log_scale=log_scale,
        )

    def summary(self, names: tuple[str, ...] | None = None) -> dict[str, dict[str, float]]:
        out = {}
        for name in names or self.names:
            pooled = self.draws(name)
            out[name] = {
                "mean": float(np.mean(pooled)),
                "sd": float(np.std(pooled, ddof=1)),
                "q0.025": float(np.quantile(pooled, 0.025)),
                "q0.5": float(np.quantile(pooled, 0.5)),
                "q0.975": float(np.quantile(pooled, 0.975)),
                "rhat": self.rhat(name),
                "ess": self.ess(name),
            }
        return out


def export_chains(output: ChainOutput, out_dir, prefix: str = "chain") -> list[str]:
    """Write one CSV of stored draws per chain; returns the paths."""
    paths = []
    for c in range(output.samples.shape[0]):
        path = Path(out_dir) / f"{prefix}_{c + 1}.csv"
        with atomic_write(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(output.names)
            writer.writerows(output.samples[c].tolist())
        paths.append(str(path))
    return paths


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _prior_start(ctx: ModelContext) -> np.ndarray:
    pr = ctx.priors
    coords = [float(np.log(pr.phi.shape / pr.phi.rate))]
    if ctx.q == 1:
        g = pr.require_raneff_gamma()
        coords.append(float(np.log(g.shape / g.rate)))
    elif ctx.q == 2:
        w = pr.require_raneff_wishart()
        expected = w.df * np.diag(w.scale)
        coords.extend([float(np.log(expected[0])), float(np.log(expected[1])), 0.0])
    return np.array(coords)


def run_mcmc(
    data: Dataset,
    spec: ModelSpec,
    priors: PriorSpec | None = None,
    config: McmcConfig | None = None,
) -> ChainOutput:
    """Run the adaptive sampler and collect thinned post-burn-in draws.

    Initialization and proposal shapes come from the Laplace fit of the same
    posterior (conditional mode, hyper curvature, latent conditional
    covariances); with ``likelihood_scale = 0`` the prior supplies them
    instead.
    """
    from .laplace import hyper_mode

    config = config or McmcConfig()
    priors = default_priors(spec) if priors is None else priors
    ctx = ModelContext(data, spec, priors)
    m = 1 + (0 if ctx.q == 0 else (1 if ctx.q == 1 else 3))

    if config.likelihood_scale > 0.0:
        theta0, mode_res, curv, sigma_theta = hyper_mode(ctx)
        x0 = mode_res.x
        v_bb, _, v_xx = mode_res.chol.inverse_pieces()
        beta_sd = np.sqrt(np.diag(v_xx))
        b_chols = np.linalg.cholesky(v_bb) if ctx.q else None
        theta_chol = np.linalg.cholesky(np.linalg.inv(curv))
    else:
        theta0 = _prior_start(ctx)
        x0 = np.zeros(ctx.n_latent)
        beta_sd = 1.0 / np.sqrt(ctx.beta_prior_prec)
        if ctx.q:
            q0 = HyperPoint.from_array(theta0).precision_matrix()
            cov0 = np.linalg.inv(q0)
            b_chols = np.broadcast_to(
                np.linalg.cholesky(cov0), (ctx.n_groups, ctx.q, ctx.q)
            ).copy()
        else:
            b_chols = None
        sigma_theta = np.ones(m)
        theta_chol = np.eye(m)

    names = _param_names(ctx)
    seq = np.random.SeedSequence(config.seed)
    children = seq.spawn(config.n_chains)

    # Fixed-effect columns that also appear as random-effect columns can
    # trade mass with the group effects without moving the linear predictor;
    # each such (random column, fixed column) pair gets a recentering site.
    recenter_pairs: list[tuple[int, int]] = []
    if ctx.q:
        q0_mat = HyperPoint.from_array(theta0).precision_matrix()
        for a in range(ctx.q):
            for k in range(ctx.p):
                if np.array_equal(ctx.X[:, k], ctx.Z[:, a]):
                    recenter_pairs.append((a, k))
                    break

    all_draws = np.empty((config.n_chains, config.n_stored, len(names)))
    site_keys: list[tuple] = [("beta", k) for k in range(ctx.p)]
    site_keys += [("b", i) for i in range(ctx.n_groups)] if ctx.q else []
    site_keys += [("theta",)]
    site_keys += [("recenter", a) for a, _ in recenter_pairs]
    acc = {str(k): np.zeros(config.n_chains) for k in site_keys}

    t_start = time.perf_counter()
    for c in range(config.n_chains):
        rng = np.random.default_rng(children[c])
        jit_theta = theta0 + config.jitter * sigma_theta * rng.standard_normal(m)
        jit_x = x0.copy()
        nb = ctx.n_groups * ctx.q
        if ctx.q:
            z = rng.standard_normal((ctx.n_groups, ctx.q, 1))
            jit_x[:nb] += config.jitter * np.matmul(b_chols, z).ravel()
        jit_x[nb:] += config.jitter * beta_sd * rng.standard_normal(ctx.p)

        target = _BetaModelTarget(ctx, jit_theta, jit_x, config.likelihood_scale,
                                  recenter_pairs)
        sites = [
            Site(("beta", k), 1, 2.4 * float(beta_sd[k])) for k in range(ctx.p)
        ]
        if ctx.q:
            sites.append(GroupSites(b_chols, np.full(ctx.n_groups, 2.4 / np.sqrt(ctx.q))))
        sites += [Site(("theta",), m, 2.4 / np.sqrt(m), chol=theta_chol.copy())]
        for a, k in recenter_pairs:
            ridge_prec = ctx.beta_prior_prec[k] + ctx.n_groups * q0_mat[a, a]
            sites += [Site(("recenter", a), 1, 2.4 / np.sqrt(max(ridge_prec, 1e-12)))]

        t_chain = time.perf_counter()
        draws, rates = sample_metropolis(
            target, sites, config.iterations, config.burn_in, config.thin,
            rng, adapt_window=config.adapt_window,
        )
        all_draws[c] = draws
        for k, r in rates.items():
            acc[str(k)][c] = r
        group_rates = [r for k, r in rates.items() if k[0] == "b"]
        logger.info(
            "mcmc chain %d of %d: %d sweeps in %.2f s, mean group acceptance %s",
            c + 1, config.n_chains, config.iterations, time.perf_counter() - t_chain,
            f"{np.mean(group_rates):.3f}" if group_rates else "n/a",
        )

    return ChainOutput(
        samples=all_draws,
        names=names,
        acceptance=acc,
        config=config,
        runtime=time.perf_counter() - t_start,
        data_fingerprint=data.fingerprint(),
    )
