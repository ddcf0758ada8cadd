"""Adaptive Metropolis-within-Gibbs sampler for the beta mixed model.

This is the cross-check engine: it targets exactly the same unnormalized
joint posterior as the nested Laplace approximation but shares none of its
computational shortcuts, so agreement between the two is evidence that both
are right.

One sweep visits, in this order:

1. the fixed effects, as one block site;
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

The chain state keeps the linear predictor, its clipped mean and the
per-group likelihood sums incrementally, so a sweep evaluates the row terms
once per block (fixed effects, groups, hyperparameters) and the link
inverse only where the linear predictor moves.  A fixed-effect, hyper or
recentering move is staged as its log ratio and the cached fields it would
replace; a commit assigns them, deriving the group likelihood sums from new
row terms only then.  The group pass commits under its acceptance mask.

``likelihood_scale`` (lambda) tempers the likelihood: every log ratio is the
prior change plus lambda times the likelihood change.  1 is the posterior
and 0 drops the data entirely (the per-row terms are then zeros, so the
likelihood change is exactly zero), in which case the sampler must
reproduce the prior (a standard end-to-end correctness check; it requires
proper priors on the fixed effects).

Reproducibility: one integer seed drives every chain through spawned
``numpy.random.SeedSequence`` children, so results are identical run to run
regardless of how many chains are drawn.  The chains share no state, so
``run_mcmc`` runs them in up to nproc forked workers (``model.fork_map``),
equal bit for bit to a serial run.  Progress goes to the ``betamix`` logger,
one ``INFO`` line per chain, written in chain order once all have ended.
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
from .density import SUMMARY_QUANTILES, MarginalDensity, kde_density
from .distributions import DomainError
from .model import COORD_CAP, MU_EPS, Dataset, HyperPoint, ModelContext, ModelSpec, fork_map
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
    "export_chains",
]

logger = logging.getLogger("betamix")

# hyper sites with positive support, density-estimated on the log scale
_POSITIVE_SITES = frozenset({"phi", "tau1_sq", "tau2_sq"})
#: sweeps per burn-in adaptation window
ADAPT_WINDOW = 50
#: scale of each chain's start jitter, in units of the start's standard deviations
JITTER = 0.1


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; the defaults are the full verification protocol."""

    n_chains: int = 3
    iterations: int = 500_000
    burn_in: int = 10_000
    thin: int = 100
    seed: int = 0
    likelihood_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_chains < 1:
            raise DomainError("need at least one chain")
        if self.burn_in >= self.iterations:
            raise DomainError("burn-in must be shorter than the run")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if self.n_stored < 1:
            raise DomainError("the run stores no draw: need iterations - burn_in >= thin")
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


@dataclass
class GroupSites:
    """The N group-effect sites ``("b", i)``, swept in one vector pass.

    Group i proposes ``scales[i] * chols[i] @ z_i``; each group keeps its
    own acceptance count and adapts its own scale.
    """

    chols: np.ndarray  # (N, q, q) proposal shapes
    scales: np.ndarray  # (N,)

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
    The model target stages a move as the cached fields it would replace and
    a commit assigns them; each log ratio is the prior change plus
    ``likelihood_scale`` times the likelihood change.
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
            if (it + 1) % ADAPT_WINDOW == 0:
                gain = 1.0 / np.sqrt((it + 1) // ADAPT_WINDOW)
                rate = acc_win / ADAPT_WINDOW
                for site, _, uo in layout:
                    if isinstance(site, GroupSites):
                        site.scales = _adapted(site.scales, rate[uo : uo + site.scales.size],
                                               _target_rate(site.dim), gain)
                    else:
                        site.scale = float(_adapted(site.scale, rate[uo],
                                                    _target_rate(site.dim), gain))
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

    Caches the linear predictor, its clipped mean, per-row log likelihood
    terms, per-group likelihood sums, the random-effect prior quadratic
    forms and the hyperprior value.  A fixed-effect, recentering or hyper
    move is staged as the dict of cached fields it would replace; committing
    it assigns them.
    """

    def __init__(self, ctx: ModelContext, theta0: np.ndarray, x0: np.ndarray,
                 likelihood_scale: float, recenter_pairs: list[tuple[int, int]]):
        if likelihood_scale == 0.0 and np.any(ctx.beta_prior_prec <= 0.0):
            raise DomainError(
                "prior sampling (likelihood_scale = 0) requires proper priors "
                "on every fixed effect; set intercept_precision > 0"
            )
        self.ctx = ctx
        self.lam = float(likelihood_scale)
        self.x_b, self.x_beta = (a.copy() for a in ctx.split(np.asarray(x0, dtype=float)))
        self.ylog = np.log(ctx.y)
        self.y1mlog = np.log1p(-ctx.y)
        self.ylog_both = self.ylog + self.y1mlog
        self._linkinv = ctx.link.inv
        self.starts = ctx.group_starts
        self.eta = ctx.eta(np.asarray(x0, dtype=float))
        self.mu = self._mu(self.eta)
        self._staged: tuple | None = None
        fields = self._theta_fields(np.asarray(theta0, dtype=float).copy())
        fields["row_terms"] = self._terms(self.mu, fields["phi"])
        self._assign(fields)
        self.recenter_fixed = dict(recenter_pairs)  # random column -> fixed column

    # -- cache plumbing ------------------------------------------------------

    def _assign(self, fields: dict) -> None:
        """Set cached fields; new row terms also reset the group and total sums."""
        for name, value in fields.items():
            setattr(self, name, value)
        if "row_terms" in fields:
            self.group_lik = np.add.reduceat(self.row_terms, self.starts)
            self.lik_total = float(self.group_lik.sum())

    def _theta_fields(self, theta: np.ndarray) -> dict:
        """Every cached field that depends on the hyperparameters alone."""
        hp = HyperPoint.from_array(theta)
        fields = {"theta": theta, "phi": hp.phi,
                  "hyper_lp": float(self.ctx.hyper_log_prior(theta)),
                  "q_mat": None, "q_logdet": 0.0, "prior_quad": np.zeros(0)}
        if self.ctx.q:
            q_mat = hp.precision_matrix()
            fields.update(q_mat=q_mat, q_logdet=hp.precision_logdet(),
                          prior_quad=0.5 * np.einsum("nq,qr,nr->n", self.x_b, q_mat, self.x_b))
        return fields

    def _mu(self, eta: np.ndarray) -> np.ndarray:
        """Row means, clipped into (0, 1) as the model core clips them."""
        return np.minimum(np.maximum(self._linkinv(eta), MU_EPS), 1.0 - MU_EPS)

    def _terms(self, mu: np.ndarray, phi: float) -> np.ndarray:
        """Per-row log likelihood terms; zeros when the likelihood is off."""
        if self.lam == 0.0:
            return np.zeros(mu.shape)
        a = mu * phi
        b = phi - a
        return (gammaln(phi) - gammaln(a) - gammaln(b) + a * self.ylog + b * self.y1mlog
                - self.ylog_both)

    # -- site interface -------------------------------------------------------

    def log_ratio(self, key: tuple, delta: np.ndarray) -> float:
        kind = key[0]
        if kind == "beta":
            logr, fields = self._stage_beta(delta)
        elif kind == "theta":
            logr, fields = self._stage_theta(delta)
        elif kind == "recenter":
            logr, fields = self._stage_recenter(key[1], float(delta[0]))
        else:
            raise KeyError(f"unknown site {key!r}")
        self._staged = (key, fields)
        return logr

    def commit(self, key: tuple) -> None:
        staged = self._staged
        if staged is None or staged[0] != key:
            raise RuntimeError(f"no staged move for site {key!r}")
        self._staged = None
        self._assign(staged[1])

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
        mu = self._mu(eta)
        terms = self._terms(mu, self.phi)
        lik = np.add.reduceat(terms, self.starts)
        logr += self.lam * (lik - self.group_lik)
        self._staged = (("groups",), b_new, quad, eta, mu, terms, lik)
        return logr

    def commit_groups(self, accepted: np.ndarray) -> None:
        """Apply the staged group moves where the mask ``accepted`` is true."""
        staged = self._staged
        if staged is None or staged[0] != ("groups",):
            raise RuntimeError("no staged group moves")
        self._staged = None
        _, b_new, quad, eta, mu, terms, lik = staged
        self.x_b[accepted] = b_new[accepted]
        self.prior_quad[accepted] = quad[accepted]
        rows = accepted[self.ctx.groups]
        self.eta[rows] = eta[rows]
        self.mu[rows] = mu[rows]
        self.row_terms[rows] = terms[rows]
        # add the accepted groups' changes in index order, the same
        # sequence of roundings a group-by-group sweep makes
        change = lik[accepted] - self.group_lik[accepted]
        self.lik_total = float(np.add.accumulate(np.append(self.lik_total, change))[-1])
        self.group_lik[accepted] = lik[accepted]

    # -- staging: each returns (log ratio, the fields the move replaces) -------

    def _stage_beta(self, delta: np.ndarray) -> tuple[float, dict]:
        """Move every fixed effect at once, by ``delta`` (p,)."""
        x_beta = self.x_beta + delta
        prec = self.ctx.beta_prior_prec
        dlp = -0.5 * float(np.sum(prec * (x_beta * x_beta - self.x_beta * self.x_beta)))
        eta = self.eta + self.ctx.X @ delta
        mu = self._mu(eta)
        terms = self._terms(mu, self.phi)
        dlp += self.lam * (float(terms.sum()) - self.lik_total)
        return dlp, {"x_beta": x_beta, "eta": eta, "mu": mu, "row_terms": terms}

    def _stage_recenter(self, a: int, d: float) -> tuple[float, dict]:
        """Exchange d between fixed effect k and random column a.

        The two columns are elementwise equal, so eta and every likelihood
        cache stay exactly as they are; only the two priors move.
        """
        k = self.recenter_fixed[a]
        x_beta = self.x_beta.copy()
        x_beta[k] += d
        prec = self.ctx.beta_prior_prec[k]
        dlp = -0.5 * prec * (x_beta[k] * x_beta[k] - self.x_beta[k] * self.x_beta[k])
        x_b = self.x_b.copy()
        x_b[:, a] -= d
        # quad(b - d e_a) = quad(b) - d (Q b)_a + d^2 Q_aa / 2 per group.
        qb_a = self.x_b @ self.q_mat[a]
        quad = self.prior_quad - d * qb_a + 0.5 * d * d * self.q_mat[a, a]
        dlp += float(self.prior_quad.sum() - quad.sum())
        return float(dlp), {"x_beta": x_beta, "x_b": x_b, "prior_quad": quad}

    def _stage_theta(self, delta: np.ndarray) -> tuple[float, dict]:
        theta = self.theta + delta
        if np.max(np.abs(theta)) > COORD_CAP:
            return -np.inf, {}
        fields = self._theta_fields(theta)
        dlp = fields["hyper_lp"] - self.hyper_lp
        dlp += 0.5 * self.ctx.n_groups * (fields["q_logdet"] - self.q_logdet)
        dlp += float(self.prior_quad.sum() - fields["prior_quad"].sum())
        fields["row_terms"] = self._terms(self.mu, fields["phi"])
        dlp += self.lam * (float(fields["row_terms"].sum()) - self.lik_total)
        return float(dlp), fields

    # -- reporting ---------------------------------------------------------------

    def param_vector(self) -> np.ndarray:
        hyper = list(HyperPoint.from_array(self.theta).natural().values())
        return np.concatenate([self.x_beta, hyper, self.x_b.ravel()])


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

    def max_rhat(self) -> float:
        return max(self.rhat(n) for n in self.names)

    def kde(self, name: str) -> MarginalDensity:
        """Pooled-chain kernel density estimate for one parameter, on
        ``density.MARGINAL_POINTS`` abscissae: ``kde_density`` with the
        bandwidth set by the pooled effective sample size.  That estimate
        is binned, so its memory grows with the draws plus the grid and a
        long chain builds no draws x grid matrix; its gap to the exact
        kernel sum is measured there.

        The positive hyperparameters (dispersion and random-effect
        precisions) get the log-scale kernel, since a plain Gaussian kernel
        oversmooths their right-skewed posteriors; every other parameter the
        plain one.
        """
        pooled = self.draws(name)
        log_scale = name in _POSITIVE_SITES and bool(np.all(pooled > 0.0))
        return kde_density(pooled, name=name, n_eff=self.ess(name), log_scale=log_scale)

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for name in self.names:
            pooled = self.draws(name)
            row = {"mean": float(np.mean(pooled)), "sd": float(np.std(pooled, ddof=1))}
            for q in SUMMARY_QUANTILES:
                row[f"q{q:g}"] = float(np.quantile(pooled, q))
            out[name] = {**row, "rhat": self.rhat(name), "ess": self.ess(name)}
        return out


def export_chains(output: ChainOutput, out_dir) -> list[str]:
    """Write one CSV of stored draws per chain, ``chain_<c>.csv``; returns
    the paths."""
    paths = []
    for c in range(output.samples.shape[0]):
        path = Path(out_dir) / f"chain_{c + 1}.csv"
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
    instead.  The fixed-effect block's shape is the Cholesky factor of the
    inverse of -H_xx, beta's precision given the group effects and theta at
    the start (``diag(1 / sqrt(beta_prior_prec))`` from the prior).  Only its
    scale adapts: a shape learnt from the chain would take in the
    intercept-group ridge that the recentering sites already move along.
    """
    from .laplace import hyper_mode

    config = config or McmcConfig()
    priors = default_priors(spec) if priors is None else priors
    ctx = ModelContext(data, spec, priors)
    m = len(ctx.hyper_names)

    if config.likelihood_scale > 0.0:
        theta0, cond, curv, sigma_theta = hyper_mode(ctx)
        x0 = cond.mean
        beta_sd = np.sqrt(np.diag(cond.v_xx))
        _, hess = ctx.grad_hessian(x0[None], theta0[None])
        beta_chol = np.linalg.cholesky(np.linalg.inv(-hess.xx[0]))
        b_chols = np.linalg.cholesky(cond.v_bb) if ctx.q else None
        theta_chol = np.linalg.cholesky(np.linalg.inv(curv))
    else:
        theta0 = _prior_start(ctx)
        x0 = np.zeros(ctx.n_latent)
        beta_sd = 1.0 / np.sqrt(ctx.beta_prior_prec)
        beta_chol = np.diag(beta_sd)
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

    names = ctx.param_names + ctx.latent_names[: ctx.n_groups * ctx.q]
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

    def chain(c: int) -> tuple[np.ndarray, dict[tuple, float], float]:
        """Chain c: its stored draws, its acceptance rates and its seconds."""
        rng = np.random.default_rng(children[c])
        jit_theta = theta0 + JITTER * sigma_theta * rng.standard_normal(m)
        jit_x = x0.copy()
        nb = ctx.n_groups * ctx.q
        if ctx.q:
            z = rng.standard_normal((ctx.n_groups, ctx.q, 1))
            jit_x[:nb] += JITTER * np.matmul(b_chols, z).ravel()
        jit_x[nb:] += JITTER * beta_sd * rng.standard_normal(ctx.p)

        target = _BetaModelTarget(ctx, jit_theta, jit_x, config.likelihood_scale,
                                  recenter_pairs)
        sites = [Site(("beta",), ctx.p, 2.4 / np.sqrt(ctx.p), chol=beta_chol)]
        if ctx.q:
            sites.append(GroupSites(b_chols, np.full(ctx.n_groups, 2.4 / np.sqrt(ctx.q))))
        sites += [Site(("theta",), m, 2.4 / np.sqrt(m), chol=theta_chol.copy())]
        for a, k in recenter_pairs:
            ridge_prec = ctx.beta_prior_prec[k] + ctx.n_groups * q0_mat[a, a]
            sites += [Site(("recenter", a), 1, 2.4 / np.sqrt(max(ridge_prec, 1e-12)))]

        t_chain = time.perf_counter()
        draws, rates = sample_metropolis(
            target, sites, config.iterations, config.burn_in, config.thin, rng
        )
        return draws, rates, time.perf_counter() - t_chain

    t_start = time.perf_counter()
    chains = fork_map(chain, config.n_chains)
    acc: dict[str, np.ndarray] = {}  # filled in the sampler's site order
    for c, (_, rates, seconds) in enumerate(chains):
        for k, r in rates.items():
            acc.setdefault(str(k), np.zeros(config.n_chains))[c] = r
        group_rates = [r for k, r in rates.items() if k[0] == "b"]
        logger.info(
            "mcmc chain %d of %d: %d sweeps in %.2f s, mean group acceptance %s",
            c + 1, config.n_chains, config.iterations, seconds,
            f"{np.mean(group_rates):.3f}" if group_rates else "n/a",
        )

    return ChainOutput(
        samples=np.stack([draws for draws, _, _ in chains]),
        names=names,
        acceptance=acc,
        config=config,
        runtime=time.perf_counter() - t_start,
        data_fingerprint=data.fingerprint(),
    )
