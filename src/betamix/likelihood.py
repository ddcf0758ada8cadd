"""Maximum likelihood estimation with profile likelihood intervals.

The frequentist companion to the Bayesian engines: the random effects are
integrated out of the likelihood rather than sampled or gridded.  For a
model without random effects the marginal likelihood is a plain product of
beta densities; with random effects each group contributes a q dimensional
integral that is approximated by Laplace's method around the group's own
conditional mode (Rue, Martino & Chopin 2009).  The evaluator takes a
stack of K parameter points, so that each central-difference stencil of the
outer search and of the curvature is one call.  The modes come from the
core's damped Newton (``model.newton_ascent``, as for the Laplace joint
mode) with the K N groups as blocks, split into chunks of
``model.chunk_size(n)`` points.  Every block starts from the modes of the
previous call's row 0, the stencil centre, because the optimizer visits
nearby parameter values.  Their q x q curvatures are
factored by the core's masked batched Cholesky, the one that factors the
Laplace block Hessians, so no step of the engine depends on q.  The design,
link derivatives, row likelihood, hyper names, log det Q, coordinate cap,
value outside the support, start point and outer search come from the
model core.

``ml_fit`` maximizes the marginal log likelihood over the unconstrained
vector (fixed effects, log phi, log tau, and atanh rho when present) by BFGS
on a central-difference gradient (``model.maximize``) and reports
natural-scale estimates with delta-method standard errors: the observed
information is the two-stage finite-difference curvature
``model.fd_curvature``, and the derivatives of the transforms come from
``model.TRANSFORMS``.

``profile_interval`` inverts the likelihood ratio statistic: it profiles the
log likelihood along one coordinate, re-optimizing the nuisance parameters
at every probe, brackets the points where the profile has dropped by half the chi-square
(1 df) quantile at ``level`` below the maximum, and polishes the crossing with
Brent's method.  The bracketing and root finding live in
``profile_bounds``, which only sees a one dimensional callable and is
therefore easy to validate on problems with known answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import chdtri, ndtri

from .density import INTERVAL_LEVEL
from .distributions import DomainError, check_probability
from .model import (
    COORD_CAP,
    TRANSFORMS,
    Dataset,
    HyperPoint,
    ModelContext,
    ModelSpec,
    _chol_solve,
    _cholesky,
    chunk_size,
    eta_derivs,
    fd_curvature,
    group_sums,
    loglik_rows,
    maximize,
    moment_start,
    natural_scale,
    newton_ascent,
    out_of_support,
    precision_logdets,
    precision_matrices,
)
from .priors import default_priors

__all__ = [
    "MLFit",
    "ProfileInterval",
    "marginal_loglik",
    "ml_fit",
    "profile_bounds",
    "profile_interval",
]

#: profile probes: the first step as a fraction of the scale, and the budget
_PROBE_FRAC = 0.2
_MAX_PROBES = 80


class _MarginalLoglik:
    """Marginal log likelihood of (beta, hyper) with warm-started group modes.

    Callable on a (K, dim) stack of unconstrained vectors
    ``[beta, log_phi, raneff...]``, returning the K values; a 1-D vector is
    the case K = 1 and returns a float.  Instances hold the model context
    (design, link and names; its priors never enter) and the conditional
    modes of the last row 0 evaluated, so repeated evaluations at nearby
    points cost one or two Newton steps.  ``n_calls`` counts calls and
    ``n_points`` the rows evaluated.
    """

    def __init__(self, data: Dataset, spec: ModelSpec):
        self.ctx = ctx = ModelContext(data, spec, default_priors(spec))
        self.link, self.p, self.q = ctx.link, ctx.p, ctx.q
        self.names = ctx.beta_names + ctx.hyper_names
        self.transforms = ("identity",) * self.p + ctx.hyper_transforms
        self.dim = len(self.names)
        self._warm = np.zeros((ctx.n_groups, self.q))
        self.n_calls = 0
        self.n_points = 0

    def _integrals(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Marginal log likelihoods of the K rows of ``stack`` and their group
        modes (K, N, q); NaN where a group mode was not found.

        Each row's group integrals are Laplace approximations around its
        group modes, which come from one ``model.newton_ascent`` over all K N
        group blocks, every block started from the warm state: each
        iteration evaluates every row of the data for every point in one
        pass and factors the K N q x q negative Hessians with the core's
        masked Cholesky, whose mask is the positive-definiteness test and
        whose diagonal gives the log determinants.
        """
        ctx, k = self.ctx, stack.shape[0]
        Z, starts, groups, y = ctx.Z, ctx.group_starts, ctx.groups, ctx.y
        eta0 = np.einsum("np,kp->kn", ctx.X, stack[:, : self.p])
        phi = np.exp(stack[:, self.p])[:, None]
        if self.q == 0:
            return np.sum(loglik_rows(self.link, y, eta0, phi), axis=1), None
        raneff = stack[:, self.p + 1 :]
        q_mat = precision_matrices(raneff)
        chol = None

        def blocks(b):
            b = b.reshape(k, -1, self.q)
            return b, eta0 + (Z * b[:, groups]).sum(axis=-1)

        def values(b):
            b, eta = blocks(b)
            rows = loglik_rows(self.link, y, eta, phi)
            return (np.add.reduceat(rows, starts, axis=1)
                    - 0.5 * ((b @ q_mat) * b).sum(axis=-1)).ravel()

        def newton(b):
            nonlocal chol
            b, eta = blocks(b)
            s, w = eta_derivs(self.link, y, eta, phi)
            zs, zwz = group_sums(Z, starts, s, w)
            grad = (zs - b @ q_mat).reshape(-1, self.q)
            chol, spd = _cholesky((q_mat[:, None] - zwz).reshape(-1, self.q, self.q))
            return grad, _chol_solve(chol, grad[..., None])[..., 0], spd.ravel()

        asc = newton_ascent(values, newton, np.tile(self._warm, (k, 1)))
        # -1/2 log det of each group's curvature is -sum log diag of its factor
        per_group = asc.value - np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
        n_groups = ctx.n_groups
        total = (np.sum(per_group.reshape(k, n_groups), axis=1)
                 + n_groups * (0.5 * precision_logdets(raneff)))
        found = asc.found.reshape(k, n_groups).all(axis=1)
        return np.where(found, total, np.nan), asc.x.reshape(k, n_groups, self.q)

    def _solve(self, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """``_integrals``, with every row NaN when the batch cannot be evaluated."""
        try:
            return self._integrals(stack)
        except DomainError:
            return np.full(stack.shape[0], np.nan), None

    def __call__(self, v: np.ndarray) -> float | np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise DomainError(f"expected a vector or a stack of vectors of length {self.dim}")
        stack = v.reshape(-1, self.dim)
        self.n_calls += 1
        self.n_points += stack.shape[0]
        out = np.full(stack.shape[0], np.nan)
        row0 = None
        rows = np.flatnonzero(np.isfinite(stack).all(axis=1)
                              & (np.abs(stack).max(axis=1) <= COORD_CAP))
        size = chunk_size(self.ctx.n)
        for lo in range(0, rows.size, size):
            chunk = rows[lo : lo + size]
            vals, modes = self._solve(stack[chunk])
            if chunk[0] == 0 and modes is not None:
                row0 = modes[0]
            # a row the batch does not find is retried alone
            for i in np.flatnonzero(np.isnan(vals)) if chunk.size > 1 else ():
                (vals[i],), one = self._solve(stack[chunk[i]][None])
                if chunk[i] == 0 and one is not None:
                    row0 = one[0]
            out[chunk] = vals
        if row0 is not None and not np.isnan(out[0]):
            self._warm = row0
        missing = np.flatnonzero(np.isnan(out))
        out[missing] = [out_of_support(stack[i]) for i in missing]
        return float(out[0]) if v.ndim == 1 else out


def marginal_loglik(beta, theta: HyperPoint, data: Dataset, spec: ModelSpec) -> float:
    """Log likelihood of (beta, theta) with the random effects integrated out.

    Exact for models without random effects; otherwise each group is
    integrated by Laplace's method around its conditional mode.  No prior
    enters anywhere.
    """
    lik = _MarginalLoglik(data, spec)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (lik.p,):
        raise DomainError(f"beta must have length {lik.p}")
    if theta.q != spec.q:
        raise DomainError(f"theta has {theta.q} random terms but the model has {spec.q}")
    return lik(np.concatenate([beta, theta.as_array()]))


@dataclass(frozen=True)
class ProfileInterval:
    """One profile likelihood interval on the natural scale."""

    name: str
    level: float
    lower: float
    upper: float
    drop: float
    n_eval: int


@dataclass
class MLFit:
    """Maximum likelihood estimates with observed-information uncertainty.

    ``params`` and ``se`` are on the natural scale (delta method);
    ``vector`` and ``se_unconstrained`` describe the same optimum in the
    unconstrained coordinates the optimizer worked in.
    """

    params: np.ndarray
    se: np.ndarray
    names: tuple[str, ...]
    transforms: tuple[str, ...]
    loglik: float
    vector: np.ndarray
    se_unconstrained: np.ndarray
    vcov_unconstrained: np.ndarray
    converged: bool
    n_obs: int
    n_groups: int
    spec: ModelSpec
    data_fingerprint: str
    n_eval: int
    message: str = ""
    _lik: _MarginalLoglik | None = field(default=None, repr=False)

    def index(self, param: str | int) -> int:
        if isinstance(param, str):
            try:
                return self.names.index(param)
            except ValueError:
                raise KeyError(f"unknown parameter {param!r}") from None
        return int(param)

    def estimate(self, param: str | int) -> float:
        return float(self.params[self.index(param)])

    def se_of(self, param: str | int) -> float:
        return float(self.se[self.index(param)])

    def wald_interval(self, param: str | int,
                      level: float = INTERVAL_LEVEL) -> tuple[float, float]:
        """Normal-theory interval on the unconstrained scale, transformed back."""
        check_probability(level, "level")
        j = self.index(param)
        z = float(ndtri(0.5 * (1.0 + level)))
        lo = self.vector[j] - z * self.se_unconstrained[j]
        hi = self.vector[j] + z * self.se_unconstrained[j]
        t = self.transforms[j]
        return (float(natural_scale(lo, t)), float(natural_scale(hi, t)))


def ml_fit(data: Dataset, spec: ModelSpec) -> MLFit:
    """Maximize the marginal log likelihood and package the result.

    One :func:`model.maximize` search over the unconstrained vector, started
    from the link of the mean response and the moment start of the
    hyperparameters; ``converged`` is that search's stopping rule.  Standard
    errors come from the finite-difference observed information at the
    optimum.
    """
    lik = _MarginalLoglik(data, spec)
    beta0 = np.zeros(lik.p)
    beta0[0] = float(lik.link.fwd(np.clip(float(np.mean(data.y)), 0.01, 0.99)))
    best = maximize(lik, np.concatenate([beta0, moment_start(data.y, spec.q).as_array()]))
    vhat, loglik = best.x, best.value

    _, vcov = fd_curvature(lik, vhat)
    se_u = np.sqrt(np.diag(vcov))

    params = np.array([natural_scale(u, t) for t, u in zip(lik.transforms, vhat)])
    se_nat = np.array(
        [abs(TRANSFORMS[t][1](u)) * s for t, u, s in zip(lik.transforms, vhat, se_u)]
    )

    return MLFit(
        params=params,
        se=se_nat,
        names=lik.names,
        transforms=lik.transforms,
        loglik=loglik,
        vector=vhat,
        se_unconstrained=se_u,
        vcov_unconstrained=vcov,
        converged=best.converged,
        n_obs=data.n,
        n_groups=data.n_groups,
        spec=spec,
        data_fingerprint=data.fingerprint(),
        n_eval=lik.n_points,
        message=best.message,
        _lik=lik,
    )


def profile_bounds(
    profiled: Callable[[float], float],
    center: float,
    peak: float,
    scale: float,
    drop: float,
    t_max: float,
) -> tuple[float, float, int]:
    """Find where a profiled log likelihood falls ``drop`` below ``peak``.

    Marches outward from ``center`` in probe steps of ``0.2 * scale``
    (growing by half each probe after the first 20, at most 80 probes a
    side), brackets the first sign change of ``profiled(u) - (peak - drop)``
    on each side, and polishes the crossing with Brent's method.  A side
    that never crosses within the probe range, or within ``t_max`` of the
    center, is reported as infinite, which callers map to an open-ended
    interval.  Returns ``(lower, upper, n_eval)``.
    """
    if scale <= 0.0 or not np.isfinite(scale):
        raise DomainError("profile scale must be positive and finite")
    if drop <= 0.0:
        raise DomainError("drop must be positive")
    count = 0

    def g(u: float) -> float:
        nonlocal count
        count += 1
        return profiled(u) - (peak - drop)

    bounds = []
    for sign in (-1.0, 1.0):
        t_prev, g_prev = 0.0, drop
        stride = _PROBE_FRAC * scale
        t = stride
        bound = sign * np.inf
        for k in range(_MAX_PROBES):
            if t > t_max:
                break
            g_t = g(center + sign * t)
            if g_t < 0.0:
                # Reuse the recorded endpoint values so a tiny re-evaluation
                # wobble at the bracket ends cannot spoil the sign condition.
                cache = {t_prev: g_prev, t: g_t}

                def gf(tt: float) -> float:
                    if tt in cache:
                        return cache[tt]
                    return g(center + sign * tt)

                root = brentq(gf, t_prev, t, xtol=max(1.0e-12, 1.0e-10 * scale))
                bound = center + sign * root
                break
            t_prev, g_prev = t, g_t
            if k >= 19:
                stride *= 1.5
            t += stride
        bounds.append(bound)
    return bounds[0], bounds[1], count


def profile_interval(fit: MLFit, param: str | int,
                     level: float = INTERVAL_LEVEL) -> ProfileInterval:
    """Profile likelihood interval for one parameter of an ``ml_fit`` result.

    The nuisance parameters are re-optimized at every probe point, warm
    started from the previous solution and from the nuisance curvature at
    the optimum; endpoints are transformed back to the natural scale, so an
    unbounded side comes out as 0 or +/-inf as the transform dictates.
    """
    if fit._lik is None:
        raise DomainError("this MLFit does not carry its likelihood evaluator")
    check_probability(level, "level")
    j = fit.index(param)
    lik = fit._lik
    drop = float(chdtri(1, 1.0 - level)) / 2.0
    se_j = float(fit.se_unconstrained[j])
    if not np.isfinite(se_j) or se_j <= 0.0:
        se_j = 0.1 * (1.0 + abs(float(fit.vector[j])))

    others = [a for a in range(lik.dim) if a != j]
    warm = fit.vector[others]
    # every inner search starts from the nuisance block's curvature at the
    # optimum: the Schur complement of coordinate j in the covariance
    vcov = fit.vcov_unconstrained
    inv_curv = (vcov[np.ix_(others, others)]
                - np.outer(vcov[others, j], vcov[j, others]) / vcov[j, j])

    def profiled(u: float) -> float:
        nonlocal warm
        best = maximize(lambda w: lik(np.insert(w, j, u, axis=1)), warm, inv_curv=inv_curv)
        if best.value > 0.5 * out_of_support(()):
            warm = best.x
        return best.value

    points_before = lik.n_points
    lo_u, hi_u, _ = profile_bounds(
        profiled, float(fit.vector[j]), fit.loglik, se_j, drop,
        t_max=COORD_CAP - 5.0 - abs(float(fit.vector[j])),
    )
    # an open side is -inf or +inf here, which the transform maps to its limit
    t = fit.transforms[j]
    lower, upper = natural_scale(lo_u, t), natural_scale(hi_u, t)
    return ProfileInterval(
        name=fit.names[j],
        level=level,
        lower=float(lower),
        upper=float(upper),
        drop=drop,
        n_eval=lik.n_points - points_before,
    )
