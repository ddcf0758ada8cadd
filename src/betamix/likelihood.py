"""Maximum likelihood estimation with profile likelihood intervals.

The frequentist companion to the Bayesian engines: the random effects are
integrated out of the likelihood rather than sampled or gridded.  For a
model without random effects the marginal likelihood is a plain product of
beta densities; with random effects each group contributes a q dimensional
integral that is approximated by Laplace's method around the group's own
conditional mode (Rue, Martino & Chopin 2009).  The modes come from the
core's damped Newton (``model.newton_ascent``, as for the Laplace joint
mode) with all groups as blocks and their q x q systems solved in closed
form, warm started between evaluations because the optimizer visits nearby
parameter values.  The design, link derivatives, row likelihood, hyper
names, log det Q, coordinate cap, value outside the support, start point
and outer search come from the model core.

``ml_fit`` maximizes the marginal log likelihood over the unconstrained
vector (fixed effects, log phi, log tau, and atanh rho when present) by BFGS
on a central-difference gradient (``model.maximize``) and reports
natural-scale estimates with delta-method standard errors: the observed
information is the two-stage finite-difference curvature
``model.fd_curvature``, and the derivatives of the transforms come from
``model.TRANSFORMS``.

``profile_interval`` inverts the likelihood ratio statistic: it profiles the
log likelihood along one coordinate, re-optimizing the nuisance parameters
at every probe, brackets the points where the profile has dropped by
``chi2.ppf(level, 1) / 2`` below the maximum, and polishes the crossing with
Brent's method.  The bracketing and root finding live in
``profile_bounds``, which only sees a one dimensional callable and is
therefore easy to validate on problems with known answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2, norm

from .distributions import DomainError
from .model import (
    COORD_CAP,
    TRANSFORMS,
    Dataset,
    HyperPoint,
    ModeConvergenceError,
    ModelContext,
    ModelSpec,
    eta_derivs,
    fd_curvature,
    group_sums,
    loglik_rows,
    maximize,
    moment_start,
    natural_scale,
    newton_ascent,
    out_of_support,
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

    Callable on the unconstrained vector ``[beta, log_phi, raneff...]``.
    Instances hold the model context (design, link and names; its priors
    never enter) and the previous conditional modes, so repeated
    evaluations at nearby points cost one or two Newton steps.
    """

    def __init__(self, data: Dataset, spec: ModelSpec):
        self.ctx = ctx = ModelContext(data, spec, default_priors(spec))
        self.link, self.p, self.q = ctx.link, ctx.p, ctx.q
        self.names = ctx.beta_names + ctx.hyper_names
        self.transforms = ("identity",) * self.p + ctx.hyper_transforms
        self.dim = len(self.names)
        self._warm = np.zeros((ctx.n_groups, self.q))
        self.n_calls = 0

    def _group_integrals(self, eta0: np.ndarray, hp: HyperPoint) -> float:
        """Sum over groups of the Laplace-integrated group likelihoods.

        The group modes come from one ``model.newton_ascent`` over all N
        groups: each iteration evaluates every row in one pass and solves the
        N q x q systems in closed form.  Raises ``ModeConvergenceError`` when
        any group ends away from a mode.
        """
        Z, starts, groups, y = self.ctx.Z, self.ctx.group_starts, self.ctx.groups, self.ctx.y
        q_mat, phi = hp.precision_matrix(), hp.phi
        det = None

        def values(b):
            eta = eta0 + (Z * b[groups]).sum(axis=1)
            rows = loglik_rows(self.link, y, eta, phi)
            return np.add.reduceat(rows, starts) - 0.5 * ((b @ q_mat) * b).sum(axis=1)

        def newton(b):
            nonlocal det
            eta = eta0 + (Z * b[groups]).sum(axis=1)
            s, w = eta_derivs(self.link, y, eta, phi)
            zs, zwz = group_sums(Z, starts, s, w)
            grad, curv = zs - b @ q_mat, q_mat - zwz
            det = _block_det(curv)
            spd = (curv[:, 0, 0] > 0.0) & (det > 0.0)
            return grad, _block_solve(curv, grad, np.where(spd, det, 1.0)), spd

        asc = newton_ascent(values, newton, self._warm)
        if not asc.found.all():
            raise ModeConvergenceError(f"{np.count_nonzero(~asc.found)} group modes not found")
        self._warm = asc.x
        return float(np.sum(asc.value) + asc.x.shape[0] * (0.5 * hp.precision_logdet())
                     - 0.5 * np.sum(np.log(det)))

    def __call__(self, v: np.ndarray) -> float:
        self.n_calls += 1
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DomainError(f"expected a vector of length {self.dim}")
        if not np.all(np.isfinite(v)) or float(np.max(np.abs(v))) > COORD_CAP:
            return out_of_support(v)
        hp = HyperPoint.from_array(v[self.p :])
        eta0 = self.ctx.X @ v[: self.p]
        if self.q == 0:
            return float(np.sum(loglik_rows(self.link, self.ctx.y, eta0, hp.phi)))
        try:
            return self._group_integrals(eta0, hp)
        except (ModeConvergenceError, DomainError):
            return out_of_support(v)


def _block_det(m: np.ndarray) -> np.ndarray:
    """Determinants of a stack of 1 x 1 or 2 x 2 matrices (N, q, q)."""
    if m.shape[1] == 1:
        return m[:, 0, 0]
    return m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]


def _block_solve(m: np.ndarray, rhs: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Solve the stacked 1 x 1 or 2 x 2 systems ``m x = rhs`` by Cramer's rule."""
    if m.shape[1] == 1:
        return rhs / det[:, None]
    x0 = m[:, 1, 1] * rhs[:, 0] - m[:, 0, 1] * rhs[:, 1]
    x1 = m[:, 0, 0] * rhs[:, 1] - m[:, 1, 0] * rhs[:, 0]
    return np.stack([x0, x1], axis=1) / det[:, None]


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

    def wald_interval(self, param: str | int, level: float = 0.95) -> tuple[float, float]:
        """Normal-theory interval on the unconstrained scale, transformed back."""
        j = self.index(param)
        z = float(norm.ppf(0.5 * (1.0 + level)))
        lo = self.vector[j] - z * self.se_unconstrained[j]
        hi = self.vector[j] + z * self.se_unconstrained[j]
        t = self.transforms[j]
        return (float(natural_scale(lo, t)), float(natural_scale(hi, t)))

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for j, name in enumerate(self.names):
            lo, hi = self.wald_interval(j)
            out[name] = {
                "estimate": float(self.params[j]),
                "se": float(self.se[j]),
                "wald_lower": lo,
                "wald_upper": hi,
            }
        return out


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
        n_eval=lik.n_calls,
        message=best.message,
        _lik=lik,
    )


def profile_bounds(
    profiled: Callable[[float], float],
    center: float,
    peak: float,
    scale: float,
    drop: float,
    t_max: float | None = None,
) -> tuple[float, float, int]:
    """Find where a profiled log likelihood falls ``drop`` below ``peak``.

    Marches outward from ``center`` in probe steps of ``0.2 * scale``
    (growing by half each probe after the first 20, at most 80 probes a
    side), brackets the first sign change of ``profiled(u) - (peak - drop)``
    on each side, and polishes the crossing with Brent's method.  A side
    that never crosses within the probe range (or within ``t_max`` of the
    center when given) is reported as infinite, which callers map to an
    open-ended interval.  Returns ``(lower, upper, n_eval)``.
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
            if t_max is not None and t > t_max:
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


def profile_interval(fit: MLFit, param: str | int, level: float = 0.95) -> ProfileInterval:
    """Profile likelihood interval for one parameter of an ``ml_fit`` result.

    The nuisance parameters are re-optimized at every probe point, warm
    started from the previous solution and from the nuisance curvature at
    the optimum; endpoints are transformed back to the natural scale, so an
    unbounded side comes out as 0 or +/-inf as the transform dictates.
    """
    if fit._lik is None:
        raise DomainError("this MLFit does not carry its likelihood evaluator")
    if not 0.0 < level < 1.0:
        raise DomainError("level must lie strictly in (0, 1)")
    j = fit.index(param)
    lik = fit._lik
    drop = float(chi2.ppf(level, 1)) / 2.0
    se_j = float(fit.se_unconstrained[j])
    if not np.isfinite(se_j) or se_j <= 0.0:
        se_j = 0.1 * (1.0 + abs(float(fit.vector[j])))

    others = [a for a in range(lik.dim) if a != j]
    warm = fit.vector[others]
    # every inner search starts from the nuisance block's curvature at the
    # optimum: the Schur complement of coordinate j in the covariance
    vcov = 0.5 * (fit.vcov_unconstrained + fit.vcov_unconstrained.T)
    inv_curv = vcov[np.ix_(others, others)] - np.outer(vcov[others, j], vcov[j, others]) / vcov[j, j]

    def profiled(u: float) -> float:
        nonlocal warm
        best = maximize(lambda w: lik(np.insert(w, j, u)), warm, inv_curv=inv_curv)
        if best.value > 0.5 * out_of_support(()):
            warm = best.x
        return best.value

    calls_before = lik.n_calls
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
        n_eval=lik.n_calls - calls_before,
    )
