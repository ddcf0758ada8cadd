"""Nested Laplace approximation for the beta mixed model posterior.

The machinery has two layers.  The generic layer works on any log posterior
over a low-dimensional (<= 4) unconstrained hyperparameter vector:
:func:`explore_theta` locates the mode by BFGS on a central-difference
gradient (``model.maximize``), standardizes axes by the marginal standard
deviations of the two-stage finite-difference curvature there
(``model.fd_curvature``), and lays an axis-aligned grid (z-step 0.75) that
it trims where the log density falls more than 6.0 below the mode;
:func:`marginal_hyper` collapses the grid along one axis and smooths the log
weights with a cubic spline before transforming back to the natural scale
through ``model.TRANSFORMS``, whose derivative gives the Jacobian;
:func:`grid_log_evidence` integrates the grid.  A hyper-mode search that
ends unconverged logs a ``WARNING`` on the ``betamix`` logger.

The model layer supplies that log posterior: for each hyperparameter point
the core's damped Newton (``model.newton_ascent``, analytic gradient and
block Hessian) finds the conditional mode of the latent field and the
Laplace identity

    log pi(theta | y)  ~=  joint(x*, theta) + dim/2 log 2 pi - 1/2 logdet(-H)

is evaluated with the block Cholesky factorization.  Latent marginals are
Gaussian mixtures over the grid (no skewness correction).
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp

from .density import MarginalDensity, kde_density
from .distributions import LOG_2PI, DomainError
from .model import (
    COORD_CAP,
    NEWTON_TOL,
    TRANSFORMS,
    BlockCholesky,
    Dataset,
    HyperPoint,
    ModeConvergenceError,
    ModelContext,
    ModelSpec,
    fd_curvature,
    maximize,
    moment_start,
    natural_scale,
    newton_ascent,
    out_of_support,
)
from .priors import PriorSpec, default_priors

__all__ = [
    "ModeConvergenceError",
    "ModeResult",
    "ThetaGrid",
    "LaplaceOptions",
    "FitResult",
    "find_conditional_mode",
    "hyper_mode",
    "explore_theta",
    "grid_log_evidence",
    "marginal_hyper",
    "marginal_latent",
    "fit_laplace",
]

logger = logging.getLogger("betamix")

MAX_HYPER_DIM = 4
#: grid steps per direction before an axis scan is truncated
MAX_AXIS_STEPS = 40


@dataclass
class ModeResult:
    """Conditional mode of the latent field at one hyperparameter point."""

    x: np.ndarray
    chol: BlockCholesky  # factorization of -H (positive definite) at the mode
    logpost: float
    grad_norm: float

    def laplace(self) -> float:
        """Laplace-approximated unnormalized log posterior of theta."""
        return self.logpost + 0.5 * self.x.size * LOG_2PI - 0.5 * self.chol.logdet()


_SPD, _NOT_SPD, _NO_VALUE = np.ones(1, dtype=bool), np.zeros(1, dtype=bool), np.array([-np.inf])


def find_conditional_mode(ctx: ModelContext, theta: HyperPoint,
                          x0: np.ndarray | None = None) -> ModeResult:
    """Newton maximization of the joint over the latent field at fixed theta.

    One block of ``model.newton_ascent``, with the Newton step solved by the
    block Cholesky factorization of the negative Hessian; the factorization
    at the mode is kept for the Laplace identity.  A point where the joint
    cannot be evaluated has value -inf.  Raises ``ModeConvergenceError``
    when the search does not accept its end point as a mode.
    """
    objective = ctx.conditional_objective(theta)
    chol = None

    def values(x):
        try:
            return np.array([objective(x[0])])
        except (DomainError, FloatingPointError):
            return _NO_VALUE

    def newton(x):
        nonlocal chol
        grad, hess = ctx.grad_hessian(x[0], theta)
        try:
            chol = (-hess).cholesky()
        except np.linalg.LinAlgError:
            return grad[None], grad[None], _NOT_SPD
        # past the gradient test no step is taken, so none is solved for
        done = np.abs(grad).max() < NEWTON_TOL
        return grad[None], (grad if done else chol.solve(grad))[None], _SPD

    x = np.zeros((1, ctx.n_latent)) if x0 is None else np.asarray(x0, dtype=float)[None]
    asc = newton_ascent(values, newton, x)
    if not asc.found[0]:
        raise ModeConvergenceError(f"no conditional mode (|grad| = {asc.grad_norm[0]:.3g})")
    return ModeResult(asc.x[0], chol, float(asc.value[0]), float(asc.grad_norm[0]))


# ---------------------------------------------------------------------------
# generic hyperparameter grid
# ---------------------------------------------------------------------------


@dataclass
class LatentConditional:
    """Gaussian conditional of the latent field at one grid point."""

    mean: np.ndarray
    v_bb: np.ndarray
    c_bx: np.ndarray
    v_xx: np.ndarray

    def var(self, k: int, n_blocks: int, q: int) -> float:
        nb = n_blocks * q
        if k < nb:
            return float(self.v_bb[k // q, k % q, k % q])
        j = k - nb
        return float(self.v_xx[j, j])

    def predictor_moments(
        self, X: np.ndarray, Z: np.ndarray, groups: np.ndarray, n_blocks: int, q: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance of each row's linear predictor."""
        nb = n_blocks * q
        beta = self.mean[nb:]
        mean = X @ beta
        var = np.einsum("np,pq,nq->n", X, self.v_xx, X)
        if q:
            b = self.mean[:nb].reshape(n_blocks, q)
            mean = mean + np.sum(Z * b[groups], axis=1)
            var = var + np.einsum("nq,nqr,nr->n", Z, self.v_bb[groups], Z)
            var = var + 2.0 * np.einsum("nq,nqp,np->n", Z, self.c_bx[groups], X)
        return mean, np.maximum(var, 0.0)


@dataclass
class ThetaGrid:
    """Evaluated hyperparameter grid with normalized weights."""

    theta: np.ndarray  # (T, m) unconstrained coordinates
    z_index: np.ndarray  # (T, m) integer grid offsets from the mode
    logpost: np.ndarray  # (T,) unnormalized log posterior
    weights: np.ndarray  # (T,) normalized
    mode: np.ndarray  # (m,)
    mode_logpost: float
    curvature: np.ndarray  # (m, m) negative Hessian at the mode
    sigma: np.ndarray  # (m,) axis standardization scales
    step: float
    cutoff: float
    names: tuple[str, ...]
    transforms: tuple[str, ...]
    cell_log_volume: float
    conditionals: list[LatentConditional] | None = None

    @property
    def size(self) -> int:
        return self.theta.shape[0]

    def natural_values(self, j: int) -> np.ndarray:
        return natural_scale(self.theta[:, j], self.transforms[j])

    def hyper_mean(self, j: int) -> float:
        return float(np.sum(self.weights * self.natural_values(j)))


def _optimize_mode(fn, theta0: np.ndarray) -> np.ndarray:
    """The hyper mode by ``model.maximize``; an unconverged search is logged."""
    best = maximize(fn, theta0)
    if not best.converged:
        logger.warning("hyper-mode search did not converge: %s", best.message)
    return best.x


def explore_theta(
    logpost_fn: Callable[[np.ndarray], float],
    theta0: Sequence[float],
    names: Sequence[str],
    transforms: Sequence[str],
    step: float = 0.75,
    cutoff: float = 6.0,
) -> ThetaGrid:
    """Locate the hyperparameter mode and lay the standardized grid.

    Along each standardized axis, points are added in units of ``step`` until
    the log posterior falls more than ``cutoff`` below the mode; the first
    point past the cutoff is retained so spline tails are anchored.  The full
    product grid over the per-axis ranges is then evaluated, skipping points
    whose quadratic prediction is hopeless (predicted drop > 2*cutoff + 6).
    """
    theta0 = np.asarray(theta0, dtype=float)
    m = theta0.size
    if m > MAX_HYPER_DIM:
        raise DomainError(f"at most {MAX_HYPER_DIM} hyperparameters supported, got {m}")
    if len(names) != m or len(transforms) != m:
        raise ValueError("names/transforms must match theta dimension")

    mode = _optimize_mode(logpost_fn, theta0)
    f_mode = logpost_fn(mode)

    curv, cov = fd_curvature(logpost_fn, mode)
    sigma = np.sqrt(np.diag(cov))

    values: dict[tuple[int, ...], float] = {tuple([0] * m): f_mode}

    def eval_at(zidx: tuple[int, ...]) -> float:
        if zidx in values:
            return values[zidx]
        theta = mode + sigma * np.array(zidx, dtype=float) * step
        val = logpost_fn(theta)
        values[zidx] = val
        return val

    ranges = []
    for j in range(m):
        lo = hi = 0
        for direction in (+1, -1):
            for k in range(1, MAX_AXIS_STEPS + 1):
                zidx = tuple(direction * k if jj == j else 0 for jj in range(m))
                val = eval_at(zidx)
                if f_mode - val > cutoff:
                    break
            else:
                warnings.warn(
                    f"axis {names[j]} did not reach the cutoff within "
                    f"{MAX_AXIS_STEPS} steps; grid truncated",
                    stacklevel=2,
                )
                k = MAX_AXIS_STEPS
            if direction > 0:
                hi = k
            else:
                lo = -k
        ranges.append(range(lo, hi + 1))

    # quadratic pre-prune in standardized coordinates; in three or more
    # dimensions the corner count forces a tighter predicted-drop threshold
    d_scale = np.diag(sigma)
    curv_z = d_scale @ curv @ d_scale
    prune_at = (cutoff + 2.0) if m >= 3 else (2.0 * cutoff + 6.0)

    for zidx in product(*ranges):
        z = np.array(zidx, dtype=float) * step
        predicted_drop = 0.5 * float(z @ curv_z @ z)
        if predicted_drop > prune_at and zidx not in values:
            continue
        eval_at(zidx)

    # the grid proper drops everything more than `cutoff` below the mode
    # (axis-scan stop points included); the mode always stays
    kept = sorted(z for z, val in values.items() if f_mode - val <= cutoff)
    z_index = np.array(kept, dtype=int)
    theta_pts = mode[None, :] + sigma[None, :] * z_index * step
    logpost = np.array([values[z] for z in kept])
    w = np.exp(logpost - np.max(logpost))
    w /= np.sum(w)
    cell_log_volume = float(np.sum(np.log(sigma * step)))

    return ThetaGrid(
        theta=theta_pts,
        z_index=z_index,
        logpost=logpost,
        weights=w,
        mode=mode,
        mode_logpost=f_mode,
        curvature=curv,
        sigma=sigma,
        step=step,
        cutoff=cutoff,
        names=tuple(names),
        transforms=tuple(transforms),
        cell_log_volume=cell_log_volume,
    )


def grid_log_evidence(grid: ThetaGrid) -> float:
    """Riemann integral of the unnormalized posterior over the grid.

    Every proper normalizing constant is kept by the joint, so differences of
    this value are comparable across models fit on the same data.
    """
    return float(logsumexp(grid.logpost) + grid.cell_log_volume)


def marginal_hyper(grid: ThetaGrid, j: int, grid_points: int = 401) -> MarginalDensity:
    """Marginal of hyperparameter ``j`` on its natural scale.

    Collapses the grid weights along the other axes, interpolates the log
    weights with a natural cubic spline on the unconstrained scale, and
    back-transforms with the Jacobian of the axis transform.
    """
    from scipy.interpolate import CubicSpline

    name = grid.names[j]
    transform = grid.transforms[j]
    zvals = grid.z_index[:, j]
    uniq, inv = np.unique(zvals, return_inverse=True)
    pmf = np.zeros(uniq.size)
    np.add.at(pmf, inv, grid.weights)
    theta_nodes = grid.mode[j] + grid.sigma[j] * uniq * grid.step

    if uniq.size >= 4:
        logpmf = np.log(np.maximum(pmf, 1e-300))
        spline = CubicSpline(theta_nodes, logpmf, bc_type="natural")
        fine = np.linspace(theta_nodes[0], theta_nodes[-1], grid_points)
        logpdf = spline(fine)
        pdf = np.exp(logpdf - np.max(logpdf))
    else:
        # degenerate collapse: fall back to the curvature Gaussian
        sd = grid.sigma[j]
        fine = np.linspace(grid.mode[j] - 6.0 * sd, grid.mode[j] + 6.0 * sd, grid_points)
        pdf = np.exp(-0.5 * ((fine - grid.mode[j]) / sd) ** 2)

    x_nat = natural_scale(fine, transform)
    return MarginalDensity(x_nat, pdf / np.maximum(TRANSFORMS[transform][1](fine), 1e-300),
                           name=name)


def marginal_latent(grid: ThetaGrid, k: int, n_blocks: int, q: int, grid_points: int,
                    name: str = "") -> MarginalDensity:
    """Mixture-of-Gaussians marginal of latent component ``k`` over the grid."""
    if grid.conditionals is None:
        raise ValueError("grid carries no latent conditionals")
    means = np.array([c.mean[k] for c in grid.conditionals])
    sds = np.sqrt(np.array([c.var(k, n_blocks, q) for c in grid.conditionals]))
    lo = float(np.min(means - 6.0 * sds))
    hi = float(np.max(means + 6.0 * sds))
    xs = np.linspace(lo, hi, grid_points)
    zmat = (xs[None, :] - means[:, None]) / sds[:, None]
    dens = np.exp(-0.5 * zmat * zmat) / (np.sqrt(2.0 * np.pi) * sds[:, None])
    pdf = grid.weights @ dens
    return MarginalDensity(xs, pdf, name=name)


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceOptions:
    step: float = 0.75
    cutoff: float = 6.0
    grid_points: int = 401
    compute_gof: bool = True


@dataclass
class FitResult:
    """Posterior marginals, the hyper grid and fit metadata for one model."""

    marginals: dict[str, MarginalDensity]
    theta_grid: ThetaGrid
    param_names: tuple[str, ...]
    latent_names: tuple[str, ...]
    spec: ModelSpec
    priors: PriorSpec
    data_fingerprint: str
    n_obs: int
    options: LaplaceOptions
    timings: dict[str, float] = field(default_factory=dict)
    gof: dict[str, float] | None = None
    model_name: str = ""
    _ctx: ModelContext | None = field(default=None, repr=False)
    # the grid sums behind DIC and CPO, filled by selection on first use
    _gof_pass: object = field(default=None, repr=False, compare=False)

    def marginal(self, name: str) -> MarginalDensity:
        if name in self.marginals:
            return self.marginals[name]
        if name in self.latent_names:
            k = self.latent_names.index(name)
            ctx = self._require_ctx()
            return marginal_latent(self.theta_grid, k, ctx.n_groups, ctx.q,
                                   self.options.grid_points, name=name)
        raise KeyError(f"unknown parameter {name!r}")

    def interval(self, name: str, level: float = 0.95) -> tuple[float, float]:
        return self.marginal(name).equal_tail_interval(level)

    def summary(self) -> dict[str, dict[str, float]]:
        return {name: self.marginals[name].summary() for name in self.param_names}

    def posterior_mean(self, name: str) -> float:
        return self.marginal(name).mean()

    def _require_ctx(self) -> ModelContext:
        if self._ctx is None:
            raise ValueError("fit carries no model context")
        return self._ctx


class _ThetaObjective:
    """Warm-started Laplace objective with a mode cache keyed by coordinates."""

    def __init__(self, ctx: ModelContext):
        self.ctx = ctx
        self.warm: np.ndarray | None = None
        self.modes: dict[tuple[float, ...], ModeResult] = {}
        self.n_eval = 0

    def __call__(self, theta_arr: np.ndarray) -> float:
        self.n_eval += 1
        key = tuple(np.asarray(theta_arr, dtype=float))
        if key in self.modes:
            return self.modes[key].laplace()
        if np.max(np.abs(theta_arr)) > COORD_CAP:
            return out_of_support(theta_arr)
        theta = HyperPoint.from_array(theta_arr)
        try:
            mode = find_conditional_mode(self.ctx, theta, x0=self.warm)
        except (ModeConvergenceError, np.linalg.LinAlgError, DomainError, OverflowError):
            # a stale warm start can strand Newton; retry from the origin
            try:
                mode = find_conditional_mode(self.ctx, theta, x0=None)
            except (ModeConvergenceError, np.linalg.LinAlgError, DomainError, OverflowError):
                return out_of_support(theta_arr)
        self.warm = mode.x
        self.modes[key] = mode
        return mode.laplace()

    def mode_at(self, theta_arr: np.ndarray) -> ModeResult:
        key = tuple(np.asarray(theta_arr, dtype=float))
        if key not in self.modes:
            self(theta_arr)
        if key not in self.modes:
            raise ModeConvergenceError(f"no conditional mode at {theta_arr}")
        return self.modes[key]


def hyper_mode(ctx: ModelContext) -> tuple[np.ndarray, ModeResult, np.ndarray, np.ndarray]:
    """Posterior mode of the hyperparameters with curvature and scales.

    Returns the unconstrained mode coordinates, the conditional latent mode
    there, the finite-difference negative Hessian and the per-axis standard
    deviations.  Used to initialize the sampler.
    """
    objective = _ThetaObjective(ctx)
    mode_arr = _optimize_mode(objective, moment_start(ctx.y, ctx.q).as_array())
    curv, cov = fd_curvature(objective, mode_arr)
    return mode_arr, objective.mode_at(mode_arr), curv, np.sqrt(np.diag(cov))


def fit_laplace(
    data: Dataset,
    spec: ModelSpec,
    priors: PriorSpec | None = None,
    options: LaplaceOptions | None = None,
    model_name: str = "",
) -> FitResult:
    """Full nested-Laplace fit: grid, hyper marginals, fixed-effect marginals.

    Deterministic: repeated calls on the same inputs produce identical
    results bit for bit.
    """
    opts = options or LaplaceOptions()
    priors = default_priors(spec) if priors is None else priors
    ctx = ModelContext(data, spec, priors)

    t0 = time.perf_counter()
    objective = _ThetaObjective(ctx)
    grid = explore_theta(
        objective,
        moment_start(ctx.y, ctx.q).as_array(),
        names=ctx.hyper_names,
        transforms=ctx.hyper_transforms,
        step=opts.step,
        cutoff=opts.cutoff,
    )
    t_grid = time.perf_counter()

    conditionals = []
    for t in range(grid.size):
        mode = objective.mode_at(grid.theta[t])
        v_bb, c_bx, v_xx = mode.chol.inverse_pieces()
        conditionals.append(LatentConditional(mode.x.copy(), v_bb, c_bx, v_xx))
    grid.conditionals = conditionals

    marginals: dict[str, MarginalDensity] = {}
    nb = ctx.n_groups * ctx.q
    for k, name in enumerate(ctx.beta_names):
        marginals[name] = marginal_latent(grid, nb + k, ctx.n_groups, ctx.q, opts.grid_points,
                                          name=name)
    for j, name in enumerate(ctx.hyper_names):
        marginals[name] = marginal_hyper(grid, j, grid_points=opts.grid_points)
    if ctx.q == 2:
        rho_vals = np.array([HyperPoint.from_array(t).natural()["rho"] for t in grid.theta])
        marginals["rho"] = kde_density(rho_vals, weights=grid.weights, name="rho")
    t_marg = time.perf_counter()

    fit = FitResult(
        marginals=marginals,
        theta_grid=grid,
        param_names=ctx.param_names,
        latent_names=ctx.latent_names,
        spec=spec,
        priors=priors,
        data_fingerprint=data.fingerprint(),
        n_obs=data.n,
        options=opts,
        timings={"grid": t_grid - t0, "marginals": t_marg - t_grid},
        model_name=model_name,
        _ctx=ctx,
    )
    if opts.compute_gof:
        from . import selection

        t1 = time.perf_counter()
        dic_val, p_d = selection.dic(fit)
        cpo_res = selection.cpo(fit)
        fit.gof = {
            "lml": grid_log_evidence(grid),
            "dic": dic_val,
            "p_d": p_d,
            "mean_log_cpo": cpo_res.mean_log,
        }
        fit.timings["gof"] = time.perf_counter() - t1
    return fit
