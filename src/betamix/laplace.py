"""Nested Laplace approximation for the beta mixed model posterior.

The machinery has two layers.  The generic layer works on any log posterior
over a low-dimensional (<= 4) unconstrained hyperparameter vector:
:func:`explore_theta` locates the mode by BFGS on a central-difference
gradient (``model.maximize``), takes the two-stage finite-difference
curvature there (``model.fd_curvature``) and lays the integration points.
With m <= 2 hyperparameters (q = 0, 1) they are an axis-aligned grid
(z-step ``GRID_STEP`` in units of the marginal standard deviations) trimmed
where the log density falls more than ``GRID_CUTOFF`` below the largest value
evaluated; with m >= 3 (q = 2) they are INLA's central composite design in
the eigen-standardized coordinates of the curvature, 25 points for m = 4
(Rue, Martino & Chopin 2009, section 6.5), as R-INLA's
``int.strategy="auto"`` chooses.  :func:`marginal_hyper` gives the
marginal of one hyperparameter on its natural scale through
``model.TRANSFORMS``, whose derivative gives the Jacobian: on a grid it
collapses the weights along the other axes and smooths the log weights with
a cubic spline; on a design it smooths seeded draws from INLA's asymmetric
Gaussian (Martins, Simpson, Lindgren & Rue 2013), whose per-axis scales come
from probes at z = +-2 along each eigen-axis.  ``ThetaGrid.log_evidence``
integrates either rule.  A grid keeps every point it evaluated, so
:func:`reweight_fit` moves a grid fit to other hyper priors by the change in
log prior alone and solves only the points an axis must grow by.  A
hyper-mode search that ends unconverged, and a design point without a value,
log a ``WARNING`` on the ``betamix`` logger; the latter falls back to the
grid.

The model layer supplies that log posterior: for each hyperparameter point
the core's damped Newton (``model.newton_ascent``, analytic gradient and
block Hessian) finds the conditional mode of the latent field and the
Laplace identity

    log pi(theta | y)  ~=  joint(x*, theta) + dim/2 log 2 pi - 1/2 logdet(-H)

is evaluated with the block Cholesky factorization.  Every evaluation is one
batch call whose row 0 is the warm-start anchor (see ``model``): a stencil's
centre, the hyper mode for the grid's product stage and the design, and for
each axis-scan point the axis point evaluated before it.  Latent marginals
are Gaussian mixtures over the integration points (no skewness correction).
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Sequence

import numpy as np
from scipy.special import logsumexp, ndtri

from .density import MARGINAL_POINTS, MarginalDensity, kde_density
from .distributions import LOG_2PI, DomainError
from .model import (
    COORD_CAP,
    NEWTON_TOL,
    TRANSFORMS,
    BlockCholesky,
    Dataset,
    ModeConvergenceError,
    ModelContext,
    ModelSpec,
    chunk_size,
    covariance_rho,
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
    "marginal_hyper",
    "marginal_latent",
    "fit_laplace",
    "reweight_fit",
    "same_node_marginals",
]

logger = logging.getLogger("betamix")

MAX_HYPER_DIM = 4
#: default grid step (standardized units) and cutoff (log-density drop)
GRID_STEP = 0.75
GRID_CUTOFF = 6.0
#: grid steps per direction before an axis scan is truncated
MAX_AXIS_STEPS = 40
#: CCD radius factor f0 (R-INLA's default): the off-centre design points lie
#: at radius f0 sqrt(m) in standardized units
CCD_F0 = 1.1
#: standardized distance of the skewness probes along each eigen-axis
SKEW_PROBE_Z = 2.0
#: count and seed of the draws behind the asymmetric-Gaussian hyper
#: marginals; the fixed seed keeps a fit deterministic bit for bit
SKEW_DRAWS = 4000
SKEW_SEED = 20130612


@dataclass
class ModeResult:
    """Conditional modes of the latent field at B hyperparameter points."""

    x: np.ndarray  # (B, d) the modes
    chol: BlockCholesky  # factorization of -H at the modes (positive definite where found)
    logpost: np.ndarray  # (B,) joint log posterior there
    grad_norm: np.ndarray  # (B,)
    found: np.ndarray  # (B,) accepted as a mode

    @cached_property
    def laplace(self) -> np.ndarray:
        """(B,) Laplace-approximated unnormalized log posteriors of theta."""
        return self.logpost + 0.5 * self.x.shape[1] * LOG_2PI - 0.5 * self.chol.logdet()

    @cached_property
    def _inverse(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.chol.inverse_pieces()

    def conditional(self, i: int) -> "LatentConditional":
        """Gaussian conditional of the latent field at point ``i``; the
        inverse pieces are computed once for the whole batch."""
        v_bb, c_bx, v_xx = self._inverse
        return LatentConditional(self.x[i], v_bb[i], c_bx[i], v_xx[i])


def find_conditional_mode(ctx: ModelContext, thetas: np.ndarray, x0: np.ndarray) -> ModeResult:
    """Newton maximization of the joint over the latent field at B fixed
    hyper points, the rows of ``thetas`` (B, m), from ``x0`` (B, d).

    One call of ``model.newton_ascent`` with one block per point, the
    Newton steps solved by the batched block Cholesky factorization of the
    negative Hessians; the factorization at the modes is kept for the
    Laplace identity.  A batch the joint cannot be evaluated on has value
    -inf.  ``found`` marks the blocks that ended at a mode; raises
    ``ModeConvergenceError`` when none did.
    """
    objective = ctx.conditional_objective(thetas)
    chol = None

    def values(x):
        try:
            return objective(x)
        except (DomainError, FloatingPointError):
            return np.full(x.shape[0], -np.inf)

    def newton(x):
        nonlocal chol
        grad, hess = ctx.grad_hessian(x, thetas)
        chol = (-hess).cholesky()
        # once every block passes the gradient test no step is taken, so
        # none is solved for
        done = np.abs(grad).max() < NEWTON_TOL
        return grad, (grad if done else chol.solve(grad)), chol.ok

    asc = newton_ascent(values, newton, x0)
    if not np.count_nonzero(asc.found):
        raise ModeConvergenceError(f"no conditional mode (|grad| = {asc.grad_norm.min():.3g})")
    return ModeResult(asc.x, chol, asc.value, asc.grad_norm, asc.found)


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
    """Evaluated hyperparameter integration points with normalized weights.

    ``integration`` names the rule.  On a ``"grid"`` the points are
    ``mode + sigma * z_index * step``; on a ``"ccd"`` design they are
    ``mode + axes @ z``, and ``scales`` (m, 2) holds the asymmetric-Gaussian
    scale of each eigen-axis, negative side first.  ``log_evidence`` is the
    unnormalized posterior integrated by the rule; the joint keeps every
    proper normalizing constant, so it compares models fit on the same data.
    A grid also keeps every point it evaluated (``evaluated``), the axis-scan
    stop points and the product points beyond the cutoff included, for
    :func:`reweight_fit`.
    """

    theta: np.ndarray  # (T, m) unconstrained coordinates
    logpost: np.ndarray  # (T,) unnormalized log posterior
    weights: np.ndarray  # (T,) normalized
    mode: np.ndarray  # (m,)
    names: tuple[str, ...]
    transforms: tuple[str, ...]
    log_evidence: float
    integration: str = "grid"
    z_index: np.ndarray | None = None  # grid: (T, m) integer offsets from the mode
    sigma: np.ndarray | None = None  # grid: (m,) axis standardization scales
    step: float = 0.0
    curv: np.ndarray | None = None  # grid: (m, m) curvature at the mode
    # grid: every evaluated point's z_index and value, those beyond the cutoff too
    evaluated: dict[tuple[int, ...], float] | None = None
    axes: np.ndarray | None = None  # ccd: (m, m) eigenvectors over sqrt(eigenvalues)
    scales: np.ndarray | None = None  # ccd: (m, 2)
    conditionals: list[LatentConditional] | None = None

    @property
    def size(self) -> int:
        return self.theta.shape[0]

    @cached_property
    def hyper_draws(self) -> np.ndarray:
        """(SKEW_DRAWS, m) fixed-seed draws of theta from the design's
        asymmetric Gaussian (Martins, Simpson, Lindgren & Rue 2013).

        Eigen-coordinate k is a split normal: N(0, s-^2) below zero and
        N(0, s+^2) above, continuous at zero, so the two sides hold masses in
        the ratio s- : s+.  Its uniforms are a seeded Latin hypercube, so
        every coordinate's quantiles are stratified.
        """
        rng = np.random.default_rng(SKEW_SEED)
        u = (np.array([rng.permutation(SKEW_DRAWS) for _ in self.mode]).T + 0.5) / SKEW_DRAWS
        lo, hi = self.scales[:, 0], self.scales[:, 1]
        p = lo / (lo + hi)
        below = u < p
        z = ndtri(np.where(below, u / (2.0 * p), 0.5 + (u - p) / (2.0 * (1.0 - p))))
        return self.mode + (z * np.where(below, lo, hi)) @ self.axes.T

    def natural_values(self, j: int) -> np.ndarray:
        return natural_scale(self.theta[:, j], self.transforms[j])

    def hyper_mean(self, j: int) -> float:
        return float(np.sum(self.weights * self.natural_values(j)))


def _optimize_mode(many, theta0: np.ndarray) -> np.ndarray:
    """The hyper mode by ``model.maximize`` on the batch evaluator ``many``;
    an unconverged search is logged."""
    best = maximize(many, theta0)
    if not best.converged:
        logger.warning("hyper-mode search did not converge: %s", best.message)
    return best.x


def explore_theta(
    logpost_many: Callable[[np.ndarray], Sequence[float]],
    theta0: Sequence[float],
    names: Sequence[str],
    transforms: Sequence[str],
    step: float = GRID_STEP,
    cutoff: float = GRID_CUTOFF,
) -> ThetaGrid:
    """Locate the hyperparameter mode and lay the integration points.

    ``logpost_many(points)`` returns the log posterior at the rows of
    ``points``, row 0 the warm-start anchor: the mode search
    (``model.maximize``) and the curvature (``model.fd_curvature``) call it
    once per stencil, centre first.

    With m >= 3 hyperparameters the points are the central composite design
    of :func:`_lay_ccd`, evaluated with its skewness probes in one call of
    ``logpost_many``.  With m <= 2, or when a design point has no value,
    they are the grid of :func:`_grid`.
    """
    theta0 = np.asarray(theta0, dtype=float)
    m = theta0.size
    if m > MAX_HYPER_DIM:
        raise DomainError(f"at most {MAX_HYPER_DIM} hyperparameters supported, got {m}")
    if len(names) != m or len(transforms) != m:
        raise ValueError("names/transforms must match theta dimension")

    mode = _optimize_mode(logpost_many, theta0)
    curv, cov = fd_curvature(logpost_many, mode)
    values = {(0,) * m: logpost_many(mode[None])[0]}
    if m >= 3:
        design = _lay_ccd(logpost_many, mode, curv, names, transforms)
        if design is not None:
            return design
    return _grid(logpost_many, values, mode, np.sqrt(np.diag(cov)), curv, step, cutoff, names,
                 transforms)


def _grid(
    logpost_many: Callable[[np.ndarray], Sequence[float]],
    values: dict[tuple[int, ...], float],
    mode: np.ndarray,
    sigma: np.ndarray,
    curv: np.ndarray,
    step: float,
    cutoff: float,
    names: Sequence[str],
    transforms: Sequence[str],
) -> ThetaGrid:
    """The grid over ``values`` (integer offsets from the mode, in units of
    ``sigma * step``, to log posterior), grown by the grid rule.

    Along each axis, in each direction, points are walked until one falls
    more than ``cutoff`` below the largest value in ``values`` on entry; a
    point already in ``values`` is read, a new one is row 1 of a call of
    ``logpost_many`` whose row 0 is the axis point before it.  The product
    points over the walked ranges that are not in ``values`` and whose
    quadratic prediction is not hopeless (a predicted drop above
    2*cutoff + 6; the list depends only on the curvature) are then one call
    after the mode.  Every point evaluated stays in ``values``, the grid's
    ``evaluated``; the grid keeps those at most ``cutoff`` below the largest
    value in ``values`` after the walk (a higher point the walk adds only
    narrows what is kept).
    """
    m = mode.size
    top = max(values.values())
    ranges = []
    prev = mode
    for j in range(m):
        lo = hi = 0
        for direction in (+1, -1):
            for k in range(1, MAX_AXIS_STEPS + 1):
                zidx = tuple(direction * k if jj == j else 0 for jj in range(m))
                point = _lattice(mode, sigma, step, zidx)
                if zidx not in values:
                    values[zidx] = logpost_many(np.vstack([prev, point]))[1]
                prev = point
                if top - values[zidx] > cutoff:
                    break
            else:
                warnings.warn(
                    f"axis {names[j]} did not reach the cutoff within "
                    f"{MAX_AXIS_STEPS} steps; grid truncated",
                    stacklevel=3,
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

    pending = []
    for zidx in product(*ranges):
        z = np.array(zidx, dtype=float) * step
        if zidx not in values and 0.5 * float(z @ curv_z @ z) <= prune_at:
            pending.append(zidx)
    points = _lattice(mode, sigma, step, np.reshape(pending, (-1, m)))
    values.update(zip(pending, logpost_many(np.vstack([mode, points]))[1:]))
    return _grid_over(values, _within(values, max(values.values()), cutoff), mode, sigma, curv,
                      step, names, transforms)


def _lattice(mode: np.ndarray, sigma: np.ndarray, step: float, z) -> np.ndarray:
    """Grid points at the integer offsets ``z`` (..., m) from the mode.  The
    one formula of a grid point: the mode cache is keyed by coordinates, so
    a point must come out the same bit for bit wherever it is made."""
    return mode + sigma * np.asarray(z, dtype=float) * step


def _within(values: dict[tuple[int, ...], float], top: float, cutoff: float) -> list:
    """The sorted points of ``values`` at most ``cutoff`` below ``top``."""
    return sorted(z for z, val in values.items() if top - val <= cutoff)


def _grid_over(
    values: dict[tuple[int, ...], float],
    kept: list[tuple[int, ...]],
    mode: np.ndarray,
    sigma: np.ndarray,
    curv: np.ndarray,
    step: float,
    names: Sequence[str],
    transforms: Sequence[str],
) -> ThetaGrid:
    """The grid of the points ``kept`` of ``values``; every evaluated point
    stays on ``ThetaGrid.evaluated``."""
    m = mode.size
    z_index = np.array(kept, dtype=int).reshape(-1, m)
    logpost = np.array([values[z] for z in kept])
    w = np.exp(logpost - np.max(logpost))
    w /= np.sum(w)
    cell_log_volume = float(np.sum(np.log(sigma * step)))

    return ThetaGrid(
        theta=_lattice(mode, sigma, step, z_index),
        logpost=logpost,
        weights=w,
        mode=mode,
        names=tuple(names),
        transforms=tuple(transforms),
        log_evidence=float(logsumexp(logpost) + cell_log_volume),
        z_index=z_index,
        sigma=sigma,
        step=step,
        curv=curv,
        evaluated=values,
    )


def _lay_ccd(
    logpost_many: Callable[[np.ndarray], Sequence[float]],
    mode: np.ndarray,
    curv: np.ndarray,
    names: Sequence[str],
    transforms: Sequence[str],
) -> ThetaGrid | None:
    """Central composite design over theta (Rue, Martino & Chopin 2009, 6.5).

    In the coordinates theta = mode + V L^-1/2 z of the eigendecomposition
    ``curv`` = V L V', the design is the centre, the 2m axial points at
    +-f0 sqrt(m) and the 2^m factorial points at +-f0 (f0 = ``CCD_F0``; for
    m = 1 the two coincide and the axial pair is left out).  Relative to the
    centre, every other point has the weight
    exp(m f0^2 / 2) / ((n_p - 1)(f0^2 - 1)), which makes the rule exact for
    the mass and the second moments of a standard Gaussian in z.  The
    2m probes at z = +-``SKEW_PROBE_Z`` along the eigen-axes set the
    asymmetric-Gaussian scales z / sqrt(2 drop) of the hyper marginals.
    Centre, design and probes are one call of ``logpost_many``.  A point
    without a finite value inside the support, or a probe not below the
    mode, logs a ``WARNING`` and returns None.
    """
    m = mode.size
    vals, vecs = np.linalg.eigh(curv)
    axes = vecs / np.sqrt(vals)
    eye = np.eye(m)
    factorial = CCD_F0 * np.array(list(product((-1.0, 1.0), repeat=m)))
    axial = CCD_F0 * np.sqrt(m) * np.vstack([eye, -eye]) if m > 1 else np.empty((0, m))
    z = np.vstack([np.zeros((1, m)), axial, factorial, SKEW_PROBE_Z * np.vstack([-eye, eye])])
    points = mode + z @ axes.T
    values = np.asarray(logpost_many(points), dtype=float)
    f_mode = values[0]

    n_p = len(z) - 2 * m
    drop = f_mode - values[n_p:]
    failed = ~np.isfinite(values) | (values == [out_of_support(p) for p in points])
    failed[n_p:] |= ~(drop > 0.0)
    if failed.any():
        logger.warning("CCD over %s: %d of %d design points and probes have no value or "
                       "are probes not below the mode, the first at theta = %s; "
                       "integrating with the grid", ", ".join(names), np.count_nonzero(failed),
                       len(z) - 1, np.array2string(points[np.argmax(failed)], precision=4))
        return None

    f0_sq = CCD_F0 * CCD_F0
    log_delta = np.full(n_p, 0.5 * m * f0_sq - np.log((n_p - 1) * (f0_sq - 1.0)))
    log_delta[0] = 0.0
    a = log_delta + values[:n_p] - f_mode
    w = np.exp(a - np.max(a))
    w /= np.sum(w)
    log_evidence = (f_mode + logsumexp(a) + 0.5 * m * LOG_2PI + np.log((f0_sq - 1.0) / f0_sq)
                    - 0.5 * float(np.sum(np.log(vals))))
    return ThetaGrid(
        theta=points[:n_p],
        logpost=values[:n_p],
        weights=w,
        mode=mode,
        names=tuple(names),
        transforms=tuple(transforms),
        log_evidence=float(log_evidence),
        integration="ccd",
        axes=axes,
        scales=(SKEW_PROBE_Z / np.sqrt(2.0 * drop)).reshape(2, m).T,
    )


def marginal_hyper(grid: ThetaGrid, j: int) -> MarginalDensity:
    """Marginal of hyperparameter ``j`` on its natural scale, on
    ``density.MARGINAL_POINTS`` abscissae.

    On a grid, collapses the weights along the other axes and interpolates
    the log weights with a natural cubic spline on the unconstrained scale;
    on a design, smooths the ``SKEW_DRAWS`` asymmetric-Gaussian draws on the
    unconstrained scale with ``kde_density``, a binned kernel estimate (see
    there for its measured gap to the exact kernel sum).
    Either density is back-transformed with the Jacobian of the axis
    transform.
    """
    from scipy.interpolate import CubicSpline

    name = grid.names[j]
    transform = grid.transforms[j]
    if grid.integration == "ccd":
        dens = kde_density(grid.hyper_draws[:, j])
        return _natural_density(dens.x, dens.pdf, transform, name)
    zvals = grid.z_index[:, j]
    uniq, inv = np.unique(zvals, return_inverse=True)
    pmf = np.zeros(uniq.size)
    np.add.at(pmf, inv, grid.weights)
    theta_nodes = _lattice(grid.mode[j], grid.sigma[j], grid.step, uniq)

    if uniq.size >= 4:
        logpmf = np.log(np.maximum(pmf, 1e-300))
        spline = CubicSpline(theta_nodes, logpmf, bc_type="natural")
        fine = np.linspace(theta_nodes[0], theta_nodes[-1], MARGINAL_POINTS)
        logpdf = spline(fine)
        pdf = np.exp(logpdf - np.max(logpdf))
    else:
        # degenerate collapse: fall back to the curvature Gaussian
        sd = grid.sigma[j]
        fine = np.linspace(grid.mode[j] - 6.0 * sd, grid.mode[j] + 6.0 * sd, MARGINAL_POINTS)
        pdf = np.exp(-0.5 * ((fine - grid.mode[j]) / sd) ** 2)
    return _natural_density(fine, pdf, transform, name)


def _natural_density(fine: np.ndarray, pdf: np.ndarray, transform: str,
                     name: str) -> MarginalDensity:
    """A density on unconstrained coordinates ``fine``, moved to the natural scale."""
    x_nat = natural_scale(fine, transform)
    return MarginalDensity(x_nat, pdf / np.maximum(TRANSFORMS[transform][1](fine), 1e-300),
                           name=name)


def marginal_latent(grid: ThetaGrid, k: int, n_blocks: int, q: int,
                    name: str = "") -> MarginalDensity:
    """Mixture-of-Gaussians marginal of latent component ``k`` over the grid,
    on ``density.MARGINAL_POINTS`` abscissae."""
    if grid.conditionals is None:
        raise ValueError("grid carries no latent conditionals")
    means = np.array([c.mean[k] for c in grid.conditionals])
    sds = np.sqrt(np.array([c.var(k, n_blocks, q) for c in grid.conditionals]))
    lo = float(np.min(means - 6.0 * sds))
    hi = float(np.max(means + 6.0 * sds))
    xs = np.linspace(lo, hi, MARGINAL_POINTS)
    zmat = (xs[None, :] - means[:, None]) / sds[:, None]
    dens = np.exp(-0.5 * zmat * zmat) / (np.sqrt(2.0 * np.pi) * sds[:, None])
    pdf = grid.weights @ dens
    return MarginalDensity(xs, pdf, name=name)


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceOptions:
    """Grid step and cutoff (standardized units, log-density drop) and the
    goodness-of-fit switch.  Every marginal has ``density.MARGINAL_POINTS``
    abscissae.

    The integration rule over theta follows the number m of hyperparameters,
    as R-INLA's ``int.strategy="auto"``: the grid for m <= 2 (q = 0 and 1)
    and the central composite design for m >= 3 (q = 2).  ``step`` and
    ``cutoff`` apply to the grid only.  Bad values raise ``DomainError``
    here, not as an unrelated error after the hyper-mode search."""

    step: float = GRID_STEP
    cutoff: float = GRID_CUTOFF
    compute_gof: bool = True

    def __post_init__(self) -> None:
        for name in ("step", "cutoff"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise DomainError(f"{name} must be finite and positive, got {value!r}")


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
    # the solver behind the grid, with its latent modes, for reweight_fit
    _objective: "_ThetaObjective | None" = field(default=None, repr=False, compare=False)
    # the grid sums behind DIC and CPO, filled by selection on first use
    _gof_pass: object = field(default=None, repr=False, compare=False)

    def marginal(self, name: str) -> MarginalDensity:
        if name in self.marginals:
            return self.marginals[name]
        if name in self.latent_names:
            k = self.latent_names.index(name)
            ctx = self._require_ctx()
            return marginal_latent(self.theta_grid, k, ctx.n_groups, ctx.q, name=name)
        raise KeyError(f"unknown parameter {name!r}")

    def summary(self) -> dict[str, dict[str, float]]:
        return {name: self.marginals[name].summary() for name in self.param_names}

    def posterior_mean(self, name: str) -> float:
        return self.marginal(name).mean()

    def _require_ctx(self) -> ModelContext:
        if self._ctx is None:
            raise ValueError("fit carries no model context")
        return self._ctx


_SOLVE_ERRORS = (ModeConvergenceError, DomainError, OverflowError)


def _key(theta_arr: np.ndarray) -> tuple[float, ...]:
    return tuple(np.asarray(theta_arr, dtype=float))


class _ThetaObjective:
    """The Laplace objective at batches of hyper points, with a mode cache
    keyed by coordinates.

    The cache maps a point to its batch of modes and its index there;
    ``warm`` is the latent mode at the last anchor that has one.
    """

    def __init__(self, ctx: ModelContext):
        self.ctx = ctx
        self.warm = np.zeros(ctx.n_latent)
        self.modes: dict[tuple[float, ...], tuple[ModeResult, int]] = {}

    def _open(self, theta: np.ndarray) -> bool:
        return _key(theta) not in self.modes and np.max(np.abs(theta)) <= COORD_CAP

    def _solve(self, thetas: np.ndarray, start: np.ndarray) -> ModeResult | None:
        try:
            return find_conditional_mode(self.ctx, thetas, np.tile(start, (len(thetas), 1)))
        except _SOLVE_ERRORS:
            return None

    def _solve_alone(self, theta: np.ndarray, *starts: np.ndarray) -> None:
        """Solve ``theta`` as a one-point batch from each start in turn until
        one finds its mode."""
        for start in starts:
            res = self._solve(theta[None], start)
            if res is not None:
                self.modes[_key(theta)] = (res, 0)
                return

    def many(self, points: np.ndarray) -> np.ndarray:
        """Laplace values at the rows of ``points``.

        Row 0, the anchor, is solved first on its own, from the previous
        anchor's latent mode and then from the origin; its mode, when it has
        one, is the start of every other point.  The points not yet cached
        and inside ``COORD_CAP`` are solved in chunks of
        ``model.chunk_size(n)`` points, one ``find_conditional_mode`` per
        chunk.  A point its chunk does not find is solved again on its own,
        from the same start and then from the origin.  A point without a
        mode gets ``model.out_of_support``.
        """
        origin = np.zeros(self.ctx.n_latent)
        anchor = points[0]
        if self._open(anchor):
            self._solve_alone(anchor, self.warm, origin)
        if _key(anchor) in self.modes:
            res, i = self.modes[_key(anchor)]
            self.warm = res.x[i]
        todo = [k for k, theta in enumerate(points) if self._open(theta)]
        size = chunk_size(self.ctx.n)
        for lo in range(0, len(todo), size):
            chunk = todo[lo:lo + size]
            res = self._solve(points[chunk], self.warm)
            # a one-point chunk was already solved on its own from the start
            retry = (self.warm, origin) if len(chunk) > 1 else (origin,)
            for i, k in enumerate(chunk):
                if res is not None and res.found[i]:
                    self.modes[_key(points[k])] = (res, i)
                else:
                    self._solve_alone(points[k], *retry)
        return np.array([self._value(theta) for theta in points])

    def _value(self, theta: np.ndarray) -> float:
        hit = self.modes.get(_key(theta))
        return out_of_support(theta) if hit is None else float(hit[0].laplace[hit[1]])

    def mode_at(self, theta_arr: np.ndarray) -> tuple[ModeResult, int]:
        key = _key(theta_arr)
        if key not in self.modes:
            self.many(theta_arr[None])
        if key not in self.modes:
            raise ModeConvergenceError(f"no conditional mode at {theta_arr}")
        return self.modes[key]


def hyper_mode(ctx: ModelContext) -> tuple[np.ndarray, LatentConditional, np.ndarray, np.ndarray]:
    """Posterior mode of the hyperparameters with curvature and scales.

    Returns the unconstrained mode coordinates, the Gaussian conditional of
    the latent field there, the finite-difference negative Hessian and the
    per-axis standard deviations.  Used to initialize the sampler.
    """
    objective = _ThetaObjective(ctx)
    mode_arr = _optimize_mode(objective.many, moment_start(ctx.y, ctx.q).as_array())
    curv, cov = fd_curvature(objective.many, mode_arr)
    res, i = objective.mode_at(mode_arr)
    return mode_arr, res.conditional(i), curv, np.sqrt(np.diag(cov))


def fit_laplace(
    data: Dataset,
    spec: ModelSpec,
    priors: PriorSpec | None = None,
    options: LaplaceOptions | None = None,
    model_name: str = "",
) -> FitResult:
    """Full nested-Laplace fit: integration points over theta, hyper
    marginals, fixed-effect marginals.

    Deterministic: repeated calls on the same inputs produce identical
    results bit for bit.
    """
    opts = options or LaplaceOptions()
    priors = default_priors(spec) if priors is None else priors
    ctx = ModelContext(data, spec, priors)

    t0 = time.perf_counter()
    objective = _ThetaObjective(ctx)
    grid = explore_theta(
        objective.many,
        moment_start(ctx.y, ctx.q).as_array(),
        names=ctx.hyper_names,
        transforms=ctx.hyper_transforms,
        step=opts.step,
        cutoff=opts.cutoff,
    )
    return _posterior(ctx, objective, grid, opts, model_name, {"grid": time.perf_counter() - t0})


def reweight_fit(fit: FitResult, priors: PriorSpec) -> tuple[FitResult, int]:
    """``fit`` under other hyperparameter priors, from its own grid.

    The Laplace value at theta is the joint at the conditional mode x*(theta)
    plus terms of x*(theta) and of the curvature there, and the hyper prior
    enters the joint only as an added log pi(theta): x*(theta) and the
    curvature do not depend on it.  So every point the grid evaluated, the
    axis-scan stop points and the product points beyond the cutoff included,
    moves by ``ModelContext.hyper_log_prior`` (Jacobian included) under
    ``priors`` minus the same under ``fit.priors``, and keeps its latent
    conditional.  The grid is then grown and selected again by a fit's own
    rule (:func:`_grid`, with the fit's step, cutoff and curvature) against
    the new maximum; the points its walk adds are the only ones solved,
    through the fit's objective, and the marginals come from the same code
    as a fit's.

    Returns the reweighted fit and the number of points solved.  A design
    (``integration == "ccd"``) raises ``ValueError``: its weights assume a
    Gaussian centred at the old mode, so it needs a refit.
    """
    grid = fit.theta_grid
    if grid.integration != "grid":
        raise ValueError("only a grid fit can be reweighted; a design needs a refit")
    t0 = time.perf_counter()
    old = fit._require_ctx()
    ctx = ModelContext(old.data, old.spec, priors)
    objective = fit._objective

    def shifted_many(points: np.ndarray) -> np.ndarray:
        return _prior_shift(objective.many(points), points, ctx, objective.ctx)

    zs = list(grid.evaluated)
    points = _lattice(grid.mode, grid.sigma, grid.step, zs)
    moved = _prior_shift(np.array(list(grid.evaluated.values())), points, ctx, old)
    new_grid = _grid(shifted_many, dict(zip(zs, moved.tolist())), grid.mode, grid.sigma,
                     grid.curv, grid.step, fit.options.cutoff, grid.names, grid.transforms)
    timings = {"reweight": time.perf_counter() - t0}
    return (_posterior(ctx, objective, new_grid, fit.options, fit.model_name, timings),
            len(new_grid.evaluated) - len(zs))


def _prior_shift(values: np.ndarray, points: np.ndarray, to: ModelContext,
                 frm: ModelContext) -> np.ndarray:
    """Log posterior ``values`` at the rows of ``points`` moved from ``frm``'s
    hyper prior to ``to``'s: ``values + log pi_to - log pi_frm``, summed in
    that order so a shifted value is the same bit for bit wherever it is
    made."""
    return values + to.hyper_log_prior(points) - frm.hyper_log_prior(points)


def same_node_marginals(fit: FitResult, reweighted: FitResult,
                        name: str) -> tuple[MarginalDensity, MarginalDensity]:
    """The marginal of hyperparameter ``name`` under ``fit`` and under
    ``reweighted``, a :func:`reweight_fit` of it, both built on the same
    nodes: every point evaluated for ``reweighted`` that either fit's cutoff
    keeps, with each fit's values.  Two fits' own grids keep different
    ranges of nodes, and the tails one keeps and the other cuts would count
    in a distance between them as if the posterior had moved."""
    old, new = fit.theta_grid, reweighted.theta_grid
    cutoff = fit.options.cutoff
    zs = list(new.evaluated)
    points = _lattice(new.mode, new.sigma, new.step, zs)
    back = _prior_shift(np.array(list(new.evaluated.values())), points, fit._require_ctx(),
                        reweighted._require_ctx())
    before = {z: old.evaluated.get(z, v) for z, v in zip(zs, back.tolist())}
    kept = sorted(set(_within(before, max(before.values()), cutoff))
                  | set(_within(new.evaluated, max(new.evaluated.values()), cutoff)))
    j = new.names.index(name)
    return tuple(marginal_hyper(_grid_over(values, kept, new.mode, new.sigma, new.curv, new.step,
                                           new.names, new.transforms), j)
                 for values in (before, new.evaluated))


def _posterior(ctx: ModelContext, objective: _ThetaObjective, grid: ThetaGrid,
               opts: LaplaceOptions, model_name: str, timings: dict[str, float]) -> FitResult:
    """The fit over the evaluated integration points ``grid``: the latent
    conditionals from ``objective``'s modes, the marginals and, with
    ``opts.compute_gof``, the goodness of fit."""
    t0 = time.perf_counter()
    grid.conditionals = [res.conditional(i)
                         for res, i in (objective.mode_at(theta) for theta in grid.theta)]

    marginals: dict[str, MarginalDensity] = {}
    nb = ctx.n_groups * ctx.q
    for k, name in enumerate(ctx.beta_names):
        marginals[name] = marginal_latent(grid, nb + k, ctx.n_groups, ctx.q, name=name)
    for j, name in enumerate(ctx.hyper_names):
        marginals[name] = marginal_hyper(grid, j)
    if ctx.q == 2:
        if grid.integration == "ccd":
            marginals["rho"] = kde_density(covariance_rho(grid.hyper_draws[:, 1:]), name="rho")
        else:
            marginals["rho"] = kde_density(covariance_rho(grid.theta[:, 1:]),
                                           weights=grid.weights, name="rho")
    timings["marginals"] = time.perf_counter() - t0

    fit = FitResult(
        marginals=marginals,
        theta_grid=grid,
        param_names=ctx.param_names,
        latent_names=ctx.latent_names,
        spec=ctx.spec,
        priors=ctx.priors,
        data_fingerprint=ctx.data.fingerprint(),
        n_obs=ctx.n,
        options=opts,
        timings=timings,
        model_name=model_name,
        _ctx=ctx,
        _objective=objective,
    )
    if opts.compute_gof:
        from . import selection

        t1 = time.perf_counter()
        dic_val, p_d = selection.dic(fit)
        cpo_res = selection.cpo(fit)
        fit.gof = {
            "lml": grid.log_evidence,
            "dic": dic_val,
            "p_d": p_d,
            "mean_log_cpo": cpo_res.mean_log,
        }
        fit.timings["gof"] = time.perf_counter() - t1
    return fit
