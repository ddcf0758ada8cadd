"""Data containers, design assembly and the joint posterior of the model.

The model: responses ``y_ij`` in (0, 1) for group i, observation j follow a
mean/precision beta distribution whose mean is linked to a linear predictor

    g(mu_ij) = x_ij' beta + z_ij' b_i,       b_i ~ N(0, Q^-1),

with ``g`` one of logit (default), probit or cloglog.  The random-effect
design ``z`` is empty, an intercept, or an intercept plus one numeric slope
(q = 0, 1, 2).  Hyperparameters are the beta precision ``phi`` and the
random-effect precision ``Q``; both live on an unconstrained scale inside
:class:`HyperPoint`.

Internal unconstrained hyper coordinates:

* ``log_phi`` always;
* q = 1: ``log_tau`` with ``Q = [[tau]]`` (named ``tau1_sq`` in reports: the
  covariance matrix is written with diagonal ``1/tau1^2``);
* q = 2: ``(u1, u2, z_rho)`` with ``tau1_sq = e^u1``, ``tau2_sq = e^u2`` and
  correlation ``c = tanh(z_rho)``, so

      Sigma = [[1/tau1^2, c/(tau1 tau2)], [c/(tau1 tau2), 1/tau2^2]],
      Q = Sigma^-1.

  ``z_rho`` is the atanh of the *correlation*; that is the only reading under
  which every finite coordinate triple maps to a positive definite Q.  Both
  the covariance off-diagonal ("rho") and the correlation ("rho_corr") are
  reported.

The latent field stacks the group effects row-major ahead of the fixed
effects: ``x = (b_1, ..., b_N, beta)``.  Its negative Hessian is block
diagonal in the ``b_i`` with dense coupling rows for ``beta``;
:class:`BlockSymmetric` stores exactly that structure and factorizes it by a
Schur complement instead of densifying.  The latent-field functions take a
stack: ``conditional_objective`` and ``grad_hessian`` evaluate B latent
vectors at B hyper points, and ``BlockSymmetric``/``BlockCholesky`` carry a
leading batch axis; one point is the case B = 1.

Every decision the three engines share lives here once: the row likelihood
and its link derivatives (``loglik_rows``, ``eta_derivs``), the
unconstrained-to-natural transforms with their derivatives (``TRANSFORMS``),
log det Q (:meth:`HyperPoint.precision_logdet`), the coordinate cap
``COORD_CAP`` and the value outside the support (``out_of_support``), the
moment start point, the outer search (``maximize``), the two-stage
finite-difference curvature at its optimum (``fd_curvature``), the chunk
rule by which an evaluator splits a stack of points (``chunk_size``), the
damped Newton search for conditional modes (``newton_ascent``), with its one
acceptance rule and one failure, ``ModeConvergenceError``, and the masked
batched Cholesky of small symmetric stacks (``_cholesky``, ``_chol_solve``),
which factors both the Laplace block Hessians and the likelihood engine's
per-group curvatures.  The outer search and the curvature take a batch
evaluator, which maps a (K, m) stack of points to its K values, and call it
once per central-difference stencil, its centre first.  Row 0 of every stack
is its warm-start anchor, in all three engines: the Laplace and likelihood
evaluators (MCMC starts from ``laplace.hyper_mode``) keep the inner modes of
the last row 0 they solved and start the next stack's solves from them.
``fork_map`` runs independent tasks (MCMC chains, sensitivity refits) in
forked workers, with the same values as a serial run.
"""

from __future__ import annotations

import gc
import hashlib
import logging
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special
from scipy.optimize import minimize

from .distributions import (
    LOG_2PI,
    DomainError,
    beta_curv_mu,
    beta_logpdf_arrays,
    beta_score_mu,
    gamma_logpdf,
    wishart_logpdf,
)
from .priors import PriorSpec

__all__ = [
    "Dataset",
    "ModelSpec",
    "DesignInfo",
    "HyperPoint",
    "BlockSymmetric",
    "BlockCholesky",
    "ModelContext",
    "build_design",
    "LINKS",
]

#: Saturation guard for inverse links; documented, applied symmetrically.
MU_EPS = 1e-12

RANDOM_KINDS = ("none", "intercept", "intercept+slope")


# ---------------------------------------------------------------------------
# link functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Link:
    name: str
    fwd: callable
    inv: callable
    dmu_deta: callable
    d2mu_deta2: callable


def _logit_inv(eta):
    return special.expit(eta)


def _logit_d1(eta, mu):
    return mu * (1.0 - mu)


def _logit_d2(eta, mu):
    return mu * (1.0 - mu) * (1.0 - 2.0 * mu)


def _probit_d1(eta, mu):
    return np.exp(-0.5 * eta * eta) / np.sqrt(2.0 * np.pi)


def _probit_d2(eta, mu):
    return -eta * _probit_d1(eta, mu)


def _cloglog_inv(eta):
    return -np.expm1(-np.exp(eta))


def _cloglog_fwd(mu):
    return np.log(-np.log1p(-mu))


def _cloglog_d1(eta, mu):
    return np.exp(eta - np.exp(eta))


def _cloglog_d2(eta, mu):
    return _cloglog_d1(eta, mu) * (1.0 - np.exp(eta))


LINKS: dict[str, Link] = {
    "logit": Link("logit", special.logit, _logit_inv, _logit_d1, _logit_d2),
    "probit": Link("probit", special.ndtri, special.ndtr, _probit_d1, _probit_d2),
    "cloglog": Link("cloglog", _cloglog_fwd, _cloglog_inv, _cloglog_d1, _cloglog_d2),
}


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------


class Dataset:
    """Validated observations: response, group labels and covariate columns.

    Rows are reordered internally into a canonical sort (group, then response
    and covariates) so that every downstream computation is independent of
    the input row order; ``original_index`` maps canonical rows back to the
    caller's ordering for per-observation outputs.

    Raises ``DomainError`` listing the offending 1-based input rows when the
    response leaves (0, 1) (the boundary values 0 and 1 are rejected, not
    squeezed) or when any value is missing or non-finite.
    """

    def __init__(self, y, group, columns: Mapping[str, Sequence] | None = None):
        y = np.asarray(y, dtype=float)
        n = y.shape[0]
        if y.ndim != 1 or n == 0:
            raise DomainError("y must be a nonempty 1-D array")
        group = np.asarray(group)
        if group.shape != (n,):
            raise DomainError("group must match y in length")

        bad = ~np.isfinite(y)
        if np.any(bad):
            raise DomainError(f"missing/non-finite response at rows {_rows(bad)}")
        bad = (y <= 0.0) | (y >= 1.0)
        if np.any(bad):
            raise DomainError(
                f"response must lie strictly in (0, 1); offending rows {_rows(bad)}"
            )

        cols: dict[str, np.ndarray] = {}
        for name, values in (columns or {}).items():
            arr = np.asarray(values)
            if arr.shape != (n,):
                raise DomainError(f"column {name!r} must match y in length")
            if arr.dtype.kind in "fiu":
                arr = arr.astype(float)
                bad = ~np.isfinite(arr)
                if np.any(bad):
                    raise DomainError(
                        f"missing/non-finite values in column {name!r} at rows {_rows(bad)}"
                    )
            else:
                arr = arr.astype(str)
                bad = np.array([v == "" or v.lower() == "nan" for v in arr])
                if np.any(bad):
                    raise DomainError(
                        f"missing values in column {name!r} at rows {_rows(bad)}"
                    )
            cols[name] = arr

        labels = np.unique(group.astype(str))
        ids = np.searchsorted(labels, group.astype(str))

        # canonical row order: group first, then every column, then y
        keys = [y]
        for name in sorted(cols, reverse=True):
            keys.append(cols[name])
        keys.append(ids)
        order = np.lexsort(tuple(keys))

        self.y = y[order]
        self.groups = ids[order]
        self.group_labels = tuple(str(v) for v in labels)
        self.columns = {name: arr[order] for name, arr in cols.items()}
        self.original_index = order  # canonical row i came from input row order[i]
        self.n = n
        self.n_groups = int(labels.shape[0])
        self.group_sizes = np.bincount(self.groups, minlength=self.n_groups)
        starts = np.zeros(self.n_groups, dtype=np.intp)
        np.cumsum(self.group_sizes[:-1], out=starts[1:])
        self.group_starts = starts

    def to_original_order(self, values: np.ndarray) -> np.ndarray:
        """Map a per-canonical-row array back to the input row order."""
        out = np.empty_like(values)
        out[self.original_index] = values
        return out

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.y.tobytes())
        h.update(self.groups.astype(np.int64).tobytes())
        for name in sorted(self.columns):
            h.update(name.encode())
            arr = self.columns[name]
            h.update(arr.astype(str).tobytes() if arr.dtype.kind not in "f" else arr.tobytes())
        return h.hexdigest()


def _rows(mask: np.ndarray) -> list[int]:
    idx = np.nonzero(mask)[0][:20]
    return [int(i) + 1 for i in idx]


# ---------------------------------------------------------------------------
# model specification and design
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Fixed-effect column selection, random structure and link."""

    fixed: tuple[str, ...] = ()
    random: str = "none"
    slope_column: str | None = None
    link: str = "logit"
    baselines: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed", tuple(self.fixed))
        object.__setattr__(
            self, "baselines", tuple((str(k), str(v)) for k, v in dict(self.baselines).items())
        )
        if self.random not in RANDOM_KINDS:
            raise DomainError(f"random must be one of {RANDOM_KINDS}, got {self.random!r}")
        if self.link not in LINKS:
            raise DomainError(f"link must be one of {tuple(LINKS)}, got {self.link!r}")
        if self.random == "intercept+slope" and not self.slope_column:
            raise DomainError("random='intercept+slope' requires slope_column")
        if self.random != "intercept+slope" and self.slope_column:
            raise DomainError("slope_column only applies to random='intercept+slope'")

    @property
    def q(self) -> int:
        return {"none": 0, "intercept": 1, "intercept+slope": 2}[self.random]

    @property
    def baseline_map(self) -> dict[str, str]:
        return dict(self.baselines)


@dataclass(frozen=True)
class DesignInfo:
    """Assembled design: fixed matrix X (intercept first), random matrix Z."""

    X: np.ndarray
    Z: np.ndarray
    labels: tuple[str, ...]
    z_labels: tuple[str, ...]
    dropped: tuple[str, ...] = ()


def build_design(data: Dataset, spec: ModelSpec) -> DesignInfo:
    """Expand columns into the fixed/random design matrices.

    Categorical columns become treatment-contrast dummies against the
    declared (or first sorted) baseline level.  Constant numeric columns and
    exact duplicates of earlier design columns are dropped with a warning so
    the joint posterior is invariant to such redundant requests.
    """
    n = data.n
    cols: list[np.ndarray] = [np.ones(n)]
    labels: list[str] = ["intercept"]
    dropped: list[str] = []
    baselines = spec.baseline_map

    def push(values: np.ndarray, label: str) -> None:
        for have, lab in zip(cols, labels):
            if np.array_equal(have, values):
                dropped.append(label)
                warnings.warn(
                    f"design column {label!r} duplicates {lab!r}; dropped", stacklevel=3
                )
                return
        cols.append(values)
        labels.append(label)

    for name in spec.fixed:
        if name not in data.columns:
            raise DomainError(f"unknown column {name!r}")
        arr = data.columns[name]
        if arr.dtype.kind == "f":
            if np.all(arr == arr[0]):
                dropped.append(name)
                warnings.warn(
                    f"numeric column {name!r} is constant (collinear with the "
                    "intercept); dropped",
                    stacklevel=2,
                )
                continue
            push(arr.astype(float), name)
        else:
            levels = sorted(set(arr.tolist()))
            base = baselines.get(name, levels[0])
            if base not in levels:
                raise DomainError(f"baseline {base!r} is not a level of {name!r}")
            for lev in levels:
                if lev == base:
                    continue
                push((arr == lev).astype(float), f"{name}_{lev}")

    X = np.column_stack(cols)

    q = spec.q
    if q == 0:
        Z = np.zeros((n, 0))
        z_labels: tuple[str, ...] = ()
    elif q == 1:
        Z = np.ones((n, 1))
        z_labels = ("b1_intercept",)
    else:
        name = spec.slope_column
        if name not in data.columns:
            raise DomainError(f"unknown random-slope column {name!r}")
        arr = data.columns[name]
        if arr.dtype.kind != "f":
            raise DomainError(f"random-slope column {name!r} must be numeric")
        Z = np.column_stack([np.ones(n), arr.astype(float)])
        z_labels = ("b1_intercept", f"b2_{name}")

    return DesignInfo(X, Z, tuple(labels), z_labels, tuple(dropped))


# ---------------------------------------------------------------------------
# hyperparameters
# ---------------------------------------------------------------------------


def _log1m_tanh_sq(z):
    """log(1 - tanh(z)^2), stable for large |z|; elementwise."""
    a = np.abs(z)
    return np.log(4.0) - 2.0 * (a + np.log1p(np.exp(-2.0 * a)))


def precision_matrices(raneff: np.ndarray) -> np.ndarray:
    """Random-effect precisions Q (..., q, q) from the random-effect
    coordinates (..., 1) or (..., 3); positive definite for all finite ones."""
    raneff = np.asarray(raneff, dtype=float)
    if raneff.shape[-1] == 1:
        return np.exp(raneff)[..., None]
    u1, u2, z = raneff[..., 0], raneff[..., 1], raneff[..., 2]
    c = np.tanh(z)
    g = np.exp(-_log1m_tanh_sq(z))  # 1 / (1 - c^2)
    q11 = np.exp(u1) * g
    q22 = np.exp(u2) * g
    q12 = -c * np.exp(0.5 * (u1 + u2)) * g
    return np.stack([np.stack([q11, q12], axis=-1), np.stack([q12, q22], axis=-1)], axis=-2)


def precision_logdets(raneff: np.ndarray) -> np.ndarray:
    """log det Q in closed form from the random-effect coordinates (..., k):
    0 for k = 0, u1 for q = 1 and u1 + u2 - log(1 - tanh(z)^2) for q = 2."""
    raneff = np.asarray(raneff, dtype=float)
    if raneff.shape[-1] == 0:
        return np.zeros(raneff.shape[:-1])
    if raneff.shape[-1] == 1:
        return raneff[..., 0]
    return raneff[..., 0] + raneff[..., 1] - _log1m_tanh_sq(raneff[..., 2])


@dataclass(frozen=True)
class HyperPoint:
    """Unconstrained hyperparameter coordinates (see module docstring)."""

    log_phi: float
    raneff: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "raneff", tuple(float(v) for v in self.raneff))
        if len(self.raneff) not in (0, 1, 3):
            raise DomainError("raneff coordinates must have length 0, 1 or 3")

    @property
    def q(self) -> int:
        return {0: 0, 1: 1, 3: 2}[len(self.raneff)]

    @property
    def dim(self) -> int:
        return 1 + len(self.raneff)

    @property
    def phi(self) -> float:
        return float(np.exp(self.log_phi))

    def as_array(self) -> np.ndarray:
        return np.array([self.log_phi, *self.raneff], dtype=float)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "HyperPoint":
        arr = np.asarray(arr, dtype=float)
        return cls(float(arr[0]), tuple(arr[1:]))

    @classmethod
    def from_natural(
        cls,
        phi: float,
        tau1_sq: float | None = None,
        tau2_sq: float | None = None,
        rho_corr: float = 0.0,
    ) -> "HyperPoint":
        if not phi > 0.0:
            raise DomainError("phi must be positive")
        if tau1_sq is None:
            return cls(float(np.log(phi)))
        if not tau1_sq > 0.0:
            raise DomainError("tau1_sq must be positive")
        if tau2_sq is None:
            return cls(float(np.log(phi)), (float(np.log(tau1_sq)),))
        if not tau2_sq > 0.0:
            raise DomainError("tau2_sq must be positive")
        if not -1.0 < rho_corr < 1.0:
            raise DomainError("rho_corr must lie strictly in (-1, 1)")
        return cls(
            float(np.log(phi)),
            (float(np.log(tau1_sq)), float(np.log(tau2_sq)), float(np.arctanh(rho_corr))),
        )

    def precision_matrix(self) -> np.ndarray | None:
        """Random-effect precision Q; positive definite for all finite coords."""
        return precision_matrices(self.raneff) if self.q else None

    def natural(self) -> dict[str, float]:
        out = {"phi": self.phi}
        if self.q == 1:
            out["tau1_sq"] = float(np.exp(self.raneff[0]))
        elif self.q == 2:
            u1, u2, z = self.raneff
            out["tau1_sq"] = float(np.exp(u1))
            out["tau2_sq"] = float(np.exp(u2))
            out["rho_corr"] = float(np.tanh(z))
            out["rho"] = float(covariance_rho(np.asarray(self.raneff)))
        return out

    def precision_logdet(self) -> float:
        """log det Q in closed form (:func:`precision_logdets`)."""
        return float(precision_logdets(self.raneff))


def covariance_rho(raneff: np.ndarray) -> np.ndarray:
    """The reported ``rho`` = rho_corr / sqrt(tau1_sq tau2_sq) at q = 2
    random-effect coordinates (..., 3) = (u1, u2, z_rho); elementwise."""
    u1, u2, z = raneff[..., 0], raneff[..., 1], raneff[..., 2]
    return np.tanh(z) / np.sqrt(np.exp(u1) * np.exp(u2))


def log_jacobians(thetas: np.ndarray) -> np.ndarray:
    """log |d(natural)/d(unconstrained)| at hyper coordinates (..., m), for
    hyperprior evaluation.

    phi and tau are log transforms; for q = 2 the map
    (u1, u2, z) -> (Q11, Q12, Q22) has
    log |J| = 1.5 (u1 + u2) - 2 log(1 - c^2).
    """
    thetas = np.asarray(thetas, dtype=float)
    jac = thetas[..., 0]
    if thetas.shape[-1] == 2:
        jac = jac + thetas[..., 1]
    elif thetas.shape[-1] == 4:
        u1, u2, z = thetas[..., 1], thetas[..., 2], thetas[..., 3]
        jac = jac + (1.5 * (u1 + u2) - 2.0 * _log1m_tanh_sq(z))
    return jac


#: report names and unconstrained-to-natural transforms of the hyper
#: coordinates, by the number of random terms q
HYPER_NAMES = {0: ("phi",), 1: ("phi", "tau1_sq"), 2: ("phi", "tau1_sq", "tau2_sq", "rho_corr")}
HYPER_TRANSFORMS = {0: ("exp",), 1: ("exp", "exp"), 2: ("exp", "exp", "exp", "tanh")}

#: unconstrained-to-natural transforms by name: (map, derivative of the map)
TRANSFORMS: dict[str, tuple[Callable, Callable]] = {
    "exp": (np.exp, np.exp),
    "tanh": (np.tanh, lambda u: 1.0 - np.tanh(u) ** 2),
    "identity": (lambda u: np.asarray(u, dtype=float), lambda u: np.ones_like(u, dtype=float)),
}

#: largest |coordinate| of an unconstrained hyper or likelihood vector that
#: the engines evaluate; every engine treats a point beyond it as outside
#: the support
COORD_CAP = 50.0


def out_of_support(v) -> float:
    """-1e10 (1 + sum |finite v|): the value of a point beyond ``COORD_CAP``,
    non-finite or without a conditional mode, falling away from the origin."""
    v = np.asarray(v, dtype=float)
    return -1e10 * (1.0 + float(np.sum(np.abs(v[np.isfinite(v)]))))


def natural_scale(vals, transform: str) -> np.ndarray:
    """Map unconstrained coordinates to the natural scale by name of transform."""
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    return TRANSFORMS[transform][0](vals)


def moment_start(y: np.ndarray, q: int) -> HyperPoint:
    """Method-of-moments hyper starting point: phi from the response's mean
    and variance, every random-effect precision 10, no correlation."""
    ybar = float(np.mean(y))
    yvar = float(np.var(y))
    phi0 = max(ybar * (1.0 - ybar) / max(yvar, 1e-12) - 1.0, 1.0)
    if q == 0:
        return HyperPoint.from_natural(phi0)
    if q == 1:
        return HyperPoint.from_natural(phi0, tau1_sq=10.0)
    return HyperPoint.from_natural(phi0, tau1_sq=10.0, tau2_sq=10.0, rho_corr=0.0)


# ---------------------------------------------------------------------------
# likelihood pieces and curvature shared by the engines
# ---------------------------------------------------------------------------


def loglik_rows(link: Link, y: np.ndarray, eta: np.ndarray, phi: float) -> np.ndarray:
    """Per-row beta log likelihood at the linear predictor ``eta``."""
    return beta_logpdf_arrays(y, np.clip(link.inv(eta), MU_EPS, 1.0 - MU_EPS), phi)


def eta_derivs(link: Link, y: np.ndarray, eta: np.ndarray,
               phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first/second derivatives of the beta log likelihood in eta."""
    mu = np.clip(link.inv(eta), MU_EPS, 1.0 - MU_EPS)
    d1 = link.dmu_deta(eta, mu)
    d2 = link.d2mu_deta2(eta, mu)
    s_mu = beta_score_mu(y, mu, phi)
    c_mu = beta_curv_mu(mu, phi)
    return s_mu * d1, c_mu * d1 * d1 + s_mu * d2


def group_sums(Z: np.ndarray, starts: np.ndarray, s: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group ``Z_i' s_i`` (..., N, q) and ``Z_i' W_i Z_i`` (..., N, q, q)
    from the per-row derivatives ``s`` and ``w`` (..., n); one reduction per
    distinct block entry."""
    q = Z.shape[1]
    zs = np.add.reduceat(Z * s[..., None], starts, axis=-2)
    zwz = np.empty(zs.shape + (q,))
    for a in range(q):
        for c in range(a, q):
            vals = np.add.reduceat(w * Z[:, a] * Z[:, c], starts, axis=-1)
            zwz[..., a, c] = vals
            zwz[..., c, a] = vals
    return zs, zwz


#: bound on K x rows of one stacked evaluation: a batch evaluator splits a
#: stack of K points into chunks of ``chunk_size(n)`` points (44 on 365 rows,
#: 4 on 4,000), so its working arrays stay near 2 MB whatever the data size;
#: a bound of 65,536 was no faster on the 365- and 4,000-row benchmark studies
#: and raised the peak memory of the latter by about 6 MB
CHUNK_ROWS = 16_384


def chunk_size(n_rows: int) -> int:
    """Points per chunk of a stacked evaluation on ``n_rows`` data rows."""
    return max(1, CHUNK_ROWS // n_rows)


def fd_hessian(many: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
               h: np.ndarray) -> np.ndarray:
    """Central-difference Hessian at ``x0`` with per-axis steps ``h``.

    One call of ``many`` on the 1 + 2 m^2 probe rows: the centre ``x0``
    first, then ``x0 + h_i e_i`` and ``x0 - h_i e_i`` for every axis, then
    the four corners ``x0 +- h_i e_i +- h_j e_j`` of every pair i < j.  At a
    boundary fit a probe can fall outside the support, and differencing its
    value (:func:`out_of_support`) would swamp the Hessian; the steps of the
    axes such a probe moves along are then halved and the stencil evaluated
    again, until every probe is inside or those steps are below 1e-8.
    """
    m = x0.size
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # the axes each probe row moves along
    moves = [(), *[(i,) for i in range(m)] * 2, *[p for p in pairs for _ in range(4)]]
    h = np.array(h, dtype=float)
    while True:
        steps = np.diag(h)
        corners = [x0 + si * steps[i] + sj * steps[j]
                   for i, j in pairs for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
        f = np.asarray(many(np.vstack([x0, x0 + steps, x0 - steps, *corners])), dtype=float)
        outside = sorted({a for r in np.flatnonzero(f < 0.5 * out_of_support(()))
                          for a in moves[r]})
        if not outside or h[outside].min() < 1e-8:
            break
        h[outside] *= 0.5
    f0, f_up, f_down = f[0], f[1 : m + 1], f[m + 1 : 2 * m + 1]
    hess = np.diag((f_up - 2.0 * f0 + f_down) / (h * h))
    for (i, j), (pp, pm, mp, mm) in zip(pairs, f[2 * m + 1 :].reshape(-1, 4)):
        hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h[i] * h[j])
    return hess


def fd_curvature(many: Callable[[np.ndarray], np.ndarray],
                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage finite-difference curvature at the maximum ``x``.

    A crude pass with steps ``0.05 (1 + |x_i|)`` sets the per-axis scales; a
    second pass with steps of a tenth of those standard deviations refines.
    Each pass is one call of the batch evaluator ``many`` (:func:`fd_hessian`),
    or more where a probe falls outside the support.
    Steps are capped at 0.5, so a flat direction cannot push a probe into a
    penalty region, and floored at 1e-4.  Eigenvalues are floored at 1e-8
    times the largest, so the curvature is usable on flat directions too.
    Returns the floored negative Hessian and its inverse, symmetrized
    exactly so that it can seed :func:`maximize`.
    """
    x = np.asarray(x, dtype=float)

    def floored(h: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(-fd_hessian(many, x, h))
        top = float(np.max(vals))
        if top <= 0.0:
            return np.eye(x.size)
        return (vecs * np.maximum(vals, 1e-8 * top)) @ vecs.T

    curv = floored(np.minimum(0.05 * (1.0 + np.abs(x)), 0.5))
    curv = floored(np.clip(0.1 * np.sqrt(np.diag(np.linalg.inv(curv))), 1e-4, 0.5))
    cov = np.linalg.inv(curv)
    return curv, 0.5 * (cov + cov.T)


#: :func:`maximize`: iteration budget; the gain under its BFGS model below
#: which the search stops; the gain below which its end counts as converged
MAXIMIZE_ITER = 500
PROMISED_GAIN = 1e-7
CONVERGED_GAIN = 1e-6


class Maximum(NamedTuple):
    """Result of :func:`maximize`: the argmax, the value there and whether
    the stopping rule was met."""

    x: np.ndarray
    value: float
    converged: bool
    message: str


def _promised_gain(h_inv: np.ndarray, grad: np.ndarray) -> float:
    """``g' H g / 2``, the gain the quadratic model with inverse Hessian ``H``
    promises; infinite where ``H`` is not positive definite."""
    if not np.all(np.linalg.eigvalsh(h_inv) > 0.0):
        return np.inf
    return 0.5 * float(grad @ h_inv @ grad)


def _diagonal_gain(grad: np.ndarray, curv: np.ndarray) -> float:
    """``sum g_i^2 / (2 c_i)``, the gain the quadratic model with diagonal
    curvatures ``c`` promises; infinite unless every ``c_i`` is positive."""
    if not np.all(curv > 0.0):
        return np.inf
    return 0.5 * float(np.sum(grad * grad / curv))


def _bfgs_update(h_inv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SciPy's BFGS update of the inverse Hessian from the step ``s`` and the
    gradient change ``y``, its guard against ``y's = 0`` included."""
    sy = float(y @ s)
    rho = 1000.0 if sy == 0.0 else 1.0 / sy
    eye = np.eye(s.size)
    return ((eye - rho * np.outer(s, y)) @ h_inv @ (eye - rho * np.outer(y, s))
            + rho * np.outer(s, s))


def maximize(many: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
             inv_curv: np.ndarray | None = None) -> Maximum:
    """Maximize by BFGS on a central-difference gradient.

    The Laplace and likelihood objectives carry inner Newton solves and are
    smooth only to about 1e-8, so a forward difference at SciPy's default
    step (about 1.5e-8) returns noise.  The gradient here is a central
    difference with step ``h_i = 1e-3 * max(1, |x_i|)``, the order of the
    step INLA uses for its hyper mode (Rue, Martino & Chopin 2009, section
    6.1).  Each evaluation is one call of the batch evaluator ``many`` on the
    2m + 1 rows ``[x, x + h_i e_i, x - h_i e_i]``, the centre first; the
    gradient divides by the step as represented, ``(x + h) - (x - h)``.
    ``inv_curv``, when known, seeds the inverse-Hessian estimate.

    The search stops once two quadratic models each promise a gain below
    ``PROMISED_GAIN`` (Nocedal & Wright 2006, ch. 6), tested at the start and
    after every iteration.  One is the BFGS model ``g' H g / 2``, with
    SciPy's inverse-Hessian estimate ``H`` kept alongside by the same update
    from each accepted step.  It holds only its seed on the axes the search
    has not yet explored, and a seed (``inv_curv``, or the identity) can
    overstate the curvature there; so the other is the diagonal model
    ``sum g_i^2 / (2 c_i)`` of the stencil's own second differences
    ``c_i``, which carries no history.  Both read the stencil already
    evaluated at the point.  On a steep coordinate the search is that close
    to the maximum long before SciPy's own test (largest gradient component
    below 1e-3) can pass, and the line search would otherwise run on
    difference noise until it fails.

    Converged means, wherever the search ended, the largest gradient
    component is below 1e-3 or the positive-definite BFGS model promises a
    gain below ``CONVERGED_GAIN``; so running out of ``MAXIMIZE_ITER``
    iterations, or a stalled line search, with more to gain reads ``False``.
    """
    x0 = np.asarray(x0, dtype=float)
    # negated value, negated gradient and curvatures of each stencil by point
    seen: dict[bytes, tuple[float, np.ndarray, np.ndarray]] = {}

    def stencil(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        m = x.size
        h = 1.0e-3 * np.maximum(1.0, np.abs(x))
        steps = np.diag(h)
        f = np.asarray(many(np.vstack([x, x + steps, x - steps])), dtype=float)
        width = (x + h) - (x - h)
        grad = (f[1 : m + 1] - f[m + 1 :]) / width
        curv = (2.0 * f[0] - f[1 : m + 1] - f[m + 1 :]) / (0.5 * width) ** 2
        seen[x.tobytes()] = out = (-float(f[0]), -grad, curv)
        return out

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        return (seen.get(x.tobytes()) or stencil(x))[:2]

    h_inv = np.eye(x0.size) if inv_curv is None else np.asarray(inv_curv, dtype=float)
    x_k = x0

    def flat(x: np.ndarray) -> bool:
        _, g, c = seen[x.tobytes()]
        return max(_promised_gain(h_inv, g), _diagonal_gain(g, c)) < PROMISED_GAIN

    stopped = f"the BFGS and diagonal models promise a gain below {PROMISED_GAIN:g}"
    stencil(x0)  # SciPy's first evaluation, at x0, reads it from ``seen``
    if flat(x0):
        return Maximum(x0, -seen[x0.tobytes()][0], True, stopped)

    def stop_when_flat(intermediate_result) -> None:
        nonlocal h_inv, x_k
        x = intermediate_result.x
        h_inv = _bfgs_update(h_inv, x - x_k, seen[x.tobytes()][1] - seen[x_k.tobytes()][1])
        x_k = x
        if flat(x):
            raise StopIteration

    res = minimize(
        negated, x0, method="BFGS", jac=True, callback=stop_when_flat,
        options={"gtol": 1.0e-3, "maxiter": MAXIMIZE_ITER, "hess_inv0": inv_curv},
    )
    gain = _promised_gain(h_inv, seen[x_k.tobytes()][1])
    return Maximum(np.asarray(res.x, dtype=float), -float(res.fun),
                   bool(res.success or gain < CONVERGED_GAIN),
                   stopped if res.status == 99 else str(res.message))


#: :func:`newton_ascent`: gradient max-norm tolerance, iteration budget, step
#: halvings per line search, gradient max-norm that still makes a stall a mode
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 100
MAX_HALVINGS = 30
STALL_TOL = 1e-4


class ModeConvergenceError(RuntimeError):
    """A conditional-mode search ended away from a mode."""


class Ascent(NamedTuple):
    """Result of :func:`newton_ascent`, one row or entry per block."""

    x: np.ndarray  # (B, d) end points
    value: np.ndarray  # (B,) objective values there
    grad_norm: np.ndarray  # (B,) gradient max-norms there
    done: np.ndarray  # (B,) stopping rule met
    found: np.ndarray  # (B,) accepted as a mode


def newton_ascent(values: Callable[[np.ndarray], np.ndarray],
                  newton: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
                  x: np.ndarray) -> Ascent:
    """Damped Newton ascent on B independent blocks, the rows of ``x``.

    ``values(x)`` returns the B objective values; ``newton(x)`` returns the
    gradients and Newton steps (B x d) and a mask of the blocks whose negative
    Hessian is positive definite; elsewhere the step is steepest ascent scaled
    by ``1 / (1 + |grad|)``.  Each block halves its own step, at most
    ``MAX_HALVINGS`` times, until its value rises; one whose step cannot raise
    it stalls while the others carry on.  A block is done when its gradient
    max-norm is below ``NEWTON_TOL`` (its step is then never used) or its
    positive-definite Newton step promises a gain below ``1e-12 (1 + |f|)``,
    the resolution of the value, which comes first where the curvature is
    large.  It is ``found`` (a mode) when done or its gradient max-norm is
    below ``STALL_TOL``, with a positive-definite negative Hessian.  The last
    ``newton`` call is at the returned points; callers reuse what it factorized.
    """
    # count_nonzero tests a small mask several times faster than any()/all()
    x = np.array(x, dtype=float)
    f = values(x)
    stalled = np.zeros(x.shape[0], dtype=bool)
    for it in range(NEWTON_MAX_ITER + 1):
        grad, step, spd = newton(x)
        gnorm = np.abs(grad).max(axis=1)
        if np.count_nonzero(spd) < spd.size:
            step = np.where(spd[:, None], step, grad / (1.0 + gnorm[:, None]))
        gain = 0.5 * (grad * step).sum(axis=1)
        done = (gnorm < NEWTON_TOL) | (spd & (gain < 1e-12 * (1.0 + np.abs(f))))
        active = ~(done | stalled)
        if it == NEWTON_MAX_ITER or not np.count_nonzero(active):
            break
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            x_new = x + alpha * step
            f_new = values(x_new)
            up = active & (f_new > f)
            if np.count_nonzero(up):
                x = np.where(up[:, None], x_new, x)
                f = np.where(up, f_new, f)
                active &= ~up
                if not np.count_nonzero(active):
                    break
            alpha *= 0.5
        stalled |= active
    found = spd & (done | (gnorm < STALL_TOL))
    return Ascent(x, f, gnorm, done, found)


# ---------------------------------------------------------------------------
# independent tasks in forked workers
# ---------------------------------------------------------------------------

#: the task of the running :func:`fork_map` pool; its forked workers inherit it
_forked_task: Callable[[int], object] | None = None


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Collect(logging.Handler):
    """Keeps the records it is handed, flattened so that they pickle."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.exc_info:
            record.exc_text = logging.Formatter().formatException(record.exc_info)
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _run_forked(i: int):
    """Task i in a forked worker: its value and its ``betamix`` log records.

    The records are kept from the handlers the worker inherited, so that
    only the parent writes them.  A raising task carries them on the
    exception as ``betamix_records``.
    """
    log = logging.getLogger("betamix")
    collect = _Collect()
    log.handlers, log.propagate = [collect], False
    try:
        return _forked_task(i), collect.records
    except BaseException as exc:
        exc.betamix_records = collect.records
        raise


def _replay(records) -> None:
    for record in records:
        logging.getLogger(record.name).handle(record)


def fork_map(task: Callable[[int], object], n: int) -> list:
    """``[task(0), ..., task(n - 1)]``, the tasks run in forked workers.

    Up to ``min(n, usable CPUs)`` worker processes are forked from this one,
    so a task sees the caller's state as it was at the call, and its value
    must pickle.  The tasks run in-process, in order, when that count is 1,
    where ``fork`` is not available, in a daemonic process (which may not
    have children), in a process with other Python threads (a fork copies
    the locks they hold) and inside a task of another call.  Each task's
    ``betamix`` log records are written here, once each, in task order.  If
    a task raises, the records of it and of the tasks before it are written,
    every worker is joined and its exception is raised; tasks not yet
    started are cancelled.  Every worker has exited when this returns.
    """
    global _forked_task
    import multiprocessing

    workers = min(n, _cpus())
    if (workers <= 1 or _forked_task is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return [task(i) for i in range(n)]
    from concurrent.futures import ProcessPoolExecutor

    _forked_task = task
    # gc.freeze keeps a worker's cyclic collections off the objects it
    # inherited: walking them writes their headers and so copies the parent's
    # pages, which halved the speed of forked chains on the 200-group study
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=gc.freeze)
    try:
        futures = [pool.submit(_run_forked, i) for i in range(n)]
        values = []
        for future in futures:
            try:
                value, records = future.result()
            except BaseException as exc:
                _replay(getattr(exc, "betamix_records", ()))
                raise
            _replay(records)
            values.append(value)
        return values
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
        _forked_task = None


# ---------------------------------------------------------------------------
# block-structured symmetric matrices
# ---------------------------------------------------------------------------


class BlockSymmetric:
    """B symmetric matrices with N diagonal q x q blocks and dense beta coupling.

    Stores ``bb`` (B, N, q, q), ``bx`` (B, N, q, p) and ``xx`` (B, p, p); the
    dense equivalent of entry k is [[blockdiag(bb[k]), vstack(bx[k])], [*, xx[k]]].
    One matrix is the case B = 1.
    """

    def __init__(self, bb: np.ndarray, bx: np.ndarray, xx: np.ndarray):
        self.bb = np.asarray(bb, dtype=float)
        self.bx = np.asarray(bx, dtype=float)
        self.xx = np.asarray(xx, dtype=float)
        self.batch, self.n_blocks, self.q = self.bb.shape[:3]
        self.p = self.xx.shape[1]
        self.dim = self.n_blocks * self.q + self.p

    def __neg__(self) -> "BlockSymmetric":
        return BlockSymmetric(-self.bb, -self.bx, -self.xx)

    def to_dense(self) -> np.ndarray:
        n, q = self.n_blocks, self.q
        out = np.zeros((self.batch, self.dim, self.dim))
        for i in range(n):
            s = slice(i * q, (i + 1) * q)
            out[:, s, s] = self.bb[:, i]
            out[:, s, n * q :] = self.bx[:, i]
            out[:, n * q :, s] = self.bx[:, i].transpose(0, 2, 1)
        out[:, n * q :, n * q :] = self.xx
        return out

    def cholesky(self) -> "BlockCholesky":
        return BlockCholesky(self)


class BlockCholesky:
    """Schur-complement factorization of a stack of BlockSymmetric matrices.

    ``ok`` (B,) marks the matrices whose every block and Schur complement is
    positive definite; the Newton loop uses it as its SPD test.  The factors
    of the others carry a unit pivot wherever a pivot failed, so every solve
    stays finite, but their values mean nothing.
    """

    def __init__(self, mat: BlockSymmetric):
        self.mat = mat
        if mat.n_blocks * mat.q:
            self._chol_bb, ok_bb = _cholesky(mat.bb)
            self.gain = _chol_solve(self._chol_bb, mat.bx)  # (B, N, q, p)
            self.schur = mat.xx - np.einsum("bnqp,bnqs->bps", mat.bx, self.gain)
            ok = ok_bb.all(axis=1)
        else:
            self._chol_bb = mat.bb
            self.gain = mat.bx
            self.schur = mat.xx
            ok = np.ones(mat.batch, dtype=bool)
        self._chol_schur, ok_schur = _cholesky(self.schur)
        self.ok = ok & ok_schur

    def logdet(self) -> np.ndarray:
        """(B,) log determinants."""
        diag_bb = np.diagonal(self._chol_bb, axis1=2, axis2=3)
        diag_schur = np.diagonal(self._chol_schur, axis1=1, axis2=2)
        return 2.0 * (np.log(diag_bb).sum(axis=(1, 2)) + np.log(diag_schur).sum(axis=1))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve against the rows of ``rhs`` (B, dim)."""
        mat = self.mat
        nb = mat.n_blocks * mat.q
        gx = rhs[:, nb:]
        if nb:
            gb = rhs[:, :nb].reshape(mat.batch, mat.n_blocks, mat.q)
            u = _chol_solve(self._chol_bb, gb[..., None])[..., 0]
            gx = gx - np.einsum("bnqp,bnq->bp", mat.bx, u)
        dx = _chol_solve(self._chol_schur, gx[..., None])[..., 0]
        if not nb:
            return dx
        db = u - np.einsum("bnqp,bp->bnq", self.gain, dx)
        return np.concatenate([db.reshape(mat.batch, nb), dx], axis=1)

    def inverse_pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V_bb (B,N,q,q), C_bx (B,N,q,p), V_xx (B,p,p)) of the full inverses."""
        mat = self.mat
        v_xx = _chol_solve(self._chol_schur, np.broadcast_to(np.eye(mat.p), self.schur.shape))
        c_bx = -np.einsum("bnqp,bps->bnqs", self.gain, v_xx)
        v_bb = np.einsum("bnqp,bnrp->bnqr", self.gain, -c_bx)
        if mat.n_blocks * mat.q:
            v_bb += _chol_solve(self._chol_bb, np.broadcast_to(np.eye(mat.q), mat.bb.shape))
        return v_bb, c_bx, v_xx


def _cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric k x k matrices (..., k, k)
    and a mask (...) of the positive definite ones.

    Column by column, every matrix at once; a pivot that is not positive is
    replaced by 1 and clears the matrix's mask, so no matrix of the stack
    stops the others.
    """
    k = a.shape[-1]
    chol = np.zeros_like(a)
    ok = np.ones(a.shape[:-2], dtype=bool)
    for j in range(k):
        # an empty sum subtracts exactly 0.0: skipping it changes no bit and
        # saves numpy calls, which dominate on small stacks
        row = chol[..., j, :j]
        pivot = a[..., j, j]
        if j:
            pivot = pivot - np.sum(row * row, axis=-1)
        good = pivot > 0.0
        ok &= good
        d = np.sqrt(np.where(good, pivot, 1.0))
        chol[..., j, j] = d
        if j + 1 < k:
            below = a[..., j + 1 :, j]
            if j:
                below = below - np.sum(chol[..., j + 1 :, :j] * row[..., None, :], axis=-1)
            chol[..., j + 1 :, j] = below / d[..., None]
    return chol, ok


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L' x = rhs`` for stacks of lower factors (..., k, k) and
    right-hand sides (..., k, r): forward then back substitution, row by
    row, every system at once (a LAPACK call per system costs more than
    the arithmetic of these small ones)."""
    k = chol.shape[-1]
    x = np.empty(np.broadcast_shapes(chol.shape[:-2], rhs.shape[:-2]) + rhs.shape[-2:])
    for i in range(k):
        part = rhs[..., i, :]
        if i:
            part = part - np.sum(chol[..., i, :i, None] * x[..., :i, :], axis=-2)
        x[..., i, :] = part / chol[..., i, i, None]
    for i in reversed(range(k)):
        part = x[..., i, :]
        if i + 1 < k:
            part = part - np.sum(chol[..., i + 1 :, i, None] * x[..., i + 1 :, :], axis=-2)
        x[..., i, :] = part / chol[..., i, i, None]
    return x


# ---------------------------------------------------------------------------
# model context: the assembled joint posterior
# ---------------------------------------------------------------------------


class ModelContext:
    """One dataset + spec + priors, with design and derivative machinery."""

    def __init__(self, data: Dataset, spec: ModelSpec, priors: PriorSpec):
        self.data = data
        self.spec = spec
        self.priors = priors
        design = build_design(data, spec)
        self.design = design
        self.X = design.X
        self.Z = design.Z
        self.y = data.y
        self.groups = data.groups
        self.group_starts = data.group_starts
        self.n = data.n
        self.n_groups = data.n_groups
        self.p = design.X.shape[1]
        self.q = spec.q
        self.link = LINKS[spec.link]
        self.n_latent = self.n_groups * self.q + self.p
        # row products behind the Hessian blocks: h_xx = w @ xx_rows and the
        # group sums of w * zx_rows give h_bx, one product for a whole stack
        self._xt = np.ascontiguousarray(self.X.T)
        self._xx_rows = (self.X[:, :, None] * self.X[:, None, :]).reshape(self.n, -1)
        self._zx_rows = (self.Z[:, :, None] * self.X[:, None, :]).reshape(self.n, -1)

        prec = np.full(self.p, priors.slope_precision)
        prec[0] = priors.intercept_precision
        self.beta_prior_prec = prec
        proper = prec > 0.0
        self._beta_prior_const = float(
            np.sum(-0.5 * LOG_2PI + 0.5 * np.log(prec[proper]))
        )
        self._validate_priors()

    def _validate_priors(self) -> None:
        pr = self.priors
        if self.q == 0 and pr.raneff is not None:
            raise DomainError("model has no random effects but a raneff prior was given")
        if self.q == 1:
            pr.require_raneff_gamma()
        if self.q == 2:
            w = pr.require_raneff_wishart()
            if w.dim != 2:
                raise DomainError("Wishart prior dimension must be 2 for intercept+slope")

    # -- names --------------------------------------------------------------

    @property
    def beta_names(self) -> tuple[str, ...]:
        return tuple(f"beta_{lab}" for lab in self.design.labels)

    @property
    def hyper_names(self) -> tuple[str, ...]:
        return HYPER_NAMES[self.q]

    @property
    def hyper_transforms(self) -> tuple[str, ...]:
        return HYPER_TRANSFORMS[self.q]

    @property
    def param_names(self) -> tuple[str, ...]:
        """Reported parameters: fixed effects, hypers, and for q = 2 the
        covariance reading ``rho`` of the off-diagonal."""
        return self.beta_names + self.hyper_names + (("rho",) if self.q == 2 else ())

    @property
    def latent_names(self) -> tuple[str, ...]:
        names = []
        for i, lab in enumerate(self.data.group_labels):
            for zl in self.design.z_labels:
                names.append(f"{zl}[{lab}]")
        names.extend(self.beta_names)
        return tuple(names)

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Group effects (..., N, q) and fixed effects (..., p) of latent
        vectors (..., d)."""
        nb = self.n_groups * self.q
        return x[..., :nb].reshape(x.shape[:-1] + (self.n_groups, self.q)), x[..., nb:]

    # -- evaluation ---------------------------------------------------------

    def eta(self, x: np.ndarray) -> np.ndarray:
        """Linear predictors (..., n) of latent vectors (..., d)."""
        b, beta = self.split(x)
        eta = beta @ self._xt
        if self.q:
            eta = eta + np.sum(self.Z * b[..., self.groups, :], axis=-1)
        return eta

    def loglik(self, eta: np.ndarray, phi: float) -> float:
        return float(np.sum(loglik_rows(self.link, self.y, eta, phi)))

    def beta_log_prior(self, beta: np.ndarray) -> float | np.ndarray:
        return self._beta_prior_const - 0.5 * np.sum(self.beta_prior_prec * beta * beta, axis=-1)

    def raneff_log_prior(self, b: np.ndarray, theta: HyperPoint) -> float:
        if self.q == 0:
            return 0.0
        q_mat = theta.precision_matrix()
        quad = float(np.einsum("nq,qr,nr->", b, q_mat, b))
        logdet = theta.precision_logdet()
        return self.n_groups * (-0.5 * self.q * LOG_2PI + 0.5 * logdet) - 0.5 * quad

    def hyper_log_prior(self, thetas: np.ndarray) -> np.ndarray:
        """Hyperprior density on the natural scale plus the log Jacobian of
        the unconstrained parametrization, at hyper coordinates (..., m)."""
        thetas = np.asarray(thetas, dtype=float)
        pr = self.priors
        lp = gamma_logpdf(np.exp(thetas[..., 0]), pr.phi)
        if self.q == 1:
            lp = lp + gamma_logpdf(np.exp(thetas[..., 1]), pr.require_raneff_gamma())
        elif self.q == 2:
            w = pr.require_raneff_wishart()
            lp = lp + wishart_logpdf(precision_matrices(thetas[..., 1:]), w.df, w.scale)
        return lp + log_jacobians(thetas)

    def joint_log_posterior(self, x: np.ndarray, theta: HyperPoint) -> float:
        if theta.q != self.q:
            raise DomainError(
                f"theta has {theta.q} random terms but the model has {self.q}"
            )
        b, beta = self.split(np.asarray(x, dtype=float))
        eta = self.eta(np.asarray(x, dtype=float))
        return (
            self.loglik(eta, theta.phi)
            + self.raneff_log_prior(b, theta)
            + self.beta_log_prior(beta)
            + float(self.hyper_log_prior(theta.as_array()))
        )

    def _hyper_stack(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != len(self.hyper_names):
            raise DomainError(
                f"expected a stack of hyper points with {len(self.hyper_names)} "
                f"coordinates, got shape {thetas.shape}"
            )
        return thetas

    def conditional_objective(self, thetas: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Joint log posteriors as a function of the latent field alone.

        ``thetas`` (B, m) stacks B unconstrained hyper points; the returned
        function maps B latent vectors (B, d), one per point, to their B
        values.  Everything that depends only on theta (hyperprior,
        random-effect normalizing constant) is evaluated once up front, which
        matters inside Newton line searches.
        """
        thetas = self._hyper_stack(thetas)
        phi = np.exp(thetas[:, :1])
        const = self.hyper_log_prior(thetas)
        if self.q:
            q_mat = precision_matrices(thetas[:, 1:])
            const += self.n_groups * (-0.5 * self.q * LOG_2PI
                                      + 0.5 * precision_logdets(thetas[:, 1:]))

        def value(x: np.ndarray) -> np.ndarray:
            b, beta = self.split(x)
            out = const + self.beta_log_prior(beta)
            if self.q:
                out -= 0.5 * np.einsum("bnq,bqr,bnr->b", b, q_mat, b)
            return out + loglik_rows(self.link, self.y, self.eta(x), phi).sum(axis=1)

        return value

    # -- derivatives wrt the latent field -----------------------------------

    def grad_hessian(self, x: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, BlockSymmetric]:
        """Gradients (B, d) and Hessians of the joint log posterior in the
        latent field at B latent vectors ``x`` (B, d), one per hyper point of
        ``thetas`` (B, m)."""
        thetas = self._hyper_stack(thetas)
        x = np.asarray(x, dtype=float)
        b, beta = self.split(x)
        s, w = eta_derivs(self.link, self.y, self.eta(x), np.exp(thetas[:, :1]))

        batch = x.shape[0]
        grad_beta = s @ self.X - self.beta_prior_prec * beta
        h_xx = (w @ self._xx_rows).reshape(batch, self.p, self.p) - np.diag(self.beta_prior_prec)

        if self.q == 0:
            return grad_beta, BlockSymmetric(np.zeros((batch, 0, 0, 0)),
                                             np.zeros((batch, 0, 0, self.p)), h_xx)

        q_mat = precision_matrices(thetas[:, 1:])
        starts = self.group_starts
        zs, h_bb = group_sums(self.Z, starts, s, w)
        grad_b = zs - b @ q_mat
        h_bb -= q_mat[:, None, :, :]
        h_bx = np.add.reduceat(w[..., None] * self._zx_rows, starts, axis=1)

        grad = np.concatenate([grad_b.reshape(batch, -1), grad_beta], axis=1)
        return grad, BlockSymmetric(h_bb, h_bx.reshape(h_bb.shape[:3] + (self.p,)), h_xx)
