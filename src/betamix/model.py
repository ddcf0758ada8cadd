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
Schur complement instead of densifying.

Every decision the three engines share lives here once: the row likelihood
and its link derivatives (``loglik_rows``, ``eta_derivs``), the
unconstrained-to-natural transforms with their derivatives (``TRANSFORMS``),
log det Q (:meth:`HyperPoint.precision_logdet`), the coordinate cap
``COORD_CAP`` and the value outside the support (``out_of_support``), the
moment start point, the outer search (``maximize``), the two-stage
finite-difference curvature at its optimum (``fd_curvature``) and the damped
Newton search for conditional modes (``newton_ascent``), with its one
acceptance rule and one failure, ``ModeConvergenceError``.
"""

from __future__ import annotations

import hashlib
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


def _log1m_tanh_sq(z: float) -> float:
    """log(1 - tanh(z)^2), stable for large |z|."""
    a = abs(z)
    return float(np.log(4.0) - 2.0 * (a + np.log1p(np.exp(-2.0 * a))))


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

    @property
    def log_tau(self) -> float:
        if self.q != 1:
            raise DomainError("log_tau only exists for one random term")
        return self.raneff[0]

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
        if self.q == 0:
            return None
        if self.q == 1:
            return np.array([[np.exp(self.raneff[0])]])
        u1, u2, z = self.raneff
        c = np.tanh(z)
        g = np.exp(-_log1m_tanh_sq(z))  # 1 / (1 - c^2)
        q11 = np.exp(u1) * g
        q22 = np.exp(u2) * g
        q12 = -c * np.exp(0.5 * (u1 + u2)) * g
        return np.array([[q11, q12], [q12, q22]])

    def natural(self) -> dict[str, float]:
        out = {"phi": self.phi}
        if self.q == 1:
            out["tau1_sq"] = float(np.exp(self.raneff[0]))
        elif self.q == 2:
            u1, u2, z = self.raneff
            t1, t2 = float(np.exp(u1)), float(np.exp(u2))
            c = float(np.tanh(z))
            out["tau1_sq"] = t1
            out["tau2_sq"] = t2
            out["rho_corr"] = c
            out["rho"] = c / float(np.sqrt(t1 * t2))
        return out

    def precision_logdet(self) -> float:
        """log det Q from its Cholesky factor; 0 without random effects."""
        if self.q == 0:
            return 0.0
        chol = np.linalg.cholesky(self.precision_matrix())
        return 2.0 * float(np.sum(np.log(np.diag(chol))))

    def log_jacobian(self) -> float:
        """log |d(natural)/d(unconstrained)| for hyperprior evaluation.

        phi and tau are log transforms; for q = 2 the map
        (u1, u2, z) -> (Q11, Q12, Q22) has
        log |J| = 1.5 (u1 + u2) - 2 log(1 - c^2).
        """
        jac = self.log_phi
        if self.q == 1:
            jac += self.raneff[0]
        elif self.q == 2:
            u1, u2, z = self.raneff
            jac += 1.5 * (u1 + u2) - 2.0 * _log1m_tanh_sq(z)
        return float(jac)


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


def eta_derivs(link: Link, y: np.ndarray, eta: np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first/second derivatives of the beta log likelihood in eta."""
    mu = np.clip(link.inv(eta), MU_EPS, 1.0 - MU_EPS)
    d1 = link.dmu_deta(eta, mu)
    d2 = link.d2mu_deta2(eta, mu)
    s_mu = beta_score_mu(y, mu, phi)
    c_mu = beta_curv_mu(mu, phi)
    return s_mu * d1, c_mu * d1 * d1 + s_mu * d2


def group_sums(Z: np.ndarray, starts: np.ndarray, s: np.ndarray,
               w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group ``Z_i' s_i`` (N, q) and ``Z_i' W_i Z_i`` (N, q, q) from the
    per-row derivatives ``s`` and ``w``; one reduction per distinct block
    entry."""
    q = Z.shape[1]
    zs = np.add.reduceat(Z * s[:, None], starts, axis=0)
    zwz = np.empty((starts.size, q, q))
    for a in range(q):
        for c in range(a, q):
            vals = np.add.reduceat(w * Z[:, a] * Z[:, c], starts)
            zwz[:, a, c] = vals
            zwz[:, c, a] = vals
    return zs, zwz


def fd_hessian(fn: Callable[[np.ndarray], float], x0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Central-difference Hessian of ``fn`` at ``x0`` with per-axis steps ``h``.

    The probe order is fixed; callers whose ``fn`` is warm started depend on it.
    """
    m = x0.size
    hess = np.zeros((m, m))
    f0 = fn(x0)
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h[i]
        hess[i, i] = (fn(x0 + ei) - 2.0 * f0 + fn(x0 - ei)) / (h[i] * h[i])
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                fn(x0 + ei + ej) - fn(x0 + ei - ej) - fn(x0 - ei + ej) + fn(x0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def fd_curvature(fn: Callable[[np.ndarray], float], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-stage finite-difference curvature of ``fn`` at its maximum ``x``.

    A crude pass with steps ``0.05 (1 + |x_i|)`` sets the per-axis scales; a
    second pass with steps of a tenth of those standard deviations refines.
    Steps are capped at 0.5, so a flat direction cannot push a probe into a
    penalty region, and floored at 1e-4.  Eigenvalues are floored at 1e-8
    times the largest, so the curvature is usable on flat directions too.
    Returns the floored negative Hessian and its inverse.
    """
    x = np.asarray(x, dtype=float)

    def floored(h: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(-fd_hessian(fn, x, h))
        top = float(np.max(vals))
        if top <= 0.0:
            return np.eye(x.size)
        return (vecs * np.maximum(vals, 1e-8 * top)) @ vecs.T

    curv = floored(np.minimum(0.05 * (1.0 + np.abs(x)), 0.5))
    curv = floored(np.clip(0.1 * np.sqrt(np.diag(np.linalg.inv(curv))), 1e-4, 0.5))
    return curv, np.linalg.inv(curv)


#: iteration budget of :func:`maximize`
MAXIMIZE_ITER = 500


class Maximum(NamedTuple):
    """Result of :func:`maximize`: the argmax, the value there and whether
    the stopping rule was met."""

    x: np.ndarray
    value: float
    converged: bool
    message: str


def maximize(fn: Callable[[np.ndarray], float], x0: np.ndarray,
             inv_curv: np.ndarray | None = None) -> Maximum:
    """Maximize ``fn`` by BFGS on a central-difference gradient.

    The Laplace and likelihood objectives carry inner Newton solves and are
    smooth only to about 1e-8, so a forward difference at SciPy's default
    step (about 1.5e-8) returns noise.  The gradient here is a central
    difference with step ``1e-3 * max(1, |x_i|)``, the order of the step INLA
    uses for its hyper mode (Rue, Martino & Chopin 2009, section 6.1).
    ``inv_curv``, when known, seeds the inverse-Hessian estimate.

    Converged means the largest gradient component fell below 1e-3, or the
    line search could make no further progress where the BFGS quadratic
    model is positive definite and promises a gain below 1e-6
    (``g' H^-1 g / 2``: the gradient test then fails on difference noise
    alone).  Running out of ``MAXIMIZE_ITER``
    iterations, or a stall with more to gain, reads ``False``.
    """
    res = minimize(
        lambda x: -fn(x), np.asarray(x0, dtype=float), method="BFGS", jac="3-point",
        options={"finite_diff_rel_step": 1.0e-3, "gtol": 1.0e-3, "maxiter": MAXIMIZE_ITER,
                 "hess_inv0": inv_curv},
    )
    # a stall counts as converged only under a positive-definite quadratic model
    stalled_flat = (res.status == 2 and bool(np.all(np.linalg.eigvalsh(res.hess_inv) > 0.0))
                    and 0.5 * float(res.jac @ res.hess_inv @ res.jac) < 1.0e-6)
    return Maximum(np.asarray(res.x, dtype=float), -float(res.fun),
                   bool(res.success or stalled_flat), str(res.message))


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
# block-structured symmetric matrices
# ---------------------------------------------------------------------------


class BlockSymmetric:
    """Symmetric matrix with N diagonal q x q blocks and dense beta coupling.

    Stores ``bb`` (N, q, q), ``bx`` (N, q, p) and ``xx`` (p, p); the dense
    equivalent is [[blockdiag(bb), vstack(bx)], [*, xx]].
    """

    def __init__(self, bb: np.ndarray, bx: np.ndarray, xx: np.ndarray):
        self.bb = np.asarray(bb, dtype=float)
        self.bx = np.asarray(bx, dtype=float)
        self.xx = np.asarray(xx, dtype=float)
        self.n_blocks = self.bb.shape[0]
        self.q = self.bb.shape[1] if self.bb.ndim == 3 else 0
        self.p = self.xx.shape[0]
        self.dim = self.n_blocks * self.q + self.p

    def __neg__(self) -> "BlockSymmetric":
        return BlockSymmetric(-self.bb, -self.bx, -self.xx)

    def to_dense(self) -> np.ndarray:
        n, q, p = self.n_blocks, self.q, self.p
        out = np.zeros((self.dim, self.dim))
        for i in range(n):
            s = slice(i * q, (i + 1) * q)
            out[s, s] = self.bb[i]
            out[s, n * q :] = self.bx[i]
            out[n * q :, s] = self.bx[i].T
        out[n * q :, n * q :] = self.xx
        return out

    def cholesky(self) -> "BlockCholesky":
        return BlockCholesky(self)


class BlockCholesky:
    """Schur-complement factorization of a positive definite BlockSymmetric.

    Raises ``np.linalg.LinAlgError`` when any block (or the Schur complement)
    is not positive definite, which the Newton loop uses as its SPD check.
    """

    def __init__(self, mat: BlockSymmetric):
        self.mat = mat
        n, q, p = mat.n_blocks, mat.q, mat.p
        if n * q > 0:
            chol_bb = np.linalg.cholesky(mat.bb)
            self._logdet_bb = 2.0 * float(np.sum(np.log(np.diagonal(chol_bb, axis1=1, axis2=2))))
            self.gain = np.linalg.solve(mat.bb, mat.bx)  # (N, q, p)
            schur = mat.xx - np.einsum("nqp,nqs->ps", mat.bx, self.gain)
        else:
            self._logdet_bb = 0.0
            self.gain = np.zeros((n, q, p))
            schur = mat.xx.copy()
        self.schur = schur
        self._chol_schur = np.linalg.cholesky(schur) if p > 0 else np.zeros((0, 0))

    def logdet(self) -> float:
        return self._logdet_bb + 2.0 * float(np.sum(np.log(np.diag(self._chol_schur))))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        mat = self.mat
        n, q, p = mat.n_blocks, mat.q, mat.p
        nb = n * q
        gb = rhs[:nb].reshape(n, q) if nb else np.zeros((n, q))
        gx = rhs[nb:]
        if nb:
            u = np.linalg.solve(mat.bb, gb[..., None])[..., 0]
            red = gx - np.einsum("nqp,nq->p", mat.bx, u)
        else:
            u = gb
            red = gx
        dx = _chol_solve(self._chol_schur, red) if p else np.zeros(0)
        if nb:
            db = u - np.einsum("nqp,p->nq", self.gain, dx)
        else:
            db = u
        return np.concatenate([db.ravel(), dx])

    def inverse_pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V_bb (N,q,q), C_bx (N,q,p), V_xx (p,p)) of the full inverse."""
        mat = self.mat
        n, q, p = mat.n_blocks, mat.q, mat.p
        v_xx = _chol_solve(self._chol_schur, np.eye(p)) if p else np.zeros((0, 0))
        if n * q:
            inv_bb = np.linalg.inv(mat.bb)
            c_bx = -np.einsum("nqp,ps->nqs", self.gain, v_xx)
            v_bb = inv_bb + np.einsum("nqp,ps,nrs->nqr", self.gain, v_xx, self.gain)
        else:
            c_bx = np.zeros((n, q, p))
            v_bb = np.zeros((n, q, q))
        return v_bb, c_bx, v_xx


def _chol_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from scipy.linalg import solve_triangular

    y = solve_triangular(chol, rhs, lower=True)
    return solve_triangular(chol.T, y, lower=False)


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
        nb = self.n_groups * self.q
        return x[:nb].reshape(self.n_groups, self.q), x[nb:]

    # -- evaluation ---------------------------------------------------------

    def eta(self, x: np.ndarray) -> np.ndarray:
        b, beta = self.split(x)
        eta = self.X @ beta
        if self.q:
            eta = eta + np.sum(self.Z * b[self.groups], axis=1)
        return eta

    def loglik(self, eta: np.ndarray, phi: float) -> float:
        return float(np.sum(loglik_rows(self.link, self.y, eta, phi)))

    def beta_log_prior(self, beta: np.ndarray) -> float:
        return self._beta_prior_const - 0.5 * float(
            np.sum(self.beta_prior_prec * beta * beta)
        )

    def raneff_log_prior(self, b: np.ndarray, theta: HyperPoint) -> float:
        if self.q == 0:
            return 0.0
        q_mat = theta.precision_matrix()
        quad = float(np.einsum("nq,qr,nr->", b, q_mat, b))
        logdet = theta.precision_logdet()
        return self.n_groups * (-0.5 * self.q * LOG_2PI + 0.5 * logdet) - 0.5 * quad

    def hyper_log_prior(self, theta: HyperPoint) -> float:
        """Hyperprior density on the natural scale plus the log Jacobian of
        the unconstrained parametrization."""
        pr = self.priors
        lp = float(gamma_logpdf(theta.phi, pr.phi))
        if self.q == 1:
            lp += float(gamma_logpdf(np.exp(theta.log_tau), pr.require_raneff_gamma()))
        elif self.q == 2:
            w = pr.require_raneff_wishart()
            lp += float(wishart_logpdf(theta.precision_matrix(), w.df, w.scale))
        return lp + theta.log_jacobian()

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
            + self.hyper_log_prior(theta)
        )

    def conditional_objective(self, theta: HyperPoint) -> Callable[[np.ndarray], float]:
        """Joint log posterior as a function of the latent field alone.

        Everything that depends only on theta (hyperprior, random-effect
        normalizing constant) is evaluated once up front, which matters
        inside Newton line searches.
        """
        if theta.q != self.q:
            raise DomainError(
                f"theta has {theta.q} random terms but the model has {self.q}"
            )
        phi = theta.phi
        const = self.hyper_log_prior(theta)
        if self.q:
            q_mat = theta.precision_matrix()
            const += self.n_groups * (-0.5 * self.q * LOG_2PI + 0.5 * theta.precision_logdet())

        def value(x: np.ndarray) -> float:
            b, beta = self.split(x)
            eta = self.X @ beta
            out = const + self.beta_log_prior(beta)
            if self.q:
                eta = eta + np.sum(self.Z * b[self.groups], axis=1)
                out -= 0.5 * float(np.einsum("nq,qr,nr->", b, q_mat, b))
            return out + self.loglik(eta, phi)

        return value

    # -- derivatives wrt the latent field -----------------------------------

    def grad_hessian(self, x: np.ndarray, theta: HyperPoint) -> tuple[np.ndarray, BlockSymmetric]:
        x = np.asarray(x, dtype=float)
        b, beta = self.split(x)
        eta = self.eta(x)
        s, w = eta_derivs(self.link, self.y, eta, theta.phi)

        grad_beta = self.X.T @ s - self.beta_prior_prec * beta
        h_xx = (self.X * w[:, None]).T @ self.X - np.diag(self.beta_prior_prec)

        if self.q == 0:
            grad = grad_beta
            return grad, BlockSymmetric(np.zeros((0, 0, 0)), np.zeros((0, 0, self.p)), h_xx)

        q_mat = theta.precision_matrix()
        starts = self.group_starts
        zs, h_bb = group_sums(self.Z, starts, s, w)
        grad_b = zs - b @ q_mat
        h_bb -= q_mat[None, :, :]

        h_bx = np.empty((self.n_groups, self.q, self.p))
        for a in range(self.q):
            h_bx[:, a, :] = np.add.reduceat(
                (w * self.Z[:, a])[:, None] * self.X, starts, axis=0
            )

        grad = np.concatenate([grad_b.ravel(), grad_beta])
        return grad, BlockSymmetric(h_bb, h_bx, h_xx)
