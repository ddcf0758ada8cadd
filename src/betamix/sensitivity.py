"""Prior sensitivity analysis through Hellinger distances.

The workflow: pick target Hellinger distances, calibrate shifted gamma
priors that sit exactly that far from the default prior, take the posterior
under each shifted prior, and measure how far the posterior marginal of the
scanned parameter moved.  A grid fit (q = 0 and 1, or a q = 2 design's grid
fallback) is not refit: the shifted prior only adds log pi_new - log pi_old
to each evaluated hyper point, so the default fit's points are reweighted
(``laplace.reweight_fit``), and only points an axis must grow by are
solved.  A q = 2 fit on the central composite design is refit under each
shifted prior, because the design's weights assume a Gaussian centred at
the old mode.  The sensitivity ratio S (posterior shift divided by prior
shift) summarizes robustness: S well below 1 means the data wash out the
prior perturbation.

``hellinger`` takes two gridded :class:`~betamix.density.MarginalDensity`
objects and integrates by trapezoid on the union of their grids;
``gamma_hellinger_closed`` is the closed form for two gammas, the
calibration objective.

Calibration holds the shape fixed and moves the rate upward until the
closed-form distance hits the target.  The reference prior for precision
scans is ``PHI_SCAN_DEFAULT`` (Gamma(1, 0.01)) rather than the looser fit
default; it is an explicit argument so callers can scan from any base.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from ._io import atomic_write
from .density import MarginalDensity
from .distributions import DomainError, GammaShapeRate, check_probability
from .laplace import FitResult, LaplaceOptions, fit_laplace, reweight_fit, same_node_marginals
from .model import Dataset, ModelSpec, fork_map
from .priors import PriorSpec, default_priors

__all__ = [
    "PHI_SCAN_DEFAULT",
    "ScanRow",
    "SensitivityReport",
    "calibrate_prior",
    "gamma_hellinger_closed",
    "hellinger",
    "sensitivity_scan",
]

#: Reference gamma prior for precision sensitivity scans.
PHI_SCAN_DEFAULT = GammaShapeRate(1.0, 0.01)
#: default target Hellinger distances of a scan
SCAN_TARGETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def hellinger(f: MarginalDensity, g: MarginalDensity) -> float:
    """Hellinger distance between two gridded densities, in [0, 1].

    The Bhattacharyya overlap is integrated by trapezoid on the union of the
    two grids and the midpoints of its cells; each density is zero off its
    own grid.
    """
    xs = np.union1d(f.x, g.x)
    xs = np.union1d(xs, 0.5 * (xs[:-1] + xs[1:]))
    bc = float(np.trapezoid(np.sqrt(f.pdf_at(xs) * g.pdf_at(xs)), xs))
    bc = min(max(bc, 0.0), 1.0)
    return float(np.sqrt(1.0 - bc))


def gamma_hellinger_closed(g1: GammaShapeRate, g2: GammaShapeRate) -> float:
    """Closed-form Hellinger distance between two gamma densities."""
    a1, b1 = g1.shape, g1.rate
    a2, b2 = g2.shape, g2.rate
    abar = 0.5 * (a1 + a2)
    log_bc = (
        gammaln(abar)
        - 0.5 * (gammaln(a1) + gammaln(a2))
        + 0.5 * (a1 * np.log(b1) + a2 * np.log(b2))
        - abar * np.log(0.5 * (b1 + b2))
    )
    bc = min(max(float(np.exp(log_bc)), 0.0), 1.0)
    return float(np.sqrt(1.0 - bc))


def calibrate_prior(default: GammaShapeRate, target_h: float) -> GammaShapeRate:
    """Gamma prior at a prescribed Hellinger distance from ``default``.

    Keeps the shape, moves the rate upward (toward a more informative,
    smaller-mean prior) until the closed-form distance matches ``target_h``
    within 1e-6.
    """
    check_probability(target_h, "target Hellinger distance")

    def gap(rate: float) -> float:
        return gamma_hellinger_closed(default, GammaShapeRate(default.shape, rate)) - target_h

    lo = default.rate
    hi = 2.0 * lo
    for _ in range(200):
        if gap(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        raise DomainError("failed to bracket the calibration target")
    rate = float(brentq(gap, lo, hi, xtol=1.0e-300, rtol=8.9e-16))
    out = GammaShapeRate(default.shape, rate)
    if abs(gamma_hellinger_closed(default, out) - target_h) > 1.0e-6:
        raise DomainError("calibration root finding did not reach the target")
    return out


@dataclass(frozen=True)
class ScanRow:
    """The posterior under one shifted prior: distances, ratio and summary.

    ``method`` says how it was computed: ``"reweighted"`` from the default
    fit's grid, with ``extension_solves`` new points solved, or
    ``"refit"``, a full fit on the central composite design (no extension
    solves).
    """

    target: float
    prior: GammaShapeRate | None
    prior_h: float
    posterior_h: float
    ratio: float
    summary: dict | None
    method: str
    extension_solves: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class SensitivityReport:
    """Full scan output: one row per target plus the default-fit summary."""

    param: str
    marginal_name: str
    base_prior: GammaShapeRate
    default_summary: dict
    rows: tuple[ScanRow, ...]

    def table(self) -> list[list[str]]:
        out = [["target", "shape", "rate", "prior_hellinger",
                "posterior_hellinger", "sensitivity_ratio", "error"]]
        for r in self.rows:
            if r.ok:
                out.append([
                    f"{r.target:.4g}", f"{r.prior.shape:.6g}", f"{r.prior.rate:.6g}",
                    f"{r.prior_h:.4f}", f"{r.posterior_h:.4f}", f"{r.ratio:.4f}", "",
                ])
            else:
                out.append([f"{r.target:.4g}", "", "", "", "", "", r.error or ""])
        return out

    def summary_table(self) -> list[list[str]]:
        """Posterior mean and sd of every parameter, default fit first."""
        names = list(self.default_summary)
        header = ["parameter", "default_mean", "default_sd"]
        for r in self.rows:
            tag = f"H{r.target:.2g}"
            header += [f"{tag}_mean", f"{tag}_sd"]
        out = [header]
        for name in names:
            cells = [name, f"{self.default_summary[name]['mean']:.6g}",
                     f"{self.default_summary[name]['sd']:.6g}"]
            for r in self.rows:
                if r.ok and name in r.summary:
                    cells += [f"{r.summary[name]['mean']:.6g}",
                              f"{r.summary[name]['sd']:.6g}"]
                else:
                    cells += ["", ""]
            out.append(cells)
        return out

    def _write(self, path, rows: list[list[str]]) -> str:
        with atomic_write(path) as fh:
            csv.writer(fh).writerows(rows)
        return str(path)

    def write_csv(self, path) -> str:
        return self._write(path, self.table())

    def write_summary_csv(self, path) -> str:
        return self._write(path, self.summary_table())


def _phi_scan(spec: ModelSpec, priors: PriorSpec, base_prior: GammaShapeRate | None):
    return base_prior or PHI_SCAN_DEFAULT, "phi", lambda pr, g: replace(pr, phi=g)


def _tau_scan(spec: ModelSpec, priors: PriorSpec, base_prior: GammaShapeRate | None):
    if spec.q != 1:
        raise DomainError("tau sensitivity scans need exactly one random-effect term")
    base = base_prior or priors.require_raneff_gamma()
    return base, "tau1_sq", lambda pr, g: replace(pr, raneff=g)


#: the parameters a scan can shift, each with its set-up: (spec, priors,
#: base prior or None) -> (base prior, posterior marginal compared, prior setter)
SCANS = {"phi": _phi_scan, "tau": _tau_scan}
#: the parameter a scan shifts unless told otherwise
SCAN_PARAM = "phi"


def sensitivity_scan(
    data: Dataset,
    spec: ModelSpec,
    priors: PriorSpec | None = None,
    param: str = SCAN_PARAM,
    targets: Sequence[float] = SCAN_TARGETS,
    base_prior: GammaShapeRate | None = None,
    options: LaplaceOptions | None = None,
) -> SensitivityReport:
    """The posterior under calibrated prior shifts and how far it moved.

    Fits once under the base prior.  For each target distance: calibrate a
    shifted gamma prior, take the posterior under it and compare the scanned
    parameter's marginal (natural scale) against the default fit's.  On a
    grid the posterior is the default fit reweighted (``reweight_fit``), and
    the two marginals compared are built on the same nodes
    (``same_node_marginals``).  On a central composite design each target is
    a full refit; the refits read nothing of one another, so they run in up
    to nproc forked workers (``model.fork_map``), equal bit for bit to a
    serial run.  A failed row is recorded with the error message and the
    scan continues.  A failed default fit raises.
    """
    targets = [float(t) for t in targets]
    if not targets or any(not 0.0 < t < 1.0 for t in targets):
        raise DomainError("targets must lie strictly in (0, 1)")
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise DomainError("targets must be strictly increasing")

    if param not in SCANS:
        raise DomainError("scan parameter must be " + " or ".join(map(repr, SCANS)))
    priors = default_priors(spec) if priors is None else priors
    base, marginal_name, put = SCANS[param](spec, priors, base_prior)

    options = options or LaplaceOptions()
    options = replace(options, compute_gof=False)

    def fit(prior: GammaShapeRate) -> FitResult:
        return fit_laplace(data, spec, priors=put(priors, prior), options=options)

    default = fit(base)
    reweight = default.theta_grid.integration == "grid"
    method = "reweighted" if reweight else "refit"

    def row(target: float) -> ScanRow:
        try:
            prior = calibrate_prior(base, target)
            if reweight:
                fitted, solves = reweight_fit(default, put(priors, prior))
                pair = same_node_marginals(default, fitted, marginal_name)
            else:
                fitted, solves = fit(prior), 0
                pair = default.marginal(marginal_name), fitted.marginal(marginal_name)
            pri_h = gamma_hellinger_closed(base, prior)
            post_h = hellinger(*pair)
            return ScanRow(target=target, prior=prior, prior_h=pri_h, posterior_h=post_h,
                           ratio=post_h / pri_h, summary=fitted.summary(), method=method,
                           extension_solves=solves)
        except Exception as exc:  # noqa: BLE001 - a row failure must not kill the scan
            nan = float("nan")
            return ScanRow(target=target, prior=None, prior_h=nan, posterior_h=nan, ratio=nan,
                           summary=None, method=method, extension_solves=0,
                           error=f"{type(exc).__name__}: {exc}")

    if reweight:
        rows = [row(t) for t in targets]
    else:
        rows = fork_map(lambda i: row(targets[i]), len(targets))
    return SensitivityReport(
        param=param,
        marginal_name=marginal_name,
        base_prior=base,
        default_summary=default.summary(),
        rows=tuple(rows),
    )
