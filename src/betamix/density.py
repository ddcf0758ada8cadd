"""Gridded one-dimensional densities with exact trapezoid-consistent summaries.

A :class:`MarginalDensity` is a piecewise-linear density on a strictly
increasing grid.  Quantiles invert the exact piecewise-quadratic CDF of that
density, so interval probabilities and equal-tail intervals are mutually
consistent to float precision rather than to grid resolution.

:func:`kde_density` turns draws into such a density on the same
``MARGINAL_POINTS`` abscissae: a Gaussian kernel estimate, linearly binned
onto the abscissae and convolved once with the exact kernel.  Every sampled
marginal goes through it: the design's hyperparameter and ``rho`` marginals,
the grid's ``rho`` and every MCMC marginal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MarginalDensity", "kde_density"]

#: abscissae of every gridded marginal: Laplace, kernel estimates, MCMC CSVs
MARGINAL_POINTS = 401
#: probability levels of every marginal summary, keyed ``q<level>``
SUMMARY_QUANTILES = (0.025, 0.5, 0.975)
#: probability of an interval whose level is not given: equal-tail, Wald, profile
INTERVAL_LEVEL = 0.95


@dataclass(frozen=True)
class MarginalDensity:
    """Normalized density values on a strictly increasing abscissa grid."""

    x: np.ndarray
    pdf: np.ndarray
    name: str = ""
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        pdf = np.asarray(self.pdf, dtype=float)
        if x.ndim != 1 or pdf.shape != x.shape or x.size < 2:
            raise ValueError("x and pdf must be equal-length 1-D arrays (>= 2 points)")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(pdf)):
            raise ValueError("x and pdf must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("abscissae must be strictly increasing")
        if np.any(pdf < 0.0):
            raise ValueError("density values must be nonnegative")
        total = np.trapezoid(pdf, x)
        if not total > 0.0:
            raise ValueError("density integrates to zero")
        pdf = pdf / total
        h = np.diff(x)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * h * (pdf[:-1] + pdf[1:]))))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pdf", pdf)
        object.__setattr__(self, "_cdf", cdf)

    # -- evaluation ---------------------------------------------------------

    def pdf_at(self, v) -> np.ndarray:
        """Linear interpolation of the density; zero outside the grid."""
        return np.interp(np.asarray(v, dtype=float), self.x, self.pdf, left=0.0, right=0.0)

    def cdf(self, v: float) -> float:
        """Exact CDF of the piecewise-linear density at ``v``."""
        x, pdf, cdf = self.x, self.pdf, self._cdf
        if v <= x[0]:
            return 0.0
        if v >= x[-1]:
            return 1.0
        i = int(np.searchsorted(x, v, side="right") - 1)
        h = x[i + 1] - x[i]
        t = v - x[i]
        slope = (pdf[i + 1] - pdf[i]) / h
        return float(cdf[i] + pdf[i] * t + 0.5 * slope * t * t)

    def quantile(self, p: float) -> float:
        """Inverse of :meth:`cdf`; exact within each grid cell."""
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {p}")
        x, pdf, cdf = self.x, self.pdf, self._cdf
        if p <= cdf[0]:
            return float(x[0])
        if p >= cdf[-1]:
            return float(x[-1])
        i = int(np.searchsorted(cdf, p, side="right") - 1)
        i = min(i, x.size - 2)
        h = x[i + 1] - x[i]
        need = p - cdf[i]
        f0 = pdf[i]
        slope = (pdf[i + 1] - f0) / h
        if abs(slope) * h < 1e-14 * max(f0, 1e-300):
            t = need / f0 if f0 > 0.0 else 0.0
        else:
            disc = f0 * f0 + 2.0 * slope * need
            disc = max(disc, 0.0)
            t = (np.sqrt(disc) - f0) / slope
        t = min(max(t, 0.0), h)
        return float(x[i] + t)

    def equal_tail_interval(self, level: float = INTERVAL_LEVEL) -> tuple[float, float]:
        alpha = (1.0 - level) / 2.0
        return self.quantile(alpha), self.quantile(1.0 - alpha)

    # -- moments ------------------------------------------------------------

    def mean(self) -> float:
        x, f = self.x, self.pdf
        x0, x1 = x[:-1], x[1:]
        f0, f1 = f[:-1], f[1:]
        h = x1 - x0
        # exact first moment of the linear segment
        seg = h / 6.0 * (f0 * (2.0 * x0 + x1) + f1 * (x0 + 2.0 * x1))
        return float(np.sum(seg))

    def second_moment(self) -> float:
        x, f = self.x, self.pdf
        x0, x1 = x[:-1], x[1:]
        f0, f1 = f[:-1], f[1:]
        h = x1 - x0
        seg = h / 12.0 * (
            f0 * (3.0 * x0 * x0 + 2.0 * x0 * x1 + x1 * x1)
            + f1 * (x0 * x0 + 2.0 * x0 * x1 + 3.0 * x1 * x1)
        )
        return float(np.sum(seg))

    def sd(self) -> float:
        m = self.mean()
        var = max(self.second_moment() - m * m, 0.0)
        return float(np.sqrt(var))

    def summary(self) -> dict:
        out = {"mean": self.mean(), "sd": self.sd()}
        for q in SUMMARY_QUANTILES:
            out[f"q{q:g}"] = self.quantile(q)
        return out

    # -- transforms ---------------------------------------------------------

    def map_monotone(self, fwd, name: str | None = None) -> "MarginalDensity":
        """Push the density through a strictly monotone map ``fwd``.

        The Jacobian |dx/dz| is taken numerically from the transformed grid;
        the result is renormalized.
        """
        z = np.asarray(fwd(self.x), dtype=float)
        xs, p = self.x, self.pdf
        if np.any(np.diff(z) < 0.0):
            z, xs, p = z[::-1], xs[::-1], p[::-1]
        if np.any(np.diff(z) <= 0.0):
            raise ValueError("fwd must be strictly monotone on the grid")
        dxdz = np.gradient(xs, z)
        return MarginalDensity(z, p * np.abs(dxdz), name or self.name)


def kde_density(
    values,
    weights=None,
    name: str = "",
    n_eff: float | None = None,
    log_scale: bool = False,
) -> MarginalDensity:
    """Gaussian kernel density estimate as a :class:`MarginalDensity` on
    ``MARGINAL_POINTS`` abscissae, from ``min - 4h`` to ``max + 4h``.

    The Silverman rule bandwidth ``h`` uses ``n_eff`` when given (for
    correlated draws pass the effective sample size); otherwise the Kish size
    implied by the weights, or the raw count.

    The estimate is binned (Silverman 1982, AS 176; Wand 1994, JCGS 3:433):
    each value splits its weight linearly between the two abscissae around
    it, which keeps the weighted mean exactly, and the bin masses take one
    direct convolution with the Gaussian kernel at every grid offset.  Memory
    is O(n + grid), and the values are non-negative by construction.  Only
    the binning approximates: against the exact kernel sum, on 4,000 draws
    (Gaussian, weighted, log-normal on the log scale, and a q = 2 design's
    draws), the largest pointwise gap was 1.3e-4 of the peak, the mean moved
    at most 2e-5 SD and the SD at most a relative 6e-5
    (``tests/test_density.py`` holds them to 2e-4, 1e-4 and 2e-4).

    With ``log_scale`` the kernel is placed on log(values) and the density is
    mapped back through exp.  For positive skewed quantities (precisions,
    dispersion) this keeps the heavy right tail from being oversmoothed and
    keeps all mass on the positive axis.
    """
    values = np.asarray(values, dtype=float).ravel()
    if log_scale:
        if np.any(values <= 0.0):
            raise ValueError("log_scale requires strictly positive values")
        base = kde_density(np.log(values), weights=weights, name=name, n_eff=n_eff)
        return base.map_monotone(np.exp, name)
    if weights is None:
        w = np.full(values.size, 1.0 / values.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        w = w / np.sum(w)
    mean = float(np.sum(w * values))
    sd = float(np.sqrt(max(np.sum(w * (values - mean) ** 2), 1e-300)))
    if n_eff is None:
        n_eff = 1.0 / float(np.sum(w * w))
    bandwidth = max(1.06 * sd * max(n_eff, 2.0) ** (-0.2), 1e-12 * (1.0 + abs(mean)))
    lo = float(np.min(values) - 4.0 * bandwidth)
    hi = float(np.max(values) + 4.0 * bandwidth)
    xs = np.linspace(lo, hi, MARGINAL_POINTS)
    # linear binning: each value splits its weight between the two abscissae
    # around it, in proportion to its nearness (Silverman 1982, AS 176); the
    # clamp keeps a value that rounds onto ``hi`` in the last cell
    spacing = (hi - lo) / (MARGINAL_POINTS - 1)
    frac = (values - lo) / spacing
    left = np.minimum(frac.astype(np.intp), MARGINAL_POINTS - 2)
    frac -= left
    upper = w * frac
    mass = (np.bincount(left, w - upper, MARGINAL_POINTS)
            + np.bincount(left + 1, upper, MARGINAL_POINTS))
    # one direct convolution with the kernel at every grid offset: the kernel
    # is exact, and a sum of non-negative terms cannot go below zero
    offsets = np.arange(1 - MARGINAL_POINTS, MARGINAL_POINTS) * (spacing / bandwidth)
    pdf = np.convolve(mass, np.exp(-0.5 * offsets * offsets), mode="valid")
    return MarginalDensity(xs, pdf, name=name)
