"""Seeded study generator for the benchmark.

The design follows the package's own simulator so the workloads look like
the paper's data: groups of near-equal size, a group-level ``size`` factor
with three levels, a centred standard-normal ``income`` covariate, a logit
link and the generating values below.  It is written out here, apart from
the package, so that the benchmark's inputs depend only on ``--seed`` and on
this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA = {"intercept": 0.40, "size_Medium": -0.07, "size_Small": -0.13, "income": 0.47}
PHI = 93.0
TAU1_SQ = 64.0
TAU2_SQ = 533.0
RHO_CORR = 0.75
SIZE_LEVELS = ("Large", "Medium", "Small")


@dataclass(frozen=True)
class Study:
    """Columns of one drawn study plus its generating values."""

    y: np.ndarray
    group: np.ndarray
    size: np.ndarray
    income: np.ndarray
    random: str

    @property
    def n(self) -> int:
        return int(self.y.size)

    def truth(self) -> dict[str, float]:
        out = {f"beta_{k}": v for k, v in BETA.items()}
        out["phi"] = PHI
        out["tau1_sq"] = TAU1_SQ
        if self.random == "intercept+slope":
            out["tau2_sq"] = TAU2_SQ
            out["rho_corr"] = RHO_CORR
        return out


def _effect_covariance(random: str) -> np.ndarray:
    """Covariance of one group's effect vector under the generating values."""
    if random == "intercept":
        return np.array([[1.0 / TAU1_SQ]])
    s1, s2 = 1.0 / np.sqrt(TAU1_SQ), 1.0 / np.sqrt(TAU2_SQ)
    return np.array([[s1 * s1, RHO_CORR * s1 * s2], [RHO_CORR * s1 * s2, s2 * s2]])


def draw_study(seed: int, n_groups: int, n_total: int, random: str) -> Study:
    """Draw one study with ``random`` in {"intercept", "intercept+slope"}."""
    if random not in ("intercept", "intercept+slope"):
        raise ValueError(f"unknown random structure {random!r}")
    rng = np.random.default_rng(seed)
    base, extra = divmod(n_total, n_groups)
    sizes = np.full(n_groups, base)
    sizes[:extra] += 1
    group = np.repeat([f"g{i + 1:03d}" for i in range(n_groups)], sizes)
    size = np.repeat([SIZE_LEVELS[i % 3] for i in range(n_groups)], sizes)
    income = rng.standard_normal(n_total)
    income -= income.mean()

    eta = BETA["intercept"] + BETA["income"] * income
    eta += np.where(size == "Medium", BETA["size_Medium"], 0.0)
    eta += np.where(size == "Small", BETA["size_Small"], 0.0)
    cov = _effect_covariance(random)
    b = rng.standard_normal((n_groups, cov.shape[0])) @ np.linalg.cholesky(cov).T
    eta += np.repeat(b[:, 0], sizes)
    if random == "intercept+slope":
        eta += np.repeat(b[:, 1], sizes) * income

    mu = 1.0 / (1.0 + np.exp(-eta))
    y = np.clip(rng.beta(mu * PHI, (1.0 - mu) * PHI), 1e-12, 1.0 - 1e-12)
    return Study(y=y, group=group, size=size, income=income, random=random)
