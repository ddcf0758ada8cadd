"""Prior specification and gamma-prior elicitation for precision parameters.

The elicitation inverts the scaled-t marginal of a normal random effect whose
precision carries a gamma prior: if ``b | tau ~ N(0, 1/tau)`` and
``tau ~ Gamma(a1, a2)``, then marginally ``b ~ t(0, a2/a1, 2*a1)`` (squared
scale).  Choosing the prior so that ``P(|b| < R) = q`` with ``df = d`` gives

    a1 = d / 2,        a2 = d * R^2 / (2 * t^2),

where ``t`` is the upper ``1 - (1 - q)/2`` Student-t quantile with ``d``
degrees of freedom.  For the standard choice R = ln 2 (random effect halves or
doubles the odds at 95% coverage), d = 1, this yields Gamma(0.5, 0.00148795).
``DEFAULT_TAU_PRIOR`` keeps Gamma(0.5, 0.001487), that rate cut to four
significant figures: it is the prior every default q = 1 result is computed
under, so rounding it up would move all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy.special import stdtrit

from .distributions import DomainError, GammaShapeRate, check_probability

__all__ = [
    "WishartPrior",
    "PriorSpec",
    "ElicitationInput",
    "elicit_gamma_prior",
    "elicited_range_roundtrip",
    "default_priors",
]

#: Slope precision of the default N(0, 1e4) coefficient prior.
DEFAULT_SLOPE_PRECISION = 1e-4

#: Default gamma prior on the beta precision phi.
DEFAULT_PHI_PRIOR = GammaShapeRate(1.0, 0.001)

#: Default elicited gamma prior on a scalar random-effect precision.
DEFAULT_TAU_PRIOR = GammaShapeRate(0.5, 0.001487)

#: Probability ``q`` that an elicited range covers the random effect, unless given.
ELICIT_COVERAGE = 0.95


def _wishart_default_scale() -> np.ndarray:
    return np.diag([0.001487, 0.005])


@dataclass(frozen=True)
class WishartPrior:
    """Wishart prior on a q x q precision matrix, convention ``E[Q] = df * scale``.

    Note this expectation convention is a documented choice; the scale is not
    a rate matrix.  The dimension-1 reduction is Gamma(df/2, 1/(2*scale)).
    """

    df: float = 5.0
    scale: np.ndarray = field(default_factory=_wishart_default_scale)

    def __post_init__(self) -> None:
        scale = np.atleast_2d(np.asarray(self.scale, dtype=float))
        object.__setattr__(self, "scale", scale)
        d = scale.shape[0]
        if scale.shape != (d, d):
            raise DomainError("Wishart scale must be square")
        if not np.allclose(scale, scale.T):
            raise DomainError("Wishart scale must be symmetric")
        try:
            np.linalg.cholesky(scale)
        except np.linalg.LinAlgError as exc:
            raise DomainError("Wishart scale must be positive definite") from exc
        if not self.df > d - 1:
            raise DomainError(f"Wishart df must exceed dim - 1 = {d - 1}")

    @property
    def dim(self) -> int:
        return self.scale.shape[0]


@dataclass(frozen=True)
class PriorSpec:
    """Priors for one model fit.

    Fixed effects: the intercept prior is flat (improper) unless
    ``intercept_precision > 0``; every slope gets an independent
    N(0, 1/slope_precision).  ``phi`` carries a gamma prior, and the
    random-effect precision carries either a gamma prior (one random term),
    a Wishart prior (two random terms) or ``None`` (no random effects).
    """

    phi: GammaShapeRate = DEFAULT_PHI_PRIOR
    raneff: Union[GammaShapeRate, WishartPrior, None] = None
    slope_precision: float = DEFAULT_SLOPE_PRECISION
    intercept_precision: float = 0.0

    def __post_init__(self) -> None:
        if self.slope_precision < 0.0 or self.intercept_precision < 0.0:
            raise DomainError("prior precisions must be nonnegative")

    def require_raneff_gamma(self) -> GammaShapeRate:
        if not isinstance(self.raneff, GammaShapeRate):
            raise DomainError(
                "this operation needs a scalar gamma random-effect prior"
            )
        return self.raneff

    def require_raneff_wishart(self) -> WishartPrior:
        if not isinstance(self.raneff, WishartPrior):
            raise DomainError("this operation needs a Wishart random-effect prior")
        return self.raneff


@dataclass(frozen=True)
class ElicitationInput:
    """Range ``R``, degrees of freedom ``d`` and coverage ``q`` for elicitation."""

    range_r: float
    df: float
    coverage: float = ELICIT_COVERAGE

    def __post_init__(self) -> None:
        if not self.range_r > 0.0:
            raise DomainError("range must be positive")
        if not self.df > 0.0:
            raise DomainError("df must be positive")
        check_probability(self.coverage, "coverage")


def elicit_gamma_prior(inp: ElicitationInput) -> GammaShapeRate:
    """Gamma prior on a precision from a random-effect range statement.

    ``P(|b| < R) = q`` under the marginal scaled t with ``df = d`` pins the
    prior to shape ``d/2`` and rate ``d R^2 / (2 t^2)``.
    """
    t = float(stdtrit(inp.df, 1.0 - (1.0 - inp.coverage) / 2.0))
    shape = inp.df / 2.0
    rate = inp.df * inp.range_r**2 / (2.0 * t * t)
    return GammaShapeRate(shape, rate)


def elicited_range_roundtrip(g: GammaShapeRate, coverage: float = ELICIT_COVERAGE) -> float:
    """Invert :func:`elicit_gamma_prior`: the range R implied by a gamma prior.

    The random effect scaled by the marginal-t squared scale ``a2/a1`` is a
    standard t with ``2*a1`` degrees of freedom, so
    ``R = t_quantile * sqrt(a2/a1)``.
    """
    check_probability(coverage, "coverage")
    df = 2.0 * g.shape
    t = float(stdtrit(df, 1.0 - (1.0 - coverage) / 2.0))
    return float(t * np.sqrt(g.rate / g.shape))


def default_priors(model) -> PriorSpec:
    """Default priors for a model: flat intercept, N(0, 1e4) slopes,
    Gamma(1, 0.001) on phi, and the elicited Gamma(0.5, 0.001487) or
    Wishart(5, diag(0.001487, 0.005)) on the random-effect precision,
    depending on the random structure.
    """
    q = int(model.q)
    if q == 0:
        raneff: Union[GammaShapeRate, WishartPrior, None] = None
    elif q == 1:
        raneff = DEFAULT_TAU_PRIOR
    elif q == 2:
        raneff = WishartPrior()
    else:
        raise DomainError(f"unsupported random-effect dimension {q}")
    return PriorSpec(phi=DEFAULT_PHI_PRIOR, raneff=raneff)
