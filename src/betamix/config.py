"""Run configuration and CSV ingestion for the command-line tools.

The config file is JSON with nested sections (all optional, all keys
validated):

.. code-block:: json

    {
      "data":   {"path": "study.csv", "response": "y", "group": "group",
                 "center": ["income"]},
      "model":  {"fixed": ["size", "income"], "random": "intercept",
                 "link": "logit", "slope_column": null,
                 "baselines": {"size": "Large"}, "name": "model4"},
      "priors": {"phi": [1.0, 0.001], "raneff": [0.5, 0.001487],
                 "slope_precision": 1e-4, "intercept_precision": 0.0},
      "engine": {"grid_step": 0.5, "cutoff": 8.0, "chains": 2,
                 "iterations": 20000, "burn_in": 2000, "thin": 10},
      "scan":   {"param": "phi", "targets": [0.1, 0.2, 0.3],
                 "base": [1.0, 0.01]},
      "output": {"dir": "out", "seed": 0}
    }

The ``engine`` section holds the settings of every engine; the subcommand
(``fit``, ``mcmc``, ``ml``) picks the engine.  The example asks for a finer
grid and a short MCMC run; a key left out takes the class default of
``laplace.LaplaceOptions`` or ``mcmc.McmcConfig``.  Command-line flags override
file values.  Unknown sections or keys are rejected rather than ignored, so
a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._io import atomic_write
from .distributions import DomainError, GammaShapeRate
from .laplace import LaplaceOptions
from .mcmc import McmcConfig
from .model import Dataset, ModelSpec
from .priors import PriorSpec, default_priors
from .sensitivity import SCAN_PARAM, SCAN_TARGETS

__all__ = ["AnalysisConfig", "load_csv", "write_rows_csv"]


def _pair(value, what: str) -> tuple[float, float]:
    try:
        a, b = (float(v) for v in value)
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a [shape, rate] pair") from None
    if a <= 0 or b <= 0:
        raise DomainError(f"{what} shape and rate must be positive")
    return a, b


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything a command run needs: data, model, priors, engine settings, output."""

    # data
    data: str | None = None
    response: str = "y"
    group: str = "group"
    center: tuple[str, ...] = ()
    # model
    fixed: tuple[str, ...] = ("size", "income")
    random: str = "intercept"
    link: str = "logit"
    slope_column: str | None = None
    baselines: tuple[tuple[str, str], ...] = ()
    model_name: str = ""
    # prior overrides (None keeps the model default)
    phi_prior: tuple[float, float] | None = None
    raneff_prior: tuple[float, float] | None = None
    slope_precision: float | None = None
    intercept_precision: float | None = None
    # engine settings, defaulting to the engines' own
    grid_step: float = LaplaceOptions.step
    cutoff: float = LaplaceOptions.cutoff
    chains: int = McmcConfig.n_chains
    iterations: int = McmcConfig.iterations
    burn_in: int = McmcConfig.burn_in
    thin: int = McmcConfig.thin
    # sensitivity scan
    scan_param: str = SCAN_PARAM
    targets: tuple[float, ...] = SCAN_TARGETS
    scan_base: tuple[float, float] | None = None
    # output
    out_dir: str = "."
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "fixed", tuple(self.fixed))
        object.__setattr__(self, "center", tuple(self.center))
        object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))
        object.__setattr__(
            self, "baselines", tuple((str(k), str(v)) for k, v in dict(self.baselines).items())
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    _SECTIONS = {
        "data": {"path": "data", "response": "response", "group": "group", "center": "center"},
        "model": {
            "fixed": "fixed", "random": "random", "link": "link",
            "slope_column": "slope_column", "baselines": "baselines", "name": "model_name",
        },
        "priors": {
            "phi": "phi_prior", "raneff": "raneff_prior",
            "slope_precision": "slope_precision", "intercept_precision": "intercept_precision",
        },
        "engine": {
            "grid_step": "grid_step", "cutoff": "cutoff", "chains": "chains",
            "iterations": "iterations", "burn_in": "burn_in", "thin": "thin",
        },
        "scan": {"param": "scan_param", "targets": "targets", "base": "scan_base"},
        "output": {"dir": "out_dir", "seed": "seed"},
    }

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        """Parse the JSON config file, rejecting unknown sections and keys."""
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise DomainError("config file must hold a JSON object")
        kwargs: dict = {}
        for section, content in raw.items():
            keymap = cls._SECTIONS.get(section)
            if keymap is None:
                raise DomainError(f"unknown config section {section!r}")
            if not isinstance(content, dict):
                raise DomainError(f"config section {section!r} must be an object")
            for key, value in content.items():
                if key not in keymap:
                    raise DomainError(f"unknown key {key!r} in config section {section!r}")
                kwargs[keymap[key]] = value
        if "baselines" in kwargs and isinstance(kwargs["baselines"], dict):
            kwargs["baselines"] = tuple(kwargs["baselines"].items())
        for key in ("phi_prior", "raneff_prior", "scan_base"):
            if kwargs.get(key) is not None:
                kwargs[key] = _pair(kwargs[key], key)
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # projections onto the engine settings
    # ------------------------------------------------------------------

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            fixed=self.fixed,
            random=self.random,
            slope_column=self.slope_column,
            link=self.link,
            baselines=self.baselines,
        )

    def prior_spec(self, spec: ModelSpec | None = None) -> PriorSpec:
        pr = default_priors(spec or self.model_spec())
        if self.phi_prior is not None:
            pr = replace(pr, phi=GammaShapeRate(*self.phi_prior))
        if self.raneff_prior is not None:
            pr = replace(pr, raneff=GammaShapeRate(*self.raneff_prior))
        if self.slope_precision is not None:
            pr = replace(pr, slope_precision=float(self.slope_precision))
        if self.intercept_precision is not None:
            pr = replace(pr, intercept_precision=float(self.intercept_precision))
        return pr

    def laplace_options(self) -> LaplaceOptions:
        return LaplaceOptions(step=self.grid_step, cutoff=self.cutoff)

    def mcmc_config(self) -> McmcConfig:
        return McmcConfig(
            n_chains=self.chains,
            iterations=self.iterations,
            burn_in=self.burn_in,
            thin=self.thin,
            seed=self.seed,
        )

    def scan_base_prior(self) -> GammaShapeRate | None:
        if self.scan_base is None:
            return None
        return GammaShapeRate(*self.scan_base)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _parse_numeric(values: list[str]) -> np.ndarray | None:
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            out[i] = float(v)
        except ValueError:
            return None
    return out


def load_csv(path, config: AnalysisConfig) -> Dataset:
    """Read a header CSV into a validated :class:`Dataset`.

    Columns named by the config that are absent from the file are reported
    by name; unparseable response values and missing cells are reported
    with their 1-based data row numbers.  Covariate columns whose every
    value parses as a number become numeric (optionally mean-centered via
    ``config.center``); anything else is kept as a categorical string
    column.
    """
    path = Path(path)
    if not path.exists():
        raise DomainError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DomainError(f"{path} is empty; expected a header row")
        header = [h.strip() for h in reader.fieldnames]
        records = [{k.strip(): (v or "").strip() for k, v in row.items()} for row in reader]
    if not records:
        raise DomainError(f"{path} has a header but no data rows")

    needed = {config.response, config.group, *config.fixed, *config.center}
    if config.slope_column:
        needed.add(config.slope_column)
    missing = sorted(needed - set(header))
    if missing:
        raise DomainError(f"{path} is missing required columns: {', '.join(missing)}")

    def column(name: str) -> list[str]:
        return [rec.get(name, "") for rec in records]

    blank = [i + 1 for i, rec in enumerate(records)
             if any(rec.get(c, "") == "" for c in needed)]
    if blank:
        raise DomainError(f"missing values at rows {blank}")

    y_raw = column(config.response)
    y = _parse_numeric(y_raw)
    if y is None:
        bad = [i + 1 for i, v in enumerate(y_raw) if not _is_float(v)]
        raise DomainError(f"non-numeric response values at rows {bad}")

    columns: dict[str, np.ndarray] = {}
    for name in sorted(needed - {config.response, config.group}):
        vals = column(name)
        numeric = _parse_numeric(vals)
        if name in config.center:
            if numeric is None:
                raise DomainError(f"column {name!r} must be numeric to be centered")
            numeric = numeric - numeric.mean()
        columns[name] = numeric if numeric is not None else np.asarray(vals)

    return Dataset(y, np.asarray(column(config.group)), columns)


def _is_float(v: str) -> bool:
    try:
        float(v)
        return True
    except ValueError:
        return False


def write_rows_csv(rows: list[dict], path) -> str:
    """Write uniform dict records to a header CSV atomically."""
    if not rows:
        raise DomainError("nothing to write")
    with atomic_write(path) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    return str(path)
