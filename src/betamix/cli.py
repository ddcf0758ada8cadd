"""Command-line entry points.

Subcommands, one per engine or task: ``fit`` (nested Laplace), ``mcmc``,
``ml`` (maximum likelihood), ``compare`` (information criteria over the
nested model ladder: null, fixed effects, random intercept, full model),
``sensitivity`` (prior scan), ``elicit`` (gamma prior from a range
statement) and ``simulate`` (synthetic study generator).

Every command writes a ``<command>_summary.json`` (validating against the
schema shipped in ``betamix/schemas/``) plus CSV outputs into ``--out-dir``:
marginal density grids as two-column files, comparison and sensitivity
tables, chain draws.  All files are written atomically.  Failures exit
nonzero with a one-line JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._io import atomic_write
from .config import AnalysisConfig, load_csv, write_rows_csv
from .density import INTERVAL_LEVEL
from .distributions import DomainError, check_probability
from .laplace import FitResult, fit_laplace
from .likelihood import ml_fit, profile_interval
from .mcmc import export_chains, run_mcmc
from .model import LINKS, RANDOM_KINDS, Dataset
from .priors import ELICIT_COVERAGE, ElicitationInput, elicit_gamma_prior, elicited_range_roundtrip
from .selection import compare_models
from .sensitivity import SCANS, sensitivity_scan
from .simulate import simulate_study

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors are machine readable."""

    def error(self, message):
        record = {"error": {"type": "UsageError", "message": message}}
        print(json.dumps(record), file=sys.stderr)
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _clean(obj):
    """Recursively replace non-finite floats with None for strict JSON."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _validate_summary(summary: dict) -> None:
    try:
        import jsonschema
    except ImportError:
        return
    from importlib.resources import files

    schema = json.loads(
        (files("betamix") / "schemas" / "summary.schema.json").read_text()
    )
    jsonschema.validate(summary, schema)


def _write_json(summary: dict, path: Path) -> str:
    summary = _clean(summary)
    _validate_summary(summary)
    with atomic_write(path) as fh:
        json.dump(summary, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return str(path)


def _write_marginal_csvs(density, names, out_dir: Path) -> list[str]:
    """One two-column CSV (value, density) per parameter marginal.

    ``density(name)`` gives the marginal: ``fit.marginal`` or ``output.kde``.
    """
    out = []
    for name in names:
        dens = density(name)
        path = out_dir / f"marginal_{name}.csv"
        with atomic_write(path) as fh:
            fh.write("value,density\n")
            for x, p in zip(dens.x, dens.pdf):
                fh.write(f"{x:.12g},{p:.12g}\n")
        out.append(path.name)
    return out


def _model_block(config: AnalysisConfig, data: Dataset | None = None,
                 fit: FitResult | None = None) -> dict:
    block = {
        "name": config.model_name or "model",
        "fixed": list(config.fixed),
        "random": config.random,
        "link": config.link,
    }
    if data is not None:
        block["n_obs"] = int(data.n)
        block["n_groups"] = int(data.n_groups)
    if fit is not None:
        # the rule that integrated the hyperparameters, and its point count
        block["integration"] = fit.theta_grid.integration
        block["hyper_points"] = int(fit.theta_grid.size)
    return block


def _load_data(config: AnalysisConfig) -> Dataset:
    if not config.data:
        raise DomainError("no data file given; set data.path in the config or pass --data")
    return load_csv(config.data, config)


# ---------------------------------------------------------------------------
# command handlers: each returns its summary dict; ``main`` adds the
# ``command`` and ``seed`` envelope
# ---------------------------------------------------------------------------


def _cmd_fit(config: AnalysisConfig, args, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    data = _load_data(config)
    t_load = time.perf_counter()
    spec = config.model_spec()
    fit = fit_laplace(
        data, spec,
        priors=config.prior_spec(spec),
        options=config.laplace_options(),
        model_name=config.model_name or "model",
    )
    t_fit = time.perf_counter()
    marginals = _write_marginal_csvs(fit.marginal, fit.param_names, out_dir)
    return {
        "engine": "laplace",
        "model": _model_block(config, data, fit),
        "parameters": fit.summary(),
        "criteria": dict(fit.gof or {}),
        "timings": {
            "load": t_load - t0,
            "fit": t_fit - t_load,
            "total": time.perf_counter() - t0,
        },
        "files": {"marginals": marginals},
    }


def _cmd_mcmc(config: AnalysisConfig, args, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    data = _load_data(config)
    t_load = time.perf_counter()
    spec = config.model_spec()
    output = run_mcmc(data, spec, priors=config.prior_spec(spec), config=config.mcmc_config())
    t_run = time.perf_counter()
    marginals = _write_marginal_csvs(output.kde, output.names, out_dir)
    chains = [Path(p).name for p in export_chains(output, out_dir)]
    acceptance = {site: float(np.mean(rates)) for site, rates in output.acceptance.items()}
    return {
        "engine": "mcmc",
        "model": _model_block(config, data),
        "parameters": output.summary(),
        "diagnostics": {"max_rhat": output.max_rhat(), "acceptance": acceptance},
        "timings": {
            "load": t_load - t0,
            "sample": t_run - t_load,
            "total": time.perf_counter() - t0,
        },
        "files": {"marginals": marginals, "chains": chains},
    }


def _cmd_ml(config: AnalysisConfig, args, out_dir: Path) -> dict:
    check_probability(args.level, "level")  # rejected before any data is loaded or fit
    t0 = time.perf_counter()
    data = _load_data(config)
    t_load = time.perf_counter()
    spec = config.model_spec()
    fit = ml_fit(data, spec)
    t_fit = time.perf_counter()
    params: dict[str, dict[str, float]] = {}
    for name in fit.names:
        est = fit.estimate(name)
        se = fit.se_of(name)
        if args.profile:
            ci = profile_interval(fit, name, level=args.level)
            lower, upper = ci.lower, ci.upper
        else:
            lower, upper = fit.wald_interval(name, level=args.level)
        params[name] = {"estimate": est, "se": se, "lower": lower, "upper": upper}
    return {
        "engine": "ml",
        "model": _model_block(config, data),
        "parameters": params,
        "criteria": {"loglik": fit.loglik},
        "interval_method": "profile" if args.profile else "wald",
        "diagnostics": {
            "converged": fit.converged,
            "n_eval": fit.n_eval,
            "message": fit.message,
        },
        "timings": {
            "load": t_load - t0,
            "fit": t_fit - t_load,
            "total": time.perf_counter() - t0,
        },
        "files": {},
    }


def _ladder(config: AnalysisConfig) -> list[tuple[str, AnalysisConfig]]:
    """Nested model sequence: intercept only, fixed effects, random intercept
    (only when the full model also has a slope), full model."""
    steps = [("null", replace(config, fixed=(), random="none", slope_column=None))]
    if config.fixed:
        steps.append(("fixed", replace(config, random="none", slope_column=None)))
    if config.random == "intercept+slope":
        steps.append(("intercept", replace(config, random="intercept", slope_column=None)))
    if config.random != "none":
        steps.append(("full", config))
    return steps


def _cmd_compare(config: AnalysisConfig, args, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    data = _load_data(config)
    fits = []
    timings = {}
    for name, cfg in _ladder(config):
        spec = cfg.model_spec()
        t1 = time.perf_counter()
        fits.append(
            fit_laplace(data, spec, priors=cfg.prior_spec(spec),
                        options=cfg.laplace_options(), model_name=name)
        )
        timings[name] = time.perf_counter() - t1
    comparison = compare_models(fits)
    table = out_dir / "comparison.csv"
    comparison.write_csv(table)
    models = [
        {"name": fit.model_name, "criteria": dict(fit.gof or {}), "parameters": fit.summary()}
        for fit in fits
    ]
    timings["total"] = time.perf_counter() - t0
    return {
        "engine": "laplace",
        "model": _model_block(config, data),
        "models": models,
        "timings": timings,
        "files": {"table": table.name},
    }


def _cmd_sensitivity(config: AnalysisConfig, args, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    data = _load_data(config)
    spec = config.model_spec()
    report = sensitivity_scan(
        data, spec,
        priors=config.prior_spec(spec),
        param=config.scan_param,
        targets=config.targets,
        base_prior=config.scan_base_prior(),
        options=config.laplace_options(),
    )
    table = out_dir / "sensitivity.csv"
    summary_table = out_dir / "sensitivity_summary.csv"
    report.write_csv(table)
    report.write_summary_csv(summary_table)
    rows = []
    for r in report.rows:
        rows.append({
            "target": r.target,
            "shape": r.prior.shape if r.prior else None,
            "rate": r.prior.rate if r.prior else None,
            "prior_hellinger": r.prior_h,
            "posterior_hellinger": r.posterior_h,
            "sensitivity_ratio": r.ratio,
            "method": r.method,
            "extension_solves": r.extension_solves,
            "error": r.error,
        })
    return {
        "engine": "laplace",
        "model": _model_block(config, data),
        "parameters": report.default_summary,
        "rows": rows,
        "timings": {"total": time.perf_counter() - t0},
        "files": {"table": table.name, "summary_table": summary_table.name},
    }


def _cmd_elicit(config: AnalysisConfig, args, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    if args.range is None:
        raise DomainError("elicit needs --range")
    inp = ElicitationInput(range_r=args.range, df=args.df, coverage=args.coverage)
    g = elicit_gamma_prior(inp)
    print(f"shape {g.shape:.4g} rate {g.rate:.4g}")
    return {
        "result": {
            "shape": g.shape,
            "rate": g.rate,
            "range": inp.range_r,
            "df": inp.df,
            "coverage": inp.coverage,
            "implied_range": elicited_range_roundtrip(g, inp.coverage),
        },
        "timings": {"total": time.perf_counter() - t0},
        "files": {},
    }


#: ``simulate``'s flags by ``simulate_study`` keyword; they carry no default,
#: so a flag left out keeps the function's own
_STUDY_FLAGS = {
    "n_groups": {"type": int},
    "n_total": {"type": int},
    "random": {"choices": RANDOM_KINDS},
    "link": {"choices": LINKS},
    "phi": {"type": float},
    "tau1_sq": {"type": float},
    "tau2_sq": {"type": float},
    "rho_corr": {"type": float},
}


def _cmd_simulate(config: AnalysisConfig, args, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    given = {key: getattr(args, key) for key in _STUDY_FLAGS if hasattr(args, key)}
    study = simulate_study(seed=config.seed, **given)
    data_path = out_dir / "simulated.csv"
    write_rows_csv(study.rows, data_path)
    return {
        "model": {
            "fixed": list(study.spec.fixed),
            "random": study.spec.random,
            "link": study.spec.link,
            "n_obs": study.data.n,
            "n_groups": study.data.n_groups,
        },
        "truth": study.truth.as_dict(),
        "timings": {"total": time.perf_counter() - t0},
        "files": {"data": data_path.name},
    }


_HANDLERS = {
    "fit": _cmd_fit,
    "mcmc": _cmd_mcmc,
    "ml": _cmd_ml,
    "compare": _cmd_compare,
    "sensitivity": _cmd_sensitivity,
    "elicit": _cmd_elicit,
    "simulate": _cmd_simulate,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="betamix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out-dir", help="output directory (default: current)")
        p.add_argument("--data", help="input data CSV")

    for name, descr in [
        ("fit", "posterior fit with marginal densities and criteria"),
        ("mcmc", "adaptive MCMC run with diagnostics"),
        ("ml", "maximum likelihood fit with intervals"),
        ("compare", "fit the nested model ladder and tabulate criteria"),
        ("sensitivity", "prior sensitivity scan"),
        ("elicit", "gamma prior from a random-effect range statement"),
        ("simulate", "generate a synthetic study CSV"),
    ]:
        p = sub.add_parser(name, help=descr)
        common(p)
        if name == "ml":
            p.add_argument("--profile", action="store_true",
                           help="profile-likelihood intervals instead of Wald")
            p.add_argument("--level", type=float, default=INTERVAL_LEVEL)
        if name == "sensitivity":
            p.add_argument("--param", choices=list(SCANS), help="scanned parameter")
            p.add_argument("--targets", help="comma-separated Hellinger targets")
        if name == "elicit":
            p.add_argument("--range", type=float, help="plausible |effect| range R")
            p.add_argument("--df", type=float, default=1.0)
            p.add_argument("--coverage", type=float, default=ELICIT_COVERAGE)
        if name == "simulate":
            for key, kwargs in _STUDY_FLAGS.items():
                p.add_argument("--" + key.replace("_", "-"), default=argparse.SUPPRESS, **kwargs)
    return parser


def _config_from_args(args) -> AnalysisConfig:
    config = AnalysisConfig.from_file(args.config) if args.config else AnalysisConfig()
    flags = {"seed": args.seed, "out_dir": args.out_dir, "data": args.data,
             "scan_param": getattr(args, "param", None)}
    if getattr(args, "targets", None) is not None:
        try:
            flags["targets"] = tuple(float(t) for t in args.targets.split(","))
        except ValueError:
            raise DomainError(f"could not parse --targets {args.targets!r}") from None
    return replace(config, **{k: v for k, v in flags.items() if v is not None})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = {"command": args.command, "seed": config.seed,
                   **_HANDLERS[args.command](config, args, out_dir)}
        path = _write_json(summary, out_dir / f"{args.command}_summary.json")
        print(f"wrote {path}")
        return 0
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - the contract is a JSON error record
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
