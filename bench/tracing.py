"""Span and counter tracing of the calls between betamix modules.

The wrappers are installed from outside the package: every binding of a
traced function in the ``betamix`` modules (``laplace.fit_laplace`` and the
``fit_laplace`` that ``sensitivity`` imported from it are one function) is
replaced by a timing wrapper, and restored afterwards.  Two kinds of wrapper
exist:

* a *span* is recorded one by one (name, start, end, parent) for the calls
  that are coarse enough to list: fits, optimiser runs, mode solves,
  gradient/Hessian assemblies, likelihood evaluations;
* a *leaf* is only aggregated (calls, seconds, rows) for the hot calls that
  run hundreds of thousands of times: density evaluations, factorisations,
  objective evaluations, sampler site updates.

Both charge their duration to the enclosing span, so a span's self time
(duration minus the time of its children) is exact for every span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter

SITE_KINDS = ("beta", "b", "theta", "recenter")


class Tracer:
    """In-memory recorder of spans, leaf aggregates and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (id, parent id or -1, name id, start, end, child seconds)
        self.spans: list[tuple[int, int, int, float, float, float]] = []
        self.stack: list[list] = []  # open frames: [id, name id, start, child seconds]
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._leaf_depth = 0

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def inside(self, name: str) -> bool:
        nid = self._name_ids.get(name)
        return nid is not None and any(frame[1] == nid for frame in self.stack)

    def span(self, name: str, fn, on_return=None, on_raise=None):
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            frame = [self._next_id, nid, 0.0, 0.0]
            self._next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            self.stack.append(frame)
            frame[2] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, parent)
                if on_raise is not None:
                    on_raise(exc)
                raise
            self._close(frame, parent)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    def _close(self, frame, parent: int) -> None:
        end = clock()
        self.stack.pop()
        self.spans.append((frame[0], parent, frame[1], frame[2], end, frame[3]))
        if self.stack:
            self.stack[-1][3] += end - frame[2]

    def leaf(self, name: str, fn, rows=None, on_raise=None):
        def wrapper(*args, **kwargs):
            self._leaf_depth += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._charge(name, start)
                if on_raise is not None:
                    on_raise(exc)
                raise
            self._charge(name, start)
            if rows is not None:
                self.counts[rows] += np.size(out)
            return out

        return wrapper

    def _charge(self, name: str, start: float) -> None:
        dt = clock() - start
        self._leaf_depth -= 1
        self.leaf_calls[name] += 1
        self.leaf_s[name] += dt
        # a leaf inside a leaf (a density inside an objective) is already
        # part of the outer leaf's time
        if self.stack and self._leaf_depth == 0:
            self.stack[-1][3] += dt

    # -- queries -------------------------------------------------------------------

    def span_rows(self, name: str):
        nid = self._name_ids.get(name)
        return [s for s in self.spans if s[2] == nid] if nid is not None else []

    def total_s(self, name: str) -> float:
        return float(sum(s[4] - s[3] for s in self.span_rows(name)))

    def self_s(self, name: str) -> float:
        return float(sum(s[4] - s[3] - s[5] for s in self.span_rows(name)))

    def n_calls(self, name: str) -> int:
        return len(self.span_rows(name)) + self.leaf_calls.get(name, 0)

    def children_s(self, parent: str, names: tuple[str, ...]) -> float:
        """Time of spans named ``names`` whose direct parent is a ``parent`` span."""
        pid = self._name_ids.get(parent)
        if pid is None:
            return 0.0
        parents = {s[0] for s in self.spans if s[2] == pid}
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        return float(sum(s[4] - s[3] for s in self.spans if s[2] in ids and s[1] in parents))

    def dump(self, path) -> None:
        """Write spans (relative to the first span) and counters as JSON."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        doc = {
            "span_fields": ["id", "parent", "name", "start_s", "end_s", "child_s"],
            "names": self.names,
            "spans": [
                [i, p, n, round(a - t0, 7), round(b - t0, 7), round(c, 7)]
                for i, p, n, a, b, c in self.spans
            ],
            "leaves": {
                k: {"calls": self.leaf_calls[k], "seconds": self.leaf_s[k]}
                for k in sorted(self.leaf_calls)
            },
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    from scipy import optimize

    import betamix
    from betamix import (
        density, distributions, laplace, likelihood, mcmc, model, selection, sensitivity,
    )

    modules = [betamix, density, distributions, laplace, likelihood, mcmc, model, selection,
               sensitivity]
    saved: list[tuple[object, str, object]] = []

    def patch_function(fn, wrapped) -> None:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    saved.append((mod, attr, val))
                    setattr(mod, attr, wrapped)

    def patch_attr(owner, attr: str, wrapped) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    t = tracer
    count = t.counts

    # laplace ---------------------------------------------------------------
    def fit_done(args, kwargs, fit):
        count["laplace.grid_points"] += fit.theta_grid.size
        if t.inside("sensitivity.sensitivity_scan"):
            count["sensitivity.refits"] += 1

    def count_fit_solves(fn):
        def counted(*args, **kwargs):
            if t.inside("laplace.fit_laplace"):
                count["laplace.fit_mode_solves"] += 1
            return fn(*args, **kwargs)

        return counted

    def mode_failed(exc):
        count["laplace.mode_failures"] += 1

    patch_function(laplace.fit_laplace,
                   t.span("laplace.fit_laplace", laplace.fit_laplace, on_return=fit_done))
    patch_function(laplace.explore_theta, t.span("laplace.explore_theta", laplace.explore_theta))
    patch_function(laplace._optimize_mode,
                   t.span("laplace._optimize_mode", laplace._optimize_mode))
    patch_function(laplace.hyper_mode, t.span("laplace.hyper_mode", laplace.hyper_mode))
    patch_function(
        laplace.find_conditional_mode,
        count_fit_solves(t.span("laplace.find_conditional_mode", laplace.find_conditional_mode,
                          on_raise=mode_failed)),
    )
    for fn in (laplace.marginal_latent, laplace.marginal_hyper, density.kde_density):
        patch_function(fn, t.span(f"{fn.__module__.split('.')[-1]}.{fn.__name__}", fn))

    # scipy.optimize.minimize as bound in laplace and likelihood
    def minimize_traced(*args, **kwargs):
        method = kwargs.get("method", args[2] if len(args) > 2 else None)
        in_laplace = t.inside("laplace._optimize_mode")
        in_lik_call = t.inside("likelihood._MarginalLoglik.__call__")
        res = inner_minimize(*args, **kwargs)
        if in_laplace:
            count["laplace.optimizer_evals"] += res.nfev
            if method == "Nelder-Mead":
                count["laplace.optimizer_fallbacks"] += 1
        elif in_lik_call:
            count["likelihood.group_polishes"] += 1
        elif t.inside("likelihood.ml_fit") or t.inside("likelihood.profile_interval"):
            count["likelihood.optimizer_runs"] += 1
        return res

    inner_minimize = t.span("scipy.minimize", optimize.minimize)
    patch_function(optimize.minimize, minimize_traced)

    # model -------------------------------------------------------------------
    def chol_failed(exc):
        if isinstance(exc, np.linalg.LinAlgError):
            count["model.factorization_failures"] += 1

    patch_attr(model.ModelContext, "grad_hessian",
               t.span("model.ModelContext.grad_hessian", model.ModelContext.grad_hessian))
    patch_attr(model.BlockSymmetric, "cholesky",
               t.leaf("model.BlockSymmetric.cholesky", model.BlockSymmetric.cholesky,
                      on_raise=chol_failed))
    patch_attr(model.BlockCholesky, "inverse_pieces",
               t.span("model.BlockCholesky.inverse_pieces", model.BlockCholesky.inverse_pieces))
    conditional_objective = model.ModelContext.conditional_objective

    def objective_traced(self, theta):
        return t.leaf("model.objective", conditional_objective(self, theta))

    patch_attr(model.ModelContext, "conditional_objective", objective_traced)

    # distributions, as bound in model, likelihood and selection --------------
    patch_function(distributions.beta_logpdf_arrays,
                   t.leaf("distributions.beta_logpdf_arrays", distributions.beta_logpdf_arrays,
                          rows="distributions.logpdf_rows"))
    patch_function(distributions.beta_score_mu,
                   t.leaf("distributions.beta_score_mu", distributions.beta_score_mu,
                          rows="distributions.score_rows"))
    patch_function(distributions.beta_curv_mu,
                   t.leaf("distributions.beta_curv_mu", distributions.beta_curv_mu,
                          rows="distributions.curv_rows"))

    # selection -----------------------------------------------------------------
    def gh_done(args, kwargs, out):
        count["selection.gh_rows"] += out.shape[0]

    patch_function(selection.dic, t.span("selection.dic", selection.dic))
    patch_function(selection.cpo, t.span("selection.cpo", selection.cpo))
    patch_function(selection._rowwise_loglik,
                   t.span("selection._rowwise_loglik", selection._rowwise_loglik,
                          on_return=gh_done))

    # sensitivity ---------------------------------------------------------------
    patch_function(sensitivity.sensitivity_scan,
                   t.span("sensitivity.sensitivity_scan", sensitivity.sensitivity_scan))

    # likelihood ------------------------------------------------------------------
    def count_lik_calls(fn):
        def counted(*args, **kwargs):
            if t.inside("likelihood.profile_interval"):
                count["likelihood.profile_evals"] += 1
            elif t.inside("likelihood.ml_fit"):
                count["likelihood.fit_evals"] += 1
            return fn(*args, **kwargs)

        return counted

    patch_function(likelihood.ml_fit, t.span("likelihood.ml_fit", likelihood.ml_fit))
    patch_function(likelihood.profile_interval,
                   t.span("likelihood.profile_interval", likelihood.profile_interval))
    patch_attr(likelihood._MarginalLoglik, "__call__",
               count_lik_calls(t.span("likelihood._MarginalLoglik.__call__",
                               likelihood._MarginalLoglik.__call__)))

    # mcmc --------------------------------------------------------------------------
    def sweeps_done(args, kwargs, out):
        iterations = kwargs.get("iterations", args[2] if len(args) > 2 else 0)
        count["mcmc.sweeps"] += iterations

    patch_function(mcmc.run_mcmc, t.span("mcmc.run_mcmc", mcmc.run_mcmc))
    patch_function(mcmc.sample_metropolis,
                   t.span("mcmc.sample_metropolis", mcmc.sample_metropolis,
                          on_return=sweeps_done))
    target = mcmc._BetaModelTarget
    by_kind = {
        (verb, kind): t.leaf(f"mcmc.{verb}.{kind}", getattr(target, verb))
        for verb in ("log_ratio", "commit") for kind in SITE_KINDS
    }

    def log_ratio(self, key, delta):
        return by_kind["log_ratio", key[0]](self, key, delta)

    def commit(self, key):
        return by_kind["commit", key[0]](self, key)

    patch_attr(target, "log_ratio", log_ratio)
    patch_attr(target, "commit", commit)

    try:
        yield tracer
    finally:
        for owner, attr, val in reversed(saved):
            setattr(owner, attr, val)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better), in the order the table prints them
PER_LAYER: dict[str, tuple[str, str]] = {
    "laplace.grid_points": ("count", "lower"),
    "laplace.mode_solves": ("count", "lower"),
    "laplace.solve_yield": ("ratio", "higher"),
    "laplace.mode_failures": ("count", "lower"),
    "laplace.explore_s": ("s", "lower"),
    "laplace.optimizer_runs": ("count", "lower"),
    "laplace.optimizer_fallbacks": ("count", "lower"),
    "laplace.optimizer_evals": ("count", "lower"),
    "laplace.optimizer_s": ("s", "lower"),
    "laplace.hyper_mode_s": ("s", "lower"),
    "laplace.marginals_s": ("s", "lower"),
    "model.inverse_pieces": ("count", "lower"),
    "model.newton_iters": ("count", "lower"),
    "model.grad_hessian_s": ("s", "lower"),
    "model.factorizations": ("count", "lower"),
    "model.factorization_failures": ("count", "lower"),
    "model.cholesky_s": ("s", "lower"),
    "model.objective_evals": ("count", "lower"),
    "distributions.logpdf_rows": ("count", "lower"),
    "distributions.logpdf_s": ("s", "lower"),
    "distributions.score_rows": ("count", "lower"),
    "distributions.score_s": ("s", "lower"),
    "distributions.curv_rows": ("count", "lower"),
    "distributions.curv_s": ("s", "lower"),
    "selection.dic_s": ("s", "lower"),
    "selection.cpo_s": ("s", "lower"),
    "selection.gh_calls": ("count", "lower"),
    "selection.gh_rows": ("count", "lower"),
    "sensitivity.refits": ("count", "lower"),
    "sensitivity.self_s": ("s", "lower"),
    "likelihood.fit_evals": ("count", "lower"),
    "likelihood.profile_evals": ("count", "lower"),
    "likelihood.fit_s": ("s", "lower"),
    "likelihood.profile_s": ("s", "lower"),
    "likelihood.optimizer_runs": ("count", "lower"),
    "likelihood.group_polishes": ("count", "lower"),
    "mcmc.init_s": ("s", "lower"),
    "mcmc.sample_s": ("s", "lower"),
    "mcmc.sweeps_per_s": ("1/s", "higher"),
    **{f"mcmc.site_updates.{k}": ("count", "lower") for k in SITE_KINDS},
    **{f"mcmc.site_s.{k}": ("s", "lower") for k in SITE_KINDS},
    **{f"mcmc.accept_rate.{k}": ("ratio", "higher") for k in SITE_KINDS},
    "mcmc.ess_per_s": ("1/s", "higher"),
}


def layer_metrics(t: Tracer, rounds: int, ess: float | None = None) -> dict[str, float]:
    """Per-layer metrics per round from a trace of ``rounds`` identical rounds."""
    c = t.counts
    fit_solves = c["laplace.fit_mode_solves"]
    sample_s = t.total_s("mcmc.sample_metropolis")
    out = {
        "laplace.grid_points": c["laplace.grid_points"],
        "laplace.mode_solves": t.n_calls("laplace.find_conditional_mode"),
        "laplace.solve_yield": c["laplace.grid_points"] / fit_solves if fit_solves else 0.0,
        "laplace.mode_failures": c["laplace.mode_failures"],
        "laplace.explore_s": t.total_s("laplace.explore_theta"),
        "laplace.optimizer_runs": t.n_calls("laplace._optimize_mode"),
        "laplace.optimizer_fallbacks": c["laplace.optimizer_fallbacks"],
        "laplace.optimizer_evals": c["laplace.optimizer_evals"],
        "laplace.optimizer_s": t.total_s("laplace._optimize_mode"),
        "laplace.hyper_mode_s": t.total_s("laplace.hyper_mode"),
        "laplace.marginals_s": t.children_s(
            "laplace.fit_laplace",
            ("laplace.marginal_latent", "laplace.marginal_hyper", "density.kde_density",
             "model.BlockCholesky.inverse_pieces"),
        ),
        "model.inverse_pieces": t.n_calls("model.BlockCholesky.inverse_pieces"),
        "model.newton_iters": t.n_calls("model.ModelContext.grad_hessian"),
        "model.grad_hessian_s": t.total_s("model.ModelContext.grad_hessian"),
        "model.factorizations": t.n_calls("model.BlockSymmetric.cholesky"),
        "model.factorization_failures": c["model.factorization_failures"],
        "model.cholesky_s": t.leaf_s.get("model.BlockSymmetric.cholesky", 0.0),
        "model.objective_evals": t.n_calls("model.objective"),
        "distributions.logpdf_rows": c["distributions.logpdf_rows"],
        "distributions.logpdf_s": t.leaf_s.get("distributions.beta_logpdf_arrays", 0.0),
        "distributions.score_rows": c["distributions.score_rows"],
        "distributions.score_s": t.leaf_s.get("distributions.beta_score_mu", 0.0),
        "distributions.curv_rows": c["distributions.curv_rows"],
        "distributions.curv_s": t.leaf_s.get("distributions.beta_curv_mu", 0.0),
        "selection.dic_s": t.total_s("selection.dic"),
        "selection.cpo_s": t.total_s("selection.cpo"),
        "selection.gh_calls": t.n_calls("selection._rowwise_loglik"),
        "selection.gh_rows": c["selection.gh_rows"],
        "sensitivity.refits": c["sensitivity.refits"],
        "sensitivity.self_s": t.self_s("sensitivity.sensitivity_scan"),
        "likelihood.fit_evals": c["likelihood.fit_evals"],
        "likelihood.profile_evals": c["likelihood.profile_evals"],
        "likelihood.fit_s": t.total_s("likelihood.ml_fit"),
        "likelihood.profile_s": t.total_s("likelihood.profile_interval"),
        "likelihood.optimizer_runs": c["likelihood.optimizer_runs"],
        "likelihood.group_polishes": c["likelihood.group_polishes"],
        "mcmc.init_s": t.total_s("mcmc.run_mcmc") - sample_s,
        "mcmc.sample_s": sample_s,
    }
    for k in SITE_KINDS:
        proposals = t.leaf_calls.get(f"mcmc.log_ratio.{k}", 0)
        out[f"mcmc.site_updates.{k}"] = proposals
        out[f"mcmc.site_s.{k}"] = (t.leaf_s.get(f"mcmc.log_ratio.{k}", 0.0)
                                   + t.leaf_s.get(f"mcmc.commit.{k}", 0.0))
        commits = t.leaf_calls.get(f"mcmc.commit.{k}", 0)
        out[f"mcmc.accept_rate.{k}"] = commits / proposals if proposals else 0.0
    per_round = {k: float(v) / rounds for k, v in out.items()}
    # ratios are not divided by the number of rounds
    for k in ("laplace.solve_yield", *(f"mcmc.accept_rate.{s}" for s in SITE_KINDS)):
        per_round[k] = float(out[k])
    per_round["mcmc.sweeps_per_s"] = c["mcmc.sweeps"] / sample_s if sample_s else 0.0
    per_round["mcmc.ess_per_s"] = ess * rounds / sample_s if (ess and sample_s) else 0.0
    return {name: per_round[name] for name in PER_LAYER}


def format_table(metrics: dict[str, float]) -> str:
    lines = [f"{'per-layer metric (per round)':<34} {'value':>14}  unit"]
    for name, (unit, _) in PER_LAYER.items():
        v = metrics[name]
        text = f"{v:.4f}" if unit in ("s", "ratio", "1/s") else f"{v:.1f}"
        lines.append(f"{name:<34} {text:>14}  {unit}")
    return "\n".join(lines)
