"""One benchmark process: set up one workload, then time whole rounds of it.

Started by ``run.py``, never by hand.  With ``--setup-only`` the process
stops once its inputs are ready, so ``run.py`` can time set-up alone.  The
last line of standard output is a JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

if not (SRC / "betamix" / "__init__.py").is_file():
    sys.exit(f"benchmark: no package source at {SRC / 'betamix'}")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

import betamix  # noqa: E402
from betamix import laplace, likelihood, mcmc, sensitivity  # noqa: E402
from betamix.model import Dataset, HyperPoint, ModelSpec  # noqa: E402

import checks  # noqa: E402
import studies  # noqa: E402

if SRC not in Path(betamix.__file__).resolve().parents:
    sys.exit(f"benchmark: betamix was imported from {betamix.__file__}, not {SRC}")

FIXED = ("size", "income")


def dataset(study: studies.Study) -> Dataset:
    return Dataset(study.y, study.group, {"size": study.size, "income": study.income})


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()


class SlopeFit:
    """The paper's q = 2 model on a paper-sized study, with goodness of fit."""

    ops = ("fit_laplace",)

    def __init__(self, seed: int):
        self.study = studies.draw_study(seed, 8, 365, "intercept+slope")
        self.data = dataset(self.study)
        self.spec = ModelSpec(fixed=FIXED, random="intercept+slope", slope_column="income")

    def run(self):
        return [laplace.fit_laplace(self.data, self.spec)]

    def check(self, out):
        return [checks.check_laplace_fit(out[0], self.study)]

    def digest(self, out):
        fit = out[0]
        grid = fit.theta_grid
        return [digest(grid.theta, grid.logpost, list(fit.gof.values()),
                       *(m.pdf for m in fit.marginals.values()))]


class ScanWide:
    """A tau prior-sensitivity scan on the 200-group scale case."""

    ops = ("sensitivity_scan",)
    targets = (0.1, 0.3)

    def __init__(self, seed: int):
        self.study = studies.draw_study(seed, 200, 4000, "intercept")
        self.data = dataset(self.study)
        self.spec = ModelSpec(fixed=FIXED, random="intercept")

    def run(self):
        return [sensitivity.sensitivity_scan(self.data, self.spec, param="tau",
                                             targets=self.targets)]

    def check(self, out):
        return [checks.check_scan(out[0], studies.TAU1_SQ)]

    def digest(self, out):
        rep = out[0]
        rows = [(r.prior_h, r.posterior_h, r.ratio) for r in rep.rows]
        summaries = [v for s in [rep.default_summary, *(r.summary or {} for r in rep.rows)]
                     for d in s.values() for v in d.values()]
        return [digest(rows, summaries)]


class McmcWide:
    """The sampler on the scale case: 2 chains of a fixed sweep count."""

    ops = ("run_mcmc",)

    def __init__(self, seed: int):
        self.study = studies.draw_study(seed, 200, 4000, "intercept")
        self.data = dataset(self.study)
        self.spec = ModelSpec(fixed=FIXED, random="intercept")
        self.config = mcmc.McmcConfig(n_chains=2, iterations=500, burn_in=250, thin=1,
                                      seed=seed)

    def run(self):
        return [mcmc.run_mcmc(self.data, self.spec, config=self.config)]

    def check(self, out):
        return [checks.check_chains(out[0], self.study.truth())]

    def digest(self, out):
        return [digest(out[0].samples, *out[0].acceptance.values())]

    def ess(self, out) -> float:
        return min(out[0].ess(name) for name in (*checks.BETA_NAMES, "phi"))


class MlProfile:
    """ML fit of the paper-sized random-intercept study, then profile
    intervals for phi and tau1_sq.

    The study is drawn once from a fixed seed; ``--seed`` only shuffles its
    rows.  The ML optimiser's work jumps between about 350 and 15,000
    likelihood evaluations from one drawn study to the next, so studies
    drawn per seed would measure that jump instead of the program's speed.
    The package sorts rows into a canonical order, so every seed does the
    same arithmetic.
    """

    ops = ("ml_fit", "profile_interval:phi", "profile_interval:tau1_sq")
    study_seed = 0

    def __init__(self, seed: int):
        study = studies.draw_study(self.study_seed, 8, 365, "intercept")
        perm = np.random.default_rng(seed).permutation(study.n)
        self.study = studies.Study(y=study.y[perm], group=study.group[perm],
                                   size=study.size[perm], income=study.income[perm],
                                   random=study.random)
        self.data = dataset(self.study)
        self.spec = ModelSpec(fixed=FIXED, random="intercept")

    def run(self):
        fit = likelihood.ml_fit(self.data, self.spec)
        return [fit, *(likelihood.profile_interval(fit, name) for name in ("phi", "tau1_sq"))]

    def check(self, out):
        fit = out[0]
        quad = checks.QuadratureLoglik(self.study)
        at_mle = likelihood.marginal_loglik(fit.vector[:4], HyperPoint.from_array(fit.vector[4:]),
                                            self.data, self.spec)
        peak = quad.maximise(fit.vector)
        return [checks.check_ml_fit(fit, at_mle, quad),
                *(checks.check_profile(fit, iv, quad, peak) for iv in out[1:])]

    def digest(self, out):
        fit = out[0]
        return [digest(fit.vector, [fit.loglik], fit.se),
                *(digest([iv.lower, iv.upper]) for iv in out[1:])]


WORKLOADS = {"slope_fit": SlopeFit, "scan_wide": ScanWide, "mcmc_wide": McmcWide,
             "ml_profile": MlProfile}


def calibration() -> float:
    """Time of a fixed computation that uses no betamix code."""
    from scipy import special

    rng = np.random.default_rng(0)
    a = rng.standard_normal((150, 150))
    spd = a @ a.T + 150.0 * np.eye(150)
    xs = np.linspace(0.5, 200.0, 200_000)
    start = time.perf_counter()
    for _ in range(3):
        np.linalg.cholesky(spd)
        special.polygamma(1, xs)
    sum(i * i for i in range(100_000))
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deadline", type=float, default=0.0,
                    help="CLOCK_MONOTONIC time after which no new round starts")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--trace-file", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    round_s: list[float] = []
    spent: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    first_verdict: list[bool] = []
    first_digest: list[str] = []
    first_out = None
    peak_rss_mb = 0.0
    while True:
        begin = time.monotonic()
        start = time.perf_counter()
        try:
            with tracing.installed(tracer) if tracer else contextlib.nullcontext():
                out = wl.run()
        except Exception as exc:  # noqa: BLE001 - a failed round is counted, not fatal
            out = None
            problems.append(f"round {len(round_s) + 1}: {type(exc).__name__}: {exc}")
        round_s.append(time.perf_counter() - start)
        if out is None:
            passed = [False] * len(wl.ops)
        elif first_out is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            found = wl.check(out)
            first_verdict = [not p for p in found]
            problems += [f"{op}: {p}" for op, ps in zip(wl.ops, found) for p in ps]
            first_digest = wl.digest(out)
            first_out = out
            passed = first_verdict
        else:
            same = [a == b for a, b in zip(wl.digest(out), first_digest)]
            problems += [f"{op}: output differs from the first round"
                         for op, ok in zip(wl.ops, same) if not ok]
            passed = [v and s for v, s in zip(first_verdict, same)]
        attempted += len(wl.ops)
        failed += passed.count(False)
        spent.append(time.monotonic() - begin)
        if time.monotonic() + statistics.median(spent[1:] or spent) > args.deadline:
            break

    record = {
        "ready_at": ready_at,
        "round_s": round_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
        "calibration_s": calibration(),
        "layers": None,
    }
    if tracer is not None:
        ess = wl.ess(first_out) if first_out is not None and hasattr(wl, "ess") else None
        layers = tracing.layer_metrics(tracer, len(round_s), ess)
        print(tracing.format_table(layers))
        record["layers"] = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                            for k, v in layers.items()}
        if args.trace_file:
            Path(args.trace_file).parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.trace_file)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
