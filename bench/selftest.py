"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must accept a correct output of a small study and reject the
same output with one value corrupted.  Exits with code 1 if any check lets
a corruption through or rejects a correct output.  Takes about half a
minute.
"""

from __future__ import annotations

import copy
import dataclasses
import sys

from worker import FIXED, dataset  # puts src/ on the path first

import numpy as np
from betamix import likelihood, mcmc, sensitivity
from betamix.density import MarginalDensity
from betamix.laplace import fit_laplace
from betamix.model import HyperPoint, ModelSpec

import checks
import studies

SPEC = ModelSpec(fixed=FIXED, random="intercept")


def expect(label: str, problems: list[str], bad: bool, failures: list[str]) -> None:
    ok = bool(problems) == bad
    verdict = "rejected" if problems else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(label)


def laplace_cases(failures: list[str]) -> None:
    study = studies.draw_study(3, 8, 160, "intercept")
    fit = fit_laplace(dataset(study), SPEC)
    expect("laplace fit", checks.check_laplace_fit(fit, study), False, failures)

    for key, delta in (("dic", 0.01), ("p_d", 0.01), ("mean_log_cpo", 1e-4)):
        bad = copy.copy(fit)
        bad.gof = {**fit.gof, key: fit.gof[key] + delta}
        expect(f"laplace {key} shifted by {delta}", checks.check_laplace_fit(bad, study),
               True, failures)

    bad = copy.copy(fit)
    m = fit.marginals["phi"]
    bad.marginals = dict(fit.marginals)
    heavy = MarginalDensity(m.x, m.pdf)
    object.__setattr__(heavy, "pdf", 1.01 * m.pdf)
    bad.marginals["phi"] = heavy
    expect("laplace marginal with 1 % extra mass", checks.check_laplace_fit(bad, study),
           True, failures)

    m = fit.marginals["beta_income"]
    bad.marginals = {**fit.marginals, "beta_income": MarginalDensity(m.x + 0.01 * m.sd(), m.pdf)}
    expect("laplace beta marginal shifted by 0.01 sd", checks.check_laplace_fit(bad, study),
           True, failures)


def scan_cases(failures: list[str]) -> None:
    study = studies.draw_study(3, 8, 160, "intercept")
    rep = sensitivity.sensitivity_scan(dataset(study), SPEC, param="tau", targets=(0.2,))
    expect("scan", checks.check_scan(rep, studies.TAU1_SQ), False, failures)

    row = rep.rows[0]
    other = sensitivity.calibrate_prior(rep.base_prior, 0.2 + 1e-6)
    for label, bad_row in (
        ("scan prior distance off by 1e-6", dataclasses.replace(row, prior_h=row.prior_h + 1e-6)),
        ("scan prior calibrated to 0.2 + 1e-6", dataclasses.replace(row, prior=other)),
        ("scan posterior moving as far as the prior",
         dataclasses.replace(row, posterior_h=row.prior_h)),
    ):
        bad = dataclasses.replace(rep, rows=(bad_row,))
        expect(label, checks.check_scan(bad, studies.TAU1_SQ), True, failures)

    s = rep.default_summary["tau1_sq"]
    summary = {**rep.default_summary,
               "tau1_sq": {**s, "mean": studies.TAU1_SQ + 4.01 * s["sd"]}}
    bad = dataclasses.replace(rep, default_summary=summary)
    expect("scan tau1_sq posterior 4.01 sd from the truth",
           checks.check_scan(bad, studies.TAU1_SQ), True, failures)


def mcmc_cases(failures: list[str]) -> None:
    study = studies.draw_study(3, 8, 160, "intercept")
    cfg = mcmc.McmcConfig(n_chains=2, iterations=3000, burn_in=1000, thin=2, seed=3)
    out = mcmc.run_mcmc(dataset(study), SPEC, config=cfg)
    truth = study.truth()
    expect("mcmc", checks.check_chains(out, truth), False, failures)

    j = out.index("phi")
    bad = copy.copy(out)
    bad.samples = out.samples.copy()
    bad.samples[:, :, j] += 6.01 * np.std(out.draws("phi"), ddof=1) + truth["phi"] - np.mean(
        out.draws("phi"))
    expect("mcmc phi chain mean 6.01 sd from the truth", checks.check_chains(bad, truth),
           True, failures)
    for rate in (0.04, 0.96):
        bad = copy.copy(out)
        site = next(iter(out.acceptance))
        bad.acceptance = {**out.acceptance, site: np.array([0.3, rate])}
        expect(f"mcmc acceptance rate {rate}", checks.check_chains(bad, truth), True, failures)


def ml_cases(failures: list[str]) -> None:
    study = studies.draw_study(6, 6, 120, "intercept")
    data = dataset(study)
    fit = likelihood.ml_fit(data, SPEC)
    intervals = [likelihood.profile_interval(fit, name) for name in ("phi", "tau1_sq")]
    quad = checks.QuadratureLoglik(study)
    at_mle = likelihood.marginal_loglik(fit.vector[:4], HyperPoint.from_array(fit.vector[4:]),
                                        data, SPEC)
    peak = quad.maximise(fit.vector)
    expect("ml fit", checks.check_ml_fit(fit, at_mle, quad), False, failures)
    for iv in intervals:
        expect(f"ml profile {iv.name}", checks.check_profile(fit, iv, quad, peak), False, failures)

    shifted = dataclasses.replace(fit, loglik=fit.loglik + 0.02)
    expect("ml marginal likelihood off by 0.02",
           checks.check_ml_fit(shifted, at_mle + 0.02, quad), True, failures)
    expect("ml fit.loglik off by 1e-5",
           checks.check_ml_fit(dataclasses.replace(fit, loglik=fit.loglik + 1e-5), at_mle, quad),
           True, failures)
    for iv in intervals:
        for end, scale in (("lower", 0.97), ("upper", 1.03)):
            bad = dataclasses.replace(iv, **{end: getattr(iv, end) * scale})
            expect(f"ml profile {iv.name} {end} end moved by {scale}",
                   checks.check_profile(fit, bad, quad, peak), True, failures)


def main() -> int:
    failures: list[str] = []
    for cases in (laplace_cases, scan_cases, mcmc_cases, ml_cases):
        cases(failures)
    print(f"{len(failures)} check(s) misjudged" if failures else "every check behaved")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
