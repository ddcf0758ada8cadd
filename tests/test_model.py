"""Model core: links, design expansion, joint posterior derivatives."""

import logging
import multiprocessing
import os
import threading
import warnings

import numpy as np
import pytest
from scipy import stats

from betamix import model
from betamix.distributions import DomainError
from betamix.model import (
    LINKS,
    Dataset,
    HyperPoint,
    ModelContext,
    ModelSpec,
    build_design,
    fork_map,
    log_jacobians,
    maximize,
    newton_ascent,
)
from betamix.likelihood import ml_fit
from betamix.priors import default_priors
from betamix.simulate import simulate_study


# -- links -------------------------------------------------------------------


@pytest.mark.parametrize("name", ["logit", "probit", "cloglog"])
def test_link_roundtrip_and_derivatives(name, rng):
    link = LINKS[name]
    mu = rng.uniform(0.02, 0.98, size=50)
    eta = link.fwd(mu)
    np.testing.assert_allclose(link.inv(eta), mu, rtol=1e-10, atol=1e-12)
    h = 1e-6
    fd1 = (link.inv(eta + h) - link.inv(eta - h)) / (2 * h)
    np.testing.assert_allclose(link.dmu_deta(eta, link.inv(eta)), fd1, rtol=5e-5, atol=1e-8)
    h2 = 1e-4
    fd2 = (link.inv(eta + h2) - 2 * link.inv(eta) + link.inv(eta - h2)) / (h2 * h2)
    np.testing.assert_allclose(link.d2mu_deta2(eta, link.inv(eta)), fd2, rtol=5e-4, atol=1e-6)


def test_probit_matches_normal_cdf():
    eta = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(LINKS["probit"].inv(eta), stats.norm.cdf(eta), rtol=1e-12)


# -- dataset validation ------------------------------------------------------


def test_dataset_rejects_boundary_response():
    with pytest.raises(DomainError, match=r"rows \[2\]"):
        Dataset([0.5, 1.0, 0.25], ["a", "a", "b"])
    with pytest.raises(DomainError, match=r"rows \[1, 3\]"):
        Dataset([0.0, 0.5, -0.1], ["a", "a", "b"])


def test_dataset_rejects_missing_values():
    with pytest.raises(DomainError, match="rows"):
        Dataset([0.5, np.nan, 0.25], ["a", "a", "b"])
    with pytest.raises(DomainError, match="income"):
        Dataset([0.5, 0.5], ["a", "b"], {"income": [1.0, np.inf]})
    with pytest.raises(DomainError, match="length"):
        Dataset([0.5, 0.5], ["a"])


# -- design expansion --------------------------------------------------------


def test_categorical_expansion_against_baseline():
    data = Dataset(
        [0.2, 0.3, 0.4, 0.5, 0.6, 0.7],
        ["g1", "g1", "g2", "g2", "g3", "g3"],
        {
            "size": ["Large", "Medium", "Small", "Large", "Medium", "Small"],
            "income": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        },
    )
    spec = ModelSpec(fixed=("size", "income"), random="intercept")
    info = build_design(data, spec)
    assert info.labels == ("intercept", "beta_size_Medium", "beta_size_Small", "beta_income") or all(
        lab in " ".join(info.labels) for lab in ("size_Medium", "size_Small", "income")
    )
    x = info.X
    assert x.shape == (6, 4)
    np.testing.assert_allclose(x[:, 0], 1.0)
    # rows are in canonical order; identify dummies via the original values
    size = data.columns["size"]
    med = [i for i, v in enumerate(size) if v == "Medium"]
    np.testing.assert_allclose(x[med, 1], 1.0)
    large = [i for i, v in enumerate(size) if v == "Large"]
    np.testing.assert_allclose(x[large, 1:3], 0.0)


def test_explicit_baseline_changes_contrasts():
    data = Dataset(
        [0.2, 0.3, 0.4, 0.5],
        ["g1", "g1", "g2", "g2"],
        {"size": ["Large", "Medium", "Small", "Medium"]},
    )
    spec = ModelSpec(fixed=("size",), random="none", baselines={"size": "Small"})
    info = build_design(data, spec)
    joined = " ".join(info.labels)
    assert "Small" not in joined
    assert "Large" in joined and "Medium" in joined


def test_constant_and_duplicate_columns_dropped():
    data = Dataset(
        [0.2, 0.3, 0.4, 0.5],
        ["g1", "g1", "g2", "g2"],
        {"flat": [2.0, 2.0, 2.0, 2.0], "income": [0.1, 0.2, 0.3, 0.4], "copy": [0.1, 0.2, 0.3, 0.4]},
    )
    spec = ModelSpec(fixed=("flat", "income", "copy"), random="none")
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        info = build_design(data, spec)
    assert len(info.dropped) == 2
    assert info.X.shape[1] == 2  # intercept + income
    assert len(rec) >= 1


def test_unknown_column_raises():
    data = Dataset([0.2, 0.3], ["a", "b"], {"income": [0.0, 1.0]})
    spec = ModelSpec(fixed=("wealth",), random="none")
    with pytest.raises(DomainError, match="wealth"):
        build_design(data, spec)


# -- hyperparameter coordinates ----------------------------------------------


def test_hyperpoint_natural_roundtrip():
    hp0 = HyperPoint.from_natural(93.0)
    assert hp0.q == 0 and hp0.natural() == {"phi": pytest.approx(93.0)}
    hp1 = HyperPoint.from_natural(93.0, 64.0)
    nat = hp1.natural()
    assert nat["tau1_sq"] == pytest.approx(64.0)
    hp2 = HyperPoint.from_natural(93.0, 64.0, 533.0, 0.75)
    nat2 = hp2.natural()
    assert nat2["tau2_sq"] == pytest.approx(533.0)
    assert nat2["rho_corr"] == pytest.approx(0.75)
    back = HyperPoint.from_array(hp2.as_array())
    assert back == hp2


def test_hyperpoint_precision_matrix_inverts_the_covariance():
    """(tau1_sq, tau2_sq, rho_corr) describe the inverse of the b covariance."""
    t1, t2, c = 64.0, 533.0, 0.75
    hp = HyperPoint.from_natural(93.0, t1, t2, c)
    q_mat = hp.precision_matrix()
    cov = np.array(
        [
            [1.0 / t1, c / np.sqrt(t1 * t2)],
            [c / np.sqrt(t1 * t2), 1.0 / t2],
        ]
    )
    np.testing.assert_allclose(q_mat @ cov, np.eye(2), atol=1e-12)
    # positive definite even at extreme correlation coordinates
    hp_ext = HyperPoint(0.0, (0.0, 0.0, 8.0))
    assert np.all(np.linalg.eigvalsh(hp_ext.precision_matrix()) > 0.0)


@pytest.mark.parametrize(
    "hp",
    [
        HyperPoint.from_natural(93.0),
        HyperPoint.from_natural(93.0, 64.0),
        HyperPoint.from_natural(20.0, 5.0, 80.0, -0.4),
    ],
)
def test_hyperpoint_log_jacobian_matches_finite_differences(hp):
    """|d(natural)/d(unconstrained)| where natural = (phi, Q entries)."""

    def natural_vec(arr):
        h = HyperPoint.from_array(arr)
        out = [h.phi]
        q_mat = h.precision_matrix()
        if q_mat is not None:
            if h.q == 1:
                out.append(q_mat[0, 0])
            else:
                out.extend([q_mat[0, 0], q_mat[0, 1], q_mat[1, 1]])
        return np.array(out)

    arr = hp.as_array()
    eps = 1e-6
    jac = np.empty((arr.size, arr.size))
    for j in range(arr.size):
        up, dn = arr.copy(), arr.copy()
        up[j] += eps
        dn[j] -= eps
        jac[:, j] = (natural_vec(up) - natural_vec(dn)) / (2 * eps)
    fd_logdet = np.log(abs(np.linalg.det(jac)))
    assert log_jacobians(hp.as_array()) == pytest.approx(fd_logdet, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("raneff", [(), (2.3,), (0.3, -1.2, 0.7), (4.0, 6.0, -2.0),
                                    (0.3, -1.2, 15.0), (4.0, 6.0, -15.0)])
def test_precision_logdet_is_closed_form(raneff):
    """log det Q = u1 (q = 1) and u1 + u2 + 2 log cosh z (q = 2).  Against
    slogdet the tolerance is 1e-15 / (1 - tanh(z)^2): forming Q's
    determinant cancels that many digits, 2.7e-3 at |z| = 15, so there the
    closed form is held to the cosh identity instead."""
    hp = HyperPoint(1.0, raneff)
    got = hp.precision_logdet()
    if hp.q == 0:
        assert got == 0.0 and hp.precision_matrix() is None
        return
    z = raneff[2] if hp.q == 2 else 0.0
    sign, ref = np.linalg.slogdet(hp.precision_matrix())
    assert sign == 1.0
    assert got == pytest.approx(ref, abs=1e-15 / (1.0 - np.tanh(z) ** 2))
    exact = sum(raneff[:2]) + (2.0 * np.log(np.cosh(z)) if hp.q == 2 else 0.0)
    assert got == pytest.approx(exact, rel=1e-14)


def test_hyperpoint_validation():
    with pytest.raises(DomainError):
        HyperPoint.from_natural(-1.0)
    with pytest.raises(DomainError):
        HyperPoint.from_natural(1.0, -2.0)
    with pytest.raises(DomainError):
        HyperPoint.from_natural(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        HyperPoint(0.0, (1.0, 2.0))


# -- joint posterior ---------------------------------------------------------


def _toy(seed=5, q=1):
    random = {0: "none", 1: "intercept", 2: "intercept+slope"}[q]
    s = simulate_study(seed=seed, n_groups=5, n_total=40, random=random)
    return s.data, s.spec, default_priors(s.spec)


@pytest.mark.parametrize("q", [0, 1, 2])
def test_joint_gradient_hessian_match_finite_differences(q, rng):
    data, spec, priors = _toy(q=q)
    ctx = ModelContext(data, spec, priors)
    dim = len(ctx.latent_names)
    theta = {
        0: HyperPoint.from_natural(80.0),
        1: HyperPoint.from_natural(80.0, 40.0),
        2: HyperPoint.from_natural(80.0, 40.0, 300.0, 0.3),
    }[q]
    thetas = theta.as_array()[None]
    for _ in range(4):
        x = rng.normal(scale=0.3, size=dim)
        (g,), h_block = ctx.grad_hessian(x[None], thetas)
        (dense,) = h_block.to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-10)
        eps = 1e-6
        fd_g = np.empty(dim)
        fd_h = np.empty((dim, dim))
        for j in range(dim):
            up, dn = x.copy(), x.copy()
            up[j] += eps
            dn[j] -= eps
            fd_g[j] = (
                ctx.joint_log_posterior(up, theta)
                - ctx.joint_log_posterior(dn, theta)
            ) / (2 * eps)
            (gu,), _ = ctx.grad_hessian(up[None], thetas)
            (gd,), _ = ctx.grad_hessian(dn[None], thetas)
            fd_h[:, j] = (gu - gd) / (2 * eps)
        np.testing.assert_allclose(g, fd_g, rtol=2e-5, atol=2e-5)
        np.testing.assert_allclose(dense, 0.5 * (fd_h + fd_h.T), rtol=5e-4, atol=5e-4)


def test_joint_log_posterior_invariant_to_row_order(rng):
    n = 30
    y = rng.uniform(0.1, 0.9, size=n)
    group = rng.choice(["u1", "u2", "u3", "u4"], size=n)
    income = rng.normal(size=n)
    spec = ModelSpec(fixed=("income",), random="intercept")
    priors = default_priors(spec)
    data = Dataset(y, group, {"income": income})
    perm = rng.permutation(n)
    shuffled = Dataset(y[perm], group[perm], {"income": income[perm]})
    ctx = ModelContext(data, spec, priors)
    theta = HyperPoint.from_natural(90.0, 30.0)
    x = rng.normal(scale=0.2, size=len(ctx.latent_names))
    a = ctx.joint_log_posterior(x, theta)
    b = ModelContext(shuffled, spec, priors).joint_log_posterior(x, theta)
    assert a == b


def test_block_hessian_cholesky_matches_dense(rng):
    data, spec, priors = _toy(q=1)
    ctx = ModelContext(data, spec, priors)
    theta = HyperPoint.from_natural(60.0, 20.0)
    x = rng.normal(scale=0.2, size=len(ctx.latent_names))
    _, h_block = ctx.grad_hessian(x[None], theta.as_array()[None])
    (dense,) = h_block.to_dense()
    # negative Hessian of a log-concave target is positive definite
    chol = (-h_block).cholesky()
    assert chol.ok.tolist() == [True]
    logdet_dense = np.linalg.slogdet(-dense)[1]
    assert chol.logdet()[0] == pytest.approx(logdet_dense, rel=1e-10)


_THETAS = {
    0: [HyperPoint.from_natural(p) for p in (30.0, 80.0, 300.0)],
    1: [HyperPoint.from_natural(p, t) for p, t in ((30.0, 5.0), (80.0, 40.0), (300.0, 400.0))],
    2: [HyperPoint.from_natural(p, t1, t2, c) for p, t1, t2, c in
        ((30.0, 5.0, 50.0, -0.6), (80.0, 40.0, 300.0, 0.3), (300.0, 400.0, 20.0, 0.9))],
}


@pytest.mark.parametrize("q", [0, 1, 2])
def test_batched_block_cholesky_matches_dense(q, rng):
    """Three different negative Hessians in one stack: log determinants,
    solves and the inverse's pieces each match dense numpy."""
    ctx = ModelContext(*_toy(q=q))
    thetas = np.array([hp.as_array() for hp in _THETAS[q]])
    x = rng.normal(scale=0.2, size=(3, ctx.n_latent))
    _, h_block = ctx.grad_hessian(x, thetas)
    neg = -h_block
    dense = neg.to_dense()
    chol = neg.cholesky()
    assert chol.ok.tolist() == [True] * 3
    np.testing.assert_allclose(chol.logdet(), np.linalg.slogdet(dense)[1], rtol=1e-12)
    rhs = rng.normal(size=(3, ctx.n_latent))
    np.testing.assert_allclose(chol.solve(rhs), np.linalg.solve(dense, rhs[..., None])[..., 0],
                               rtol=1e-9, atol=1e-12)
    v_bb, c_bx, v_xx = chol.inverse_pieces()
    inv = np.linalg.inv(dense)
    nb = ctx.n_groups * q
    np.testing.assert_allclose(v_xx, inv[:, nb:, nb:], rtol=1e-9, atol=1e-12)
    for i in range(neg.n_blocks):
        rows = slice(i * q, (i + 1) * q)
        np.testing.assert_allclose(v_bb[:, i], inv[:, rows, rows], rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(c_bx[:, i], inv[:, rows, nb:], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("q", [1, 2])
def test_batched_cholesky_masks_only_the_indefinite_matrix(q, rng):
    ctx = ModelContext(*_toy(q=q))
    thetas = np.array([hp.as_array() for hp in _THETAS[q]])
    x = rng.normal(scale=0.2, size=(3, ctx.n_latent))
    _, h_block = ctx.grad_hessian(x, thetas)
    neg = -h_block
    neg.bb[1, 0] *= -1.0  # one block of the second matrix turns indefinite
    chol = neg.cholesky()
    assert chol.ok.tolist() == [True, False, True]
    alone = model.BlockSymmetric(neg.bb[2:], neg.bx[2:], neg.xx[2:]).cholesky()
    assert chol.logdet()[2] == alone.logdet()[0]
    assert np.all(np.isfinite(chol.solve(rng.normal(size=(3, ctx.n_latent)))))


def test_flat_intercept_prior_translation_invariance():
    """With a flat intercept prior, shifting intercept and counter-shifting
    the latent effects leaves only the likelihood + raneff terms; verify the
    beta prior contributes nothing for the intercept direction."""
    data, spec, priors = _toy(q=1)
    ctx = ModelContext(data, spec, priors)
    theta = HyperPoint.from_natural(80.0, 40.0)
    dim = len(ctx.latent_names)
    x = np.zeros(dim)
    base = ctx.joint_log_posterior(x, theta)
    x2 = x.copy()
    i_int = ctx.latent_names.index("beta_intercept")
    x2[i_int] += 123.0
    moved = ctx.joint_log_posterior(x2, theta)
    # likelihood changes, but the prior share of the change is zero; compare
    # against a spec with a proper intercept prior to see the difference
    from dataclasses import replace

    priors_prop = replace(priors, intercept_precision=1.0)
    ctx_prop = ModelContext(data, spec, priors_prop)
    base_p = ctx_prop.joint_log_posterior(x, theta)
    moved_p = ctx_prop.joint_log_posterior(x2, theta)
    flat_diff = moved - base
    prop_diff = moved_p - base_p
    assert prop_diff == pytest.approx(flat_diff - 0.5 * 123.0**2, rel=1e-9)


# -- the outer search ----------------------------------------------------------

# a 3-d quadratic (curvature eigenvalues 8.9 to 45) with deterministic
# wiggles of amplitude 1e-8, the smoothness floor of the Laplace and
# likelihood objectives; a forward-difference BFGS ends in precision loss here
_A = np.array([[40.0, 10.0, 5.0], [10.0, 20.0, 3.0], [5.0, 3.0, 10.0]])
_ARGMAX = np.array([0.7, -1.3, 2.1])


def _noisy_quadratic(x, amplitude=1e-8):
    d = x - _ARGMAX
    return -0.5 * d @ _A @ d + amplitude * np.sin(1e9 * x).sum() / 3.0


def _each(fn):
    """A batch evaluator that calls ``fn`` one point at a time."""
    return lambda points: np.array([fn(x) for x in points])


def _recording(fn, calls):
    """``_each(fn)``, keeping a copy of every stack it is called on."""
    each = _each(fn)

    def many(points):
        calls.append(np.array(points))
        return each(points)

    return many


def test_maximize_converges_through_difference_noise():
    best = maximize(_each(_noisy_quadratic), np.zeros(3))
    assert best.converged, best.message
    np.testing.assert_allclose(best.x, _ARGMAX, atol=1e-4)
    assert best.value == pytest.approx(_noisy_quadratic(best.x), abs=0.0)


def test_maximize_reports_an_exhausted_iteration_budget(monkeypatch):
    monkeypatch.setattr(model, "MAXIMIZE_ITER", 2)
    best = maximize(_each(_noisy_quadratic), np.zeros(3))
    assert not best.converged
    assert "iterations" in best.message


@pytest.mark.parametrize("amplitude,converged,ending", [
    pytest.param(1e-6, True, "promise a gain", id="1e-06-True"),
    pytest.param(3e-5, True, "precision loss", id="3e-05-True"),
    pytest.param(3e-4, False, "precision loss", id="0.0003-False"),
    pytest.param(1e-3, False, "precision loss", id="0.001-False"),
])
def test_maximize_stall_counts_only_where_little_is_left(amplitude, converged, ending):
    """Noise of 1e-6 does not stop the search: the 1e-3 steps see through
    it.  Noise of 3e-5 stops the line search next to the argmax, where the
    gradient test fails on noise alone; noise of 3e-4 and more wrecks the
    difference gradient, and the stall there must not read as converged."""
    best = maximize(_each(lambda x: _noisy_quadratic(x, amplitude)), np.zeros(3))
    assert ending in best.message
    assert best.converged is converged
    if converged:
        np.testing.assert_allclose(best.x, _ARGMAX, atol=1e-3)


def test_maximize_calls_its_evaluator_once_per_stencil(monkeypatch):
    """Each BFGS evaluation is one call on the 2m + 1 rows [x, x + h e_i,
    x - h e_i] with h_i = 1e-3 max(1, |x_i|): 1e-3 at x_i = 0 and at 0.05,
    where a step relative to |x_i| alone would be 0 and 5e-5."""
    runs = []

    def recording_minimize(*args, **kwargs):
        runs.append(inner(*args, **kwargs))
        return runs[-1]

    inner = model.minimize
    monkeypatch.setattr(model, "minimize", recording_minimize)
    calls = []
    x0 = np.array([0.0, 0.05, -3.0])
    maximize(_recording(_noisy_quadratic, calls), x0)
    assert len(calls) == runs[0].nfev > 1
    np.testing.assert_array_equal(calls[0][0], x0)
    np.testing.assert_allclose(calls[0][1:4] - x0, np.diag([1e-3, 1e-3, 3e-3]), rtol=1e-9,
                               atol=1e-15)
    for rows in calls:
        assert rows.shape == (7, 3)
        h = 1e-3 * np.maximum(1.0, np.abs(rows[0]))
        np.testing.assert_allclose(rows[1:4] - rows[0], np.diag(h), rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(rows[4:] - rows[0], -np.diag(h), rtol=1e-9, atol=1e-15)


def test_fd_curvature_makes_two_stencil_calls_and_recovers_a_quadratic():
    """Central differences are exact on a quadratic, so both passes recover
    its negative Hessian up to rounding; each pass is one call of 1 + 2m^2
    rows with the centre first."""
    calls = []
    curv, cov = model.fd_curvature(_recording(lambda x: _noisy_quadratic(x, 0.0), calls),
                                   _ARGMAX)
    assert [rows.shape for rows in calls] == [(19, 3), (19, 3)]
    for rows in calls:
        np.testing.assert_array_equal(rows[0], _ARGMAX)
    np.testing.assert_allclose(curv, _A, rtol=1e-6)
    np.testing.assert_allclose(cov, np.linalg.inv(_A), rtol=1e-6)


def test_fd_curvature_covariance_is_symmetric_and_seeds_maximize():
    """SciPy's BFGS takes ``hess_inv0`` only when it is exactly symmetric;
    a plain matrix inverse missed that on 20 of 20 of these quadratics."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        root = rng.normal(size=(4, 4))
        a, top = root @ root.T + 4.0 * np.eye(4), rng.normal(size=4)
        many = _each(lambda x: -0.5 * (x - top) @ a @ (x - top))
        _, cov = model.fd_curvature(many, top)
        np.testing.assert_array_equal(cov, cov.T)
        best = maximize(many, np.zeros(4), inv_curv=cov)
        assert best.converged, best.message
        np.testing.assert_allclose(best.x, top, atol=1e-4)


def test_ml_fit_does_not_stop_short():
    """A gradient test passed at a loose tolerance once declared this fit
    converged 0.0024 below its maximum."""
    study = simulate_study(seed=1)
    fit = ml_fit(study.data, study.spec)
    assert fit.converged, fit.message
    assert fit.loglik >= 562.7415


# -- the conditional-mode search -----------------------------------------------


def test_newton_ascent_runs_blocks_independently():
    """Three separable 1-d blocks: -(x^2 - 1)^2 from 0.1, where the negative
    Hessian is not positive definite; -(x - 2)^2 from its maximum; and a
    block whose value never rises although its gradient says it should."""
    calls = []

    def values(x):
        a, b = x[0, 0], x[1, 0]
        return np.array([-(a * a - 1.0) ** 2, -(b - 2.0) ** 2, 0.0])

    def newton(x):
        calls.append(x.copy())
        a, b = x[0, 0], x[1, 0]
        grad = np.array([[-4.0 * a * (a * a - 1.0)], [-2.0 * (b - 2.0)], [1.0]])
        neg_hess = np.array([12.0 * a * a - 4.0, 2.0, 1.0])
        spd = neg_hess > 0.0
        return grad, grad / np.where(spd, neg_hess, 1.0)[:, None], spd

    asc = newton_ascent(values, newton, np.array([[0.1], [2.0], [0.0]]))
    assert asc.x[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert asc.x[1, 0] == 2.0
    assert asc.x[2, 0] == 0.0
    assert asc.done.tolist() == [True, True, False]
    assert asc.found.tolist() == [True, True, False]
    # the third block stalls in the first line search; the first needs
    # steepest-ascent steps before Newton takes over, and carries on
    assert len(calls) > 4
    np.testing.assert_array_equal(calls[-1], asc.x)
    np.testing.assert_allclose(asc.value, values(asc.x))


# -- fork_map ------------------------------------------------------------------


def _logged_square(i: int) -> int:
    logging.getLogger("betamix").warning("task %d", i)
    return i * i


@pytest.mark.parametrize("cpus", [1, 2])
def test_fork_map_returns_values_in_task_order(cpus, monkeypatch):
    monkeypatch.setattr(model, "_cpus", lambda: cpus)
    assert fork_map(_logged_square, 5) == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


def test_fork_map_runs_tasks_in_workers_and_nested_calls_in_process(monkeypatch):
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    pids = fork_map(lambda i: (os.getpid(), fork_map(lambda j: os.getpid(), 2)), 2)
    for pid, inner in pids:
        assert pid != os.getpid()
        assert inner == [pid, pid]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_fork_map_writes_each_record_once_in_task_order(cpus, monkeypatch, caplog):
    monkeypatch.setattr(model, "_cpus", lambda: cpus)
    caplog.set_level(logging.WARNING, logger="betamix")
    fork_map(_logged_square, 5)
    assert [r.getMessage() for r in caplog.records] == [f"task {i}" for i in range(5)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_fork_map_raises_a_task_failure_and_leaves_no_worker(cpus, monkeypatch, caplog):
    monkeypatch.setattr(model, "_cpus", lambda: cpus)
    caplog.set_level(logging.WARNING, logger="betamix")

    def task(i):
        _logged_square(i)
        if i == 2:
            raise DomainError(f"task {i} failed")
        return i

    with pytest.raises(DomainError, match=r"^task 2 failed$"):
        fork_map(task, 4)
    assert multiprocessing.active_children() == []
    # the records of the failed task and of those before it, as a serial run
    assert [r.getMessage() for r in caplog.records] == ["task 0", "task 1", "task 2"]


def test_fork_map_runs_in_process_beside_another_thread(monkeypatch):
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    other.start()
    try:
        assert fork_map(lambda i: os.getpid(), 2) == [os.getpid()] * 2
    finally:
        release.set()
        other.join(10.0)
    assert not other.is_alive()
