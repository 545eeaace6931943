import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from ivhet import (
    CellSpec,
    DGPSpec,
    Dataset,
    DomainError,
    SeparationError,
    TrimError,
    build_cells,
    estimate_beta_late_saturated,
    fit_binary_index,
    generate,
    ipw_late,
)
from ivhet.propensity import _logit_parts, _probit_parts

from conftest import gapped_cluster_subset, label_loop_cluster_se


def _sample(seed=0, n=2000, beta=(-0.3, 0.8)):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    X = np.column_stack([np.ones(n), x])
    eta = beta[0] + beta[1] * x
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return z, X


def test_logit_matches_bfgs_oracle():
    z, X = _sample(1)
    fit = fit_binary_index(z, X, link="logit")

    def nll(b):
        e = X @ b
        return -np.sum(z * e - np.logaddexp(0, e))

    res = scipy.optimize.minimize(nll, np.zeros(2), method="BFGS",
                                  options={"gtol": 1e-10})
    assert np.abs(fit.coefficients - res.x).max() < 1e-6
    assert fit.converged
    assert abs(fit.loglik + res.fun) < 1e-8


def test_probit_matches_bfgs_oracle():
    z, X = _sample(2)
    fit = fit_binary_index(z, X, link="probit")

    def nll(b):
        e = X @ b
        return -np.sum(z * scipy.stats.norm.logcdf(e)
                       + (1 - z) * scipy.stats.norm.logcdf(-e))

    res = scipy.optimize.minimize(nll, np.zeros(2), method="BFGS",
                                  options={"gtol": 1e-10})
    assert np.abs(fit.coefficients - res.x).max() < 1e-6


def test_logit_matches_grid_oracle():
    """Coarse but implementation-independent: the fit beats every nearby
    grid point of the likelihood surface."""
    z, X = _sample(3, n=500)
    fit = fit_binary_index(z, X, link="logit")

    def ll(b):
        e = X @ b
        return float(np.sum(z * e - np.logaddexp(0, e)))

    b = fit.coefficients
    for da in np.linspace(-0.05, 0.05, 5):
        for db in np.linspace(-0.05, 0.05, 5):
            assert ll(b) >= ll(b + np.array([da, db])) - 1e-9


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_score_matches_central_differences(link):
    rng = np.random.default_rng(4)
    n = 300
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    z = rng.integers(0, 2, n).astype(float)
    parts = _logit_parts if link == "logit" else _probit_parts
    for trial in range(10):
        b = rng.normal(scale=0.8, size=2)

        def ll(bb):
            return parts(X @ bb, z)[0]

        _, u, _, _ = parts(X @ b, z)
        g = X.T @ u
        h = 1e-6
        g_fd = np.array([
            (ll(b + h * np.eye(2)[i]) - ll(b - h * np.eye(2)[i])) / (2 * h)
            for i in range(2)
        ])
        denom = max(np.abs(g_fd).max(), 1.0)
        assert np.abs(g - g_fd).max() / denom < 1e-5


def test_probit_parts_in_the_tails():
    # z = 1 makes the score phi/Phi, z = 0 makes it -phi/(1-Phi). Past
    # |eta| ~ 38.5 phi itself underflows, yet the ratio on the far side is
    # about |eta|. Subnormal ratios carry too few bits for a relative check.
    eta = np.array([-40.0, -38.0, -20.0, -8.0, 8.0, 20.0, 38.0, 40.0])
    log_phi = scipy.stats.norm.logpdf(eta)
    ref_p = np.exp(log_phi - scipy.stats.norm.logcdf(eta))
    ref_1mp = np.exp(log_phi - scipy.stats.norm.logcdf(-eta))
    for z in (np.ones_like(eta), np.zeros_like(eta)):
        ll, u, w, _ = _probit_parts(eta, z)
        assert np.isfinite(ll)
        assert np.isfinite(u).all() and np.isfinite(w).all()
    mills_p = _probit_parts(eta, np.ones_like(eta))[1]
    mills_1mp = -_probit_parts(eta, np.zeros_like(eta))[1]
    tiny = np.finfo(float).tiny
    for got, ref in ((mills_p, ref_p), (mills_1mp, ref_1mp)):
        ok = ref >= tiny
        assert ok.sum() == 6
        np.testing.assert_allclose(got[ok], ref[ok], rtol=1e-12, atol=0)


def test_probit_phat_matches_cdf():
    z, X = _sample(5, n=800)
    fit = fit_binary_index(z, X, link="probit")
    np.testing.assert_allclose(fit.phat, scipy.stats.norm.cdf(fit.index),
                               atol=1e-12)


def test_intercept_added_when_missing():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(400, 1))
    z = (rng.random(400) < 0.6).astype(float)
    fit = fit_binary_index(z, x, link="logit")
    assert fit.intercept_added
    assert fit.coefficients.shape[0] == 2
    X2 = np.column_stack([np.ones(400), x])
    fit2 = fit_binary_index(z, X2, link="logit")
    assert not fit2.intercept_added
    np.testing.assert_allclose(fit.coefficients, fit2.coefficients, atol=1e-8)


def test_separation_detected():
    n = 100
    x = np.linspace(-1, 1, n)
    z = (x > 0).astype(float)
    X = np.column_stack([np.ones(n), x])
    with pytest.raises(SeparationError):
        fit_binary_index(z, X, link="logit")


def test_linear_link_is_ols():
    z, X = _sample(7, n=500)
    fit = fit_binary_index(z, X, link="linear")
    ref = np.linalg.pinv(X) @ z
    np.testing.assert_allclose(fit.coefficients, ref, atol=1e-10)
    assert np.isnan(fit.loglik)
    # clipped into the open unit interval
    assert (fit.phat > 0).all() and (fit.phat < 1).all()


def test_rejects_nonbinary_response():
    with pytest.raises(DomainError):
        fit_binary_index(np.array([0.0, 0.5, 1.0]), np.ones((3, 1)))


def test_unknown_link():
    with pytest.raises(DomainError):
        fit_binary_index(np.array([0.0, 1.0]), np.ones((2, 1)), link="cauchy")


def _saturated_instance(seed, n=600):
    spec = DGPSpec(cells=(
        CellSpec(share=0.4, q=0.5, types=(0.5, 0.25, 0.25, 0.0),
                 y0=1.0, y1={"complier": 3.0, "always": 2.0},
                 noise0=1.0, noise1=1.0),
        CellSpec(share=0.6, q=0.65, types=(0.4, 0.3, 0.3, 0.0),
                 y0=0.5, y1={"complier": 2.5, "always": 1.0},
                 noise0=0.8, noise1=0.8),
    ), seed=seed)
    return generate(spec, n)


def test_ipw_linear_dummies_equals_saturated_late():
    ds, _ = _saturated_instance(11)
    ct = build_cells(ds, min_arm_size=1, min_cell_size=1)
    assert not ct.degenerate.any()
    dummies = (ds.x[:, 0][:, None] == np.unique(ds.x[:, 0])[None, :]).astype(float)
    pf = fit_binary_index(ds.z, dummies, link="linear")
    rep = ipw_late(ds, pf, trim=(0.0, 1.0))
    late = estimate_beta_late_saturated(ct)
    assert abs(rep.estimate - late.estimate) < 1e-10


def test_ipw_trim_reports_counts():
    ds, _ = _saturated_instance(12)
    pf = fit_binary_index(ds.z, np.ones((ds.n, 1)), link="logit")
    rep = ipw_late(ds, pf)
    assert rep.n_used + rep.n_trimmed == ds.n
    assert rep.se > 0


def test_ipw_full_trim_raises():
    ds, _ = _saturated_instance(13)
    pf = fit_binary_index(ds.z, np.ones((ds.n, 1)), link="logit")
    with pytest.raises(TrimError):
        ipw_late(ds, pf, trim=(0.999, 1.0))


def test_ipw_bad_trim_rejected():
    ds, _ = _saturated_instance(14)
    pf = fit_binary_index(ds.z, np.ones((ds.n, 1)), link="logit")
    with pytest.raises(DomainError):
        ipw_late(ds, pf, trim=(0.9, 0.1))


def test_ipw_delta_se_matches_hand_formula():
    """Single constant propensity: the influence formula reduces to the
    classic Wald delta method, which we recompute from scratch."""
    ds, _ = _saturated_instance(15, n=3000)
    pf = fit_binary_index(ds.z, np.ones((ds.n, 1)), link="logit")
    rep = ipw_late(ds, pf, trim=(0.0, 1.0))
    y, d, z = ds.y, ds.d.astype(float), ds.z.astype(float)
    phat = pf.phat
    w1, w0 = z / phat, (1 - z) / (1 - phat)
    my1, my0 = np.sum(w1 * y) / w1.sum(), np.sum(w0 * y) / w0.sum()
    md1, md0 = np.sum(w1 * d) / w1.sum(), np.sum(w0 * d) / w0.sum()
    est = (my1 - my0) / (md1 - md0)
    n = ds.n
    psi_num = w1 * (y - my1) / (w1.sum() / n) - w0 * (y - my0) / (w0.sum() / n)
    psi_den = w1 * (d - md1) / (w1.sum() / n) - w0 * (d - md0) / (w0.sum() / n)
    infl = (psi_num - est * psi_den) / (md1 - md0)
    se_ref = np.sqrt(np.sum(infl**2)) / n
    assert abs(rep.estimate - est) < 1e-12
    assert abs(rep.se - se_ref) / se_ref < 1e-12


def test_ipw_bootstrap_deterministic_and_sane():
    ds, _ = _saturated_instance(16, n=900)
    pf = fit_binary_index(ds.z, np.ones((ds.n, 1)), link="logit")
    a = ipw_late(ds, pf, se="bootstrap", reps=60, seed=5)
    b = ipw_late(ds, pf, se="bootstrap", reps=60, seed=5)
    assert a.se == b.se
    c = ipw_late(ds, pf, se="bootstrap", reps=60, seed=6)
    assert a.se != c.se
    delta = ipw_late(ds, pf, se="delta")
    assert 0.5 < a.se / delta.se < 2.0


def test_ipw_cluster_delta_se():
    ds, _ = _saturated_instance(17, n=1000)
    cl = np.arange(ds.n) // 10
    dsc = Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x, cluster=cl)
    pf = fit_binary_index(dsc.z, np.ones((dsc.n, 1)), link="logit")
    rep = ipw_late(dsc, pf)
    assert rep.se_type == "cluster"
    assert rep.se > 0


def test_ipw_cluster_delta_se_factor_pinned():
    """The delta SE with clusters scales by g/(g-1): singleton clusters
    give the plain delta SE times sqrt(n/(n-1)); one cluster raises."""
    ds, _ = _saturated_instance(18, n=800)
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    plain = ipw_late(ds, pf)
    assert plain.se_type == "delta"
    n = plain.n_used
    dsc = Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x, cluster=np.arange(ds.n))
    rep = ipw_late(dsc, pf)
    assert rep.se_type == "cluster"
    assert rep.estimate == plain.estimate
    assert abs(rep.se - plain.se * np.sqrt(n / (n - 1.0))) <= 1e-12 * plain.se
    one = Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x, cluster=np.zeros(ds.n, dtype=int))
    with pytest.raises(DomainError, match="at least 2 clusters"):
        ipw_late(one, pf)


@pytest.mark.parametrize("n_groups", [2, 7, None])
def test_ipw_cluster_delta_se_matches_label_loop(n_groups):
    """The cluster delta SE is the per-label sum of influence values times
    g/(g-1), with labels whose codes have gaps after subsetting."""
    full, _ = _saturated_instance(19, n=700)
    ds = gapped_cluster_subset(full, n_groups, np.random.default_rng(61))
    assert len(np.unique(ds.cluster)) == (ds.n if n_groups is None else n_groups)
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    rep = ipw_late(ds, pf, trim=(0.0, 1.0))
    assert rep.se_type == "cluster"
    y, d, z, phat = ds.y, ds.d.astype(float), ds.z.astype(float), pf.phat
    w1, w0 = z / phat, (1 - z) / (1 - phat)
    my1, my0 = np.sum(w1 * y) / w1.sum(), np.sum(w0 * y) / w0.sum()
    md1, md0 = np.sum(w1 * d) / w1.sum(), np.sum(w0 * d) / w0.sum()
    est = (my1 - my0) / (md1 - md0)
    n = ds.n
    psi_num = w1 * (y - my1) / (w1.sum() / n) - w0 * (y - my0) / (w0.sum() / n)
    psi_den = w1 * (d - md1) / (w1.sum() / n) - w0 * (d - md0) / (w0.sum() / n)
    infl = (psi_num - est * psi_den) / (md1 - md0)
    want = label_loop_cluster_se(infl, ds.cluster)
    assert abs(rep.se - want) <= 1e-12 * want


def test_warm_start_converges_fast():
    z, X = _sample(8)
    fit = fit_binary_index(z, X, link="logit")
    again = fit_binary_index(z, X, link="logit", start=fit.coefficients)
    assert again.iterations <= 1
    np.testing.assert_allclose(again.coefficients, fit.coefficients, atol=1e-8)
