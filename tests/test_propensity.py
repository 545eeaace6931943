import json
import multiprocessing
import multiprocessing.context
import os
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats

from ivhet import (
    CellSpec,
    ConfigError,
    DGPSpec,
    Dataset,
    DomainError,
    ConvergenceError,
    EmptyDataError,
    SeparationError,
    TrimError,
    build_cells,
    estimate_beta_iv,
    estimate_beta_late_saturated,
    fit_binary_index,
    fit_cell_propensity,
    generate,
    ipw_late,
)
from ivhet import propensity
from ivhet.propensity import _bootstrap_estimates, _logit_parts, _probit_parts

from conftest import cell_ipw_design, gapped_cluster_subset, label_loop_cluster_se
from oracles import log_ndtr_probit_parts, row_copy_ipw_bootstrap


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

        _, u, _ = parts(X @ b, z)
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
        ll, u, w = _probit_parts(eta, z)
        assert np.isfinite(ll)
        assert np.isfinite(u).all() and np.isfinite(w).all()
    mills_p = _probit_parts(eta, np.ones_like(eta))[1]
    mills_1mp = -_probit_parts(eta, np.zeros_like(eta))[1]
    tiny = np.finfo(float).tiny
    for got, ref in ((mills_p, ref_p), (mills_1mp, ref_1mp)):
        ok = ref >= tiny
        assert ok.sum() == 6
        np.testing.assert_allclose(got[ok], ref[ok], rtol=1e-12, atol=0)


_TAIL_POINTS = [-1e3, -37.01, -37.0, -36.99, -0.0, 0.0, 36.99, 37.0, 37.01, 1e3]


def test_probit_parts_match_log_ndtr_on_a_grid():
    """The one-tail kernel against log_ndtr over [-40, 40], across the
    |eta| = 37 switch to the tail guard, at +-0 and at +-1e3: the loglik to
    1e-13, each row's two log-CDFs to 4 units of eps relative, and u and w
    finite, with w > 0 wherever the reference's is (w itself underflows to 0
    past |eta| ~ 38.5)."""
    eta = np.concatenate([np.linspace(-40.0, 40.0, 400_001), _TAIL_POINTS])
    alternating = (np.arange(eta.size) % 2).astype(float)
    for z in (np.ones_like(eta), np.zeros_like(eta), alternating):
        ll, u, w = _probit_parts(eta, z)
        ll_ref, _, w_ref = log_ndtr_probit_parts(eta, z)
        assert abs(ll - ll_ref) <= 1e-13 * abs(ll_ref)
        assert np.isfinite(u).all() and np.isfinite(w).all()
        assert (w >= 0.0).all() and (w[w_ref > 0.0] > 0.0).all()
    rows = np.concatenate([np.linspace(-40.0, 40.0, 4_001), _TAIL_POINTS])
    one = np.ones(1)
    log_p = np.array([_probit_parts(rows[i:i + 1], one)[0] for i in range(rows.size)])
    log_1mp = np.array([_probit_parts(rows[i:i + 1], 1.0 - one)[0]
                        for i in range(rows.size)])
    eps = np.finfo(float).eps
    for got, ref in ((log_p, scipy.special.log_ndtr(rows)),
                     (log_1mp, scipy.special.log_ndtr(-rows))):
        assert (np.abs(got - ref) <= 4.0 * eps * np.abs(ref)).all()


def _far_index_designs():
    """Probit designs, with start values, whose index passes |eta| = 37 on
    some rows: outlying covariates on the side the slope predicts; one of
    them flipped and the fit started at a slope that puts it 80 deep on the
    wrong side; and a perfectly separated response."""
    rng = np.random.default_rng(37)
    x = rng.normal(size=400)
    x[:6] = [50.0, 65.0, 80.0, -50.0, -65.0, -80.0]
    z = (0.2 + 0.8 * x + rng.normal(size=400) > 0).astype(float)
    flipped = z.copy()
    flipped[0] = 0.0
    return {"outliers": (z, x, None),
            "flipped": (flipped, x, np.array([0.0, 1.0])),
            "separated": ((x > 0).astype(float), x, None)}


@pytest.mark.parametrize("name", ["outliers", "flipped", "separated"])
def test_probit_fit_past_the_tail_guard_matches_log_ndtr_kernel(name, monkeypatch):
    """A fit through rows past |eta| = 37 ends as the fit on the log_ndtr
    kernel does: converged to the same coefficients, or the same
    SeparationError."""
    z, x, start = _far_index_designs()[name]

    def outcome():
        try:
            return fit_binary_index(z, x, link="probit", start=start)
        except SeparationError as exc:
            return exc

    seen = []

    def recording(eta, z_, m=None):
        seen.append(np.abs(eta).max())
        return _probit_parts(eta, z_, m)

    monkeypatch.setattr(propensity, "_probit_parts", recording)
    got = outcome()
    assert max(seen) > 37.0
    monkeypatch.setattr(propensity, "_probit_parts", log_ndtr_probit_parts)
    ref = outcome()
    assert type(got) is type(ref)
    if name == "separated":
        assert isinstance(got, SeparationError)
        return
    assert got.iterations == ref.iterations
    np.testing.assert_allclose(got.coefficients, ref.coefficients, rtol=1e-12)
    assert abs(got.loglik - ref.loglik) <= 1e-12 * abs(ref.loglik)


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


@pytest.mark.parametrize("link", ["logit", "probit", "linear"])
def test_design_with_no_columns_fits_the_intercept_alone(link):
    z = (np.random.default_rng(8).random(300) < 0.35).astype(float)
    fit = fit_binary_index(z, np.empty((300, 0)), link=link)
    assert fit.intercept_added
    assert fit.coefficients.shape == (1,)
    # exact for the linear link, to the Newton loop's tolerance otherwise
    np.testing.assert_allclose(fit.phat, np.full(300, z.mean()), rtol=0,
                               atol=1e-12 if link == "linear" else 1e-9)


def test_iteration_cap_raises_convergence_error(monkeypatch):
    z, X = _sample(3, n=600)
    monkeypatch.setattr(propensity, "_MAX_ITER", 1)
    for link in ("logit", "probit"):
        with pytest.raises(ConvergenceError,
                           match=f"{link} fit did not converge in 1 iterations"):
            fit_binary_index(z, X, link=link)


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


_PINS = Path(__file__).with_name("propensity_pins.json")


def _controls_dataset(clustered=True, n=50_000):
    """A sample shaped like the linear_controls benchmark input: raw-scale
    age and income controls, a logistic instrument propensity in both, and
    outcome levels shifted by 500 cluster effects."""
    rng = np.random.default_rng(20)
    age = rng.uniform(18.0, 65.0, n)
    inc = rng.lognormal(1.0, 0.4, n)
    a = (age - 41.5) / 13.6
    b = (np.log(inc) - 1.0) / 0.4
    g = rng.integers(0, 500, n)
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.2 + 0.5 * a - 0.3 * b)))).astype(int)
    u = rng.random(n)
    complier = u < np.clip(0.45 + 0.1 * a, 0.2, 0.7)
    always = u > 0.85
    d = (always | (complier & (z == 1))).astype(int)
    y = (1.0 + 0.3 * a + 0.2 * b + rng.normal(0.0, 0.3, 500)[g]
         + (1.0 + 0.5 * a) * d + rng.normal(size=n))
    return Dataset(y=y, d=d, z=z, x=np.column_stack([age, inc]),
                   cluster=g if clustered else None)


def _ill_conditioned_design(r=1e-7, n=3000):
    """Two large-valued covariates that differ by a relative r: both pass
    the rank screen, but their Gram's condition number is about 1/r^2."""
    rng = np.random.default_rng(11)
    x1 = rng.normal(size=n)
    x2 = x1 + r * rng.normal(size=n)
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.3 + x1)))).astype(float)
    return z, 1e5 * np.column_stack([x1, x2])


def _raw_quadratic_design(n=3000):
    """Age in years and its square: columns four orders of magnitude apart."""
    rng = np.random.default_rng(12)
    age = rng.uniform(18.0, 65.0, n)
    a = (age - 41.5) / 13.6
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.2 + 0.5 * a - 0.3 * a * a)))).astype(float)
    return z, np.column_stack([age, age ** 2])


def _pin_designs():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(400, 1))
    sat, _ = _saturated_instance(18, n=800)
    lc = _controls_dataset()
    return {
        "sample1": _sample(1),
        "sample2": _sample(2),
        "no_intercept": ((rng.random(400) < 0.6).astype(float), x),
        "saturated_x": (sat.z, sat.x),
        "controls": (lc.z, lc.x),
        "raw_age_squared": _raw_quadratic_design(),
        "ill_conditioned": _ill_conditioned_design(),
    }


def _pin_summary(fit, idx=None):
    n = fit.n
    if idx is None:
        idx = [0, n // 3, n // 2, n - 1,
               int(np.argmin(fit.phat)), int(np.argmax(fit.phat))]
    return {
        "coefficients": fit.coefficients.tolist(),
        "loglik": None if np.isnan(fit.loglik) else fit.loglik,
        "iterations": fit.iterations,
        "phat_sum": float(fit.phat.sum()),
        "phat_idx": idx,
        "phat_at": fit.phat[idx].tolist(),
    }


def _pin_fits():
    """(design, link, start) -> fit, for every pinned combination. The start
    moves each index by at most 0.1 per unit of the column's largest value."""
    for name, (z, X) in _pin_designs().items():
        for link in ("logit", "probit", "linear"):
            base = fit_binary_index(z, X, link=link)
            k = base.coefficients.shape[0]
            start = np.linspace(-0.1, 0.1, k) / np.abs(base._design).max(axis=0)
            yield f"{name}/{link}/none", base
            yield f"{name}/{link}/start", fit_binary_index(z, X, link=link,
                                                           start=start)


def test_fit_binary_index_pinned():
    """Full-sample fits stay where the lstsq Newton step put them before the
    bootstrap refits shared its loop: coefficients, loglik, iterations and
    phat to 1e-12 relative, on the test designs, a linear_controls-like
    design, a raw-scale quadratic and a nearly collinear pair."""
    pins = json.loads(_PINS.read_text())["fits"]
    seen = set()
    for key, fit in _pin_fits():
        seen.add(key)
        want = pins[key]
        got = _pin_summary(fit, want["phat_idx"])
        assert got["iterations"] == want["iterations"], key
        for field_ in ("coefficients", "phat_sum", "phat_at"):
            np.testing.assert_allclose(got[field_], want[field_], rtol=1e-12,
                                       atol=0, err_msg=f"{key} {field_}")
        if want["loglik"] is None:
            assert got["loglik"] is None, key
        else:
            assert abs(got["loglik"] - want["loglik"]) <= 1e-12 * abs(want["loglik"]), key
    assert seen == set(pins)


def test_ipw_delta_pinned():
    """The delta-SE IPW LATE on the linear_controls-like design, with and
    without its cluster labels, stays at its lstsq-step value to 1e-12
    relative."""
    pins = json.loads(_PINS.read_text())["ipw_delta"]
    for clustered in (False, True):
        ds = _controls_dataset(clustered)
        for link in ("logit", "probit", "linear"):
            want = pins[f"controls/{link}/{'cluster' if clustered else 'plain'}"]
            rep = ipw_late(ds, fit_binary_index(ds.z, ds.x, link=link))
            assert rep.se_type == want["se_type"]
            assert abs(rep.estimate - want["estimate"]) <= 1e-12 * abs(want["estimate"])
            assert abs(rep.se - want["se"]) <= 1e-12 * want["se"]


def test_ipw_probit_bootstrap_pinned():
    """The probit IPW LATE with 50 bootstrap refits on the linear_controls-like
    design, with and without its cluster labels: the estimate and the
    bootstrap SE to 1e-12 relative, every resample completed."""
    pins = json.loads(_PINS.read_text())["ipw_bootstrap"]
    for clustered in (False, True):
        ds = _controls_dataset(clustered)
        want = pins[f"controls/probit/{'cluster' if clustered else 'plain'}"]
        rep = ipw_late(ds, fit_binary_index(ds.z, ds.x, link="probit"),
                       se="bootstrap", reps=50, seed=3)
        assert rep.se_type == "bootstrap"
        assert rep.metadata["bootstrap"]["completed"] == want["completed"]
        assert abs(rep.estimate - want["estimate"]) <= 1e-12 * abs(want["estimate"])
        assert abs(rep.se - want["se"]) <= 1e-12 * want["se"]


def _bootstrap_design(seed, kind, clustered):
    """Small designs whose resamples fail in every way the bootstrap counts.

    "overlap": z follows a logistic index in x. "separated": z = (x > 0)
    except the four rows nearest 0, so resamples that miss those rows are
    perfectly separated. Both carry a binary covariate that is 1 on two rows
    only; a resample without either row loses rank.
    """
    rng = np.random.default_rng(seed)
    n = 120 if kind == "overlap" else 60
    x = rng.normal(size=n)
    if kind == "overlap":
        z = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.2 + 1.5 * x)))).astype(int)
    else:
        z = (x > 0).astype(int)
        near = np.argsort(np.abs(x))[:4]
        z[near] = 1 - z[near]
    rare = np.zeros(n)
    rare[rng.choice(n, 2, replace=False)] = 1.0
    d = (rng.random(n) < 0.2 + 0.6 * z).astype(int)
    y = 1.0 + 2.0 * d + x + rng.normal(size=n)
    cluster = rng.permutation(n) % (n // 3) if clustered else None
    return Dataset(y=y, d=d, z=z, x=np.column_stack([x, rare]), cluster=cluster)


def _rank_lost(ds, reps, seed):
    """Resamples that draw neither row of the rare binary covariate."""
    rare = np.flatnonzero(ds.x[:, 1])
    lost = 0
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(child)
        if ds.cluster is None:
            m = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
        else:
            _, codes = np.unique(ds.cluster, return_inverse=True)
            g = codes.max() + 1
            m = np.bincount(rng.integers(0, g, size=g), minlength=g)[codes]
        lost += int(m[rare].sum() == 0)
    return lost


# a separated fit can put phat at 1.0; an untrimmed row there must fail as a
# separated resample, not divide by zero
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("link", ["logit", "probit", "linear"])
def test_weighted_bootstrap_matches_row_copy_oracle(link, clustered):
    """The multiplicity-weighted resample loop gives the row-copy loop's
    completed and failed counts, failures by class, and per-resample
    estimates to 1e-10 relative, on designs where resamples trim rows,
    separate, trim everything and lose rank. The untrimmed window keeps the
    linear link's clipped propensities, whose clip depends on the resample
    size."""
    reps = 40
    failed_classes = set()
    lost = trimmed = 0
    for seed in range(3):
        for kind in ("overlap", "separated"):
            ds = _bootstrap_design(seed, kind, clustered)
            pf = fit_binary_index(ds.z, ds.x, link=link)
            narrow = np.sort(pf.phat)[ds.n // 2 - 1: ds.n // 2 + 1]
            windows = ((0.05, 0.95), (narrow[0] - 1e-9, narrow[1] + 1e-9),
                       (0.0, 1.0))
            for lo, hi in windows:
                got, got_by = _bootstrap_estimates(ds, pf, lo, hi, reps, seed)
                want, want_by = row_copy_ipw_bootstrap(ds, pf, lo, hi, reps, seed)
                assert got_by == want_by, (seed, kind, lo, hi)
                assert len(got) + sum(got_by.values()) == reps
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
                failed_classes |= set(got_by)
                trimmed += ((pf.phat < lo) | (pf.phat > hi)).any()
            lost += _rank_lost(ds, reps, seed)
    assert {"TrimError", "IdentificationError"} <= failed_classes
    if link != "linear":
        assert "SeparationError" in failed_classes
    assert lost > 0
    assert trimmed >= 12


def test_ipw_bootstrap_reports_failures_by_class():
    ds = _bootstrap_design(1, "separated", False)
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    rep = ipw_late(ds, pf, trim=(0.05, 0.95), se="bootstrap", reps=40, seed=1)
    boot = rep.metadata["bootstrap"]
    assert boot["failed_by"] == row_copy_ipw_bootstrap(ds, pf, 0.05, 0.95, 40, 1)[1]
    assert boot["failed_by"]["SeparationError"] > 0
    assert sum(boot["failed_by"].values()) == boot["failed"]
    assert boot["completed"] + boot["failed"] == 40


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("link", ["logit", "probit"])
def test_ipw_propensity_of_one_is_separation(link):
    """A fitted propensity of exactly 1.0 inside the trim window is reported
    as separation, before any weight divides by zero; the default window
    trims those rows and the estimate stands."""
    ds = _bootstrap_design(1, "separated", False)
    pf = fit_binary_index(ds.z, ds.x, link=link)
    assert (pf.phat == 1.0).any()
    with pytest.raises(SeparationError, match="exactly 0 or 1"):
        ipw_late(ds, pf, trim=(0.0, 1.0))
    assert np.isfinite(ipw_late(ds, pf).estimate)


@pytest.mark.parametrize("kwargs, message", [
    ({"reps": 0}, "reps must be at least 1, got 0"),
    ({"reps": 1}, "the bootstrap SE needs at least 2 resamples, got 1"),
    ({"seed": -1}, "seed must be nonnegative, got -1"),
])
def test_ipw_bootstrap_rejects_bad_reps_and_seed(kwargs, message):
    ds, _ = _saturated_instance(16, n=300)
    pf = fit_binary_index(ds.z, np.ones((ds.n, 1)), link="logit")
    with pytest.raises(ConfigError, match=message):
        ipw_late(ds, pf, se="bootstrap", **kwargs)


def _far_start_sample():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    return (x + rng.normal(size=200) > 0).astype(float), x


def _fit_from_far_start(z, x):
    with pytest.raises(ConvergenceError,
                       match=r"logit fit stalled after 1 iterations .* max score 107"):
        fit_binary_index(z, x, start=np.array([50.0, 0.0]))


def test_fit_started_far_on_one_side_stalls():
    """Started at an intercept of 50, every row's logistic p rounds to 1.0,
    so each information p(1 - p) sits at the 1e-12 floor and the Newton step
    is ~1e12 long: 30 halvings still overshoot, no trial step is uphill, and
    the score is far above 10x its gate, a ConvergenceError. From zeros the
    same fit converges."""
    z, x = _far_start_sample()
    assert fit_binary_index(z, x).converged
    _fit_from_far_start(z, x)


@pytest.mark.filterwarnings("error")
def test_logistic_underflow_raises_no_warning():
    """exp(-eta) overflows to inf below eta ~ -709, which gives the right
    p = 0 and no RuntimeWarning, also in the far-started fit whose rejected
    trial steps go there."""
    assert propensity._logistic(np.array([-800.0]))[0] == 0.0
    _fit_from_far_start(*_far_start_sample())


@pytest.mark.parametrize("link", ["logit", "probit", "linear"])
def test_fit_rejects_empty_sample(link):
    with pytest.raises(EmptyDataError, match="no rows to fit"):
        fit_binary_index(np.zeros(0), np.zeros((0, 1)), link=link)


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_numerically_singular_gram_gives_typed_error(link):
    """At r = 3e-9 the columns still pass the screen but X'WX is singular to
    working precision; the weighted-design step keeps going until the
    diverging coefficient is reported as separation."""
    z, X = _ill_conditioned_design(3e-9)
    with pytest.raises(SeparationError, match="diverging"):
        fit_binary_index(z, X, link=link)


@pytest.mark.parametrize("link", ["logit", "probit", "linear"])
@pytest.mark.parametrize("kind", ["thin", "clustered", "single", "separated"])
def test_cell_propensity_matches_dense_dummy_fit(kind, link):
    """The closed form against the IRLS (or OLS) fit on the n x J cell
    dummies. Interior cells agree to the dense fit's tolerance: the gaps
    measured on these designs are at most 1.1e-7 in the coefficients and
    2.2e-8 in phat for logit and probit, and 2.4e-15 for the linear link. A
    cell with an empty arm sits at the float boundary the dense fit heads
    for, on the same side."""
    ds = cell_ipw_design(kind)
    ct = build_cells(ds)
    a = ct.assignments
    dummies = (a[:, None] == np.arange(ct.n_cells)[None, :]).astype(float)
    dense = fit_binary_index(ds.z, dummies, link=link)
    fit = fit_cell_propensity(ct, link)
    inner = (ct.q_j > 0.0) & (ct.q_j < 1.0)
    assert inner.all() == (kind in ("clustered", "single"))
    assert (fit.link, fit.converged, fit.iterations) == (link, True, 0)
    assert not fit.intercept_added and not dense.intercept_added
    assert fit._design is None and fit.n == ds.n
    assert fit.phat_in_unit == inner.all()
    np.testing.assert_array_equal(fit.index, fit.coefficients[a])
    if link == "linear":
        np.testing.assert_array_equal(fit.coefficients, ct.q_j)
        np.testing.assert_allclose(fit.coefficients, dense.coefficients,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(fit.phat, dense.phat, rtol=0, atol=1e-14)
        assert fit.phat_in_unit == dense.phat_in_unit
        assert np.isnan(fit.loglik)
        return
    rows = inner[a]
    np.testing.assert_array_equal(fit.phat[rows], ct.q_j[a][rows])
    np.testing.assert_allclose(fit.coefficients[inner],
                               dense.coefficients[inner], rtol=0, atol=1e-6)
    np.testing.assert_allclose(fit.phat[rows], dense.phat[rows], rtol=0,
                               atol=1e-7)
    assert abs(fit.loglik - dense.loglik) <= 1e-6 * abs(dense.loglik)
    edge = fit.phat[~rows]
    assert set(edge) <= {np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0)}
    assert ((edge > 0.5) == (dense.phat[~rows] > 0.5)).all()
    # IRLS stops sooner on a cell of a few rows: 6.8e-7 on 3 rows (thin)
    assert (np.abs(dense.phat[~rows] - edge) < 1e-5).all()


def test_cell_propensity_loglik_counts_empty_arms_as_zero():
    """loglik is sum n1 log q + n0 log(1 - q) with 0 log 0 = 0, so a cell
    with an empty arm adds nothing and a single 50/50 cell gives n log 1/2."""
    ct = build_cells(cell_ipw_design("separated"))
    inner = (ct.q_j > 0.0) & (ct.q_j < 1.0)
    want = float(np.sum(ct.n1_j[inner] * np.log(ct.q_j[inner])
                        + ct.n0_j[inner] * np.log(1.0 - ct.q_j[inner])))
    for link in ("logit", "probit"):
        fit = fit_cell_propensity(ct, link)
        assert abs(fit.loglik - want) <= 1e-13 * abs(want)
        assert np.isfinite(fit.index).all() and np.isfinite(fit.coefficients).all()
    half = Dataset(y=np.arange(10.0), d=np.arange(10) % 2,
                   z=np.arange(10) // 5, x=np.zeros((10, 0)), covariate_names=())
    fit = fit_cell_propensity(build_cells(half), "probit")
    assert abs(fit.loglik - 10 * np.log(0.5)) <= 1e-15 * 10 * np.log(2.0)
    assert fit.coefficients.tolist() == [0.0]


def test_cell_propensity_unknown_link():
    with pytest.raises(DomainError, match="unknown link"):
        fit_cell_propensity(build_cells(cell_ipw_design("single")), "cauchit")


def test_ipw_bootstrap_refuses_cell_fit():
    """The bootstrap refits the propensity on each resample's rows of the
    design, which a cell fit does not keep: a typed error, not a TypeError."""
    ds = cell_ipw_design("clustered")
    pf = fit_cell_propensity(build_cells(ds), "logit")
    with pytest.raises(ConfigError, match="refit with fit_binary_index"):
        ipw_late(ds, pf, se="bootstrap", reps=5)
    assert np.isfinite(ipw_late(ds, pf).se)


def test_unorderable_cluster_labels_are_a_domain_error():
    """Labels that np.unique cannot sort, such as ints mixed with strings,
    are a typed error in the cluster SE, the IPW delta SE and the cluster
    bootstrap, not a TypeError."""
    rng = np.random.default_rng(5)
    n = 40
    x = np.repeat([0.0, 1.0], n // 2)
    z = np.tile([0, 1], n // 2)
    d = (rng.random(n) < 0.2 + 0.6 * z).astype(int)
    ds = Dataset(y=d + rng.normal(size=n), d=d, z=z, x=x, covariate_names=("g",),
                 cluster=np.array([1, "a"] * (n // 2), dtype=object))
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    for call in (lambda: estimate_beta_iv(build_cells(ds, min_arm_size=1),
                                          se_type="cluster"),
                 lambda: ipw_late(ds, pf),
                 lambda: ipw_late(ds, pf, se="bootstrap", reps=5)):
        with pytest.raises(DomainError, match="cluster labels cannot be ordered"):
            call()


# The bootstrap forks one child per block of resamples past the first. The
# tests below fix the worker count the split sees, and count the forks by
# wrapping the fork context's Process.start.

def _count_forks(monkeypatch, workers):
    monkeypatch.setattr(propensity, "_worker_count", lambda: workers)
    starts = []
    start = multiprocessing.context.ForkProcess.start

    def counted(proc):
        starts.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", counted)
    return starts


def _one_and_three_workers(monkeypatch, call):
    """call() with one worker, then with three; asserts that both give the
    same repr, that three forked two children, and that no child is left."""
    monkeypatch.setattr(propensity, "_worker_count", lambda: 1)
    one = call()
    starts = _count_forks(monkeypatch, 3)
    assert repr(call()) == repr(one)
    assert len(starts) == 2
    assert multiprocessing.active_children() == []
    return one


def _boot(ds, pf, lo, hi, reps, seed):
    ests, failed_by = _bootstrap_estimates(ds, pf, lo, hi, reps, seed)
    return ests, list(failed_by.items())   # items keep the first-failure order


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("link", ["logit", "probit", "linear"])
def test_forked_bootstrap_matches_one_process(link, clustered, monkeypatch):
    """Three blocks of 40 resamples (a split 3 does not divide) give the
    one-process estimates bit for bit, in order, with failed_by in the same
    first-failure order, across trim windows and failing resamples; and
    ipw_late's report is the same to the byte."""
    reps, seed = 40, 1
    failed_classes = set()
    for kind in ("overlap", "separated"):
        ds = _bootstrap_design(seed, kind, clustered)
        pf = fit_binary_index(ds.z, ds.x, link=link)
        narrow = np.sort(pf.phat)[ds.n // 2 - 1: ds.n // 2 + 1]
        for lo, hi in ((0.05, 0.95), (narrow[0] - 1e-9, narrow[1] + 1e-9),
                       (0.0, 1.0)):
            _, failed_by = _one_and_three_workers(
                monkeypatch, lambda: _boot(ds, pf, lo, hi, reps, seed))
            failed_classes |= {name for name, _ in failed_by}
        _one_and_three_workers(monkeypatch, lambda: ipw_late(
            ds, pf, se="bootstrap", reps=reps, seed=seed).to_dict())
    assert {"TrimError", "IdentificationError"} <= failed_classes
    if link != "linear":
        assert "SeparationError" in failed_classes


def _in_daemon(call):
    """call() inside a daemonic forked process; returns what it returned."""
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=lambda: sender.send(call()), daemon=True)
    proc.start()
    sender.close()
    assert receiver.poll(60), "the daemonic process sent nothing in 60 s"
    out = receiver.recv()
    proc.join(60)
    assert proc.exitcode == 0
    return out


@pytest.mark.parametrize("fallback", ["one_cpu", "thread", "daemon"])
def test_bootstrap_stays_in_process(fallback, monkeypatch):
    """One CPU, a second live thread and a daemonic caller each run every
    resample in the calling process, with the report of a forked run."""
    ds = _bootstrap_design(0, "overlap", True)
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    call = lambda: repr(ipw_late(ds, pf, se="bootstrap", reps=12, seed=2).to_dict())
    starts = _count_forks(monkeypatch, 3)
    forked = call()
    assert len(starts) == 2
    starts.clear()
    if fallback == "one_cpu":
        monkeypatch.setattr(propensity, "_worker_count", lambda: 1)
        got = call()
    elif fallback == "thread":
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            got = call()
        finally:
            release.set()
            waiter.join()
    else:
        def counted_call():
            starts.clear()   # the child's copy holds its own start
            return call(), len(starts)

        got, forks_inside = _in_daemon(counted_call)
        assert forks_inside == 0
        starts.clear()
    assert got == forked
    assert starts == []
    assert multiprocessing.active_children() == []


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("where, error, expected, message", [
    ("child", ZeroDivisionError("boom"), ZeroDivisionError, "boom"),
    ("parent", ZeroDivisionError("boom"), ZeroDivisionError, "boom"),
    ("child", _Unpicklable("odd"), RuntimeError, "_Unpicklable: odd"),
    ("child", SystemExit(3), RuntimeError, "exited with code 3 before sending"),
])
def test_bootstrap_error_in_a_block_reaches_the_caller(where, error, expected,
                                                       message, monkeypatch):
    """An exception the resample loop does not count, raised in the calling
    process's block or in a child's, reaches the caller with its class (or,
    when it cannot cross the pipe, its class name), and every child is gone
    afterwards."""
    ds = _bootstrap_design(0, "overlap", False)
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    parent, fit = os.getpid(), propensity._fit_screened

    def failing(*args):
        if (os.getpid() == parent) == (where == "parent"):
            if isinstance(error, SystemExit):
                os._exit(error.code)   # dies without sending anything
            raise error
        return fit(*args)

    monkeypatch.setattr(propensity, "_fit_screened", failing)
    starts = _count_forks(monkeypatch, 3)
    with pytest.raises(expected, match=message):
        ipw_late(ds, pf, se="bootstrap", reps=9, seed=0)
    assert len(starts) == 2
    assert multiprocessing.active_children() == []


def test_bootstrap_runs_blocks_here_when_a_fork_fails(monkeypatch):
    """A fork refused for lack of memory or process slots leaves the blocks
    from there on to the calling process, with the same report."""
    ds = _bootstrap_design(0, "overlap", True)
    pf = fit_binary_index(ds.z, ds.x, link="probit")
    call = lambda: repr(ipw_late(ds, pf, se="bootstrap", reps=10, seed=4).to_dict())
    monkeypatch.setattr(propensity, "_worker_count", lambda: 1)
    want = call()
    forks = []
    real_fork = os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("no process slot")
        return real_fork()

    monkeypatch.setattr(propensity, "_worker_count", lambda: 4)
    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert call() == want
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("env, workers", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
    ({"OMP_NUM_THREADS": "1"}, 4),
    ({"MKL_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OPENBLAS_NUM_THREADS": "many"}, 1),
])
def test_worker_count_shares_cpus_among_blas_threads(env, workers, monkeypatch):
    """Four CPUs make one block per BLAS thread pool the environment sets;
    with none set, BLAS takes every CPU and one block runs."""
    for var in propensity._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    assert propensity._worker_count() == workers


def test_fit_and_ipw_input_checks():
    z, X = _sample(2, n=200)
    with pytest.raises(DomainError, match="design and response have different lengths"):
        fit_binary_index(z, X[:150])
    # a (k, n) design is an error, not read as its transpose
    with pytest.raises(DomainError, match="design and response have different lengths"):
        fit_binary_index(z, X.T)
    ds = _bootstrap_design(0, "overlap", False)
    pf = fit_binary_index(ds.z, ds.x, link="logit")
    with pytest.raises(DomainError, match="propensity fit and dataset have different lengths"):
        ipw_late(ds.subset(np.arange(ds.n) > 0), pf)
    with pytest.raises(DomainError, match="se must be 'delta' or 'bootstrap'"):
        ipw_late(ds, pf, se="jackknife")


def test_bootstrap_with_fewer_than_two_completed_resamples_raises(monkeypatch):
    """Every refit failing leaves no variance to estimate: an
    IdentificationError that counts the failures, from every block."""
    from ivhet import IdentificationError
    ds = _bootstrap_design(0, "overlap", False)
    pf = fit_binary_index(ds.z, ds.x, link="logit")

    def refit_fails(*args):
        raise ConvergenceError("refit did not converge")

    monkeypatch.setattr(propensity, "_fit_screened", refit_fails)
    with pytest.raises(IdentificationError, match="bootstrap failed in 7 of 7 "
                                                  "resamples; no variance"):
        ipw_late(ds, pf, se="bootstrap", reps=7, seed=0)
    assert multiprocessing.active_children() == []
