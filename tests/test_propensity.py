import json
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
import scipy.stats

from ivhet import (
    CellSpec,
    ConfigError,
    DGPSpec,
    Dataset,
    DomainError,
    EmptyDataError,
    SeparationError,
    TrimError,
    build_cells,
    estimate_beta_late_saturated,
    fit_binary_index,
    generate,
    ipw_late,
)
from ivhet.propensity import _bootstrap_estimates, _logit_parts, _probit_parts

from conftest import gapped_cluster_subset, label_loop_cluster_se
from oracles import row_copy_ipw_bootstrap


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
