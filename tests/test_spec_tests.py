import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from ivhet import DomainError, reset_binary_index, reset_linear

from conftest import child_env, fail_augmented_reset_fit
from oracles import dense_ols, dense_ols_vcov


def _linear_sample(seed, n=600, quadratic=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    X = np.column_stack([np.ones(n), x])
    y = 0.5 + 1.2 * x + quadratic * x**2 + rng.normal(size=n)
    return y, X, x


def _index_sample(seed, n=800, quadratic=0.0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, n)
    X = np.column_stack([np.ones(n), x])
    eta = -0.3 + 0.8 * x + quadratic * x**2
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return z, X


def test_powers_validated():
    y, X, _ = _linear_sample(0)
    with pytest.raises(DomainError):
        reset_linear(y, X, powers=(5,))
    with pytest.raises(DomainError):
        reset_linear(y, X, powers=())
    with pytest.raises(DomainError):
        reset_binary_index((y > y.mean()).astype(float), X, powers=(1,))


def test_linear_wald_matches_raw_power_oracle():
    """Orthogonalizing the added block must not change the statistic: we
    recompute the Wald F from the raw (non-orthogonalized) powers with
    dense algebra and compare."""
    y, X, _ = _linear_sample(1)
    rep = reset_linear(y, X, powers=(2, 3), se_type="hc1")

    _, fitted, _ = dense_ols(y, X)
    v = (fitted - fitted.mean()) / fitted.std()
    aug = np.column_stack([X, v**2, v**3])
    vcov = dense_ols_vcov(y, aug, se_type="hc1")
    beta = np.linalg.pinv(aug) @ y
    gamma = beta[2:]
    vg = vcov[2:, 2:]
    stat_ref = float(gamma @ np.linalg.solve(vg, gamma)) / 2
    assert abs(rep.statistic - stat_ref) / stat_ref < 1e-8
    p_ref = float(scipy.stats.f.sf(stat_ref, 2, aug.shape[0] - 4))
    assert abs(rep.p_value - p_ref) < 1e-10
    assert rep.df == (2, y.shape[0] - 4)


def test_linear_null_not_rejected_on_fixed_seeds():
    ps = [reset_linear(*_linear_sample(s)[:2]).p_value for s in range(5)]
    assert min(ps) > 0.01
    assert max(ps) > 0.2


def test_linear_detects_omitted_quadratic():
    y, X, _ = _linear_sample(2, n=2000, quadratic=1.5)
    rep = reset_linear(y, X)
    assert rep.p_value < 1e-6


def test_linear_cluster_variant_runs():
    y, X, _ = _linear_sample(3)
    cl = np.arange(y.shape[0]) // 20
    rep = reset_linear(y, X, se_type="cluster", cluster=cl)
    assert 0.0 <= rep.p_value <= 1.0
    assert rep.method["se_type"] == "cluster"


def test_linear_labels_without_se_type_give_hc1():
    y, X, _ = _linear_sample(3, quadratic=1.0)
    cl = np.arange(y.shape[0]) // 20
    rep = reset_linear(y, X, cluster=cl)
    assert rep.method["se_type"] == "hc1"
    assert rep.statistic == reset_linear(y, X).statistic
    assert rep.statistic != reset_linear(y, X, se_type="cluster",
                                         cluster=cl).statistic


def test_linear_trivial_when_saturated():
    # X is a full set of group dummies and y is group means plus noise:
    # fitted powers lie inside the design span
    rng = np.random.default_rng(4)
    g = rng.integers(0, 3, 300)
    X = (g[:, None] == np.arange(3)[None, :]).astype(float)
    y = np.array([1.0, 2.0, 5.0])[g] + rng.normal(size=300)
    rep = reset_linear(y, X)
    assert rep.p_value == 1.0
    assert rep.statistic == 0.0
    assert "note" in rep.method


def test_linear_trivial_when_fitted_constant():
    rng = np.random.default_rng(5)
    X = np.ones((100, 1))
    y = rng.normal(size=100)
    rep = reset_linear(y, X)
    assert rep.p_value == 1.0


def test_intercept_only_design_reports_a_constant_fit():
    """With the intercept as the only column the fitted values (or index)
    are one repeated double, but their mean may round, so their std once
    read about 1e-17 and the report fell through to 'no direction outside
    the design span' on about a third of these samples."""
    n = 200
    for n1 in range(1, n, 9):
        z = (np.arange(n) < n1).astype(float)
        for link in ("logit", "probit"):
            rep = reset_binary_index(z, np.zeros((n, 1)), link=link)
            assert rep.method == {"note": "fitted index is constant"}, (n1, link)
    rng = np.random.default_rng(5)
    for shift in range(20):
        rep = reset_linear(rng.normal(size=n) + shift, np.ones((n, 1)))
        assert rep.method == {"note": "fitted values are constant"}, shift


@pytest.mark.parametrize("se_type", ["hc1", "cluster"])
def test_linear_trivial_when_design_fits_exactly(se_type):
    """y is a column of the design, so the base residuals are rounding
    noise: the F on them once read p = 0.001 on such a design. The report
    is the trivial one, also for an exact fit under a large offset, and
    resolved noise is tested, also under a large offset."""
    y, X, _ = _linear_sample(6)
    cluster = np.arange(y.size) % 25
    rep = reset_linear(y, np.column_stack([X, y]), se_type=se_type, cluster=cluster)
    assert (rep.statistic, rep.df, rep.p_value) == (0.0, (0,), 1.0)
    assert rep.method == {"note": "the design fits the response exactly; the "
                                  "residuals are rounding noise"}
    rng = np.random.default_rng(7)
    yb = X @ np.array([0.5, 1.2]) + 1e-6 * rng.normal(size=y.size)
    rep = reset_linear(yb, X, se_type=se_type, cluster=cluster)
    assert rep.df[0] == 2 and 0.0 < rep.p_value < 1.0
    exact = reset_linear(1e10 + X @ np.array([0.5, 1.2]), X, se_type=se_type,
                         cluster=cluster)
    assert exact.method["note"].startswith("the design fits the response exactly")
    rep = reset_linear(1e10 + y, X, se_type=se_type, cluster=cluster)
    assert rep.df[0] == 2 and 0.0 < rep.p_value < 1.0


def test_index_null_not_rejected_on_fixed_seeds():
    ps = []
    for s in range(5):
        z, X = _index_sample(10 + s)
        ps.append(reset_binary_index(z, X, link="logit").p_value)
    assert min(ps) > 0.01


def test_index_detects_omitted_quadratic():
    z, X = _index_sample(6, n=2500, quadratic=0.6)
    rep = reset_binary_index(z, X, link="logit")
    assert rep.p_value < 1e-4


@pytest.mark.parametrize("link", ["logit", "probit"])
def test_index_lr_nonnegative(link):
    for s in range(6):
        z, X = _index_sample(20 + s, n=400)
        rep = reset_binary_index(z, X, link=link)
        assert rep.statistic >= 0.0
        assert 0.0 <= rep.p_value <= 1.0


def test_index_lr_matches_direct_refit():
    """The LR equals twice the loglik gap of a from-scratch augmented fit."""
    from ivhet import fit_binary_index

    z, X = _index_sample(7, n=700)
    rep = reset_binary_index(z, X, link="logit", powers=(2, 3))
    base = fit_binary_index(z, X, link="logit")
    v = (base.index - base.index.mean()) / base.index.std()
    aug = np.column_stack([X, v**2, v**3])
    full = fit_binary_index(z, aug, link="logit")
    lr_ref = 2.0 * (full.loglik - base.loglik)
    assert abs(rep.statistic - lr_ref) < 1e-6
    p_ref = float(scipy.stats.chi2.sf(lr_ref, 2))
    assert abs(rep.p_value - p_ref) < 1e-8


def test_index_reports_augmented_fit_failure(monkeypatch):
    """A warm-started augmented fit that fails gives no p-value and an error
    entry naming the failure, rather than raising."""
    fail_augmented_reset_fit(monkeypatch)
    z, X = _index_sample(7, n=700)
    rep = reset_binary_index(z, X, link="probit")
    assert rep.p_value is None and np.isnan(rep.statistic)
    assert rep.method["error"] == "augmented fit separated"


def test_index_trivial_when_saturated():
    rng = np.random.default_rng(8)
    g = rng.integers(0, 2, 200)
    X = (g[:, None] == np.arange(2)[None, :]).astype(float)
    z = (rng.random(200) < np.array([0.3, 0.7])[g]).astype(float)
    rep = reset_binary_index(z, X, link="logit")
    assert rep.p_value == 1.0
    assert "note" in rep.method


def test_report_to_dict():
    y, X, _ = _linear_sample(9)
    d = reset_linear(y, X).to_dict()
    assert d["test"] == "reset_linear"
    assert "p_value" in d and "powers" in d


def test_import_does_not_load_scipy_stats():
    # the RESET p-values come from spec_tests' own F and chi-squared tails;
    # scipy.stats would cost more than the rest of the package to import
    code = "import sys, ivhet; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_import_does_not_load_scipy():
    # scipy is imported inside the functions that use it, so the saturated
    # commands start without paying for it
    code = ("import sys, ivhet, ivhet.cli\n"
            "loaded = [m for m in sys.modules if m.startswith('scipy')]\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_import_does_not_load_multiprocessing():
    # the IPW bootstrap imports multiprocessing only when it forks, so every
    # other command starts without paying for it
    code = ("import sys, ivhet, ivhet.cli\n"
            "loaded = [m for m in sys.modules if m.startswith('multiprocessing')]\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env())


def test_reset_input_checks():
    y, X, _ = _linear_sample(4)
    with pytest.raises(DomainError, match="design and response have different lengths"):
        reset_linear(y[:-1], X)
    z, Xz = _index_sample(4)
    for call in (lambda: reset_linear(y, X.T), lambda: reset_binary_index(z, Xz.T)):
        with pytest.raises(DomainError, match="design and response have different lengths"):
            call()
    with pytest.raises(DomainError, match="reset_binary_index supports logit and probit"):
        reset_binary_index(z, Xz, link="linear")


def test_index_trivial_when_screen_drops_every_added_column(monkeypatch):
    """When the augmented fit's rank screen keeps none of the added columns
    (an in-span column that passed the residual tolerance), the report is the
    trivial one rather than a chi-squared with zero degrees of freedom."""
    import ivhet.spec_tests as spec_tests

    monkeypatch.setattr(spec_tests, "_residualize", lambda cols, X: 2.0 * X[:, 1:])
    z, X = _index_sample(5)
    rep = reset_binary_index(z, X, link="logit")
    assert (rep.statistic, rep.df, rep.p_value) == (0.0, (0,), 1.0)
    assert rep.method == {"note": "index powers add no direction outside "
                                  "the design span"}
