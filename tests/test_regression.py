import numpy as np
import pytest

from ivhet import (
    DomainError,
    EmptyDataError,
    IdentificationError,
    RankError,
    hat_diagonals,
    ols,
    tsls,
)
from ivhet.regression import screen_columns

from oracles import (
    dense_hat,
    dense_ols,
    dense_ols_vcov,
    dense_tsls,
    dense_tsls_vcov,
)


def _random_instance(rng, n=60, k=4):
    X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
    beta = rng.normal(size=k)
    y = X @ beta + rng.normal(size=n)
    return y, X


@pytest.mark.parametrize("seed", range(8))
def test_ols_matches_dense_oracle(seed):
    rng = np.random.default_rng(seed)
    y, X = _random_instance(rng)
    fit = ols(y, X, se_type="hc1")
    b_ref, fitted_ref, resid_ref = dense_ols(y, X)
    np.testing.assert_allclose(fit.coefficients, b_ref, atol=1e-10)
    np.testing.assert_allclose(fit.fitted, fitted_ref, atol=1e-10)
    np.testing.assert_allclose(fit.residuals, resid_ref, atol=1e-10)


@pytest.mark.parametrize("se_type", ["classical", "hc0", "hc1"])
def test_ols_vcov_matches_dense_oracle(se_type):
    rng = np.random.default_rng(11)
    y, X = _random_instance(rng)
    fit = ols(y, X, se_type=se_type)
    v_ref = dense_ols_vcov(y, X, se_type=se_type)
    np.testing.assert_allclose(fit.vcov, v_ref, rtol=1e-9, atol=1e-12)


def test_cluster_vcov_matches_dense_oracle():
    rng = np.random.default_rng(12)
    y, X = _random_instance(rng, n=80)
    cl = rng.integers(0, 9, size=80)
    fit = ols(y, X, se_type="cluster", cluster=cl)
    v_ref = dense_ols_vcov(y, X, se_type="cluster", cluster=cl)
    np.testing.assert_allclose(fit.vcov, v_ref, rtol=1e-9, atol=1e-12)


def test_singleton_clusters_equal_hc1():
    rng = np.random.default_rng(13)
    y, X = _random_instance(rng, n=40)
    v_cl = ols(y, X, se_type="cluster", cluster=np.arange(40)).vcov
    v_hc1 = ols(y, X, se_type="hc1").vcov
    np.testing.assert_allclose(v_cl, v_hc1, rtol=1e-12)


def test_one_cluster_raises():
    rng = np.random.default_rng(15)
    y, X = _random_instance(rng, n=40)
    with pytest.raises(DomainError, match="at least 2 clusters"):
        ols(y, X, se_type="cluster", cluster=np.zeros(40, dtype=int))


def test_collinear_columns_dropped_in_design_order():
    rng = np.random.default_rng(14)
    n = 30
    a = rng.normal(size=n)
    X = np.column_stack([np.ones(n), a, 2 * a, rng.normal(size=n)])
    y = rng.normal(size=n)
    fit = ols(y, X, se_type="hc0")
    assert fit.dropped == (2,)
    assert fit.coefficients[2] == 0.0
    assert fit.vcov[2, 2] == 0.0
    # the kept-column solution equals ols on the reduced design
    keep = [0, 1, 3]
    ref = ols(y, X[:, keep], se_type="hc0")
    np.testing.assert_allclose(fit.coefficients[keep], ref.coefficients,
                               atol=1e-12)


def test_screen_prefers_earlier_columns():
    rng = np.random.default_rng(15)
    a = rng.normal(size=25)
    X = np.column_stack([a, a.copy()])
    kept, _ = screen_columns(X)
    assert kept == [0]


def test_ols_errors():
    with pytest.raises(EmptyDataError):
        ols(np.empty(0), np.empty((0, 1)))
    n = 10
    X = np.zeros((n, 2))
    with pytest.raises(RankError):
        ols(np.ones(n), X)


@pytest.mark.parametrize("seed", range(6))
def test_tsls_matches_dense_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = 120
    Xe = np.column_stack([np.ones(n), rng.normal(size=n)])
    z = rng.integers(0, 2, size=n).astype(float)
    u = rng.normal(size=n)
    d = (0.3 * z + 0.2 * u + rng.normal(size=n) > 0).astype(float)
    y = 1.0 + 0.5 * Xe[:, 1] + 2.0 * d + u
    fit = tsls(y, Xe, d, z, se_type="hc1")
    b_ref, dhat_ref, resid_ref = dense_tsls(y, Xe, d, z[:, None])
    np.testing.assert_allclose(fit.coefficients, b_ref, atol=1e-9)
    np.testing.assert_allclose(fit.residuals, resid_ref, atol=1e-9)
    v_ref = dense_tsls_vcov(y, Xe, d, z[:, None], se_type="hc1")
    np.testing.assert_allclose(fit.vcov, v_ref, rtol=1e-8, atol=1e-12)
    assert fit.endog_index == fit.coefficients.shape[0] - 1


def test_tsls_estimating_equation_orthogonality():
    # the projected design is orthogonal to the structural residuals
    rng = np.random.default_rng(21)
    n = 150
    Xe = np.column_stack([np.ones(n), rng.normal(size=n)])
    z = rng.integers(0, 2, size=n).astype(float)
    d = (0.6 * z + rng.normal(size=n) > 0).astype(float)
    y = 1.0 + d + rng.normal(size=n)
    fit = tsls(y, Xe, d, z, se_type="hc0")
    W = np.column_stack([Xe, z])
    dhat = W @ (np.linalg.pinv(W) @ d)
    proj = np.column_stack([Xe, dhat])
    assert np.abs(proj.T @ fit.residuals).max() < 1e-8


def test_tsls_no_instrument_left():
    rng = np.random.default_rng(22)
    n = 40
    Xe = np.column_stack([np.ones(n), rng.normal(size=n)])
    d = rng.integers(0, 2, n).astype(float)
    y = rng.normal(size=n)
    # instrument is collinear with the exogenous block
    with pytest.raises(IdentificationError):
        tsls(y, Xe, d, Xe[:, 1], se_type="hc0")


def test_tsls_zero_first_stage():
    rng = np.random.default_rng(23)
    n = 40
    Xe = np.ones((n, 1))
    d = np.zeros(n)
    d[::2] = 1.0
    z = rng.integers(0, 2, n).astype(float)
    # make the first stage exactly zero by balancing d within z arms
    d = np.concatenate([np.tile([0, 1], 10), np.tile([0, 1], 10)]).astype(float)
    z = np.concatenate([np.zeros(20), np.ones(20)])
    y = rng.normal(size=n)
    with pytest.raises(IdentificationError):
        tsls(y, Xe, d, z, se_type="hc0")


def test_hat_diagonals_match_dense():
    rng = np.random.default_rng(30)
    X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
    np.testing.assert_allclose(hat_diagonals(X), dense_hat(X), atol=1e-10)


def test_hat_diagonals_reject_rank_deficient():
    a = np.ones((20, 1))
    X = np.column_stack([a, a])
    with pytest.raises(RankError):
        hat_diagonals(X)


def test_se_accessor():
    rng = np.random.default_rng(31)
    y, X = _random_instance(rng)
    fit = ols(y, X, se_type="hc1")
    np.testing.assert_allclose(fit.se, np.sqrt(np.diag(fit.vcov)))


def test_unknown_se_type():
    rng = np.random.default_rng(32)
    y, X = _random_instance(rng)
    with pytest.raises(DomainError):
        ols(y, X, se_type="hc9")
    with pytest.raises(DomainError):
        ols(y, X, se_type="cluster")  # no labels given
