import numpy as np
import pytest

from ivhet import (
    DomainError,
    EmptyDataError,
    IdentificationError,
    RankError,
    fit_binary_index,
    hat_diagonals,
    ols,
    reset_binary_index,
    reset_linear,
    tsls,
)
from ivhet.regression import _gram_keeps_all, _kept_columns, _meat, screen_columns

from oracles import (
    dense_hat,
    dense_ols,
    dense_ols_vcov,
    dense_tsls,
    dense_tsls_vcov,
    stacked_screen_columns,
)


def test_classical_se_needs_residual_degrees_of_freedom():
    """With as many rows as the rank, the residuals are all zero and the
    classical variance s^2 (X'X)^-1 divides by n - rank = 0."""
    X = np.column_stack([np.ones(3), [0.0, 1.0, 3.0], [1.0, 0.0, 2.0]])
    y = np.array([1.0, 2.0, 0.5])
    assert ols(y, X, se_type="hc0").df_resid == 0
    with pytest.raises(DomainError, match="no residual degrees of freedom"):
        ols(y, X, se_type="classical")


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


_BIG = np.iinfo(np.int64).max


def _meat_reference(scores, se_type, labels, df):
    """The meat and factor written out: a Python loop over the labels."""
    n = scores.shape[0]
    if se_type != "cluster":
        meat = sum(np.outer(row, row) for row in scores)
        return meat, (1.0 if se_type == "hc0" else n / df)
    groups = sorted(set(labels.tolist()))
    sums = [scores[labels == lab].sum(axis=0) for lab in groups]
    g = len(groups)
    return sum(np.outer(s, s) for s in sums), g / (g - 1) * (n - 1) / df


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("se_type, labels", [
    ("hc0", None),
    ("hc1", None),
    ("cluster", np.arange(12) // 3),                                 # 4 labels
    ("cluster", np.array([0, 5, 5, 90, 0, 90, 7, 7, 7, 5, 0, 90])),  # gapped
    ("cluster", np.array([-3, -3, -1, 4, -1, 4, -3, 4, 2, 2, -1, 2])),   # negative
    ("cluster", np.array([_BIG, -_BIG - 1, 0] * 4)),                 # int64 extremes
    ("cluster", np.arange(12) * 1000),                               # singletons
    ("cluster", np.array([1, 1, 1, 1, 1, 2, 3, 3, 4, 5, 6, 6])),     # some singletons
])
def test_meat_matches_explicit_formula(se_type, labels, k):
    rng = np.random.default_rng(70 + k)
    scores = rng.normal(size=(12, k))
    df = 12 - k
    meat, factor = _meat(scores, se_type, labels, df)
    meat_ref, factor_ref = _meat_reference(scores, se_type, labels, df)
    assert meat.shape == (k, k)
    np.testing.assert_allclose(meat, meat_ref, rtol=1e-13, atol=1e-13)
    assert abs(factor - factor_ref) <= 1e-15 * factor_ref


def test_meat_errors():
    scores = np.ones((6, 2))
    with pytest.raises(DomainError, match="at least 2 clusters"):
        _meat(scores, "cluster", np.full(6, 41), 4)
    with pytest.raises(DomainError, match="at least 2 clusters"):
        _meat(scores[:0], "cluster", np.zeros(0, dtype=int), 4)
    for se_type, labels in (("hc1", None), ("cluster", np.arange(6))):
        for df in (0, -1):
            with pytest.raises(DomainError,
                               match=f"no residual degrees of freedom for {se_type} se"):
                _meat(scores, se_type, labels, df)
    meat, factor = _meat(scores, "hc0", None, 0)    # hc0 needs no df
    assert factor == 1.0
    np.testing.assert_array_equal(meat, np.full((2, 2), 6.0))


def test_meat_influence_factor_is_exact():
    """With df = n - 1 the cluster factor is exactly g/(g-1)."""
    for n in (2, 7, 100, 12345):
        for g in {2, min(3, n), n}:
            labels = np.arange(n) % g
            _, factor = _meat(np.ones((n, 1)), "cluster", labels, n - 1)
            assert factor == g / (g - 1.0)


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


@pytest.mark.parametrize("se_type", ["classical", "hc0", "hc1", "cluster"])
def test_tsls_embeds_a_dropped_exogenous_column(se_type):
    """With X_exog = [1, a, 2a] the screen drops column 2: its coefficient and
    its row and column of vcov are zero, the endogenous coefficient stays
    last, and every kept entry is the [1, a] fit's, bit for bit."""
    rng = np.random.default_rng(24)
    n = 80
    a = rng.normal(size=n)
    z = rng.integers(0, 2, size=n).astype(float)
    d = (0.8 * z + rng.normal(size=n) > 0.5).astype(float)
    y = 1.0 + 0.5 * a + 2.0 * d + rng.normal(size=n)
    cluster = np.arange(n) % 9
    fit = tsls(y, np.column_stack([np.ones(n), a, 2 * a]), d, z,
               se_type=se_type, cluster=cluster)
    ref = tsls(y, np.column_stack([np.ones(n), a]), d, z,
               se_type=se_type, cluster=cluster)
    assert fit.dropped == (2,)
    assert fit.endog_index == 3
    assert fit.coefficients[2] == 0.0
    assert not fit.vcov[2].any() and not fit.vcov[:, 2].any()
    keep = [0, 1, 3]
    assert np.array_equal(fit.coefficients[keep], ref.coefficients)
    assert np.array_equal(fit.vcov[np.ix_(keep, keep)], ref.vcov)
    assert np.array_equal(fit.residuals, ref.residuals)
    assert (fit.df_resid, fit.rank) == (ref.df_resid, ref.rank)


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


def test_screen_columns_matches_stacked_basis():
    """Filling one preallocated basis keeps the columns that copying each
    column and restacking the basis keeps, on designs with exact and
    1e-7 / 3e-9 near-collinear pairs, zero columns and up to 12 columns.
    Q spans the kept columns with orthonormal columns, and matches the
    restacked basis to 1e-12 where no kept column is nearly collinear:
    there the basis direction is set by rounding in either version."""
    rng = np.random.default_rng(2027)
    collinear = 0
    for _ in range(300):
        n, k = int(rng.integers(5, 300)), int(rng.integers(1, 13))
        X = rng.normal(size=(n, k))
        gap = 1.0
        if k >= 2 and rng.random() < 0.6:
            i, j = rng.choice(k, 2, replace=False)
            gap = rng.choice([0.0, 1e-7, 3e-9])
            X[:, j] = X[:, i] * rng.choice([1.0, 2.5]) + gap * rng.normal(size=n)
            collinear += gap > 0
        if rng.random() < 0.3:
            X[:, rng.integers(k)] = 0.0
        if rng.random() < 0.3:
            X[:, 0] = 1.0
        kept, Q = screen_columns(X)
        want, Q_ref = stacked_screen_columns(X)
        assert kept == want
        assert Q.shape == Q_ref.shape
        np.testing.assert_allclose(Q.T @ Q, np.eye(len(kept)), rtol=0, atol=1e-12)
        Xk = X[:, kept]
        np.testing.assert_allclose(Q @ (Q.T @ Xk), Xk, rtol=0,
                                   atol=1e-12 * np.abs(Xk).max(initial=1.0))
        if gap in (0.0, 1.0):
            np.testing.assert_allclose(Q, Q_ref, rtol=0, atol=1e-12)
    assert collinear > 50


def _edge_pair(rng, X, share):
    """X with a later column rebuilt as a multiple of an earlier one plus a
    direction orthogonal to every other column, scaled so that the share of
    its norm left outside the earlier columns is share."""
    n, k = X.shape
    i, j = sorted(rng.choice(k, 2, replace=False))
    others = np.delete(X, j, axis=1)
    e = rng.normal(size=n)
    e -= others @ np.linalg.lstsq(others, e, rcond=None)[0]
    base = X[:, i] * rng.choice([1.0, -2.5])
    X[:, j] = base + share * np.linalg.norm(base) * e / np.linalg.norm(e)
    return X


def test_gram_screen_keeps_what_the_screen_keeps():
    """_kept_columns keeps screen_columns' list on random designs with
    columns on scales 1e-3 to 1e3, zero columns, exact duplicates and
    near-collinear pairs whose left-over share sits at 3e-11 or 3e-10, on
    either side of the 1e-10 edge, each also as a sqrt(m)-weighted bootstrap
    resample with its Gram taken as X'(m X). The Gram decides a design only
    when the screen keeps every column, and both the Gram's decision and
    the fallback to the screen run."""
    rng = np.random.default_rng(2031)
    decided = fallback = 0
    edge = {3e-11: 0, 3e-10: 0}
    for _ in range(300):
        n, k = int(rng.integers(12, 400)), int(rng.integers(1, 8))
        X = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
        kind = rng.integers(5)
        if k >= 2 and kind == 0:
            i, j = rng.choice(k, 2, replace=False)
            X[:, j] = X[:, i]
        elif k >= 2 and kind in (1, 2):
            share = 3e-11 if kind == 1 else 3e-10
            X = _edge_pair(rng, X, share)
        elif kind == 3:
            X[:, rng.integers(k)] = 0.0
        m = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(float)
        Xm = X * np.sqrt(m)[:, None]
        for design, gram in ((X, X.T @ X), (Xm, X.T @ (X * m[:, None]))):
            want = screen_columns(design)[0]
            assert _kept_columns(design) == want
            if _gram_keeps_all(gram, n):
                decided += 1
                assert want == list(range(k))
            else:
                fallback += 1
        if k >= 2 and kind in (1, 2):
            edge[share] += screen_columns(X)[0] == list(range(k))
    assert decided > 100 and fallback > 100
    # the 3e-10 pairs stay, the 3e-11 pairs go
    assert edge[3e-11] == 0 and edge[3e-10] > 20


def _one_column_design(seed=3, n=50):
    rng = np.random.default_rng(seed)
    z = (rng.random(n) < 0.5).astype(float)
    d = (rng.random(n) < 0.2 + 0.6 * z).astype(float)
    return rng.normal(size=n) + d, d, z, rng.normal(size=n)


def test_one_dimensional_designs_are_one_column():
    """ols, tsls (both X_exog and Z_inst), hat_diagonals, fit_binary_index
    and both RESET tests read a 1-D array as the single column it holds."""
    y, d, z, x = _one_column_design()
    fits = [(ols(y, x), ols(y, x[:, None])),
            (tsls(y, np.ones(y.size), d, z), tsls(y, np.ones((y.size, 1)), d, z[:, None]))]
    for one, two in fits:
        assert np.array_equal(one.coefficients, two.coefficients)
        assert np.array_equal(one.vcov, two.vcov)
    assert np.array_equal(hat_diagonals(x), hat_diagonals(x[:, None]))
    one, two = fit_binary_index(z, x), fit_binary_index(z, x[:, None])
    assert np.array_equal(one.coefficients, two.coefficients)
    assert np.array_equal(one.index, two.index)
    assert reset_linear(y, x).to_dict() == reset_linear(y, x[:, None]).to_dict()
    assert (reset_binary_index(z, x).to_dict()
            == reset_binary_index(z, x[:, None]).to_dict())


@pytest.mark.parametrize("call, error, message", [
    (lambda y, d, z, x: ols(y, x, se_type="cluster", cluster=np.arange(y.size - 1)),
     DomainError, "cluster labels must align with the rows"),
    (lambda y, d, z, x: ols(y[1:], x), DomainError, "y and X disagree on the number of rows"),
    (lambda y, d, z, x: tsls(y[:0], x[:0], d[:0], z[:0]), EmptyDataError, "no rows to fit"),
    (lambda y, d, z, x: tsls(y, x, d[1:], z), DomainError,
     "rows of y, X_exog, d_endog and Z_inst disagree"),
    (lambda y, d, z, x: tsls(y, x, d, z[1:]), DomainError,
     "rows of y, X_exog, d_endog and Z_inst disagree"),
    (lambda y, d, z, x: hat_diagonals(np.empty((0, 2))), EmptyDataError, "no rows"),
])
def test_fit_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call(*_one_column_design())


@pytest.mark.parametrize("shape", [(), (50, 1, 1)], ids=["0-D", "3-D"])
@pytest.mark.parametrize("call", [
    lambda y, d, z, X: ols(y, X),
    lambda y, d, z, X: tsls(y, X, d, z),
    lambda y, d, z, X: tsls(y, np.ones(y.size), d, X),
    lambda y, d, z, X: fit_binary_index(z, X),
    lambda y, d, z, X: reset_linear(y, X),
    lambda y, d, z, X: reset_binary_index(z, X),
], ids=["ols", "tsls X_exog", "tsls Z_inst", "fit_binary_index", "reset_linear",
        "reset_binary_index"])
def test_design_neither_1d_nor_2d_is_a_domain_error(call, shape):
    y, d, z, _ = _one_column_design()
    with pytest.raises(DomainError, match="a design must be 1-D or 2-D"):
        call(y, d, z, np.full(shape, 2.0))
