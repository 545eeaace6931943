"""The probit kernel's normal CDF and log-CDF terms, held to scipy.special,
the AS241 normal quantile of the noise draws, and the F and chi-squared
tails of RESET."""

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

from ivhet.dgp import normal_quantile
from ivhet.propensity import _ndtr, _probit_parts
from ivhet.spec_tests import chi2_sf, f_sf

GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 4001),
    np.array([-26.6, -26.5, -6.0, -1.0, -0.46875, 0.46875, 1.0, 6.0, 26.5, 26.6]),
    np.array([0.0, 1e-300, -1e-300, 1e-8, -1e-8]),
])


def row_parts(eta, z=1.0):
    """_probit_parts of each eta alone, as a one-row sample with response z:
    the row's loglik log Phi(+-eta), its score u and its weight w."""
    out = [_probit_parts(np.array([v]), np.array([z])) for v in np.ravel(eta)]
    return tuple(np.array([o[k] if k == 0 else o[k][0] for o in out]) for k in range(3))


def test_normal_cdf_matches_scipy():
    """Each row's loglik is log Phi(eta) for z = 1 and log Phi(-eta) for
    z = 0, to 1e-12 relative, across the |eta| = 37 switch to log_ndtr."""
    for z, sign in ((1.0, 1.0), (0.0, -1.0)):
        ref = scipy.stats.norm.logcdf(sign * GRID)
        got = row_parts(GRID, z)[0]
        assert (np.abs(got - ref) <= 1e-12 * np.abs(ref)).all()


def test_ndtr_matches_scipy_bit_for_bit():
    """_ndtr is scipy.special.ndtr's cephes arithmetic in numpy, with the C
    library's exp on the erfc rows: equal to ndtr on a dense grid over
    [-40, 40], at +-0, on both sides of each branch edge (|eta| = 1 and
    sqrt(2), where |x| = |eta|/sqrt(2) crosses 1/sqrt(2) and 1; 8 sqrt(2), where
    erfc's rational changes; 37 and sqrt(2 MAXLOG), where the tail turns 0), at
    +-1e3 and +-inf, across the subnormal tail, and NaN at NaN."""
    rng = np.random.default_rng(5)
    edges = np.array([1.0, np.sqrt(2.0), 8.0 * np.sqrt(2.0), 37.0,
                      np.sqrt(2.0 * 7.09782712893383996843e2)])
    near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    eta = np.concatenate([
        np.linspace(-40.0, 40.0, 800_001), rng.uniform(-40.0, 40.0, 200_000),
        rng.uniform(-2.0, 2.0, 200_000), rng.uniform(-38.5, -37.0, 20_000),
        near, -near, [0.0, -0.0, 1e3, -1e3, np.inf, -np.inf]])
    got = _ndtr(eta)
    assert np.array_equal(got, scipy.special.ndtr(eta))
    assert ((got > 0.0) & (got < np.finfo(float).tiny)).sum() > 1000   # subnormal
    assert np.isnan(_ndtr(np.array([np.nan]))).all()


def test_normal_quantile_matches_the_stdlib():
    """Equal to NormalDist().inv_cdf but for a few ulp where numpy's log
    differs, across the three AS241 regions, their edges, both tails and
    more than one block; and within 2e-15 of scipy's ndtri."""
    from statistics import NormalDist
    from scipy.special import ndtri
    rng = np.random.default_rng(11)
    edges = [0.075, 0.925, np.exp(-25.0), -np.expm1(-25.0), 0.5]
    p = np.concatenate([rng.random(100_000), 10.0 ** -rng.uniform(0, 300, 2_000),
                        1.0 - 10.0 ** -rng.uniform(0, 15, 2_000),
                        [np.finfo(float).tiny, np.nextafter(1.0, 0.0)],
                        np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
    ref = np.array([NormalDist().inv_cdf(v) for v in p.tolist()])
    x = normal_quantile(p)
    ulps = np.abs(x - ref) / np.spacing(np.abs(ref))
    assert ulps.max() <= 8 and (ulps > 0).mean() < 1e-3
    np.testing.assert_allclose(x, ndtri(p), rtol=2e-15, atol=0)


def test_normal_log_cdf_deep_tail():
    x = np.array([-1.0, -5.0, -10.0, -20.0, -37.0, -100.0, -300.0])
    ref = scipy.stats.norm.logcdf(x)
    got = row_parts(x)[0]
    rel = np.abs(got - ref) / np.abs(ref)
    assert rel.max() < 1e-12


def test_normal_log_cdf_right_tail():
    # log Phi(x) for large positive x is a tiny negative number; the naive
    # log(cdf) loses all precision here
    x = np.array([1.0, 3.0, 5.0, 7.9, 8.0, 37.0, 300.0])
    ref = scipy.stats.norm.logcdf(x)
    got = row_parts(x)[0]
    ok = np.abs(ref) > 1e-300
    rel = np.abs(got[ok] - ref[ok]) / np.abs(ref[ok])
    assert rel.max() < 1e-10
    assert (np.abs(got[~ok]) <= 1e-300).all()


def test_far_tail_loglik_at_huge_indexes():
    """Past |eta| ~ 1e51 the far tail's R and S overflow; log Phi(eta) is then
    -eta^2/2 to the last bit, as scipy's log_ndtr gives it."""
    eta = -np.array([1e40, 1e52, 1e62, 1e100, 1e150])
    with np.errstate(over="ignore", invalid="ignore"):   # u and w overflow here
        got = row_parts(eta)[0]
    np.testing.assert_array_equal(got, scipy.special.log_ndtr(eta))


def test_scalar_and_array_paths_agree():
    """A sample's u and w are its rows' own, and its loglik their sum."""
    eta = np.array([-3.5, -0.2, 0.0, 0.7, 9.0, -40.0, 40.0])
    z = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    ll, u, w = _probit_parts(eta, z)
    rows = [row_parts(e, v) for e, v in zip(eta, z)]
    np.testing.assert_allclose(u, [r[1][0] for r in rows], rtol=1e-15, atol=0)
    np.testing.assert_allclose(w, [r[2][0] for r in rows], rtol=1e-15, atol=0)
    assert ll == pytest.approx(sum(r[0][0] for r in rows), rel=1e-15)


@given(st.floats(min_value=-300, max_value=300), st.sampled_from([0.0, 1.0]))
def test_cdf_complement_identity(x, z):
    """(eta, z) and (-eta, 1 - z) give the same loglik and weight and
    opposite scores: Phi(-eta) = 1 - Phi(eta)."""
    ll, u, w = row_parts(x, z)
    ll_m, u_m, w_m = row_parts(-x, 1.0 - z)
    assert ll[0] == ll_m[0] and w[0] == w_m[0] and u[0] == -u_m[0]


@given(st.floats(min_value=-300, max_value=300), st.floats(min_value=-300, max_value=300))
def test_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    ll1, ll0 = row_parts([lo, hi])[0], row_parts([lo, hi], 0.0)[0]
    assert ll1[0] <= ll1[1] and ll0[0] >= ll0[1]


def test_extreme_arguments_saturate():
    assert row_parts(50.0)[0][0] == 0.0 and row_parts(-50.0, 0.0)[0][0] == 0.0
    for z in (0.0, 1.0):
        ll, u, w = row_parts([-400.0, 400.0], z)
        assert np.isfinite(ll).all() and np.isfinite(u).all() and np.isfinite(w).all()


# RESET's F has df1 = q in 1-3 and df2 = n - k - q, from the smallest samples
# to n = 4e6, where y = df2 / (df2 + q F) lies within 1e-6 of 1
F_STATS = np.logspace(-6.0, 4.0, 601)


@pytest.mark.parametrize("df1", [1, 2, 3])
@pytest.mark.parametrize("df2", [5, 100, 1996, 49996, 4_000_000])
def test_f_sf_matches_scipy(df1, df2):
    ref = scipy.stats.f.sf(F_STATS, df1, df2)
    got = np.array([f_sf(v, df1, df2) for v in F_STATS])
    ok = ref >= 1e-300
    rel = np.abs(got[ok] - ref[ok]) / ref[ok]
    assert rel.max() <= (1e-12 if df2 <= 100_000 else 1e-10)
    if df1 == 2:    # I_y(df2/2, 1) = y^(df2/2) exactly
        exact = np.exp(-0.5 * df2 * np.log1p(2.0 * F_STATS[ok] / df2))
        np.testing.assert_allclose(got[ok], exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("df", [1, 2, 3])
def test_chi2_sf_matches_scipy(df):
    # scipy's chdtrc is itself 3e-14 off the exact tail near x = 2 for df = 1;
    # past x = 100 erfc and exp turn an ulp of x into x/2 ulp of the tail
    x = np.logspace(-6.0, 3.2, 601)
    ref = scipy.stats.chi2.sf(x, df)
    got = np.array([chi2_sf(v, df) for v in x])
    ok = ref >= 1e-300
    rel = np.abs(got[ok] - ref[ok]) / ref[ok]
    assert np.all(rel <= 5e-14 + x[ok] * np.finfo(float).eps)


def test_chi2_sf_matches_the_exact_tail():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for df in (1, 2, 3):
        for x in np.logspace(-6.0, 1.0, 50):
            exact = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2,
                                    regularized=True)
            assert abs(chi2_sf(x, df) - exact) <= 2e-15 * exact


def test_tails_match_scipy_at_the_edges():
    """Statistic 0 gives 1, +inf gives 0, NaN or negative gives NaN, and so
    does a df that is not positive, as in scipy.special."""
    from scipy.special import chdtrc, fdtrc
    stats = (0.0, np.inf, np.nan, -1.0)
    bad_df = [(1, 0), (1, -1), (0, 10)]
    for df1, df2 in [(1, 10), (2, 7), (3, 4_000_000), *bad_df]:
        for s in stats:
            np.testing.assert_equal(f_sf(s, df1, df2), fdtrc(df1, df2, s))
    for df1, df2 in bad_df:
        assert np.isnan(f_sf(1.0, df1, df2)) and np.isnan(fdtrc(df1, df2, 1.0))
    for df in (1, 2, 3):
        for s in stats:
            np.testing.assert_equal(chi2_sf(s, df), chdtrc(df, s))
