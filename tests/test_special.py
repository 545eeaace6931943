import numpy as np
import scipy.stats
from hypothesis import given, strategies as st

from ivhet.special import normal_cdf, normal_log_cdf, normal_quantile

GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 4001),
    np.array([-26.6, -26.5, -6.0, -1.0, -0.46875, 0.46875, 1.0, 6.0, 26.5, 26.6]),
    np.array([0.0, 1e-300, -1e-300, 1e-8, -1e-8]),
])


def test_normal_cdf_matches_scipy():
    ref = scipy.stats.norm.cdf(GRID)
    got = normal_cdf(GRID)
    # compare over the normal range; below ~1e-300 the reference itself is
    # subnormal and the implementation flushes to zero
    ok = ref > 1e-300
    rel = np.abs(got[ok] - ref[ok]) / ref[ok]
    assert rel.max() < 1e-12


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
    got = normal_log_cdf(x)
    rel = np.abs(got - ref) / np.abs(ref)
    assert rel.max() < 1e-12


def test_normal_log_cdf_right_tail():
    # log Phi(x) for large positive x is a tiny negative number; the naive
    # log(cdf) loses all precision here
    x = np.array([1.0, 3.0, 5.0, 7.9, 8.0])
    ref = scipy.stats.norm.logcdf(x)
    got = normal_log_cdf(x)
    ok = np.abs(ref) > 1e-300
    rel = np.abs(got[ok] - ref[ok]) / np.abs(ref[ok])
    assert rel.max() < 1e-10


def test_scalar_and_array_paths_agree():
    for v in (-3.5, -0.2, 0.0, 0.7, 9.0):
        assert normal_cdf(v) == normal_cdf(np.array([v]))[0]


@given(st.floats(min_value=-30, max_value=30, allow_nan=False))
def test_cdf_complement_identity(x):
    a = normal_cdf(x) + normal_cdf(-x)
    assert abs(a - 1.0) < 1e-14


@given(st.floats(min_value=-35, max_value=35), st.floats(min_value=-35, max_value=35))
def test_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert normal_cdf(lo) <= normal_cdf(hi)


def test_extreme_arguments_saturate():
    assert normal_cdf(50.0) == 1.0
    assert normal_cdf(-50.0) == 0.0
    assert np.isfinite(normal_log_cdf(np.array([-400.0]))[0])
