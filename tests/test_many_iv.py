import numpy as np
import pytest

from ivhet.cells import build_cells
from ivhet.data_model import Dataset
from ivhet.errors import DomainError, IdentificationError, LeverageError
from ivhet.estimators import _centered_iv, estimate_beta_ai
from ivhet.many_iv import _loo_fitted, jive, many_tsls, ujive

from oracles import loo_fitted_refit, loo_means
from test_estimators import (
    PIN_KINDS,
    pinning_cells,
    random_saturated_dataset,
    retained_arrays,
)


def drop_one_jackknife(ct, which, se_type):
    """jive or ujive from literal drop-one refits and a dense sandwich."""
    y, d, z, dummies, cl = retained_arrays(ct)
    w = np.column_stack([dummies, dummies * z[:, None]])
    inst = loo_fitted_refit(d, w)
    if which == "ujive":
        inst = inst - loo_fitted_refit(d, dummies)
    X = np.column_stack([dummies, d])
    Q = np.column_stack([dummies, inst])
    bread = np.linalg.inv(Q.T @ X)
    beta = bread @ (Q.T @ y)
    scores = Q * (y - X @ beta)[:, None]
    n, k = X.shape
    if se_type == "cluster":
        sums = [scores[cl == lab].sum(axis=0) for lab in np.unique(cl)]
        g = len(sums)
        meat = sum(np.outer(s, s) for s in sums)
        meat *= (g / (g - 1.0)) * ((n - 1.0) / (n - k))
    else:
        meat = scores.T @ scores * (n / (n - k) if se_type == "hc1" else 1.0)
    vcov = bread @ meat @ bread.T
    return beta[-1], np.sqrt(vcov[-1, -1])


def test_loo_fitted_matches_literal_refits():
    """Leave-one-out arm and cell means equal the leverage-identity fits
    of the saturated designs and literal drop-one refits."""
    rng = np.random.default_rng(7)
    ds = random_saturated_dataset(rng, n_cells=3, n=120)
    cell = ds.x[:, 0].astype(int)
    d = ds.d.astype(float)
    dummies = (cell[:, None] == np.arange(3)[None, :]).astype(float)
    w = np.column_stack([dummies, dummies * ds.z[:, None]])
    for got, design in ((loo_means(d, 2 * cell + ds.z), w),
                        (loo_means(d, cell), dummies)):
        dense, hmax = _loo_fitted(d, design, "test")
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, loo_fitted_refit(d, design),
                                   rtol=0, atol=1e-10)
        assert 0.0 < hmax < 1.0


@pytest.mark.parametrize("seed", range(5))
def test_jive_matches_drop_one_construction(seed):
    rng = np.random.default_rng(4000 + seed)
    ds = random_saturated_dataset(rng, n_cells=3, n=150)
    ct = build_cells(ds, min_arm_size=2)
    if not all(ct.retained):
        pytest.skip("draw produced a thin arm")
    beta, _ = drop_one_jackknife(ct, "jive", "hc1")
    assert abs(jive(ct).estimate - beta) < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_ujive_matches_drop_one_construction(seed):
    rng = np.random.default_rng(4100 + seed)
    ds = random_saturated_dataset(rng, n_cells=3, n=150)
    ct = build_cells(ds, min_arm_size=2)
    if not all(ct.retained):
        pytest.skip("draw produced a thin arm")
    beta, _ = drop_one_jackknife(ct, "ujive", "hc1")
    assert abs(ujive(ct).estimate - beta) < 1e-8


@pytest.mark.parametrize("se_type", ["hc0", "hc1", "cluster"])
@pytest.mark.parametrize("kind", PIN_KINDS)
@pytest.mark.parametrize("seed", range(2))
def test_jackknife_se_matches_drop_one_construction(seed, kind, se_type):
    """jive and ujive, estimate and SE, equal the drop-one construction
    to 1e-10 relative."""
    ct = pinning_cells(kind, 3100 + seed)
    for fn in (jive, ujive):
        beta, se = drop_one_jackknife(ct, fn.__name__, se_type)
        fit = fn(ct, se_type=se_type)
        assert abs(fit.estimate - beta) <= 1e-10 * abs(beta), fn.__name__
        assert abs(fit.se - se) <= 1e-10 * se, fn.__name__
        assert fit.se_type == se_type


def test_jive_se_matches_hand_sandwich():
    rng = np.random.default_rng(42)
    ds = random_saturated_dataset(rng, n_cells=2, n=200)
    ct = build_cells(ds, min_arm_size=2)
    _, se = drop_one_jackknife(ct, "jive", "hc1")
    assert abs(jive(ct, se_type="hc1").se - se) < 1e-8


def test_cluster_se_resolved_and_matches_hand():
    rng = np.random.default_rng(43)
    ds = random_saturated_dataset(rng, n_cells=2, n=200, cluster=True)
    ct = build_cells(ds, min_arm_size=2)
    fit = ujive(ct)
    assert fit.se_type == "cluster"
    _, se = drop_one_jackknife(ct, "ujive", "cluster")
    assert abs(fit.se - se) < 1e-8


def test_many_tsls_equals_interacted_tsls(hand_ct):
    fit = many_tsls(hand_ct)
    rep = estimate_beta_ai(hand_ct)
    assert fit.estimate == rep.estimate
    assert fit.se == rep.se
    assert fit.estimator == "tsls"
    assert fit.metadata["first_stage_design_columns"] == 2 * fit.n_instruments


def test_singleton_arm_raises_leverage_error(trial_ct):
    # the fixture has instrument arms with a single row, so the
    # leave-one-out prediction is undefined there
    with pytest.raises(LeverageError, match="min_arm_size"):
        jive(trial_ct)
    with pytest.raises(LeverageError, match="min_arm_size"):
        ujive(trial_ct)


def test_many_tsls_reports_leverage_one_on_singleton_arm(trial_ct):
    fit = many_tsls(trial_ct)
    assert fit.leverage_max > 1.0 - 1e-8


def _one_cell_dataset(rng, n):
    z = (rng.random(n) < 0.5).astype(int)
    d = (rng.random(n) < 0.3 + 0.4 * z).astype(int)
    y = 2.0 * d + rng.normal(size=n)
    return Dataset(y=y, d=d, z=z, x=np.zeros(n))


def test_jive_ujive_gap_shrinks_without_covariates():
    # with an intercept-only control block the two constructed
    # instruments differ by a term of order 1/n, so the gap between the
    # estimates should fall roughly in proportion as n grows
    gaps = []
    for n in (100, 400, 1600):
        rng = np.random.default_rng(n)
        ct = build_cells(_one_cell_dataset(rng, n))
        gaps.append(abs(jive(ct).estimate - ujive(ct).estimate))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2


def test_metadata_counts(hand_ct):
    for fn in (many_tsls, jive, ujive):
        fit = fn(hand_ct)
        assert fit.n_instruments == 2
        assert fit.n_controls == 2
        assert fit.n_used == 12
        d = fit.to_dict()
        assert d["estimator"] == fit.estimator
        assert d["n_used"] == 12


def test_just_identified_helper_error_paths(hand_ct):
    # one instrument value per (z, cell, d) bin: z, and the cell's index
    z = np.array([0.0, 1.0])[:, None, None]
    with pytest.raises(IdentificationError, match="zero first stage"):
        _centered_iv(hand_ct, np.arange(2.0)[:, None], "hc0")
    with pytest.raises(DomainError, match="unknown se_type"):
        _centered_iv(hand_ct, z, "hc3")
    with pytest.raises(DomainError, match="no cluster labels"):
        _centered_iv(hand_ct, z, "cluster")
    one = build_cells(Dataset(y=hand_ct.source.y, d=hand_ct.source.d,
                              z=hand_ct.source.z, x=hand_ct.source.x,
                              cluster=np.zeros(12, dtype=int)))
    with pytest.raises(DomainError, match="at least 2 clusters"):
        _centered_iv(one, z, "cluster")
    for fn in (jive, ujive):
        with pytest.raises(DomainError, match="no cluster labels"):
            fn(hand_ct, se_type="cluster")
        with pytest.raises(DomainError, match="hc0, hc1 and cluster"):
            fn(hand_ct, se_type="classical")
        with pytest.raises(DomainError, match="unknown se_type"):
            fn(hand_ct, se_type="hc3")
