import numpy as np
import pytest

from ivhet import (
    Dataset,
    DomainError,
    IdentificationError,
    build_cells,
    decompose_weights,
    estimate_beta_ai,
    estimate_beta_iv,
    estimate_beta_late_saturated,
    tsls,
)

from conftest import gapped_cluster_subset, label_loop_cluster_se
from oracles import cell_weights_by_hand, dense_tsls, dense_tsls_vcov, wald_by_hand


def random_saturated_dataset(rng, n_cells=None, n=None, cluster=False):
    """A random discrete-cell dataset with guaranteed-variation arms."""
    if n_cells is None:
        n_cells = int(rng.integers(2, 8))
    if n is None:
        n = int(rng.integers(40 * n_cells, 200 * n_cells))
    cell = rng.integers(0, n_cells, size=n)
    q = rng.uniform(0.25, 0.75, size=n_cells)
    z = (rng.random(n) < q[cell]).astype(int)
    base = rng.uniform(0.05, 0.45, size=n_cells)
    lift = rng.uniform(0.1, 0.5, size=n_cells)
    p_d = base[cell] + lift[cell] * z
    d = (rng.random(n) < p_d).astype(int)
    effect = rng.normal(2.0, 1.0, size=n_cells)
    y = effect[cell] * d + rng.normal(size=n) + 0.3 * cell
    cl = rng.integers(0, max(4, n // 25), size=n) if cluster else None
    return Dataset(y=y, d=d, z=z, x=cell.astype(float), cluster=cl)


PIN_KINDS = ("cells", "degenerate", "single")


def pinning_cells(kind, seed):
    """Small clustered saturated designs for pinning estimates and SEs.

    "cells" draws 2-7 cells, "degenerate" leaves cell 3 a single control
    row so min_arm_size=2 excludes it while its rows stay in the data,
    and "single" has one cell.
    """
    rng = np.random.default_rng(seed)
    n_cells = {"cells": int(rng.integers(2, 8)), "degenerate": 4,
               "single": 1}[kind]
    ds = random_saturated_dataset(rng, n_cells=n_cells, n=60 * n_cells,
                                  cluster=True)
    if kind == "degenerate":
        ctrl = np.flatnonzero((ds.x[:, 0] == 3.0) & (ds.z == 0))
        keep = np.ones(ds.n, dtype=bool)
        keep[ctrl[1:]] = False
        ds = ds.subset(keep)
    ct = build_cells(ds, min_arm_size=2)
    assert ct.degenerate[3] if kind == "degenerate" else not ct.degenerate.any()
    return ct


def retained_arrays(ct):
    """y, d, z, explicit cell dummies and cluster labels of the retained rows."""
    ds = ct.source
    rows = ct.retained[ct.assignments]
    cells = np.flatnonzero(ct.retained)
    dummies = (ct.assignments[rows][:, None] == cells[None, :]).astype(float)
    cluster = None if ds.cluster is None else ds.cluster[rows]
    return (ds.y[rows], ds.d[rows].astype(float), ds.z[rows].astype(float),
            dummies, cluster)


def test_hand_fixture_estimates(hand_ct):
    late = estimate_beta_late_saturated(hand_ct)
    iv = estimate_beta_iv(hand_ct)
    ai = estimate_beta_ai(hand_ct)
    assert abs(late.estimate - 5.0) < 1e-12
    assert abs(iv.estimate - 5.0) < 1e-12
    assert abs(ai.estimate - 4.2) < 1e-12


def test_hand_fixture_weights(hand_ct):
    wt = decompose_weights(hand_ct)
    np.testing.assert_allclose(wt.w_late, [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(wt.w_iv, [2 / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(wt.w_ai, [4 / 5, 1 / 5], atol=1e-12)
    np.testing.assert_allclose(wt.tau, [3.0, 9.0], atol=1e-12)


def test_trial_fixture_estimates(trial_ct):
    assert abs(estimate_beta_late_saturated(trial_ct).estimate - 4.022) < 5e-4
    assert abs(estimate_beta_iv(trial_ct).estimate - 2.790) < 5e-4
    assert abs(estimate_beta_ai(trial_ct).estimate - 2.268) < 5e-4


def test_trial_fixture_weights(trial_ct):
    wt = decompose_weights(trial_ct)
    np.testing.assert_allclose(wt.w_late, [0.351, 0.401, 0.248], atol=5e-4)
    np.testing.assert_allclose(wt.w_iv, [0.600, 0.151, 0.249], atol=5e-4)
    np.testing.assert_allclose(wt.w_ai, [0.723, 0.112, 0.165], atol=5e-4)


@pytest.mark.parametrize("seed", range(20))
def test_weight_identity_random_instances(seed):
    """Each estimator equals its weighted average of cell effects exactly."""
    rng = np.random.default_rng(1000 + seed)
    ds = random_saturated_dataset(rng)
    ct = build_cells(ds, min_arm_size=1)
    wt = decompose_weights(ct)
    for fam, fn in (("late", estimate_beta_late_saturated),
                    ("iv", estimate_beta_iv), ("ai", estimate_beta_ai)):
        est = fn(ct).estimate
        assert abs(wt.dot(fam) - est) < 1e-8, (fam, seed)


@pytest.mark.parametrize("seed", range(5))
def test_weights_match_hand_recount(seed):
    rng = np.random.default_rng(2000 + seed)
    ds = random_saturated_dataset(rng, n_cells=3)
    ct = build_cells(ds, min_arm_size=1)
    if ct.degenerate.any():
        pytest.skip("degenerate draw")
    wt = decompose_weights(ct)
    _, keep, by_hand = cell_weights_by_hand(
        list(ds.y), list(ds.d), list(ds.z), list(ds.x[:, 0]))
    np.testing.assert_allclose(wt.w_late, by_hand["late"], atol=1e-10)
    np.testing.assert_allclose(wt.w_iv, by_hand["iv"], atol=1e-10)
    np.testing.assert_allclose(wt.w_ai, by_hand["ai"], atol=1e-10)


def test_weights_sum_to_one(trial_ct):
    wt = decompose_weights(trial_ct)
    for w in (wt.w_late, wt.w_iv, wt.w_ai):
        assert abs(np.nansum(w) - 1.0) < 1e-12


def test_single_cell_all_estimators_equal_wald():
    rng = np.random.default_rng(7)
    n = 300
    z = rng.integers(0, 2, n)
    d = ((rng.random(n) < 0.3 + 0.4 * z)).astype(int)
    y = 2.0 * d + rng.normal(size=n)
    ds = Dataset(y=y, d=d, z=z, x=np.empty((n, 0)))
    ct = build_cells(ds)
    wald = wald_by_hand(list(y), list(d), list(z))
    for fn in (estimate_beta_late_saturated, estimate_beta_iv,
               estimate_beta_ai):
        assert abs(fn(ct).estimate - wald) < 1e-10


def test_degenerate_cells_excluded_consistently():
    """All three estimators run on the same retained subsample."""
    rng = np.random.default_rng(42)
    ds = random_saturated_dataset(rng, n_cells=4)
    # make cell 3 degenerate by deleting its control arm
    keep = ~((ds.x[:, 0] == 3.0) & (ds.z == 0))
    ds = ds.subset(keep)
    ct = build_cells(ds, min_arm_size=1)
    assert ct.degenerate[3]
    # estimates equal those computed on the dataset with cell 3 removed
    ds_manual = ds.subset(ds.x[:, 0] != 3.0)
    ct_manual = build_cells(ds_manual, min_arm_size=1)
    for fn in (estimate_beta_late_saturated, estimate_beta_iv,
               estimate_beta_ai):
        a = fn(ct)
        b = fn(ct_manual)
        assert abs(a.estimate - b.estimate) < 1e-12
        assert a.n_used == b.n_used


def test_zero_aggregate_first_stage_raises():
    # two cells with exactly opposite first stages (+1/2 and -1/2) and
    # equal weight, so the aggregate first stage cancels to zero
    y = np.arange(16.0)
    d = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0])
    z = np.array([1, 1, 1, 1, 0, 0, 0, 0] * 2)
    x = np.array([0.0] * 8 + [1.0] * 8)
    ct = build_cells(Dataset(y=y, d=d, z=z, x=x), min_arm_size=1)
    with pytest.raises(IdentificationError, match="zero first stage"):
        estimate_beta_late_saturated(ct)
    with pytest.raises(IdentificationError, match="zero first stage"):
        estimate_beta_iv(ct)
    # squared first stages do not cancel, so the interacted IV is defined
    assert np.isfinite(estimate_beta_ai(ct).estimate)


@pytest.mark.parametrize("se_type", ["classical", "hc0", "hc1", "cluster"])
@pytest.mark.parametrize("kind", PIN_KINDS)
@pytest.mark.parametrize("seed", range(2))
def test_iv_se_matches_dense_dummy_tsls(seed, kind, se_type):
    """beta_iv and beta_ai, estimate and SE, equal 2SLS on the explicit
    cell-dummy design and the pinv oracle to 1e-10 relative."""
    ct = pinning_cells(kind, 3000 + seed)
    y, d, z, dummies, cl = retained_arrays(ct)
    cluster = cl if se_type == "cluster" else None
    for fn, inst in ((estimate_beta_iv, z[:, None]),
                     (estimate_beta_ai, dummies * z[:, None])):
        rep = fn(ct, se_type=se_type)
        fit = tsls(y, dummies, d, inst, se_type=se_type, cluster=cluster)
        beta = fit.coefficients[fit.endog_index]
        se = np.sqrt(fit.vcov[fit.endog_index, fit.endog_index])
        beta_o = dense_tsls(y, dummies, d, inst)[0][-1]
        se_o = np.sqrt(dense_tsls_vcov(y, dummies, d, inst, se_type,
                                       cluster)[-1, -1])
        for want, want_se in ((beta, se), (beta_o, se_o)):
            assert abs(rep.estimate - want) <= 1e-10 * abs(want), fn.__name__
            assert abs(rep.se - want_se) <= 1e-10 * want_se, fn.__name__
        assert rep.se_type == se_type
        assert rep.n_used == len(y)


def test_cluster_se_differs_but_estimate_matches():
    rng = np.random.default_rng(9)
    ds = random_saturated_dataset(rng, n_cells=3, cluster=True)
    ct = build_cells(ds, min_arm_size=1)
    a = estimate_beta_late_saturated(ct)           # cluster by default
    ds_nc = Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x)
    ct_nc = build_cells(ds_nc, min_arm_size=1)
    b = estimate_beta_late_saturated(ct_nc)
    assert a.se_type == "cluster"
    assert b.se_type == "influence"
    assert abs(a.estimate - b.estimate) < 1e-12
    assert a.se != b.se


def test_saturated_cluster_se_factor_pinned():
    """The saturated Wald ratio scales its cluster SE by g/(g-1) only: with
    singleton clusters it is the influence SE times sqrt(m/(m-1)). With one
    cluster it raises, as the closed-form 2SLS estimators do."""
    rng = np.random.default_rng(43)
    ds = random_saturated_dataset(rng, n_cells=3)
    m = ds.n
    plain = estimate_beta_late_saturated(build_cells(ds, min_arm_size=1))
    assert plain.se_type == "influence"
    cts = [build_cells(Dataset(y=ds.y, d=ds.d, z=ds.z, x=ds.x, cluster=labels),
                       min_arm_size=1)
           for labels in (np.arange(m), np.zeros(m, dtype=int))]
    rep = estimate_beta_late_saturated(cts[0])
    assert rep.se_type == "cluster"
    assert rep.estimate == plain.estimate
    assert abs(rep.se - plain.se * np.sqrt(m / (m - 1.0))) <= 1e-12 * plain.se
    with pytest.raises(DomainError, match="at least 2 clusters"):
        estimate_beta_late_saturated(cts[1])
    for fn in (estimate_beta_iv, estimate_beta_ai):
        with pytest.raises(DomainError, match="at least 2 clusters"):
            fn(cts[1], se_type="cluster")


def _saturated_influence(ds):
    """Influence values of the saturated Wald ratio, cell by cell."""
    cell, y, d, z = ds.x[:, 0], ds.y, ds.d.astype(float), ds.z.astype(float)
    m = ds.n
    parts = {}
    for c in np.unique(cell):
        r = cell == c
        one, zero = r & (z == 1), r & (z == 0)
        parts[c] = (r.sum() / m, one.sum() / r.sum(), y[one].mean(), y[zero].mean(),
                    d[one].mean(), d[zero].mean())
    num = sum(p * (my1 - my0) for p, _, my1, my0, _, _ in parts.values())
    den = sum(p * (md1 - md0) for p, _, _, _, md1, md0 in parts.values())
    infl = np.empty(m)
    for i in range(m):
        _, q, my1, my0, md1, md0 = parts[cell[i]]
        psi_num = (z[i] * (y[i] - my1) / q - (1 - z[i]) * (y[i] - my0) / (1 - q)
                   + my1 - my0 - num)
        psi_den = (z[i] * (d[i] - md1) / q - (1 - z[i]) * (d[i] - md0) / (1 - q)
                   + md1 - md0 - den)
        infl[i] = (psi_num - num / den * psi_den) / den
    return infl


@pytest.mark.parametrize("n_groups", [2, 7, None])
def test_saturated_cluster_se_matches_label_loop(n_groups):
    """The cluster SE is the per-label sum of influence values times
    g/(g-1), with labels whose codes have gaps after subsetting."""
    rng = np.random.default_rng(53)
    ds = gapped_cluster_subset(random_saturated_dataset(rng, n_cells=4), n_groups, rng)
    assert len(np.unique(ds.cluster)) == (ds.n if n_groups is None else n_groups)
    ct = build_cells(ds, min_arm_size=1)
    assert ct.retained.all()
    rep = estimate_beta_late_saturated(ct)
    assert rep.se_type == "cluster"
    want = label_loop_cluster_se(_saturated_influence(ds), ds.cluster)
    assert abs(rep.se - want) <= 1e-12 * want


def test_saturated_se_type_validated():
    """Cluster without labels and unknown types raise as the 2SLS
    estimators do; hc0, hc1 and classical give the influence SE."""
    rng = np.random.default_rng(59)
    ct = build_cells(random_saturated_dataset(rng, n_cells=3), min_arm_size=1)
    for fn in (estimate_beta_late_saturated, estimate_beta_iv):
        with pytest.raises(DomainError,
                           match="cluster se requested but no cluster labels given"):
            fn(ct, se_type="cluster")
        with pytest.raises(DomainError, match="unknown se_type 'bogus'"):
            fn(ct, se_type="bogus")
    plain = estimate_beta_late_saturated(ct)
    assert plain.se_type == "influence"
    for se_type in ("hc0", "hc1", "classical"):
        rep = estimate_beta_late_saturated(ct, se_type=se_type)
        assert (rep.se_type, rep.se, rep.estimate) == ("influence", plain.se, plain.estimate)


def test_influence_se_close_to_delta_wald_single_cell():
    """With one cell the influence SE matches the classic Wald delta SE."""
    rng = np.random.default_rng(31)
    n = 5000
    z = rng.integers(0, 2, n)
    d = ((rng.random(n) < 0.2 + 0.5 * z)).astype(int)
    y = 1.5 * d + rng.normal(size=n)
    ds = Dataset(y=y, d=d, z=z, x=np.empty((n, 0)))
    ct = build_cells(ds)
    rep = estimate_beta_late_saturated(ct)
    # delta-method SE computed from scratch
    m1, m0 = z == 1, z == 0
    num = y[m1].mean() - y[m0].mean()
    den = d[m1].mean() - d[m0].mean()
    beta = num / den
    e = (y - np.where(m1, y[m1].mean(), y[m0].mean())
         - beta * (d - np.where(m1, d[m1].mean(), d[m0].mean())))
    q = m1.mean()
    infl = (np.where(m1, e / q, -e / (1 - q))) / den
    se_ref = np.sqrt(np.sum(infl**2)) / n
    assert abs(rep.se - se_ref) / se_ref < 1e-10


def test_report_to_dict(trial_ct):
    d = estimate_beta_iv(trial_ct).to_dict()
    assert d["estimand"] == "beta_iv"
    assert d["n_used"] == 58
    assert d["cells_used"] == 3


def test_classical_se_without_residual_degrees_of_freedom_raises():
    """One cell of one row per arm leaves n - cells - 1 = 0 degrees of
    freedom; the classical SE refuses, the other types do not need them."""
    ds = Dataset(y=[1.0, 0.0], d=[1, 0], z=[1, 0], x=[0.0, 0.0])
    ct = build_cells(ds, min_arm_size=1)
    for estimate in (estimate_beta_iv, estimate_beta_ai):
        with pytest.raises(DomainError, match="no residual degrees of freedom "
                                              "for classical se"):
            estimate(ct, se_type="classical")
        assert estimate(ct, se_type="hc0").estimate == 1.0
