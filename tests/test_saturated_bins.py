"""The saturated estimators' closed forms on the (z, cell, d) bin table,
checked against the row-by-row formulas of tests/oracles.py."""

import tracemalloc

import numpy as np
import pytest

from ivhet import (
    Dataset,
    DomainError,
    IdentificationError,
    LeverageError,
    build_cells,
    estimate_beta_ai,
    estimate_beta_iv,
    estimate_beta_late_saturated,
    jive,
    many_tsls,
    ujive,
)

from oracles import row_saturated

ESTIMATORS = {
    "beta_late_saturated": estimate_beta_late_saturated,
    "beta_iv": estimate_beta_iv,
    "beta_ai": estimate_beta_ai,
    "tsls": many_tsls,
    "jive": jive,
    "ujive": ujive,
}
ORACLE_NAME = {"tsls": "beta_ai"}
RTOL = 1e-12


def bin_design(rng, kind, labels=None, shift=0.0):
    """Random saturated data.

    "cells" has 2-12 cells of mixed sizes, with some cells missing an arm,
    holding one row in an arm, or treating everyone alike (a zero first
    stage); "thin" gives most cells arms of 1-4 rows; "single" has one
    cell. labels is None, "gapped" (integer labels with gaps), "strings" or
    "singletons". y is shift plus a unit-scale outcome.
    """
    n_cells = {"cells": int(rng.integers(2, 13)), "thin": int(rng.integers(3, 9)),
               "single": 1}[kind]
    sizes = rng.integers(2, 120, size=n_cells)
    if kind == "thin":
        sizes = rng.integers(2, 9, size=n_cells)
        sizes[0] = 60
    cell = np.repeat(np.arange(n_cells), sizes)
    n = cell.size
    q = rng.uniform(0.2, 0.8, size=n_cells)
    if kind == "cells":
        q[rng.integers(0, n_cells)] = rng.choice([0.0, 1.0])
    z = (rng.random(n) < q[cell]).astype(int)
    if kind != "single":
        lone = np.flatnonzero(cell == rng.integers(0, n_cells))
        z[lone] = 0
        z[lone[:1]] = 1                  # one row alone in its z = 1 arm
    base = rng.uniform(0.05, 0.4, size=n_cells)
    lift = rng.uniform(0.2, 0.5, size=n_cells)
    d = (rng.random(n) < base[cell] + lift[cell] * z).astype(int)
    if kind == "cells":
        d[cell == rng.integers(0, n_cells)] = 1
    effect = rng.normal(1.0, 1.0, size=n_cells)
    y = shift + (effect[cell] * d + 0.3 * cell + rng.normal(size=n))
    if labels is None:
        cluster = None
    else:
        g = n if labels == "singletons" else int(rng.integers(2, 25))
        codes = rng.permutation(np.arange(n) % g)
        cluster = {"gapped": 7 * codes - 3, "singletons": 5 * codes,
                   "strings": np.array([f"site-{c:03d}" for c in codes])}[labels]
    x = cell.astype(float) if n_cells > 1 else np.empty((n, 0))
    return Dataset(y=y, d=d, z=z, x=x, cluster=cluster)


def _outcome(fn, *args):
    """(estimate, se), or the error type the call raised."""
    try:
        out = fn(*args)
    except (DomainError, IdentificationError, LeverageError, ZeroDivisionError,
            FloatingPointError) as exc:
        return type(exc)
    return (out.estimate, out.se) if hasattr(out, "se") else out


def _close(got, want):
    return all(abs(g - w) <= RTOL * abs(w) for g, w in zip(got, want))


@pytest.mark.parametrize("labels", [None, "gapped", "strings", "singletons"])
@pytest.mark.parametrize("kind", ["cells", "thin", "single"])
def test_bin_closed_forms_match_row_formulas(kind, labels):
    """Every saturated estimator, estimate and SE, equals its row-by-row
    formula to 1e-12 relative for each SE type, or both raise alike; the
    jackknife estimators refuse singleton arms and classical SEs."""
    rng = np.random.default_rng(["cells", "thin", "single"].index(kind) * 10
                                + [None, "gapped", "strings", "singletons"].index(labels))
    compared = 0
    se_types = ["classical", "hc0", "hc1"] + (["cluster"] if labels else [])
    for _ in range(6):
        ds = bin_design(rng, kind, labels)
        for min_arm in (1, 2, 3):
            try:
                ct = build_cells(ds, min_arm_size=min_arm)
            except IdentificationError:
                continue
            singleton_arm = min(ct.n1_j[ct.retained].min(), ct.n0_j[ct.retained].min()) == 1
            for name, fn in ESTIMATORS.items():
                for se in se_types:
                    got = _outcome(fn, ct, se)
                    if name in ("jive", "ujive") and (se == "classical" or singleton_arm):
                        assert got is (DomainError if se == "classical" else LeverageError)
                        continue
                    with np.errstate(all="raise"):
                        want = _outcome(row_saturated, ct, ORACLE_NAME.get(name, name), se)
                    if isinstance(want, type):
                        assert got is want, (name, se, got, want)
                        continue
                    assert _close(got, want), (name, se, min_arm, got, want)
                    compared += 1
    assert compared >= 60


def test_bin_closed_forms_stay_accurate_far_from_zero():
    """With y = 1e6 + (a unit-scale outcome), every saturated estimator's
    estimate and SE, the saturated LATE and cluster SEs included, equals
    its row formula on y - 1e6, an exact shift, to 1e-12: the bin sums are
    taken about means, so nothing of size 1e6 cancels. The centered sums
    of squares match those of the shifted data."""
    rng = np.random.default_rng(77)
    checked = 0
    for labels in (None, "gapped"):
        for _ in range(4):
            big = bin_design(rng, "cells", labels, shift=1e6)
            small = Dataset(y=big.y - 1e6, d=big.d, z=big.z, x=big.x,
                            cluster=big.cluster)
            try:
                ct, ct_small = (build_cells(v, min_arm_size=2) for v in (big, small))
            except IdentificationError:
                continue
            assert np.array_equal(ct.n_b, ct_small.n_b)
            full = ct.n_b > 1
            np.testing.assert_allclose(ct.ss_y_b[full], ct_small.ss_y_b[full],
                                       rtol=1e-12)
            for se in ("hc1", "cluster") if labels else ("classical", "hc0", "hc1"):
                for name, fn in ESTIMATORS.items():
                    if name in ("jive", "ujive") and se == "classical":
                        continue
                    got = _outcome(fn, ct, se)
                    want = _outcome(row_saturated, ct_small, ORACLE_NAME.get(name, name),
                                    se)
                    assert _close(got, want), (name, se, got, want)
                    checked += 1
    assert checked >= 40


@pytest.mark.parametrize("shift", [0.0, -3e5])
def test_bin_table_equals_per_bin_loop(shift):
    """n_b, the sums of y less its arm's mean in the table and the centered
    sums of squares equal a Python loop over each (z, cell, d) bin, empty
    bins included, and the arm counts are the bins' totals."""
    rng = np.random.default_rng(5)
    for kind in ("cells", "thin", "single"):
        ds = bin_design(rng, kind, shift=shift)
        try:
            ct = build_cells(ds, min_arm_size=1)
        except IdentificationError:
            continue
        assert ct.n_b.shape == (2, ct.n_cells, 2) and ct.n_b.dtype == np.int64
        assert np.array_equal(ct.n_b.sum(axis=2), np.stack([ct.n0_j, ct.n1_j]))
        for j in range(ct.n_cells):
            for z in (0, 1):
                arm = (ct.assignments == j) & (ds.z == z)
                for d in (0, 1):
                    y = ds.y[arm & (ds.d == d)]
                    assert ct.n_b[z, j, d] == y.size
                    if not y.size:
                        assert ct.dev_y_b[z, j, d] == 0.0 == ct.ss_y_b[z, j, d]
                        continue
                    # about the table's own arm mean
                    arm_mean = (ct.mean_y0_j, ct.mean_y1_j)[z][j]
                    assert abs(ct.dev_y_b[z, j, d] - np.sum(y - arm_mean)) <= 1e-12 * y.size
                    ss = float(np.sum((y - y.mean()) ** 2))
                    assert abs(ct.ss_y_b[z, j, d] - ss) <= 1e-12 * ss + 1e-12


def test_saturated_estimators_allocate_no_row_arrays():
    """Without clusters no saturated estimator allocates an array as long
    as the rows: each call's tracemalloc peak stays below a quarter of one
    float64 row column."""
    rng = np.random.default_rng(3)
    n, n_cells = 400_000, 50
    cell = rng.integers(0, n_cells, size=n)
    z = rng.integers(0, 2, size=n)
    d = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    ds = Dataset(y=d + rng.normal(size=n), d=d, z=z, x=cell.astype(float))
    ct = build_cells(ds)
    for name, fn in ESTIMATORS.items():
        tracemalloc.start()
        fn(ct, "hc1")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * n / 4, (name, peak)
