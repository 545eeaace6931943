import numpy as np
import pytest

from ivhet import (
    ConfigError,
    Dataset,
    IdentificationError,
    build_cells,
    cell_stats_table,
)

from conftest import two_cell_dataset
from oracles import cell_weights_by_hand, row_sort_cell_keys


def test_hand_fixture_cell_stats(hand_ct):
    ct = hand_ct
    assert ct.n_cells == 2
    np.testing.assert_allclose(ct.p_j, [0.5, 0.5])
    np.testing.assert_allclose(ct.q_j, [0.5, 0.5])
    np.testing.assert_allclose(ct.var_z_j, [0.25, 0.25])
    np.testing.assert_allclose(ct.pi_j, [2 / 3, 1 / 3])
    np.testing.assert_allclose(ct.dy_j, [2.0, 3.0])
    np.testing.assert_allclose(ct.tau_j, [3.0, 9.0])
    assert not ct.degenerate.any()


def test_hand_fixture_matches_bruteforce_recount(hand_ds):
    ct = build_cells(hand_ds)
    stats, keep, _ = cell_weights_by_hand(
        list(hand_ds.y), list(hand_ds.d), list(hand_ds.z),
        list(hand_ds.x[:, 0]))
    for j, c in enumerate(sorted(stats)):
        assert stats[c]["n"] == ct.n_j[j]
        assert abs(stats[c]["q"] - ct.q_j[j]) < 1e-12
        assert abs(stats[c]["pi"] - ct.pi_j[j]) < 1e-12
        assert abs(stats[c]["tau"] - ct.tau_j[j]) < 1e-12


def test_cells_sorted_lexicographically():
    y = np.arange(8.0)
    d = np.array([0, 1] * 4)
    z = np.array([0, 1, 1, 0] * 2)
    x = np.array([[2.0, 1.0], [1.0, 5.0], [1.0, 2.0], [2.0, 1.0],
                  [1.0, 5.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0]])
    ds = Dataset(y=y, d=d, z=z, x=x)
    ct = build_cells(ds, min_arm_size=1, min_cell_size=1)
    assert [tuple(k) for k in ct.keys] == [(1.0, 2.0), (1.0, 5.0), (2.0, 1.0)]


def test_thin_arm_marks_degenerate():
    # second cell's z=0 arm has a single row, below the default minimum
    y = np.arange(12.0)
    d = np.array([1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0])
    z = np.array([1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0])
    x = np.array([0.0] * 6 + [1.0] * 6)
    ds = Dataset(y=y, d=d, z=z, x=x)
    ct = build_cells(ds)  # min_arm_size defaults to 3
    assert not ct.degenerate[0]
    assert ct.degenerate[1]
    ct1 = build_cells(ds, min_arm_size=1)
    assert not ct1.degenerate.any()


def test_missing_arm_marks_degenerate():
    y = np.arange(10.0)
    d = np.array([1, 0, 0, 1, 0, 1, 1, 0, 1, 0])
    z = np.array([1, 1, 1, 0, 0, 1, 1, 1, 1, 1])  # cell 1 has no z=0 rows
    x = np.array([0.0] * 5 + [1.0] * 5)
    ct = build_cells(Dataset(y=y, d=d, z=z, x=x), min_arm_size=1)
    assert not ct.degenerate[0]
    assert ct.degenerate[1]


def test_zero_first_stage_marks_degenerate():
    y = np.arange(12.0)
    # cell 0: pi = 0 exactly (same treated share in both arms)
    d = np.array([1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0])
    z = np.array([1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    x = np.array([0.0] * 6 + [1.0] * 6)
    ct = build_cells(Dataset(y=y, d=d, z=z, x=x))
    assert ct.degenerate[0]
    assert not ct.degenerate[1]
    assert np.isnan(ct.tau_j[0])


def test_all_degenerate_raises():
    y = np.arange(4.0)
    d = np.array([1, 1, 0, 0])
    z = np.array([1, 1, 1, 1])
    x = np.zeros(4)
    with pytest.raises(IdentificationError):
        build_cells(Dataset(y=y, d=d, z=z, x=x), min_arm_size=1)


def test_no_covariates_single_cell():
    y = np.arange(10.0)
    d = np.array([1, 0] * 5)
    z = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
    ds = Dataset(y=y, d=d, z=z, x=np.empty((10, 0)))
    ct = build_cells(ds)
    assert ct.n_cells == 1
    assert ct.n_j[0] == 10


def test_cardinality_warning():
    # two 8-level columns realized along the diagonal: 8 actual cells of 6
    # rows each, but a potential grid of 64 > 48 rows
    reps = 6
    codes = np.repeat(np.arange(8.0), reps)
    x = np.column_stack([codes, codes])
    n = codes.size
    d = np.tile([1, 1, 0, 0, 0, 1], 8)
    z = np.tile([1, 1, 1, 0, 0, 0], 8)
    ds = Dataset(y=np.arange(float(n)), d=d, z=z, x=x)
    ct = build_cells(ds, min_arm_size=1)
    assert any("cardinality" in w for w in ct.warnings)


def test_continuous_covariates_all_degenerate():
    rng = np.random.default_rng(0)
    n = 30
    x = np.column_stack([rng.normal(size=n), rng.normal(size=n)])
    d = np.array([1, 0] * 15)
    z = np.array([1, 0] * 15)
    ds = Dataset(y=rng.normal(size=n), d=d, z=z, x=x)
    with pytest.raises(IdentificationError):
        # every cell is a single row, so everything is degenerate
        build_cells(ds, min_arm_size=1)


def test_min_sizes_validated(hand_ds):
    with pytest.raises(ConfigError):
        build_cells(hand_ds, min_arm_size=0)
    with pytest.raises(ConfigError):
        build_cells(hand_ds, min_cell_size=0)


def test_small_cell_marks_degenerate(trial_ds):
    # trial cells have 14, 26 and 18 rows; a 15-row floor drops the first
    ct = build_cells(trial_ds, min_cell_size=15, min_arm_size=1)
    assert ct.degenerate.tolist() == [True, False, False]
    with pytest.raises(IdentificationError):
        build_cells(trial_ds, min_cell_size=27, min_arm_size=1)


def test_stats_table_text_and_json(trial_ct):
    rep = cell_stats_table(trial_ct)
    text = rep.to_text()
    assert "0.241" in text and "0.448" in text and "0.310" in text
    assert "0.455" in text and "0.280" in text and "0.250" in text
    assert "1.067" in text and "6.000" in text and "5.000" in text
    assert "0.168" in text and "0.037" in text and "0.099" in text
    js = rep.to_json()
    assert '"n": 26' in js


def test_assignment_roundtrip(trial_ds, trial_ct):
    # every row's assigned cell key equals its covariate row
    for i in range(trial_ds.n):
        j = trial_ct.assignments[i]
        np.testing.assert_array_equal(trial_ct.keys[j], trial_ds.x[i])


def _keys_dataset(x):
    """x with 40 more rows in the first row's cell, where both arms and
    the first stage are nonzero, so some cell is always retained."""
    x = np.vstack([np.repeat(x[:1], 40, axis=0), x])
    n = x.shape[0]
    z = np.arange(n) % 2
    return Dataset(y=np.arange(float(n)), d=z, z=z, x=x)


@pytest.mark.parametrize("design", ["random", "signed_zero", "one_column",
                                    "refactorize", "cardinality"])
def test_cell_keys_match_row_sort(design):
    """Per-column factorization gives the keys, int64 assignments and
    warnings of one unique over whole rows, on random multi-column data,
    -0.0 beside 0.0, a single column, codes that must be refactorized to
    stay inside int64, and grids on both sides of the row count."""
    rng = np.random.default_rng(31)
    if design == "random":
        xs = [rng.integers(-3, 4, size=(int(rng.integers(2, 300)), k))
              * rng.choice([1.0, 0.5, -0.0, 1e9], size=k)
              for k in rng.integers(1, 5, size=40)]
    elif design == "signed_zero":
        xs = [np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0],
                        [1.0, -0.0]])]
    elif design == "one_column":
        xs = [rng.integers(0, 7, size=(500, 1)).astype(float),
              rng.normal(size=(60, 1))]
    elif design == "refactorize":
        # 2,000**6 > 2**63: the running code is refactorized before column 6
        xs = [rng.integers(0, 2000, size=(5000, 6)).astype(float)]
    else:
        # two 8-level columns on 24 or 23 rows, 64 or 63 with the 40 added:
        # no warning when the 64-cell grid equals the row count, one when it
        # exceeds it by one
        xs = [np.column_stack([np.arange(m) % 8, np.arange(m) // 3 % 8]) * 1.0
              for m in (24, 23)]
    warned = set()
    for x in xs:
        ds = _keys_dataset(x)
        keys, assignments, warnings = row_sort_cell_keys(ds.x)
        ct = build_cells(ds, min_arm_size=1)
        assert ct.keys == keys
        assert ct.assignments.dtype == np.int64
        np.testing.assert_array_equal(ct.assignments, assignments)
        assert ct.warnings == warnings
        # == does not tell -0.0 from 0.0
        assert np.array_equal(np.signbit(ct.keys), np.signbit(keys))
        warned.add(bool(warnings))
    if design == "cardinality":
        assert warned == {False, True}
