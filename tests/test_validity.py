import tracemalloc

import numpy as np
import pytest

from ivhet import validity
from ivhet import (
    CellSpec,
    ConfigError,
    DGPSpec,
    Dataset,
    IvhetError,
    OutcomeSetPartition,
    UndefinedTestError,
    bp_test,
    build_cells,
    first_stage_nonneg_test,
    generate,
    mw_test,
)
from ivhet.validity import validity_family

from oracles import (
    dense_bootstrap,
    dense_bp_moments,
    dense_first_stage_moments,
    dense_max_violation_test,
    dense_mw_moments,
)


def valid_spec(seed=1):
    mk = lambda share, q, types: CellSpec(
        share=share, q=q, types=types,
        y0={"never": 0.0, "complier": 1.0, "always": 2.0},
        y1={"complier": 2.0, "always": 3.0},
    )
    return DGPSpec(cells=(
        mk(0.25, 0.5, (0.4, 0.3, 0.3, 0.0)),
        mk(0.25, 0.6, (0.5, 0.2, 0.3, 0.0)),
        mk(0.25, 0.4, (0.3, 0.4, 0.3, 0.0)),
        mk(0.25, 0.5, (0.6, 0.2, 0.2, 0.0)),
    ), seed=seed)


# ---------------------------------------------------------------- partition

def test_partition_validation():
    with pytest.raises(ConfigError):
        OutcomeSetPartition((1.0,))
    with pytest.raises(ConfigError):
        OutcomeSetPartition((1.0, 1.0))
    with pytest.raises(ConfigError):
        OutcomeSetPartition((2.0, 1.0))


def test_partition_candidates_all_pairs():
    p = OutcomeSetPartition((0.0, 1.0, 2.0))
    cands = list(p.candidates())
    assert len(cands) == 3 == p.n_candidates
    assert (0.0, 2.0) in [(a, b) for a, b, _ in cands]


def test_partition_from_support():
    y = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
    p = OutcomeSetPartition.from_support(y)
    assert p.cut_points[:3] == (1.0, 2.0, 3.0)
    assert p.cut_points[3] > 3.0
    # the widest candidate covers every observed value
    lo, hi = p.cut_points[0], p.cut_points[-1]
    assert ((y >= lo) & (y < hi)).all()


def test_partition_from_deciles_covers():
    rng = np.random.default_rng(0)
    y = rng.normal(size=500)
    p = OutcomeSetPartition.from_deciles(y)
    lo, hi = p.cut_points[0], p.cut_points[-1]
    assert ((y >= lo) & (y < hi)).all()
    assert len(p.cut_points) == 11


def test_partition_auto_switches_on_support_size():
    y_small = np.array([0.0, 1.0, 2.0] * 50)
    assert len(OutcomeSetPartition.auto(y_small).cut_points) == 4
    rng = np.random.default_rng(1)
    y_cont = rng.normal(size=300)
    assert len(OutcomeSetPartition.auto(y_cont).cut_points) == 11


def test_ensure_covers_extends():
    p = OutcomeSetPartition((0.0, 1.0))
    y = np.array([-1.0, 0.5, 2.0])
    q = p.ensure_covers(y)
    assert q.cut_points[0] <= -1.0
    assert q.cut_points[-1] > 2.0


# ------------------------------------------------------------------- tests

def test_valid_dgp_not_rejected():
    ds, _ = generate(valid_spec(), 2000)
    ct = build_cells(ds)
    assert bp_test(ds, ct, reps=199, seed=0).p_value > 0.05
    assert mw_test(ds, ct, reps=199, seed=0).p_value > 0.05
    assert first_stage_nonneg_test(ct, reps=199, seed=0).p_value > 0.05


def test_deterministic_given_seed():
    ds, _ = generate(valid_spec(), 1000)
    ct = build_cells(ds)
    a = bp_test(ds, ct, reps=99, seed=3)
    b = bp_test(ds, ct, reps=99, seed=3)
    assert a.p_value == b.p_value and a.statistic == b.statistic
    c = bp_test(ds, ct, reps=99, seed=4)
    assert a.statistic == c.statistic  # statistic ignores the seed


def test_exclusion_violation_rejected_by_bp_and_mw():
    spec = DGPSpec(cells=valid_spec().cells, exclusion_shift=3.0, seed=1)
    ds, _ = generate(spec, 5000)
    ct = build_cells(ds)
    assert bp_test(ds, ct, reps=199, seed=0).p_value < 0.05
    assert mw_test(ds, ct, reps=199, seed=0).p_value < 0.05


def test_defiers_rejected_by_first_stage_test():
    cells = list(valid_spec().cells)
    cells[3] = CellSpec(share=0.25, q=0.5, types=(0.0, 0.3, 0.3, 0.4),
                        y0=cells[3].y0, y1=cells[3].y1)
    spec = DGPSpec(cells=tuple(cells), allow_defiers=True, seed=1)
    ds, _ = generate(spec, 5000)
    ct = build_cells(ds)
    rep = first_stage_nonneg_test(ct, reps=199, seed=0)
    assert rep.p_value < 0.05
    assert rep.worst_set == "(3)"


def test_worst_set_tie_goes_to_first_moment_in_label_order():
    """Two bit-identical cells carry bit-identical moments, so every
    maximum is attained in both; worst_set names the first, in cell 0."""
    cell = CellSpec(share=1.0, q=0.5, types=(0.4, 0.3, 0.3, 0.0),
                    y0={"never": 0.0, "complier": 1.0, "always": 2.0},
                    y1={"complier": 2.0, "always": 3.0})
    one, _ = generate(DGPSpec(cells=(cell,), exclusion_shift=3.0, seed=1), 800)
    twice = Dataset(y=np.tile(one.y, 2), d=np.tile(one.d, 2),
                    z=np.tile(one.z, 2), x=np.repeat([0.0, 1.0], one.n))
    ct_one, ct_twice = build_cells(one), build_cells(twice)
    assert ct_twice.n_cells == 2
    pairs = [(bp_test(one, ct_one, reps=99), bp_test(twice, ct_twice, reps=99)),
             (mw_test(one, ct_one, reps=99), mw_test(twice, ct_twice, reps=99)),
             (first_stage_nonneg_test(ct_one, reps=99),
              first_stage_nonneg_test(ct_twice, reps=99))]
    for single, doubled in pairs:
        assert doubled.n_moments == 2 * single.n_moments
        assert doubled.statistic == single.statistic
        assert "(0)" in doubled.worst_set
        assert doubled.worst_set == single.worst_set


def test_mw_equals_bp_on_full_interval():
    """On the single full-range outcome set the two tests coincide: same
    statistic and identical bootstrap draws, hence the same p-value."""
    ds, _ = generate(valid_spec(), 1500)
    auto = OutcomeSetPartition.auto(ds.y)
    full = OutcomeSetPartition((auto.cut_points[0], auto.cut_points[-1]))
    a = bp_test(ds, None, full, reps=299, seed=11)
    b = mw_test(ds, None, full, reps=299, seed=11)
    assert abs(a.statistic - b.statistic) < 1e-12
    assert a.p_value == b.p_value


def test_statistic_weakly_increases_with_refinement():
    """Adding cut points only adds candidate moments, so the max-violation
    statistic cannot fall."""
    ds, _ = generate(valid_spec(seed=5), 1200)
    coarse = OutcomeSetPartition((0.0, 2.0, np.nextafter(3.0, np.inf)))
    fine = OutcomeSetPartition(
        (0.0, 1.0, 2.0, 3.0, np.nextafter(3.0, np.inf)))
    a = bp_test(ds, None, coarse, reps=99, seed=0)
    b = bp_test(ds, None, fine, reps=99, seed=0)
    assert b.statistic >= a.statistic - 1e-12
    assert b.n_moments > a.n_moments


def test_skipped_moments_counted():
    # outcome support {0,1}: sets [0,1), [1,2), [0,2); in the z=0 arm only
    # treated rows exist for y=1, so some mw cells are one-arm-empty
    y = np.array([0.0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0])
    d = np.array([1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0])
    z = np.array([1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    ds = Dataset(y=y, d=d, z=z, x=np.empty((12, 0)))
    rep = mw_test(ds, None, reps=99, seed=0)
    assert rep.n_moments + rep.n_skipped == 3
    assert rep.n_moments >= 1


def test_all_skipped_raises():
    y = np.array([0.0, 0, 1, 1])
    d = np.array([0, 0, 1, 1])
    z = np.array([1, 1, 1, 1])
    ds = Dataset(y=y, d=d, z=z, x=np.empty((4, 0)))
    with pytest.raises(UndefinedTestError):
        mw_test(ds, None, reps=9, seed=0)


def test_report_to_dict():
    ds, _ = generate(valid_spec(), 800)
    rep = bp_test(ds, None, reps=49, seed=0)
    d = rep.to_dict()
    assert d["test"] == "bp_test"
    assert d["bootstrap_reps"] == 49
    assert "cut_points" in d


def test_unconditional_vs_conditional_moment_counts():
    ds, _ = generate(valid_spec(), 1500)
    ct = build_cells(ds)
    uncond = bp_test(ds, None, reps=49, seed=0)
    cond = bp_test(ds, ct, reps=49, seed=0)
    used_cells = int((~ct.degenerate).sum())
    assert cond.n_moments + cond.n_skipped == used_cells * (
        uncond.n_moments + uncond.n_skipped)


@pytest.mark.parametrize("test", ["bp", "mw", "fs"])
def test_bad_reps_or_seed_raise_config_error(test):
    ds, _ = generate(valid_spec(), 400)
    ct = build_cells(ds)
    run = {"bp": lambda **kw: bp_test(ds, ct, **kw),
           "mw": lambda **kw: mw_test(ds, ct, **kw),
           "fs": lambda **kw: first_stage_nonneg_test(ct, **kw)}[test]
    for reps in (0, -1):
        with pytest.raises(ConfigError, match="reps must be at least 1"):
            run(reps=reps, seed=0)
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        run(reps=9, seed=-1)


# ------------------------------------------- binned engine vs dense engine

def _random_design(rng):
    """Odd-n data with 1-4 cells, discrete or continuous outcomes, and
    sometimes a degenerate cell (a one-row control arm) or a sparse cell
    whose outcome sets are empty in one arm."""
    n = 2 * int(rng.integers(40, 250)) + 1
    n_cells = int(rng.integers(1, 5))
    cell = rng.integers(0, n_cells, size=n)
    z = rng.integers(0, 2, size=n)
    d = (rng.random(n) < 0.2 + rng.random() * 0.6 * z).astype(int)
    if rng.random() < 0.5:
        y = rng.integers(0, 3, size=n) + d * rng.integers(0, 2, size=n)
    else:
        y = rng.normal(size=n) + d * rng.random()
    if rng.random() < 0.4:
        # a cell with 5 rows and a single control row is degenerate
        # under min_arm_size=2
        cell[:5] = n_cells
        z[:5] = (1, 1, 1, 1, 0)
    if rng.random() < 0.3:
        # a sparse cell: four rows at one outcome value
        cell[5:9] = n_cells + 1
        z[5:9], d[5:9], y[5:9] = (1, 1, 0, 0), (1, 1, 0, 0), y[9]
    return Dataset(y=y.astype(float), d=d, z=z, x=cell.astype(float))


def _run(fn, *args, **kw):
    """fn's report, or the type of the package error it raised."""
    try:
        return fn(*args, **kw)
    except IvhetError as exc:
        return type(exc)


def _compare(fast_fn, fast_args, moments_fn, moments_args, reps, seed):
    """Run one test on both engines and check that they agree: statistic
    to 1e-12 relative; identical p-value, worst set, moment counts and
    method record, or the same error type.

    Arms of a few rows allow exact ties, which each engine breaks by its
    own last-bit rounding: several moments sharing the largest violation,
    or a draw whose maximum equals the statistic. There the worst set must
    be one of the tied moments, and the p-value must lie between counting
    every tied draw as below the statistic and counting it as above.
    Returns "same", "tie" or "error"."""
    moments, method = moments_fn(*moments_args)
    n_rows = moments[0][2].size     # every moment's values span all rows
    name = fast_fn.__name__
    fast = _run(fast_fn, *fast_args, reps=reps, seed=seed)
    dense = _run(dense_max_violation_test, name, n_rows, moments, reps, seed,
                 method)
    if isinstance(dense, type):
        assert fast is dense
        return "error"
    assert fast.statistic == pytest.approx(dense.statistic, rel=1e-12, abs=0)
    assert (fast.n_moments, fast.n_skipped) == (dense.n_moments, dense.n_skipped)
    assert fast.to_dict().keys() == dense.to_dict().keys()
    assert fast.method == dense.method
    if (fast.worst_set, fast.p_value) == (dense.worst_set, dense.p_value):
        return "same"
    labels, mhat, t_star, _ = dense_bootstrap(name, n_rows, moments, reps, seed)
    stat = dense.statistic
    tied = dict(zip(labels, -mhat))[fast.worst_set]
    assert tied == pytest.approx(stat, rel=1e-12, abs=0)
    near = np.abs(t_star - stat) <= 1e-12 * abs(stat)
    lo = (1 + np.sum((t_star >= stat) & ~near)) / (reps + 1)
    hi = (1 + np.sum((t_star >= stat) | near)) / (reps + 1)
    assert lo <= fast.p_value <= hi
    return "tie"


def test_binned_bootstrap_matches_dense_engine():
    """The per-bin multiplier sums reproduce the dense (n x moments)
    engine: statistic to 1e-12 relative; identical p-value, moment counts,
    worst set (up to exact ties) and error types, with and without cells,
    on support and decile partitions."""
    rng = np.random.default_rng(2024)
    seen = {"same": 0, "tie": 0}
    for _ in range(40):
        ds = _random_design(rng)
        ct = build_cells(ds, min_cell_size=2, min_arm_size=2)
        reps, seed = int(rng.integers(1, 120)), int(rng.integers(0, 1000))
        parts = [None, OutcomeSetPartition.from_deciles(ds.y)]
        if np.unique(ds.y).size <= 12:
            parts.append(OutcomeSetPartition.from_support(ds.y))
        cases = [(first_stage_nonneg_test, (ct,), dense_first_stage_moments,
                  (ct,))]
        for cells in (ct, None):
            for part in parts:
                cases.append((bp_test, (ds, cells, part), dense_bp_moments,
                              (ds, cells, part)))
                cases.append((mw_test, (ds, cells, part), dense_mw_moments,
                              (ds, cells, part)))
        for case in cases:
            seen[_compare(*case, reps, seed)] += 1
    # exact ties need arms of a few rows; they stay rare
    assert seen["same"] > 400 and seen["tie"] <= seen["same"] // 20, seen


def test_binned_bootstrap_matches_dense_on_fixed_designs():
    """Named corner cases: a single retained cell, skipped mw moments, an
    undefined test and the exclusion and defier designs the power checks
    use."""
    # y = 2 only in the z = 1 arm, so mw's set [2, 3) has an empty arm
    y = np.array([0.0, 1, 0, 1, 2, 2, 0, 0, 0, 1, 1, 0, 0])
    d = np.array([1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0])
    z = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    tiny = Dataset(y=y, d=d, z=z, x=np.zeros(13))
    assert mw_test(tiny, None, reps=99, seed=0).n_skipped > 0
    one_cell = build_cells(tiny, min_cell_size=2, min_arm_size=1)
    assert one_cell.n_cells == 1
    cases = []
    for cells in (None, one_cell):
        cases += [(bp_test, (tiny, cells), dense_bp_moments, (tiny, cells)),
                  (mw_test, (tiny, cells), dense_mw_moments, (tiny, cells))]
    cases.append((first_stage_nonneg_test, (one_cell,),
                  dense_first_stage_moments, (one_cell,)))

    cells = list(valid_spec().cells)
    cells[3] = CellSpec(share=0.25, q=0.5, types=(0.0, 0.3, 0.3, 0.4),
                        y0=cells[3].y0, y1=cells[3].y1)
    for spec in (DGPSpec(cells=valid_spec().cells, exclusion_shift=3.0, seed=1),
                 DGPSpec(cells=tuple(cells), allow_defiers=True, seed=1)):
        ds, _ = generate(spec, 1501)
        ct = build_cells(ds)
        cases += [(bp_test, (ds, ct), dense_bp_moments, (ds, ct)),
                  (mw_test, (ds, ct), dense_mw_moments, (ds, ct)),
                  (first_stage_nonneg_test, (ct,), dense_first_stage_moments,
                   (ct,))]
    for case in cases:
        assert _compare(*case, 99, 5) == "same"

    # every mw moment has an empty arm: both engines raise the same error
    empty = Dataset(y=[0.0, 0, 1, 1], d=[0, 0, 1, 1], z=[1, 1, 1, 1],
                    x=np.empty((4, 0)))
    assert _compare(mw_test, (empty,), dense_mw_moments, (empty,), 9, 0) == "error"


def test_chunked_draws_match_single_chunk(monkeypatch):
    """Splitting the draws into chunks of 3 rows, with a ragged last chunk
    of 2, leaves every report bit for bit as one chunk gives it."""
    ds, _ = generate(valid_spec(seed=7), 1201)
    ct = build_cells(ds)
    runs = {}
    for chunk_rows in (3, 1000):
        monkeypatch.setattr(validity, "_CHUNK_BYTES", 8 * ds.n * chunk_rows)
        runs[chunk_rows] = [bp_test(ds, ct, reps=50, seed=4),
                            bp_test(ds, None, reps=50, seed=4),
                            mw_test(ds, ct, reps=50, seed=4),
                            first_stage_nonneg_test(ct, reps=50, seed=4)]
    assert runs[3] == runs[1000]
    # at least one p-value away from both ends, where any draw counts
    assert any(1 / 51 < r.p_value < 1 for r in runs[3])


def _separate(ds, ct, partition, reps, seed):
    """The separate public calls in the order the CLI runs them, or the
    type and message of the first error."""
    calls = [lambda: bp_test(ds, ct, partition, reps=reps, seed=seed),
             lambda: mw_test(ds, ct, partition, reps=reps, seed=seed)]
    if ct is not None:
        calls.append(lambda: first_stage_nonneg_test(ct, reps=reps, seed=seed))
    try:
        return [call() for call in calls]
    except IvhetError as exc:
        return type(exc), str(exc)


def _family(ds, ct, partition, reps, seed):
    try:
        return validity_family(ds, ct, partition, reps=reps, seed=seed)
    except IvhetError as exc:
        return type(exc), str(exc)


def test_family_equals_separate_calls():
    """One multiplier stream for the whole family gives each report field
    for field as its own call gives it, with and without cells, on auto,
    decile and user cut points, including degenerate cells."""
    rng = np.random.default_rng(909)
    degenerate = 0
    for _ in range(30):
        ds = _random_design(rng)
        ct = build_cells(ds, min_cell_size=2, min_arm_size=2)
        degenerate += bool(ct.degenerate.any())
        reps, seed = int(rng.integers(1, 80)), int(rng.integers(0, 1000))
        parts = (None, OutcomeSetPartition.from_deciles(ds.y),
                 OutcomeSetPartition((-0.5, 0.5, 1.5)))
        for cells in (ct, None):
            for part in parts:
                want = _separate(ds, cells, part, reps, seed)
                assert isinstance(want, list)
                assert _family(ds, cells, part, reps, seed) == want
    assert degenerate >= 5


def test_family_equals_separate_calls_on_fixed_designs(monkeypatch):
    """A single retained cell, skipped mw moments, a test that is undefined
    (same error type and message, bp first), and odd n drawn in chunks of
    3 rows with a ragged last chunk."""
    y = np.array([0.0, 1, 0, 1, 2, 2, 0, 0, 0, 1, 1, 0, 0])
    d = np.array([1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0])
    z = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
    tiny = Dataset(y=y, d=d, z=z, x=np.zeros(13))
    one_cell = build_cells(tiny, min_cell_size=2, min_arm_size=1)
    assert one_cell.n_cells == 1
    for cells in (None, one_cell):
        want = _separate(tiny, cells, None, 99, 5)
        assert want[1].n_skipped > 0
        assert _family(tiny, cells, None, 99, 5) == want

    empty = Dataset(y=[0.0, 0, 1, 1], d=[0, 0, 1, 1], z=[1, 1, 1, 1],
                    x=np.empty((4, 0)))
    want = _separate(empty, None, None, 9, 0)
    assert want[0] is UndefinedTestError and want[1].startswith("bp_test:")
    assert _family(empty, None, None, 9, 0) == want

    ds, _ = generate(valid_spec(seed=7), 1201)
    ct = build_cells(ds)
    want = {cells is None: _separate(ds, cells, None, 50, 4) for cells in (ct, None)}
    monkeypatch.setattr(validity, "_CHUNK_BYTES", 8 * ds.n * 3)
    for cells in (ct, None):
        assert _family(ds, cells, None, 50, 4) == want[cells is None]


def test_bootstrap_memory_bounded():
    """bp_test at n=100,000 with 220 moments and 199 draws stays well
    under the (n x moments) and (reps x n) arrays of the dense engine."""
    mk = lambda q, types: CellSpec(
        share=0.5, q=q, types=types,
        y0={"never": 0.0, "complier": 1.0, "always": 2.0},
        y1={"complier": 2.0, "always": 3.0}, noise0=1.0, noise1=1.0,
    )
    spec = DGPSpec(cells=(mk(0.5, (0.4, 0.3, 0.3, 0.0)),
                          mk(0.6, (0.5, 0.2, 0.3, 0.0))), seed=3)
    ds, _ = generate(spec, 100_000)
    ct = build_cells(ds)
    tracemalloc.start()
    try:
        rep = bp_test(ds, ct, reps=199, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.n_moments + rep.n_skipped == 220
    assert peak < 64 * 2**20, peak / 2**20


def test_family_memory_bounded():
    """The whole family at n=100,000 with 199 draws stays under the same
    bound as one test: the tests share the binned draws."""
    mk = lambda q, types: CellSpec(
        share=0.5, q=q, types=types,
        y0={"never": 0.0, "complier": 1.0, "always": 2.0},
        y1={"complier": 2.0, "always": 3.0}, noise0=1.0, noise1=1.0,
    )
    spec = DGPSpec(cells=(mk(0.5, (0.4, 0.3, 0.3, 0.0)),
                          mk(0.6, (0.5, 0.2, 0.3, 0.0))), seed=3)
    ds, _ = generate(spec, 100_000)
    ct = build_cells(ds)
    tracemalloc.start()
    try:
        reports = validity_family(ds, ct, reps=199, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.n_moments + r.n_skipped for r in reports] == [220, 110, 2]
    assert peak < 64 * 2**20, peak / 2**20
