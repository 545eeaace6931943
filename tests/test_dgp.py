import json

import numpy as np
import pytest

from ivhet import (
    CTYPES,
    CellSpec,
    ConfigError,
    DGPSpec,
    DomainError,
    brute_force_late,
    brute_force_weights,
    build_cells,
    generate,
    reference_population,
    reference_trial,
    tables,
)
from oracles import row_write_csv


def simple_spec(**kw):
    cells = (
        CellSpec(share=0.5, q=0.5, types=(0.5, 0.25, 0.25, 0.0),
                 y0=1.0, y1={"complier": 3.0, "always": 2.0},
                 noise0=1.0, noise1=1.0),
        CellSpec(share=0.5, q=0.6, types=(0.4, 0.3, 0.3, 0.0),
                 y0=0.0, y1={"complier": 2.0}, noise0=0.5, noise1=0.5),
    )
    return DGPSpec(cells=cells, **kw)


def test_cell_spec_validation():
    with pytest.raises(ConfigError):
        CellSpec(share=0.0, q=0.5, types=(1, 0, 0, 0))
    with pytest.raises(ConfigError):
        CellSpec(share=0.5, q=1.0, types=(1, 0, 0, 0))
    with pytest.raises(ConfigError):
        CellSpec(share=0.5, q=0.5, types=(0.5, 0.5, 0.5, 0))
    with pytest.raises(ConfigError):
        CellSpec(share=0.5, q=0.5, types=(1, 0, 0, 0), noise0=-1.0)
    with pytest.raises(ConfigError):
        CellSpec(share=0.5, q=0.5, types={"martian": 1.0})


def test_shares_must_sum_to_one():
    c = CellSpec(share=0.6, q=0.5, types=(1, 0, 0, 0))
    with pytest.raises(ConfigError, match="sum"):
        DGPSpec(cells=(c, c))


def test_defiers_need_permission():
    c = CellSpec(share=1.0, q=0.5, types=(0.5, 0.2, 0.2, 0.1))
    with pytest.raises(ConfigError, match="defier"):
        DGPSpec(cells=(c,))
    spec = DGPSpec(cells=(c,), allow_defiers=True)
    assert spec.allow_defiers


def test_generate_is_deterministic():
    spec = simple_spec(seed=5)
    a, la = generate(spec, 300)
    b, lb = generate(spec, 300)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(la.ctype, lb.ctype)


def test_generate_prefix_property():
    """Growing n extends the sample without changing earlier rows."""
    spec = simple_spec(seed=5)
    small, lt_small = generate(spec, 100)
    big, lt_big = generate(spec, 400)
    np.testing.assert_array_equal(small.y, big.y[:100])
    np.testing.assert_array_equal(small.d, big.d[:100])
    np.testing.assert_array_equal(small.z, big.z[:100])
    np.testing.assert_array_equal(lt_small.ctype, lt_big.ctype[:100])


def test_generate_seed_override():
    spec = simple_spec(seed=5)
    a, _ = generate(spec, 100)
    b, _ = generate(spec, 100, seed=6)
    assert not np.array_equal(a.y, b.y)


def test_latent_table_consistent_with_dataset():
    spec = simple_spec(seed=2)
    ds, lt = generate(spec, 500)
    d_expected = np.where(lt.z == 1, lt.d1, lt.d0)
    np.testing.assert_array_equal(ds.d, d_expected)
    y_expected = np.where(ds.d == 1, lt.y1, lt.y0)
    np.testing.assert_allclose(ds.y, y_expected)
    # compliance types imply the potential treatments
    for i, name in enumerate(CTYPES):
        rows = lt.ctype == i
        if not rows.any():
            continue
        d1_ref = 1 if name in ("complier", "always") else 0
        d0_ref = 1 if name in ("always", "defier") else 0
        assert (lt.d1[rows] == d1_ref).all()
        assert (lt.d0[rows] == d0_ref).all()


def test_exclusion_shift_moves_never_takers_only():
    base = simple_spec(seed=3)
    shifted = DGPSpec(cells=base.cells, exclusion_shift=2.5, seed=3)
    ds0, lt0 = generate(base, 400)
    ds1, lt1 = generate(shifted, 400)
    never = lt0.ctype == CTYPES.index("never")
    moved = ds1.y != ds0.y
    assert (moved == (never & (lt0.z == 1))).all()
    np.testing.assert_allclose(ds1.y[moved] - ds0.y[moved], 2.5)


def test_brute_force_late_is_complier_mean():
    spec = simple_spec(seed=8)
    _, lt = generate(spec, 2000)
    compliers = lt.ctype == CTYPES.index("complier")
    ref = float(np.mean(lt.y1[compliers] - lt.y0[compliers]))
    assert brute_force_late(lt) == ref


def test_brute_force_late_requires_compliers():
    c = CellSpec(share=1.0, q=0.5, types=(0.0, 0.5, 0.5, 0.0), y0=0.0, y1=1.0)
    _, lt = generate(DGPSpec(cells=(c,)), 100)
    with pytest.raises(DomainError):
        brute_force_late(lt)


def test_brute_force_weights_zero_noise_oracle():
    """With constant effects, latent weights dot taus = latent LATE mixing."""
    cells = (
        CellSpec(share=0.5, q=0.4, types=(0.6, 0.2, 0.2, 0.0),
                 y0=0.0, y1={"complier": 2.0}),
        CellSpec(share=0.5, q=0.6, types=(0.3, 0.4, 0.3, 0.0),
                 y0=0.0, y1={"complier": 5.0}),
    )
    _, lt = generate(DGPSpec(cells=cells, seed=4), 4000)
    wt = brute_force_weights(lt)
    late = brute_force_late(lt)
    assert abs(wt.dot("late") - late) < 1e-10
    np.testing.assert_allclose(wt.tau, [2.0, 5.0], atol=1e-12)


def test_spec_json_roundtrip(tmp_path):
    raw = {
        "cells": [
            {"share": 0.5, "q": 0.5,
             "types": {"complier": 0.5, "always": 0.25, "never": 0.25},
             "y0": 1.0, "y1": {"complier": 3.0}, "noise": 1.0},
            {"share": 0.5, "q": 0.6,
             "types": {"complier": 0.4, "always": 0.3, "never": 0.3}},
        ],
        "exclusion_shift": 0.5,
        "seed": 9,
    }
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(raw))
    spec = DGPSpec.from_json(str(p))
    assert spec.exclusion_shift == 0.5
    assert spec.seed == 9
    assert spec.cells[0].noise0 == (1.0, 1.0, 1.0, 1.0)
    assert spec.cells[1].types == (0.4, 0.3, 0.3, 0.0)


def test_spec_json_missing_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"cells": [{"share": 1.0}]}')
    with pytest.raises(ConfigError):
        DGPSpec.from_json(str(p))


def test_spec_json_unreadable_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read .*No such file"):
        DGPSpec.from_json(str(tmp_path / "absent.json"))
    with pytest.raises(ConfigError, match="cannot read .*Is a directory"):
        DGPSpec.from_json(str(tmp_path))
    p = tmp_path / "spec.json"
    p.write_text("{cells: []}")
    with pytest.raises(ConfigError, match="DGP spec file .* is not JSON"):
        DGPSpec.from_json(str(p))
    p.write_bytes(b'{"cells": [\xff]}')
    with pytest.raises(ConfigError, match="is not JSON"):
        DGPSpec.from_json(str(p))


def test_reference_trial_structure():
    ds = reference_trial()
    assert ds.n == 58
    sizes = [int((ds.x[:, 0] == v).sum()) for v in (1.0, 2.0, 3.0)]
    assert sizes == [14, 26, 18]
    for v, (nz1, nz0) in zip((1.0, 2.0, 3.0), ((11, 3), (25, 1), (16, 2))):
        cell = ds.x[:, 0] == v
        assert int(ds.z[cell].sum()) == nz1
        assert int((1 - ds.z[cell]).sum()) == nz0
    # nobody in a control arm is treated
    assert int(ds.d[ds.z == 0].sum()) == 0


def test_reference_trial_cell_stats_display_targets():
    ct = build_cells(reference_trial(), min_arm_size=1)
    np.testing.assert_allclose(np.round(ct.p_j, 3), [0.241, 0.448, 0.310])
    np.testing.assert_allclose(np.round(ct.var_z_j, 3), [0.168, 0.037, 0.099])
    np.testing.assert_allclose(np.round(ct.pi_j, 3), [0.455, 0.280, 0.250])
    np.testing.assert_allclose(np.round(ct.tau_j, 3), [1.067, 6.0, 5.0])


def test_reference_population_matches_trial_moments():
    lt = reference_population()
    assert lt.n == 31900
    wt = brute_force_weights(lt)
    np.testing.assert_allclose(np.round(wt.w_late, 3), [0.351, 0.401, 0.248])
    np.testing.assert_allclose(np.round(wt.w_iv, 3), [0.600, 0.151, 0.249])
    np.testing.assert_allclose(np.round(wt.w_ai, 3), [0.723, 0.112, 0.165])
    np.testing.assert_allclose(wt.tau, [16.0 / 15.0, 6.0, 5.0], atol=1e-12)
    assert abs(brute_force_late(lt) - 4.0216788589371015) < 1e-12


def test_latent_to_csv(tmp_path):
    _, lt = generate(simple_spec(seed=1), 50)
    p = tmp_path / "latent.csv"
    lt.to_csv(str(p))
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "cell,ctype,y1,y0,d1,d0,z"
    assert len(lines) == 51


@pytest.mark.parametrize("rows_per_write", [3, 1 << 15])
def test_latent_csv_bytes_match_row_writer(tmp_path, monkeypatch, rows_per_write):
    monkeypatch.setattr(tables, "_CSV_ROWS", rows_per_write)
    _, lt = generate(simple_spec(seed=4, allow_defiers=True), 400)
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    lt.to_csv(str(got))
    row_write_csv(want, ("cell", "ctype", "y1", "y0", "d1", "d0", "z"),
                  (lt.cell, lt.ctype_names(), lt.y1, lt.y0, lt.d1, lt.d0, lt.z))
    assert got.read_bytes() == want.read_bytes()


def test_write_columns_crafted_values(tmp_path, monkeypatch):
    """Signed zero, the smallest subnormal, huge floats and negative ints
    are written as repr writes them, across write boundaries."""
    monkeypatch.setattr(tables, "_CSV_ROWS", 2)
    floats = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1e16, 2.5])
    ints = np.array([-1, 0, 7, -(2**62), 2**62, -3, 12, 1, -5], dtype=np.int64)
    names = np.array(["a", "bb", "c", "d", "e", "f", "g", "h", "i"])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    tables.write_columns(str(got), ("f", "i", "s"), (floats, ints, names))
    row_write_csv(want, ("f", "i", "s"), (floats, ints, names))
    assert got.read_bytes() == want.read_bytes()
    assert got.read_text().splitlines()[1:4] == ["-0.0,-1,a", "0.0,0,bb",
                                                  "5e-324,7,c"]
    tables.write_columns(str(got), ("f",), (floats[:0],))
    assert got.read_text() == "f\n"


@pytest.mark.parametrize("kwargs, message", [
    ({"types": (0.5, 0.5)}, "types must have one entry per compliance type"),
    ({"types": 0.25, "y1": [1.0, 2.0, 3.0]}, "y1 must have one entry per compliance type"),
    ({"types": (1.25, -0.25, 0.0, 0.0)}, "type shares must be nonnegative"),
    ({"types": {"complier": 1.0, "saint": 0.0}}, "unknown compliance types in types"),
])
def test_cell_spec_rejects_bad_type_vectors(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        CellSpec(share=1.0, q=0.5, **kwargs)


def test_spec_needs_a_cell_and_generate_two_rows():
    with pytest.raises(ConfigError, match="a DGP spec needs at least one cell"):
        DGPSpec(cells=())
    with pytest.raises(ConfigError, match="n must be at least 2"):
        generate(simple_spec(), 1)


@pytest.mark.parametrize("raw, message", [
    ([1, 2], "DGP spec file must be a JSON object with a 'cells' list"),
    ({"seed": 3}, "DGP spec file must be a JSON object with a 'cells' list"),
    ({"cells": []}, "a DGP spec needs at least one cell"),
    ({"cells": [{"share": 1, "q": 0.5, "types": [0.5, 0.5]}]},
     "types must have one entry per compliance type"),
    ({"cells": [{"share": 1, "q": 0.5, "types": 0.25, "noise": -1}]},
     "noise scales must be nonnegative"),
])
def test_spec_json_rejections(tmp_path, raw, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=message):
        DGPSpec.from_json(str(path))


def test_spec_json_fills_type_vectors_like_the_constructor(tmp_path):
    """Scalars, partial mappings, lists and absent keys become the same
    4-tuples whether they come from a file or are given to CellSpec."""
    cell = {"share": 1.0, "q": 0.4, "types": {"complier": 0.75, "never": 0.25},
            "y1": [3, 2, 1, 0], "noise": 0.5, "noise1": {"always": 2}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"cells": [cell], "seed": 4}))
    spec = DGPSpec.from_json(str(path))
    assert spec.cells == (CellSpec(share=1.0, q=0.4, types=(0.75, 0.0, 0.25, 0.0),
                                   y1=(3.0, 2.0, 1.0, 0.0), noise0=0.5,
                                   noise1=(0.0, 2.0, 0.0, 0.0)),)
    assert spec.cells[0].y0 == (0.0, 0.0, 0.0, 0.0)
    assert spec.seed == 4
