import numpy as np
import pytest

from ivhet import (
    ColumnMap,
    ConfigError,
    Dataset,
    DomainError,
    EmptyDataError,
    build_cells,
    estimate_beta_iv,
    fit_binary_index,
    ipw_late,
    load_dataset,
    validate,
)


def test_column_map_rejects_duplicates():
    with pytest.raises(ConfigError):
        ColumnMap(outcome="a", treatment="a", instrument="z")


def test_column_map_rejects_empty_names():
    with pytest.raises(ConfigError):
        ColumnMap(outcome="", treatment="d", instrument="z")


def test_column_map_from_json(tmp_path):
    p = tmp_path / "map.json"
    p.write_text('{"outcome": "y", "treatment": "d", "instrument": "z", '
                 '"covariates": ["a", "b"], "cluster": "c"}')
    cmap = ColumnMap.from_json(str(p))
    assert cmap.covariates == ("a", "b")
    assert cmap.cluster == "c"


def test_column_map_from_json_rejects_unknown_keys(tmp_path):
    p = tmp_path / "map.json"
    p.write_text('{"outcome": "y", "treatment": "d", "instrument": "z", '
                 '"bogus": 1}')
    with pytest.raises(ConfigError, match="bogus"):
        ColumnMap.from_json(str(p))


def test_dataset_coerces_and_freezes():
    ds = Dataset(y=[1, 2.0, 3], d=[0, 1, 0], z=[1, 0, 1], x=[1, 2, 3])
    assert ds.y.dtype == np.float64
    assert ds.d.dtype == np.int64
    assert ds.x.shape == (3, 1)
    assert ds.covariate_names == ("x1",)
    with pytest.raises(ValueError):
        ds.y[0] = 99.0


def test_dataset_rejects_nonbinary_treatment():
    with pytest.raises(DomainError, match="treatment"):
        Dataset(y=[1.0, 2.0], d=[0, 2], z=[0, 1], x=[0.0, 1.0])


def test_dataset_rejects_nonfinite_outcome():
    with pytest.raises(DomainError):
        Dataset(y=[np.nan, 2.0], d=[0, 1], z=[0, 1], x=[0.0, 1.0])


def test_dataset_rejects_single_row():
    with pytest.raises(DomainError):
        Dataset(y=[1.0], d=[0], z=[0], x=[0.0])


def test_dataset_subset():
    ds = Dataset(y=[1.0, 2, 3, 4], d=[0, 1, 0, 1], z=[1, 0, 1, 0],
                 x=[5.0, 6, 7, 8], cluster=[1, 1, 2, 2])
    sub = ds.subset(np.array([True, False, True, False]))
    assert sub.n == 2
    assert list(sub.y) == [1.0, 3.0]
    assert list(sub.cluster) == [1, 2]


def test_cluster_labels_kept_as_given():
    """Float and string cluster labels are kept, not cast to integers: the
    labels (k + 1) / 100 would all truncate to 0, and 0.2 and 0.7 would
    merge. Relabelling the 20 clusters k in an order-preserving way leaves
    every cluster SE as it is under the integer labels k."""
    rng = np.random.default_rng(17)
    n = 400
    k = rng.permutation(np.arange(n) % 20)
    cell = rng.integers(0, 3, size=n)
    z = (rng.random(n) < 0.3 + 0.15 * cell).astype(int)
    d = (rng.random(n) < 0.2 + 0.5 * z).astype(int)
    y = d * (1.0 + cell) + 0.1 * k + rng.normal(size=n)
    x = np.column_stack([cell == 1, cell == 2]).astype(float)

    def cluster_ses(labels):
        ds = Dataset(y=y, d=d, z=z, x=x, cluster=labels)
        pf = fit_binary_index(ds.z, ds.x, link="logit")
        delta = ipw_late(ds, pf)
        assert delta.se_type == "cluster"
        return np.array([estimate_beta_iv(build_cells(ds), se_type="cluster").se,
                         delta.se, ipw_late(ds, pf, se="bootstrap", reps=20).se])

    want = cluster_ses(k)
    for labels in ((k + 1) / 100, np.array([f"c{v:02d}" for v in k])):
        np.testing.assert_allclose(cluster_ses(labels), want, rtol=1e-12, atol=0)
    with pytest.raises(DomainError, match="finite"):
        Dataset(y=y, d=d, z=z, x=x, cluster=np.where(k == 3, np.nan, k / 10))


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_load_basic(tmp_path):
    path = _write(tmp_path, "y,d,z,x\n1.5,1,0,2\n2.5,0,1,3\n")
    ds = load_dataset(path, ColumnMap("y", "d", "z", ("x",)))
    assert ds.n == 2
    assert ds.dropped == 0
    assert list(ds.x[:, 0]) == [2.0, 3.0]


def test_load_missing_column_is_config_error(tmp_path):
    path = _write(tmp_path, "y,d,z\n1,0,1\n2,1,0\n")
    with pytest.raises(ConfigError, match="x"):
        load_dataset(path, ColumnMap("y", "d", "z", ("x",)))


def test_load_rejects_miscoded_binary(tmp_path):
    path = _write(tmp_path, "y,d,z\n1,yes,1\n2,0,0\n")
    with pytest.raises(DomainError, match="yes"):
        load_dataset(path, ColumnMap("y", "d", "z"))


def test_load_accepts_float_coded_binary(tmp_path):
    path = _write(tmp_path, "y,d,z\n1,1.0,0.0\n2,0.0,1.0\n")
    ds = load_dataset(path, ColumnMap("y", "d", "z"))
    assert list(ds.d) == [1, 0]
    assert list(ds.z) == [0, 1]


def test_load_drops_and_counts_bad_rows(tmp_path):
    path = _write(tmp_path, "y,d,z,x\n1,1,0,2\n,0,1,3\nfoo,1,1,4\n2,0,0,\n3,1,1,9\n")
    ds = load_dataset(path, ColumnMap("y", "d", "z", ("x",)))
    assert ds.n == 2
    assert ds.dropped == 3


def test_load_empty_is_empty_data_error(tmp_path):
    path = _write(tmp_path, "y,d,z\n,0,1\n")
    with pytest.raises(EmptyDataError):
        load_dataset(path, ColumnMap("y", "d", "z"))


def test_load_cluster_strings_factorized_in_order(tmp_path):
    path = _write(tmp_path,
                  "y,d,z,site\n1,0,1,boston\n2,1,0,austin\n3,0,1,boston\n4,1,0,chicago\n")
    ds = load_dataset(path, ColumnMap("y", "d", "z", (), cluster="site"))
    assert list(ds.cluster) == [0, 1, 0, 2]


def test_load_handles_bom(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes("y,d,z\n1,0,1\n2,1,0\n".encode("utf-8-sig"))
    ds = load_dataset(str(p), ColumnMap("y", "d", "z"))
    assert ds.n == 2


def test_validate_flags_no_variation():
    ds = Dataset(y=[1.0, 2, 3], d=[0, 1, 0], z=[1, 1, 1], x=[1.0, 2, 3])
    rep = validate(ds)
    assert any("instrument" in e for e in rep.errors)
    ds2 = Dataset(y=[1.0, 2, 3], d=[1, 1, 1], z=[1, 0, 1], x=[1.0, 2, 3])
    rep2 = validate(ds2)
    assert any("treatment" in e for e in rep2.errors)


def test_validate_warns_constant_covariate():
    ds = Dataset(y=[1.0, 2, 3, 4], d=[0, 1, 0, 1], z=[1, 0, 1, 0],
                 x=np.column_stack([[1.0, 1, 1, 1], [1.0, 2, 3, 4]]),
                 covariate_names=("const", "varies"))
    rep = validate(ds)
    assert rep.passed
    assert any("const" in w for w in rep.warnings)
    assert not any("varies" in w for w in rep.warnings)


def test_load_missing_or_directory_path_is_config_error(tmp_path):
    cmap = ColumnMap("y", "d", "z")
    with pytest.raises(ConfigError, match="cannot read .*No such file"):
        load_dataset(str(tmp_path / "absent.csv"), cmap)
    with pytest.raises(ConfigError, match="cannot read .*Is a directory"):
        load_dataset(str(tmp_path), cmap)


def test_load_undecodable_bytes_is_domain_error(tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"y,d,z\n1,0,1\ncaf\xe9,1,0\n2,1,0\n")
    with pytest.raises(DomainError, match=r"byte 0xe9 at offset 15 cannot be decoded"):
        load_dataset(str(p), ColumnMap("y", "d", "z"))
    # the offset counts the byte-order mark
    p.write_bytes(b"\xef\xbb\xbfy,d,z\n1,0,1\n\xff,1,0\n")
    with pytest.raises(DomainError, match=r"byte 0xff at offset 15 cannot"):
        load_dataset(str(p), ColumnMap("y", "d", "z"))


def test_load_duplicate_mapped_header_name_is_config_error(tmp_path):
    path = _write(tmp_path, "y,d,z,y\n1,0,1,5\n2,1,0,6\n")
    with pytest.raises(ConfigError, match="column 'y' appears 2 times"):
        load_dataset(path, ColumnMap("y", "d", "z"))
    # a repeated name that no role maps is fine
    path = _write(tmp_path, "y,d,z,w,w\n1,0,1,5,5\n2,1,0,6,6\n")
    assert load_dataset(path, ColumnMap("y", "d", "z")).n == 2


def test_column_map_from_json_unreadable_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read .*No such file"):
        ColumnMap.from_json(str(tmp_path / "absent.json"))
    p = tmp_path / "map.json"
    p.write_text("{outcome: y}")
    with pytest.raises(ConfigError, match="is not JSON"):
        ColumnMap.from_json(str(p))


def _dataset_args(n=4, **overrides):
    args = {"y": np.arange(n, dtype=float), "d": [0, 1] * (n // 2),
            "z": [1, 0] * (n // 2), "x": np.zeros((n, 1))}
    return {**args, **overrides}


@pytest.mark.parametrize("overrides, message", [
    ({"x": np.zeros((4, 1, 2))}, "covariate matrix must be two dimensional"),
    ({"d": [0, 1, 1]}, "column lengths differ"),
    ({"z": [0, 1, 1]}, "column lengths differ"),
    ({"x": np.zeros((3, 1))}, "column lengths differ"),
    ({"z": [0, 1, 2, 1]}, r"instrument takes values outside \{0, 1\}"),
    ({"covariate_names": ("a", "b")}, "covariate_names length does not match x"),
    ({"cluster": np.arange(3)}, "cluster column length differs"),
])
def test_dataset_rejects_malformed_columns(overrides, message):
    with pytest.raises(DomainError, match=message):
        Dataset(**_dataset_args(**overrides))


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", "column map file must hold a JSON object"),
    ('{"outcome": "y", "treatment": "d"}', "column map file is missing key 'instrument'"),
])
def test_column_map_from_json_rejects_malformed_objects(tmp_path, content, message):
    path = tmp_path / "map.json"
    path.write_text(content)
    with pytest.raises(ConfigError, match=message):
        ColumnMap.from_json(str(path))
