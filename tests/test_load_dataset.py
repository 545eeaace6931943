"""The chunked columnar CSV loader against the row-at-a-time reference.

oracles.row_load_dataset is the loader as it was before chunked column
conversion. Every test here asserts the same Dataset bits, drop count,
cluster codes, or error type and message, whichever path each chunk took.
"""

import csv
import tracemalloc

import numpy as np
import pytest

from ivhet import ColumnMap, data_model, load_dataset
from oracles import row_load_dataset


def _outcome(loader, path, cmap):
    try:
        return loader(path, cmap)
    except Exception as exc:  # noqa: BLE001 - the error is what is compared
        return type(exc), str(exc)


def _assert_same(path, cmap):
    got = _outcome(load_dataset, path, cmap)
    want = _outcome(row_load_dataset, path, cmap)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return want
    for name in ("y", "d", "z", "x"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.dropped == want.dropped
    assert got.covariate_names == want.covariate_names
    if want.cluster is None:
        assert got.cluster is None
    else:
        assert got.cluster.tobytes() == want.cluster.tobytes()
    return want


@pytest.fixture
def paths(monkeypatch):
    """Record which path each chunk took: ('lines', accepted) or ('rows', n)."""
    taken = []
    add_lines, add_rows = data_model._Columns.add_lines, data_model._Columns.add_rows

    def spy_lines(self, lines):
        accepted = add_lines(self, lines)
        taken.append(("lines", accepted))
        return accepted

    def spy_rows(self, rows):
        rows = list(rows)
        taken.append(("rows", len(rows)))
        return add_rows(self, rows)

    monkeypatch.setattr(data_model._Columns, "add_lines", spy_lines)
    monkeypatch.setattr(data_model._Columns, "add_rows", spy_rows)
    return taken


REALS = ["", "nan", "inf", "-inf", "1_0", " 1.5 ", "abc", "1#2", '"2.5"',
         " 4", "1e999", "-0.0", "\t7", "1e-320", "0x1", "+.5"]
BINARIES = [" 1", "0 ", "", '"1"', "1.0 ", '" 0.0"']
MISCODED = ["2", "yes", "1.00", "-0", "+1", "01", "1e0", "#1", "0.00001"]
LABELS = ["", "a", "b", " a ", "b ", '"q,r"', '"multi\nline"', "#x", "été",
          '"say ""hi"""', "a\tb", "a\u00a0", "\u2003b"]


def _random_file(rng):
    """CSV text of a random dialect mix, and the column map to read it with."""
    n_cov = int(rng.integers(0, 3))
    covs = [f"x{i}" for i in range(n_cov)]
    cluster = "c" if rng.random() < 0.5 else None
    names = ["y", "d", "z", *covs, *(["c"] if cluster else []),
             *[f"e{i}" for i in range(int(rng.integers(0, 3)))]]
    names = [names[i] for i in rng.permutation(len(names))]
    dirty = float(rng.choice([0.0, 0.02, 0.1, 0.25]))
    ending = str(rng.choice(["\n", "\r\n", "\r", "mixed"]))

    def token(name):
        if name in ("d", "z"):
            if rng.random() < dirty:
                return str(rng.choice(BINARIES))
            return str(rng.choice(["0", "1", "0.0", "1.0"]))
        if name == "c":
            if rng.random() < dirty:
                return str(rng.choice(LABELS))
            return f"site-{int(rng.integers(0, 6)):03d}"
        if rng.random() < dirty:
            return str(rng.choice(REALS))
        if name.startswith("x"):
            return str(int(rng.integers(0, 4)))
        return repr(float(rng.standard_normal()))

    header = [(" " + h if rng.random() < 0.1 else h) for h in names]
    if rng.random() < 0.1:
        header = [f'"{h}"' for h in header]
    lines = [",".join(header)]
    n_rows = int(rng.choice([0, 1, 2, rng.integers(3, 60)], p=[0.05, 0.05, 0.1, 0.8]))
    for _ in range(n_rows):
        u = rng.random()
        if u < dirty * 0.15:
            lines.append(str(rng.choice(["", " ", "  ", "\t"])))
            continue
        row = [token(name) for name in names]
        if u > 1 - dirty * 0.2:
            row = row[:int(rng.integers(0, len(row)))]
        elif u > 1 - dirty * 0.4:
            row += ["extra"] * int(rng.integers(1, 3))
        lines.append(",".join(row))
    if rng.random() < 0.25 and n_rows:
        row = 1 + int(rng.integers(0, n_rows))
        fields = lines[row].split(",")
        if len(fields) == len(names):
            fields[names.index(str(rng.choice(["d", "z"])))] = str(rng.choice(MISCODED))
            lines[row] = ",".join(fields)
    if ending == "mixed":
        text = "".join(line + str(rng.choice(["\n", "\r\n", "\r"])) for line in lines)
    else:
        text = ending.join(lines) + (ending if rng.random() < 0.8 else "")
    if rng.random() < 0.2:
        text = "\ufeff" + text
    return text, ColumnMap("y", "d", "z", tuple(covs), cluster=cluster)


def test_loader_matches_row_reference_on_random_files(tmp_path, monkeypatch, paths):
    rng = np.random.default_rng(20261018)
    path = str(tmp_path / "fuzz.csv")
    outcomes = {"loaded": 0, "error": 0}
    for _ in range(400):
        text, cmap = _random_file(rng)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        chunk = int(rng.choice([1, 2, 3, 5, 8, data_model._CHUNK_ROWS]))
        monkeypatch.setattr(data_model, "_CHUNK_ROWS", chunk)
        result = _assert_same(path, cmap)
        outcomes["error" if isinstance(result, tuple) else "loaded"] += 1
    # the corpus reaches both outcomes and both paths
    assert min(outcomes.values()) >= 80
    assert sum(1 for kind, ok in paths if kind == "lines" and ok) >= 500
    assert sum(1 for kind, ok in paths if kind == "lines" and not ok) >= 200
    assert sum(n for kind, n in paths if kind == "rows") >= 1000


@pytest.mark.parametrize("text", [
    "",
    "y,d,z\n",
    "y,d,z\n1.5,1,0\n",
    "y,d,z\n1.5,1,0\n2.5,0,1",
    "y,d,z\r\n\r\n1.5,1,0\r\n\r\n2.5,0,1\r\n",
    "y,d,z\r1.5,1,0\r2.5,0,1\r",
    "\ufeffy,d,z\n1.5,1,0\n2.5,0,1\n",
    "y,d,z\n \n1.5,1,0\n2.5,0,1\n",
    "y,d,z\n1.5,1,0\n2.5,0\n3.5,1,1,9\n",
    "y,d,z\n1.5,1.0,0.0\n2.5, 0 ,1\n",
    "y,d,z\n1.5,1,0\n2.5,0,1.00\n",
    "y,d,z\n1.5,1,0\nnan,0,1\ninf,1,1\n",
    "y,d,z\n1_0,1,0\n2#5,0,1\n3.5,1,1\n",
    'y,d,z\n"1.5",1,0\n"2.5\n",0,1\n3.5,"1",1\n',
    'y,d,z\n1.5,1,0\n"unterminated,0,1\n3.5,1,1\n',
    "y,d,z\n1.5,1,0\n2.5,0,1\x00\n3.5,1,1\n",
    # str.strip removes non-ASCII whitespace around a cluster label too
    "y,d,z,c\n1.5,1,0,a\u00a0\n2.5,0,1,a\n3.5,1,1,\u2003a\n",
    "y,d,z,c\n1.5,1,0,a\n2.5,0,1,\n3.5,1,1,b\n",
])
def test_loader_matches_row_reference_on_edge_files(tmp_path, text):
    path = tmp_path / "edge.csv"
    path.write_bytes(text.encode("utf-8"))
    cluster = "c" if text.startswith("y,d,z,c") else None
    _assert_same(str(path), ColumnMap("y", "d", "z", cluster=cluster))


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("column", [1, 2])
@pytest.mark.parametrize("token", ["1.00", "01", "1e0", "+1", " 1", '"1"', '"0.0"',
                                   "0.0", "1.0", "1"])
def test_binary_token_in_one_pass(tmp_path, monkeypatch, paths, token, column,
                                  ending):
    """One binary token in a first chunk that also holds an empty cluster
    label, then a chunk of quoted fields: the accepted forms keep the first
    chunk on the one-pass column path, any other token sends it to the row
    rules, and either way the outcome is the row reference's."""
    monkeypatch.setattr(data_model, "_CHUNK_ROWS", 3)
    rows = [["1.5", "1", "0", "a"], ["2.5", "0", "1", ""], ["3.5", "1", "1", "b"],
            ['"4.5"', "0", '"0"', "a"], ["5.5", "0", "1", '"c,d"']]
    rows[2][column] = token
    path = tmp_path / "tokens.csv"
    path.write_bytes((ending.join(["y,d,z,c", *map(",".join, rows)]) + ending).encode())
    result = _assert_same(str(path), ColumnMap("y", "d", "z", cluster="c"))
    assert paths[0] == ("lines", token in ("0", "1", "0.0", "1.0"))
    if token in ("1.00", "01", "1e0", "+1"):
        assert result == (data_model.DomainError,
                          f"column '{'dz'[column - 1]}' holds '{token}'; only 0/1 "
                          "(or 0.0/1.0) are accepted")
        return
    assert paths[-2:] == [("lines", False), ("rows", 2)]   # the quoted chunk
    assert result.dropped == 1              # the empty cluster label
    value = int(float(token.strip(' "')))
    assert (result.d[1], result.z[1]) == ((value, 1) if column == 1 else (1, value))
    assert list(result.y) == [1.5, 3.5, 4.5, 5.5]
    assert list(result.cluster) == [0, 1, 0, 2]


def test_chunk_boundaries(tmp_path, monkeypatch, paths):
    monkeypatch.setattr(data_model, "_CHUNK_ROWS", 3)
    body = [
        "1.5,1,0,2,a", "2.5,0,1,3,b", "3.5,1,1,nan,a",      # columns
        "1_0,0,0,4,c", ",1,0,5,a", "4.5, 1 ,0,6,b",         # row rules
        "5.5,0,1,7,d", "6.5,1,0,8,a", "7.5,0,0,9,b",        # columns
        "8.5,1,1,10,e", "9.5,0,1,11,a", '10.5,1,0,12,"f',   # a quote opens,
        'g",x', "11.5,0,0,13,e", "12.5,1,1,14,h",           # closes a chunk on
        "13.5,0,1,15,a", "14.5,1,0,16,i",                   # ragged last chunk
    ]
    path = tmp_path / "chunks.csv"
    path.write_text("y,d,z,x,c\n" + "\n".join(body) + "\n", encoding="utf-8")
    cmap = ColumnMap("y", "d", "z", ("x",), cluster="c")
    ds = _assert_same(str(path), cmap)
    # the quoted record closes on a line of the next chunk, and the column
    # path takes the chunks after it
    assert paths == [("lines", True), ("lines", False), ("rows", 3),
                     ("lines", True), ("lines", False), ("rows", 3),
                     ("lines", True), ("lines", True)]
    assert ds.dropped == 2
    assert list(ds.y) == [1.5, 2.5, 10.0, 4.5, 5.5, 6.5, 7.5,
                          8.5, 9.5, 10.5, 11.5, 12.5, 13.5, 14.5]
    assert list(ds.cluster) == [0, 1, 2, 1, 3, 0, 1, 4, 0, 5, 4, 6, 0, 7]


def test_quote_leaves_later_chunks_on_columns(tmp_path, monkeypatch, paths):
    """A quote in the first of three chunks sends only that chunk through
    the row rules."""
    monkeypatch.setattr(data_model, "_CHUNK_ROWS", 4)
    body = ['1.5,1,0,"2",a', '2.5,0,1,3,"b"', "3.5,1,1,4,a", "4.5,0,0,5,c",
            "5.5,0,1,7,d", "6.5,1,0,8,a", "7.5,0,0,9,b", "8.5,1,1,10,e",
            "9.5,0,1,11,a", "10.5,1,0,12,f"]
    path = tmp_path / "quoted.csv"
    path.write_text("y,d,z,x,c\n" + "\n".join(body) + "\n", encoding="utf-8")
    ds = _assert_same(str(path), ColumnMap("y", "d", "z", ("x",), cluster="c"))
    assert paths == [("lines", False), ("rows", 4), ("lines", True),
                     ("lines", True)]
    assert list(ds.x[:, 0]) == [2, 3, 4, 5, 7, 8, 9, 10, 11, 12]
    assert list(ds.cluster) == [0, 1, 0, 2, 3, 0, 1, 4, 0, 5]


def test_long_line_takes_row_rules(tmp_path, paths):
    # csv.reader refuses a field longer than its limit; so must the loader
    path = tmp_path / "long.csv"
    path.write_text("y,d,z,note\n1.5,1,0,short\n2.5,0,1," + "n" * 60 + "\n")
    limit = csv.field_size_limit(50)
    try:
        result = _assert_same(str(path), ColumnMap("y", "d", "z"))
    finally:
        csv.field_size_limit(limit)
    assert result[0] is csv.Error
    assert paths == [("lines", False)]      # csv raised reading the rows


def test_load_memory_bounded(tmp_path):
    n = 200_000
    rng = np.random.default_rng(3)
    cols = [rng.standard_normal(n).tolist(), rng.integers(0, 2, n).tolist(),
            rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()]
    path = tmp_path / "large.csv"
    path.write_text("y,d,z,cell\n" + "".join(
        f"{y!r},{d},{z},{c}\n" for y, d, z, c in zip(*cols)))
    del cols
    tracemalloc.start()
    try:
        ds = load_dataset(str(path), ColumnMap("y", "d", "z", ("cell",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == n
    assert peak < 24 * 2**20, f"load peaked at {peak / 2**20:.1f} MiB"
