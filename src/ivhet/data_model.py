"""Observation-level data container, CSV ingestion, and basic validation.

A Dataset is immutable once built. load_dataset reads a comma-delimited
UTF-8 file (a leading byte-order mark is skipped) whose first record is
the header. The dialect is the csv module's default: fields may be quoted
with ", a doubled "" inside quotes is a literal quote, and a quoted field
may span lines. Lines may end in LF, CRLF or CR. Header names and tokens
are stripped of surrounding whitespace. Blank lines are skipped and not
counted.

Rules for each non-blank body row:

* the treatment and instrument must be written as "0", "1", "0.0" or
  "1.0". Any other non-empty token raises DomainError rather than being
  coerced, because a silently mis-coded arm is the most expensive failure
  mode downstream;
* a row that is too short to hold every mapped column, or that has an
  empty or non-numeric token, a non-finite value ("nan", "inf") or an
  empty cluster label in a mapped column, is dropped and counted in
  Dataset.dropped;
* cluster labels are arbitrary strings, recoded to integers in order of
  first appearance.

Errors. ConfigError (CLI exit 2): a missing, unreadable or directory
path, and a mapped column that the header lacks or names twice.
DomainError (exit 1): bytes that are not UTF-8, named by their offset, and
a miscoded binary token. EmptyDataError (exit 1): an empty file, or fewer
than two usable rows.

How the body is read. Lines come in chunks of _CHUNK_ROWS, and numpy's C
tokenizer converts a chunk in one pass into records of the mapped columns:
real columns as float64, binary columns as four-byte strings compared, as
uint32 words, with the accepted forms, the cluster column as strings. A
chunk takes the row rules (csv.reader plus _parse_real and _parse_binary,
one row at a time) instead when it holds anything the column path does
not decide the same way: non-ASCII text, NUL, whitespace inside a line, a
line longer than the csv field limit, a token numpy will not convert, or
a binary token outside the accepted forms. A quoted field open at the end of a chunk takes lines
from the next ones until its record ends, so a quoted newline may span
chunks; the column path resumes after that record. Chunks are taken in
file order, so drops, codes, errors and messages are those of
reading row by row, as tests/oracles.py's reference loader does.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, DomainError, EmptyDataError

_BINARY_FORMS = {"0": 0, "1": 1, "0.0": 0, "1.0": 1}
# each form as the uint32 word of its NUL-padded four bytes, one row per value
_FORM_WORDS = np.array([[f for f, v in _BINARY_FORMS.items() if v == b]
                        for b in (0, 1)], dtype="S4").view(np.uint32)
_CHUNK_ROWS = 32_768        # body lines converted per chunk
# A chunk with any of these goes through the row rules: the quote, NUL,
# and every ASCII character that str.strip removes (line ends aside,
# which only ever end a line).
_ROW_RULE_CHARS = '"\x00 \t\x0b\x0c\x1c\x1d\x1e\x1f'


def _read_json(path: str, what: str):
    """Parse a JSON file; an unreadable or malformed one is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not JSON: {exc}") from None


@dataclass(frozen=True)
class ColumnMap:
    """Names of the columns that play each role."""

    outcome: str
    treatment: str
    instrument: str
    covariates: tuple[str, ...] = ()
    cluster: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        roles = [self.outcome, self.treatment, self.instrument, *self.covariates]
        if any(not isinstance(r, str) or not r for r in roles):
            raise ConfigError("column names must be non-empty strings")
        if len(set(roles)) != len(roles):
            raise ConfigError(
                "outcome, treatment, instrument and covariates must name distinct columns"
            )

    @classmethod
    def from_json(cls, path: str) -> "ColumnMap":
        raw = _read_json(path, "column map file")
        if not isinstance(raw, dict):
            raise ConfigError("column map file must hold a JSON object")
        known = {"outcome", "treatment", "instrument", "covariates", "cluster"}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown keys in column map file: {sorted(extra)}")
        try:
            return cls(
                outcome=raw["outcome"],
                treatment=raw["treatment"],
                instrument=raw["instrument"],
                covariates=tuple(raw.get("covariates") or ()),
                cluster=raw.get("cluster"),
            )
        except KeyError as exc:
            raise ConfigError(f"column map file is missing key {exc}") from exc


@dataclass(frozen=True)
class Dataset:
    """Aligned observation arrays. All arrays share length n >= 2."""

    y: np.ndarray
    d: np.ndarray
    z: np.ndarray
    x: np.ndarray
    covariate_names: tuple[str, ...] = ()
    cluster: np.ndarray | None = None
    dropped: int = 0

    def __post_init__(self):
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64))
        d = np.ascontiguousarray(np.asarray(self.d, dtype=np.int64))
        z = np.ascontiguousarray(np.asarray(self.z, dtype=np.int64))
        x = np.ascontiguousarray(np.asarray(self.x, dtype=np.float64))
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise DomainError("covariate matrix must be two dimensional")
        n = y.shape[0]
        if n < 2:
            raise DomainError("a dataset needs at least 2 rows")
        if d.shape != (n,) or z.shape != (n,) or x.shape[0] != n:
            raise DomainError("column lengths differ")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise DomainError("outcome and covariates must be finite")
        if not np.isin(d, (0, 1)).all():
            raise DomainError("treatment takes values outside {0, 1}")
        if not np.isin(z, (0, 1)).all():
            raise DomainError("instrument takes values outside {0, 1}")
        names = tuple(self.covariate_names)
        if not names:
            names = tuple(f"x{i + 1}" for i in range(x.shape[1]))
        if len(names) != x.shape[1]:
            raise DomainError("covariate_names length does not match x")
        cluster = self.cluster
        if cluster is not None:
            cluster = np.ascontiguousarray(cluster)
            if cluster.shape != (n,):
                raise DomainError("cluster column length differs")
            if cluster.dtype.kind == "f" and not np.isfinite(cluster).all():
                raise DomainError("cluster labels must be finite")
            cluster.setflags(write=False)
        for arr in (y, d, z, x):
            arr.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "covariate_names", names)
        object.__setattr__(self, "cluster", cluster)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]

    def subset(self, mask: np.ndarray) -> "Dataset":
        """New Dataset holding the rows selected by a boolean mask."""
        return Dataset(
            y=self.y[mask],
            d=self.d[mask],
            z=self.z[mask],
            x=self.x[mask],
            covariate_names=self.covariate_names,
            cluster=None if self.cluster is None else self.cluster[mask],
            dropped=self.dropped,
        )


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    errors: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()


def _parse_binary(token: str, column: str):
    token = token.strip()
    if not token:
        return None
    try:
        return _BINARY_FORMS[token]
    except KeyError:
        raise DomainError(
            f"column '{column}' holds '{token}'; only 0/1 (or 0.0/1.0) are accepted"
        ) from None


def _parse_real(token: str):
    token = token.strip()
    if not token:
        return None
    try:
        value = float(token)
    except ValueError:
        return None
    if not np.isfinite(value):
        return None
    return value


def _positions(header: list[str], cmap: ColumnMap, path: str) -> dict[str, int]:
    header = [h.strip() for h in header]
    wanted = [cmap.outcome, cmap.treatment, cmap.instrument, *cmap.covariates]
    if cmap.cluster is not None:
        wanted.append(cmap.cluster)
    positions = {}
    for name in wanted:
        count = header.count(name)
        if count == 0:
            raise ConfigError(f"column '{name}' not found in {path}")
        if count > 1:
            raise ConfigError(
                f"column '{name}' appears {count} times in the header of {path}"
            )
        positions[name] = header.index(name)
    return positions


def _columnar(lines: list[str]) -> bool:
    """Whether numpy's tokenizer reads these lines as csv.reader would."""
    text = "".join(lines)
    return (text.isascii() and not any(c in text for c in _ROW_RULE_CHARS)
            and max(map(len, lines)) <= csv.field_size_limit())


class _Columns:
    """The mapped columns of the body, gathered chunk by chunk in file order."""

    def __init__(self, positions: dict[str, int], cmap: ColumnMap):
        self.cmap = cmap
        self.real_pos = [positions[c] for c in (cmap.outcome, *cmap.covariates)]
        self.binary_pos = [positions[cmap.treatment], positions[cmap.instrument]]
        self.cluster_pos = None if cmap.cluster is None else positions[cmap.cluster]
        self.max_pos = max(positions.values())
        self.dtype = [("real", np.float64, (len(self.real_pos),)),
                      ("binary", "S4", (2,))]
        self.usecols = [*self.real_pos, *self.binary_pos]
        if self.cluster_pos is not None:
            self.dtype.append(("label", object))
            self.usecols.append(self.cluster_pos)
        self.reals: list[np.ndarray] = []     # (kept, 1 + k): outcome, covariates
        self.binaries: list[np.ndarray] = []  # (kept, 2) bool: treatment, instrument
        self.codes: list[np.ndarray] = []
        self.labels: dict[str, int] = {}
        self.rows = 0
        self.dropped = 0

    def _append(self, rows: int, reals, binaries, labels) -> None:
        self.rows += rows
        self.dropped += rows - len(reals)
        width = len(self.real_pos)
        self.reals.append(np.asarray(reals, dtype=np.float64).reshape(-1, width))
        self.binaries.append(np.asarray(binaries, dtype=bool).reshape(-1, 2))
        if self.cluster_pos is not None:
            code = self.labels.setdefault
            self.codes.append(np.array([code(s, len(self.labels)) for s in labels],
                                       dtype=np.int64))

    def add_lines(self, lines: list[str]) -> bool:
        """Convert a chunk of lines by column.

        Returns False, having added nothing, when the chunk must take the
        row rules instead.
        """
        if not _columnar(lines):
            return False
        # csv.reader and numpy both skip the blank lines, and only those
        rows = len(lines) - sum(lines.count(end) for end in ("\n", "\r\n", "\r"))
        if rows == 0:
            return True
        try:
            table = np.loadtxt(lines, dtype=self.dtype, usecols=self.usecols,
                               delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return False
        # four bytes hold every accepted form and expose longer tokens
        words = table["binary"].view(np.uint32)
        zeros, ones = ((words == w0) | (words == w1) for w0, w1 in _FORM_WORDS)
        if not (zeros | ones).all():
            return False
        keep = np.isfinite(table["real"]).all(axis=1)
        labels = None
        if self.cluster_pos is not None:
            keep &= table["label"] != ""
            labels = table["label"][keep]
        self._append(rows, table["real"][keep], ones[keep], labels)
        return True

    def add_rows(self, rows) -> None:
        """Apply the row rules to csv records, one at a time."""
        cmap = self.cmap
        raw, reals, binaries, labels = 0, [], [], []
        for row in rows:
            if not row:
                continue
            raw += 1
            if len(row) <= self.max_pos:
                continue
            d = _parse_binary(row[self.binary_pos[0]], cmap.treatment)
            z = _parse_binary(row[self.binary_pos[1]], cmap.instrument)
            values = [_parse_real(row[p]) for p in self.real_pos]
            label = None
            if self.cluster_pos is not None:
                label = row[self.cluster_pos].strip()
                if not label:
                    continue
            if d is None or z is None or any(v is None for v in values):
                continue
            reals.append(values)
            binaries.append((d, z))
            labels.append(label)
        self._append(raw, reals, binaries, labels)

    def dataset(self, path: str) -> Dataset:
        kept = self.rows - self.dropped
        if kept == 0:
            raise EmptyDataError(f"no usable rows in {path}")
        if kept < 2:
            raise EmptyDataError(f"only {kept} usable row in {path}; need at least 2")
        reals, binaries = np.concatenate(self.reals), np.concatenate(self.binaries)
        self.reals, self.binaries = [], []      # free the chunks before the copies
        return Dataset(
            y=reals[:, 0],
            d=binaries[:, 0],
            z=binaries[:, 1],
            x=reals[:, 1:],
            covariate_names=self.cmap.covariates,
            cluster=None if self.cluster_pos is None else np.concatenate(self.codes),
            dropped=self.dropped,
        )


def _read_body(fh, cols: _Columns) -> None:
    while lines := list(islice(fh, _CHUNK_ROWS)):
        if cols.add_lines(lines):
            continue
        # a quoted field open on the last line takes lines from fh
        records, rows = csv.reader(chain(lines, fh)), []
        for row in records:
            rows.append(row)
            if records.line_num >= len(lines):
                break
        cols.add_rows(rows)


def _undecodable(path: str) -> DomainError:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return DomainError(f"{path} is not UTF-8 text: byte 0x{data[exc.start]:02x} "
                           f"at offset {exc.start} cannot be decoded")
    return DomainError(f"{path} is not UTF-8 text")


def load_dataset(path: str, cmap: ColumnMap) -> Dataset:
    """Read a comma-delimited UTF-8 file with a header row into a Dataset.

    Rows with a missing or unparseable value in any mapped column are
    dropped; the count lands in Dataset.dropped. Cluster labels may be
    arbitrary strings and are recoded to integers in order of first
    appearance. The module docstring gives the dialect and the rules.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    try:
        with fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise EmptyDataError(f"{path} is empty")
            cols = _Columns(_positions(header, cmap, path), cmap)
            _read_body(fh, cols)
    except UnicodeDecodeError:
        raise _undecodable(path) from None
    ds = cols.dataset(path)
    assert ds.n + ds.dropped == cols.rows
    return ds


def validate(ds: Dataset) -> ValidationReport:
    """Cheap sanity checks run before any estimation."""
    errors = []
    warnings = []
    if ds.z.min() == ds.z.max():
        errors.append("instrument has no variation")
    if ds.d.min() == ds.d.max():
        errors.append("treatment has no variation")
    for j, name in enumerate(ds.covariate_names):
        col = ds.x[:, j]
        if col.size and col.min() == col.max():
            warnings.append(f"covariate '{name}' is constant")
    return ValidationReport(passed=not errors, errors=tuple(errors),
                            warnings=tuple(warnings))
