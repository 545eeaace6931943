"""Saturated covariate cells and their first-stage summaries.

A cell is one distinct covariate tuple. Per cell the table holds the share
p_j, the instrument mean q_j with the population-formula variance
q_j (1 - q_j), the first-stage arm difference pi_j and the Wald ratio
tau_j. Cells where either instrument arm is too thin, or where the first
stage is exactly zero, are flagged degenerate; every estimator in this
package excludes the same degenerate set so that the weight identities
hold exactly on what remains.

Per (z, cell, d) bin it holds the row count and centered sums of y, which
stay accurate when |ybar| is large against the spread of y (Chan, Golub &
LeVeque 1983); every saturated standard error is a closed form in them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data_model import Dataset
from .errors import ConfigError, IdentificationError
from .tables import fmt3, fmtg, format_table, json_safe, rows

DEFAULT_MIN_CELL_SIZE = 1
DEFAULT_MIN_ARM_SIZE = 3
_CODE_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CellTable:
    """Per-cell statistics plus the row-to-cell assignment."""

    assignments: np.ndarray          # (n,) cell index per observation
    keys: tuple[tuple[float, ...], ...]
    n_j: np.ndarray
    n1_j: np.ndarray                 # observations with z = 1
    n0_j: np.ndarray
    p_j: np.ndarray
    q_j: np.ndarray
    var_z_j: np.ndarray
    pi_j: np.ndarray
    dy_j: np.ndarray                 # outcome arm difference
    tau_j: np.ndarray
    mean_y1_j: np.ndarray
    mean_y0_j: np.ndarray
    mean_d1_j: np.ndarray
    mean_d0_j: np.ndarray
    n_b: np.ndarray                  # (2, J, 2) rows per (z, cell, d) bin
    dev_y_b: np.ndarray              # sum of (y - arm mean of y) per bin
    ss_y_b: np.ndarray               # sum of (y - bin mean of y)^2 per bin
    degenerate: np.ndarray           # bool (J,)
    min_cell_size: int
    min_arm_size: int
    warnings: tuple[str, ...]
    source: Dataset

    @property
    def n_cells(self) -> int:
        return len(self.keys)

    @property
    def retained(self) -> np.ndarray:
        return ~self.degenerate

    def key_label(self, j: int) -> str:
        key = self.keys[j]
        if not key:
            return "(all)"
        return "(" + ", ".join(map(fmtg, key)) + ")"


class _Keyed(NamedTuple):
    codes: np.ndarray           # (n,) cell index per row
    keys: np.ndarray            # (J, k) distinct rows, -0.0 read as 0.0
    levels: list[int]           # distinct values per column


def _cell_keys(x: np.ndarray) -> _Keyed:
    """Each row's cell index, the distinct rows of x in lexicographic order
    (first column most significant, -0.0 read as 0.0), and the number of
    levels of each column.

    Each column is factorized once and the level codes are combined in
    mixed radix, the first column most significant, so one 1-D unique of
    the combined codes orders the cells as a sort of whole rows would.
    Before a column whose radix would pass int64, the running code is
    factorized again; that keeps its order and bounds it by the row count.
    """
    n = x.shape[0]
    code = np.zeros(n, dtype=np.int64)
    radix = 1
    levels = []
    for col in x.T:
        # -0.0 == 0.0, so both get one code
        values, inverse = np.unique(col, return_inverse=True)
        levels.append(values.size)
        if radix * values.size > _CODE_MAX:
            code = np.unique(code, return_inverse=True)[1]
            radix = int(code.max()) + 1
        code *= values.size
        code += inverse
        radix *= values.size
    if len(levels) > 1:     # one column's codes are already 0, 1, ...
        code = np.unique(code, return_inverse=True)[1]
    # every row of a cell holds its key
    row = np.empty(int(code.max()) + 1, dtype=np.int64)
    row[code] = np.arange(n)
    return _Keyed(code, x[row] + 0.0, levels)


def build_cells(ds: Dataset, min_cell_size: int = DEFAULT_MIN_CELL_SIZE,
                min_arm_size: int = DEFAULT_MIN_ARM_SIZE) -> CellTable:
    """Group rows into saturated cells and compute per-cell statistics.

    Covariates are expected to be indicators or small-cardinality discrete
    codes; each distinct tuple becomes one cell, ordered lexicographically
    so the table does not depend on row order. The keys come from
    factorizing each column once (see _cell_keys), in the same
    lexicographic order a sort of whole rows gives.
    """
    return _table(ds, _cell_keys(ds.x), min_cell_size, min_arm_size)


def _table(ds: Dataset, keyed: _Keyed, min_cell_size: int,
           min_arm_size: int) -> CellTable:
    """The cell table of ds on its keyed cells, keyed = _cell_keys(ds.x); the
    arm sums of y come from a (cell, z) bincount, all else from (z, cell, d)."""
    if min_cell_size < 1:
        raise ConfigError("min_cell_size must be at least 1")
    if min_arm_size < 1:
        raise ConfigError("min_arm_size must be at least 1")

    n = ds.n
    assignments, keys_arr, levels = keyed
    n_cells = keys_arr.shape[0]
    keys = tuple(tuple(float(v) for v in row) for row in keys_arr)

    warnings: list[str] = []
    if math.prod(levels) > n:
        warnings.append(
            "covariate cell cardinality exceeds the sample size; "
            "saturated estimates will be noisy or undefined"
        )

    # row k of each (2, J) array is arm z = k; bincount adds an arm's y in
    # row order, as a per-arm masked pass would, so the sums are the same.
    # Bin (z, cell, d) is code 2 (z J + cell) + d
    code = ds.z * n_cells + assignments
    sum_y = np.bincount(code, weights=ds.y, minlength=2 * n_cells).reshape(2, -1)
    code *= 2
    code += ds.d
    n_b = np.bincount(code, minlength=4 * n_cells).reshape(2, -1, 2)
    n0_j, n1_j = counts = n_b.sum(axis=2)
    n_j = n0_j + n1_j
    p_j = n_j / n
    with np.errstate(invalid="ignore", divide="ignore"):
        q_j = n1_j / n_j
        (mean_y0, mean_y1), (mean_d0, mean_d1) = np.where(
            counts > 0, np.stack([sum_y, n_b[..., 1]]) / counts, np.nan)
    dev = np.repeat(np.stack([mean_y0, mean_y1]), 2)[code]
    np.subtract(ds.y, dev, out=dev)
    dev_y_b = np.bincount(code, weights=dev, minlength=4 * n_cells).reshape(n_b.shape)
    dev -= np.divide(dev_y_b, n_b, out=np.zeros(n_b.shape), where=n_b > 0).ravel()[code]
    ss_y_b = np.bincount(code, weights=np.square(dev, out=dev),
                         minlength=4 * n_cells).reshape(n_b.shape)
    var_z_j = q_j * (1.0 - q_j)
    pi_j = mean_d1 - mean_d0
    dy_j = mean_y1 - mean_y0

    degenerate = (
        (n_j < min_cell_size)
        | (n1_j < min_arm_size)
        | (n0_j < min_arm_size)
        | ~np.isfinite(pi_j)
        | (pi_j == 0.0)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        tau_j = np.where(~degenerate, dy_j / np.where(pi_j == 0, np.nan, pi_j), np.nan)

    if degenerate.all():
        raise IdentificationError(
            "every cell is degenerate (thin instrument arms or zero first stage); "
            "nothing is identified"
        )

    for arr in (n_j, n1_j, n0_j, p_j, q_j, var_z_j, pi_j, dy_j, tau_j,
                mean_y1, mean_y0, mean_d1, mean_d0, n_b, dev_y_b, ss_y_b,
                degenerate, assignments):
        arr.setflags(write=False)

    return CellTable(
        assignments=assignments,
        keys=keys,
        n_j=n_j,
        n1_j=n1_j,
        n0_j=n0_j,
        p_j=p_j,
        q_j=q_j,
        var_z_j=var_z_j,
        pi_j=pi_j,
        dy_j=dy_j,
        tau_j=tau_j,
        mean_y1_j=mean_y1,
        mean_y0_j=mean_y0,
        mean_d1_j=mean_d1,
        mean_d0_j=mean_d0,
        n_b=n_b,
        dev_y_b=dev_y_b,
        ss_y_b=ss_y_b,
        degenerate=degenerate,
        min_cell_size=min_cell_size,
        min_arm_size=min_arm_size,
        warnings=tuple(warnings),
        source=ds,
    )


@dataclass(frozen=True)
class CellStatsReport:
    """Tabular view of a CellTable, optionally with decomposition weights."""

    records: tuple[dict, ...]
    warnings: tuple[str, ...]

    def to_text(self) -> str:
        if not self.records:
            return "(no cells)"
        headers = list(self.records[0].keys())
        return format_table(headers, [
            [fmt3(v) if isinstance(v, float) else str(v) for v in map(rec.get, headers)]
            for rec in self.records])

    def to_json(self) -> str:
        return json.dumps(json_safe(list(self.records)), indent=2)


def cell_stats_table(ct: CellTable, weights=None) -> CellStatsReport:
    """Per-cell rows with full-precision machine values.

    weights, when given, is the WeightTable from decompose_weights; its
    three columns are appended to each row.
    """
    w = {} if weights is None else {
        "w_late": weights.w_late, "w_iv": weights.w_iv, "w_ai": weights.w_ai}
    records = rows(cell=[ct.key_label(j) for j in range(ct.n_cells)], n=ct.n_j,
                   p=ct.p_j, q=ct.q_j, var_z=ct.var_z_j, pi=ct.pi_j, tau=ct.tau_j,
                   degenerate=ct.degenerate, **w)
    return CellStatsReport(records=tuple(records), warnings=ct.warnings)
