"""Saturated covariate cells and their first-stage summaries.

A cell is one distinct covariate tuple. Per cell the table holds the share
p_j, the instrument mean q_j with the population-formula variance
q_j (1 - q_j), the first-stage arm difference pi_j and the Wald ratio
tau_j. Cells where either instrument arm is too thin, or where the first
stage is exactly zero, are flagged degenerate; every estimator in this
package excludes the same degenerate set so that the weight identities
hold exactly on what remains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .errors import ConfigError, IdentificationError
from .tables import format_table, json_safe

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
        return "(" + ", ".join(f"{v:g}" for v in key) + ")"


def _arm_means(values: np.ndarray, assignments: np.ndarray, arm_mask: np.ndarray,
               n_cells: int, arm_counts: np.ndarray) -> np.ndarray:
    sums = np.bincount(assignments[arm_mask], weights=values[arm_mask],
                       minlength=n_cells)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(arm_counts > 0, sums / np.maximum(arm_counts, 1), np.nan)


def _cell_keys(x: np.ndarray):
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
    return code, x[row] + 0.0, levels


def build_cells(ds: Dataset, min_cell_size: int = DEFAULT_MIN_CELL_SIZE,
                min_arm_size: int = DEFAULT_MIN_ARM_SIZE) -> CellTable:
    """Group rows into saturated cells and compute per-cell statistics.

    Covariates are expected to be indicators or small-cardinality discrete
    codes; each distinct tuple becomes one cell, ordered lexicographically
    so the table does not depend on row order. The keys come from
    factorizing each column once (see _cell_keys), in the same
    lexicographic order a sort of whole rows gives.
    """
    if min_cell_size < 1:
        raise ConfigError("min_cell_size must be at least 1")
    if min_arm_size < 1:
        raise ConfigError("min_arm_size must be at least 1")

    n = ds.n
    assignments, keys_arr, levels = _cell_keys(ds.x)
    n_cells = keys_arr.shape[0]
    keys = tuple(tuple(float(v) for v in row) for row in keys_arr)

    warnings: list[str] = []
    if math.prod(levels) > n:
        warnings.append(
            "covariate cell cardinality exceeds the sample size; "
            "saturated estimates will be noisy or undefined"
        )

    z = ds.z
    n_j = np.bincount(assignments, minlength=n_cells).astype(np.int64)
    n1_j = np.bincount(assignments[z == 1], minlength=n_cells).astype(np.int64)
    n0_j = n_j - n1_j
    p_j = n_j / n
    with np.errstate(invalid="ignore", divide="ignore"):
        q_j = n1_j / n_j
    var_z_j = q_j * (1.0 - q_j)

    arm1 = z == 1
    arm0 = ~arm1
    y = ds.y
    d = ds.d.astype(np.float64)
    mean_y1 = _arm_means(y, assignments, arm1, n_cells, n1_j)
    mean_y0 = _arm_means(y, assignments, arm0, n_cells, n0_j)
    mean_d1 = _arm_means(d, assignments, arm1, n_cells, n1_j)
    mean_d0 = _arm_means(d, assignments, arm0, n_cells, n0_j)
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
                mean_y1, mean_y0, mean_d1, mean_d0, degenerate, assignments):
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
        rows = []
        for rec in self.records:
            row = []
            for key in headers:
                val = rec[key]
                if isinstance(val, float):
                    row.append("." if not np.isfinite(val) else f"{val:.3f}")
                else:
                    row.append(str(val))
            rows.append(row)
        return format_table(headers, rows)

    def to_json(self) -> str:
        return json.dumps(json_safe(list(self.records)), indent=2)


def cell_stats_table(ct: CellTable, weights=None) -> CellStatsReport:
    """Per-cell rows with full-precision machine values.

    weights, when given, is the WeightTable from decompose_weights; its
    three columns are appended to each row.
    """
    records = []
    for j in range(ct.n_cells):
        rec = {
            "cell": ct.key_label(j),
            "n": int(ct.n_j[j]),
            "p": float(ct.p_j[j]),
            "q": float(ct.q_j[j]),
            "var_z": float(ct.var_z_j[j]),
            "pi": float(ct.pi_j[j]) if np.isfinite(ct.pi_j[j]) else float("nan"),
            "tau": float(ct.tau_j[j]) if np.isfinite(ct.tau_j[j]) else float("nan"),
            "degenerate": bool(ct.degenerate[j]),
        }
        if weights is not None:
            rec["w_late"] = float(weights.w_late[j])
            rec["w_iv"] = float(weights.w_iv[j])
            rec["w_ai"] = float(weights.w_ai[j])
        records.append(rec)
    return CellStatsReport(records=tuple(records), warnings=ct.warnings)
