"""The three instrumental-variables estimands and their cell weights.

All three estimators run on the observations belonging to non-degenerate
cells, and all three are exactly a weighted average of the per-cell Wald
ratios tau_j:

  saturated LATE    weights proportional to p_j pi_j
  linear IV         weights proportional to p_j pi_j Var(Z | cell j)
  interacted IV     weights proportional to p_j pi_j^2 Var(Z | cell j)

with Var(Z | cell) = q_j (1 - q_j). The identities are algebraic, not
asymptotic, and the tests hold them to 1e-8.

Because of this, no estimator here builds a cell-dummy design: the two
2SLS estimands (and the jackknife estimators in many_iv) are closed forms
in per-cell counts and means plus O(n) residual sums. The dense QR/2SLS
path in regression serves linear-control mode and the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cells import CellTable
from .errors import DomainError, IdentificationError
from .regression import PIVOT_RTOL, _check_se_args, _influence_se, _meat, _resolve_se
from .tables import json_safe


@dataclass(frozen=True)
class EstimateReport:
    estimand: str
    estimate: float
    se: float
    se_type: str
    n_used: int
    cells_used: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return json_safe({
            "estimand": self.estimand,
            "estimate": self.estimate,
            "se": self.se,
            "se_type": self.se_type,
            "n_used": self.n_used,
            "cells_used": self.cells_used,
            "metadata": dict(self.metadata),
        })


@dataclass(frozen=True)
class WeightTable:
    """Per-cell weights for the three estimands, NaN at degenerate cells."""

    w_late: np.ndarray
    w_iv: np.ndarray
    w_ai: np.ndarray
    tau: np.ndarray
    degenerate: np.ndarray
    late_defined: bool
    iv_defined: bool
    ai_defined: bool

    @property
    def n_cells(self) -> int:
        return len(self.tau)

    def dot(self, family: str) -> float:
        """Weighted average of tau under one family's weights."""
        w = {"late": self.w_late, "iv": self.w_iv, "ai": self.w_ai}[family]
        mask = ~self.degenerate
        return float(np.sum(w[mask] * self.tau[mask]))

    def to_records(self) -> list[dict]:
        return [
            {
                "cell": int(j),
                "w_late": float(self.w_late[j]),
                "w_iv": float(self.w_iv[j]),
                "w_ai": float(self.w_ai[j]),
                "tau": float(self.tau[j]),
                "degenerate": bool(self.degenerate[j]),
            }
            for j in range(self.n_cells)
        ]

    def to_json(self) -> str:
        return json.dumps(json_safe(self.to_records()), indent=2)


def _normalize(raw: np.ndarray, mask: np.ndarray):
    """Normalize raw weights over the mask; returns (weights, defined)."""
    out = np.full(raw.shape, np.nan)
    total = raw[mask].sum()
    if total == 0.0 or not np.isfinite(total):
        return out, False
    out[mask] = raw[mask] / total
    return out, True


def decompose_weights(ct: CellTable) -> WeightTable:
    """Cell weights for the three estimands from cell statistics alone."""
    mask = ct.retained
    if not mask.any():
        raise IdentificationError("no non-degenerate cells")
    pi = np.where(mask, ct.pi_j, 0.0)
    raw_late = ct.p_j * pi
    raw_iv = ct.p_j * pi * ct.var_z_j
    raw_ai = ct.p_j * pi * pi * ct.var_z_j
    w_late, late_ok = _normalize(raw_late, mask)
    w_iv, iv_ok = _normalize(raw_iv, mask)
    w_ai, ai_ok = _normalize(raw_ai, mask)
    return WeightTable(
        w_late=w_late, w_iv=w_iv, w_ai=w_ai,
        tau=ct.tau_j.copy(),
        degenerate=ct.degenerate.copy(),
        late_defined=late_ok, iv_defined=iv_ok, ai_defined=ai_ok,
    )


def _retained_rows(ct: CellTable) -> np.ndarray:
    return ct.retained[ct.assignments]


def _cell_means(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Each row's mean of v over the rows that share its cell index a."""
    counts = np.maximum(np.bincount(a), 1)   # excluded cells have no rows
    return (np.bincount(a, weights=v) / counts)[a]


def _centered_iv(ct: CellTable, g: np.ndarray, se_type: str):
    """(beta, se) of Y on D and cell intercepts over the retained rows,
    instrumented by the cell intercepts and g (one value per retained row).

    Partialling out the intercepts centers g within cells, so
    beta = sum g y / sum g d with structural residual
    e = y - ybar_cell - beta (d - dbar_cell), and the SE is the 2SLS
    sandwich element for beta with J + 1 parameters in the df factors.
    """
    ds = ct.source
    rows = _retained_rows(ct)
    a = ct.assignments[rows]
    m = len(a)
    cluster = _check_se_args(
        se_type, None if ds.cluster is None else ds.cluster[rows], m)
    y = ds.y[rows]
    d = ds.d[rows].astype(np.float64)
    g = g - _cell_means(g, a)
    dc = d - _cell_means(d, a)
    gd = float(g @ dc)
    if abs(gd) <= PIVOT_RTOL * np.linalg.norm(g) * np.linalg.norm(dc):
        raise IdentificationError(
            "instrument is uncorrelated with the treatment within cells "
            "(zero first stage)"
        )
    beta = float(g @ y) / gd
    e = y - _cell_means(y, a) - beta * dc
    df = m - int(ct.retained.sum()) - 1
    if se_type == "classical":
        if df <= 0:
            raise DomainError("no residual degrees of freedom for classical se")
        var = float(e @ e) / df * float(g @ g)
    else:
        meat, factor = _meat((g * e)[:, None], se_type, cluster, df)
        var = factor * float(meat[0, 0])
    return beta, float(np.sqrt(var)) / abs(gd)


def _iv_report(ct: CellTable, estimand: str, g: np.ndarray, se: str,
               metadata: dict) -> EstimateReport:
    beta, se_value = _centered_iv(ct, g, se)
    return EstimateReport(
        estimand=estimand, estimate=beta, se=se_value, se_type=se,
        n_used=len(g), cells_used=int(ct.retained.sum()), metadata=metadata,
    )


def estimate_beta_iv(ct: CellTable, se_type: str | None = None) -> EstimateReport:
    """Linear IV: 2SLS of Y on cell dummies and D, instrumented by Z."""
    z = ct.source.z[_retained_rows(ct)]
    return _iv_report(ct, "beta_iv", z, _resolve_se(se_type, ct.source.cluster),
                      {"estimator": "2sls", "instruments": 1})


def estimate_beta_ai(ct: CellTable, se_type: str | None = None) -> EstimateReport:
    """Interacted IV: instruments are Z times each retained cell dummy.

    The projected treatment is the cell-arm mean of D, which within a cell
    is pi_j Z plus the cell's intercept, so the instrument is pi_j Z.
    """
    rows = _retained_rows(ct)
    g = ct.pi_j[ct.assignments[rows]] * ct.source.z[rows]
    return _iv_report(ct, "beta_ai", g, _resolve_se(se_type, ct.source.cluster),
                      {"estimator": "2sls_interacted",
                       "instruments": int(ct.retained.sum())})


def estimate_beta_late_saturated(ct: CellTable, se_type: str | None = None) -> EstimateReport:
    """Share-weighted Wald ratio over non-degenerate cells.

    The point estimate is sum_j p_j (ybar_1j - ybar_0j) over
    sum_j p_j (dbar_1j - dbar_0j). The standard error comes from the
    influence function of this ratio, treating cell shares and instrument
    arm shares as estimated. A cluster se sums the influence values within
    clusters first; any other se type gives the plain influence SE.
    """
    se = _resolve_se(se_type, ct.source.cluster)
    ds = ct.source
    rows = _retained_rows(ct)
    m = int(rows.sum())
    cluster = _check_se_args(
        se, None if ds.cluster is None else ds.cluster[rows], m)
    mask = ct.retained
    num = float(np.sum(ct.p_j[mask] * ct.dy_j[mask]))
    den = float(np.sum(ct.p_j[mask] * ct.pi_j[mask]))
    if den == 0.0:
        raise IdentificationError("aggregate first stage is exactly zero")
    beta = num / den

    a = ct.assignments[rows]
    y = ds.y[rows]
    d = ds.d[rows].astype(float)
    z = ds.z[rows].astype(float)

    # rescale shares to the retained subsample so the moments average to
    # the estimate over exactly the rows used
    p_scale = ct.p_j[mask].sum()
    num_s = num / p_scale
    den_s = den / p_scale

    q = ct.q_j[a]
    my1 = ct.mean_y1_j[a]
    my0 = ct.mean_y0_j[a]
    md1 = ct.mean_d1_j[a]
    md0 = ct.mean_d0_j[a]
    dy = ct.dy_j[a]
    dd = ct.pi_j[a]

    psi_num = z * (y - my1) / q - (1 - z) * (y - my0) / (1 - q) + dy - num_s
    psi_den = z * (d - md1) / q - (1 - z) * (d - md0) / (1 - q) + dd - den_s
    infl = (psi_num - beta * psi_den) / den_s

    return EstimateReport(
        estimand="beta_late_saturated",
        estimate=beta,
        se=_influence_se(infl, cluster if se == "cluster" else None),
        se_type=se if se == "cluster" else "influence",
        n_used=m,
        cells_used=int(mask.sum()),
        metadata={"estimator": "saturated_wald_ratio"},
    )
