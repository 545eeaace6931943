"""The three instrumental-variables estimands and their cell weights.

All three estimators run on the observations belonging to non-degenerate
cells, and all three are exactly a weighted average of the per-cell Wald
ratios tau_j:

  saturated LATE    weights proportional to p_j pi_j
  linear IV         weights proportional to p_j pi_j Var(Z | cell j)
  interacted IV     weights proportional to p_j pi_j^2 Var(Z | cell j)

with Var(Z | cell) = q_j (1 - q_j). The identities are algebraic, not
asymptotic, and the tests hold them to 1e-8.

All three are one IV of Y on D and cell intercepts, `_centered_iv`, with
an instrument constant on each (z, cell, d) bin: z, pi_j z, and for the
LATE w = z/q_j - (1-z)/(1-q_j), centered within cells already; the LATE's
influence SE adds each cell's reduced-form residual once to the score. So
no estimator builds a cell-dummy design or passes over the rows: on a bin
each score is y less a constant, and estimates and SEs are closed forms in
the bin statistics. Only a cluster SE gathers scores back to the rows. The
dense QR/2SLS path in regression serves linear-control mode and the tests,
which also keep the row-by-row formulas as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cells import CellTable
from .errors import DomainError, IdentificationError
from .regression import PIVOT_RTOL, _check_se_args, _factor, _meat, _resolve_se
from .tables import json_safe, record, rows


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
        return json_safe(record(self))


@dataclass(frozen=True)
class WeightTable:
    """Per-cell weights for the three estimands, NaN at degenerate cells."""

    w_late: np.ndarray
    w_iv: np.ndarray
    w_ai: np.ndarray
    tau: np.ndarray
    degenerate: np.ndarray

    @property
    def n_cells(self) -> int:
        return len(self.tau)

    def dot(self, family: str) -> float:
        """Weighted average of tau under one family's weights."""
        w = {"late": self.w_late, "iv": self.w_iv, "ai": self.w_ai}[family]
        mask = ~self.degenerate
        return float(np.sum(w[mask] * self.tau[mask]))

    def to_records(self) -> list[dict]:
        return rows(cell=range(self.n_cells), w_late=self.w_late, w_iv=self.w_iv,
                    w_ai=self.w_ai, tau=self.tau, degenerate=self.degenerate)


def _normalize(raw: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """raw over its sum on the mask, NaN off it, and all NaN when that sum
    is zero or not finite."""
    out = np.full(raw.shape, np.nan)
    total = raw[mask].sum()
    if total != 0.0 and np.isfinite(total):
        out[mask] = raw[mask] / total
    return out


def _weight_table(p, var, pi, tau, degenerate) -> WeightTable:
    """The three weight families p pi, p pi var and p pi^2 var, normalized
    over the cells that are not degenerate."""
    mask = ~degenerate
    return WeightTable(_normalize(p * pi, mask), _normalize(p * pi * var, mask),
                       _normalize(p * pi * pi * var, mask), tau, degenerate)


def decompose_weights(ct: CellTable) -> WeightTable:
    """Cell weights for the three estimands from cell statistics alone."""
    return _weight_table(ct.p_j, ct.var_z_j, np.where(ct.retained, ct.pi_j, 0.0),
                         ct.tau_j.copy(), ct.degenerate.copy())


_D = np.array([0.0, 1.0])       # d along the last axis of a bin array
_Z = _D[:, None, None]          # z along the first


def _bins(ct: CellTable):
    """Counts, means of y less the arm's mean (0 if empty) and centered sums
    of squares of y on the retained cells' bins, shaped (2, J_retained, 2)."""
    r = ct.retained
    n = ct.n_b[:, r].astype(np.float64)
    dev = np.divide(ct.dev_y_b[:, r], n, out=np.zeros(n.shape), where=n > 0)
    return n, dev, ct.ss_y_b[:, r]


def _cell_centered(n: np.ndarray, v) -> np.ndarray:
    """v, one value per bin, less its row-weighted mean over the bin's cell."""
    v = np.broadcast_to(v, n.shape)
    return v - ((n * v).sum(axis=(0, 2)) / n.sum(axis=(0, 2)))[:, None]


def _score_var(ct: CellTable, bins, mu, gamma, se_type: str, df: int) -> float:
    """factor x meat of the retained rows' scores mu + gamma (y - ybar_bin),
    mu and gamma given per bin. The meat is sum_b n_b mu_b^2 + gamma_b^2 SS_b,
    or for cluster the squared sums of the rows' scores within clusters."""
    n, dev, ss = bins
    if se_type != "cluster":
        return _factor(se_type, int(n.sum()), df) * float(
            np.sum(n * np.square(mu) + np.square(gamma) * ss))
    ds, r = ct.source, ct.retained
    rows = r[ct.assignments]
    code = (ds.z[rows] * n.shape[1] + (np.cumsum(r) - 1)[ct.assignments[rows]]) * 2
    code += ds.d[rows]
    arm = np.stack([ct.mean_y0_j[r], ct.mean_y1_j[r]])[..., None]
    mu, gamma, arm = (np.broadcast_to(v, n.shape).ravel()[code]
                      for v in (mu - gamma * dev, gamma, arm))
    meat, factor = _meat((mu + gamma * (ds.y[rows] - arm))[:, None], se_type,
                         ds.cluster[rows], df)
    return factor * float(meat[0, 0])


def _centered_iv(ct: CellTable, g, se_type: str, influence: bool = False):
    """(beta, se) of Y on D and cell intercepts over the retained rows,
    instrumented by the cell intercepts and g, one value per retained
    (z, cell, d) bin.

    Partialling out the intercepts centers g within cells, so
    beta = sum g y / sum g d with structural residual
    e = y - ybar_cell - beta (d - dbar_cell), and the SE is the 2SLS
    sandwich element for beta with J + 1 parameters in the df factors.

    With influence, g is the LATE's w and the SE its influence SE (hc0
    unless cluster, df = m - 1). The score g e holds the cell's
    reduced-form residual r_j = sum_{b in j} n_b g_b e_b / n_j a total of
    g (z - q_j) times and the influence value once, so it gains
    (1 - g (z - q_j)) r_j.
    """
    ds = ct.source
    _check_se_args(se_type, ds.cluster, ds.n)
    if influence and se_type != "cluster":
        se_type = "hc0"
    bins = n, dev, _ = _bins(ct)
    g = _cell_centered(n, g)
    dc = _cell_centered(n, _D)
    gd = float(np.sum(n * g * dc))
    if abs(gd) <= PIVOT_RTOL * np.sqrt(np.sum(n * g * g) * np.sum(n * dc * dc)):
        raise IdentificationError(
            "instrument is uncorrelated with the treatment within cells "
            "(zero first stage)"
        )
    # y less the cell's z = 0 arm mean, a shift the cell intercepts absorb
    ybar = dev + _Z * ct.dy_j[ct.retained][:, None]
    beta = float(np.sum(n * g * ybar)) / gd
    e = _cell_centered(n, ybar) - beta * dc         # each bin's mean residual
    m = int(n.sum())
    df = m - 1 if influence else m - n.shape[1] - 1
    if se_type == "classical":
        if df <= 0:
            raise DomainError("no residual degrees of freedom for classical se")
        var = _score_var(ct, bins, e, 1.0, "hc0", df) / df * float(np.sum(n * g * g))
    else:
        score = g * e
        if influence:
            r = (n * score).sum(axis=(0, 2)) / n.sum(axis=(0, 2))
            score += (1.0 - g * (_Z - ct.q_j[ct.retained][:, None])) * r[:, None]
        var = _score_var(ct, bins, score, g, se_type, df)
    return beta, float(np.sqrt(var)) / abs(gd)


def _iv_report(ct: CellTable, estimand: str, g, se: str, metadata: dict,
               influence: bool = False) -> EstimateReport:
    beta, se_value = _centered_iv(ct, g, se, influence)
    return EstimateReport(
        estimand=estimand, estimate=beta, se=se_value,
        se_type="influence" if influence and se != "cluster" else se,
        n_used=int(ct.n_j[ct.retained].sum()), cells_used=int(ct.retained.sum()),
        metadata=metadata,
    )


def estimate_beta_iv(ct: CellTable, se_type: str | None = None) -> EstimateReport:
    """Linear IV: 2SLS of Y on cell dummies and D, instrumented by Z."""
    return _iv_report(ct, "beta_iv", _Z, _resolve_se(se_type, ct.source.cluster),
                      {"estimator": "2sls", "instruments": 1})


def estimate_beta_ai(ct: CellTable, se_type: str | None = None) -> EstimateReport:
    """Interacted IV: instruments are Z times each retained cell dummy.

    The projected treatment is the cell-arm mean of D, which within a cell
    is pi_j Z plus the cell's intercept, so the instrument is pi_j Z.
    """
    g = ct.pi_j[ct.retained][:, None] * _Z
    return _iv_report(ct, "beta_ai", g, _resolve_se(se_type, ct.source.cluster),
                      {"estimator": "2sls_interacted",
                       "instruments": int(ct.retained.sum())})


def estimate_beta_late_saturated(ct: CellTable, se_type: str | None = None) -> EstimateReport:
    """Share-weighted Wald ratio over non-degenerate cells.

    The point estimate is sum_j p_j (ybar_1j - ybar_0j) over
    sum_j p_j (dbar_1j - dbar_0j), the IV with instrument
    w = z/q_j - (1-z)/(1-q_j), which is centered within each cell. The
    standard error comes from the influence function of this ratio,
    treating cell shares and instrument arm shares as estimated. A cluster
    se sums the influence values within clusters first; any other se type
    gives the plain influence SE.
    """
    q = ct.q_j[ct.retained][:, None]
    return _iv_report(ct, "beta_late_saturated", _Z / q - (1.0 - _Z) / (1.0 - q),
                      _resolve_se(se_type, ct.source.cluster),
                      {"estimator": "saturated_wald_ratio"}, influence=True)
