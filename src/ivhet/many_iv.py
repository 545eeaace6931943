"""Estimators for designs with one instrument per covariate cell.

Interacting the instrument with cell dummies turns one instrument into J,
and when J grows with the sample the interacted two stage least squares
estimator picks up a bias proportional to the number of instruments. The
two jackknife estimators remove the own-observation term that causes it:
each unit's constructed instrument is a first stage prediction computed
as if that unit had been left out. In a saturated design the first stage
fit is the cell-arm mean of D, with leverage 1/n_{j,z}, so the
leave-one-out fit is the arm mean without the unit, and the
covariates-only leave-one-out fit is the cell mean without it. Both are
constant on each (z, cell, d) bin of the cell table, so every estimate and
standard error here is a closed form in the bin statistics; only a
cluster SE goes back to the rows, to sum scores within clusters. The
dense leverage-identity fit _loo_fitted remains as the reference the
tests compare against.

jive leaves the unit out of the full first stage (covariates and
instrument interactions together). ujive additionally subtracts the
unit's leave-one-out prediction from the covariates-only regression, so
the constructed instrument is centered within cells; the two coincide up
to a term of order 1/n when the covariates are just an intercept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cells import CellTable
from .errors import DomainError, LeverageError
from .estimators import _D, _bins, _centered_iv, estimate_beta_ai
from .regression import _resolve_se, hat_diagonals, ols
from .tables import record

_LEVERAGE_CAP = 1.0 - 1e-8


@dataclass(frozen=True)
class ManyIVFit:
    estimator: str
    estimate: float
    se: float
    se_type: str
    n_instruments: int
    n_controls: int
    leverage_max: float
    n_used: int
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return record(self, "metadata")


def _check_leverage(hmax: float, what: str) -> float:
    if hmax > _LEVERAGE_CAP:
        raise LeverageError(
            f"a leverage value in the {what} regression is {hmax:.6f}; "
            "some cell arm is a single observation, so leave-one-out "
            "predictions are undefined there. Raise min_arm_size when "
            "building the cells."
        )
    return hmax


# dense reference for the closed-form leave-one-out means used below
def _loo_fitted(target: np.ndarray, design: np.ndarray, what: str):
    """Leave-one-out fitted values via the leverage identity."""
    fit = ols(target, design, se_type="hc0")
    h = hat_diagonals(design)
    hmax = _check_leverage(float(h.max()), what)
    return (fit.fitted - h * target) / (1.0 - h), hmax


def _leverage_max(ct: CellTable) -> float:
    """Largest hat value of the saturated first stage [dummies, dummies Z].

    Its fitted values are cell-arm means, so a row's leverage is one over
    its arm's size.
    """
    mask = ct.retained
    return 1.0 / float(min(ct.n1_j[mask].min(), ct.n0_j[mask].min()))


def _jackknife(ct: CellTable, estimator: str, se_type: str | None) -> ManyIVFit:
    """jive or ujive as a just-identified IV with cell intercepts.

    The leave-one-out first-stage fit is the mean of D over the row's cell
    arm without the row; ujive subtracts the same mean over the row's
    whole cell, the leave-one-out fit of the covariates-only regression:
    (treated rows - d) / (rows - 1), constant on each (z, cell, d) bin.
    """
    se = _resolve_se(se_type, ct.source.cluster)
    if se == "classical":
        raise DomainError("jackknife IV supports hc0, hc1 and cluster ses")
    hmax = _check_leverage(_leverage_max(ct), "first stage")
    n = _bins(ct)[0]
    ones = n[..., 1:]
    arm = n.sum(axis=2, keepdims=True)
    g = (ones - _D) / (arm - 1.0)
    if estimator == "ujive":
        g -= (ones.sum(axis=0) - _D) / (arm.sum(axis=0) - 1.0)
    beta, se_value = _centered_iv(ct, g, se)
    j_used = int(ct.retained.sum())
    return ManyIVFit(
        estimator=estimator, estimate=beta, se=se_value, se_type=se,
        n_instruments=j_used, n_controls=j_used,
        leverage_max=hmax, n_used=int(n.sum()),
        metadata={},
    )


def many_tsls(ct: CellTable, se_type: str | None = None) -> ManyIVFit:
    """Interacted two stage least squares, with leverage diagnostics."""
    rep = estimate_beta_ai(ct, se_type=se_type)
    return ManyIVFit(
        estimator="tsls", estimate=rep.estimate, se=rep.se, se_type=rep.se_type,
        n_instruments=rep.cells_used, n_controls=rep.cells_used,
        leverage_max=_leverage_max(ct), n_used=rep.n_used,
        metadata={"first_stage_design_columns": 2 * rep.cells_used},
    )


def jive(ct: CellTable, se_type: str | None = None) -> ManyIVFit:
    """Jackknife IV: the constructed instrument for unit i is the first
    stage prediction of D_i from a fit that leaves row i out."""
    return _jackknife(ct, "jive", se_type)


def ujive(ct: CellTable, se_type: str | None = None) -> ManyIVFit:
    """Jackknife IV with the covariate part of the prediction removed.

    The constructed instrument is the leave-one-out first stage
    prediction minus the leave-one-out prediction from the covariates
    alone, so it carries only the instrument's contribution.
    """
    return _jackknife(ct, "ujive", se_type)
