"""Functional-form checks built on powers of the fitted index.

Both tests ask the same question: once the model has produced a fitted
value, do transformations of it still predict the response? For the
linear model the added regressors are powers of the fitted value and the
decision is a robust Wald test; for binary index models the added
regressors are powers of the standardized index and the decision is a
likelihood ratio against a chi-squared reference.

The added columns are orthogonalized against the original design before
testing. That changes nothing about the test (the Wald statistic for the
added block is invariant to adding any in-span component back) but keeps
the augmented solve well conditioned, and it makes the degenerate case
explicit: when every added column lies in the span of the design, there
is nothing to test and the report says so with a p-value of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, SeparationError
from .regression import ols
from .special import chi2_sf, f_sf
from .tables import record

_SPAN_TOL = 1e-8
_EXACT_FIT_TOL = 1e-12  # base residual norm / uncentered ||y|| below this is rounding
_ALLOWED_POWERS = (2, 3, 4)


@dataclass(frozen=True)
class TestReport:
    test: str
    statistic: float
    df: tuple[int, ...]
    p_value: float | None
    method: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return record(self, "method")


def _check_powers(powers) -> tuple[int, ...]:
    powers = tuple(sorted(set(int(p) for p in powers)))
    if not powers:
        raise DomainError("at least one power is required")
    bad = [p for p in powers if p not in _ALLOWED_POWERS]
    if bad:
        raise DomainError(f"powers must be drawn from {_ALLOWED_POWERS}, got {bad}")
    return powers


def _standardize(v: np.ndarray) -> np.ndarray | None:
    s = v.std()
    if s == 0.0 or not np.isfinite(s):
        return None
    return (v - v.mean()) / s


def _residualize(cols: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project the columns off the span of X, keep the ones with signal left."""
    coef, _, _, _ = np.linalg.lstsq(X, cols, rcond=None)
    resid = cols - X @ coef
    norms0 = np.linalg.norm(cols, axis=0)
    norms = np.linalg.norm(resid, axis=0)
    keep = norms > _SPAN_TOL * np.maximum(norms0, 1.0)
    return resid[:, keep]


def _trivial(test: str, note: str) -> TestReport:
    return TestReport(test=test, statistic=0.0, df=(0,), p_value=1.0,
                      method={"note": note})


def reset_linear(
    y: np.ndarray,
    X: np.ndarray,
    powers=(2, 3),
    se_type: str = "hc1",
    cluster=None,
) -> TestReport:
    """Fitted-power misspecification test for a linear regression of y on X.

    The statistic is a Wald F for the joint nullity of the added power
    terms, using the covariance estimator named by se_type (hc1 by
    default). Cluster labels are used only with se_type="cluster".
    """
    powers = _check_powers(powers)
    y = np.asarray(y, dtype=np.float64).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] != y.shape[0]:
        raise DomainError("design and response have different lengths")

    base = ols(y, X, se_type="hc0")
    vhat = _standardize(base.fitted)
    if vhat is None:
        return _trivial("reset_linear", "fitted values are constant")
    added = np.column_stack([vhat**p for p in powers])
    added = _residualize(added, X)
    if added.shape[1] == 0:
        return _trivial("reset_linear", "fitted-value powers add no direction "
                                        "outside the design span")
    if np.linalg.norm(base.residuals) <= _EXACT_FIT_TOL * np.linalg.norm(y):
        return _trivial("reset_linear", "the design fits the response exactly; "
                                        "the residuals are rounding noise")

    design = np.column_stack([X, added])
    aug = ols(y, design, se_type=se_type, cluster=cluster)
    q = added.shape[1]
    sl = slice(X.shape[1], X.shape[1] + q)
    gamma = aug.coefficients[sl]
    vg = aug.vcov[sl, sl]
    try:    # gamma' vg^-1 gamma through the Cholesky factor vg = L L'
        w = np.linalg.solve(np.linalg.cholesky(vg), gamma)
        stat = float(w @ w) / q
    except np.linalg.LinAlgError:   # vg is not positive definite
        stat = float(gamma @ np.linalg.pinv(vg) @ gamma) / q
    p = f_sf(stat, q, aug.df_resid)
    return TestReport(
        test="reset_linear", statistic=stat, df=(q, aug.df_resid), p_value=p,
        method={"powers": list(powers), "se_type": se_type,
                "n": int(y.shape[0])},
    )


def reset_binary_index(
    z: np.ndarray,
    X: np.ndarray,
    link: str = "logit",
    powers=(2, 3),
) -> TestReport:
    """Index-power misspecification test for a binary choice model.

    Refits the model with powers of the standardized index added, warm
    started at the base solution, and compares twice the log likelihood
    gain to a chi-squared with one degree of freedom per surviving column.
    """
    from .propensity import fit_binary_index  # here, so reset_linear loads no scipy
    powers = _check_powers(powers)
    if link not in ("logit", "probit"):
        raise DomainError("reset_binary_index supports logit and probit links")
    base = fit_binary_index(z, X, link=link)
    vhat = _standardize(base.index)
    if vhat is None:
        return _trivial("reset_binary_index", "fitted index is constant")
    added = np.column_stack([vhat**p for p in powers])
    added = _residualize(added, base._design)
    note = "index powers add no direction outside the design span"
    if added.shape[1] == 0:
        return _trivial("reset_binary_index", note)

    design = np.column_stack([base._design, added])
    start = np.concatenate([base.coefficients, np.zeros(added.shape[1])])
    try:
        aug = fit_binary_index(z, design, link=link, start=start)
    except (ConvergenceError, SeparationError) as exc:
        return TestReport(
            test="reset_binary_index", statistic=float("nan"), df=(0,),
            p_value=None,
            method={"powers": list(powers), "link": link, "error": str(exc)},
        )
    # on an ill-conditioned design the screen can drop what _residualize kept
    q = aug._design.shape[1] - base._design.shape[1]
    if q <= 0:
        return _trivial("reset_binary_index", note)
    lr = 2.0 * (aug.loglik - base.loglik)
    # the warm start makes the augmented likelihood no worse; clip noise
    lr = max(lr, 0.0)
    p = chi2_sf(lr, q)
    return TestReport(
        test="reset_binary_index", statistic=lr, df=(q,), p_value=p,
        method={"powers": list(powers), "link": link,
                "n": int(np.asarray(z).shape[0]),
                "base_loglik": base.loglik, "aug_loglik": aug.loglik},
    )
