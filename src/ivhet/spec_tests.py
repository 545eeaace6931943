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

The p-values come from f_sf and chi2_sf in the standard library's math,
as the package imports no scipy (scipy.special alone would add about
0.11 s to a CLI run). f_sf is the regularized incomplete beta I_x(a, b) on
the side of the mean where the tail is small, as the continued fraction of
DiDonato & Morris (1992, BFRAC) evaluated by Lentz's method. The CF's coefficients
take x, 1 - x and a - (a + b) x, each formed without a subtraction that
cancels: near x = 1, 1 - x comes from df2 / (df2 + df1 F). log B(a, b)
takes log Gamma(s + p) - log Gamma(s) from Stirling's series at large s,
where lgamma(s + p) - lgamma(s) would lose digits. chi2_sf is the closed
form for integer df: erfc or exp, plus Poisson terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DomainError, SeparationError
from .regression import _columns, ols
from .tables import record

_SPAN_TOL = 1e-8
_EXACT_FIT_TOL = 1e-12  # base residual norm / uncentered ||y|| below this is rounding
_ALLOWED_POWERS = (2, 3, 4)
_CF_TERMS = 10_000


def _stirling(z: float) -> float:
    """log Gamma(z) - (z - 1/2) log z + z - log(2 pi) / 2, to 1e-17 from z = 20."""
    w = 1.0 / (z * z)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z


def _log_beta(a: float, b: float) -> float:
    p, s = min(a, b), max(a, b)
    if s < 20.0:
        return math.lgamma(p) + math.lgamma(s) - math.lgamma(s + p)
    # log Gamma(s + p) - log Gamma(s) without two lgamma values of size s log s
    ratio = ((s - 0.5) * math.log1p(p / s) + p * math.log(s + p) - p
             + _stirling(s + p) - _stirling(s))
    return math.lgamma(p) - ratio


def _beta_ratio(a, b, x, y, lam, log_x, log_y) -> float:
    """I_x(a, b) for lam = a - (a + b) x >= 0, given y = 1 - x, lam, log x and
    log y, each computed by the caller without cancellation."""
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    f = c / c1          # the CF is f = c / c1 + alpha_1 / (beta_1 + ...)
    C, D = f, 0.0
    for n in range(1, _CF_TERMS):
        t = n / a
        p = 1.0 + (n - 1) / a
        s = a + 2.0 * n - 1.0
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * w * x
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * yp1)
        D = beta + alpha * D
        D = 1.0 / (D if D != 0.0 else 1e-300)
        C = beta + alpha / C
        if C == 0.0:
            C = 1e-300
        delta = C * D
        f *= delta
        if abs(delta - 1.0) <= 2.0 ** -52:
            return math.exp(a * log_x + b * log_y - _log_beta(a, b)) / f
    raise ConvergenceError(f"I_x({a}, {b}) at x = {x}: the continued fraction "
                           f"did not converge in {_CF_TERMS} terms")


def f_sf(stat: float, df1: float, df2: float) -> float:
    """P(F > stat) for F ~ F(df1, df2), scipy.special.fdtrc's value: NaN for
    a NaN or negative stat and for a df that is not positive and finite.
    Within 1e-12 of fdtrc for df1 <= 3 and df2 up to 4e6."""
    if not (stat >= 0.0 and 0.0 < df1 < math.inf and 0.0 < df2 < math.inf):
        return math.nan
    s = df1 * stat
    if s == 0.0:
        return 1.0
    if s == math.inf:
        return 0.0
    a, b = 0.5 * df1, 0.5 * df2
    x, y = s / (df2 + s), df2 / (df2 + s)       # x + y = 1, both to an ulp
    log_x, log_y = -math.log1p(df2 / s), -math.log1p(s / df2)
    if stat >= 1.0:     # y <= b / (a + b): the tail is I_y(b, a) itself
        return _beta_ratio(b, a, y, x, (a + b) * x - a, log_y, log_x)
    return 1.0 - _beta_ratio(a, b, x, y, a - (a + b) * x, log_x, log_y)


def chi2_sf(stat: float, df: int) -> float:
    """P(X > stat) for X ~ chi-squared(df), df a positive integer, in closed
    form: erfc(sqrt(stat/2)) for odd df, and exp(-stat/2) times a Poisson
    partial sum; NaN for a NaN or negative stat. Meant for small df (RESET
    has 1-3), where each term is a product of a few factors."""
    if not (stat >= 0.0 and 1 <= df < math.inf and df == int(df)):
        return math.nan
    if stat == math.inf:
        return 0.0
    h = 0.5 * stat
    # the terms h^(r - 1) e^-h / Gamma(r): r = 3/2, 5/2, ... after erfc for
    # odd df, r = 1, 2, ... for even df
    if df % 2:
        p, r = math.erfc(math.sqrt(h)), 1.5
        term = math.sqrt(4.0 * h / math.pi) * math.exp(-h)
    else:
        p, term, r = 0.0, math.exp(-h), 1.0
    for _ in range(int(df) // 2):
        p += term
        term *= h / r
        r += 1.0
    return p


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


def _residualize(cols: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project the columns off the span of X, keep the ones with signal left."""
    coef, _, _, _ = np.linalg.lstsq(X, cols, rcond=None)
    resid = cols - X @ coef
    norms0 = np.linalg.norm(cols, axis=0)
    norms = np.linalg.norm(resid, axis=0)
    keep = norms > _SPAN_TOL * np.maximum(norms0, 1.0)
    return resid[:, keep]


def _added_powers(v: np.ndarray, powers, X: np.ndarray) -> np.ndarray | None:
    """The powers of standardized v, residualized on X; None if v is constant."""
    s = v.std()   # the mean of equal values may round, so std may read 1e-17
    if not np.isfinite(s) or v.min() == v.max():
        return None
    vhat = (v - v.mean()) / s
    return _residualize(np.column_stack([vhat**p for p in powers]), X)


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
    X = _columns(X)
    if X.shape[0] != y.shape[0]:
        raise DomainError("design and response have different lengths")

    base = ols(y, X, se_type="hc0")
    added = _added_powers(base.fitted, powers, X)
    if added is None:
        return _trivial("reset_linear", "fitted values are constant")
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
    from .propensity import fit_binary_index  # here, so reset_linear loads no propensity
    powers = _check_powers(powers)
    if link not in ("logit", "probit"):
        raise DomainError("reset_binary_index supports logit and probit links")
    base = fit_binary_index(z, X, link=link)
    added = _added_powers(base.index, powers, base._design)
    if added is None:
        return _trivial("reset_binary_index", "fitted index is constant")
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
