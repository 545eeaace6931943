"""Least squares and two stage least squares with robust covariances.

Everything is solved through orthogonal decompositions. Collinear columns
are screened out greedily in design order: a column is dropped when, after
projecting out the columns already kept, less than 1e-10 of its norm
remains. Dropped columns keep a zero coefficient and a zero row/column in
the covariance, and their indices are reported, so nothing disappears
silently. The screen prefers earlier columns on ties, which makes results
independent of how a caller happens to have ordered redundant columns.

_meat is the one place in the package that computes a robust or cluster
meat and its small-sample factor (MacKinnon, Nielsen & Webb 2023; Cameron
& Miller 2015); every standard error but the classical one goes through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError, DomainError, EmptyDataError, IdentificationError, RankError)

PIVOT_RTOL = 1e-10

SE_TYPES = ("classical", "hc0", "hc1", "cluster")

DEFAULT_TRIM = (0.01, 0.99)   # the propensity trimming window


@dataclass(frozen=True)
class RegressionFit:
    """Result of an OLS or 2SLS fit.

    coefficients has one entry per column of the original design, zeros in
    the positions listed in dropped. endog_index is the position of the
    endogenous regressor's coefficient for 2SLS fits, None for OLS.
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    vcov: np.ndarray
    df_resid: int
    rank: int
    se_type: str
    dropped: tuple[int, ...] = ()
    endog_index: int | None = None

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.vcov))


def screen_columns(X: np.ndarray):
    """Greedy design-order rank screen.

    Returns (kept, Q) where kept indexes the retained columns and Q is an
    orthonormal basis for their span. Reorthogonalizing twice keeps the
    basis clean enough that the PIVOT_RTOL decision is stable.
    """
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    kept: list[int] = []
    basis = np.empty((n, k))
    for j in range(k):
        col = X[:, j]
        norm0 = np.linalg.norm(col)
        if norm0 == 0.0:
            continue
        Q = basis[:, :len(kept)]
        v = col - Q @ (Q.T @ col)
        v -= Q @ (Q.T @ v)
        norm_v = np.linalg.norm(v)
        if norm_v > PIVOT_RTOL * norm0:
            np.divide(v, norm_v, out=basis[:, len(kept)])
            kept.append(j)
    return kept, basis[:, :len(kept)]


def _check_se_args(se_type: str, cluster, n: int):
    if se_type not in SE_TYPES:
        raise DomainError(f"unknown se_type '{se_type}'; choose from {SE_TYPES}")
    if se_type == "cluster":
        if cluster is None:
            raise DomainError("cluster se requested but no cluster labels given")
        cluster = np.asarray(cluster)
        if cluster.shape != (n,):
            raise DomainError("cluster labels must align with the rows")
    return cluster


def _resolve_se(se_type: str | None, cluster) -> str:
    """The requested se type, else cluster when labels are present, else hc1."""
    if se_type is not None:
        return se_type
    return "cluster" if cluster is not None else "hc1"


def _check_bootstrap(reps: int, seed: int) -> None:
    """The reps and seed checks of the validity and IPW bootstraps."""
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")


def _cluster_codes(labels):
    """(G, codes): the number of distinct labels and each row's label index."""
    try:
        uniq, codes = np.unique(labels, return_inverse=True)
    except TypeError as exc:   # e.g. ints mixed with strings in an object array
        raise DomainError(f"cluster labels cannot be ordered: {exc}") from None
    return len(uniq), codes.ravel()


def _factor(se_type: str, n: int, df: int) -> float:
    """The small-sample factor of a meat on n rows: 1 for hc0, n/df for hc1
    and (n-1)/df for cluster, which G/(G-1) then multiplies."""
    if se_type != "hc0" and df <= 0:
        raise DomainError(f"no residual degrees of freedom for {se_type} se")
    if se_type == "hc0":
        return 1.0
    return n / df if se_type == "hc1" else (n - 1.0) / df


def _meat(scores: np.ndarray, se_type: str, cluster, df: int):
    """(meat, factor) from (n, k) scores, summed within labels for cluster.

    The factor is 1 for hc0, n/df for hc1 and G/(G-1)*(n-1)/df for cluster.
    """
    factor = _factor(se_type, scores.shape[0], df)
    if se_type != "cluster":
        return scores.T @ scores, factor
    g, codes = _cluster_codes(cluster)
    if g < 2:
        raise DomainError("cluster se needs at least 2 clusters")
    sums = np.column_stack([np.bincount(codes, weights=s, minlength=g) for s in scores.T])
    return sums.T @ sums, (g / (g - 1.0)) * factor


def _influence_se(infl: np.ndarray, cluster) -> float:
    """SE of the mean of influence values, summed within clusters when
    labels are given; df = n - 1 makes the cluster factor exactly G/(G-1)."""
    n = len(infl)
    meat, factor = _meat(infl[:, None], "hc0" if cluster is None else "cluster",
                         cluster, n - 1)
    return float(np.sqrt(factor * float(meat[0, 0]))) / n


def _solve_ols(y: np.ndarray, Xk: np.ndarray):
    """Coefficients and (X'X)^-1 for a full-rank design via thin QR. R is
    upper triangular, so LAPACK's LU solves take no pivot and back-substitute."""
    Q, R = np.linalg.qr(Xk)
    coef = np.linalg.solve(R, Q.T @ y)
    rinv = np.linalg.solve(R, np.eye(R.shape[0]))
    xtx_inv = rinv @ rinv.T
    return coef, xtx_inv


def _columns(a) -> np.ndarray:
    """float64, and a 1-D array becomes one column."""
    a = np.asarray(a, dtype=np.float64)
    return a[:, None] if a.ndim == 1 else a


def _fit(y, design, regressors, kept, k, se_type, cluster, endog_index=None):
    """The fit of y on a full-rank design, reported on k original columns.

    Residuals are y minus regressors times the coefficients: the design
    itself for OLS, the structural [X_exog, d] for 2SLS, whose sandwich uses
    the projected design. kept gives each design column's original column;
    the others are listed in dropped with zero entries.
    """
    coef, xtx_inv = _solve_ols(y, design)
    fitted = regressors @ coef
    resid = y - fitted
    rank = design.shape[1]
    df_resid = y.shape[0] - rank
    if se_type == "classical":
        if df_resid <= 0:
            raise DomainError("no residual degrees of freedom for classical se")
        vcov_k = float(resid @ resid) / df_resid * xtx_inv
    else:
        meat, factor = _meat(design * resid[:, None], se_type, cluster, df_resid)
        vcov_k = factor * xtx_inv @ meat @ xtx_inv
    coefficients, vcov = np.zeros(k), np.zeros((k, k))
    coefficients[kept] = coef
    vcov[np.ix_(kept, kept)] = vcov_k
    return RegressionFit(
        coefficients=coefficients, fitted=fitted, residuals=resid, vcov=vcov,
        df_resid=df_resid, rank=rank, se_type=se_type,
        dropped=tuple(sorted(set(range(k)).difference(kept))),
        endog_index=endog_index)


def ols(y, X, se_type: str = "hc1", cluster=None) -> RegressionFit:
    """Minimum-norm least squares of y on the columns of X."""
    y = np.asarray(y, dtype=np.float64).ravel()
    X = _columns(X)
    n, k = X.shape
    if n == 0:
        raise EmptyDataError("no rows to fit")
    if y.shape[0] != n:
        raise DomainError("y and X disagree on the number of rows")
    cluster = _check_se_args(se_type, cluster, n)

    kept, _ = screen_columns(X)
    if not kept:
        raise RankError("all design columns are collinear or zero")
    Xk = X[:, kept]
    return _fit(y, Xk, Xk, kept, k, se_type, cluster)


def tsls(y, X_exog, d_endog, Z_inst, se_type: str = "hc1", cluster=None) -> RegressionFit:
    """2SLS of y on [X_exog, d_endog] with instruments [X_exog, Z_inst].

    One endogenous regressor, one or more excluded instruments. The
    coefficient vector covers the exogenous columns, zero where the screen
    drops one, followed by the endogenous coefficient in the last position
    (endog_index). Residuals are structural, y minus the original
    regressors times the estimate, and the sandwich uses the projected
    design, so the reported covariance is the usual 2SLS one.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    d = np.asarray(d_endog, dtype=np.float64).ravel()
    X_exog, Z_inst = _columns(X_exog), _columns(Z_inst)
    n = y.shape[0]
    if n == 0:
        raise EmptyDataError("no rows to fit")
    if d.shape[0] != n or X_exog.shape[0] != n or Z_inst.shape[0] != n:
        raise DomainError("rows of y, X_exog, d_endog and Z_inst disagree")
    cluster = _check_se_args(se_type, cluster, n)

    kept_x, _ = screen_columns(X_exog)
    Xe = X_exog[:, kept_x]
    k_exog = X_exog.shape[1]

    # first stage on the full instrument set
    Zfull = np.column_stack([Xe, Z_inst])
    kept_z, _ = screen_columns(Zfull)
    if len(kept_z) <= len(kept_x):
        raise IdentificationError("no instrument survives the collinearity screen")
    fs_coef, _ = _solve_ols(d, Zfull[:, kept_z])
    dhat = Zfull[:, kept_z] @ fs_coef

    design = np.column_stack([Xe, dhat])
    kept2, _ = screen_columns(design)
    if kept2 != list(range(design.shape[1])):
        raise IdentificationError(
            "projected treatment is collinear with the exogenous columns "
            "(zero first stage)"
        )
    return _fit(y, design, np.column_stack([Xe, d]), kept_x + [k_exog],
                k_exog + 1, se_type, cluster, endog_index=k_exog)


def hat_diagonals(X) -> np.ndarray:
    """Diagonal of the projection matrix X (X'X)^-1 X'.

    X must have full column rank; a rank-deficient design raises RankError
    because leave-one-out algebra downstream would silently lose meaning.
    """
    X = _columns(X)
    n, k = X.shape
    if n == 0:
        raise EmptyDataError("no rows")
    kept, Q = screen_columns(X)
    if len(kept) != k:
        raise RankError("design is rank deficient; drop redundant columns first")
    return np.einsum("ij,ij->i", Q, Q)
