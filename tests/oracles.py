"""Independent dense reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit pseudoinverse,
python loops, drop-one refits) so that agreement with the package is
evidence and not tautology.
"""

from __future__ import annotations

import numpy as np


def dense_ols(y, X):
    """Pinv-based OLS: coefficients, fitted, residuals."""
    beta = np.linalg.pinv(X) @ y
    fitted = X @ beta
    return beta, fitted, y - fitted


def dense_ols_vcov(y, X, se_type="hc1", cluster=None):
    """Sandwich covariance computed from first principles."""
    n, k = X.shape
    beta, fitted, e = dense_ols(y, X)
    xtx_inv = np.linalg.pinv(X.T @ X)
    df = n - np.linalg.matrix_rank(X)
    if se_type == "classical":
        return xtx_inv * (e @ e / df)
    if se_type in ("hc0", "hc1"):
        meat = sum(e[i] ** 2 * np.outer(X[i], X[i]) for i in range(n))
        scale = n / df if se_type == "hc1" else 1.0
        return scale * xtx_inv @ meat @ xtx_inv
    labels = np.unique(cluster)
    g = len(labels)
    meat = np.zeros((k, k))
    for lab in labels:
        s = sum(e[i] * X[i] for i in np.flatnonzero(cluster == lab))
        meat += np.outer(s, s)
    corr = (g / (g - 1.0)) * ((n - 1.0) / df)
    return corr * xtx_inv @ meat @ xtx_inv


def dense_tsls(y, Xe, d, Z):
    """Textbook 2SLS: project d on [Xe, Z], regress y on [Xe, dhat].

    Returns the full coefficient vector ordered [Xe..., d] and the
    structural residuals y - [Xe, d] @ beta.
    """
    W = np.column_stack([Xe, Z])
    dhat = W @ (np.linalg.pinv(W) @ d)
    D = np.column_stack([Xe, dhat])
    beta = np.linalg.pinv(D) @ y
    resid = y - np.column_stack([Xe, d]) @ beta
    return beta, dhat, resid


def dense_tsls_vcov(y, Xe, d, Z, se_type="hc1", cluster=None):
    beta, dhat, e = dense_tsls(y, Xe, d, Z)
    D = np.column_stack([Xe, dhat])
    n, k = D.shape
    xtx_inv = np.linalg.pinv(D.T @ D)
    df = n - k
    if se_type == "classical":
        return xtx_inv * (e @ e / df)
    if se_type in ("hc0", "hc1"):
        meat = sum(e[i] ** 2 * np.outer(D[i], D[i]) for i in range(n))
        scale = n / df if se_type == "hc1" else 1.0
        return scale * xtx_inv @ meat @ xtx_inv
    labels = np.unique(cluster)
    g = len(labels)
    meat = np.zeros((k, k))
    for lab in labels:
        s = sum(e[i] * D[i] for i in np.flatnonzero(cluster == lab))
        meat += np.outer(s, s)
    corr = (g / (g - 1.0)) * ((n - 1.0) / df)
    return corr * xtx_inv @ meat @ xtx_inv


def dense_hat(X):
    """Hat matrix diagonal via the explicit projection matrix."""
    return np.diag(X @ np.linalg.pinv(X.T @ X) @ X.T)


def loo_fitted_refit(target, X):
    """Leave-one-out fitted values by literally refitting n times."""
    n = X.shape[0]
    out = np.empty(n)
    for i in range(n):
        m = np.ones(n, dtype=bool)
        m[i] = False
        beta = np.linalg.pinv(X[m]) @ target[m]
        out[i] = X[i] @ beta
    return out


def cell_weights_by_hand(y, d, z, cell):
    """Recompute the three weight families from raw arrays, no masking.

    Returns dicts keyed by cell value with p, q, pi, dy, tau, and the
    three normalized weight vectors over cells with pi != 0. Cells where
    either arm is empty are dropped entirely (the caller aligns the rest).
    """
    vals = sorted(set(cell))
    stats = {}
    for c in vals:
        rows = [i for i in range(len(y)) if cell[i] == c]
        z1 = [i for i in rows if z[i] == 1]
        z0 = [i for i in rows if z[i] == 0]
        if not z1 or not z0:
            continue
        q = len(z1) / len(rows)
        pi = (sum(d[i] for i in z1) / len(z1)
              - sum(d[i] for i in z0) / len(z0))
        dy = (sum(y[i] for i in z1) / len(z1)
              - sum(y[i] for i in z0) / len(z0))
        stats[c] = {
            "n": len(rows), "p": len(rows) / len(y), "q": q,
            "pi": pi, "dy": dy,
            "tau": dy / pi if pi != 0 else float("nan"),
        }
    keep = [c for c in stats if stats[c]["pi"] != 0]
    raw = {
        "late": [stats[c]["p"] * stats[c]["pi"] for c in keep],
        "iv": [stats[c]["p"] * stats[c]["pi"]
               * stats[c]["q"] * (1 - stats[c]["q"]) for c in keep],
        "ai": [stats[c]["p"] * stats[c]["pi"] ** 2
               * stats[c]["q"] * (1 - stats[c]["q"]) for c in keep],
    }
    weights = {f: [r / sum(rs) for r in rs] if sum(rs) != 0 else None
               for f, rs in ((f, raw[f]) for f in raw)}
    return stats, keep, weights


def wald_by_hand(y, d, z):
    """Unconditional Wald ratio from arm means."""
    z1 = [i for i in range(len(y)) if z[i] == 1]
    z0 = [i for i in range(len(y)) if z[i] == 0]
    num = (sum(y[i] for i in z1) / len(z1) - sum(y[i] for i in z0) / len(z0))
    den = (sum(d[i] for i in z1) / len(z1) - sum(d[i] for i in z0) / len(z0))
    return num / den
