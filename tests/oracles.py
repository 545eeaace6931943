"""Independent dense reference implementations used only by the tests.

Everything here is written the slow, obvious way (explicit pseudoinverse,
python loops, drop-one refits) so that agreement with the package is
evidence and not tautology.
"""

from __future__ import annotations

import csv

import numpy as np

from ivhet.data_model import ColumnMap, Dataset
from ivhet.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyDataError,
    IdentificationError,
    SeparationError,
    TrimError,
    UndefinedTestError,
)
from ivhet.propensity import fit_binary_index
from ivhet.regression import (
    PIVOT_RTOL, _check_se_args, _influence_se, _meat)
from ivhet.validity import _SIGMA_FLOOR, OutcomeSetPartition, ValidityReport


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


def stacked_screen_columns(X, rtol=1e-10):
    """Greedy design-order Gram-Schmidt screen that copies each column and
    rebuilds its basis with np.column_stack at every kept column."""
    X = np.asarray(X, dtype=np.float64)
    n, k = X.shape
    kept = []
    Q = np.empty((n, 0))
    for j in range(k):
        col = X[:, j]
        norm0 = np.linalg.norm(col)
        if norm0 == 0.0:
            continue
        v = col.copy()
        for _ in range(2):
            v -= Q @ (Q.T @ v)
        norm_v = np.linalg.norm(v)
        if norm_v > rtol * norm0:
            Q = np.column_stack([Q, v / norm_v])
            kept.append(j)
    return kept, Q


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


def cell_means(v, a):
    """Each row's mean of v over the rows that share its cell index a."""
    counts = np.maximum(np.bincount(a), 1)   # excluded cells have no rows
    return (np.bincount(a, weights=v) / counts)[a]


def loo_means(v, groups):
    """Each row's mean of v over its group with the row itself left out."""
    sums = np.bincount(groups, weights=v)
    counts = np.bincount(groups)
    return (sums[groups] - v) / (counts[groups] - 1.0)


def retained_rows(ct):
    return ct.retained[ct.assignments]


def row_centered_iv(ct, g, se_type):
    """(beta, se) of Y on D and cell intercepts over the retained rows,
    instrumented by the cell intercepts and g (one value per retained row),
    from the residuals row by row: the reference for the package's closed
    forms on the cell table's (z, cell, d) bins."""
    ds = ct.source
    rows = retained_rows(ct)
    a = ct.assignments[rows]
    m = len(a)
    cluster = _check_se_args(
        se_type, None if ds.cluster is None else ds.cluster[rows], m)
    y = ds.y[rows]
    d = ds.d[rows].astype(np.float64)
    g = g - cell_means(g, a)
    dc = d - cell_means(d, a)
    gd = float(g @ dc)
    if abs(gd) <= PIVOT_RTOL * np.linalg.norm(g) * np.linalg.norm(dc):
        raise IdentificationError("zero first stage")
    beta = float(g @ y) / gd
    e = y - cell_means(y, a) - beta * dc
    df = m - int(ct.retained.sum()) - 1
    if se_type == "classical":
        if df <= 0:
            raise DomainError("no residual degrees of freedom for classical se")
        var = float(e @ e) / df * float(g @ g)
    else:
        meat, factor = _meat((g * e)[:, None], se_type, cluster, df)
        var = factor * float(meat[0, 0])
    return beta, float(np.sqrt(var)) / abs(gd)


def row_saturated(ct, estimator, se_type):
    """(estimate, se) of one saturated estimator ("beta_iv", "beta_ai",
    "jive", "ujive" or "beta_late_saturated") from per-row arrays."""
    if estimator == "beta_late_saturated":
        return _row_late_saturated(ct, se_type)
    ds = ct.source
    rows = retained_rows(ct)
    a = ct.assignments[rows]
    z = ds.z[rows]
    d = ds.d[rows].astype(np.float64)
    if estimator == "beta_iv":
        g = z
    elif estimator == "beta_ai":
        g = ct.pi_j[a] * z
    else:
        g = loo_means(d, 2 * a + z)
        if estimator == "ujive":
            g -= loo_means(d, a)
    return row_centered_iv(ct, g, se_type)


def _row_late_saturated(ct, se_type):
    """The saturated Wald ratio and its influence SE, influence values row
    by row (cluster: summed within labels; other types: the plain SE)."""
    ds = ct.source
    rows = retained_rows(ct)
    m = int(rows.sum())
    cluster = _check_se_args(
        se_type, None if ds.cluster is None else ds.cluster[rows], m)
    mask = ct.retained
    num = float(np.sum(ct.p_j[mask] * ct.dy_j[mask]))
    den = float(np.sum(ct.p_j[mask] * ct.pi_j[mask]))
    beta = num / den
    a = ct.assignments[rows]
    y = ds.y[rows]
    d = ds.d[rows].astype(float)
    z = ds.z[rows].astype(float)
    p_scale = ct.p_j[mask].sum()
    num_s = num / p_scale
    den_s = den / p_scale
    q = ct.q_j[a]
    psi_num = (z * (y - ct.mean_y1_j[a]) / q - (1 - z) * (y - ct.mean_y0_j[a]) / (1 - q)
               + ct.dy_j[a] - num_s)
    psi_den = (z * (d - ct.mean_d1_j[a]) / q - (1 - z) * (d - ct.mean_d0_j[a]) / (1 - q)
               + ct.pi_j[a] - den_s)
    infl = (psi_num - beta * psi_den) / den_s
    return beta, _influence_se(infl, cluster if se_type == "cluster" else None)


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


# ------------------------------------------------- dense validity bootstrap
#
# The validity engine as it was before it moved to per-bin multiplier sums:
# one dense (n x moments) contribution matrix times a dense (reps x n) sign
# matrix. Fed engine_signs, the rows' signs behind the binned engine's
# per-bin draws, it must give the binned engine's reports.

def _arm_stats(values: np.ndarray, idx: np.ndarray):
    v = values[idx]
    n = v.shape[0]
    mean = float(v.mean())
    var = float(v.var(ddof=1)) if n > 1 else 0.0
    return mean, var, n


def dense_bootstrap(test_name, signs, moments):
    """The dense engine's work with signs, a (reps, n) matrix of +-1
    multipliers: moments is a list of (idx_a, idx_b, values, label).

    Each moment is the null hypothesis mean(values[idx_a]) >=
    mean(values[idx_b]). Moments whose arms are empty are skipped and
    counted; if nothing is left the test is undefined. Returns the kept
    labels, their studentized estimates mhat, every draw's maximum
    violation t_star and the number skipped.
    """
    kept = []
    skipped = 0
    for idx_a, idx_b, values, label in moments:
        if idx_a.size == 0 or idx_b.size == 0:
            skipped += 1
            continue
        kept.append((idx_a, idx_b, values, label))
    if not kept:
        raise UndefinedTestError(
            f"{test_name}: every moment had an empty arm; nothing to test"
        )

    m = len(kept)
    mhat = np.empty(m)
    contrib = np.zeros((signs.shape[1], m))
    labels = []
    for k, (idx_a, idx_b, values, label) in enumerate(kept):
        mean_a, var_a, n_a = _arm_stats(values, idx_a)
        mean_b, var_b, n_b = _arm_stats(values, idx_b)
        sigma = np.sqrt(var_a / n_a + var_b / n_b)
        sigma = max(sigma, _SIGMA_FLOOR)
        mhat[k] = (mean_a - mean_b) / sigma
        contrib[idx_a, k] += (values[idx_a] - mean_a) / (n_a * sigma)
        contrib[idx_b, k] -= (values[idx_b] - mean_b) / (n_b * sigma)
        labels.append(label)

    sims = signs @ contrib
    t_star = np.max(-sims, axis=1)
    return labels, mhat, t_star, skipped


def dense_max_violation_test(test_name, signs, moments, seed, method):
    """The report of the dense engine on one moment list; seed is only
    recorded."""
    reps = signs.shape[0]
    labels, mhat, t_star, skipped = dense_bootstrap(test_name, signs, moments)
    stat = float(np.max(-mhat))
    worst = labels[int(np.argmax(-mhat))]
    p = float((1 + np.sum(t_star >= stat)) / (reps + 1))

    return ValidityReport(
        test=test_name, statistic=stat, p_value=p, worst_set=worst,
        bootstrap_reps=reps, seed=seed, n_moments=len(labels),
        n_skipped=skipped, method=method,
    )


def _cell_groups(ds, ct):
    """(label, row-index) pairs: the retained cells, or everything at once."""
    if ct is None:
        return [("all", np.arange(ds.n))]
    groups = []
    for j in range(ct.n_cells):
        if ct.degenerate[j]:
            continue
        groups.append((ct.key_label(j), np.flatnonzero(ct.assignments == j)))
    return groups


def engine_signs(ds, ct, cut_points, reps, seed):
    """A (reps, n) +-1 matrix whose per-bin sums are the binned engine's
    draws for seed.

    Each row's bin is its retained cell (or one group), z, d and elementary
    outcome interval [c_t, c_t+1) of cut_points (one interval when None),
    numbered in the engine's order. The draws are redrawn here, draw by
    draw and in bin order, from two streams. A bin of more than 512 rows
    takes a Binomial(count, 1/2) sum k from default_rng(seed), and its
    first k rows, in row order, get +1 and the rest -1. Every other bin
    reads ceil(count / 64) raw 64-bit words from the child that
    SeedSequence(seed) spawns first, and its i-th row, in row order, gets
    +1 when bit i of those words, least significant bit first, is set.
    Rows of excluded cells get -1; no moment reads them."""
    group = np.full(ds.n, -1)
    for g, (_, rows) in enumerate(_cell_groups(ds, ct)):
        group[rows] = g
    n_groups = group.max() + 1
    if cut_points is None:
        t, n_t = np.zeros(ds.n, dtype=int), 1
    else:
        cuts = np.asarray(cut_points)
        t, n_t = np.searchsorted(cuts, ds.y, side="right") - 1, cuts.size - 1
    code = ((group * 2 + ds.z) * 2 + ds.d) * n_t + t
    n_bins = n_groups * 4 * n_t
    counts = np.bincount(code[group >= 0], minlength=n_bins)
    large = counts > 512
    words = [(c + 63) // 64 if not big else 0 for c, big in zip(counts, large)]
    sums = np.random.default_rng(seed).binomial(
        counts[large], 0.5, size=(reps, int(large.sum())))
    child = np.random.SeedSequence(seed).spawn(1)[0]
    raw = np.random.PCG64(child).random_raw((reps, sum(words)))
    bits = np.unpackbits(raw.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little").reshape(reps, -1, 64)
    signs = -np.ones((reps, ds.n))
    word, k = 0, 0
    for b in range(n_bins):
        rows = np.flatnonzero((group >= 0) & (code == b))
        if large[b]:
            signs[:, rows] = np.where(np.arange(rows.size) < sums[:, [k]], 1.0, -1.0)
            k += 1
        else:
            row_bits = bits[:, word:word + words[b]].reshape(reps, -1)
            signs[:, rows] = 2.0 * row_bits[:, :rows.size] - 1.0
            word += words[b]
    return signs


def candidate_sets(partition):
    """(lo, hi, label) of every candidate set [c_a, c_b), a < b, of the
    partition's cut points, a major, each labelled "[lo, hi)" with each end
    rounded to the fewest significant digits, at least 6, that keep it apart
    from the cuts next to it and from the float just below it, and printed in
    the :g format at that precision."""
    cuts = partition.cut_points

    def end(i):
        near = cuts[max(i - 1, 0):i] + cuts[i + 1:i + 2]
        digits = 6
        while (float(f"{cuts[i]:.{digits - 1}e}") == np.nextafter(cuts[i], -np.inf)
               or any(float(f"{v:.{digits - 1}e}") == float(f"{cuts[i]:.{digits - 1}e}")
                      for v in near)):
            digits += 1
        return f"{cuts[i]:.{digits}g}"

    for a in range(len(cuts)):
        for b in range(a + 1, len(cuts)):
            yield cuts[a], cuts[b], f"[{end(a)}, {end(b)})"


def dense_bp_moments(ds, ct=None, partition=None):
    """bp_test's moment list, built row by row, and its method record."""
    if partition is None:
        partition = OutcomeSetPartition.auto(ds.y)
    partition = partition.ensure_covers(ds.y)
    moments = []
    for cell_label, rows in _cell_groups(ds, ct):
        z_row = ds.z[rows]
        idx_z1 = rows[z_row == 1]
        idx_z0 = rows[z_row == 0]
        for lo, hi, set_label in candidate_sets(partition):
            in_a = (ds.y >= lo) & (ds.y < hi)
            f1 = (in_a & (ds.d == 1)).astype(np.float64)
            f0 = (in_a & (ds.d == 0)).astype(np.float64)
            tag = set_label if cell_label == "all" else f"{set_label} | {cell_label}"
            moments.append((idx_z1, idx_z0, f1, f"{tag}, treated"))
            moments.append((idx_z0, idx_z1, f0, f"{tag}, untreated"))
    return moments, {"cut_points": list(partition.cut_points),
                     "conditioning": "cells" if ct is not None else "none"}


def dense_mw_moments(ds, ct=None, partition=None):
    """mw_test's moment list, built row by row, and its method record."""
    if partition is None:
        partition = OutcomeSetPartition.auto(ds.y)
    partition = partition.ensure_covers(ds.y)
    d_val = ds.d.astype(np.float64)
    moments = []
    for cell_label, rows in _cell_groups(ds, ct):
        z_row = ds.z[rows]
        for lo, hi, set_label in candidate_sets(partition):
            in_a = (ds.y[rows] >= lo) & (ds.y[rows] < hi)
            idx_a = rows[in_a & (z_row == 1)]
            idx_b = rows[in_a & (z_row == 0)]
            tag = set_label if cell_label == "all" else f"{set_label} | {cell_label}"
            moments.append((idx_a, idx_b, d_val, tag))
    return moments, {"cut_points": list(partition.cut_points),
                     "conditioning": "cells" if ct is not None else "none"}


def dense_first_stage_moments(ct):
    """first_stage_nonneg_test's moment list and its method record."""
    ds = ct.source
    d_val = ds.d.astype(np.float64)
    moments = []
    for cell_label, rows in _cell_groups(ds, ct):
        z_row = ds.z[rows]
        moments.append((rows[z_row == 1], rows[z_row == 0], d_val, cell_label))
    return moments, {"conditioning": "cells"}


# The row-at-a-time CSV loader that ivhet.load_dataset replaced, kept
# verbatim as the reference for the chunked columnar loader.

_BINARY_FORMS = {"0": 0, "1": 1, "0.0": 0, "1.0": 1}


def masked_bincount_cells(ds, assignments, n_cells, min_cell_size, min_arm_size):
    """Per-cell arm counts and arm means of y and d, each from a bincount over
    the rows of one instrument arm copied out by a mask, and pi_j, dy_j and
    tau_j from them under the cell table's degeneracy rule."""
    counts, means = {}, {}
    for arm in (0, 1):
        rows = ds.z == arm
        counts[arm] = np.bincount(assignments[rows], minlength=n_cells).astype(np.int64)
        for name, v in (("y", ds.y), ("d", ds.d.astype(np.float64))):
            sums = np.bincount(assignments[rows], weights=v[rows], minlength=n_cells)
            with np.errstate(invalid="ignore", divide="ignore"):
                means[name, arm] = np.where(counts[arm] > 0,
                                            sums / np.maximum(counts[arm], 1), np.nan)
    pi = means["d", 1] - means["d", 0]
    dy = means["y", 1] - means["y", 0]
    degenerate = ((counts[0] + counts[1] < min_cell_size) | (counts[1] < min_arm_size)
                  | (counts[0] < min_arm_size) | ~np.isfinite(pi) | (pi == 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        tau = np.where(degenerate, np.nan, dy / pi)
    return {"n1_j": counts[1], "n0_j": counts[0], "n_j": counts[0] + counts[1],
            "mean_y1_j": means["y", 1], "mean_y0_j": means["y", 0],
            "mean_d1_j": means["d", 1], "mean_d0_j": means["d", 0],
            "pi_j": pi, "dy_j": dy, "tau_j": tau, "degenerate": degenerate}


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


def row_load_dataset(path: str, cmap: ColumnMap) -> Dataset:
    """Read a comma-delimited UTF-8 file with a header row into a Dataset.

    Rows with a missing or unparseable value in any mapped column are
    dropped; the count lands in Dataset.dropped. Cluster labels may be
    arbitrary strings and are recoded to integers in order of first
    appearance.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        positions = {}
        wanted = [cmap.outcome, cmap.treatment, cmap.instrument, *cmap.covariates]
        if cmap.cluster is not None:
            wanted.append(cmap.cluster)
        for name in wanted:
            try:
                positions[name] = header.index(name)
            except ValueError:
                raise ConfigError(f"column '{name}' not found in {path}") from None

        ys, ds, zs = [], [], []
        xs: list[list[float]] = []
        clusters: list[str] = []
        raw_rows = 0
        dropped = 0
        max_pos = max(positions.values())
        for row in reader:
            if not row:
                continue
            raw_rows += 1
            if len(row) <= max_pos:
                dropped += 1
                continue
            y = _parse_real(row[positions[cmap.outcome]])
            d = _parse_binary(row[positions[cmap.treatment]], cmap.treatment)
            z = _parse_binary(row[positions[cmap.instrument]], cmap.instrument)
            covs = [_parse_real(row[positions[c]]) for c in cmap.covariates]
            label = None
            if cmap.cluster is not None:
                label = row[positions[cmap.cluster]].strip()
                if not label:
                    dropped += 1
                    continue
            if y is None or d is None or z is None or any(v is None for v in covs):
                dropped += 1
                continue
            ys.append(y)
            ds.append(d)
            zs.append(z)
            xs.append(covs)
            if label is not None:
                clusters.append(label)

    if not ys:
        raise EmptyDataError(f"no usable rows in {path}")
    if len(ys) < 2:
        raise EmptyDataError(f"only {len(ys)} usable row in {path}; need at least 2")

    cluster_codes = None
    if cmap.cluster is not None:
        seen: dict[str, int] = {}
        cluster_codes = np.array([seen.setdefault(c, len(seen)) for c in clusters],
                                 dtype=np.int64)

    x = np.asarray(xs, dtype=np.float64)
    if x.size == 0:
        x = np.empty((len(ys), 0))
    ds_out = Dataset(
        y=np.asarray(ys),
        d=np.asarray(ds),
        z=np.asarray(zs),
        x=x,
        covariate_names=cmap.covariates,
        cluster=cluster_codes,
        dropped=dropped,
    )
    assert ds_out.n + dropped == raw_rows
    return ds_out


def _row_copy_hajek_arms(y, d, z, phat):
    if np.any(phat == 0.0) or np.any(phat == 1.0):
        raise SeparationError("fitted propensity of exactly 0 or 1")
    w1 = z / phat
    w0 = (1.0 - z) / (1.0 - phat)
    s1, s0 = w1.sum(), w0.sum()
    if s1 <= 0 or s0 <= 0:
        raise IdentificationError("an instrument arm is empty after trimming")
    my1 = float(np.sum(w1 * y) / s1)
    my0 = float(np.sum(w0 * y) / s0)
    md1 = float(np.sum(w1 * d) / s1)
    md0 = float(np.sum(w0 * d) / s0)
    return my1, my0, md1, md0, w1, w0


def row_copy_ipw_bootstrap(ds, pf, lo, hi, reps, seed):
    """The IPW bootstrap that copies each resample's rows and refits it with
    the public fit_binary_index: (per-resample estimates, failures by class
    name), in resample order."""
    children = np.random.SeedSequence(seed).spawn(reps)
    X_full = pf._design
    ests = []
    failed_by: dict[str, int] = {}
    if ds.cluster is not None:
        labels, codes = np.unique(ds.cluster, return_inverse=True)
        groups = [np.flatnonzero(codes == g) for g in range(len(labels))]
    for child in children:
        rng = np.random.default_rng(child)
        if ds.cluster is not None:
            pick = rng.integers(0, len(groups), size=len(groups))
            idx = np.concatenate([groups[g] for g in pick])
        else:
            idx = rng.integers(0, ds.n, size=ds.n)
        try:
            pf_b = fit_binary_index(ds.z[idx], X_full[idx], link=pf.link,
                                    start=pf.coefficients if pf.link != "linear" else None)
            keep_b = (pf_b.phat >= lo) & (pf_b.phat <= hi)
            if keep_b.sum() < 2:
                raise TrimError("resample fully trimmed")
            yb = ds.y[idx][keep_b]
            db = ds.d[idx][keep_b].astype(np.float64)
            zb = ds.z[idx][keep_b].astype(np.float64)
            m1, m0, t1, t0, _, _ = _row_copy_hajek_arms(yb, db, zb, pf_b.phat[keep_b])
            den_b = t1 - t0
            if den_b == 0.0 or not np.isfinite(den_b):
                raise IdentificationError("zero first stage in resample")
            ests.append((m1 - m0) / den_b)
        except (ConvergenceError, SeparationError, TrimError,
                IdentificationError, DomainError) as exc:
            name = type(exc).__name__
            failed_by[name] = failed_by.get(name, 0) + 1
    return ests, failed_by


def log_ndtr_probit_parts(eta, z, m=None):
    """The probit loglik, score and information weight with both log-CDFs
    taken from scipy.special.log_ndtr, each formula as written."""
    import scipy.special
    log_p = scipy.special.log_ndtr(eta)
    log_1mp = scipy.special.log_ndtr(-eta)
    terms = z * log_p + (1.0 - z) * log_1mp
    ll = float(np.sum(terms)) if m is None else float(m @ terms)
    log_phi = -0.5 * eta * eta - 0.5 * np.log(2.0 * np.pi)
    mills_p = np.exp(log_phi - log_p)
    mills_1mp = np.exp(log_phi - log_1mp)
    return ll, z * mills_p - (1.0 - z) * mills_1mp, mills_p * mills_1mp


def row_sort_cell_keys(x):
    """Cell keys by sorting whole rows: (keys, assignments, warnings), the
    warning given when the product of per-column level counts exceeds the
    row count."""
    n, k = x.shape
    keys_arr, assignments = np.unique(x + 0.0, axis=0, return_inverse=True)
    keys = tuple(tuple(float(v) for v in row) for row in keys_arr)
    cardinality = 1
    for col in range(k):
        cardinality *= len(np.unique(x[:, col]))
    warnings = ()
    if cardinality > n:
        warnings = ("covariate cell cardinality exceeds the sample size; "
                    "saturated estimates will be noisy or undefined",)
    return keys, assignments.ravel(), warnings


def row_write_csv(path, header, columns):
    """CSV one row at a time, each value formatted on its own: a float as
    repr(float(v)), an integer as str(int(v)), anything else as str(v)."""
    def field(v):
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return str(v)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(len(columns[0])):
            fh.write(",".join(field(col[i]) for col in columns) + "\n")
