"""Binary index models for the instrument propensity, and the IPW LATE.

fit_binary_index runs a damped Newton iteration expressed as iteratively
reweighted least squares (_newton_step). A step is solved from the k x k
normal equations X'WX when _gram_keeps_all certifies their Gram well
conditioned, and as lstsq on the square-root-weighted design otherwise:
X'WX squares the design's condition number, so a screened design with
nearly collinear columns still gets an accurate step. The
probit log-CDFs of a row come from one normal tail t = Phi(-|eta|), as log t
and log1p(-t), with log t taken in closed form from |eta| = 37 on, where t
underflows; the Mills ratios follow in logs, so extreme indexes do not
produce 0/0. Phi is _ndtr, the cephes arithmetic of scipy.special.ndtr in
numpy and equal to it bit for bit, so no probit fit imports scipy.

ipw_late is the Hajek (self-normalized) version of the abadie-style
kappa estimand: each of the four arm means E[y|z], E[d|z] is a weighted
mean with weights 1/phat or 1/(1-phat), and the estimate is the ratio of
the reweighted contrasts. Its bootstrap refits each resample through the
same Newton loop with the resample's multiplicities as row weights. The
sample and every resample share one ratio, _ipw_ratio, over rows counted m
times (once each in the sample): trim, check, arm means, Wald ratio. The
resamples run in contiguous blocks, one per CPU left free by the BLAS thread
count the environment sets, the first in the calling process and each other
in a forked child (_in_blocks); each resample draws from its own
SeedSequence child, so the report matches one process bit for bit.

A refit repeats no work of the sample's. The link's per-row loglik terms,
scores and weights at the full-sample coefficients are evaluated once per
bootstrap, before any fork, and a resample that keeps every column gathers
its Newton start from them with np.take; rows whose index BLAS rounds
otherwise in the resample are evaluated afresh, so the start is the refit's
own bit for bit. The rank screen asks the k x k Gram of sqrt(m) X first and
runs screen_columns only when the Gram cannot settle it (_gram_keeps_all in
regression).

fit_cell_propensity is that fit on saturated cell dummies, from the cell
table: every link's MLE is the cell's z = 1 share q_j, at the float boundary
(where IRLS heads) for a cell with an empty arm. It keeps no design to refit.
Its probit coefficients are normal_quantile(q_j), Wichura's AS241 in numpy,
with which dgp also draws its normal noise.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .cells import CellTable
from .data_model import Dataset
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EmptyDataError,
    IdentificationError,
    SeparationError,
    TrimError,
)
from .regression import (
    DEFAULT_TRIM, _check_bootstrap, _cluster_codes, _columns, _influence_se,
    _gram_keeps_all, _kept_columns, _solve_ols, screen_columns)
from .tables import record

LINKS = ("logit", "probit", "linear")

_MAX_ITER = 100
_MAX_ABS_COEF = 30.0
_SCORE_TOL = 1e-8  # per observation: the gate on the summed score is n times this
_LL_RTOL = 1e-10
_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)
_BLOCK = 1 << 15    # rows per block of _ndtr and normal_quantile: Horner stays in cache

# cephes ndtr.c (Moshier), as in scipy.special.ndtr: erf(x) = x T(x^2)/U(x^2)
# for |x| < 1; erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8 and
# exp(-x^2) R(x)/S(x) from 8 on, 0 once x^2 > MAXLOG. U, Q and S are monic.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)


@dataclass(frozen=True)
class PropensityFit:
    link: str
    coefficients: np.ndarray
    index: np.ndarray
    phat: np.ndarray
    converged: bool
    iterations: int
    loglik: float
    intercept_added: bool
    phat_in_unit: bool
    _design: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.phat.shape[0]


def _wsum(v: np.ndarray, m) -> float:
    return float(np.sum(v)) if m is None else float(m @ v)


def _logistic(eta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):   # exp(-eta) = inf below eta ~ -709 gives p = 0
        return 1.0 / (1.0 + np.exp(-eta))


def _logit_terms(eta: np.ndarray, z: np.ndarray):
    """Per-row loglik terms, scores z - p and informations p(1 - p) of the
    logit link."""
    # log p = -log(1 + e^-eta), log 1-p = -log(1 + e^eta)
    p = _logistic(eta)
    return z * eta - np.logaddexp(0.0, eta), z - p, p * (1.0 - p)


def _logit_parts(eta: np.ndarray, z: np.ndarray, m=None):
    terms, u, w = _logit_terms(eta, z)
    return _wsum(terms, m), u, w


def _polevl(x: np.ndarray, c: tuple) -> np.ndarray:
    """c[0] x^N + ... + c[N] by Horner's rule in cephes' polevl order; for a
    monic table 1.0 * x is x, so this is also p1evl."""
    acc = x * c[0]
    acc += c[1]
    for v in c[2:]:
        acc *= x
        acc += v
    return acc


def _ndtr(eta: np.ndarray) -> np.ndarray:
    """Phi(eta) bit for bit as scipy.special.ndtr: cephes' ndtr, erf and erfc
    with the same coefficients, branch edges and order of operations.

    Every row gets 0.5 + 0.5 erf(x), x = eta/sqrt(2), from the erf rational;
    where cephes takes 0.5 erfc(|x|) = 0.5 (1 - erf(|x|)) instead (1/sqrt(2)
    <= |x| < 1), 1 - erf(|x|) is exact, so the double is the same. Rows with
    |x| >= 1 are then recomputed from erfc (_half_erfc).
    """
    x = np.empty_like(eta)
    for i in range(0, eta.size, _BLOCK):
        e, xb = eta[i:i + _BLOCK], x[i:i + _BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):   # erf terms of huge |x|
            np.multiply(e, _SQRT1_2, out=xb)
            xx = xb * xb
            xb *= _polevl(xx, _ERF_T)
            xb /= _polevl(xx, _ERF_U)
        xb *= 0.5
        xb += 0.5
        tail = np.flatnonzero(xx >= 1.0)
        if tail.size:
            et = e[tail]
            r = np.abs(et)
            r *= _SQRT1_2
            y = _half_erfc(r, xx[tail])
            xb[tail] = np.subtract(1.0, y, out=y, where=et > 0.0)
    return x


def _half_erfc(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """0.5 erfc(r) for r >= 1, v = r^2, as cephes: exp(-v) P(r)/Q(r) below
    r = 8, exp(-v) R(r)/S(r) from 8 on, and 0 past v = MAXLOG. P/Q runs on
    every row and R/S only on the few past 8, which then take its value.

    exp(-v) must be the C library's, as in cephes: numpy's float64 exp is its
    own SIMD routine and differs from it by up to 4 ulp on a few percent of
    rows. It is the real part of numpy's complex exp(-v + 0i), which C99
    defines as exp(-v) + 0i; that costs about 11 ns a row, math.exp called
    row by row about 90 (x86-64 with AVX-512).
    """
    c = np.zeros(v.size, np.complex128)
    np.negative(v, out=c.real)
    y = np.exp(c, out=c).real
    deep = np.flatnonzero(r >= 8.0)
    y_deep, r_deep = y[deep], r[deep]
    with np.errstate(over="ignore", invalid="ignore"):   # r = inf gives inf/inf
        y *= _polevl(r, _ERFC_P)
        y /= _polevl(r, _ERFC_Q)
        if deep.size:
            y_deep *= _polevl(r_deep, _ERFC_R)
            y_deep /= _polevl(r_deep, _ERFC_S)
            y[deep] = y_deep
    y[v > _MAXLOG] = 0.0
    y *= 0.5
    return y


# Wichura's AS241 coefficients as in the standard library's NormalDist.inv_cdf,
# highest power first: a numerator and a denominator for |p - 1/2| <= 0.425,
# then for the tails with r = sqrt(-log(min(p, 1 - p))) <= 5, and beyond.
_AS241 = (
    (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
     13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665),
    (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
     5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0),
    (0.0007745450142783414, 0.022723844989269184, 0.2417807251774506,
     1.2704582524523684, 3.6478483247632045, 5.769497221460691, 4.630337846156546,
     1.4234371107496835),
    (1.0507500716444169e-09, 0.0005475938084995345, 0.015198666563616457,
     0.14810397642748008, 0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0),
    (2.0103343992922881e-07, 2.7115555687434876e-05, 0.0012426609473880784,
     0.026532189526576124, 0.29656057182850487, 1.7848265399172913, 5.463784911164114,
     6.657904643501103),
    (2.0442631033899397e-15, 1.421511758316446e-07, 1.8463183175100548e-05,
     0.0007868691311456133, 0.014875361290850615, 0.1369298809227358,
     0.599832206555888, 1.0),
)


def normal_quantile(p) -> np.ndarray:
    """Phi^-1(p) for p in (0, 1), elementwise: AS241 in inv_cdf's order of
    operations, so it matches NormalDist().inv_cdf but for a few ulp in a
    few tail values, where numpy's log differs from the C library's."""
    p = np.asarray(p, dtype=np.float64).ravel()
    x = np.empty_like(p)
    for i in range(0, p.size, _BLOCK):
        pb = p[i:i + _BLOCK]
        q = pb - 0.5
        r = 0.180625 - q * q
        xb = _polevl(r, _AS241[0]) * q / _polevl(r, _AS241[1])
        tail = np.flatnonzero(np.abs(q) > 0.425)
        r = np.sqrt(-np.log(np.minimum(pb[tail], 1.0 - pb[tail])))
        for sel, shift, k in ((r <= 5.0, 1.6, 2), (r > 5.0, 5.0, 4)):
            s = r[sel] - shift
            r[sel] = _polevl(s, _AS241[k]) / _polevl(s, _AS241[k + 1])
        xb[tail] = np.where(q[tail] < 0.0, -r, r)
        x[i:i + _BLOCK] = xb
    return x


def _probit_terms(eta: np.ndarray, z: np.ndarray):
    """Per-row loglik terms, scores and informations of the probit link."""
    # Each row is worked on the sides of t = Phi(-|eta|), whose log-CDFs are
    # log t (small) and log1p(-t) (large): zs = 1 marks z on the small side,
    # and the score flips sign where eta > 0. Buffers are reused through out=.
    a = np.abs(eta)
    np.negative(a, out=a)
    log_s = _ndtr(a)
    log_l = np.log1p(np.negative(log_s))
    with np.errstate(divide="ignore"):   # t = 0 past |eta| ~ 37.7, replaced below
        np.log(log_s, out=log_s)
    far = np.flatnonzero(a <= -37.0)
    if far.size:   # log t as scipy's log_ndtr: log(erfcx(x)/2) - x^2, erfcx = R/S
        x = a[far] * -_SQRT1_2
        r = np.minimum(x, 1e50)   # R/S overflow past it, and x^2 hides the change
        log_s[far] = np.log(0.5 * _polevl(r, _ERFC_R) / _polevl(r, _ERFC_S)) - x * x
    pos = (eta > 0.0).astype(np.float64)
    zs = np.abs(np.subtract(z, pos, out=a), out=a)
    zl = np.subtract(1.0, zs)
    terms = zs * log_s + np.multiply(zl, log_l, out=zl)
    # Mills ratios phi/Phi and phi/(1-Phi) in logs; log phi is taken in closed
    # form because phi itself loses bits below 1e-308 and is 0 past |eta| ~ 38.5
    log_phi = np.multiply(eta, eta, out=zl)
    log_phi *= -0.5
    log_phi -= _LOG_SQRT_2PI
    mills_s = np.exp(np.subtract(log_phi, log_s, out=log_s), out=log_s)
    mills_l = np.exp(np.subtract(log_phi, log_l, out=log_l), out=log_l)
    u = zs * mills_s
    u -= np.multiply(np.subtract(1.0, zs, out=zl), mills_l, out=zl)
    u *= np.subtract(1.0, np.multiply(2.0, pos, out=pos), out=pos)
    return terms, u, np.multiply(mills_s, mills_l, out=zs)


def _probit_parts(eta: np.ndarray, z: np.ndarray, m=None):
    terms, u, w = _probit_terms(eta, z)
    return _wsum(terms, m), u, w


def _needs_intercept(X: np.ndarray) -> bool:
    ones = np.ones(X.shape[0])
    coef, _, _, _ = np.linalg.lstsq(X, ones, rcond=None)
    return not np.allclose(X @ coef, ones, atol=1e-8)


def fit_binary_index(
    z: np.ndarray,
    X: np.ndarray,
    link: str = "logit",
    start: np.ndarray | None = None,
) -> PropensityFit:
    """Fit P(z=1|x) = G(x'b) by maximum likelihood (or OLS for linear G).

    An intercept is added unless the least-squares projection of a ones
    column on span X is allclose to it at atol=1e-8 (_needs_intercept)."""
    if link not in LINKS:
        raise DomainError(f"unknown link '{link}'; choose from {LINKS}")
    z = np.asarray(z, dtype=np.float64).ravel()
    X = _columns(X)
    if X.shape[0] != z.shape[0]:
        raise DomainError("design and response have different lengths")
    if z.shape[0] == 0:
        raise EmptyDataError("no rows to fit")
    if not np.isin(z, (0.0, 1.0)).all():
        raise DomainError("binary index models need a 0/1 response")

    intercept_added = _needs_intercept(X)
    if intercept_added:
        X = np.column_stack([np.ones(z.shape[0]), X])

    kept = _kept_columns(X)
    return _fit_screened(z, X[:, kept], link, start, None, intercept_added)


def _fit_screened(z, X, link, start, m, intercept_added=False, state=None):
    """The fit on a full-rank design, each row counted m times (once when m
    is None): weighted least squares for the linear link, else damped Newton.
    state, when given, is the link's output at start (X start, loglik, u and
    w), which a bootstrap refit gathers."""
    n = X.shape[0] if m is None else float(m.sum())  # rows with multiplicity
    if link == "linear":
        s = np.ones(X.shape[0]) if m is None else np.sqrt(m)
        coef, _ = _solve_ols(z * s, X * s[:, None])
        phat_raw = X @ coef
        inside = bool((phat_raw > 0.0).all() and (phat_raw < 1.0).all())
        eps = 1.0 / (2.0 * n)
        phat = np.clip(phat_raw, eps, 1.0 - eps)
        return PropensityFit(
            link="linear", coefficients=coef, index=phat_raw,
            phat=phat, converged=True, iterations=0, loglik=float("nan"),
            intercept_added=intercept_added, phat_in_unit=inside, _design=X,
        )

    parts = _logit_parts if link == "logit" else _probit_parts
    k = X.shape[1]
    if start is not None and start.shape[0] == k:
        beta = start.astype(np.float64).copy()
    else:
        beta = np.zeros(k)
    if state is None:
        eta = X @ beta
        state = (eta, *parts(eta, z, m))
    eta, ll, u, w = state
    converged = False
    it = 0
    # the score sums over observations, so its tolerance must scale with n;
    # likewise a step is "no worse" only relative to the loglik's own size
    score_gate = _SCORE_TOL * n
    for it in range(1, _MAX_ITER + 1):
        ll_prev, ll_noise = ll, 1e-12 * (1.0 + abs(ll))
        # Newton's X'(m u) and X'WX, with the information floored row by row;
        # in place, since each evaluation's u and w are the loop's own
        np.maximum(w, 1e-12, out=w)
        if m is not None:
            u *= m
            w *= m
        score = X.T @ u
        if np.max(np.abs(score)) < score_gate:
            converged = True
            it -= 1
            break
        delta = _newton_step(X, u, score, w)
        step = 1.0
        improved = False
        for _ in range(30):
            cand = beta + step * delta
            eta_new = X @ cand
            ll_new, u_new, w_new = parts(eta_new, z, m)
            if ll_new > ll - ll_noise:
                beta, eta, ll, u, w = cand, eta_new, ll_new, u_new, w_new
                improved = True
                break
            step *= 0.5
        if not improved:
            # cannot move uphill: either converged flat or numerically stuck
            if np.max(np.abs(score)) < score_gate * 10:
                converged = True
                break
            raise ConvergenceError(
                f"{link} fit stalled after {it} iterations "
                f"(loglik {ll:.6g}, max score {np.max(np.abs(score)):.3g})"
            )
        if np.max(np.abs(beta)) > _MAX_ABS_COEF and ll > ll_prev:
            j = int(np.argmax(np.abs(beta)))
            raise SeparationError(
                f"{link} fit is diverging (|coefficient {j}| > {_MAX_ABS_COEF:g} "
                "with the likelihood still improving); the response is likely "
                "perfectly separated by the design"
            )
        if abs(ll - ll_prev) < _LL_RTOL * (abs(ll_prev) + 1e-12):
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"{link} fit did not converge in {_MAX_ITER} iterations "
            f"(last loglik {ll:.6g})"
        )

    if link == "logit":
        phat = _logistic(eta)
    else:
        phat = _ndtr(eta)
    phat = np.maximum(phat, np.finfo(np.float64).tiny)    # no cap: 1 - tiny == 1
    return PropensityFit(
        link=link, coefficients=beta, index=eta, phat=phat,
        converged=True, iterations=it, loglik=ll,
        intercept_added=intercept_added, phat_in_unit=True, _design=X,
    )


def _newton_step(X, u, score, w):
    """The Newton step delta of (X'WX) delta = X'u = score, W = diag(w).

    When _gram_keeps_all certifies the k x k Gram G = X'WX, delta is solved
    from G scaled to a unit diagonal; else it is lstsq on the weighted design
    sqrt(W) X, whose condition number is the square root of G's, so a nearly
    collinear design still gets an accurate step."""
    G = X.T @ (X * w[:, None])
    if _gram_keeps_all(G, X.shape[0]):
        s = 1.0 / np.sqrt(np.diag(G))
        return s * np.linalg.solve(G * s * s[:, None], s * score)
    sw = np.sqrt(w)
    return np.linalg.lstsq(X * sw[:, None], u / sw, rcond=None)[0]


def fit_cell_propensity(ct: CellTable, link: str = "logit") -> PropensityFit:
    """fit_binary_index on the cell dummies of ct, in closed form."""
    if link not in LINKS:
        raise DomainError(f"unknown link '{link}'; choose from {LINKS}")
    q, a = ct.q_j, ct.assignments
    if link == "linear":
        eps = 1.0 / (2.0 * a.shape[0])
        p, coef, ll = np.clip(q, eps, 1.0 - eps), q, float("nan")
    else:
        p = np.clip(q, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))
        coef = np.log(p / (1.0 - p)) if link == "logit" else normal_quantile(p)
        ll = float(ct.n1_j @ np.log(q, out=np.zeros_like(q), where=q > 0.0)
                   + ct.n0_j @ np.log1p(-q, out=np.zeros_like(q), where=q < 1.0))
    return PropensityFit(link, coef, coef[a], p[a], converged=True, iterations=0,
                         loglik=ll, intercept_added=False,
                         phat_in_unit=bool(((q > 0.0) & (q < 1.0)).all()))


@dataclass(frozen=True)
class IPWReport:
    estimate: float
    se: float
    se_type: str
    n_used: int
    n_trimmed: int
    link: str
    trim: tuple[float, float]
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"estimand": "beta_late_ipw", **record(self, "metadata")}


def _ipw_ratio(y, d, z, phat, m, lo, hi, rows=None):
    """The trimmed Hajek ratio, each row counted m times, with the kept-row
    mask, the arm means (y_z1, y_z0, d_z1, d_z0) and the kept rows' y, d and
    arm weights. phat and m are given at rows (every row when None); y, d and
    z are read there."""
    keep = (phat >= lo) & (phat <= hi)
    m, phat = m[keep], phat[keep]
    if m.sum() < 2:
        raise TrimError(f"trimming to [{lo:g}, {hi:g}] keeps {m.sum():g} of "
                        f"{keep.size} rows; widen the window or inspect the "
                        "propensity fit")
    if ((phat <= 0.0) | (phat >= 1.0)).any():
        # the row's weight would be 1/0 or 0/0
        raise SeparationError(
            "a fitted propensity is exactly 0 or 1 on an untrimmed row; the "
            "design separates the instrument there, so narrow the trim window"
        )
    at = keep if rows is None else rows[keep]
    y, d, z = y[at], d[at], z[at]
    w1 = m * z / phat
    w0 = m * (1.0 - z) / (1.0 - phat)
    s1, s0 = w1.sum(), w0.sum()
    if s1 <= 0 or s0 <= 0:
        raise IdentificationError("an instrument arm is empty after trimming")
    my1 = float(np.sum(w1 * y) / s1)
    my0 = float(np.sum(w0 * y) / s0)
    md1 = float(np.sum(w1 * d) / s1)
    md0 = float(np.sum(w0 * d) / s0)
    den = md1 - md0
    if den == 0.0 or not np.isfinite(den):
        raise IdentificationError("reweighted first stage is zero; the IPW "
                                  "contrast is undefined")
    return (my1 - my0) / den, keep, (my1, my0, md1, md0), (y, d, w1, w0)


def ipw_late(
    ds: Dataset,
    pf: PropensityFit,
    trim: tuple[float, float] = DEFAULT_TRIM,
    se: str = "delta",
    reps: int = 500,
    seed: int = 0,
) -> IPWReport:
    """Propensity-reweighted Wald estimate with trimming.

    The delta-method standard error treats phat as fixed. se="bootstrap"
    refits the propensity inside each resample instead; resamples where the
    refit fails or the denominator vanishes are skipped and counted. A
    fitted propensity of exactly 0 or 1 inside the trim window is a
    SeparationError, in the full sample and in each resample. The resamples
    are spread over the CPUs that single-threaded BLAS leaves free, in
    forked children that all end before this returns; the report is the
    same as from one process.
    """
    lo, hi = float(trim[0]), float(trim[1])
    if not 0.0 <= lo < hi <= 1.0:
        raise DomainError("trim bounds must satisfy 0 <= lo < hi <= 1")
    if pf.phat.shape[0] != ds.n:
        raise DomainError("propensity fit and dataset have different lengths")

    est, keep, (my1, my0, md1, md0), (y, d, w1, w0) = _ipw_ratio(
        ds.y, ds.d, ds.z, pf.phat, np.ones(ds.n), lo, hi)
    n_used = int(keep.sum())
    n_trimmed = ds.n - n_used
    meta = {"arm_means": {"y_z1": my1, "y_z0": my0, "d_z1": md1, "d_z0": md0}}

    if se == "delta":
        # influence function of a ratio of Hajek contrasts, phat held fixed
        s1, s0 = w1.sum() / n_used, w0.sum() / n_used
        psi_num = w1 * (y - my1) / s1 - w0 * (y - my0) / s0
        psi_den = w1 * (d - md1) / s1 - w0 * (d - md0) / s0
        infl = (psi_num - est * psi_den) / (md1 - md0)
        cluster = None if ds.cluster is None else ds.cluster[keep]
        return IPWReport(est, _influence_se(infl, cluster),
                         "delta" if cluster is None else "cluster", n_used,
                         n_trimmed, pf.link, (lo, hi), meta)

    if se != "bootstrap":
        raise DomainError("se must be 'delta' or 'bootstrap'")
    if pf._design is None:
        raise ConfigError("a cell fit keeps no design for the bootstrap to "
                          "refit; refit with fit_binary_index")

    _check_bootstrap(reps, seed)
    if reps < 2:
        raise ConfigError(f"the bootstrap SE needs at least 2 resamples, got {reps}")
    ests, failed_by = _bootstrap_estimates(ds, pf, lo, hi, reps, seed)
    failures = sum(failed_by.values())
    if len(ests) < 2:
        raise IdentificationError(
            f"bootstrap failed in {failures} of {reps} resamples; "
            "no variance estimate available"
        )
    se_val = float(np.std(ests, ddof=1))
    meta["bootstrap"] = {"reps": reps, "completed": len(ests),
                         "failed": failures, "failed_by": failed_by, "seed": seed}
    return IPWReport(est, se_val, "bootstrap", n_used, n_trimmed,
                     pf.link, (lo, hi), meta)


def _bootstrap_estimates(ds: Dataset, pf: PropensityFit, lo: float, hi: float,
                         reps: int, seed: int):
    """Per-resample IPW estimates and failure counts by error class name.

    A resample drawn with replacement is the full sample with integer
    multiplicity weights m: the row's draw count, or its cluster's pick count
    for the pairs cluster bootstrap. The refit and the Hajek means are
    m-weighted sums over the rows with m > 0, started from the full-sample
    coefficients on the full-sample design. Each resample screens sqrt(m) X,
    which has the Gram of its copied rows, so it keeps the columns those rows
    would keep; one that loses a column no longer matches the start and is
    fitted from zeros. One that keeps them all gathers its Newton state at
    the start from the link's per-row loglik terms, scores and weights at
    the full-sample index, evaluated once here for every block.

    Resample r draws from the r-th child of SeedSequence(seed), whichever
    process runs it (see _in_blocks), so the estimates, their order and the
    first-failure order of failed_by do not depend on the number of CPUs.
    """
    X_full = pf._design
    k = X_full.shape[1]
    z = ds.z.astype(np.float64)
    if ds.cluster is not None:
        n_groups, codes = _cluster_codes(ds.cluster)
    if pf.link != "linear":
        terms_at = _logit_terms if pf.link == "logit" else _probit_terms
        eta_full = X_full @ pf.coefficients
        terms, u_full, w_full = terms_at(eta_full, z)

    def start_state(rows, X, zr, mb):
        """The refit's link output at pf.coefficients, gathered: (X beta,
        loglik, u, w). BLAS may round a row of X beta differently from the
        same row of the full-sample product (its remainder loop takes the
        last rows of either), so such rows are evaluated afresh, and the
        state is the refit's own evaluation bit for bit."""
        eta = X @ pf.coefficients
        off = np.flatnonzero(eta != np.take(eta_full, rows))
        t, u, w = (np.take(v, rows) for v in (terms, u_full, w_full))
        if off.size:
            t[off], u[off], w[off] = terms_at(eta[off], zr[off])
        return eta, float(mb @ t), u, w

    def resample(child):
        """The resample's estimate, or the class name of its failure."""
        rng = np.random.default_rng(child)
        if ds.cluster is not None:
            pick = rng.integers(0, n_groups, size=n_groups)
            m = np.bincount(pick, minlength=n_groups)[codes]
        else:
            m = np.bincount(rng.integers(0, ds.n, size=ds.n), minlength=ds.n)
        rows = np.flatnonzero(m != 0)   # a bool scan: nonzero on int64 m is ~5x slower
        mb = np.take(m, rows).astype(np.float64)
        # column-major, as the copied rows' X[:, kept] is: BLAS rounds a
        # row-major design's products differently
        X = np.take(X_full.T, rows, axis=1).T
        zr = np.take(z, rows)
        try:
            # sqrt(m) X has the Gram X'(m X); the screen itself reads a
            # row-major sqrt(m) X, as it did the copied rows
            if not _gram_keeps_all(X.T @ (X * mb[:, None]), rows.size):
                X = X[:, screen_columns(np.multiply(X, np.sqrt(mb)[:, None], order="C"))[0]]
            full_rank = X.shape[1] == k and pf.link != "linear"
            state = start_state(rows, X, zr, mb) if full_rank else None
            pf_b = _fit_screened(zr, X, pf.link, pf.coefficients, mb, False, state)
            return _ipw_ratio(ds.y, ds.d, z, pf_b.phat, mb, lo, hi, rows)[0]
        except (ConvergenceError, SeparationError, TrimError,
                IdentificationError, DomainError) as exc:
            return type(exc).__name__

    outcomes = _in_blocks(lambda block: [resample(c) for c in block],
                          np.random.SeedSequence(seed).spawn(reps))
    ests = []
    failed_by: dict[str, int] = {}
    for out in outcomes:
        if isinstance(out, str):
            failed_by[out] = failed_by.get(out, 0) + 1
        else:
            ests.append(out)
    return ests, failed_by


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count() -> int:
    """How many resample blocks may run at once: the CPUs this process may
    run on, shared out among the BLAS threads each block starts.

    The thread count is the first of _BLAS_THREAD_VARS that is set, else
    BLAS's own default of every CPU, which leaves one block. Forked blocks
    that each start a full BLAS pool contend for the same CPUs: on 2 vCPUs,
    two blocks with two OpenBLAS threads each ran the bootstrap 1.3-3.3x
    slower than one process.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        cpus = os.cpu_count() or 1
    blas = next((os.environ[v] for v in _BLAS_THREAD_VARS if os.environ.get(v)), "")
    threads = int(blas) if blas.isdigit() and int(blas) > 0 else cpus
    return max(1, cpus // threads)


def _in_blocks(run, items: list) -> list:
    """run(items), computed as run over w = min(len(items), _worker_count())
    contiguous blocks of items and concatenated in order.

    This process runs block 0; each other block runs in a child forked for it,
    which sends its list (or the exception it raised) back over a one-way pipe
    and exits. Every child is joined, or terminated and joined, before this
    returns or raises. With one block, no fork start method, a daemonic
    process or a second live thread (which a fork would copy in whatever
    state it holds) everything runs here.
    """
    w = min(len(items), _worker_count())
    if w > 1:
        import multiprocessing
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon
                or threading.active_count() > 1):
            w = 1
    if w == 1:
        return run(items)
    ctx = multiprocessing.get_context("fork")
    bounds = [len(items) * b // w for b in range(w + 1)]
    workers = []
    rest = len(items)   # items from here on run here, after the children's
    try:
        for b in range(1, w):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_send_block, daemon=True,
                               args=(sender, run, items[bounds[b]:bounds[b + 1]]))
            try:
                proc.start()
            except OSError:   # no memory or process slot for a fork
                receiver.close()
                rest = bounds[b]
                break
            finally:
                sender.close()
            workers.append((proc, receiver))
        out = run(items[:bounds[1]])
        for proc, receiver in workers:
            try:
                part = receiver.recv()
            except EOFError:
                part = None
            proc.join()
            if part is None:
                raise RuntimeError(f"a bootstrap worker exited with code "
                                   f"{proc.exitcode} before sending its block")
            if isinstance(part, BaseException):
                raise part
            out.extend(part)
        if rest < len(items):
            out.extend(run(items[rest:]))
        return out
    finally:
        for proc, receiver in workers:
            receiver.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def _send_block(sender, run, block) -> None:
    """Child side of _in_blocks: send run(block), or what it raised."""
    try:
        out = run(block)
    except Exception as exc:
        out = exc
    try:
        sender.send(out)
    except Exception:   # an exception that does not pickle: keep its class name
        sender.send(RuntimeError(f"{type(out).__name__}: {out}"))
    sender.close()
