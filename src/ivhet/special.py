"""The standard normal CDF, its log and its quantile, elementwise; and the
F and chi-squared upper tails that give the RESET p-values, one scalar at
a time.

normal_cdf and normal_log_cdf are thin wrappers over scipy.special's
``ndtr`` and ``log_ndtr`` (accurate far into the left tail and as a tiny
negative number in the right tail). scipy.special is imported on first
call, so importing ivhet loads no scipy module. normal_quantile needs
only numpy, and f_sf and chi2_sf only the standard library's math: for one
p-value, importing scipy.special would add about 0.11 s to a CLI run.

f_sf is the regularized incomplete beta I_x(a, b) on the side of the mean
where the tail is small, as the continued fraction of DiDonato & Morris
(1992, BFRAC) evaluated by Lentz's method. The CF's coefficients take x,
1 - x and a - (a + b) x, and each of them is formed without a subtraction
that cancels: near x = 1, 1 - x comes from df2 / (df2 + df1 F), not 1 - x.
log B(a, b) takes log Gamma(s + p) - log Gamma(s) from Stirling's series at
large s, where lgamma(s + p) - lgamma(s) would lose digits. chi2_sf is the
closed form for integer df: erfc or exp, plus Poisson terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF Phi(x), elementwise."""
    import scipy.special
    return scipy.special.ndtr(np.asarray(x, dtype=np.float64))


def normal_log_cdf(x) -> np.ndarray:
    """log Phi(x), elementwise, stable in both tails."""
    import scipy.special
    return scipy.special.log_ndtr(np.asarray(x, dtype=np.float64))


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
_BLOCK = 1 << 15    # elements per block: the Horner passes stay in cache


def _horner(coef, r: np.ndarray) -> np.ndarray:
    y = np.full_like(r, coef[0])
    for c in coef[1:]:
        y *= r
        y += c
    return y


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
        xb = _horner(_AS241[0], r) * q / _horner(_AS241[1], r)
        tail = np.flatnonzero(np.abs(q) > 0.425)
        r = np.sqrt(-np.log(np.minimum(pb[tail], 1.0 - pb[tail])))
        for sel, shift, k in ((r <= 5.0, 1.6, 2), (r > 5.0, 5.0, 4)):
            s = r[sel] - shift
            r[sel] = _horner(_AS241[k], s) / _horner(_AS241[k + 1], s)
        xb[tail] = np.where(q[tail] < 0.0, -r, r)
        x[i:i + _BLOCK] = xb
    return x


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
