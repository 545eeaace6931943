"""The standard normal CDF, its log and its quantile, elementwise.

normal_cdf and normal_log_cdf are thin wrappers over scipy.special's
``ndtr`` and ``log_ndtr`` (accurate far into the left tail and as a tiny
negative number in the right tail). scipy.special is imported on first
call, so importing ivhet loads no scipy module. normal_quantile needs
only numpy.
"""

from __future__ import annotations

import numpy as np


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
