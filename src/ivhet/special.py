"""The error function family and the standard normal CDF, elementwise.

Thin wrappers over scipy.special: normal_cdf is ``ndtr``, normal_log_cdf is
``log_ndtr`` (accurate far into the left tail and as a tiny negative number
in the right tail), and erf, erfc and erfcx are the scipy functions of the
same name. The density is plain numpy. scipy.special is imported on first
call, so importing ivhet loads no scipy module.
"""

from __future__ import annotations

import numpy as np


def erf(x) -> np.ndarray:
    """Error function, elementwise."""
    import scipy.special
    return scipy.special.erf(np.asarray(x, dtype=np.float64))


def erfc(x) -> np.ndarray:
    """Complementary error function, elementwise."""
    import scipy.special
    return scipy.special.erfc(np.asarray(x, dtype=np.float64))


def erfcx(x) -> np.ndarray:
    """Scaled complementary error function exp(x^2) erfc(x), elementwise."""
    import scipy.special
    return scipy.special.erfcx(np.asarray(x, dtype=np.float64))


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF Phi(x), elementwise."""
    import scipy.special
    return scipy.special.ndtr(np.asarray(x, dtype=np.float64))


def normal_pdf(x) -> np.ndarray:
    """Standard normal density phi(x), elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def normal_log_cdf(x) -> np.ndarray:
    """log Phi(x), elementwise, stable in both tails."""
    import scipy.special
    return scipy.special.log_ndtr(np.asarray(x, dtype=np.float64))
