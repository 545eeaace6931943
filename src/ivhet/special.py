"""The standard normal CDF and its log, elementwise.

Thin wrappers over scipy.special: normal_cdf is ``ndtr`` and normal_log_cdf
is ``log_ndtr`` (accurate far into the left tail and as a tiny negative
number in the right tail). scipy.special is imported on first call, so
importing ivhet loads no scipy module.
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
