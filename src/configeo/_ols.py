"""The ordinary least-squares log-log fit shared by the slope-estimation surfaces."""

from __future__ import annotations

import math

import numpy as np


def ols_loglog(x, y) -> tuple[float, float]:
    """Fit log(y) = intercept + slope*log(x); return (slope, slope_stderr).

    Inputs must be positive.  The standard error is the usual OLS estimate
    sqrt(RSS/(m-2)/Sxx); it is 0.0 for two-point fits, where the residual
    degrees of freedom vanish.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires strictly positive samples")
    x, y = np.log(x), np.log(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    m = x.size
    if m < 2:
        raise ValueError("need at least 2 samples to fit a line")
    xbar = float(x.mean())
    ybar = float(y.mean())
    sxx = float(((x - xbar) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    slope = float(((x - xbar) * (y - ybar)).sum() / sxx)
    if m == 2:
        return slope, 0.0
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    s2 = float((resid**2).sum()) / (m - 2)
    return slope, math.sqrt(s2 / sxx)
