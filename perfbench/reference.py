"""Reference answers computed with numpy and scipy alone, never with npr."""

from __future__ import annotations

import numpy as np
from scipy import stats

from inputs import D


def ols(M: np.ndarray, y: np.ndarray) -> dict:
    """Least squares on the column-centered design with a centered response.

    ``theta`` comes from ``numpy.linalg.lstsq``; the coefficient covariance
    ``(X'X)^-1`` from the singular value decomposition.
    """
    Mc = M - M.mean(axis=0)
    y_mean = float(y.mean())
    yc = y - y_mean
    theta = np.linalg.lstsq(Mc, yc, rcond=None)[0]
    resid = yc - Mc @ theta
    n, p = Mc.shape
    sigma2 = float(resid @ resid) / (n - p)
    _, s, vt = np.linalg.svd(Mc, full_matrices=False)
    xtx_inv = (vt.T / s**2) @ vt
    return {
        "theta": theta,
        "sigma2": sigma2,
        "xtx_inv": xtx_inv,
        "fitted": y_mean + Mc @ theta,
    }


def order_test(M: np.ndarray, y: np.ndarray, k_max: int = 5, alpha: float = 0.05) -> dict:
    """Sequential Wald tests of "every coefficient of order >= j is zero"
    for j = 0..k_max, chi-square reference, Holm step-down at ``alpha``."""
    fit = ols(M, y)
    pvals = []
    for j in range(k_max + 1):
        idx = np.arange(j * D, M.shape[1])
        th = fit["theta"][idx]
        cov = fit["xtx_inv"][np.ix_(idx, idx)]
        T = float(th @ np.linalg.solve(cov, th)) / fit["sigma2"]
        pvals.append(float(stats.chi2.sf(T, df=idx.size)))
    order = np.argsort(pvals, kind="stable")
    rejected = np.zeros(len(pvals), dtype=bool)
    for rank, i in enumerate(order):
        if pvals[i] > alpha / (len(pvals) - rank):
            break
        rejected[i] = True
    kept = np.flatnonzero(~rejected)
    fit["selected_order"] = int(kept[0]) if kept.size else k_max + 1
    fit["p_values"] = pvals
    return fit
