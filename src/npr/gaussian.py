"""Gaussian-response fitting and inference for propagated designs.

Least squares is solved through a QR decomposition of the selected design
(never the normal equations); the Gram matrix and its inverse are derived
from the triangular factor.  The sequential Wald machinery tests, for each
order j, whether every selected coefficient of propagation order >= j is
zero, and Holm's step-down procedure converts the resulting p-values into
family-wise-error-controlled decisions about the propagation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite
from scipy import linalg as sla

from ._blas import one_thread
from .design import OUT_OF_RANGE, FitRecord, PropagatedDesign, finite_prediction, fit_inputs
from .exceptions import InputValueError, ModelError, SingularMatrixError

Z_95 = 1.959964  # two-sided 95% normal quantile used for intervals

# Restriction dimension at and above which the normal approximation
# replaces the chi-square reference for Wald p-values.  The chi-square
# reference is essentially exact for Gaussian errors at any fixed
# dimension, so the switch is set high and is configurable per call.
NORMAL_APPROX_MIN_DIM = 128


@dataclass(eq=False, kw_only=True)
class GaussianFit(FitRecord):
    """OLS fit over the selected columns of a propagated design."""

    family = "gaussian"
    theta_hat: np.ndarray
    rss: float
    sigma2_hat: float
    gram: np.ndarray
    gram_inverse: np.ndarray
    std_errors: np.ndarray
    column_means: np.ndarray | None
    y_mean: float

    @property
    def d_sel(self) -> int:
        return len(self.selected)

    @property
    def sigma_hat(self) -> float:
        return math.sqrt(self.sigma2_hat)

    def selected_orders(self) -> np.ndarray:
        """Propagation order of each selected column."""
        return np.asarray([c // self.d for c in self.selected])

    def _report_block(self) -> tuple:
        return self.theta_hat, self.std_errors, dict(
            rss=self.rss, sigma2_hat=self.sigma2_hat, y_mean=self.y_mean, column_means=self.column_means.tolist(),
            gram=self.gram.tolist(), gram_inverse=self.gram_inverse.tolist(),
            gram_condition_number=float(np.linalg.cond(self.gram)))  # written, not read back

    @classmethod
    def _from_report_block(cls, get, estimates, std_errors) -> dict:
        p = len(estimates)
        return dict(theta_hat=estimates, rss=get("rss"), sigma2_hat=get("sigma2_hat"), gram=get("gram", (p, p)),
                    gram_inverse=get("gram_inverse", (p, p)), std_errors=std_errors,
                    column_means=get("column_means", (p,)), y_mean=get("y_mean"))


def _qr(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR of a tall ``A``, bitwise equal to ``np.linalg.qr(A)``.

    The same ``dgeqrf`` then ``dorgqr`` from numpy's own LAPACK binding,
    with the same workspace sizes, but run in place on ``A``, which must be
    a Fortran-ordered float64 array that the caller gives up: its contents
    are overwritten.  ``lapack_lite`` takes C-ordered arrays, so each
    routine gets ``A.T``, a view of the same memory; it refuses any other
    layout or dtype.  Q comes back C-ordered, as from ``np.linalg.qr``; the
    bits of the products taken with it depend on that layout.
    """
    m, p = A.shape
    tau = np.empty(p)

    def call(routine, *dims):
        query = np.empty(1)
        routine(*dims, A.T, m, tau, query, -1, 0)
        work = np.empty(max(1, p, int(query[0])))
        if routine(*dims, A.T, m, tau, work, work.size, 0)["info"]:
            raise np.linalg.LinAlgError("QR factorization failed")

    call(lapack_lite.dgeqrf, m, p)
    R = np.triu(A[:p])
    call(lapack_lite.dorgqr, m, p, p)
    return np.ascontiguousarray(A), R


def _in_units(values: np.ndarray, exponents, *inputs: str) -> np.ndarray:
    """``values * 2**exponents``, exactly: a nonzero value that overflows or
    falls below the normal floats, where its low bits are lost, raises
    ``InputValueError`` naming ``inputs``."""
    with np.errstate(over="ignore", under="ignore"):
        out = np.ldexp(values, exponents)
    if not (np.isfinite(out) & ((np.abs(out) >= np.finfo(np.float64).tiny) | (values == 0))).all():
        raise InputValueError(OUT_OF_RANGE, *inputs)
    return out


@one_thread
def fit_ols(design: PropagatedDesign, y: np.ndarray) -> GaussianFit:
    """Least-squares fit of a centered, forward-selected design.

    The response is centered internally when the design is centered (a
    no-op for pre-centered input), and the centering constants are kept on
    the fit so new rows can be predicted consistently.
    """
    columns = fit_inputs(design, "gaussian", centered=True)
    X = design.selected_matrix()
    n, p = X.shape
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != n:
        raise InputValueError(f"response has {y.shape[0]} rows, design has {n}", "response", "covariates")
    if not np.isfinite(y).all():
        bad = int(np.flatnonzero(~np.isfinite(y))[0])
        raise InputValueError(f"response has a non-finite value at row {bad} (0-based)", "response")
    if n <= p:
        raise ValueError("insufficient observations: need more rows than selected columns")

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        y_mean = float(y.mean())
        yc = y - y_mean
        peak = np.abs(yc).max()
    if not np.isfinite(peak):
        raise InputValueError("response values too large: their mean or spread overflows", "response")

    # the fit runs at unit scale and reports in the inputs' units: yc and each
    # column of R are scaled by exact powers of two, which moves no bit of an
    # in-range number, and _in_units scales each reported number back
    ey = int(np.frexp(peak)[1])
    yc = np.ldexp(yc, -ey)
    # the gather is a fresh F-ordered copy, factored in place and dropped
    # with Q before the columns are gathered again: at most three n x p
    # arrays are held at once, the caller's design, the gather and Q
    Q, R = _qr(X)
    del X
    if not np.isfinite(R).all():  # a column's norm overflows, and so does the gram the fit reports
        raise InputValueError(OUT_OF_RANGE, "covariates")
    ex = np.frexp(np.abs(R).max(axis=0))[1]
    R = np.ldexp(R, -ex)
    # each column's residual ratio |R_jj| / ||R[:, j]||, the quantity that
    # independent_columns screens on, against a floor far below its tol
    if (np.abs(np.diag(R)) <= 1e-12 * np.linalg.norm(R, axis=0)).any():
        raise SingularMatrixError(
            "selected design is numerically singular; forward selection should prevent this"
        )
    theta = sla.solve_triangular(R, Q.T @ yc)
    del Q
    r_inv = sla.solve_triangular(R, np.eye(p))
    xtx_inv = r_inv @ r_inv.T
    units = ex[:, None] + ex
    gram = _in_units((R.T @ R) / n, units, "covariates")
    gram_inverse = _in_units(n * xtx_inv, -units, "covariates")
    # the same F-ordered columns again: the product's bits depend on the layout
    resid = yc - design.selected_matrix() @ np.ldexp(theta, -ex)
    rss = float(resid @ resid)
    # an exact fit leaves only rounding residue; snap it to zero so the
    # zero-variance edge case is reported as such downstream
    if rss <= 1e-28 * float(yc @ yc):
        rss = 0.0
    sigma2 = rss / (n - p)
    std_errors = np.sqrt(sigma2 * np.diag(xtx_inv))
    rss, sigma2 = _in_units(np.array([rss, sigma2]), 2 * ey, "response").tolist()
    theta, std_errors = _in_units(np.array([theta, std_errors]), ey - ex, "covariates", "response")

    means = None
    if design.column_means is not None:
        means = design.column_means[design.selected]

    return GaussianFit(
        theta_hat=theta,
        rss=rss,
        sigma2_hat=sigma2,
        gram=gram,
        gram_inverse=gram_inverse,
        std_errors=std_errors,
        column_means=means,
        y_mean=y_mean,
        **columns,
    )


def predict(fit: GaussianFit, design_new: PropagatedDesign) -> np.ndarray:
    """Mean response for new rows under the fitted model.

    ``design_new`` is a raw design that :meth:`FitRecord.gather` accepts;
    the fit's stored centering constants are applied here.
    """
    M = fit.gather(design_new)  # a fresh copy, safe to center in place
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite prediction is refused
        if fit.column_means is not None:
            M -= fit.column_means
        return finite_prediction(fit.y_mean + M @ fit.theta_hat)


def t_statistics(fit: GaussianFit) -> list[dict]:
    """Per-coefficient estimates, standard errors, z-tests and 95% CIs."""
    from scipy import special  # imported here, not at start-up: prediction studies never need it

    out = []
    if fit.sigma2_hat == 0.0:
        warnings.warn(
            "zero residual variance: t statistics reported as infinite, or undefined for a zero estimate",
            RuntimeWarning,
            stacklevel=2,
        )
    for col, rec in zip(fit.selected, fit._coefficients(fit.theta_hat, fit.std_errors)):
        est, se = rec["estimate"], rec["std_error"]
        if se > 0.0:
            t = est / se
            pval = 2.0 * special.ndtr(-abs(t))
        elif est == 0.0:  # 0/0: no evidence either way
            t, pval = math.nan, 1.0
        else:
            t = math.inf if est >= 0 else -math.inf
            pval = 0.0
        out.append({**rec, "column": col, "t": t, "p": float(pval),
                    "ci_low": est - Z_95 * se, "ci_high": est + Z_95 * se})
    return out


@one_thread
def wald_statistic(fit: GaussianFit, design: PropagatedDesign | None, j: int) -> dict:
    """Wald quadratic form for the hypothesis that all selected
    coefficients of propagation order >= j vanish.

    Returns ``{"j", "m", "T"}`` where m is the restriction dimension
    (number of surviving columns of order >= j).  Columns dropped by
    forward selection are structural zeros and do not enter.  When no
    column of order >= j survives, m = 0 is reported and the caller treats
    the hypothesis as undecidable (p = 1).  ``design`` may be omitted; it
    is used only to bound j by the design's maximum order.  A fit with zero
    residual variance has no Wald statistic and raises ``ModelError``.
    """
    bound = (fit if design is None else design).K
    if j < 0 or j > bound:
        raise ValueError(f"order j={j} outside [0, {bound}]")
    orders = fit.selected_orders()
    idx = np.flatnonzero(orders >= j)
    m = int(idx.size)
    if m == 0:
        return {"j": j, "m": 0, "T": 0.0}
    if fit.sigma2_hat == 0.0:
        raise ModelError(f"zero residual variance: the order-{j} Wald statistic of an exact fit is undefined")
    theta_r = fit.theta_hat[idx]
    G = fit.gram_inverse[np.ix_(idx, idx)]
    try:
        with warnings.catch_warnings():  # an ill-conditioned G still gives its solve's T
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            sol = sla.solve(G, theta_r, assume_a="pos")
    except np.linalg.LinAlgError:
        sol = sla.lstsq(G, theta_r)[0]
    T = float(fit.n * (theta_r @ sol) / fit.sigma2_hat)
    return {"j": j, "m": m, "T": T}


def holm_reject(p_values, alpha: float) -> np.ndarray:
    """Holm's step-down multiple-testing decisions.

    Sorted p-values are compared against ``alpha / (M - rank)``; the first
    failure stops the procedure and every later hypothesis (in sorted
    order) is retained.  Valid under arbitrary dependence.
    """
    p = np.asarray(p_values, dtype=np.float64)
    M = p.size
    order = np.argsort(p, kind="stable")
    reject = np.zeros(M, dtype=bool)
    for rank, idx in enumerate(order):
        if p[idx] <= alpha / (M - rank):
            reject[idx] = True
        else:
            break
    return reject


@dataclass(eq=False)
class OrderTestReport:
    """Outcome of the sequential propagation-order tests.

    One record per tested order j with its restriction dimension, Wald
    statistic, standardized statistic, p-value and reference regime;
    ``selected_order`` is the smallest j whose hypothesis survives Holm
    (all effects of order >= j judged absent), or k_max + 1 when every
    hypothesis is rejected.
    """

    records: list[dict]
    holm_rejections: list[bool]
    selected_order: int
    alpha: float

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "tests": self.records,
            "holm_rejections": list(map(bool, self.holm_rejections)),
            "selected_order": self.selected_order,
        }


def _chi2_sf(T: float, m: int) -> float:
    """``scipy.stats.chi2.sf(T, df=m)`` from ``scipy.special``, which
    imports in a fraction of the time; below the support (a negative Wald
    statistic from the least-squares fallback) the tail is 1."""
    from scipy import special

    return 1.0 if T < 0 else float(special.chdtrc(m, T))


def order_test(
    fit: GaussianFit,
    design: PropagatedDesign | None,
    k_max: int,
    xi: float = 0.05,
    normal_approx_min_dim: int = NORMAL_APPROX_MIN_DIM,
) -> OrderTestReport:
    """Sequential Wald tests for orders j = 0..k_max with Holm correction.

    For each j the hypothesis is that all coefficients of order >= j are
    zero.  P-values use the chi-square(m) upper tail for restriction
    dimension below ``normal_approx_min_dim`` and otherwise the normal
    approximation ``2(1 - Phi(Z))`` with ``Z = (T - m)/sqrt(2m)``, clamped
    to [0, 1].
    """
    if not 0 < xi < 1:
        raise ValueError("xi must lie in (0, 1)")
    bound = (fit if design is None else design).K
    if k_max < 0 or k_max > bound:
        raise ValueError(f"k_max={k_max} outside [0, {bound}]")
    records = []
    for j in range(k_max + 1):
        rec = wald_statistic(fit, design, j)
        m, T = rec["m"], rec["T"]
        if m == 0:
            rec.update({"Z": 0.0, "p": 1.0, "regime": "empty", "no_columns": True})
        else:
            z = (T - m) / math.sqrt(2.0 * m)
            if m < normal_approx_min_dim:
                p = _chi2_sf(T, m)
                regime = "chi2"
            else:
                from scipy import special

                p = float(min(max(2.0 * (1.0 - special.ndtr(z)), 0.0), 1.0))
                regime = "normal"
            rec.update({"Z": z, "p": p, "regime": regime})
        records.append(rec)
    pvals = np.asarray([r["p"] for r in records])
    rejected = holm_reject(pvals, xi)
    not_rejected = np.flatnonzero(~rejected)
    selected_order = int(not_rejected[0]) if not_rejected.size else k_max + 1
    return OrderTestReport(
        records=records,
        holm_rejections=rejected.tolist(),
        selected_order=selected_order,
        alpha=xi,
    )
