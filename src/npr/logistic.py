"""Network logistic regression: Newton conditional MLE on propagated designs.

The linear predictor is an explicit intercept plus the selected propagated
columns (no centering for this family).  Newton steps use the observed
information and step-halving so the log-likelihood never decreases; a
separation guard converts runaway coefficients into a typed error instead
of pseudo-converged output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DEFAULT_SELECT_TOL, PropagatedDesign, finite_prediction, fit_inputs
from .exceptions import InputValueError, SeparationError
from ._newton import MAX_ITER, NewtonFit, newton_fields, newton_maximize

SEPARATION_BOUND = 30.0  # logit scale beyond double-precision probability resolution


@dataclass(eq=False, kw_only=True)
class LogisticFit(NewtonFit):
    """Converged conditional MLE; ``theta_hat[0]`` is the intercept, and the
    information and standard errors include it."""

    family = "logistic"
    theta_hat: np.ndarray
    log_likelihood: float

    def _report_block(self) -> tuple:
        # the intercept is reported in the block, apart from the coefficients
        return self.theta_hat[1:], self.std_errors[1:], dict(
            intercept=float(self.theta_hat[0]), intercept_std_error=float(self.std_errors[0]),
            log_likelihood=self.log_likelihood, **self._solver_block())

    @classmethod
    def _from_report_block(cls, get, estimates, std_errors) -> dict:
        # float(): an int past int64, which the schema admits, would make an object array
        return dict(theta_hat=np.concatenate([[float(get("intercept"))], estimates]),
                    std_errors=np.concatenate([[float(get("intercept_std_error"))], std_errors]),
                    log_likelihood=get("log_likelihood"), **cls._solver_fields(get))


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # sum_i y*eta - log(1 + exp(eta)), stable for large |eta|
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def check_binary(y: np.ndarray) -> None:
    """Raise ``InputValueError`` naming the response unless each value of ``y`` is 0 or 1."""
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InputValueError("logistic responses must be 0/1", "response")


def _intercept_columns(design: PropagatedDesign) -> np.ndarray:
    """An all-ones column, then the design's selected columns, in one
    F-ordered copy: the layout whose bits the fit keeps (a C-ordered copy
    changes theta_hat and the information)."""
    X = np.empty((design.n_rows, len(design.selected) + 1), order="F")
    X[:, 0] = 1.0
    X[:, 1:] = design.matrix[:, design.selected]
    return X


def fit_logistic(design: PropagatedDesign, y: np.ndarray, tol: float = DEFAULT_SELECT_TOL) -> LogisticFit:
    """Newton maximization of the Bernoulli log-likelihood.

    The design must be uncentered and forward-selected; an all-ones
    intercept column is prepended internally.  Iterations start at zero,
    halve the step whenever the log-likelihood would not increase, and
    stop when the max-norm of the accepted step falls below ``tol``, or
    after ``MAX_ITER`` steps.  Raises :class:`SeparationError` when the
    fitted logits exceed ``SEPARATION_BOUND`` (beyond double-precision
    probability resolution) while the iteration is still moving, the
    signature of a likelihood maximized only at infinity.
    """
    from scipy.special import expit  # imported here, not at start-up: the studies never need it

    columns = fit_inputs(design, "logistic", centered=False)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.shape[0] != design.n_rows:
        raise InputValueError(f"response has {y.shape[0]} rows, design has {design.n_rows}", "response", "covariates")
    check_binary(y)

    X = _intercept_columns(design)

    def objective(theta):
        eta = X @ theta
        pr = expit(eta)
        ll = _log_likelihood(eta, y)
        score = X.T @ (y - pr)
        w = pr * (1.0 - pr)
        hess = (X * w[:, None]).T @ X
        return ll, score, hess

    def guard(theta, step_inf):
        if step_inf >= tol and np.abs(X @ theta).max() > SEPARATION_BOUND:
            raise SeparationError(
                "perfect separation detected: fitted logits diverge without convergence"
            )

    def loglik_only(theta):
        return _log_likelihood(X @ theta, y)

    result = newton_maximize(
        objective,
        np.zeros(X.shape[1]),
        max_iter=MAX_ITER,
        tol=tol,
        loglik=loglik_only,
        guard=guard,
    )
    theta, ll, newton = newton_fields(result, design.n_rows)
    return LogisticFit(theta_hat=theta, log_likelihood=ll, **newton, **columns)


def predict_proba(fit: LogisticFit, design_new: PropagatedDesign) -> np.ndarray:
    """Fitted success probabilities for new rows."""
    from scipy.special import expit

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite logit is refused
        eta = fit.theta_hat[0] + fit.gather(design_new) @ fit.theta_hat[1:]
    return expit(finite_prediction(eta))


def auc(scores, labels) -> float:
    """Area under the ROC curve by the rank (Mann-Whitney) formula.

    Equals the fraction of (positive, negative) pairs where the positive
    scores higher, ties counted one half.  Requires both classes present.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError("scores and labels must have the same length")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: need at least one positive and one negative label")
    ranks = _average_ranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """``scipy.stats.rankdata(a)`` (ties get their average rank, any NaN
    makes every rank NaN) without importing ``scipy.stats``."""
    if np.isnan(a).any():
        return np.full(a.size, np.nan)
    order = np.argsort(a, kind="stable")
    s = a[order]
    starts = np.concatenate(([True], s[1:] != s[:-1]))
    dense = np.empty(a.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    count = np.append(np.flatnonzero(starts), a.size)
    return 0.5 * (count[dense] + count[dense - 1] + 1)
