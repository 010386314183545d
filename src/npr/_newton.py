"""Shared Newton ascent loop with step-halving and a jitter retry.

Used by the logistic and Cox fitters, which share the same convergence
contract: start at zero, never accept a step that decreases the objective,
declare convergence when the accepted step's max-norm drops below the
tolerance, and treat a singular information matrix as an error after one
retry with a tiny ridge.  Their fit records share :class:`NewtonFit`, the
solver's diagnostics and the standard errors from the information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg as sla

from ._blas import one_thread
from .design import OUT_OF_RANGE, FitRecord
from .exceptions import InputValueError, SingularMatrixError

JITTER = 1e-10
MAX_HALVINGS = 40


@one_thread
def _solve_information(hess: np.ndarray, score: np.ndarray) -> tuple[np.ndarray, bool]:
    """Newton step ``hess^-1 score``, and whether the ridge retry was needed.

    A non-finite entry means products of the covariates overflowed; a
    diagonal entry below the smallest normal float in magnitude means a
    selected column's squares underflowed, since forward selection keeps
    no zero column.  Either is refused as covariates out of range.
    """
    if not (np.isfinite(hess).all() and np.isfinite(score).all()) or (
            np.abs(hess.diagonal()) < np.finfo(np.float64).tiny).any():
        raise InputValueError(OUT_OF_RANGE, "covariates")
    try:
        c, low = sla.cho_factor(hess)
        return sla.cho_solve((c, low), score), False
    except np.linalg.LinAlgError:
        pass
    try:
        jittered = hess + JITTER * np.eye(hess.shape[0])
        c, low = sla.cho_factor(jittered)
        return sla.cho_solve((c, low), score), True
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("information matrix is singular") from exc


def newton_maximize(objective, theta0, max_iter, tol, loglik, guard=None):
    """Maximize an objective via damped Newton steps.

    ``objective(theta)`` returns ``(value, score, hessian)`` with the
    hessian given as the positive (observed information) matrix;
    ``loglik(theta)`` evaluates the objective alone (cheaper, used during
    step-halving); ``guard(theta, step_inf)``, when given, is called after
    every accepted step with the step's max-norm and may raise to abort
    divergent iterations.

    Returns ``(theta, value, iterations, converged, hessian_at_theta,
    trace, step_halvings, jitter_retry)`` where ``trace`` lists the
    objective value at the start and after every accepted step,
    ``step_halvings`` counts the rejected (halved) candidate steps and
    ``jitter_retry`` tells whether any step needed the ridge retry.
    """
    theta = np.asarray(theta0, dtype=np.float64).copy()
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values fail the checks below
        value, score, hess = objective(theta)
        trace = [value]
        converged = False
        iterations = 0
        step_halvings = 0
        jitter_retry = False
        for iterations in range(1, max_iter + 1):
            step, jittered = _solve_information(hess, score)
            jitter_retry |= jittered
            scale = 1.0
            for _ in range(MAX_HALVINGS):
                candidate = theta + scale * step
                cand_value = loglik(candidate)
                if np.isfinite(cand_value) and cand_value >= value:
                    break
                step_halvings += 1
                scale *= 0.5
            else:
                # objective cannot be improved along the Newton direction;
                # treat the current point as stationary
                converged = np.abs(score).max() < tol * max(1.0, abs(value))
                break
            theta = theta + scale * step
            value, score, hess = objective(theta)
            trace.append(value)
            step_inf = float(np.abs(scale * step).max())
            if guard is not None:
                guard(theta, step_inf)
            if step_inf < tol:
                converged = True
                break
    return theta, value, iterations, converged, hess, trace, step_halvings, jitter_retry


@dataclass(eq=False, kw_only=True)
class NewtonFit(FitRecord):
    """The solver's side of a Newton-fitted family (logistic, cox)."""

    iterations: int
    converged: bool
    information: np.ndarray  # observed information / n at the optimum
    std_errors: np.ndarray  # sqrt(diag) of the inverse observed information
    loglik_trace: list[float]  # objective at the start and after each accepted step
    step_halvings: int = 0  # rejected Newton candidates over the fit
    jitter_retry: bool = False  # some step needed the ridge retry

    def _solver_block(self) -> dict:
        """The solver's keys of the family's report block."""
        return {"iterations": self.iterations, "converged": self.converged}

    @classmethod
    def _solver_fields(cls, get) -> dict:
        """The fields :meth:`_solver_block` wrote; the information and the trace are not reported."""
        return dict(iterations=get("iterations", {int}), converged=get("converged", {bool}), information=None,
                    loglik_trace=[])


def newton_fields(result: tuple, n: int) -> tuple[np.ndarray, float, dict]:
    """Split a :func:`newton_maximize` result into the estimate, the
    objective at it and the :class:`NewtonFit` fields."""
    theta, value, iterations, converged, hess, trace, halvings, jittered = result
    return theta, value, {
        "iterations": iterations,
        "converged": converged,
        "information": hess / n,
        "std_errors": np.sqrt(np.diag(np.linalg.inv(hess))),
        "loglik_trace": trace,
        "step_halvings": halvings,
        "jitter_retry": jittered,
    }
