"""Spillover-model data generators and the two-stage least squares baseline.

The first-order model solves ``(I - rho W) Y = alpha 1 + X beta + WX delta + eps``
and the second-order variant adds a ``W^2`` autoregressive term.  Both are
solved by fixed-point (Neumann) iteration, which contracts because W is
row-substochastic and the spillover coefficients are restricted to the
stable region.  Closed-form propagation coefficients of the implied
infinite series are provided for both models, and a standard spatial 2SLS
estimator acts as the fitted competitor in the simulation studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as spla

from .design import independent_columns
from .exceptions import ConvergenceError, DegenerateDesignError
from .graph import RowStochasticOperator, _as_rng

NEUMANN_TOL = 1e-10
NEUMANN_MAX_TERMS = 10_000


@dataclass(frozen=True)
class LimParams:
    """First-order spillover parameters: one autoregressive scalar plus
    own- and neighbor-covariate coefficient vectors."""

    rho: float
    beta: np.ndarray
    delta: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64).ravel())
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64).ravel())
        if self.beta.shape != self.delta.shape:
            raise ValueError("beta and delta must have the same length")


@dataclass(frozen=True)
class Lim2Params:
    """Second-order spillover parameters with two autoregressive scalars."""

    rho1: float
    rho2: float
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel())
        if not (self.gamma1.shape == self.gamma2.shape == self.gamma3.shape):
            raise ValueError("gamma vectors must share a common length")


def _neumann_solve(apply_ar, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - A) y = rhs`` by iterating ``y <- rhs + A y``.

    ``apply_ar(y)`` evaluates ``A y``.  Converges geometrically whenever
    the autoregressive part is a contraction; errors out otherwise.
    """
    y = rhs.copy()
    for _ in range(NEUMANN_MAX_TERMS):
        ay = apply_ar(y)
        resid = np.abs(y - ay - rhs).max()
        if resid < NEUMANN_TOL:
            return y
        y = rhs + ay
    raise ConvergenceError(
        f"autoregressive solve did not reach {NEUMANN_TOL} in {NEUMANN_MAX_TERMS} terms"
    )


def gen_lim(W: RowStochasticOperator, X: np.ndarray, params: LimParams, sigma: float, seed=None) -> np.ndarray:
    """Draw a response vector from the first-order spillover model.

    Requires ``|rho| < 1`` so the series converges for the row-normalized
    operator.  With ``sigma == 0`` the output is the deterministic solution.
    """
    if abs(params.rho) >= 1.0:
        raise ValueError("|rho| must be < 1 for a stable first-order model")
    X = np.asarray(X, dtype=np.float64)
    n = W.n_nodes
    if X.shape[0] != n:
        raise ValueError("X row count must match the operator")
    rng = _as_rng(seed)
    eps = sigma * rng.standard_normal(n) if sigma else np.zeros(n)
    rhs = params.alpha + X @ params.beta + W.apply(X @ params.delta) + eps
    return _neumann_solve(lambda y: params.rho * W.apply(y), rhs)


def gen_lim2(W: RowStochasticOperator, X: np.ndarray, params: Lim2Params, sigma: float, seed=None) -> np.ndarray:
    """Draw a response from the second-order spillover model
    (stable region ``|rho1| + |rho2| < 1``)."""
    if abs(params.rho1) + abs(params.rho2) >= 1.0:
        raise ValueError("|rho1| + |rho2| must be < 1 for a stable second-order model")
    X = np.asarray(X, dtype=np.float64)
    n = W.n_nodes
    if X.shape[0] != n:
        raise ValueError("X row count must match the operator")
    rng = _as_rng(seed)
    eps = sigma * rng.standard_normal(n) if sigma else np.zeros(n)
    wx = W.apply(X)
    rhs = params.alpha + X @ params.gamma1 + wx @ params.gamma2 + W.apply(wx) @ params.gamma3 + eps

    def apply_ar(y):
        wy = W.apply(y)
        return params.rho1 * wy + params.rho2 * W.apply(wy)

    return _neumann_solve(apply_ar, rhs)


def lambda_series_lim(params: LimParams, k: int) -> np.ndarray:
    """Propagation coefficient of order k implied by the first-order model:
    ``beta`` at k = 0 and ``rho^(k-1) (rho beta + delta)`` beyond."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return params.beta.copy()
    return params.rho ** (k - 1) * (params.rho * params.beta + params.delta)


def _ar2_weight(rho1: float, rho2: float, m: int) -> float:
    """Scalar weight of ``W^m`` in the expansion of ``(I - rho1 W - rho2 W^2)^-1``.

    Closed form: sum over h of C(h, m-h) rho1^(2h-m) rho2^(m-h); equals the
    linear recurrence c_m = rho1 c_{m-1} + rho2 c_{m-2} with c_0 = 1.
    """
    if m < 0:
        return 0.0
    return float(
        sum(
            math.comb(h, m - h) * rho1 ** (2 * h - m) * rho2 ** (m - h)
            for h in range((m + 1) // 2, m + 1)
        )
    )


def lambda_series_lim2(params: Lim2Params, k: int) -> np.ndarray:
    """Propagation coefficient of order k implied by the second-order model."""
    if k < 0:
        raise ValueError("k must be non-negative")
    c = [_ar2_weight(params.rho1, params.rho2, k - s) for s in range(3)]
    return c[0] * params.gamma1 + c[1] * params.gamma2 + c[2] * params.gamma3


def gen_npr(W: RowStochasticOperator, X: np.ndarray, lambdas, sigma: float, seed=None) -> np.ndarray:
    """Draw ``Y = sum_k W^k X lambda_k + eps`` for an explicit coefficient list."""
    from .graph import propagate

    X = np.asarray(X, dtype=np.float64)
    lambdas = [np.asarray(l, dtype=np.float64).ravel() for l in lambdas]
    if not lambdas:
        raise ValueError("need at least one coefficient vector")
    for l in lambdas:
        if l.shape[0] != X.shape[1]:
            raise ValueError("each coefficient vector must match the covariate dimension")
    rng = _as_rng(seed)
    M = propagate(W, X, len(lambdas) - 1)
    d = X.shape[1]
    y = np.zeros(W.n_nodes)
    for k, lam in enumerate(lambdas):
        y += M[:, k * d : (k + 1) * d] @ lam
    if sigma:
        y = y + sigma * rng.standard_normal(W.n_nodes)
    return y


def gen_cohesion(block_labels, X, etas, mu_var: float, beta, sigma: float, seed=None):
    """Draw a response with community-level node effects.

    Node i receives an effect ``mu_i ~ N(etas[label_i], mu_var)`` added to
    the linear predictor.  Returns ``(y, mu)`` so oracle predictions can
    reuse the realized node effects.
    """
    labels = np.asarray(block_labels, dtype=np.int64).ravel()
    X = np.asarray(X, dtype=np.float64)
    etas = np.asarray(etas, dtype=np.float64).ravel()
    beta = np.asarray(beta, dtype=np.float64).ravel()
    if labels.min() < 0 or labels.max() >= etas.size:
        raise ValueError("labels must index into etas")
    if mu_var < 0:
        raise ValueError("mu_var must be non-negative")
    rng = _as_rng(seed)
    mu = etas[labels] + math.sqrt(mu_var) * rng.standard_normal(labels.size)
    y = mu + X @ beta + (sigma * rng.standard_normal(labels.size) if sigma else 0.0)
    return y, mu


def _two_stage_ls(Z: np.ndarray, H: np.ndarray, y: np.ndarray, rows=None) -> np.ndarray:
    """2SLS estimate for regressors Z instrumented by H, estimated on
    ``rows`` only when given."""
    if rows is not None:
        Z, H, y = Z[rows], H[rows], y[rows]
    keep = independent_columns(H, tol=1e-10)
    if len(keep) < Z.shape[1]:
        raise DegenerateDesignError(
            f"instrument matrix rank {len(keep)} < {Z.shape[1]} regressors"
        )
    Hk = H[:, keep]
    first_stage, _, rank, _ = np.linalg.lstsq(Hk, Z, rcond=None)
    Zhat = Hk @ first_stage
    theta, _, rank2, _ = np.linalg.lstsq(Zhat, y, rcond=None)
    if rank2 < Z.shape[1]:
        raise DegenerateDesignError("projected regressors are rank deficient")
    return theta


def fit_lim_2sls(W: RowStochasticOperator, X: np.ndarray, y: np.ndarray, rows=None) -> LimParams:
    """Instrumental-variable estimate of the first-order spillover model.

    The endogenous network lag of the response is instrumented by
    ``(1, X, WX, W^2 X)``, the canonical spatial 2SLS instrument set.
    Network lags always use the full graph; when ``rows`` is given only
    those rows enter the estimation.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    if y.shape[0] != n:
        raise ValueError("response length must match X rows")
    ones = np.ones(n)
    wx = W.apply(X)
    wy = W.apply(y)
    Z = np.column_stack([ones, X, wx, wy])
    H = np.column_stack([ones, X, wx, W.apply(wx)])
    theta = _two_stage_ls(Z, H, y, rows)
    return LimParams(
        alpha=float(theta[0]),
        beta=theta[1:1 + d],
        delta=theta[1 + d:1 + 2 * d],
        rho=float(theta[-1]),
    )


def fit_lim2_2sls(W: RowStochasticOperator, X: np.ndarray, y: np.ndarray, rows=None) -> Lim2Params:
    """Second-order analog of :func:`fit_lim_2sls` with two network lags of
    the response, instrumented by covariates propagated up to three steps."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    if y.shape[0] != n:
        raise ValueError("response length must match X rows")
    ones = np.ones(n)
    wx = W.apply(X)
    w2x = W.apply(wx)
    wy = W.apply(y)
    w2y = W.apply(wy)
    Z = np.column_stack([ones, X, wx, w2x, wy, w2y])
    H = np.column_stack([ones, X, wx, w2x, W.apply(w2x)])
    theta = _two_stage_ls(Z, H, y, rows)
    return Lim2Params(
        alpha=float(theta[0]),
        gamma1=theta[1:1 + d],
        gamma2=theta[1 + d:1 + 2 * d],
        gamma3=theta[1 + 2 * d:1 + 3 * d],
        rho1=float(theta[-2]),
        rho2=float(theta[-1]),
    )


def _ar_solve_general(W: RowStochasticOperator, rhos: list[float], rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - sum_m rhos[m] W^(m+1)) y = rhs`` for arbitrary coefficients.

    Uses the fixed-point iteration inside the contraction region and falls
    back to a direct sparse solve otherwise (fitted coefficients from a
    misspecified model may leave the stable region).
    """
    if sum(abs(r) for r in rhos) < 0.999:
        def apply_ar(y):
            acc = np.zeros_like(y)
            wy = y
            for r in rhos:
                wy = W.apply(wy)
                acc += r * wy
            return acc

        return _neumann_solve(apply_ar, rhs)
    A = sparse.identity(W.n_nodes, format="csr")
    power = sparse.identity(W.n_nodes, format="csr")
    for r in rhos:
        power = power @ W.csr
        A = A - r * power
    return spla.spsolve(A.tocsc(), rhs)


def lim_reduced_form(W: RowStochasticOperator, X: np.ndarray, params: LimParams) -> np.ndarray:
    """Expected response surface implied by first-order parameters:
    ``(I - rho W)^-1 (alpha 1 + X beta + WX delta)``."""
    X = np.asarray(X, dtype=np.float64)
    rhs = params.alpha + X @ params.beta + W.apply(X @ params.delta)
    return _ar_solve_general(W, [params.rho], rhs)


def lim_structural(W: RowStochasticOperator, X: np.ndarray, y_obs: np.ndarray, params: LimParams) -> np.ndarray:
    """One-step fitted values using the observed network lag of the response."""
    X = np.asarray(X, dtype=np.float64)
    return params.alpha + params.rho * W.apply(np.asarray(y_obs, dtype=np.float64)) + X @ params.beta + W.apply(X @ params.delta)


def lim2_reduced_form(W: RowStochasticOperator, X: np.ndarray, params: Lim2Params) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    wx = W.apply(X)
    rhs = params.alpha + X @ params.gamma1 + wx @ params.gamma2 + W.apply(wx) @ params.gamma3
    return _ar_solve_general(W, [params.rho1, params.rho2], rhs)


def lim2_structural(W: RowStochasticOperator, X: np.ndarray, y_obs: np.ndarray, params: Lim2Params) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    y_obs = np.asarray(y_obs, dtype=np.float64)
    wx = W.apply(X)
    wy = W.apply(y_obs)
    return (
        params.alpha
        + params.rho1 * wy
        + params.rho2 * W.apply(wy)
        + X @ params.gamma1
        + wx @ params.gamma2
        + W.apply(wx) @ params.gamma3
    )
