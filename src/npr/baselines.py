"""Spillover-model data generators and the two-stage least squares baseline.

The linear-in-means model with q network lags of the response solves
``(I - sum_m rho_m W^m) Y = alpha 1 + sum_s W^s X gamma_s + eps`` (m = 1..q,
s = 0..q).  The first-order model (:class:`LimParams`) writes its covariate
terms as ``X beta + W(X delta)``; the second-order model
(:class:`Lim2Params`) as ``X gamma1 + WX gamma2 + W^2 X gamma3``.  Each params
class supplies only its ``order`` q, its ``rhos``, its covariate terms and
how it reads its coefficients off the 2SLS estimate; one generator,
reduced form, structural predictor and 2SLS fit serve every order.  The
model is solved by fixed-point (Neumann) iteration, which contracts
because W is row-substochastic and the spillover coefficients are
restricted to the stable region.  Closed-form propagation coefficients
of the implied infinite series are provided for both orders, and a
standard spatial 2SLS estimator acts as the fitted competitor in the
simulation studies.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy import sparse

from .design import independent_columns
from .exceptions import ConvergenceError, DegenerateDesignError
from .graph import RowStochasticOperator

NEUMANN_TOL = 1e-10
NEUMANN_MAX_TERMS = 10_000


@dataclass(frozen=True, eq=False)
class LimParams:
    """First-order spillover parameters: one autoregressive scalar plus
    own- and neighbor-covariate coefficient vectors.  Parameters compare
    and hash by identity, as their coefficient arrays cannot."""

    rho: float
    beta: np.ndarray
    delta: np.ndarray
    alpha: float = 0.0
    order: ClassVar[int] = 1

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.float64).ravel())
        object.__setattr__(self, "delta", np.asarray(self.delta, dtype=np.float64).ravel())
        if self.beta.shape != self.delta.shape:
            raise ValueError("beta and delta must have the same length")

    @property
    def rhos(self) -> tuple[float, ...]:
        return (self.rho,)

    def covariate_terms(self, W: RowStochasticOperator, X: np.ndarray) -> list[np.ndarray]:
        """``X beta`` and ``W(X delta)``, in summation order."""
        return [X @ self.beta, W.apply(X @ self.delta)]

    @classmethod
    def _from_2sls(cls, alpha: float, blocks: list[np.ndarray], rhos: list[float]) -> LimParams:
        return cls(alpha=alpha, beta=blocks[0], delta=blocks[1], rho=rhos[0])


@dataclass(frozen=True, eq=False)
class Lim2Params:
    """Second-order spillover parameters with two autoregressive scalars,
    compared and hashed by identity as :class:`LimParams` are."""

    rho1: float
    rho2: float
    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    alpha: float = 0.0
    order: ClassVar[int] = 2

    def __post_init__(self):
        for name in ("gamma1", "gamma2", "gamma3"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64).ravel())
        if not (self.gamma1.shape == self.gamma2.shape == self.gamma3.shape):
            raise ValueError("gamma vectors must share a common length")

    @property
    def rhos(self) -> tuple[float, ...]:
        return (self.rho1, self.rho2)

    def covariate_terms(self, W: RowStochasticOperator, X: np.ndarray) -> list[np.ndarray]:
        """``X gamma1``, ``WX gamma2`` and ``W^2 X gamma3``, in summation order."""
        wx = W.apply(X)
        return [X @ self.gamma1, wx @ self.gamma2, W.apply(wx) @ self.gamma3]

    @classmethod
    def _from_2sls(cls, alpha: float, blocks: list[np.ndarray], rhos: list[float]) -> Lim2Params:
        return cls(alpha=alpha, gamma1=blocks[0], gamma2=blocks[1], gamma3=blocks[2], rho1=rhos[0], rho2=rhos[1])


def _powers(W: RowStochasticOperator, a: np.ndarray, m: int) -> list[np.ndarray]:
    """``[a, Wa, ..., W^m a]``."""
    out = [a]
    for _ in range(m):
        out.append(W.apply(out[-1]))
    return out


def _lag_terms(W: RowStochasticOperator, rhos, y: np.ndarray) -> list[np.ndarray]:
    """``rho_m W^m y`` for m = 1..q."""
    return [rho * wy for rho, wy in zip(rhos, _powers(W, y, len(rhos))[1:])]


def _covariate_sum(W: RowStochasticOperator, X: np.ndarray, params) -> np.ndarray:
    """``alpha + covariate terms``, summed left to right."""
    return functools.reduce(operator.add, params.covariate_terms(W, X), params.alpha)


def _neumann_solve(W: RowStochasticOperator, rhos, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - sum_m rho_m W^m) y = rhs`` by iterating ``y <- rhs + A y``
    with ``A y = sum_m rho_m W^m y``.

    Converges geometrically whenever the autoregressive part is a
    contraction; errors out otherwise.
    """
    y = rhs.copy()
    for _ in range(NEUMANN_MAX_TERMS):
        ay = functools.reduce(operator.add, _lag_terms(W, rhos, y))
        resid = np.abs(y - ay - rhs).max()
        if resid < NEUMANN_TOL:
            return y
        y = rhs + ay
    raise ConvergenceError(
        f"autoregressive solve did not reach {NEUMANN_TOL} in {NEUMANN_MAX_TERMS} terms"
    )


def gen_lim(W: RowStochasticOperator, X: np.ndarray, params: LimParams | Lim2Params, sigma: float,
            seed=None) -> np.ndarray:
    """Draw a response vector from the spillover model of the parameters' order.

    Requires ``sum_m |rho_m| < 1`` so the series converges for the
    row-normalized operator.  With ``sigma == 0`` the output is the
    deterministic solution.
    """
    if sum(abs(rho) for rho in params.rhos) >= 1.0:
        raise ValueError(f"sum of |rho_m| over {params.rhos} must be < 1 for a stable model")
    X = np.asarray(X, dtype=np.float64)
    n = W.n_nodes
    if X.shape[0] != n:
        raise ValueError("X row count must match the operator")
    rng = np.random.default_rng(seed)
    eps = sigma * rng.standard_normal(n) if sigma else np.zeros(n)
    return _neumann_solve(W, params.rhos, _covariate_sum(W, X, params) + eps)


gen_lim2 = gen_lim


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
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
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


def _fit_2sls(cls, W: RowStochasticOperator, X: np.ndarray, y: np.ndarray, rows):
    """2SLS estimate of the model of ``cls.order`` q: regressors
    ``(1, X, ..., W^q X, Wy, ..., W^q y)`` instrumented by
    ``(1, X, ..., W^(q+1) X)``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n, d = X.shape
    if y.shape[0] != n:
        raise ValueError("response length must match X rows")
    q = cls.order
    ones = np.ones(n)
    xs = _powers(W, X, q + 1)
    Z = np.column_stack([ones, *xs[:-1], *_powers(W, y, q)[1:]])
    H = np.column_stack([ones, *xs])
    theta = _two_stage_ls(Z, H, y, rows)
    blocks = [theta[1 + s * d:1 + (s + 1) * d] for s in range(q + 1)]
    return cls._from_2sls(float(theta[0]), blocks, [float(rho) for rho in theta[-q:]])


def fit_lim_2sls(W: RowStochasticOperator, X: np.ndarray, y: np.ndarray, rows=None) -> LimParams:
    """Instrumental-variable estimate of the first-order spillover model.

    The endogenous network lag of the response is instrumented by
    ``(1, X, WX, W^2 X)``, the canonical spatial 2SLS instrument set.
    Network lags always use the full graph; when ``rows`` is given only
    those rows enter the estimation.
    """
    return _fit_2sls(LimParams, W, X, y, rows)


def fit_lim2_2sls(W: RowStochasticOperator, X: np.ndarray, y: np.ndarray, rows=None) -> Lim2Params:
    """Second-order analog of :func:`fit_lim_2sls` with two network lags of
    the response, instrumented by covariates propagated up to three steps."""
    return _fit_2sls(Lim2Params, W, X, y, rows)


def _ar_solve_general(W: RowStochasticOperator, rhos, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I - sum_m rho_m W^m) y = rhs`` for arbitrary coefficients.

    Uses the fixed-point iteration inside the contraction region and falls
    back to a direct sparse solve otherwise (fitted coefficients from a
    misspecified model may leave the stable region).
    """
    if sum(abs(r) for r in rhos) < 0.999:
        return _neumann_solve(W, rhos, rhs)
    A = sparse.identity(W.n_nodes, format="csr")
    power = sparse.identity(W.n_nodes, format="csr")
    for r in rhos:
        power = power @ W.csr
        A = A - r * power
    from scipy.sparse import linalg as spla  # loaded only on this fallback

    return spla.spsolve(A.tocsc(), rhs)


def lim_reduced_form(W: RowStochasticOperator, X: np.ndarray, params: LimParams | Lim2Params) -> np.ndarray:
    """Expected response surface implied by the parameters:
    ``(I - sum_m rho_m W^m)^-1 (alpha 1 + covariate terms)``."""
    X = np.asarray(X, dtype=np.float64)
    return _ar_solve_general(W, params.rhos, _covariate_sum(W, X, params))


def lim_structural(W: RowStochasticOperator, X: np.ndarray, y_obs: np.ndarray,
                   params: LimParams | Lim2Params) -> np.ndarray:
    """One-step fitted values using the observed network lags of the
    response: ``alpha + sum_m rho_m W^m y_obs + covariate terms``."""
    X = np.asarray(X, dtype=np.float64)
    terms = _lag_terms(W, params.rhos, np.asarray(y_obs, dtype=np.float64)) + params.covariate_terms(W, X)
    return functools.reduce(operator.add, terms, params.alpha)


lim2_reduced_form = lim_reduced_form
lim2_structural = lim_structural
