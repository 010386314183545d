"""Network Cox proportional-hazards model on propagated covariates.

Maximum partial likelihood with Breslow handling of tied event times.  The
risk-set sums are accumulated in a single pass over the observations sorted
by descending time (subjects sharing a time enter the risk set together, so
censored subjects at an event time remain at risk for it).  The sort costs
O(N log N) once; each evaluation then makes O(N d) passes for the score and
one O(N d^2) product for the information, and only the tie groups of two or
more rows go through ``np.add.reduceat`` (a singleton group's sum is its
row).  The partial likelihood depends on the times only through their ranks.

Memory layout decides the last bits of a BLAS product, so each product
keeps one layout.  The engine holds one sorted, C-ordered copy of the
selected columns, for ``X @ beta``, the event-row sums and the information
product ``(X * w c)' X``.  It is gathered from the design's matrix in one
step, sorted rows and selected columns together, so a fit holds no other
copy of its columns.  One C-ordered n-by-d workspace per fit holds
``w X`` and its running sums down each column, then ``X * w c``, whose
first rows then hold ``u * d``; that product needs its own buffer, since
on the buffer of ``u`` itself numpy computes ``(u d)' u`` with a
symmetric rank-k update instead of a general product, and the bits
differ.  The risk-set means ``u`` are a C-ordered gather.  An F-ordered
copy would make each running sum one contiguous pass, but writing it
costs more than the sums save, and holding it costs an n-by-d array.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .design import DEFAULT_SELECT_TOL, PropagatedDesign, finite_prediction, fit_inputs
from .exceptions import InputValueError
from ._newton import MAX_ITER, NewtonFit, newton_fields, newton_maximize


@dataclass(eq=False)
class SurvivalData:
    """Right-censored observation times with event indicators."""

    time: np.ndarray
    event: np.ndarray

    def __post_init__(self):
        time = np.asarray(self.time, dtype=np.float64).ravel()
        event = np.asarray(self.event).ravel()
        if time.shape != event.shape:
            raise InputValueError("time and event must have the same length", "time", "event")
        if np.any(time <= 0) or not np.all(np.isfinite(time)):
            raise InputValueError("observed times must be positive and finite", "time")
        if not np.all((event == 0) | (event == 1)):
            raise InputValueError("event indicators must be 0/1", "event")
        if event.sum() == 0:
            raise InputValueError("at least one event is required", "event")
        self.time = time
        self.event = event.astype(np.int64)

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def n_events(self) -> int:
        return int(self.event.sum())


@dataclass(eq=False, kw_only=True)
class CoxFit(NewtonFit):
    """Maximum partial likelihood estimate over selected columns."""

    family = "cox"
    lambda_hat: np.ndarray
    partial_loglik: float
    n_events: int

    def _report_block(self) -> tuple:
        return self.lambda_hat, self.std_errors, dict(
            partial_loglik=self.partial_loglik, n_events=self.n_events, **self._solver_block())

    @classmethod
    def _from_report_block(cls, get, estimates, std_errors) -> dict:
        return dict(lambda_hat=estimates, partial_loglik=get("partial_loglik"), n_events=get("n_events", int),
                    std_errors=std_errors, **cls._solver_fields(get))


class _RiskSetEngine:
    """Precomputed ordering and tie groups for fast Breslow evaluation on
    the columns ``columns`` of the matrix ``M``."""

    def __init__(self, M: np.ndarray, columns: Sequence[int], time: np.ndarray, event: np.ndarray):
        # descending time so the risk set of each event time is a prefix;
        # the sorted, C-ordered copy of the columns is gathered from M in
        # one step, so no unsorted copy is ever held beside it
        order = np.argsort(-time, kind="stable")
        self.X = M[np.ix_(order, columns)]
        self.event = event[order].astype(bool)
        t_sorted = time[order]
        # group boundaries for tied times: starts[g]..ends[g]-1 share a time
        change = np.flatnonzero(np.diff(t_sorted) != 0.0) + 1
        self.starts = np.concatenate([[0], change])
        self.ends = np.concatenate([change, [t_sorted.size]])
        # groups of two or more rows, and the reduceat bounds that sum
        # exactly their rows: start, end of each, without a final end == n
        self.tied = np.flatnonzero(self.ends - self.starts > 1)
        bounds = np.column_stack([self.starts[self.tied], self.ends[self.tied]]).ravel()
        self.tied_bounds = bounds[:-1] if bounds.size and bounds[-1] == t_sorted.size else bounds
        # events per tie group
        self.d_group = self.group_sums(self.event.astype(np.float64))
        self.event_groups = np.flatnonzero(self.d_group > 0)
        with np.errstate(over="ignore"):  # an overflow fails the Newton loop's finiteness check
            self.event_x_sum = self.X[self.event].sum(axis=0)
        self.n, self.p = self.X.shape
        # the n-by-p workspace of every evaluation; its pages are touched
        # on the first write, by the first evaluation
        self.work = np.empty(self.n * self.p)

    def group_sums(self, a: np.ndarray) -> np.ndarray:
        """Per-tie-group sums of the rows of ``a``.

        Bitwise equal to ``np.add.reduceat(a, self.starts, axis=0)``, which
        pays a fixed cost per segment: here singleton groups are copied, and
        only the tied groups are reduced, each over the same rows as there.
        When every group is a singleton the sums are the rows, and ``a``
        itself is returned.
        """
        if not self.tied.size:
            return a
        out = a[self.starts]
        out[self.tied] = np.add.reduceat(a, self.tied_bounds, axis=0)[::2]
        return out

    def loglik(self, beta: np.ndarray) -> float:
        eta = self.X @ beta
        shift = eta.max() if eta.size else 0.0
        w = np.exp(eta - shift)
        s0 = np.cumsum(self.group_sums(w))  # prefix-inclusive per group
        ll = float(eta[self.event] .sum())
        ll -= float(self.d_group[self.event_groups] @ (np.log(s0[self.event_groups]) + shift))
        return ll

    def loglik_score_info(self, beta: np.ndarray):
        X, n, p = self.X, self.n, self.p
        eta = X @ beta
        shift = eta.max()
        w = np.exp(eta - shift)
        s0 = np.cumsum(self.group_sums(w))
        s1 = self.work.reshape(n, p)
        np.multiply(X, w[:, None], out=s1)
        s1 = self.group_sums(s1)
        np.add.accumulate(s1, axis=0, out=s1)

        eg = self.event_groups
        d = self.d_group[eg]
        s0_e = s0[eg]
        u = s1[eg]  # no longer in the workspace
        u /= s0_e[:, None]  # risk-set mean covariate per event group

        ll = float(eta[self.event].sum() - d @ (np.log(s0_e) + shift))
        score = self.event_x_sum - d @ u

        # sum over event groups of d * S2/S0 equals X' diag(w * c) X where
        # c_i aggregates d/S0 over all event groups whose risk set holds row i
        ratio = np.zeros(s0.shape[0])
        ratio[eg] = d / s0_e
        c_group = np.cumsum(ratio[::-1])[::-1]
        c_row = np.repeat(c_group, self.ends - self.starts)
        wcX = self.work.reshape(n, p)
        np.multiply(X, (w * c_row)[:, None], out=wcX)
        xwx = wcX.T @ X
        ud = wcX[: eg.size]
        np.multiply(u, d[:, None], out=ud)
        info = xwx - ud.T @ u
        return ll, score, info


def fit_cox(design: PropagatedDesign, surv: SurvivalData, tol: float = DEFAULT_SELECT_TOL) -> CoxFit:
    """Newton maximization of the Breslow partial likelihood.

    The design must be uncentered and forward-selected, with no intercept
    (any multiplicative constant is absorbed by the baseline hazard).
    Convergence and step-halving behave exactly as in the logistic fitter.
    """
    columns = fit_inputs(design, "cox", centered=False)
    if surv.n != design.n_rows:
        raise InputValueError(f"survival data has {surv.n} rows, design has {design.n_rows}",
                              "time", "event", "covariates")

    engine = _RiskSetEngine(design.matrix, design.selected, surv.time, surv.event)

    result = newton_maximize(
        engine.loglik_score_info,
        np.zeros(engine.p),
        max_iter=MAX_ITER,
        tol=tol,
        loglik=engine.loglik,
    )
    beta, ll, newton = newton_fields(result, surv.n)
    return CoxFit(lambda_hat=beta, partial_loglik=ll, n_events=surv.n_events, **newton, **columns)


def predict_relative_risk(fit: CoxFit, design_new: PropagatedDesign) -> np.ndarray:
    """Hazard ratios ``exp(x'lambda_hat)`` for new rows."""
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite predictor or ratio is refused
        return finite_prediction(np.exp(finite_prediction(fit.gather(design_new) @ fit.lambda_hat)))


def simulate_cox_data(
    design: PropagatedDesign,
    lambda_true: np.ndarray,
    baseline_rate: float,
    censor_rate: float,
    seed,
) -> SurvivalData:
    """Draw right-censored survival data consistent with the model.

    Event times are exponential with rate ``baseline_rate * exp(x'lambda)``
    (a constant baseline hazard); censoring times are independent
    exponential with rate ``censor_rate``.  Uses the selected columns when
    a selection is set, otherwise all columns.
    """
    if baseline_rate <= 0 or censor_rate <= 0:
        raise ValueError("rates must be positive")
    rng = np.random.default_rng(seed)
    M = design.selected_matrix() if design.selected is not None else design.full_matrix()
    lambda_true = np.asarray(lambda_true, dtype=np.float64).ravel()
    if lambda_true.shape[0] != M.shape[1]:
        raise ValueError(
            f"lambda_true has {lambda_true.shape[0]} entries for {M.shape[1]} columns"
        )
    rates = baseline_rate * np.exp(M @ lambda_true)
    t_event = rng.exponential(1.0 / rates)
    t_censor = rng.exponential(1.0 / censor_rate, size=M.shape[0])
    time = np.minimum(t_event, t_censor)
    event = (t_event <= t_censor).astype(np.int64)
    return SurvivalData(time=time, event=event)
