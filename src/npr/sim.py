"""Scenario runner for the desk-scale simulation studies.

Prediction studies compare the propagation regression against a fitted
competitor (or the generating oracle) through RMSE ratios in four
scenarios: in-sample against the oracle (kappa1), in-sample against the
fitted competitor (kappa2), out-of-sample on held-out rows of the same
network (kappa3), and out-of-sample on an independently generated network
of the same size as the test split (kappa4).  Ratios below one favor the
propagation model.

Testing studies generate data with known nonzero propagation orders, run
the sequential Wald tests and report empirical power (EP), per-test type-I
error (ES), Holm all-rejections power (MP), family-wise error rate (FWER)
and confidence-interval coverage (CP).

Every replicate draws from its own child of the master seed, so results
are independent of execution order and identical under serial or parallel
execution; the ``NPR_THREADS`` environment variable caps worker processes.
Each replicate runs with numpy's OpenBLAS on one thread, serially and in a
worker alike (see ``_blas``).
"""

from __future__ import annotations

import dataclasses
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines
from ._blas import all_one_thread
from .baselines import Lim2Params, LimParams, fit_lim2_2sls, fit_lim_2sls, gen_cohesion, gen_lim, gen_npr
from .design import build_design, center, forward_select, DEFAULT_SELECT_TOL
from .gaussian import Z_95, fit_ols, order_test, predict
from .graph import DirectedGraph, gen_erdos_renyi, gen_powerlaw, gen_sbm, row_normalize

# scenario constants: spillover strengths, coefficient draw ranges and the
# community-effect profile used by the four generating mechanisms
SPILLOVER_RHO = 0.25
SPILLOVER_RHO1 = 0.25
SPILLOVER_RHO2 = 0.05
COEF_RANGE = (0.5, 5.0)          # settings 1-2 coefficient draws
PROPAGATION_COEF_RANGE = (0.0, 5.0)  # setting 3, orders 0..5
PROPAGATION_TRUE_ORDERS = 6      # setting 3: coefficients vanish at order >= 6
COHESION_ETAS = (-2.5, 0.0, 2.5)
COHESION_MU_VAR = 0.25
NOISE_SIGMA = 1.0

# the studies' fixed design: d covariates, propagated to order K
STUDY_D = 10
STUDY_K = 8

# testing study: five sequential hypotheses at level 0.05, coefficients
# uniform on +-0.25 scaled by 1/sqrt(2)
TEST_K_MAX = 4
TEST_XI = 0.05
TEST_COEF_HALF_WIDTH = 0.25
TEST_COEF_SCALE = 1.0 / math.sqrt(2.0)

_DEFAULT_COMPETITOR = {1: "lim", 2: "lim2", 3: "lim", 4: "oracle"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration for one simulation study cell.  Every cell fits the
    fixed design of ``STUDY_D`` covariates to order ``STUDY_K``, selected
    at ``DEFAULT_SELECT_TOL``."""

    case: int
    setting: int
    n: int
    reps: int = 100
    seed: int | None = None
    train_frac: float = 0.8
    competitor: str | None = None  # lim | lim2 | oracle | self

    def __post_init__(self):
        if self.case not in (1, 2, 3):
            raise ValueError("case must be 1, 2 or 3")
        if self.setting not in (1, 2, 3, 4):
            raise ValueError("setting must be in 1..4")
        if self.setting == 4 and self.case != 2:
            raise ValueError("setting 4 (community effects) requires case 2")
        if self.n < 10:
            raise ValueError("n must be at least 10")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 < self.train_frac < 1.0:
            raise ValueError("train_frac must lie strictly between 0 and 1")
        if self.competitor is not None and self.competitor not in ("lim", "lim2", "oracle", "self"):
            raise ValueError(f"unknown competitor {self.competitor!r}")
        if self.competitor == "oracle" and self.setting != 4:
            raise ValueError(f"competitor 'oracle' needs setting 4 (community effects), not setting {self.setting}")

    def resolved_competitor(self) -> str:
        return self.competitor or _DEFAULT_COMPETITOR[self.setting]

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "d": STUDY_D, "k_fit": STUDY_K, "select_tol": DEFAULT_SELECT_TOL,
                "competitor": self.resolved_competitor()}


@dataclass(eq=False)
class ScenarioReport:
    """Aggregated study results plus the per-replicate rows behind them."""

    kind: str  # "prediction" | "testing"
    config: dict
    reps: int
    metrics: dict
    replicates: list[dict] = field(repr=False, default_factory=list)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "config": self.config, "reps": self.reps, "metrics": self.metrics}


def covariates_for_case(case: int, n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Correlated Gaussian covariates for the three network cases.

    Cases 1-2 use the banded correlation 0.5^|j1-j2|; case 3 uses constant
    correlation 0.5 among the first d-1 covariates with the last covariate
    correlated sqrt(0.5) with every other.
    """
    if case in (1, 2):
        idx = np.arange(d)
        cov = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    else:
        cov = np.full((d, d), 0.5)
        cov[:, -1] = math.sqrt(0.5)
        cov[-1, :] = math.sqrt(0.5)
        np.fill_diagonal(cov, 1.0)
    L = np.linalg.cholesky(cov)
    return rng.standard_normal((n, d)) @ L.T


def graph_for_case(case: int, n: int, rng: np.random.Generator):
    """Random graph for a case; returns ``(graph, labels_or_None)``."""
    if case == 1:
        return gen_erdos_renyi(n, rng), None
    if case == 2:
        return gen_sbm(n, rng)
    return gen_powerlaw(n, rng), None


def draw_setting_params(setting: int, d: int, rng: np.random.Generator):
    """Draw the generating parameters for one replicate of a setting."""
    lo, hi = COEF_RANGE
    if setting == 1:
        return LimParams(rho=SPILLOVER_RHO, beta=rng.uniform(lo, hi, d), delta=rng.uniform(lo, hi, d))
    if setting == 2:
        return Lim2Params(
            rho1=SPILLOVER_RHO1,
            rho2=SPILLOVER_RHO2,
            gamma1=rng.uniform(lo, hi, d),
            gamma2=rng.uniform(lo, hi, d),
            gamma3=rng.uniform(lo, hi, d),
        )
    if setting == 3:
        plo, phi = PROPAGATION_COEF_RANGE
        return [rng.uniform(plo, phi, d) for _ in range(PROPAGATION_TRUE_ORDERS)]
    return {"beta": rng.normal(1.0, 1.0, d)}


def generate_response(setting: int, W, X, params, rng: np.random.Generator, labels=None):
    """Response draw for one replicate; returns ``(y, aux)`` where aux
    carries the realized node effects for the community-effect setting."""
    if setting == 3:
        return gen_npr(W, X, params, NOISE_SIGMA, rng), {}
    if setting == 4:
        y, mu = gen_cohesion(labels, X, COHESION_ETAS, COHESION_MU_VAR, params["beta"], NOISE_SIGMA, rng)
        return y, {"mu": mu}
    return gen_lim(W, X, params, NOISE_SIGMA, rng), {}


def _network(cfg: ScenarioConfig, rng: np.random.Generator):
    """One replicate's network: ``(graph, labels_or_None, W, X)``, the case's
    graph, its row normalization and fresh covariates, drawn in that order."""
    graph, labels = graph_for_case(cfg.case, cfg.n, rng)
    return graph, labels, row_normalize(graph), covariates_for_case(cfg.case, cfg.n, STUDY_D, rng)


def train_rows(n: int, frac: float) -> int:
    """``round(frac * n)``, the training rows of a split of ``n`` rows; a
    split that leaves either side empty raises ``ValueError``."""
    n_train = int(round(frac * n))
    if n_train < 1 or n_train >= n:
        raise ValueError(f"degenerate split sizes: {n_train} of {n} rows to train on, {n - n_train} held out")
    return n_train


def row_splits(n: int, frac: float, rng: np.random.Generator, count: int):
    """``count`` random (train, test) splits of the rows ``0..n-1``.

    Each split holds ``train_rows(n, frac)`` training rows, takes one
    ``rng.permutation(n)`` when it is drawn, and returns both row sets
    sorted.  Degenerate sizes raise before any draw.
    """
    n_train = train_rows(n, frac)
    perms = (rng.permutation(n) for _ in range(count))
    return ((np.sort(perm[:n_train]), np.sort(perm[n_train:])) for perm in perms)


def split_scenarios(graph: DirectedGraph, frac: float, mode: str, seed, case: int | None = None):
    """Random row split, optionally with an isolated replacement network.

    ``linked`` mode returns ``(train_rows, test_rows, None)`` on the given
    graph; ``isolated`` mode instead generates an independent network of
    the same size via the given case mechanism (so the propagated feature
    distribution matches the original) and the returned test rows index
    into that fresh network, which shares no nodes with the training data.
    """
    if mode not in ("linked", "isolated"):
        raise ValueError("mode must be 'linked' or 'isolated'")
    if not 0.0 < frac < 1.0:
        raise ValueError("degenerate split: frac must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n = graph.n_nodes
    train, test = next(row_splits(n, frac, rng, 1))
    if mode == "linked":
        return train, test, None
    if case is None:
        raise ValueError("isolated mode needs the case to generate the test network")
    test_graph, _ = graph_for_case(case, n, rng)
    return train, test, test_graph


def _rmse(y, pred) -> float:
    err = np.asarray(y, dtype=np.float64) - np.asarray(pred, dtype=np.float64)
    return float(np.sqrt(np.mean(err ** 2)))


def _npr_fit(design, y):
    """Center, select and fit a raw design: the studies' propagation regression."""
    design = center(design)  # rebinding frees a caller's row subset before selection
    return fit_ols(forward_select(design), y)


def _cohesion_mean(X, params, aux):
    """Setting 4's response less its noise: the realized node effects plus ``X beta``."""
    return aux["mu"] + X @ params["beta"]


def _oracle_structural(setting, W, X, y, params, aux):
    """In-sample predictions with the true generating parameters."""
    if setting == 3:
        return gen_npr(W, X, params, sigma=0.0)
    if setting == 4:
        return _cohesion_mean(X, params, aux)
    return baselines.lim_structural(W, X, y, params)


def _competitor_fit(name, W, X, y, rows):
    fit = {"lim": fit_lim_2sls, "lim2": fit_lim2_2sls}[name]
    return fit(W, X, y, rows=rows)


def _competitor(name, W, X, y, params, aux, train):
    """The competitor's in-sample fitted values, and its out-of-sample
    predictor ``(W, X, aux) -> predictions`` for every node of a network.

    The oracle knows setting 4's node effects; a linear-in-means
    competitor fits by 2SLS on all rows (structural fitted values) and on
    the training rows (reduced-form predictions).
    """
    if name == "oracle":
        return _cohesion_mean(X, params, aux), lambda W, X, aux: _cohesion_mean(X, params, aux)
    fitted = baselines.lim_structural(W, X, y, _competitor_fit(name, W, X, y, rows=None))
    trained = _competitor_fit(name, W, X, y, rows=train)
    return fitted, lambda W, X, aux: baselines.lim_reduced_form(W, X, trained)


def _prediction_replicate(cfg: ScenarioConfig, seed: np.random.SeedSequence) -> dict:
    rng = np.random.default_rng(seed)
    graph, labels, W, X = _network(cfg, rng)
    params = draw_setting_params(cfg.setting, STUDY_D, rng)
    y, aux = generate_response(cfg.setting, W, X, params, rng, labels)

    design = build_design(W, X, STUDY_K)

    # in-sample comparisons on the full data
    fit_full = _npr_fit(design, y)
    rmse_npr_in = math.sqrt(fit_full.rss / cfg.n)
    rmse_oracle_in = _rmse(y, _oracle_structural(cfg.setting, W, X, y, params, aux))

    # row split on the shared network (features propagated on the full graph)
    train, test, _ = split_scenarios(graph, cfg.train_frac, "linked", rng)
    fit_train = _npr_fit(design.subset_rows(train), y[train])
    rmse_npr_linked = _rmse(y[test], predict(fit_train, design.subset_rows(test)))

    # isolated scenario: an independent same-size network with fresh
    # covariates and noise, scored on a fresh test set of the split size
    _, t_labels, Wt, Xt = _network(cfg, rng)
    yt, aux_t = generate_response(cfg.setting, Wt, Xt, params, rng, t_labels)
    design_t = build_design(Wt, Xt, STUDY_K)
    rows_t = np.sort(rng.permutation(cfg.n)[:test.size])
    rmse_npr_iso = _rmse(yt[rows_t], predict(fit_train, design_t.subset_rows(rows_t)))

    competitor = cfg.resolved_competitor()
    if competitor == "self":
        rmse_comp_in, rmse_comp_linked, rmse_comp_iso = rmse_npr_in, rmse_npr_linked, rmse_npr_iso
    else:
        fitted, predictor = _competitor(competitor, W, X, y, params, aux, train)
        rmse_comp_in = _rmse(y, fitted)
        rmse_comp_linked = _rmse(y[test], predictor(W, X, aux)[test])
        rmse_comp_iso = _rmse(yt[rows_t], predictor(Wt, Xt, aux_t)[rows_t])

    return {
        "kappa1": rmse_npr_in / rmse_oracle_in,
        "kappa2": rmse_npr_in / rmse_comp_in,
        "kappa3": rmse_npr_linked / rmse_comp_linked,
        "kappa4": rmse_npr_iso / rmse_comp_iso,
        "rmse_npr_in": rmse_npr_in,
        "rmse_oracle_in": rmse_oracle_in,
        "rmse_comp_in": rmse_comp_in,
        "rmse_npr_linked": rmse_npr_linked,
        "rmse_comp_linked": rmse_comp_linked,
        "rmse_npr_iso": rmse_npr_iso,
        "rmse_comp_iso": rmse_comp_iso,
        "d_selected": fit_full.d_sel,
    }


def _test_replicate(cfg: ScenarioConfig, n_nulls: int, seed: np.random.SeedSequence) -> dict:
    rng = np.random.default_rng(seed)
    _, _, W, X = _network(cfg, rng)
    n_signal_orders = (TEST_K_MAX + 1) - n_nulls
    lambdas = [
        rng.uniform(-TEST_COEF_HALF_WIDTH, TEST_COEF_HALF_WIDTH, STUDY_D) * TEST_COEF_SCALE
        for _ in range(n_signal_orders)
    ]
    y = gen_npr(W, X, lambdas, NOISE_SIGMA, rng)

    # the raw design is not held here: a reference would keep it alive through the fit
    fit = _npr_fit(build_design(W, X, STUDY_K), y)
    report = order_test(fit, None, k_max=TEST_K_MAX, xi=TEST_XI)

    unadjusted = [bool(rec["p"] <= TEST_XI) for rec in report.records]

    # coverage of 95% intervals over the truly nonzero coefficients
    covered = []
    for pos, col in enumerate(fit.selected):
        k, j = divmod(col, fit.d)
        if k < n_signal_orders:
            truth = lambdas[k][j]
            covered.append(abs(fit.theta_hat[pos] - truth) <= Z_95 * fit.std_errors[pos])
    coverage = float(np.mean(covered)) if covered else math.nan

    return {
        "unadjusted": unadjusted,
        "holm": list(report.holm_rejections),
        "coverage": coverage,
        "selected_order": report.selected_order,
        "d_selected": fit.d_sel,
    }


def _worker_count() -> int:
    """The ``NPR_THREADS`` cap on worker processes, 1 when it is unset."""
    raw = os.environ.get("NPR_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"NPR_THREADS must be an integer >= 1, got {raw!r}")
    return threads


@all_one_thread
def _run_replicate(task):
    replicate, *args = task
    return replicate(*args)


def _replicates(replicate, cfg: ScenarioConfig, *args) -> list[dict]:
    """``replicate(cfg, *args, seed)`` for each of the ``cfg.reps`` children
    of the master seed, in seed order, serially or on ``min(NPR_THREADS, reps)``
    workers.  ``replicate`` is a module-level function, so a task pickles."""
    tasks = [(replicate, cfg, *args, seed) for seed in np.random.SeedSequence(cfg.seed).spawn(cfg.reps)]
    workers = min(_worker_count(), len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_run_replicate, tasks, chunksize=max(1, len(tasks) // (4 * workers))))
    return [_run_replicate(task) for task in tasks]


def _mean_se(values) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {"mean": mean, "se": se}


def run_prediction_study(cfg: ScenarioConfig) -> ScenarioReport:
    """Run the four-scenario prediction comparison over all replicates."""
    rows = _replicates(_prediction_replicate, cfg)
    metrics = {
        name: _mean_se([r[name] for r in rows])
        for name in ("kappa1", "kappa2", "kappa3", "kappa4")
    }
    metrics["mean_selected_columns"] = float(np.mean([r["d_selected"] for r in rows]))
    return ScenarioReport(
        kind="prediction",
        config=cfg.to_dict(),
        reps=cfg.reps,
        metrics=metrics,
        replicates=rows,
    )


def run_test_study(cfg: ScenarioConfig, n_nulls: int) -> ScenarioReport:
    """Run the sequential-testing study with ``n_nulls`` true null orders."""
    if n_nulls not in (2, 3):
        raise ValueError("n_nulls must be 2 or 3")
    rows = _replicates(_test_replicate, cfg, n_nulls)

    n_orders = TEST_K_MAX + 1
    n_signal = n_orders - n_nulls
    false_js = list(range(n_signal))
    true_js = list(range(n_signal, n_orders))

    unadj = np.asarray([r["unadjusted"] for r in rows], dtype=float)
    holm = np.asarray([r["holm"] for r in rows], dtype=float)
    coverages = np.asarray([r["coverage"] for r in rows], dtype=float)

    metrics = {  # n_nulls in {2, 3} leaves both index lists non-empty
        "EP": float(unadj[:, false_js].mean()),
        "ES": float(unadj[:, true_js].mean()),
        "MP": float(holm[:, false_js].all(axis=1).mean()),
        "FWER": float(holm[:, true_js].any(axis=1).mean()),
        "CP": float(np.nanmean(coverages)) if np.any(np.isfinite(coverages)) else None,
        "n_nulls": n_nulls,
        "per_order_unadjusted_rejection": unadj.mean(axis=0).tolist(),
        "per_order_holm_rejection": holm.mean(axis=0).tolist(),
        "selected_order_distribution": np.bincount(
            [r["selected_order"] for r in rows], minlength=n_orders + 1
        ).tolist(),
    }
    return ScenarioReport(
        kind="testing",
        config=cfg.to_dict(),
        reps=cfg.reps,
        metrics=metrics,
        replicates=rows,
    )
