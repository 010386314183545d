"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``
or in failure output).  Tolerances are fixed here, not tuned at runtime.
"""

import contextlib
import copy
import json

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

from npr._blas import all_one_thread
from npr.baselines import Lim2Params, LimParams, gen_lim, gen_npr, lambda_series_lim, lambda_series_lim2
from npr.cox import _RiskSetEngine, SurvivalData, fit_cox
from npr.design import build_design, center, forward_select
from npr.gaussian import fit_ols, wald_statistic
from npr.graph import (
    DirectedGraph,
    gen_erdos_renyi,
    gen_powerlaw,
    gen_sbm,
    propagate,
    row_normalize,
    spectral_bound_check,
)
from npr.logistic import auc, fit_logistic, predict_proba
from npr.sim import ScenarioConfig, run_prediction_study, run_test_study


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_01_spectral_bound_property():
    with criterion(1, "largest eigenvalue of (W^k)'W^k never exceeds N"):
        rng = np.random.default_rng(101)
        generators = [
            lambda n, r: gen_erdos_renyi(n, r),
            lambda n, r: gen_sbm(n, r)[0],
            lambda n, r: gen_powerlaw(n, r),
        ]
        for gen in generators:
            for _ in range(200):
                n = int(rng.integers(10, 201))
                W = row_normalize(gen(n, rng))
                for k in range(1, 9):
                    assert spectral_bound_check(W, k) <= n + 1e-9


def test_criterion_02_propagation_oracle():
    with criterion(2, "sparse propagation matches dense matrix powers to 1e-12"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(5, 51))
            W = row_normalize(gen_erdos_renyi(n, rng))
            d = int(rng.integers(1, 5))
            X = rng.standard_normal((n, d))
            K = int(rng.integers(0, 6))
            M = propagate(W, X, K)
            Wd = W.toarray()
            expected = X
            for k in range(K + 1):
                if k:
                    expected = Wd @ expected
                assert np.abs(M[:, k * d : (k + 1) * d] - expected).max() < 1e-12


def test_criterion_03_reduced_form_identities():
    with criterion(3, "spillover reduced-form coefficients recovered from noiseless fits"):
        rng = np.random.default_rng(103)
        n, d, K = 500, 2, 14
        W = row_normalize(gen_erdos_renyi(n, rng))
        X = rng.standard_normal((n, d))
        params = LimParams(rho=0.25, beta=rng.uniform(0.5, 2, d), delta=rng.uniform(0.5, 2, d))
        y = gen_lim(W, X, params, sigma=0.0)
        design = forward_select(center(build_design(W, X, K)), tol=1e-10)
        fit = fit_ols(design, y)
        theta = np.zeros(d * (K + 1))
        theta[fit.selected] = fit.theta_hat
        for k in range(5):
            expected = lambda_series_lim(params, k)
            assert np.abs(theta[k * d:(k + 1) * d] - expected).max() < 1e-6

        # second-order coefficients against a dense Neumann oracle: on a
        # directed cycle the powers of W are distinct one-hot matrices, so
        # the inverse's first row reads off the series weights exactly
        m = 48
        cycle = DirectedGraph(m, [(i, (i + 1) % m) for i in range(m)])
        P = row_normalize(cycle).toarray()
        rho1, rho2 = 0.25, 0.05
        inv = np.linalg.inv(np.eye(m) - rho1 * P - rho2 * P @ P)
        p2 = Lim2Params(
            rho1=rho1, rho2=rho2,
            gamma1=rng.uniform(0.5, 2, d),
            gamma2=rng.uniform(0.5, 2, d),
            gamma3=rng.uniform(0.5, 2, d),
        )
        for k in range(9):
            weights = [inv[0, k - s] if k - s >= 0 else 0.0 for s in range(3)]
            expected = weights[0] * p2.gamma1 + weights[1] * p2.gamma2 + weights[2] * p2.gamma3
            assert np.abs(lambda_series_lim2(p2, k) - expected).max() < 1e-8


def test_criterion_04_prediction_ratios_spillover_truth():
    with criterion(4, "prediction-ratio bands for first-order spillover data"):
        cfg = ScenarioConfig(case=1, setting=1, n=1000, reps=100, seed=20250841)
        metrics = run_prediction_study(cfg).metrics
        k1 = metrics["kappa1"]["mean"]
        k2 = metrics["kappa2"]["mean"]
        k3 = metrics["kappa3"]["mean"]
        k4 = metrics["kappa4"]["mean"]
        print(f"  kappa = ({k1:.3f}, {k2:.3f}, {k3:.3f}, {k4:.3f})")
        assert 0.94 <= k1 <= 1.00
        assert 0.96 <= k2 <= 1.01
        assert 1.00 <= k3 <= 1.12
        assert 1.05 <= k4 <= 1.45


def test_criterion_05_competitor_collapse_under_misspecification():
    with criterion(5, "fitted spillover competitor collapses on multi-hop truth"):
        cfg = ScenarioConfig(case=1, setting=3, n=1000, reps=100, seed=20250842)
        metrics = run_prediction_study(cfg).metrics
        for name in ("kappa2", "kappa3", "kappa4"):
            assert metrics[name]["mean"] < 0.5, name


def test_criterion_06_sequential_test_operating_characteristics(pooled_test_study):
    with criterion(6, "testing-study error rates, power and coverage at N=3000"):
        cfg = ScenarioConfig(case=1, setting=3, n=3000, reps=1000, seed=20250843)
        m = pooled_test_study(cfg, n_nulls=3).metrics
        print(
            "  EP=%.3f ES=%.3f MP=%.3f FWER=%.3f CP=%.3f"
            % (m["EP"], m["ES"], m["MP"], m["FWER"], m["CP"])
        )
        assert 0.04 <= m["ES"] <= 0.10
        assert m["FWER"] <= 0.05
        assert 0.93 <= m["CP"] <= 0.97
        assert m["EP"] >= 0.90


def test_criterion_06_smoke_variant():
    with criterion("6s", "200-replicate smoke variant with widened bands"):
        cfg = ScenarioConfig(case=1, setting=3, n=3000, reps=200, seed=20250844)
        m = run_test_study(cfg, n_nulls=3).metrics
        assert 0.02 <= m["ES"] <= 0.12
        assert m["FWER"] <= 0.08
        assert 0.92 <= m["CP"] <= 0.98
        assert m["EP"] >= 0.85


def test_criterion_07_noise_variance_consistency():
    with criterion(7, "residual-variance estimator centered on the truth, bias shrinking"):
        def sigma2_hat(n, rng):
            W = row_normalize(gen_erdos_renyi(n, rng))
            X = rng.standard_normal((n, 10))
            lambdas = [rng.uniform(0, 5, 10) for _ in range(6)]
            y = gen_npr(W, X, lambdas, sigma=1.0, seed=rng)
            design = forward_select(center(build_design(W, X, 8)))
            return fit_ols(design, y).sigma2_hat

        rng = np.random.default_rng(107)
        reps = 300
        results = {}
        for n in (500, 1000, 2000):
            first = sigma2_hat(n, copy.deepcopy(rng))  # at the default thread count
            vals = all_one_thread(lambda: [sigma2_hat(n, rng) for _ in range(reps)])()
            assert vals[0] == first
            mean = float(np.mean(vals))
            se = float(np.std(vals, ddof=1) / np.sqrt(reps))
            results[n] = (mean, se)
            print(f"  n={n}: mean sigma2_hat={mean:.4f} (se {se:.4f})")
            assert abs(mean - 1.0) <= 3 * se
        # bias ordering up to Monte-Carlo slack
        m500, s500 = results[500]
        m2000, s2000 = results[2000]
        assert abs(m2000 - 1.0) <= abs(m500 - 1.0) + 3 * np.hypot(s500, s2000)


def null_statistics(design, j, rng, reps=2000):
    """Wald statistics for order ``j`` on ``reps`` null responses, with numpy's
    and scipy's OpenBLAS on one thread after checking that the first equals
    the one at the default thread count."""

    def statistic(rng):
        return wald_statistic(fit_ols(design, rng.standard_normal(design.n_rows)), design, j)["T"]

    first = statistic(copy.deepcopy(rng))
    samples = all_one_thread(lambda: [statistic(rng) for _ in range(reps)])()
    assert samples[0] == first
    return samples


def test_criterion_08_wald_null_calibration():
    with criterion(8, "null Wald statistics match chi-square / normal references"):
        # fixed design, m = 5 restrictions: T against chi2(5)
        rng = np.random.default_rng(108)
        n, d = 400, 5
        W = row_normalize(gen_erdos_renyi(n, rng))
        X = rng.standard_normal((n, d))
        design = forward_select(center(build_design(W, X, 1)))
        orders = np.array([c // design.d for c in design.selected])
        assert int((orders >= 1).sum()) == 5
        samples = null_statistics(design, 1, rng)
        ks = stats.kstest(samples, stats.chi2(5).cdf).statistic
        print(f"  m=5: KS distance {ks:.4f}")
        assert ks < 0.05

        # m = 60 restrictions: standardized statistic near N(0,1) moments
        n, d, K = 2000, 10, 5
        W = row_normalize(gen_erdos_renyi(n, rng))
        X = rng.standard_normal((n, d))
        design = forward_select(center(build_design(W, X, K)))
        assert len(design.selected) == 60
        zs = (np.asarray(null_statistics(design, 0, rng)) - 60) / np.sqrt(120.0)
        print(f"  m=60: mean(Z)={zs.mean():.4f} var(Z)={zs.var(ddof=1):.4f}")
        assert abs(zs.mean()) <= 0.1
        assert abs(zs.var(ddof=1) - 1.0) <= 0.15


def test_criterion_09_glm_derivative_and_monotonicity_checks():
    with criterion(9, "analytic GLM derivatives match finite differences; ascent monotone"):
        rng = np.random.default_rng(109)
        hg, hh = 1e-5, 1e-4

        def check_derivs(ll, score, hess, theta, dim):
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = hg
                fd = (ll(theta + e) - ll(theta - e)) / (2 * hg)
                assert abs(fd - score[i]) < 1e-5 * max(1.0, abs(score[i]))
                e = np.zeros(dim)
                e[i] = hh
                for j in range(dim):
                    ej = np.zeros(dim)
                    ej[j] = hh
                    fd2 = (
                        ll(theta + e + ej) - ll(theta + e - ej)
                        - ll(theta - e + ej) + ll(theta - e - ej)
                    ) / (4 * hh * hh)
                    assert abs(fd2 + hess[i, j]) < 1e-5 * max(1.0, abs(hess[i, j]))

        # 50 logistic instances
        for _ in range(50):
            n = int(rng.integers(25, 45))
            W = row_normalize(gen_erdos_renyi(n, rng))
            X = rng.standard_normal((n, 2))
            M = np.column_stack([np.ones(n), propagate(W, X, 1)])
            y = (rng.random(n) < 0.5).astype(float)
            theta = rng.normal(0, 0.3, M.shape[1])

            def ll_logit(t):
                eta = M @ t
                return float(y @ eta - np.logaddexp(0.0, eta).sum())

            pr = expit(M @ theta)
            score = M.T @ (y - pr)
            hess = (M * (pr * (1 - pr))[:, None]).T @ M
            check_derivs(ll_logit, score, hess, theta, M.shape[1])

        # 50 proportional-hazards instances (ties included)
        for i in range(50):
            n = int(rng.integers(25, 45))
            X = rng.standard_normal((n, 2))
            t = rng.exponential(1.0, n)
            if i % 2:
                t = np.ceil(t * 4) / 4
            e = (rng.random(n) < 0.7).astype(int)
            e[int(rng.integers(n))] = 1
            engine = _RiskSetEngine(X, range(2), t, e)
            beta = rng.normal(0, 0.3, 2)
            _, score, hess = engine.loglik_score_info(beta)
            check_derivs(lambda b: engine.loglik(b), score, hess, beta, 2)

        # ascent never decreases the log-likelihood across 500 seeded fits
        for s in range(500):
            srng = np.random.default_rng(1000 + s)
            n = 120
            W = row_normalize(gen_erdos_renyi(n, srng))
            X = srng.standard_normal((n, 2))
            design = forward_select(build_design(W, X, 1))
            eta = design.selected_matrix() @ srng.normal(0, 0.6, len(design.selected))
            y = (srng.random(n) < expit(eta)).astype(float)
            if y.min() == y.max():
                continue
            fit = fit_logistic(design, y)
            assert np.all(np.diff(fit.loglik_trace) >= -1e-10)


def test_criterion_10_cox_engine_oracle_and_rank_invariance():
    with criterion(10, "risk-set engine equals quadratic-cost oracle; rank invariance"):
        rng = np.random.default_rng(110)
        from test_cox import naive_breslow

        for ties in (False, True):
            for _ in range(5):
                n = int(rng.integers(50, 201))
                X = rng.standard_normal((n, 3))
                t = rng.exponential(1.0, n)
                if ties:
                    t = np.ceil(t * 3) / 3
                e = (rng.random(n) < 0.7).astype(int)
                e[0] = 1
                beta = rng.normal(0, 0.4, 3)
                engine = _RiskSetEngine(X, range(3), t, e)
                ll, score, info = engine.loglik_score_info(beta)
                ll_ref, score_ref, info_ref = naive_breslow(beta, X, t, e)
                assert abs(ll - ll_ref) < 1e-10 * max(1.0, abs(ll_ref))
                assert np.abs(score - score_ref).max() < 1e-10 * max(1.0, np.abs(score_ref).max())
                assert np.abs(info - info_ref).max() < 1e-10 * max(1.0, np.abs(info_ref).max())

        X = rng.standard_normal((150, 2))
        t = rng.exponential(1.0, 150)
        e = (rng.random(150) < 0.7).astype(int)
        e[0] = 1
        design = forward_select(
            build_design(row_normalize(DirectedGraph(150, np.empty((0, 2), dtype=np.int64))), X, 0)
        )
        fit1 = fit_cox(design, SurvivalData(time=t, event=e))
        fit2 = fit_cox(design, SurvivalData(time=np.log1p(t) ** 3 + 1e-9, event=e))
        assert np.abs(fit1.lambda_hat - fit2.lambda_hat).max() < 1e-10


def test_criterion_11_network_logistic_beats_plain_logistic_auc():
    with criterion(11, "propagated features beat plain logistic AUC by >= 2 points"):
        rng = np.random.default_rng(111)
        n, d = 1500, 2
        W = row_normalize(gen_erdos_renyi(n, rng))
        X = rng.standard_normal((n, d))
        design2 = build_design(W, X, 2)
        design0 = build_design(W, X, 0)
        lam = np.concatenate([[0.3, -0.3], [1.6, 1.2], [1.4, -1.1]])
        y = (rng.random(n) < expit(design2.full_matrix() @ lam)).astype(float)
        split_rng = np.random.default_rng(112)
        n_train = int(round(0.8 * n))
        auc2, auc0 = [], []
        for _ in range(100):
            perm = split_rng.permutation(n)
            tr, te = np.sort(perm[:n_train]), np.sort(perm[n_train:])
            for design, sink in ((design2, auc2), (design0, auc0)):
                sub = forward_select(design.subset_rows(tr))
                fit = fit_logistic(sub, y[tr])
                sink.append(auc(predict_proba(fit, design.subset_rows(te)), y[te]))
        gap = float(np.mean(auc2) - np.mean(auc0))
        print(f"  mean AUC K=2: {np.mean(auc2):.4f}  K=0: {np.mean(auc0):.4f}  gap {gap:.4f}")
        assert gap >= 0.02


def test_criterion_12_simulate_determinism(tmp_path):
    with criterion(12, "repeated simulate runs are byte-identical up to the timestamp"):
        from npr.cli import main

        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        base = ["simulate", "--case", "2", "--setting", "3", "--n", "250",
                "--reps", "4", "--seed", "77"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        a["manifest"]["arguments"].pop("out")
        b["manifest"]["arguments"].pop("out")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
