import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import rankdata

import npr
import npr.logistic
from npr.design import PropagatedDesign, build_design, forward_select
from npr.exceptions import SeparationError
from npr.graph import DirectedGraph, gen_erdos_renyi, row_normalize
from npr.logistic import _average_ranks, _intercept_columns, auc, fit_logistic, predict_proba


def empty_operator(n):
    return row_normalize(DirectedGraph(n, np.empty((0, 2), dtype=np.int64)))


def selected_design(W, X, K):
    return forward_select(build_design(W, X, K))


def gradient_ascent_logistic(X, y, lr=0.05, steps=200_000, tol=1e-12):
    """Independent oracle: plain fixed-step gradient ascent on the
    Bernoulli log-likelihood (intercept included in X)."""
    beta = np.zeros(X.shape[1])
    for _ in range(steps):
        g = X.T @ (y - expit(X @ beta)) / X.shape[0]
        beta_new = beta + lr * g
        if np.abs(beta_new - beta).max() < tol:
            return beta_new
        beta = beta_new
    return beta


def simulate_logistic(rng, W, X, K, alpha, lambdas):
    design = build_design(W, X, K)
    eta = alpha + np.zeros(X.shape[0])
    cols = design.full_matrix()
    d = X.shape[1]
    for k, lam in enumerate(lambdas):
        eta = eta + cols[:, k * d:(k + 1) * d] @ lam
    y = (rng.random(X.shape[0]) < expit(eta)).astype(float)
    return design, y


class TestFitLogistic:
    def test_reduces_to_plain_logistic_regression(self):
        # 20-point instance, K=0: agrees with a from-scratch gradient
        # ascent fit to 1e-6
        rng = np.random.default_rng(0)
        X = rng.standard_normal((20, 2))
        eta = 0.3 + X @ np.array([1.0, -0.7])
        y = (rng.random(20) < expit(eta)).astype(float)
        design = selected_design(empty_operator(20), X, 0)
        fit = fit_logistic(design, y)
        oracle = gradient_ascent_logistic(np.column_stack([np.ones(20), X]), y)
        assert np.abs(fit.theta_hat - oracle).max() < 1e-6
        assert fit.converged

    def test_constant_response_raises_separation(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((30, 1))
        design = selected_design(empty_operator(30), X, 0)
        with pytest.raises(SeparationError):
            fit_logistic(design, np.ones(30))

    def test_separable_data_raises(self):
        X = np.linspace(-2, 2, 40).reshape(-1, 1)
        y = (X.ravel() > 0).astype(float)
        design = selected_design(empty_operator(40), X, 0)
        with pytest.raises(SeparationError):
            fit_logistic(design, y)

    def test_rejects_non_binary_response(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 1))
        design = selected_design(empty_operator(10), X, 0)
        with pytest.raises(ValueError, match="0/1"):
            fit_logistic(design, np.full(10, 0.5))

    def test_rejects_centered_design(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 1))
        from npr.design import center

        design = forward_select(center(build_design(empty_operator(10), X, 0)))
        with pytest.raises(ValueError, match="uncentered"):
            fit_logistic(design, np.zeros(10))

    def test_loglik_monotone_and_score_small(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = 150
            g = gen_erdos_renyi(n, rng)
            W = row_normalize(g)
            X = rng.standard_normal((n, 2))
            design, y = simulate_logistic(rng, W, X, 1, 0.2, [np.array([0.8, -0.4]), np.array([0.5, 0.3])])
            if y.min() == y.max():
                continue
            fit = fit_logistic(forward_select(design), y)
            trace = np.asarray(fit.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-10)
            M = np.column_stack([np.ones(n), forward_select(design).selected_matrix()])
            score = M.T @ (y - expit(M @ fit.theta_hat))
            assert np.abs(score).max() < 1e-8 * n
            # observed information is symmetric positive semi-definite
            assert np.abs(fit.information - fit.information.T).max() < 1e-12
            assert np.linalg.eigvalsh(fit.information).min() > -1e-10

    def test_step_halvings_count_rejected_candidates(self, monkeypatch):
        import npr.logistic

        newton = npr.logistic.newton_maximize
        seen = {"value": None, "rejected": 0}

        def watched(objective, theta0, max_iter, tol, loglik, guard=None):
            def objective_seen(theta):
                result = objective(theta)
                seen["value"] = result[0]
                return result

            def loglik_seen(theta):
                value = loglik(theta)
                if not (np.isfinite(value) and value >= seen["value"]):
                    seen["rejected"] += 1
                return value

            return newton(objective_seen, theta0, max_iter=max_iter, tol=tol,
                          loglik=loglik_seen, guard=guard)

        monkeypatch.setattr(npr.logistic, "newton_maximize", watched)
        rng = np.random.default_rng(3)
        n = 80
        X = rng.standard_normal((n, 2))
        y = (rng.random(n) < expit(-1.0 + X @ np.array([2.5, -2.0]))).astype(float)
        fit = fit_logistic(selected_design(empty_operator(n), X, 0), y)
        assert fit.converged
        assert fit.jitter_retry is False
        assert fit.step_halvings == seen["rejected"]

    def test_singular_information_fires_the_jitter_retry(self):
        from npr._newton import newton_maximize

        # f(t) = s - s^2/2 with s = t0 + t1 has a singular information matrix
        def objective(t):
            s = t.sum()
            return s - s * s / 2, np.full(2, 1.0 - s), np.ones((2, 2))

        _, value, *_, halvings, jittered = newton_maximize(
            objective, np.zeros(2), max_iter=10, tol=1e-8, loglik=lambda t: objective(t)[0]
        )
        assert jittered is True
        assert halvings == 0
        assert value == pytest.approx(0.5)

    def test_score_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = 30
            g = gen_erdos_renyi(n, rng)
            X = rng.standard_normal((n, 2))
            design, y = simulate_logistic(rng, row_normalize(g), X, 1, 0.0, [np.array([0.6, -0.3]), np.array([0.2, 0.4])])
            M = np.column_stack([np.ones(n), forward_select(design).selected_matrix()])
            theta = rng.normal(0, 0.3, M.shape[1])

            def ll(t):
                eta = M @ t
                return float(y @ eta - np.logaddexp(0.0, eta).sum())

            score = M.T @ (y - expit(M @ theta))
            w = expit(M @ theta) * (1 - expit(M @ theta))
            hess = (M * w[:, None]).T @ M
            hg, hh = 1e-5, 1e-4  # larger step for second differences (roundoff)
            for i in range(M.shape[1]):
                e = np.zeros(M.shape[1])
                e[i] = hg
                fd = (ll(theta + e) - ll(theta - e)) / (2 * hg)
                assert abs(fd - score[i]) < 1e-5 * max(1.0, abs(score[i]))
                e = np.zeros(M.shape[1])
                e[i] = hh
                for j in range(M.shape[1]):
                    ej = np.zeros(M.shape[1])
                    ej[j] = hh
                    fd2 = (
                        ll(theta + e + ej) - ll(theta + e - ej) - ll(theta - e + ej) + ll(theta - e - ej)
                    ) / (4 * hh * hh)
                    assert abs(fd2 + hess[i, j]) < 1e-5 * max(1.0, abs(hess[i, j]))

    def test_column_reorder_invariance(self):
        rng = np.random.default_rng(6)
        n = 120
        g = gen_erdos_renyi(n, rng)
        W = row_normalize(g)
        X = rng.standard_normal((n, 3))
        design, y = simulate_logistic(rng, W, X, 1, 0.1, [np.array([0.7, -0.2, 0.4]), np.array([0.3, 0.1, -0.5])])
        fit1 = fit_logistic(forward_select(design), y)
        perm = [2, 0, 1]
        design2 = build_design(W, X[:, perm], 1)
        fit2 = fit_logistic(forward_select(design2), y)
        # same intercept, permuted slopes
        assert fit2.theta_hat[0] == pytest.approx(fit1.theta_hat[0], abs=1e-7)
        d = 3
        for k in range(2):
            block1 = fit1.theta_hat[1 + k * d:1 + (k + 1) * d]
            block2 = fit2.theta_hat[1 + k * d:1 + (k + 1) * d]
            assert np.allclose(block2, block1[perm], atol=1e-7)

    def test_estimation_consistency_large_n(self):
        # with a known generative model at n=5000 the CMLE lands close on
        # average across replicates
        rng = np.random.default_rng(7)
        alpha, lam0, lam1 = -0.2, np.array([0.8, -0.5]), np.array([0.6, 0.3])
        errs = []
        for _ in range(60):
            n = 5000
            g = gen_erdos_renyi(n, rng)
            W = row_normalize(g)
            X = rng.standard_normal((n, 2))
            design, y = simulate_logistic(rng, W, X, 1, alpha, [lam0, lam1])
            fit = fit_logistic(forward_select(design), y)
            truth = np.concatenate([[alpha], lam0, lam1])
            errs.append(np.abs(fit.theta_hat - truth).max())
        assert np.mean(errs) < 0.15


class TestInterceptColumns:
    """The fit reads one F-ordered copy of an all-ones column and the
    selected columns.  The bits of its products depend on that layout, and
    the fits were made on ``np.column_stack`` of the F-ordered gather."""

    @staticmethod
    def instance(duplicate):
        # d = 10, K = 8: 90 columns, all kept, or all but the 9 orders of
        # covariate 4, a copy of covariate 2
        rng = np.random.default_rng(31)
        n = 4000
        X = rng.standard_normal((n, 10))
        if duplicate:
            X[:, 3] = X[:, 1]
        design = selected_design(row_normalize(gen_erdos_renyi(n, rng)), X, 8)
        skipped = list(range(3, 90, 10)) if duplicate else []
        assert design.selected == [c for c in range(90) if c not in skipped]
        eta = design.selected_matrix()[:, :20] @ rng.normal(0.0, 0.3, 20)
        return design, (rng.random(n) < expit(eta)).astype(float)

    @staticmethod
    def column_stack(design):
        return np.column_stack([np.ones(design.n_rows), design.matrix[:, design.selected]])

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_copy_is_fortran_ordered_with_ones_first(self, duplicate):
        design, _ = self.instance(duplicate)
        X = _intercept_columns(design)
        assert X.flags.f_contiguous and not X.flags.c_contiguous
        assert not np.shares_memory(X, design.matrix)
        assert np.array_equal(X[:, 0], np.ones(design.n_rows))
        reference = self.column_stack(design)
        assert reference.flags.f_contiguous and np.array_equal(X, reference)

    @pytest.mark.parametrize("duplicate", [False, True])
    def test_fit_equals_the_fit_on_the_column_stack(self, duplicate, monkeypatch):
        design, y = self.instance(duplicate)
        fit = fit_logistic(design, y)
        monkeypatch.setattr(npr.logistic, "_intercept_columns", self.column_stack)
        reference = fit_logistic(design, y)
        assert fit.converged
        for name in ("theta_hat", "information", "std_errors", "loglik_trace", "step_halvings"):
            assert np.array_equal(getattr(fit, name), getattr(reference, name)), name
        assert (fit.log_likelihood, fit.iterations) == (reference.log_likelihood, reference.iterations)


class TestPredictProba:
    def test_zero_coefficients_give_half(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((25, 2))
        design = selected_design(empty_operator(25), X, 0)
        y = (rng.random(25) < 0.5).astype(float)
        fit = fit_logistic(design, y)
        fit.theta_hat[:] = 0.0
        assert np.all(predict_proba(fit, design) == 0.5)

    def test_monotone_in_positive_coefficient(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((40, 1))
        design = selected_design(empty_operator(40), X, 0)
        y = (rng.random(40) < expit(1.5 * X.ravel())).astype(float)
        if y.min() == y.max():
            pytest.skip("degenerate draw")
        fit = fit_logistic(design, y)
        assert fit.theta_hat[1] > 0
        bumped = PropagatedDesign(matrix=X + 1.0, K=0, selected=[0])
        assert np.all(predict_proba(fit, bumped) > predict_proba(fit, design))

    def test_round_trip_training_probabilities(self):
        rng = np.random.default_rng(10)
        n = 100
        g = gen_erdos_renyi(n, rng)
        X = rng.standard_normal((n, 2))
        design, y = simulate_logistic(rng, row_normalize(g), X, 1, 0.0, [np.array([0.5, 0.5]), np.array([0.2, -0.2])])
        sel = forward_select(design)
        fit = fit_logistic(sel, y)
        M = np.column_stack([np.ones(n), sel.selected_matrix()])
        direct = expit(M @ fit.theta_hat)
        assert np.abs(predict_proba(fit, design) - direct).max() < 1e-12
        assert np.all((predict_proba(fit, design) > 0) & (predict_proba(fit, design) < 1))

    def test_provenance_mismatch(self):
        rng = np.random.default_rng(11)
        W, X = row_normalize(gen_erdos_renyi(40, rng)), rng.standard_normal((40, 2))
        design = selected_design(W, X, 1)
        y = (rng.random(40) < 0.5).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        fit = fit_logistic(design, y)
        assert max(fit.selected) >= 2  # an order-1 column, which an order-0 design lacks
        # a larger K holds every selected column and predicts the same bits
        assert np.array_equal(predict_proba(fit, build_design(W, X, 2)), predict_proba(fit, design))
        for other in (build_design(W, X[:, :1], 3), build_design(W, X, 0)):  # another d; a missing column
            with pytest.raises(ValueError, match="provenance"):
                predict_proba(fit, other)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_tied_scores(self):
        assert auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_reversed_scores(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(12)
        scores = rng.choice([0.1, 0.3, 0.5, 0.7], size=30)
        labels = rng.integers(0, 2, size=30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        pairs = np.mean((pos[:, None] > neg[None, :]) + 0.5 * (pos[:, None] == neg[None, :]))
        assert auc(scores, labels) == pytest.approx(pairs, abs=1e-12)

    def test_independent_scores_near_half(self):
        rng = np.random.default_rng(13)
        scores = rng.random(20_000)
        labels = rng.integers(0, 2, 20_000)
        assert abs(auc(scores, labels) - 0.5) < 0.02

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="AUC undefined"):
            auc([0.1, 0.9], [1, 1])

    def test_ranks_and_auc_match_scipy_rankdata_bitwise(self):
        # ties, signed zeros, infinities and the odd NaN (all-NaN ranks)
        rng = np.random.default_rng(14)
        pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 1e-300, -1e300])
        for i in range(2000):
            n = int(rng.integers(2, 80))
            a = np.where(rng.random(n) < 0.5, rng.choice(pool, n), np.round(rng.standard_normal(n), 1))
            if i % 40 == 0:
                a[rng.integers(n)] = np.nan
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            ranks = rankdata(a)
            assert _average_ranks(a).tobytes() == ranks.tobytes(), i
            n_pos = int(labels.sum())
            want = float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * (n - n_pos)))
            assert np.float64(auc(a, labels)).tobytes() == np.float64(want).tobytes(), i

    def test_auc_leaves_scipy_stats_out(self):
        src = str(Path(npr.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys; from npr.logistic import auc; auc([0.2, 0.7, 0.7], [0, 1, 0]); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
