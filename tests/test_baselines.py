import numpy as np
import pytest

from npr.baselines import (
    Lim2Params,
    LimParams,
    _ar2_weight,
    fit_lim2_2sls,
    fit_lim_2sls,
    gen_cohesion,
    gen_lim,
    gen_lim2,
    gen_npr,
    lambda_series_lim,
    lambda_series_lim2,
    lim2_reduced_form,
    lim_reduced_form,
    lim_structural,
)
from npr.design import build_design, center, forward_select
from npr.gaussian import fit_ols
from npr.graph import gen_erdos_renyi, row_normalize


def setup(rng, n=25, d=2):
    g = gen_erdos_renyi(n, rng)
    W = row_normalize(g)
    X = rng.standard_normal((n, d))
    return W, X


def lim_params(rng, d=2, rho=0.25):
    return LimParams(rho=rho, beta=rng.uniform(0.5, 2, d), delta=rng.uniform(0.5, 2, d))


def lim2_params(rng, d=2, rho1=0.25, rho2=0.05):
    return Lim2Params(
        rho1=rho1,
        rho2=rho2,
        gamma1=rng.uniform(0.5, 2, d),
        gamma2=rng.uniform(0.5, 2, d),
        gamma3=rng.uniform(0.5, 2, d),
    )


class TestGenLim:
    def test_rho_zero_is_exact_linear_model(self):
        rng = np.random.default_rng(0)
        W, X = setup(rng)
        params = LimParams(rho=0.0, beta=[1.0, -1.0], delta=[0.5, 0.5], alpha=0.3)
        y = gen_lim(W, X, params, sigma=0.0)
        expected = 0.3 + X @ params.beta + W.apply(X @ params.delta)
        assert np.abs(y - expected).max() < 1e-14

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(1)
        for _ in range(6):
            W, X = setup(rng, n=int(rng.integers(10, 30)))
            params = lim_params(rng)
            y = gen_lim(W, X, params, sigma=0.0)
            A = np.eye(W.n_nodes) - params.rho * W.toarray()
            rhs = params.alpha + X @ params.beta + W.apply(X @ params.delta)
            assert np.abs(y - np.linalg.solve(A, rhs)).max() < 1e-9

    def test_noise_reproducible(self):
        rng = np.random.default_rng(2)
        W, X = setup(rng)
        params = lim_params(rng)
        y1 = gen_lim(W, X, params, sigma=1.0, seed=42)
        y2 = gen_lim(W, X, params, sigma=1.0, seed=42)
        assert np.array_equal(y1, y2)

    def test_unstable_rho_rejected(self):
        rng = np.random.default_rng(3)
        W, X = setup(rng)
        with pytest.raises(ValueError, match="stable"):
            gen_lim(W, X, LimParams(rho=1.0, beta=[1, 1], delta=[0, 0]), 0.0)


class TestGenLim2:
    def test_nests_first_order_model(self):
        rng = np.random.default_rng(4)
        W, X = setup(rng)
        p1 = lim_params(rng)
        p2 = Lim2Params(rho1=p1.rho, rho2=0.0, gamma1=p1.beta, gamma2=p1.delta,
                        gamma3=np.zeros(2), alpha=p1.alpha)
        y1 = gen_lim(W, X, p1, sigma=0.0)
        y2 = gen_lim2(W, X, p2, sigma=0.0)
        assert np.abs(y1 - y2).max() < 1e-10

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(6):
            W, X = setup(rng, n=int(rng.integers(10, 30)))
            params = lim2_params(rng)
            y = gen_lim2(W, X, params, sigma=0.0)
            Wd = W.toarray()
            A = np.eye(W.n_nodes) - params.rho1 * Wd - params.rho2 * Wd @ Wd
            wx = Wd @ X
            rhs = params.alpha + X @ params.gamma1 + wx @ params.gamma2 + Wd @ wx @ params.gamma3
            assert np.abs(y - np.linalg.solve(A, rhs)).max() < 1e-9


class TestLambdaSeries:
    def test_first_order_k1(self):
        rng = np.random.default_rng(6)
        p = lim_params(rng)
        assert np.allclose(lambda_series_lim(p, 1), p.rho * p.beta + p.delta)
        assert np.allclose(lambda_series_lim(p, 0), p.beta)

    def test_first_order_geometric(self):
        rng = np.random.default_rng(7)
        p = lim_params(rng)
        for k in range(2, 8):
            assert np.allclose(lambda_series_lim(p, k), p.rho ** (k - 1) * lambda_series_lim(p, 1))

    def test_rho_zero_vanishes_beyond_one(self):
        p = LimParams(rho=0.0, beta=[1.0], delta=[2.0])
        assert np.allclose(lambda_series_lim(p, 1), [2.0])
        for k in (2, 3, 5):
            assert np.allclose(lambda_series_lim(p, k), [0.0])

    def test_second_order_k2_expansion(self):
        # expanding the order-2 inverse symbolically gives
        # (rho1^2 + rho2) g1 + rho1 g2 + g3
        rng = np.random.default_rng(8)
        p = lim2_params(rng)
        expected = (p.rho1 ** 2 + p.rho2) * p.gamma1 + p.rho1 * p.gamma2 + p.gamma3
        assert np.allclose(lambda_series_lim2(p, 2), expected)
        assert np.allclose(lambda_series_lim2(p, 0), p.gamma1)
        assert np.allclose(lambda_series_lim2(p, 1), p.rho1 * p.gamma1 + p.gamma2)

    def test_ar2_weights_satisfy_recurrence(self):
        # independent oracle: c_m = rho1 c_{m-1} + rho2 c_{m-2}
        for rho1, rho2 in ((0.25, 0.05), (0.0, 0.3), (0.4, -0.2)):
            c = [_ar2_weight(rho1, rho2, m) for m in range(13)]
            assert c[0] == 1.0
            assert c[1] == pytest.approx(rho1)
            for m in range(2, 13):
                assert c[m] == pytest.approx(rho1 * c[m - 1] + rho2 * c[m - 2], rel=1e-12)

    def test_decay_bound(self):
        rng = np.random.default_rng(9)
        p = lim2_params(rng)
        r = abs(p.rho1) + abs(p.rho2)
        total = sum(np.linalg.norm(g) for g in (p.gamma1, p.gamma2, p.gamma3))
        for k in range(2, 21):
            bound = r ** ((k - 2) // 2) * total
            assert np.linalg.norm(lambda_series_lim2(p, k)) <= bound + 1e-12

    def test_reduced_form_identity_small(self):
        # noiseless regression on the propagated design recovers the
        # closed-form coefficients
        rng = np.random.default_rng(10)
        n, d, K = 400, 2, 14
        g = gen_erdos_renyi(n, rng)
        W = row_normalize(g)
        X = rng.standard_normal((n, d))
        params = lim_params(rng, d=d)
        y = gen_lim(W, X, params, sigma=0.0)
        design = forward_select(center(build_design(W, X, K)), tol=1e-10)
        fit = fit_ols(design, y)
        theta = np.zeros(d * (K + 1))
        theta[[fit.selected]] = fit.theta_hat
        for k in range(5):
            got = theta[k * d:(k + 1) * d]
            assert np.abs(got - lambda_series_lim(params, k)).max() < 1e-6


class TestGenNpr:
    def test_single_order_is_plain_linear(self):
        rng = np.random.default_rng(11)
        W, X = setup(rng)
        lam = np.array([1.0, -0.5])
        y = gen_npr(W, X, [lam], sigma=0.0)
        assert np.array_equal(y, X @ lam)

    def test_all_zero_coefficients_give_noise(self):
        rng = np.random.default_rng(12)
        W, X = setup(rng)
        y = gen_npr(W, X, [np.zeros(2), np.zeros(2)], sigma=1.0, seed=9)
        expected = np.random.default_rng(9).standard_normal(W.n_nodes)
        assert np.array_equal(y, expected)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        W, X = setup(rng, n=20)
        lams = [rng.uniform(0, 1, 2) for _ in range(4)]
        y = gen_npr(W, X, lams, sigma=0.0)
        Wd = W.toarray()
        expected = np.zeros(20)
        P = np.eye(20)
        for lam in lams:
            expected += P @ X @ lam
            P = Wd @ P
        assert np.abs(y - expected).max() < 1e-12


class TestGenCohesion:
    def test_zero_variance_gives_exact_block_means(self):
        labels = np.array([0, 1, 2, 1, 0])
        X = np.zeros((5, 1))
        y, mu = gen_cohesion(labels, X, (-2.5, 0.0, 2.5), 0.0, [0.0], 0.0, seed=1)
        assert np.array_equal(mu, [-2.5, 0.0, 2.5, 0.0, -2.5])
        assert np.array_equal(y, mu)

    def test_block_means_match(self):
        rng = np.random.default_rng(14)
        labels = rng.integers(0, 3, 10_000)
        X = np.zeros((10_000, 1))
        etas = (-2.5, 0.0, 2.5)
        _, mu = gen_cohesion(labels, X, etas, 0.25, [0.0], 0.0, seed=2)
        for b in range(3):
            vals = mu[labels == b]
            se = np.sqrt(0.25 / vals.size)
            assert abs(vals.mean() - etas[b]) < 3 * se

    def test_label_validation(self):
        with pytest.raises(ValueError, match="labels"):
            gen_cohesion([0, 3], np.zeros((2, 1)), (-1.0, 0.0, 1.0), 0.1, [0.0], 1.0)


class TestTwoStageLeastSquares:
    def test_recovers_rho_on_clean_data(self):
        rng = np.random.default_rng(15)
        errs = []
        for _ in range(20):
            n = 1500
            g = gen_erdos_renyi(n, rng)
            W = row_normalize(g)
            X = rng.standard_normal((n, 2))
            params = lim_params(rng, rho=0.25)
            y = gen_lim(W, X, params, sigma=0.1, seed=rng)
            est = fit_lim_2sls(W, X, y)
            errs.append(abs(est.rho - 0.25))
        assert np.mean(errs) < 0.02

    def test_non_finite_instrument_is_an_input_error(self):
        # the instrument screen is the design's: a NaN covariate names the
        # first instrument column it reaches, (1, X, WX, W^2 X)'s column 1
        rng = np.random.default_rng(18)
        n = 200
        W = row_normalize(gen_erdos_renyi(n, rng))
        X = rng.standard_normal((n, 2))
        y = gen_lim(W, X, lim_params(rng, rho=0.25), sigma=0.1, seed=rng)
        X[7, 0] = np.nan
        with pytest.raises(ValueError, match="design column 1 has a non-finite value"):
            fit_lim_2sls(W, X, y)

    def test_degenerate_nesting_matches_ols(self):
        # with rho = 0 and delta = 0 the spillover scalar is weakly
        # identified (the projected network lag is nearly collinear with
        # the neighbor-covariate block), so rho_hat itself is unstable;
        # the identified quantities are the own-covariate slopes, the net
        # first-order spillover and the fitted response surface
        rng = np.random.default_rng(16)
        n = 800
        g = gen_erdos_renyi(n, rng)
        W = row_normalize(g)
        X = rng.standard_normal((n, 2))
        beta = np.array([1.0, -0.4])
        y = X @ beta + 0.5 * rng.standard_normal(n)
        est = fit_lim_2sls(W, X, y)
        coef = np.linalg.lstsq(np.column_stack([np.ones(n), X]), y, rcond=None)[0]
        assert np.abs(est.beta - coef[1:]).max() < 0.1
        assert np.abs(est.rho * est.beta + est.delta).max() < 0.1
        ols_pred = np.column_stack([np.ones(n), X]) @ coef
        rms = np.sqrt(np.mean((lim_reduced_form(W, X, est) - ols_pred) ** 2))
        assert rms < 0.15

    def test_second_order_recovery(self):
        rng = np.random.default_rng(17)
        n = 2500
        g = gen_erdos_renyi(n, rng)
        W = row_normalize(g)
        X = rng.standard_normal((n, 2))
        params = lim2_params(rng)
        y = gen_lim2(W, X, params, sigma=0.1, seed=rng)
        est = fit_lim2_2sls(W, X, y)
        assert abs(est.rho1 - params.rho1) < 0.15
        assert np.abs(est.gamma1 - params.gamma1).max() < 0.05

    def test_structural_fit_residuals_are_noise(self):
        rng = np.random.default_rng(18)
        n = 1200
        g = gen_erdos_renyi(n, rng)
        W = row_normalize(g)
        X = rng.standard_normal((n, 2))
        params = lim_params(rng)
        y = gen_lim(W, X, params, sigma=1.0, seed=rng)
        pred = lim_structural(W, X, y, params)
        resid_rms = np.sqrt(np.mean((y - pred) ** 2))
        assert 0.9 < resid_rms < 1.1

    def test_row_subset_matches_full_graph_reference(self):
        rng = np.random.default_rng(22)
        n, d = 300, 2
        g = gen_erdos_renyi(n, rng)
        W = row_normalize(g)
        X = rng.standard_normal((n, d))
        y = gen_lim2(W, X, lim2_params(rng), sigma=0.5, seed=rng)
        rows = np.sort(rng.permutation(n)[:240])
        ones = np.ones(n)
        wx = W.apply(X)
        w2x = W.apply(wx)
        wy = W.apply(y)
        w2y = W.apply(wy)

        def reference(Z, H):
            # network lags on the full graph; estimation on the rows only
            Zr, Hr, yr = Z[rows], H[rows], y[rows]
            Zhat = Hr @ np.linalg.lstsq(Hr, Zr, rcond=None)[0]
            return np.linalg.lstsq(Zhat, yr, rcond=None)[0]

        theta = reference(
            np.column_stack([ones, X, wx, wy]),
            np.column_stack([ones, X, wx, w2x]),
        )
        est = fit_lim_2sls(W, X, y, rows=rows)
        got = np.concatenate([[est.alpha], est.beta, est.delta, [est.rho]])
        assert np.abs(got - theta).max() < 1e-10

        theta2 = reference(
            np.column_stack([ones, X, wx, w2x, wy, w2y]),
            np.column_stack([ones, X, wx, w2x, W.apply(w2x)]),
        )
        est2 = fit_lim2_2sls(W, X, y, rows=rows)
        got2 = np.concatenate(
            [[est2.alpha], est2.gamma1, est2.gamma2, est2.gamma3, [est2.rho1, est2.rho2]]
        )
        assert np.abs(got2 - theta2).max() < 1e-10

    def test_all_rows_equals_no_rows(self):
        rng = np.random.default_rng(23)
        W, X = setup(rng, n=200)
        y = gen_lim2(W, X, lim2_params(rng), sigma=0.5, seed=rng)
        everyone = np.arange(200)
        a, b = fit_lim_2sls(W, X, y), fit_lim_2sls(W, X, y, rows=everyone)
        assert (a.alpha, a.rho) == (b.alpha, b.rho)
        assert np.array_equal(a.beta, b.beta) and np.array_equal(a.delta, b.delta)
        a2, b2 = fit_lim2_2sls(W, X, y), fit_lim2_2sls(W, X, y, rows=everyone)
        for name in ("alpha", "rho1", "rho2", "gamma1", "gamma2", "gamma3"):
            assert np.array_equal(getattr(a2, name), getattr(b2, name))


class TestReducedFormPredictors:
    def test_first_order_matches_dense(self):
        rng = np.random.default_rng(19)
        W, X = setup(rng, n=25)
        params = lim_params(rng)
        pred = lim_reduced_form(W, X, params)
        A = np.eye(25) - params.rho * W.toarray()
        rhs = params.alpha + X @ params.beta + W.apply(X @ params.delta)
        assert np.abs(pred - np.linalg.solve(A, rhs)).max() < 1e-9

    def test_unstable_coefficients_fall_back_to_direct_solve(self):
        rng = np.random.default_rng(20)
        W, X = setup(rng, n=25)
        params = LimParams(rho=1.4, beta=[0.5, 0.5], delta=[0.1, 0.1])
        pred = lim_reduced_form(W, X, params)
        A = np.eye(25) - 1.4 * W.toarray()
        rhs = X @ params.beta + W.apply(X @ params.delta)
        assert np.abs(pred - np.linalg.solve(A, rhs)).max() < 1e-8

    def test_second_order_matches_dense(self):
        rng = np.random.default_rng(21)
        W, X = setup(rng, n=25)
        params = lim2_params(rng)
        pred = lim2_reduced_form(W, X, params)
        Wd = W.toarray()
        A = np.eye(25) - params.rho1 * Wd - params.rho2 * Wd @ Wd
        wx = Wd @ X
        rhs = params.alpha + X @ params.gamma1 + wx @ params.gamma2 + Wd @ wx @ params.gamma3
        assert np.abs(pred - np.linalg.solve(A, rhs)).max() < 1e-8
