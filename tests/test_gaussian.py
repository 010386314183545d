import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import lapack_lite
from scipy import stats

from npr import gaussian
from npr.design import PropagatedDesign, build_design, center, forward_select
from npr.exceptions import InputValueError, ModelError, SingularMatrixError
from npr.gaussian import (
    GaussianFit,
    OrderTestReport,
    _qr,
    fit_ols,
    holm_reject,
    order_test,
    predict,
    t_statistics,
    wald_statistic,
)
from npr.graph import DirectedGraph, gen_erdos_renyi, row_normalize


def empty_operator(n):
    return row_normalize(DirectedGraph(n, np.empty((0, 2), dtype=np.int64)))


def plain_design(X):
    """K=0 design over a graph with no edges (classical regression)."""
    return build_design(empty_operator(X.shape[0]), X, 0)


def fitted_random(rng, n=200, d=3, K=3, sigma=1.0, theta=None):
    g = gen_erdos_renyi(n, rng)
    W = row_normalize(g)
    X = rng.standard_normal((n, d))
    design = forward_select(center(build_design(W, X, K)))
    M = design.selected_matrix()
    if theta is None:
        theta = rng.standard_normal(M.shape[1])
    y = M @ theta + sigma * rng.standard_normal(n)
    return design, y, theta


class TestFitOls:
    def test_hand_solved_simple_regression(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        design = forward_select(center(plain_design(X)))
        with pytest.warns(RuntimeWarning, match="zero residual variance"):
            fit = fit_ols(design, y)
            assert fit.theta_hat[0] == pytest.approx(2.0, abs=1e-12)
            assert fit.rss == pytest.approx(0.0, abs=1e-18)
            recs = t_statistics(fit)
        assert recs[0]["t"] == math.inf
        assert recs[0]["p"] == 0.0

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(0)
        design, y, theta = fitted_random(rng, sigma=0.0)
        fit = fit_ols(design, y)
        assert np.abs(fit.theta_hat - theta).max() < 1e-10
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-16)

    def test_residuals_orthogonal_to_selected_columns(self):
        rng = np.random.default_rng(1)
        design, y, _ = fitted_random(rng)
        fit = fit_ols(design, y)
        resid = (y - y.mean()) - design.selected_matrix() @ fit.theta_hat
        gram_err = np.abs(design.selected_matrix().T @ resid).max()
        assert gram_err < 1e-8 * np.linalg.norm(y)

    def test_requires_selection_and_centering(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 2))
        with pytest.raises(ValueError, match="forward-selected"):
            fit_ols(center(plain_design(X)), np.zeros(30))
        with pytest.raises(ValueError, match="centered"):
            fit_ols(forward_select(plain_design(X)), np.zeros(30))

    def test_insufficient_observations(self):
        # selection caps columns at the centered rank, so reach the guard
        # with a manually selected over-wide design
        rng = np.random.default_rng(3)
        design = PropagatedDesign(
            matrix=rng.standard_normal((4, 5)),
            K=0,
            selected=list(range(5)),
            column_means=np.zeros(5),
        )
        with pytest.raises(ValueError, match="insufficient"):
            fit_ols(design, np.zeros(4))

    @pytest.mark.parametrize("k", [0, -300, 300])
    def test_singular_selected_design_raises(self, k):
        # a duplicate column selected by hand: its residual ratio
        # |R_jj| / ||R[:, j]|| is at rounding level in any units
        rng = np.random.default_rng(6)
        M = rng.standard_normal((40, 3))
        M[:, 2] = np.ldexp(3.0 * M[:, 0], k)
        design = PropagatedDesign(matrix=M - M.mean(axis=0), K=0, selected=[0, 1, 2], column_means=M.mean(axis=0))
        with pytest.raises(SingularMatrixError, match="numerically singular"):
            fit_ols(design, rng.standard_normal(40))

    @pytest.mark.parametrize("k", [-400, -40, 40, 400])
    def test_a_column_in_other_units_scales_only_its_own_coefficient(self, k):
        rng = np.random.default_rng(7)
        design, y, _ = fitted_random(rng)
        scaled = replace(design, matrix=design.matrix.copy())
        j = design.selected[1]
        scaled.matrix[:, j] = np.ldexp(design.matrix[:, j], k)
        base, fit = fit_ols(design, y), fit_ols(scaled, y)
        e = np.zeros(len(design.selected), dtype=int)
        e[1] = -k
        assert np.array_equal(fit.theta_hat, np.ldexp(base.theta_hat, e))
        assert np.array_equal(fit.std_errors, np.ldexp(base.std_errors, e))
        assert fit.rss == base.rss

    @pytest.mark.parametrize("k", [-500, -50, 50, 500])
    def test_a_response_in_other_units_scales_the_fit_exactly(self, k):
        rng = np.random.default_rng(8)
        design, y, _ = fitted_random(rng)
        base, fit = fit_ols(design, y), fit_ols(design, np.ldexp(y, k))
        assert np.array_equal(fit.theta_hat, np.ldexp(base.theta_hat, k))
        assert np.array_equal(fit.std_errors, np.ldexp(base.std_errors, k))
        assert (fit.rss, fit.sigma2_hat) == (math.ldexp(base.rss, 2 * k), math.ldexp(base.sigma2_hat, 2 * k))

    @pytest.mark.parametrize("k", [-600, 600])
    def test_a_response_whose_rss_is_no_float_is_an_input_error(self, k):
        rng = np.random.default_rng(8)
        design, y, _ = fitted_random(rng)
        with pytest.raises(InputValueError) as exc:
            fit_ols(design, np.ldexp(y, k))
        assert exc.value.inputs == ("response",)

    def test_predict_reproduces_fitted_values(self):
        rng = np.random.default_rng(4)
        g = gen_erdos_renyi(50, rng)
        W = row_normalize(g)
        X = rng.standard_normal((50, 2))
        raw = build_design(W, X, 2)
        design = forward_select(center(raw))
        y = rng.standard_normal(50) + X[:, 0]
        fit = fit_ols(design, y)
        fitted = y.mean() + design.selected_matrix() @ fit.theta_hat - (
            y.mean() - fit.y_mean
        )
        assert np.abs(predict(fit, raw) - fitted).max() < 1e-12

    def test_a_hand_built_centered_design_predicts_raw_rows_after_a_report_round_trip(self):
        # a design is centered exactly when it carries its column means, so a
        # hand-built one passes them, and every prediction subtracts them
        rng = np.random.default_rng(10)
        rows = 5.0 + rng.standard_normal((50, 3))
        means = rows.mean(axis=0)
        design = PropagatedDesign(matrix=rows - means, K=0, selected=[0, 1, 2], column_means=means)
        fit = fit_ols(design, rows @ [1.0, -2.0, 0.5] + rng.standard_normal(50))
        back = GaussianFit.from_report(json.loads(json.dumps(fit.to_report())), "fit.json")
        assert np.array_equal(back.column_means, means)
        M = np.asfortranarray(rows) - means  # the F-ordered gather's bits
        raw = PropagatedDesign(matrix=rows, K=0)
        for f in (fit, back):
            assert np.array_equal(predict(f, raw), f.y_mean + M @ f.theta_hat)

    def test_fit_and_predict_leave_the_designs_unchanged(self):
        # fit_ols factors its gather in place: whatever the layout of the
        # caller's matrix and whichever columns are selected, the gather
        # must be a copy
        rng = np.random.default_rng(5)
        raw = build_design(row_normalize(gen_erdos_renyi(300, rng)), rng.standard_normal((300, 3)), 3)
        design = forward_select(center(raw))
        fortran = replace(design, matrix=np.asfortranarray(design.matrix))
        raw_fortran = replace(raw, matrix=np.asfortranarray(raw.matrix))
        subset = replace(design, selected=design.selected[::2])
        for fitted, new in ((design, raw), (fortran, raw_fortran), (subset, raw)):
            before, new_before = fitted.matrix.copy(), new.matrix.copy()
            fit = fit_ols(fitted, rng.standard_normal(300))
            predict(fit, new)
            assert np.array_equal(fitted.matrix, before)
            assert np.array_equal(new.matrix, new_before)

    def test_holds_at_most_three_design_copies(self):
        # fit_ols's own arrays: the gather, factored in place, and the
        # C-ordered Q read 2.0 n*p*8 bytes; one more copy of the gather
        # (inside _qr, or kept for the residual next to Q) reads 3.0
        rng = np.random.default_rng(9)
        n, p = 20000, 90
        M = rng.standard_normal((n, p))
        design = PropagatedDesign(
            matrix=M - M.mean(axis=0),
            K=0,
            selected=list(range(p)),
            column_means=M.mean(axis=0),
        )
        y = rng.standard_normal(n)
        tracemalloc.start()
        try:
            fit_ols(design, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * p * 8


class TestQr:
    """``_qr`` factors in place through ``lapack_lite``; ``np.linalg.qr``
    is the reference it must equal bit for bit."""

    # p = 1; p = 6 and 31, below the 32-column block; p = 90, the width of
    # the benchmark designs; p = 150, past the 128-column crossover where
    # dgeqrf and dorgqr switch to blocked code (and their workspace matters)
    @pytest.mark.parametrize(
        "m, p",
        [(2, 1), (24, 1), (5000, 1), (24, 6), (200, 31), (3000, 31), (91, 90), (3000, 90), (20000, 90),
         (151, 150), (20000, 150)],
    )
    def test_matches_numpy_qr_bitwise(self, m, p):
        rng = np.random.default_rng([m, p])
        X = rng.standard_normal((m, p)) * rng.uniform(1e-3, 1e3, p)
        A = np.array(X, order="F")
        Q, R = _qr(A)
        for layout in (X, np.asfortranarray(X)):
            Q0, R0 = np.linalg.qr(layout)
            assert np.array_equal(Q, Q0) and np.array_equal(R, R0)
        # the products fit_ols takes with Q depend on its layout
        assert Q.flags.c_contiguous and R.flags.c_contiguous
        # the input was consumed: it holds Q now, not X
        assert np.array_equal(A, Q) and not np.array_equal(A, X)

    @pytest.mark.parametrize("layout", ["C", "float32"])
    def test_refuses_what_it_cannot_factor_in_place(self, layout):
        X = np.random.default_rng(8).standard_normal((40, 5))
        A = X.copy() if layout == "C" else np.asfortranarray(X, dtype=np.float32)
        before = A.copy()
        with pytest.raises(lapack_lite.LapackError):
            _qr(A)
        assert np.array_equal(A, before)

    def test_fits_equal_the_numpy_qr_fits(self, monkeypatch):
        fits = []
        for qr in (_qr, np.linalg.qr):
            monkeypatch.setattr(gaussian, "_qr", qr)
            draws = np.random.default_rng(7)
            for _ in range(30):
                n = int(draws.integers(40, 400))
                design, y, _ = fitted_random(draws, n=n, d=int(draws.integers(1, 5)), K=int(draws.integers(0, 5)))
                fits.append(fit_ols(design, y))
        half = len(fits) // 2
        for a, b in zip(fits[:half], fits[half:]):
            for field in ("theta_hat", "gram", "gram_inverse", "std_errors"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert (a.rss, a.sigma2_hat) == (b.rss, b.sigma2_hat)


class TestGatherLayout:
    """The bits of ``X @ theta`` depend on the layout of X, not only on its
    values: a C-ordered view of the selected columns gives other last bits
    than the F-ordered copy.  The fits, the predictions and the golden
    reports rest on the gathers returning F-ordered copies."""

    def test_gathers_are_fortran_ordered_copies(self):
        rng = np.random.default_rng(12)
        n, d, K = 3000, 10, 8  # 90 columns, the benchmark designs' width
        raw = build_design(row_normalize(gen_erdos_renyi(n, rng)), rng.standard_normal((n, d)), K)
        selected = forward_select(raw)
        fit = fit_ols(forward_select(center(raw)), rng.standard_normal(n))
        assert len(fit.selected) == K * d + d
        gathers = [
            (selected.selected_matrix(), selected.matrix, selected.selected),
            (fit.gather(raw), raw.matrix, fit.selected),
        ]
        for M, source, columns in gathers:
            assert M.flags.f_contiguous and not M.flags.c_contiguous
            assert not np.shares_memory(M, source)
            assert np.array_equal(M, source[:, columns])

    def test_predictions_are_products_on_the_fortran_copy(self):
        rng = np.random.default_rng(13)
        design, y, _ = fitted_random(rng, n=2000, d=10, K=8)
        raw = build_design(
            row_normalize(gen_erdos_renyi(2000, rng)), rng.standard_normal((2000, 10)), 8
        )
        fit = fit_ols(design, y)
        M = np.asfortranarray(raw.matrix[:, fit.selected])
        M -= fit.column_means
        assert np.array_equal(predict(fit, raw), fit.y_mean + M @ fit.theta_hat)


class TestTStatistics:
    def test_null_coefficient_rejection_rate(self):
        # under the null, |T| > 1.96 in about 5% of replicates
        rng = np.random.default_rng(5)
        hits = []
        for _ in range(1000):
            X = rng.standard_normal((150, 1))
            design = forward_select(center(plain_design(X)))
            y = rng.standard_normal(150)
            fit = fit_ols(design, y)
            hits.append(abs(fit.theta_hat[0] / fit.std_errors[0]) > 1.959964)
        assert abs(np.mean(hits) - 0.05) < 0.015

    def test_ci_contains_estimate(self):
        rng = np.random.default_rng(6)
        design, y, _ = fitted_random(rng)
        recs = t_statistics(fit_ols(design, y))
        for r in recs:
            assert r["ci_low"] <= r["estimate"] <= r["ci_high"]
            assert 0.0 <= r["p"] <= 1.0

    def test_zero_estimate_with_zero_standard_error_is_not_significant(self):
        # a constant response fits exactly with every coefficient zero: 0/0
        # gives no evidence against the null
        design = forward_select(center(plain_design(np.array([[1.0], [2.0], [3.0]]))))
        with pytest.warns(RuntimeWarning, match="zero residual variance"):
            fit = fit_ols(design, np.full(3, 5.0))
            (rec,) = t_statistics(fit)
        assert (rec["estimate"], rec["std_error"]) == (0.0, 0.0)
        assert math.isnan(rec["t"]) and rec["p"] == 1.0


class TestWaldStatistic:
    def test_zero_restricted_block(self):
        # algebraic edge: if the estimated restricted block is exactly
        # zero the quadratic form is exactly zero
        rng = np.random.default_rng(7)
        design, y, _ = fitted_random(rng)
        fit = fit_ols(design, y)
        orders = np.array([fit.provenance[c][0] for c in fit.selected])
        fit.theta_hat[orders >= 2] = 0.0
        assert wald_statistic(fit, design, 2)["T"] == 0.0

    def test_scalar_restriction_equals_t_squared(self):
        rng = np.random.default_rng(8)
        g = gen_erdos_renyi(80, rng)
        X = rng.standard_normal((80, 1))
        design = forward_select(center(build_design(row_normalize(g), X, 1)))
        y = rng.standard_normal(80)
        fit = fit_ols(design, y)
        rec = wald_statistic(fit, design, 1)
        assert rec["m"] == 1
        idx = [i for i, c in enumerate(fit.selected) if fit.provenance[c][0] == 1][0]
        t = fit.theta_hat[idx] / fit.std_errors[idx]
        assert rec["T"] == pytest.approx(t ** 2, rel=1e-10)

    def test_full_identity_restriction(self):
        rng = np.random.default_rng(9)
        design, y, _ = fitted_random(rng)
        fit = fit_ols(design, y)
        rec = wald_statistic(fit, design, 0)
        expected = fit.n * fit.theta_hat @ fit.gram @ fit.theta_hat / fit.sigma2_hat
        assert rec["T"] == pytest.approx(expected, rel=1e-8)
        assert rec["m"] == fit.d_sel

    def test_nested_dimensions_decrease(self):
        rng = np.random.default_rng(10)
        design, y, _ = fitted_random(rng, K=4)
        fit = fit_ols(design, y)
        ms = [wald_statistic(fit, design, j)["m"] for j in range(5)]
        assert all(a > b for a, b in zip(ms, ms[1:]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        design, y, _ = fitted_random(rng)
        f1 = fit_ols(design, y)
        f2 = fit_ols(design, 3.7 * y)
        for j in (0, 1, 2):
            t1 = wald_statistic(f1, design, j)["T"]
            t2 = wald_statistic(f2, design, j)["T"]
            assert t2 == pytest.approx(t1, rel=1e-8)

    def test_no_surviving_columns_flag(self):
        # an edgeless graph zeroes every propagated block, so selection
        # keeps only order-0 columns and higher-order tests are empty
        rng = np.random.default_rng(12)
        X = rng.standard_normal((30, 2))
        design = forward_select(center(build_design(empty_operator(30), X, 2)))
        fit = fit_ols(design, rng.standard_normal(30))
        rec = wald_statistic(fit, design, 1)
        assert rec["m"] == 0
        report = order_test(fit, design, k_max=2)
        assert report.records[1]["p"] == 1.0
        assert report.records[1].get("no_columns") is True

    @pytest.mark.filterwarnings("ignore:zero residual variance:RuntimeWarning")
    @pytest.mark.parametrize("y", [[2.0, 4.0, 6.0, 10.0], [0.0, 0.0, 0.0, 0.0]], ids=["exact line", "all zero"])
    def test_an_exact_fit_has_no_wald_statistic(self, y):
        # zero residual variance would give T = inf, or nan for a zero estimate
        design = forward_select(center(plain_design(np.array([[1.0], [2.0], [3.0], [5.0]]))))
        fit = fit_ols(design, np.array(y))
        with pytest.raises(ModelError, match="zero residual variance"):
            wald_statistic(fit, design, 0)
        with pytest.raises(ModelError, match="zero residual variance"):
            order_test(fit, design, k_max=0)

    def test_chi2_null_calibration_small(self):
        # fixed design, gaussian noise: T_j should follow chi2(m) closely
        rng = np.random.default_rng(13)
        g = gen_erdos_renyi(150, rng)
        X = rng.standard_normal((150, 2))
        design = forward_select(center(build_design(row_normalize(g), X, 2)))
        orders = np.array([c // design.d for c in design.selected])
        m = int((orders >= 1).sum())
        samples = []
        for _ in range(400):
            y = rng.standard_normal(150)
            fit = fit_ols(design, y)
            samples.append(wald_statistic(fit, design, 1)["T"])
        ks = stats.kstest(samples, stats.chi2(m).cdf).statistic
        assert ks < 0.08


class TestHolm:
    def test_single_hypothesis_plain_threshold(self):
        assert holm_reject([0.04], 0.05).tolist() == [True]
        assert holm_reject([0.06], 0.05).tolist() == [False]

    def test_step_down_thresholds(self):
        # thresholds alpha/3, alpha/2, alpha for the sorted p-values
        p = [0.01, 0.02, 0.06]
        assert holm_reject(p, 0.05).tolist() == [True, True, False]
        # boundary: equality rejects
        assert holm_reject([0.05 / 3, 0.025, 0.05], 0.05).tolist() == [True, True, True]

    def test_stops_at_first_failure(self):
        p = [0.001, 0.5, 0.0001]
        rej = holm_reject(p, 0.05)
        assert rej.tolist() == [True, False, True]

    def test_matches_bruteforce_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            p = rng.random(m)
            alpha = float(rng.uniform(0.01, 0.2))
            got = holm_reject(p, alpha)
            # reference: sort, walk down, stop at first failure
            order = np.argsort(p, kind="stable")
            expected = np.zeros(m, dtype=bool)
            for rank, idx in enumerate(order):
                if p[idx] <= alpha / (m - rank):
                    expected[idx] = True
                else:
                    break
            assert np.array_equal(got, expected)
            # monotone: any rejected p-value is <= every retained one
            if got.any() and (~got).any():
                assert p[got].max() <= p[~got].min() + 1e-15


class TestOrderTest:
    def test_kmax_zero_single_test(self):
        rng = np.random.default_rng(15)
        design, y, _ = fitted_random(rng, K=2)
        fit = fit_ols(design, y)
        report = order_test(fit, design, k_max=0, xi=0.05)
        assert len(report.records) == 1
        assert report.holm_rejections[0] == (report.records[0]["p"] <= 0.05)

    def test_pure_regression_retains_first_order_null(self):
        # no network signal at any positive order: the j=1 hypothesis
        # should be retained in at least ~95% of replicates under Holm
        rng = np.random.default_rng(16)
        retained = []
        for _ in range(200):
            g = gen_erdos_renyi(250, rng)
            W = row_normalize(g)
            X = rng.standard_normal((250, 3))
            design = forward_select(center(build_design(W, X, 3)))
            y = X @ np.array([1.0, -1.0, 0.5]) + rng.standard_normal(250)
            fit = fit_ols(design, y)
            report = order_test(fit, design, k_max=3, xi=0.05)
            retained.append(not report.holm_rejections[1])
        assert np.mean(retained) > 0.93

    def test_selected_order_semantics(self):
        rng = np.random.default_rng(17)
        design, y, _ = fitted_random(rng, n=400, K=3, sigma=0.1)
        fit = fit_ols(design, y)
        report = order_test(fit, design, k_max=3)
        if all(report.holm_rejections):
            assert report.selected_order == 4
        else:
            assert not report.holm_rejections[report.selected_order]
            assert all(report.holm_rejections[: report.selected_order])
        # the first order Holm retains, or k_max + 1 when it rejects every one
        for rejections, order in (([False], 0), ([True, False, True], 1), ([True, True, True], 3)):
            assert OrderTestReport(records=[], holm_rejections=rejections, alpha=0.05).selected_order == order

    @pytest.mark.parametrize("m, regime", [(127, "chi2"), (128, "normal")])
    def test_regime_switches_to_normal_at_128_columns(self, m, regime):
        # m order-0 columns: the order-0 restriction is every column, and its
        # statistic n theta'theta / sigma2 is a chi-square(m) draw
        rng = np.random.default_rng(m)
        fit = GaussianFit(theta_hat=rng.standard_normal(m) / math.sqrt(1000), rss=float(1000 - m), sigma2_hat=1.0,
                          gram=np.eye(m), gram_inverse=np.eye(m), std_errors=np.ones(m), column_means=np.zeros(m),
                          y_mean=0.0, selected=list(range(m)), K=0, d=m, n=1000)
        (record,) = order_test(fit, None, k_max=0).records
        assert (record["m"], record["regime"]) == (m, regime)
        assert 0.0 < record["p"] < 1.0

    def test_invalid_inputs(self):
        rng = np.random.default_rng(19)
        design, y, _ = fitted_random(rng, K=2)
        fit = fit_ols(design, y)
        with pytest.raises(ValueError, match="xi"):
            order_test(fit, design, k_max=1, xi=1.5)
        with pytest.raises(ValueError, match="k_max"):
            order_test(fit, design, k_max=9)


def _same_bits(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


class TestTailFunctions:
    """The p-values come from ``scipy.special``; they must equal the
    ``scipy.stats`` forms bit for bit."""

    EDGE_T = [-3.5, -1e-300, -0.0, 0.0, 5e-324, 1e-300, math.inf, math.nan]

    def test_order_test_p_values_match_scipy_stats(self, monkeypatch):
        rng = np.random.default_rng(41)
        design, y, _ = fitted_random(rng, K=3)
        fit = fit_ols(design, y)
        m = rng.integers(1, 300, size=(300, 4))
        T = rng.chisquare(m) * rng.uniform(0.2, 3.0, size=m.shape)
        T.flat[rng.choice(T.size, size=150, replace=False)] = rng.choice(self.EDGE_T, size=150)
        m[:2] = 5  # every edge value at least once in the chi-square regime
        T.flat[: len(self.EDGE_T)] = self.EDGE_T
        chi2_seen = normal_seen = 0
        for m_row, T_row in zip(m, T):
            monkeypatch.setattr(
                "npr.gaussian.wald_statistic",
                lambda fit, design, j, m_row=m_row, T_row=T_row: {"j": j, "m": int(m_row[j]), "T": float(T_row[j])},
            )
            report = order_test(fit, design, k_max=3)
            for rec in report.records:
                if rec["regime"] == "chi2":
                    want = float(stats.chi2.sf(rec["T"], df=rec["m"]))
                    chi2_seen += 1
                else:
                    want = float(min(max(2.0 * (1.0 - stats.norm.cdf(rec["Z"])), 0.0), 1.0))
                    normal_seen += 1
                assert _same_bits(rec["p"], want), (rec, want)
        assert chi2_seen > 200 and normal_seen > 200

    def test_t_statistics_p_values_match_scipy_stats(self):
        rng = np.random.default_rng(42)
        design, y, _ = fitted_random(rng, K=3)
        fit = fit_ols(design, y)
        p = fit.d_sel
        for _ in range(50):
            t = rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 1.5, size=p)
            t[rng.choice(p, size=4, replace=False)] = rng.choice([0.0, math.inf, -math.inf, math.nan], size=4)
            recs = t_statistics(replace(fit, theta_hat=t, std_errors=np.ones(p)))
            for rec, ti in zip(recs, t):
                assert _same_bits(rec["p"], float(2.0 * stats.norm.sf(abs(ti))))
