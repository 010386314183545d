import tracemalloc

import numpy as np
import pytest
from scipy import stats

from npr.cox import SurvivalData, _RiskSetEngine, fit_cox, predict_relative_risk, simulate_cox_data
from npr.design import PropagatedDesign, build_design, forward_select
from npr.graph import DirectedGraph, gen_erdos_renyi, row_normalize
from npr._newton import newton_fields, newton_maximize


def empty_operator(n):
    return row_normalize(DirectedGraph(n, np.empty((0, 2), dtype=np.int64)))


def plain_selected(X):
    return forward_select(build_design(empty_operator(X.shape[0]), X, 0))


def naive_breslow(beta, X, time, event):
    """O(N^2) reference: explicit risk sets per event, Breslow ties."""
    beta = np.asarray(beta, dtype=np.float64)
    eta = X @ beta
    ll = 0.0
    score = np.zeros(X.shape[1])
    info = np.zeros((X.shape[1], X.shape[1]))
    for i in range(len(time)):
        if event[i] != 1:
            continue
        at_risk = time >= time[i]
        w = np.exp(eta[at_risk])
        s0 = w.sum()
        s1 = X[at_risk].T @ w
        s2 = (X[at_risk] * w[:, None]).T @ X[at_risk]
        ll += eta[i] - np.log(s0)
        score += X[i] - s1 / s0
        u = s1 / s0
        info += s2 / s0 - np.outer(u, u)
    return ll, score, info


def reference_breslow(beta, X, time, event):
    """The engine's first evaluation, kept as the bitwise reference: one
    C-ordered sorted copy, tie-group sums by ``np.add.reduceat`` and fresh
    temporaries throughout.  Returns ``(loglik, score, info)`` as
    ``loglik_score_info`` computes them, and the value ``loglik`` gives."""
    order = np.argsort(-time, kind="stable")
    X = X[order]
    event = event[order].astype(bool)
    t = time[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(t) != 0.0) + 1])
    d_group = np.add.reduceat(event.astype(np.float64), starts)
    eg = np.flatnonzero(d_group > 0)
    eta = X @ beta
    shift = eta.max()
    w = np.exp(eta - shift)
    wX = X * w[:, None]
    s0 = np.cumsum(np.add.reduceat(w, starts))
    s1 = np.add.reduceat(wX, starts, axis=0)
    np.add.accumulate(s1, axis=0, out=s1)
    d = d_group[eg]
    s0_e = s0[eg]
    u = s1[eg] / s0_e[:, None]
    ll = float(eta[event].sum() - d @ (np.log(s0_e) + shift))
    score = X[event].sum(axis=0) - d @ u
    ratio = np.zeros(s0.shape[0])
    ratio[eg] = d / s0_e
    c_row = np.repeat(np.cumsum(ratio[::-1])[::-1], np.diff(np.append(starts, t.size)))
    np.multiply(X, (w * c_row)[:, None], out=wX)
    info = wX.T @ X - (u * d[:, None]).T @ u
    ll_only = float(eta[event].sum())
    ll_only -= float(d @ (np.log(s0_e) + shift))
    return ll, score, info, ll_only


def survival_instance(rng, n=60, d=2, ties=False):
    X = rng.standard_normal((n, d))
    t = rng.exponential(1.0, n)
    if ties:
        t = np.ceil(t * 4) / 4  # coarse grid forces tied times
    e = (rng.random(n) < 0.7).astype(int)
    if e.sum() == 0:
        e[0] = 1
    return X, SurvivalData(time=t, event=e)


class TestSurvivalData:
    def test_requires_positive_times(self):
        with pytest.raises(ValueError, match="positive"):
            SurvivalData(time=[0.0, 1.0], event=[1, 0])

    def test_requires_an_event(self):
        with pytest.raises(ValueError, match="at least one event"):
            SurvivalData(time=[1.0, 2.0], event=[0, 0])

    def test_binary_indicator(self):
        with pytest.raises(ValueError, match="0/1"):
            SurvivalData(time=[1.0], event=[2])


class TestPartialLikelihood:
    def test_value_at_zero_is_log_risk_set_sizes(self):
        rng = np.random.default_rng(0)
        X, surv = survival_instance(rng)
        engine = _RiskSetEngine(X, range(2), surv.time, surv.event)
        expected = -sum(
            np.log((surv.time >= surv.time[i]).sum())
            for i in range(surv.n)
            if surv.event[i] == 1
        )
        assert engine.loglik(np.zeros(2)) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ties", [False, True])
    def test_streaming_matches_naive_oracle(self, ties):
        rng = np.random.default_rng(1)
        for _ in range(8):
            n = int(rng.integers(20, 200))
            X, surv = survival_instance(rng, n=n, ties=ties)
            beta = rng.normal(0, 0.4, 2)
            engine = _RiskSetEngine(X, range(2), surv.time, surv.event)
            ll, score, info = engine.loglik_score_info(beta)
            ll_ref, score_ref, info_ref = naive_breslow(beta, X, surv.time, surv.event)
            assert abs(ll - ll_ref) < 1e-10 * max(1.0, abs(ll_ref))
            assert np.abs(score - score_ref).max() < 1e-10 * max(1.0, np.abs(score_ref).max())
            assert np.abs(info - info_ref).max() < 1e-10 * max(1.0, np.abs(info_ref).max())
            assert engine.loglik(beta) == pytest.approx(ll_ref, rel=1e-12)

    @pytest.mark.parametrize("ties", [False, True])
    def test_derivatives_match_finite_differences(self, ties):
        rng = np.random.default_rng(2)
        for _ in range(6):
            X, surv = survival_instance(rng, n=35, ties=ties)
            engine = _RiskSetEngine(X, range(2), surv.time, surv.event)
            beta = rng.normal(0, 0.3, 2)
            _, score, info = engine.loglik_score_info(beta)
            hg, hh = 1e-5, 1e-4
            for i in range(2):
                e = np.zeros(2)
                e[i] = hg
                fd = (engine.loglik(beta + e) - engine.loglik(beta - e)) / (2 * hg)
                assert abs(fd - score[i]) < 1e-5 * max(1.0, abs(score[i]))
                e = np.zeros(2)
                e[i] = hh
                for j in range(2):
                    ej = np.zeros(2)
                    ej[j] = hh
                    fd2 = (
                        engine.loglik(beta + e + ej)
                        - engine.loglik(beta + e - ej)
                        - engine.loglik(beta - e + ej)
                        + engine.loglik(beta - e - ej)
                    ) / (4 * hh * hh)
                    assert abs(fd2 + info[i, j]) < 1e-5 * max(1.0, abs(info[i, j]))


class TestGroupSums:
    @pytest.mark.parametrize(
        "sizes",
        [
            [1] * 12,  # no ties
            [1],
            [10],  # every row in one group
            [300],
            [3, 1, 1, 4],  # tied group first and last: the bound n is dropped
            [1, 2, 3, 1],  # adjacent tied groups, singleton last
            [2, 2, 2],
            [12, 1, 200, 9, 1, 1, 130],  # groups beyond 8 rows sum pairwise
        ],
    )
    def test_bitwise_equal_to_reduceat(self, sizes):
        rng = np.random.default_rng(len(sizes) * 1000 + sum(sizes))
        n = sum(sizes)
        # times descend, so the tie groups appear in the sorted order given
        time = np.repeat(np.arange(len(sizes), 0, -1, dtype=float), sizes)
        engine = _RiskSetEngine(np.zeros((n, 1)), range(1), time, np.ones(n, dtype=int))
        assert np.array_equal(np.diff(np.append(engine.starts, n)), sizes)
        for shape in [(n,), (n, 5)]:
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
            assert np.array_equal(engine.group_sums(a), np.add.reduceat(a, engine.starts, axis=0))


class TestBitwiseReference:
    """The engine's workspace, layouts and skipped group sums must leave
    every bit of the evaluation as :func:`reference_breslow` gives it."""

    @staticmethod
    def instance(rng, n, p, kind):
        # F-ordered: the engine's sorted copy must come out C-ordered
        # whatever the layout of the matrix it is gathered from
        X = np.asfortranarray(rng.standard_normal((n, p)) * rng.uniform(0.1, 3.0, p))
        time = rng.exponential(1.0, n)
        event = (rng.random(n) < 0.6).astype(int)
        if kind == "ties":
            time = np.ceil(time * max(1, n // 200)) / max(1, n // 200)
            assert np.unique(time, return_counts=True)[1].max() > 8
        elif kind == "all events":
            event[:] = 1
        elif kind == "one event":
            event[:] = 0
            event[rng.integers(n)] = 1
        return X, time, event

    @pytest.mark.parametrize("kind", ["no ties", "ties", "all events", "one event"])
    @pytest.mark.parametrize("n, p", [(60, 1), (5000, 1), (400, 7), (5000, 7), (1500, 90), (5000, 90)])
    def test_evaluations_equal_the_reference(self, n, p, kind):
        rng = np.random.default_rng([n, p, len(kind)])
        X, time, event = self.instance(rng, n, p, kind)
        engine = _RiskSetEngine(X, range(p), time, event)
        for beta in (np.zeros(p), rng.normal(0.0, 0.5 / np.sqrt(p), p), rng.normal(0.0, 2.0 / np.sqrt(p), p)):
            ll, score, info, ll_only = reference_breslow(beta, X, time, event)
            got = engine.loglik_score_info(beta)
            assert got[0] == ll
            assert np.array_equal(got[1], score) and np.array_equal(got[2], info)
            assert engine.loglik(beta) == ll_only

    @staticmethod
    def refit_instance(duplicate, ties):
        # a glm-refit shaped design: d = 10, K = 8, 90 columns, all kept,
        # or all but the 9 orders of covariate 4, a copy of covariate 2
        rng = np.random.default_rng(21)
        n = 4000
        X = rng.standard_normal((n, 10))
        if duplicate:
            X[:, 3] = X[:, 1]
        design = forward_select(build_design(row_normalize(gen_erdos_renyi(n, rng)), X, 8))
        skipped = list(range(3, 90, 10)) if duplicate else []
        assert design.selected == [c for c in range(90) if c not in skipped]
        truth = np.zeros(len(design.selected))
        truth[:20] = rng.normal(0.0, 0.3, 20)
        surv = simulate_cox_data(design, truth, baseline_rate=0.5, censor_rate=0.3, seed=rng)
        if ties:
            surv = SurvivalData(time=np.ceil(surv.time * 20) / 20, event=surv.event)
            assert np.unique(surv.time).size < n
        return design, surv

    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("ties", [False, True])
    def test_engine_copy_is_sorted_c_ordered_and_its_own(self, duplicate, ties):
        design, surv = self.refit_instance(duplicate, ties)
        engine = _RiskSetEngine(design.matrix, design.selected, surv.time, surv.event)
        order = np.argsort(-surv.time, kind="stable")
        assert engine.X.flags.c_contiguous
        assert not np.shares_memory(engine.X, design.matrix)
        assert np.array_equal(engine.X, design.matrix[order][:, design.selected])

    @pytest.mark.parametrize("duplicate", [False, True])
    @pytest.mark.parametrize("ties", [False, True])
    def test_fit_equals_the_reference_newton_fit(self, duplicate, ties):
        design, surv = self.refit_instance(duplicate, ties)
        fit = fit_cox(design, surv)

        # the F-ordered gather of the selected columns, which the reference
        # sorts into a C-ordered copy, as the engine once did
        X = design.matrix[:, design.selected]
        result = newton_maximize(
            lambda b: reference_breslow(b, X, surv.time, surv.event)[:3],
            np.zeros(X.shape[1]),
            max_iter=100,
            tol=1e-8,
            loglik=lambda b: reference_breslow(b, X, surv.time, surv.event)[3],
        )
        beta, ll, newton = newton_fields(result, surv.n)
        assert fit.converged
        assert np.array_equal(fit.lambda_hat, beta) and fit.partial_loglik == ll
        for name, value in newton.items():
            assert np.array_equal(getattr(fit, name), value), name


class TestFitCox:
    def test_five_point_golden_section_oracle(self):
        # single covariate, distinct times: maximize the scalar partial
        # likelihood by golden-section search and compare
        X = np.array([[0.5], [-0.2], [1.3], [0.8], [-1.0]])
        surv = SurvivalData(time=[3.0, 1.0, 4.0, 2.0, 5.0], event=[1, 0, 1, 1, 1])
        design = plain_selected(X)
        fit = fit_cox(design, surv)

        engine = _RiskSetEngine(X, range(1), surv.time, surv.event)
        lo, hi = -10.0, 10.0
        phi = (np.sqrt(5.0) - 1) / 2
        for _ in range(200):
            a = hi - phi * (hi - lo)
            b = lo + phi * (hi - lo)
            if engine.loglik(np.array([a])) < engine.loglik(np.array([b])):
                lo = a
            else:
                hi = b
        oracle = (lo + hi) / 2
        assert fit.lambda_hat[0] == pytest.approx(oracle, abs=1e-6)
        assert fit.converged

    def test_rank_invariance_under_monotone_time_transform(self):
        rng = np.random.default_rng(3)
        X, surv = survival_instance(rng, n=80)
        design = plain_selected(X)
        fit1 = fit_cox(design, surv)
        warped = SurvivalData(time=np.exp(surv.time / 2), event=surv.event)
        fit2 = fit_cox(design, warped)
        assert np.abs(fit1.lambda_hat - fit2.lambda_hat).max() < 1e-10
        assert fit1.partial_loglik == pytest.approx(fit2.partial_loglik, rel=1e-12)

    def test_zero_column_dropped_leaves_estimate_unchanged(self):
        rng = np.random.default_rng(4)
        X, surv = survival_instance(rng, n=70)
        fit_base = fit_cox(plain_selected(X), surv)
        padded = np.column_stack([X, np.zeros(70)])
        design = forward_select(
            PropagatedDesign(matrix=padded, K=0)
        )
        fit_pad = fit_cox(design, surv)
        assert design.selected == [0, 1]
        assert np.abs(fit_pad.lambda_hat - fit_base.lambda_hat).max() < 1e-12

    def test_score_small_and_loglik_monotone(self):
        rng = np.random.default_rng(5)
        X, surv = survival_instance(rng, n=120)
        design = plain_selected(X)
        fit = fit_cox(design, surv)
        trace = np.asarray(fit.loglik_trace)
        assert np.all(np.diff(trace) >= -1e-10)
        engine = _RiskSetEngine(X, range(2), surv.time, surv.event)
        _, score, _ = engine.loglik_score_info(fit.lambda_hat)
        assert np.abs(score).max() < 1e-8 * surv.n

    def test_holds_the_sorted_copy_the_workspace_and_u(self):
        # fit_cox's own arrays at its peak, the first evaluation: the sorted
        # copy and the workspace, n*p*8 bytes each, the risk-set means u,
        # E*p*8 with E event groups (untied times: one per event), and fewer
        # than 20 float vectors of n entries; an unsorted copy held beside
        # the sorted one adds n*p*8, the width of p = 90 such vectors
        rng = np.random.default_rng(9)
        n, p = 20000, 90
        design = PropagatedDesign(matrix=rng.standard_normal((n, p)) * 0.05, K=0, selected=list(range(p)))
        surv = SurvivalData(time=rng.exponential(1.0, n), event=(rng.random(n) < 0.6).astype(int))
        assert np.unique(surv.time).size == n
        tracemalloc.start()
        try:
            fit_cox(design, surv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2 * n + surv.n_events) * p * 8 + 20 * n * 8

    def test_requires_uncentered_selected(self):
        rng = np.random.default_rng(6)
        X, surv = survival_instance(rng, n=20)
        from npr.design import center

        with pytest.raises(ValueError, match="forward-selected"):
            fit_cox(build_design(empty_operator(20), X, 0), surv)
        with pytest.raises(ValueError, match="uncentered"):
            fit_cox(forward_select(center(build_design(empty_operator(20), X, 0))), surv)

    def test_consistency_on_network_design(self):
        rng = np.random.default_rng(7)
        lam0, lam1 = np.array([0.6, -0.4]), np.array([0.5, 0.2])
        errs = []
        for _ in range(40):
            n = 3000
            g = gen_erdos_renyi(n, rng)
            W = row_normalize(g)
            X = rng.standard_normal((n, 2))
            design = forward_select(build_design(W, X, 1))
            truth = np.concatenate([lam0, lam1])
            surv = simulate_cox_data(design, truth, baseline_rate=0.5, censor_rate=0.15, seed=rng)
            fit = fit_cox(design, surv)
            errs.append(np.abs(fit.lambda_hat - truth).max())
        assert np.mean(errs) < 0.15


class TestSimulateCoxData:
    def test_null_coefficients_give_exponential_events(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10_000, 2))
        design = plain_selected(X)
        surv = simulate_cox_data(design, np.zeros(2), baseline_rate=0.7, censor_rate=1e-9, seed=3)
        # effectively uncensored; event times follow Exp(0.7)
        assert surv.n_events == surv.n
        ks = stats.kstest(surv.time, stats.expon(scale=1 / 0.7).cdf)
        assert ks.pvalue > 0.01

    def test_vanishing_censor_rate_gives_all_events(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((2000, 1))
        surv = simulate_cox_data(plain_selected(X), [0.3], 1.0, 1e-8, seed=4)
        assert surv.event.mean() > 0.99

    def test_larger_coefficient_shortens_times(self):
        rng = np.random.default_rng(10)
        X = np.abs(rng.standard_normal((4000, 1)))
        design = plain_selected(X)
        t1 = simulate_cox_data(design, [0.5], 1.0, 1e-9, seed=5).time
        t2 = simulate_cox_data(design, [1.0], 1.0, 1e-9, seed=5).time
        # same seed, stronger positive effect: stochastically shorter times
        corr = stats.spearmanr(X.ravel(), t2 - t1).statistic
        assert corr < -0.1
        assert np.median(t2) < np.median(t1)

    def test_rate_validation(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 1))
        with pytest.raises(ValueError, match="rates"):
            simulate_cox_data(plain_selected(X), [0.1], 0.0, 1.0, seed=0)


class TestPredictRelativeRisk:
    def test_exponential_of_linear_predictor(self):
        rng = np.random.default_rng(12)
        X, surv = survival_instance(rng, n=50)
        design = plain_selected(X)
        fit = fit_cox(design, surv)
        raw = build_design(empty_operator(50), X, 0)
        rr = predict_relative_risk(fit, raw)
        assert np.allclose(rr, np.exp(X @ fit.lambda_hat))
        assert np.all(rr > 0)
