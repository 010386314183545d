import json
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg as sla

from npr.cox import SurvivalData, fit_cox, predict_relative_risk
from npr.design import (
    DEFAULT_SELECT_TOL,
    PropagatedDesign,
    _gram_certifies,
    _mgs_columns,
    build_design,
    center,
    center_response,
    forward_select,
    independent_columns,
    read_covariates,
    write_design_csv,
)
from npr.exceptions import DegenerateDesignError
from npr.gaussian import fit_ols, order_test, predict
from npr.graph import DirectedGraph, gen_erdos_renyi, propagate, read_edge_list, row_normalize
from npr.logistic import fit_logistic, predict_proba
from npr.sim import covariates_for_case, graph_for_case


def random_setup(rng, n=60, d=3, K=4):
    g = gen_erdos_renyi(n, rng)
    W = row_normalize(g)
    X = rng.standard_normal((n, d))
    return W, X


class TestBuildDesign:
    def test_k_zero_equals_X(self):
        rng = np.random.default_rng(0)
        W, X = random_setup(rng)
        design = build_design(W, X, 0)
        assert np.array_equal(design.full_matrix(), X)
        assert (design.K, design.d) == (0, 3)

    def test_column_count_d10_k8(self):
        rng = np.random.default_rng(1)
        W, X = random_setup(rng, d=10)
        design = build_design(W, X, 8)
        assert design.n_columns == 90
        assert design.full_matrix().shape == (60, 90)

    def test_blocks_match_propagate(self):
        rng = np.random.default_rng(2)
        W, X = random_setup(rng)
        design = build_design(W, X, 3)
        M = design.full_matrix()
        assert np.array_equal(M, propagate(W, X, 3))
        d = X.shape[1]
        expected = X
        for k in range(4):
            assert np.array_equal(M[:, k * d : (k + 1) * d], expected)
            expected = W.csr @ expected

    def test_column_names(self):
        rng = np.random.default_rng(3)
        W, X = random_setup(rng, d=2, K=1)
        design = build_design(W, X, 1)
        assert design.column_names() == ["k0_x1", "k0_x2", "k1_x1", "k1_x2"]

    @pytest.mark.parametrize("K, width", [(-1, 2), (1, 3), (2, 4)])
    def test_a_k_the_width_cannot_hold_is_refused(self, K, width):
        # the layout is the matrix's width and K: K+1 blocks of d columns
        with pytest.raises(ValueError, match=f"K={K} is no layout of a design of {width} columns"):
            PropagatedDesign(matrix=np.zeros((3, width)), K=K)


class TestCenter:
    def test_constant_column_becomes_zero(self):
        design = PropagatedDesign(matrix=np.ones((4, 1)), K=0)
        centered = center(design)
        assert np.allclose(centered.full_matrix(), 0.0)

    def test_simple_column(self):
        design = PropagatedDesign(matrix=np.array([[1.0], [2.0], [3.0]]), K=0)
        assert np.allclose(center(design).full_matrix().ravel(), [-1, 0, 1])

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        W, X = random_setup(rng)
        once = center(build_design(W, X, 2))
        twice = center(once)
        assert np.abs(once.full_matrix() - twice.full_matrix()).max() < 1e-12
        # the recorded transform is unchanged by the second pass
        assert np.abs(once.column_means - twice.column_means).max() < 1e-12

    def test_center_response(self):
        y = np.array([1.0, 2.0, 6.0])
        assert center_response(y).sum() == pytest.approx(0.0, abs=1e-12)


class TestForwardSelect:
    def test_duplicate_column_rejected(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 1))
        design = PropagatedDesign(matrix=np.hstack([x, x]), K=0)
        assert forward_select(design).selected == [0]

    def test_two_cycle_square_duplicates_block_zero(self):
        # W^2 = I on a 2-cycle, so block k=2 duplicates block k=0 exactly
        g = DirectedGraph(2, [(0, 1), (1, 0)])
        W = row_normalize(g)
        X = np.array([[1.0, 2.0], [3.0, -1.0]])
        design = build_design(W, X, 2)
        selected = forward_select(design).selected
        assert selected == [0, 1, 2, 3][: len(selected)]
        assert all(c // design.d < 2 for c in selected)

    def test_full_rank_design_keeps_everything(self):
        rng = np.random.default_rng(6)
        W, X = random_setup(rng, n=100, d=4)
        design = build_design(W, X, 3)
        assert forward_select(design).selected == list(range(16))

    def test_idempotent_on_selected_set(self):
        rng = np.random.default_rng(7)
        W, X = random_setup(rng)
        once = forward_select(build_design(W, X, 4))
        twice = forward_select(once)
        assert once.selected == twice.selected

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        W, X = random_setup(rng)
        d1 = forward_select(build_design(W, X, 4), tol=1e-8)
        d2 = forward_select(build_design(W, X, 4), tol=1e-8)
        assert d1.selected == d2.selected

    def test_degenerate_design_raises(self):
        design = PropagatedDesign(matrix=np.zeros((5, 2)), K=0)
        with pytest.raises(DegenerateDesignError, match="degenerate"):
            forward_select(design)

    def test_later_column_survives_an_earlier_duplicate(self):
        # column 1 duplicates column 0; column 2 keeps 0.6 of its norm after
        # projection onto column 0, so it is independent and must be kept
        M = np.array([[1.0, 1, 1], [-2, -2, 2], [2, 2, -2], [-1, -1, 1]])
        design = PropagatedDesign(matrix=M, K=0)
        assert forward_select(design).selected == [0, 2]
        assert independent_columns(M, tol=1e-8) == [0, 2]
        # the unpivoted Householder rule |R_jj| > tol * ||M_j|| drops it,
        # because the dependent column's reflector absorbs part of column 2
        R = sla.qr(M, mode="r")[0]
        kept = [j for j in range(3) if abs(R[j, j]) > 1e-8 * np.linalg.norm(M[:, j])]
        assert kept == [0]

    def test_non_finite_column_rejected_by_name(self):
        X = np.array([[1.0, 2.0], [np.inf, 0.5], [3.0, 1.0]])
        design = PropagatedDesign(matrix=X, K=0)
        with pytest.raises(ValueError, match="k0_x1"):
            forward_select(design)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_in_any_column_rejected_by_name(self, bad):
        # the finiteness scan runs only where the Gram certificate fails,
        # which any non-finite entry makes it do
        rng = np.random.default_rng(10)
        clean = build_design(*random_setup(rng), 1)
        assert _gram_certifies(clean.matrix, DEFAULT_SELECT_TOL)
        for j, name in enumerate(clean.column_names()):
            M = clean.matrix.copy()
            M[int(rng.integers(M.shape[0])), j] = bad
            design = PropagatedDesign(matrix=M, K=clean.K)
            with pytest.raises(ValueError, match=f"design column {name} has a non-finite value"):
                forward_select(design)

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_a_column_at_any_finite_scale_gets_the_same_decision(self, k):
        # columns 0 and 2 of the scan's fallback (n <= p fails the
        # certificate) scaled by 2^k: the squared norm of a column at 2^1000
        # overflows and one at 2^-600 underflows, but the scan scales each
        # column back by a power of two first
        rng = np.random.default_rng(12)
        M = rng.standard_normal((5, 7))
        M[:, 3] = M[:, 0] - M[:, 1]
        assert not _gram_certifies(M, DEFAULT_SELECT_TOL)
        kept = independent_columns(M, DEFAULT_SELECT_TOL)
        assert kept == [0, 1, 2, 4, 5]
        scaled = M.copy()
        scaled[:, [0, 2]] = np.ldexp(M[:, [0, 2]], k)
        assert independent_columns(scaled, DEFAULT_SELECT_TOL) == kept

    def test_one_huge_entry_keeps_its_column(self):
        # an entry at 1e155 overflows the Gram matrix; the column it dominates
        # is still independent of the others
        rng = np.random.default_rng(13)
        design = build_design(*random_setup(rng), 1)
        M = design.matrix.copy()
        M[4, 0] = 1e155
        assert not _gram_certifies(M, DEFAULT_SELECT_TOL)
        selected = forward_select(PropagatedDesign(matrix=M, K=design.K)).selected
        assert selected == forward_select(design).selected == list(range(M.shape[1]))

    def test_selected_submatrix_nonsingular_vs_svd_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(30, 200))
            g = gen_erdos_renyi(n, rng)
            X = rng.standard_normal((n, 3))
            design = forward_select(build_design(row_normalize(g), X, 5))
            sub = design.selected_matrix()
            smin = np.linalg.svd(sub, compute_uv=False).min()
            assert smin > 0
            # the admitted set has the same rank as the full matrix
            assert len(design.selected) == np.linalg.matrix_rank(design.full_matrix(), tol=1e-8)

    def test_selection_survives_row_subset(self):
        rng = np.random.default_rng(10)
        W, X = random_setup(rng, n=80)
        design = forward_select(build_design(W, X, 2))
        sub = design.subset_rows(np.arange(40))
        assert sub.selected == design.selected
        assert sub.n_rows == 40


class TestCovariateIO:
    def test_round_trip_via_design_export(self, tmp_path):
        rng = np.random.default_rng(11)
        W, X = random_setup(rng, n=10, d=2)
        design = build_design(W, X, 1)
        path = tmp_path / "design.csv"
        write_design_csv(path, design)
        header = path.read_text().splitlines()[0]
        assert header == "k0_x1,k0_x2,k1_x1,k1_x2"

    def test_read_covariates(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
        X = read_covariates(path)
        assert np.array_equal(X, [[1, 2], [3, 4]])

    def test_read_covariates_bad_header(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="x1,x2"):
            read_covariates(path)

    def test_read_covariates_reports_location(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("x1,x2\n1,2\n3,oops\n")
        with pytest.raises(ValueError, match=":3"):
            read_covariates(path)

    def test_read_covariates_wrong_width(self, tmp_path):
        path = tmp_path / "X.csv"
        path.write_text("x1,x2\n1,2,3\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            read_covariates(path)


@pytest.mark.parametrize("family", ["gaussian", "logistic", "cox"])
def test_predictors_reject_a_foreign_or_centered_design(family):
    rng = np.random.default_rng(21)
    W, X = random_setup(rng, n=40, d=2)
    raw = build_design(W, X, 1)
    if family == "gaussian":
        fit, predictor = fit_ols(forward_select(center(raw)), rng.standard_normal(40)), predict
    elif family == "logistic":
        y = np.arange(40) % 2
        fit, predictor = fit_logistic(forward_select(raw), y), predict_proba
    else:
        surv = SurvivalData(time=rng.exponential(size=40) + 0.01, event=np.ones(40))
        fit, predictor = fit_cox(forward_select(raw), surv), predict_relative_risk
    assert predictor(fit, raw).shape == (40,)
    assert max(fit.selected) >= 2  # an order-1 column, which an order-0 design lacks
    # a design of the fit's d holds its columns at any larger K, and predicts the same bits
    assert np.array_equal(predictor(fit, build_design(W, X, 2)), predictor(fit, raw))
    for foreign in (build_design(W, X[:, :1], 3), build_design(W, X, 0)):  # another d; a missing column
        with pytest.raises(ValueError, match="provenance"):
            predictor(fit, foreign)
    with pytest.raises(ValueError, match="raw"):
        predictor(fit, center(raw))


@pytest.mark.parametrize("family", ["gaussian", "logistic", "cox"])
def test_a_fit_read_back_from_its_report_gives_the_same_bits(family):
    toy = Path(__file__).parent / "data" / "toy"
    column = {name: np.loadtxt(toy / f"{name}.csv", skiprows=1) for name in ("response", "binary", "time", "event")}
    X = read_covariates(toy / "covariates.csv")
    raw = build_design(row_normalize(read_edge_list(toy / "edges.csv", n_nodes=X.shape[0])), X, 2)
    if family == "gaussian":
        fit, predictor = fit_ols(forward_select(center(raw)), column["response"]), predict
    elif family == "logistic":
        fit, predictor = fit_logistic(forward_select(raw), column["binary"]), predict_proba
    else:
        surv = SurvivalData(time=column["time"], event=column["event"])
        fit, predictor = fit_cox(forward_select(raw), surv), predict_relative_risk
    report = json.loads(json.dumps(fit.to_report()))
    rebuilt = type(fit).from_report(report, "fit.json")
    assert rebuilt.to_report() == report
    assert predictor(rebuilt, raw).tobytes() == predictor(fit, raw).tobytes()
    if family == "gaussian":
        assert order_test(rebuilt, None, k_max=2).to_dict() == order_test(fit, None, k_max=2).to_dict()


def _screen_sweep_design(rng, i):
    """A random design with duplicates, near-combinations (residual ratio
    1e-9 to 1e-2), zero columns and column scales from 1e-3 to 1e3; every
    tenth design has n <= p."""
    p = int(rng.integers(1, 12))
    n = int(rng.integers(1, p + 1)) if i % 10 == 0 else int(rng.integers(p + 1, 80))
    M = rng.standard_normal((n, p))
    for _ in range(int(rng.integers(0, 3))):
        j = int(rng.integers(0, p))
        kind = rng.integers(0, 3)
        if kind == 0 and j > 0:
            M[:, j] = M[:, rng.integers(0, j)] * rng.uniform(-2.0, 2.0)
        elif kind == 1 and j > 0:
            combo = M[:, :j] @ rng.standard_normal(j)
            noise = rng.standard_normal(n)
            ratio = 10.0 ** rng.uniform(-9.0, -2.0)
            M[:, j] = combo + ratio * np.linalg.norm(combo) * noise / np.linalg.norm(noise)
        elif kind == 2:
            M[:, j] = 0.0
    return M * 10.0 ** rng.uniform(-3.0, 3.0, size=p)


class TestGramCertificate:
    def test_fast_path_keeps_the_columns_the_scan_keeps(self):
        rng = np.random.default_rng(31)
        certified = {1e-10: 0, 1e-8: 0, 1e-2: 0}
        fell_back = dict.fromkeys(certified, 0)
        for i in range(400):
            M = _screen_sweep_design(rng, i)
            for tol in certified:
                assert independent_columns(M, tol) == _mgs_columns(M, tol), (i, tol)
                if _gram_certifies(M, tol):
                    certified[tol] += 1
                else:
                    fell_back[tol] += 1
        # the sweep reaches both sides of the certificate
        assert certified[1e-10] > 50 and certified[1e-8] > 50
        assert fell_back[1e-10] > 50 and fell_back[1e-8] > 50
        assert certified[1e-2] == 0

    def test_large_tol_never_certifies(self):
        # column 2 keeps 5e-3 of its norm: kept at tol 1e-8, dropped at
        # tol 1e-2; lambda_min ~ 1e-5 clears a threshold that ignores tol
        rng = np.random.default_rng(32)
        Q = np.linalg.qr(rng.standard_normal((50, 3)))[0]
        M = Q.copy()
        M[:, 2] = Q[:, 0] + Q[:, 1] + 5e-3 * np.sqrt(2.0) * Q[:, 2]
        assert _gram_certifies(M, 1e-8)
        assert independent_columns(M, 1e-8) == [0, 1, 2]
        assert not _gram_certifies(M, 1e-2)
        assert not _gram_certifies(Q, 1e-2)
        assert independent_columns(M, 1e-2) == _mgs_columns(M, 1e-2) == [0, 1]

    @pytest.mark.parametrize("case,n", [(1, 3000), (2, 1000), (3, 1000)])
    def test_simulation_designs_take_the_fast_path(self, case, n):
        # the full design (testing studies) and an 80% training design
        # (prediction studies), each centered after any row subset
        for seed in range(2):
            rng = np.random.default_rng([seed, case, n])
            graph, _ = graph_for_case(case, n, rng)
            raw = build_design(row_normalize(graph), covariates_for_case(case, n, 10, rng), 8)
            for design in (raw, raw.subset_rows(np.arange(int(0.8 * n)))):
                assert _gram_certifies(center(design).matrix, DEFAULT_SELECT_TOL)

    def test_benchmark_shaped_designs_take_the_fast_path(self):
        # ER graphs with edge probability n^-0.8, d = 10 rounded normal
        # covariates, K = 8: the raw 80% refit design at n = 5e4 and the
        # centered fit design at n = 1e5
        rng = np.random.default_rng(33)

        def design(n):
            W = row_normalize(gen_erdos_renyi(n, rng))
            return build_design(W, np.round(rng.standard_normal((n, 10)), 6), 8)

        refit = design(50_000).subset_rows(np.sort(rng.permutation(50_000)[:40_000]))
        for d in (refit, center(design(100_000))):
            assert _gram_certifies(d.matrix, DEFAULT_SELECT_TOL)
            assert forward_select(d).selected == list(range(90))
