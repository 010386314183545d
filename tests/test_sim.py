import json
import tracemalloc

import numpy as np
import pytest

from npr.design import PropagatedDesign
from npr.sim import (
    STUDY_D,
    STUDY_K,
    ScenarioConfig,
    _prediction_replicate,
    _test_replicate,
    covariates_for_case,
    graph_for_case,
    run_prediction_study,
    run_test_study,
    split_scenarios,
)


class TestScenarioConfig:
    def test_setting4_requires_case2(self):
        with pytest.raises(ValueError, match="case 2"):
            ScenarioConfig(case=1, setting=4, n=100)
        ScenarioConfig(case=2, setting=4, n=100)

    def test_bad_values(self):
        with pytest.raises(ValueError, match="case"):
            ScenarioConfig(case=4, setting=1, n=100)
        with pytest.raises(ValueError, match="setting"):
            ScenarioConfig(case=1, setting=5, n=100)
        with pytest.raises(ValueError, match="reps"):
            ScenarioConfig(case=1, setting=1, n=100, reps=0)
        with pytest.raises(ValueError, match="train_frac"):
            ScenarioConfig(case=1, setting=1, n=100, train_frac=1.0)
        with pytest.raises(ValueError, match="competitor"):
            ScenarioConfig(case=1, setting=1, n=100, competitor="gnn")
        for setting in (1, 2, 3):  # only setting 4's oracle predicts out of sample
            with pytest.raises(ValueError, match=f"competitor 'oracle' needs setting 4 .*not setting {setting}"):
                ScenarioConfig(case=1, setting=setting, n=100, competitor="oracle")

    def test_default_competitor_per_setting(self):
        assert ScenarioConfig(case=1, setting=1, n=50).resolved_competitor() == "lim"
        assert ScenarioConfig(case=1, setting=2, n=50).resolved_competitor() == "lim2"
        assert ScenarioConfig(case=1, setting=3, n=50).resolved_competitor() == "lim"
        assert ScenarioConfig(case=2, setting=4, n=50).resolved_competitor() == "oracle"


class TestCovariates:
    def test_case1_banded_correlation(self):
        rng = np.random.default_rng(0)
        X = covariates_for_case(1, 60_000, 4, rng)
        emp = np.corrcoef(X.T)
        idx = np.arange(4)
        target = 0.5 ** np.abs(idx[:, None] - idx[None, :])
        assert np.abs(emp - target).max() < 0.02

    def test_case3_structure(self):
        rng = np.random.default_rng(1)
        X = covariates_for_case(3, 60_000, 5, rng)
        emp = np.corrcoef(X.T)
        assert abs(emp[0, 1] - 0.5) < 0.02
        assert abs(emp[0, 4] - np.sqrt(0.5)) < 0.02
        assert np.abs(X.var(axis=0) - 1.0).max() < 0.05


class TestSplitScenarios:
    def test_linked_partition(self):
        rng = np.random.default_rng(2)
        graph, _ = graph_for_case(1, 100, rng)
        train, test, tg = split_scenarios(graph, 0.8, "linked", 7)
        assert tg is None
        assert len(train) == 80 and len(test) == 20
        assert set(train) | set(test) == set(range(100))
        assert set(train) & set(test) == set()

    def test_degenerate_fraction_rejected(self):
        rng = np.random.default_rng(3)
        graph, _ = graph_for_case(1, 50, rng)
        with pytest.raises(ValueError, match="degenerate"):
            split_scenarios(graph, 1.0, "linked", 0)
        with pytest.raises(ValueError, match="degenerate"):
            split_scenarios(graph, 0.0, "linked", 0)

    def test_isolated_generates_replacement_network(self):
        rng = np.random.default_rng(4)
        graph, _ = graph_for_case(1, 60, rng)
        train, test, tg = split_scenarios(graph, 0.8, "isolated", 5, case=1)
        assert tg is not None and tg is not graph
        assert tg.n_nodes == graph.n_nodes
        assert len(test) == 12

    def test_isolated_requires_case(self):
        rng = np.random.default_rng(5)
        graph, _ = graph_for_case(1, 40, rng)
        with pytest.raises(ValueError, match="case"):
            split_scenarios(graph, 0.8, "isolated", 5)

    def test_unknown_mode(self):
        rng = np.random.default_rng(6)
        graph, _ = graph_for_case(1, 40, rng)
        with pytest.raises(ValueError, match="mode"):
            split_scenarios(graph, 0.8, "transductive", 5)


class TestPredictionStudy:
    def test_deterministic_given_seed(self):
        cfg = ScenarioConfig(case=1, setting=1, n=200, reps=3, seed=11)
        r1 = run_prediction_study(cfg)
        r2 = run_prediction_study(cfg)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)

    def test_self_competitor_gives_unit_ratios(self):
        cfg = ScenarioConfig(case=1, setting=3, n=150, reps=2, seed=3, competitor="self")
        rep = run_prediction_study(cfg)
        assert rep.metrics["kappa2"]["mean"] == 1.0
        assert rep.metrics["kappa3"]["mean"] == 1.0
        assert rep.metrics["kappa4"]["mean"] == 1.0

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = ScenarioConfig(case=1, setting=1, n=150, reps=4, seed=21)
        monkeypatch.setenv("NPR_THREADS", "1")
        serial = run_prediction_study(cfg)
        monkeypatch.setenv("NPR_THREADS", "2")
        parallel = run_prediction_study(cfg)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )

    def test_setting4_oracle_competitor(self):
        # community node effects are independent of the covariates, so no
        # propagated-covariate fit can explain them: the oracle ratios sit
        # above one and shrink toward the information floor as n grows
        small = run_prediction_study(ScenarioConfig(case=2, setting=4, n=300, reps=4, seed=5))
        large = run_prediction_study(ScenarioConfig(case=2, setting=4, n=1200, reps=4, seed=5))
        for rep in (small, large):
            assert rep.metrics["kappa1"]["mean"] == rep.metrics["kappa2"]["mean"]
            assert rep.metrics["kappa2"]["mean"] > 1.0
            assert np.isfinite(rep.metrics["kappa4"]["mean"])
        assert large.metrics["kappa3"]["mean"] < small.metrics["kappa3"]["mean"]

    def test_insample_ratios_rise_with_n(self):
        # overfitting shrinks with sample size, pushing in-sample ratios
        # toward one
        small = run_prediction_study(ScenarioConfig(case=1, setting=1, n=300, reps=6, seed=9))
        large = run_prediction_study(ScenarioConfig(case=1, setting=1, n=900, reps=6, seed=9))
        assert large.metrics["kappa1"]["mean"] > small.metrics["kappa1"]["mean"]
        assert large.metrics["kappa2"]["mean"] > small.metrics["kappa2"]["mean"]

    def test_report_round_trips_to_json(self):
        cfg = ScenarioConfig(case=3, setting=2, n=150, reps=2, seed=8)
        rep = run_prediction_study(cfg)
        payload = json.loads(json.dumps(rep.to_dict()))
        assert payload["config"]["competitor"] == "lim2"
        assert set(payload["metrics"]) >= {"kappa1", "kappa2", "kappa3", "kappa4"}


class TestTestingStudy:
    def test_nulls_validated(self):
        cfg = ScenarioConfig(case=1, setting=3, n=200, reps=2, seed=1)
        with pytest.raises(ValueError, match="n_nulls"):
            run_test_study(cfg, n_nulls=4)

    def test_metrics_present_and_bounded(self):
        cfg = ScenarioConfig(case=1, setting=3, n=400, reps=10, seed=2)
        rep = run_test_study(cfg, n_nulls=3)
        m = rep.metrics
        for key in ("EP", "ES", "MP", "FWER", "CP"):
            assert 0.0 <= m[key] <= 1.0
        assert len(m["per_order_unadjusted_rejection"]) == 5
        assert sum(m["selected_order_distribution"]) == 10

    def test_deterministic(self):
        cfg = ScenarioConfig(case=2, setting=3, n=300, reps=4, seed=13)
        a = run_test_study(cfg, n_nulls=2)
        b = run_test_study(cfg, n_nulls=2)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_parallel_matches_serial_at_scale(self, monkeypatch):
        # n=3000 is large enough for OpenBLAS to thread the n x 90 products,
        # so a thread count that changed the bits would show here
        cfg = ScenarioConfig(case=1, setting=3, n=3000, reps=2, seed=41)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("NPR_THREADS", threads)
            rep = run_test_study(cfg, n_nulls=2)
            reports.append(json.dumps([rep.to_dict(), rep.replicates], sort_keys=True))
        assert reports[0] == reports[1]

    def test_signal_orders_detected_at_scale(self):
        cfg = ScenarioConfig(case=1, setting=3, n=2000, reps=10, seed=4)
        rep = run_test_study(cfg, n_nulls=3)
        # orders 0 and 1 carry signal; order 0 is essentially always caught
        per_order = rep.metrics["per_order_unadjusted_rejection"]
        assert per_order[0] > 0.9
        assert rep.metrics["ES"] < 0.3

    def test_type_one_error_shrinks_toward_level_with_n(self, pooled_test_study):
        # the per-test size runs above the nominal level in small samples
        # and approaches it as the network grows
        es = {}
        for n in (1000, 5000):
            cfg = ScenarioConfig(case=1, setting=3, n=n, reps=250, seed=31)
            es[n] = pooled_test_study(cfg, n_nulls=3).metrics["ES"]
        assert es[5000] < es[1000]
        assert abs(es[5000] - 0.05) < 0.025


def design_copies_at_peak(replicate, cfg, *args) -> float:
    """The tracemalloc peak of one replicate, in copies of its n x (K+1)d
    design.  A first, untraced run loads what the replicate imports lazily."""
    seed = np.random.SeedSequence(cfg.seed)
    replicate(cfg, *args, seed)
    tracemalloc.start()
    try:
        replicate(cfg, *args, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (cfg.n * STUDY_D * (STUDY_K + 1) * 8)


class TestStudyMemory:
    def test_a_prediction_study_never_copies_every_row_of_a_design(self, monkeypatch):
        # the in-sample fit centers the full design itself; only the split's rows are copied
        copied = []
        subset_rows = PropagatedDesign.subset_rows

        def spy(design, rows):
            copied.append((design.n_rows, len(rows)))
            return subset_rows(design, rows)

        monkeypatch.setattr(PropagatedDesign, "subset_rows", spy)
        monkeypatch.setenv("NPR_THREADS", "1")
        run_prediction_study(ScenarioConfig(case=3, setting=1, n=150, reps=2, seed=1))
        assert copied and all(rows < n for n, rows in copied)

    def test_a_testing_replicate_holds_no_raw_design_through_its_fit(self):
        # 3.27 copies here; holding the raw design through the fit reads 4.27
        cfg = ScenarioConfig(case=1, setting=3, n=3000, reps=1, seed=0)
        assert design_copies_at_peak(_test_replicate, cfg, 2) < 3.5

    def test_a_prediction_replicate_holds_no_full_row_copy(self):
        # 4.66-4.69 copies over four seeds here; a copy of every row before the in-sample fit reads 5.37-5.38
        cfg = ScenarioConfig(case=3, setting=1, n=1000, reps=1, seed=0)
        assert design_copies_at_peak(_prediction_replicate, cfg) < 5
