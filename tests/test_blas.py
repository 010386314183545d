"""OpenBLAS thread pins: scipy's copy runs npr's p x p solves on one thread,
and both copies run each simulation replicate on one thread.  Every pin
restores the counts it found, and changes no bit of any fit."""

import json
import sys
import threading

import numpy as np
import pytest
from scipy.special import expit

import npr._blas as blas
import npr._newton as newton
import npr.gaussian as gaussian
import npr.sim as sim
from npr.cox import SurvivalData, fit_cox
from npr.design import build_design, center, forward_select
from npr.exceptions import SingularMatrixError
from npr.graph import gen_erdos_renyi, row_normalize
from npr.logistic import fit_logistic
from npr.sim import ScenarioConfig, run_test_study

SCIPY = blas._load()
NUMPY = blas._load_numpy()
pytestmark = pytest.mark.skipif(
    SCIPY is None or NUMPY is None, reason="numpy or scipy does not run on its bundled OpenBLAS"
)


def _counts():
    """(numpy's, scipy's) OpenBLAS thread counts."""
    return NUMPY.get_threads(), SCIPY.get_threads()


@pytest.fixture
def two_threads():
    """Both counts set to 2 for the test; the test must leave them there."""
    before = _counts()
    NUMPY.set_threads(2)
    SCIPY.set_threads(2)
    yield _counts
    assert _counts() == (2, 2)
    NUMPY.set_threads(before[0])
    SCIPY.set_threads(before[1])


@pytest.fixture(scope="module")
def designs():
    n, d, K = 3000, 10, 8
    rng = np.random.default_rng(8)
    W = row_normalize(gen_erdos_renyi(n, rng))
    X = rng.standard_normal((n, d))
    raw = build_design(W, X, K)
    eta = raw.full_matrix()[:, : 3 * d] @ rng.normal(0.0, 0.2, 3 * d)
    y = eta + rng.standard_normal(n)
    label = (rng.random(n) < expit(eta)).astype(float)
    t_event = rng.exponential(1.0 / np.exp(eta))
    t_censor = rng.exponential(2.0, n)
    surv = SurvivalData(np.minimum(t_event, t_censor), (t_event <= t_censor).astype(int))
    return forward_select(center(raw)), forward_select(raw), y, label, surv


def _same_bits(a, b):
    assert a.keys() == b.keys()
    for key in a:
        x, y = np.asarray(a[key]), np.asarray(b[key])
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), key


def _arrays(fit):
    return {k: v for k, v in vars(fit).items() if isinstance(v, (np.ndarray, float, list))}


def test_pinned_fits_match_unpinned_bitwise(two_threads, designs, monkeypatch):
    centered, raw, y, label, surv = designs
    assert centered.matrix.shape[1] == len(centered.selected) == 90

    fit = gaussian.fit_ols(centered, y)
    _same_bits(_arrays(fit), _arrays(gaussian.fit_ols.__wrapped__(centered, y)))
    pinned = json.dumps(gaussian.order_test(fit, centered, k_max=8).to_dict())
    pinned_logit = _arrays(fit_logistic(raw, label))
    pinned_cox = _arrays(fit_cox(raw, surv))

    monkeypatch.setattr(gaussian, "wald_statistic", gaussian.wald_statistic.__wrapped__)
    monkeypatch.setattr(newton, "_solve_information", newton._solve_information.__wrapped__)
    assert json.dumps(gaussian.order_test(fit, centered, k_max=8).to_dict()) == pinned
    _same_bits(_arrays(fit_logistic(raw, label)), pinned_logit)
    _same_bits(_arrays(fit_cox(raw, surv)), pinned_cox)


def test_count_is_one_inside_and_restored_after_return(two_threads):
    seen = []
    probe = blas.one_thread(lambda: seen.append(two_threads()))
    probe()
    assert seen == [(2, 1)]


def test_count_restored_after_raise(two_threads):
    with pytest.raises(SingularMatrixError):
        newton._solve_information(-np.eye(3), np.ones(3))


def test_nested_calls_keep_the_pin_until_the_outermost_exit(two_threads):
    seen = []
    inner = blas.one_thread(lambda: seen.append(two_threads()[1]))

    @blas.one_thread
    def outer():
        inner()
        seen.append(two_threads()[1])

    outer()
    assert seen == [1, 1]


def test_concurrent_threads_restore_the_count(two_threads, designs):
    centered, raw, y, label, _ = designs
    errors = []

    def work(fn):
        try:
            for _ in range(3):
                fn()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=work, args=(lambda: gaussian.fit_ols(centered, y),)),
        threading.Thread(target=work, args=(lambda: fit_logistic(raw, label),)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert SCIPY._depth == 0


def test_decorator_is_the_identity_without_the_library(monkeypatch):
    monkeypatch.setattr(blas, "_load", lambda: None)
    monkeypatch.setattr(blas, "_load_numpy", lambda: None)

    def f():
        return 1

    assert blas.one_thread(f) is f
    assert blas.all_one_thread(f) is f


def _counts_in_replicate(*args):
    return _counts()


@pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pool"])
@pytest.mark.parametrize(
    "worker, replicate",
    [("_prediction_worker", "_prediction_replicate"), ("_test_worker", "_test_replicate")],
)
def test_both_counts_are_one_inside_a_replicate(two_threads, monkeypatch, threads, worker, replicate):
    # a forked pool worker inherits the patched replicate and returns its counts
    monkeypatch.setenv("NPR_THREADS", threads)
    monkeypatch.setattr(sim, replicate, _counts_in_replicate)
    assert sim._run_parallel(getattr(sim, worker), [()] * 4) == [(1, 1)] * 4


def test_counts_restored_after_a_study(two_threads):
    run_test_study(ScenarioConfig(case=1, setting=3, n=200, reps=2, seed=3), n_nulls=2)


def test_counts_restored_after_a_study_raises(two_threads, monkeypatch):
    def fail(*args):
        raise FloatingPointError("replicate failed")

    monkeypatch.setenv("NPR_THREADS", "1")
    monkeypatch.setattr(sim, "_test_replicate", fail)
    with pytest.raises(FloatingPointError):
        run_test_study(ScenarioConfig(case=1, setting=3, n=200, reps=2, seed=3), n_nulls=2)


def test_one_thread_nested_in_the_study_pin_from_two_threads(two_threads):
    seen, errors = set(), []
    solve = blas.one_thread(lambda: seen.add(("solve", two_threads()[1])))

    @blas.all_one_thread
    def replicate():
        for _ in range(50):
            solve()
            seen.add(("replicate", two_threads()))

    def work(fn):
        try:
            for _ in range(50):
                fn()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(fn,)) for fn in (replicate, solve)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert seen == {("solve", 1), ("replicate", (1, 1))}
    assert SCIPY._depth == NUMPY._depth == 0


def test_glm_fits_after_a_study_match_those_before(two_threads, designs):
    _, raw, _, label, surv = designs
    logit, cox = _arrays(fit_logistic(raw, label)), _arrays(fit_cox(raw, surv))
    run_test_study(ScenarioConfig(case=1, setting=3, n=3000, reps=1, seed=5), n_nulls=2)
    _same_bits(_arrays(fit_logistic(raw, label)), logit)
    _same_bits(_arrays(fit_cox(raw, surv)), cox)
