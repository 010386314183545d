"""scipy's OpenBLAS runs npr's p x p solves on one thread and is restored
afterwards; the pin changes no bit of any fit and never touches numpy's
OpenBLAS copy."""

import ctypes
import glob
import json
import os
import threading

import numpy as np
import pytest
from scipy.special import expit

import npr._blas as blas
import npr._newton as newton
import npr.gaussian as gaussian
from npr.cox import SurvivalData, fit_cox
from npr.design import build_design, center, forward_select
from npr.exceptions import SingularMatrixError
from npr.graph import gen_erdos_renyi, row_normalize
from npr.logistic import fit_logistic

PINS = blas._load()
pytestmark = pytest.mark.skipif(PINS is None, reason="scipy does not run on its bundled OpenBLAS")


def _numpy_threads():
    """numpy's OpenBLAS thread count getter; it gives None on another BLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            return ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
    return lambda: None


NUMPY_THREADS = _numpy_threads()


@pytest.fixture
def two_threads():
    """scipy's count set to 2 for the test, restored afterwards."""
    get_threads, set_threads = PINS
    before = get_threads()
    set_threads(2)
    numpy_before = NUMPY_THREADS()
    yield get_threads
    assert get_threads() == 2
    assert NUMPY_THREADS() == numpy_before
    set_threads(before)


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
    probe = blas.one_thread(lambda: seen.append((two_threads(), NUMPY_THREADS())))
    probe()
    assert seen == [(1, NUMPY_THREADS())]


def test_count_restored_after_raise(two_threads):
    with pytest.raises(SingularMatrixError):
        newton._solve_information(-np.eye(3), np.ones(3))


def test_nested_calls_keep_the_pin_until_the_outermost_exit(two_threads):
    seen = []
    inner = blas.one_thread(lambda: seen.append(two_threads()))

    @blas.one_thread
    def outer():
        inner()
        seen.append(two_threads())

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
    assert blas._depth == 0


def test_decorator_is_the_identity_without_the_library(monkeypatch):
    monkeypatch.setattr(blas, "_load", lambda: None)

    def f():
        return 1

    assert blas.one_thread(f) is f
