"""numpy's OpenBLAS runs npr's p x p LAPACK solves, each on one thread for
that call only, and each simulation replicate on one thread.  The bindings
give the bits of the ``scipy.linalg`` calls they replace, every pin restores
the count it found, and the QR runs at the caller's count."""

import ctypes
import glob
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
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

NUMPY = blas._load_numpy()
needs_numpy_copy = pytest.mark.skipif(NUMPY is None, reason="numpy does not run on its bundled OpenBLAS")


@pytest.fixture(scope="module", autouse=True)
def scipy_one_thread():
    """scipy's OpenBLAS on one thread, as the calls the bindings replace ran:
    from about p = 200 its Cholesky factor depends on the thread count."""
    libs = os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        before = lib.scipy_openblas_get_num_threads()
        lib.scipy_openblas_set_num_threads(1)
        yield
        lib.scipy_openblas_set_num_threads(before)
        return
    yield


def _same(x, y):
    """Equal bits, shape and layout."""
    assert x.dtype == y.dtype and x.shape == y.shape and x.flags.f_contiguous == y.flags.f_contiguous
    assert x.tobytes(order="A") == y.tobytes(order="A")


def _outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return call()
    except (np.linalg.LinAlgError, ValueError) as exc:
        return type(exc), str(exc)


def _same_outcome(ours, theirs):
    a, b = _outcome(ours), _outcome(theirs)
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        _same(a, b)
    else:
        assert a == b


@given(st.integers(1, 120), st.sampled_from("CF"), st.sampled_from(["one", "eye", "many"]), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_triangular_solve_matches_scipy_bitwise(p, order, rhs, singular, seed):
    rng = np.random.default_rng(seed)
    R = np.triu(rng.standard_normal((p, p)))
    if singular:
        R[rng.integers(p), :] = 0.0
    R = np.asarray(R, order=order)
    b = {"one": lambda: rng.standard_normal(p), "eye": lambda: np.eye(p),
         "many": lambda: rng.standard_normal((p, p))}[rhs]()
    _same_outcome(lambda: blas.solve_triangular(R, b), lambda: sla.solve_triangular(R, b))


def _symmetric(p, kind, rng):
    A = rng.standard_normal((p, p))
    if kind == "spd":
        return A @ A.T + p * np.eye(p)
    if kind == "low-rank":  # positive semi-definite: the factor may fail or succeed
        B = A[:, : max(1, p // 2)]
        return B @ B.T
    return (A + A.T) / 2  # indefinite


@given(st.integers(1, 120), st.sampled_from(["spd", "low-rank", "indefinite"]), st.sampled_from(["one", "many"]),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_cholesky_solve_matches_scipy_bitwise(p, kind, rhs, seed):
    rng = np.random.default_rng(seed)
    S = _symmetric(p, kind, rng)
    b = rng.standard_normal(p) if rhs == "one" else rng.standard_normal((p, p))
    _same_outcome(lambda: blas.cho_factor(S), lambda: sla.cho_factor(S)[0])
    _same_outcome(lambda: blas.cho_solve(blas.cho_factor(S), b), lambda: sla.cho_solve(sla.cho_factor(S), b))


def _fit_with(G, theta, n=100):
    """A gaussian fit whose order-0 restriction is every column: its Wald
    statistic solves ``G x = theta``."""
    p = len(theta)
    return gaussian.GaussianFit(theta_hat=theta, rss=float(n - p), sigma2_hat=1.0, gram=np.eye(p), gram_inverse=G,
                                std_errors=np.ones(p), column_means=np.zeros(p), y_mean=0.0, selected=list(range(p)),
                                K=0, d=p, n=n)


@given(st.integers(1, 60), st.sampled_from(["spd", "low-rank", "indefinite"]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_wald_statistic_solves_as_scipy_solve_then_lstsq(p, kind, seed):
    rng = np.random.default_rng(seed)
    G, theta = _symmetric(p, kind, rng), rng.standard_normal(p)
    try:
        with warnings.catch_warnings():  # scipy warns on an ill-conditioned G and still solves it
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            sol = sla.solve(G, theta, assume_a="pos")
    except np.linalg.LinAlgError:
        sol = sla.lstsq(G, theta)[0]
    expected = float(100 * (theta @ sol))  # n (theta' sol) / sigma2, at n = 100 and sigma2 = 1
    assert np.float64(gaussian.wald_statistic(_fit_with(G, theta), None, 0)["T"]).tobytes() == \
        np.float64(expected).tobytes()


@pytest.mark.parametrize("g", [2.5, -0.75, 0.0])
def test_wald_statistic_divides_a_one_by_one_system(g):
    theta = np.array([0.3])
    sol = theta / g if g else np.zeros(1)  # scipy's solve divides; a zero is singular, so lstsq gives 0
    assert gaussian.wald_statistic(_fit_with(np.array([[g]]), theta), None, 0)["T"] == float(100 * (theta @ sol))


@given(st.integers(1, 60), st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_lstsq_fallback_matches_scipy_bitwise(m, p, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((m, min(p, m))) @ rng.standard_normal((min(p, m), p))  # rank-deficient when p > m
    theta = rng.standard_normal(m)
    _same(np.linalg.lstsq(G, theta, rcond=np.finfo(np.float64).eps)[0], sla.lstsq(G, theta)[0])


@pytest.mark.parametrize("call, message", [
    (lambda: blas.solve_triangular(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2)), "infs or NaNs"),
    (lambda: blas.solve_triangular(np.eye(2), np.array([np.inf, 1.0])), "infs or NaNs"),
    (lambda: blas.cho_factor(np.array([[np.nan]])), "infs or NaNs"),
    (lambda: blas.cho_solve(np.eye(2), np.array([1.0, np.nan])), "infs or NaNs"),
    (lambda: blas.solve_triangular(np.ones((2, 3)), np.ones(2)), "expected square matrix"),
    (lambda: blas.cho_factor(np.ones(3)), "expected square matrix"),
    (lambda: blas.cho_solve(np.eye(2), np.ones(3)), "incompatible"),
    (lambda: blas.solve_triangular(np.eye(2), np.ones((2, 2, 1))), "incompatible"),
], ids=["triangular-matrix", "triangular-rhs", "factor", "solve-rhs", "not-square", "vector", "rows", "rank-3"])
def test_a_bad_input_raises_value_error_before_the_call(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@needs_numpy_copy
@pytest.mark.parametrize("args", [(b"U", 2, np.eye(2), 2), (b"U", 2, np.eye(2, dtype=np.float32).T, 2),
                                  (b"U", 2, np.asfortranarray(np.eye(2)))],
                         ids=["c-ordered", "float32", "too-few"])
def test_the_binding_refuses_what_lapack_cannot_read(args):
    with pytest.raises(ValueError):
        NUMPY.lapack("potrf", *args)


# numpy's thread count around the calls


@pytest.fixture
def two_threads():
    """numpy's count set to 2 for the test; the test must leave it there."""
    before = NUMPY.get_threads()
    NUMPY.set_threads(2)
    yield
    assert NUMPY.get_threads() == 2 and NUMPY._depth == 0
    NUMPY.set_threads(before)


@pytest.fixture
def probes(monkeypatch):
    """numpy's count as each LAPACK routine saw it, by routine."""
    seen = {}

    def probe(name, routine):
        def call(*args):
            seen.setdefault(name, []).append(NUMPY.get_threads())
            return routine(*args)
        return call

    for name, routine in list(NUMPY._routines.items()):
        monkeypatch.setitem(NUMPY._routines, name, probe(name, routine))
    return seen


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


def _all_fits(designs):
    centered, raw, y, label, surv = designs
    fit = gaussian.fit_ols(centered, y)
    return (_arrays(fit), json.dumps(gaussian.order_test(fit, centered, k_max=8).to_dict()),
            _arrays(fit_logistic(raw, label)), _arrays(fit_cox(raw, surv)))


@needs_numpy_copy
def test_fits_match_the_scipy_linalg_fallback_bitwise(two_threads, designs, monkeypatch):
    assert designs[0].matrix.shape[1] == len(designs[0].selected) == 90
    ours = _all_fits(designs)
    monkeypatch.setattr(blas, "_load_numpy", lambda: None)
    theirs = _all_fits(designs)
    for a, b in zip(ours, theirs):
        if isinstance(a, dict):
            _same_bits(a, b)
        else:
            assert a == b


def test_scipy_linalg_loads_only_on_the_fallback():
    code = ("import sys, numpy as np, npr._blas as blas\n"
            "from npr.design import build_design, center, forward_select\n"
            "from npr.gaussian import fit_ols\n"
            "from npr.graph import gen_erdos_renyi, row_normalize\n"
            "if sys.argv[1] == 'fallback':\n"
            "    blas._load_numpy = lambda: None\n"
            "rng = np.random.default_rng(1)\n"
            "design = forward_select(center(build_design(row_normalize(gen_erdos_renyi(200, rng)),"
            " rng.standard_normal((200, 2)), 2)))\n"
            "fit_ols(design, rng.standard_normal(200))\n"
            "print('scipy.linalg' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                                      os.environ.get("PYTHONPATH")]))}

    def loaded(path):
        out = subprocess.run([sys.executable, "-c", code, path], env=env, capture_output=True, text=True, check=True)
        return out.stdout.split()[-1] == "True"

    assert loaded("fallback")
    assert loaded("default") is (NUMPY is None)


@needs_numpy_copy
def test_count_is_one_inside_and_restored_after_return(two_threads, probes, designs):
    centered, raw, y, label, surv = designs
    gaussian.order_test(gaussian.fit_ols(centered, y), centered, k_max=8)
    fit_cox(raw, surv)
    assert set(probes) == {"trtrs", "potrf", "potrs"}
    assert {count for counts in probes.values() for count in counts} == {1}


@needs_numpy_copy
def test_qr_runs_at_the_callers_count(two_threads, probes, designs, monkeypatch):
    centered, _, y, _, _ = designs
    seen, qr = [], gaussian._qr
    monkeypatch.setattr(gaussian, "_qr", lambda A: (seen.append(NUMPY.get_threads()), qr(A))[1])
    gaussian.fit_ols(centered, y)
    assert seen == [2] and probes["trtrs"] == [1, 1]


@needs_numpy_copy
@pytest.mark.parametrize("call", [
    lambda: newton._solve_information(-np.eye(3), np.ones(3)),
    lambda: blas.solve_triangular(np.zeros((3, 3)), np.ones(3)),
    lambda: blas.cho_factor(-np.eye(3)),
], ids=["singular-information", "singular-triangle", "not-positive-definite"])
def test_count_restored_after_raise(two_threads, probes, call):
    with pytest.raises((SingularMatrixError, np.linalg.LinAlgError)):
        call()
    assert {count for counts in probes.values() for count in counts} == {1}


@needs_numpy_copy
def test_nested_calls_keep_the_pin_until_the_outermost_exit(two_threads, probes):
    seen = []

    @blas.all_one_thread
    def outer():
        blas.cho_solve(blas.cho_factor(np.eye(3)), np.ones(3))
        seen.append(NUMPY.get_threads())

    outer()
    assert seen == [1] and probes["potrs"] == [1]


@needs_numpy_copy
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


def test_decorator_is_the_identity_without_the_library(monkeypatch):
    monkeypatch.setattr(blas, "_load_numpy", lambda: None)

    def f():
        return 1

    assert blas.all_one_thread(f) is f


def _count_in_replicate(*args):
    return NUMPY.get_threads()


@needs_numpy_copy
@pytest.mark.parametrize("threads", ["1", "2"], ids=["serial", "pool"])
@pytest.mark.parametrize("replicate", ["_prediction_replicate", "_test_replicate"])
def test_count_is_one_inside_a_replicate(two_threads, monkeypatch, threads, replicate):
    # a forked pool worker inherits the patched replicate and returns its count
    monkeypatch.setenv("NPR_THREADS", threads)
    monkeypatch.setattr(sim, replicate, _count_in_replicate)
    cfg = ScenarioConfig(case=1, setting=3, n=200, reps=4, seed=3)
    assert sim._replicates(getattr(sim, replicate), cfg) == [1] * 4


@needs_numpy_copy
def test_count_restored_after_a_study(two_threads, probes):
    run_test_study(ScenarioConfig(case=1, setting=3, n=200, reps=2, seed=3), n_nulls=2)
    assert {count for counts in probes.values() for count in counts} == {1}


@needs_numpy_copy
def test_count_restored_after_a_study_raises(two_threads, monkeypatch):
    def fail(*args):
        raise FloatingPointError("replicate failed")

    monkeypatch.setenv("NPR_THREADS", "1")
    monkeypatch.setattr(sim, "_test_replicate", fail)
    with pytest.raises(FloatingPointError):
        run_test_study(ScenarioConfig(case=1, setting=3, n=200, reps=2, seed=3), n_nulls=2)


@needs_numpy_copy
def test_lapack_calls_nested_in_the_study_pin_from_two_threads(two_threads, probes):
    seen, errors = set(), []
    c = blas.cho_factor(np.eye(4) * 2)

    def solve():
        blas.cho_solve(c, np.ones(4))

    @blas.all_one_thread
    def replicate():
        for _ in range(50):
            solve()
            seen.add(NUMPY.get_threads())

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
    assert seen == {1} and set(probes["potrs"]) == {1} and len(probes["potrs"]) == 50 * 50 + 50


@needs_numpy_copy
def test_glm_fits_after_a_study_match_those_before(two_threads, designs):
    _, raw, _, label, surv = designs
    logit, cox = _arrays(fit_logistic(raw, label)), _arrays(fit_cox(raw, surv))
    run_test_study(ScenarioConfig(case=1, setting=3, n=3000, reps=1, seed=5), n_nulls=2)
    _same_bits(_arrays(fit_logistic(raw, label)), logit)
    _same_bits(_arrays(fit_cox(raw, surv)), cox)
