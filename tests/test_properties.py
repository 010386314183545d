"""Property-based checks of structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from npr.design import build_design, center, forward_select
from npr.gaussian import holm_reject
from npr.graph import DirectedGraph, propagate, row_normalize


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
            unique=True,
        )
    )
    edges = [(a, b) for a, b in pairs if a != b]
    return n, edges


@given(edge_lists())
@settings(max_examples=150, deadline=None)
def test_row_normalize_invariants(data):
    n, edges = data
    W = row_normalize(DirectedGraph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)))
    sums = W.row_sums()
    out_deg = np.zeros(n, dtype=int)
    for a, _ in edges:
        out_deg[a] += 1
    assert np.all(np.abs(sums[out_deg > 0] - 1.0) < 1e-12)
    assert np.all(sums[out_deg == 0] == 0.0)
    # every power stays row-substochastic
    ones = np.ones((n, 1))
    M = propagate(W, ones, 4)
    assert M.max() <= 1.0 + 1e-12
    assert M.min() >= -1e-15


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=10),
    st.floats(min_value=0.01, max_value=0.3),
)
@settings(max_examples=200, deadline=None)
def test_holm_step_down_monotonicity(pvals, alpha):
    rejected = holm_reject(pvals, alpha)
    p = np.asarray(pvals)
    # once the sorted walk stops rejecting, everything later is retained:
    # equivalently no retained p-value is smaller than a rejected one
    if rejected.any() and (~rejected).any():
        assert p[rejected].max() <= p[~rejected].min()
    # rejections never exceed the unadjusted rule
    assert np.all(p[rejected] <= alpha)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=3), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_centering_and_selection_invariants(n, d, seed):
    rng = np.random.default_rng(seed)
    # random sparse graph over explicit edge draws
    mask = rng.random((n, n)) < 0.2
    np.fill_diagonal(mask, False)
    edges = np.argwhere(mask)
    W = row_normalize(DirectedGraph(n, edges))
    X = rng.standard_normal((n, d))
    design = center(build_design(W, X, 2))
    M = design.full_matrix()
    assert np.abs(M.mean(axis=0)).max() < 1e-10
    if np.linalg.norm(M) > 0:
        selected = forward_select(design)
        sub = selected.selected_matrix()
        # admitted columns are linearly independent
        assert np.linalg.matrix_rank(sub, tol=1e-10) == sub.shape[1]
        # selection admits each column at most once, in scan order
        assert selected.selected == sorted(set(selected.selected))
