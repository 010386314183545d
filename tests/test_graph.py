import os
import re
import warnings

import numpy as np
import pytest

from npr.design import read_covariates
import npr.graph
from npr.graph import (
    DirectedGraph,
    _choice_without_replacement,
    _lemire,
    _sample_distinct_codes,
    gen_erdos_renyi,
    gen_powerlaw,
    gen_sbm,
    powerlaw_degree_pmf,
    propagate,
    read_edge_list,
    row_normalize,
    sample_powerlaw_degrees,
    spectral_bound_check,
    write_edge_list,
)


def star_graph():
    # four leaves all pointing at the hub (node 0)
    return DirectedGraph(n_nodes=5, edges=[(1, 0), (2, 0), (3, 0), (4, 0)])


class TestDirectedGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(n_nodes=3, edges=[(0, 0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(n_nodes=3, edges=[(0, 1), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(n_nodes=3, edges=[(0, 3)])

    def test_node_count_limit(self):
        # beyond the limit the int64 codes src*n_nodes+dst would wrap and two
        # distinct edges could share one
        with pytest.raises(ValueError, match="limit of 3037000499"):
            DirectedGraph(n_nodes=2**33, edges=[(0, 1), (2**31, 1)])
        n = 3_037_000_499
        assert DirectedGraph(n_nodes=n, edges=[(n - 1, n - 2), (n - 2, n - 1)]).n_edges == 2
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(n_nodes=n, edges=[(n - 1, n - 2), (n - 1, n - 2)])

    def test_equality_is_identity_and_graphs_hash(self):
        g = DirectedGraph(3, [[0, 1], [2, 1]])
        twin = DirectedGraph(3, [[0, 1], [2, 1]])
        assert g == g and g != twin
        assert hash(g) != hash(twin)
        assert {g: 1, twin: 2}[g] == 1

    def test_summary(self):
        g = DirectedGraph(n_nodes=4, edges=[(0, 1), (1, 2), (2, 3)])
        s = g.summary()
        assert s == {"n_nodes": 4, "n_edges": 3, "density": 3 / 12}


class TestRowNormalize:
    def test_two_cycle(self):
        W = row_normalize(DirectedGraph(2, [(0, 1), (1, 0)]))
        assert np.array_equal(W.toarray(), [[0, 1], [1, 0]])

    def test_uniform_split(self):
        W = row_normalize(DirectedGraph(3, [(0, 1), (0, 2)]))
        assert np.allclose(W.toarray()[0], [0, 0.5, 0.5])

    def test_star_by_hand(self):
        # enumerated on the 5-node instance: each leaf row has a single 1
        # at the hub, the hub row is identically zero
        W = row_normalize(star_graph()).toarray()
        expected = np.zeros((5, 5))
        expected[1:, 0] = 1.0
        assert np.array_equal(W, expected)

    def test_row_sums_are_zero_or_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g = gen_erdos_renyi(40, rng)
            W = row_normalize(g)
            sums = W.row_sums()
            out_deg = np.bincount(g.edges[:, 0], minlength=g.n_nodes) if g.n_edges else np.zeros(g.n_nodes)
            assert np.all(np.abs(sums[out_deg > 0] - 1.0) < 1e-12)
            assert np.all(sums[out_deg == 0] == 0.0)
            assert W.csr.data.min() >= 0

    @pytest.mark.parametrize(
        "g",
        [gen_erdos_renyi(500, s) for s in range(4)]
        + [gen_powerlaw(300, 4), gen_sbm(400, 5)[0], star_graph(), DirectedGraph(7, [(6, 0), (2, 5), (2, 1)])]
        + [DirectedGraph(1, np.empty((0, 2))), DirectedGraph(6, np.empty((0, 2)))],
    )
    def test_csr_arrays_equal_the_coo_conversion(self, g):
        # the COO build it replaces: csr_matrix((w, (src, dst))), then
        # sum_duplicates, which sorts the indices of each row
        from scipy import sparse

        src, dst = g.edges[:, 0], g.edges[:, 1]
        deg = np.bincount(src, minlength=g.n_nodes)
        ref = sparse.csr_matrix((1.0 / deg[src], (src, dst)), shape=(g.n_nodes, g.n_nodes))
        ref.sum_duplicates()
        W = row_normalize(g)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(W.csr, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert W.csr.shape == ref.shape
        assert np.array_equal(W.out_degrees, deg) and W.out_degrees.dtype == np.int64
        if g.n_nodes > 1:
            assert (W.out_degrees == 0).any()  # isolated nodes, rows of zeros


class TestPropagate:
    def test_k_zero_identity(self):
        W = row_normalize(star_graph())
        X = np.arange(10.0).reshape(5, 2)
        M = propagate(W, X, 0)
        assert M.shape == X.shape
        assert np.array_equal(M, X)

    def test_two_cycle_swap(self):
        W = row_normalize(DirectedGraph(2, [(0, 1), (1, 0)]))
        M = propagate(W, np.array([[1.0], [3.0]]), 2)
        assert np.array_equal(M, [[1, 3, 1], [3, 1, 3]])

    def test_matches_dense_power_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(5, 50))
            g = gen_erdos_renyi(n, rng)
            W = row_normalize(g)
            X = rng.standard_normal((n, 3))
            K = int(rng.integers(1, 6))
            M = propagate(W, X, K)
            assert M.shape == (n, 3 * (K + 1)) and M.flags.c_contiguous
            Wd = W.toarray()
            expected = X
            for k in range(1, K + 1):
                expected = Wd @ expected
                assert np.abs(M[:, 3 * k : 3 * (k + 1)] - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        W = row_normalize(star_graph())
        with pytest.raises(ValueError, match="rows"):
            propagate(W, np.zeros((4, 2)), 1)


class TestSpectralBound:
    def test_permutation_operator(self):
        W = row_normalize(DirectedGraph(2, [(0, 1), (1, 0)]))
        for k in (1, 2, 3):
            assert spectral_bound_check(W, k) == pytest.approx(1.0, abs=1e-12)

    def test_star_k1(self):
        # W'W for leaves->hub has a single nonzero diagonal entry equal to 4
        assert spectral_bound_check(row_normalize(star_graph()), 1) == pytest.approx(4.0, abs=1e-12)

    def test_random_8_node_bounded(self):
        rng = np.random.default_rng(2)
        g = gen_erdos_renyi(8, rng)
        assert spectral_bound_check(row_normalize(g), 3) <= 8 + 1e-9

    def test_bound_holds_across_generators(self):
        rng = np.random.default_rng(3)
        for gen in (gen_erdos_renyi, lambda n, r: gen_sbm(n, r)[0], gen_powerlaw):
            for _ in range(5):
                n = int(rng.integers(20, 60))
                W = row_normalize(gen(n, rng))
                for k in (1, 2, 4):
                    assert spectral_bound_check(W, k) <= n + 1e-9


class TestErdosRenyi:
    def test_deterministic_given_seed(self):
        a = gen_erdos_renyi(50, 1234)
        b = gen_erdos_renyi(50, 1234)
        assert np.array_equal(a.edges, b.edges)

    def test_n2_works(self):
        g = gen_erdos_renyi(2, 7)
        assert g.n_nodes == 2

    @pytest.mark.parametrize("total, count", [(40, 30), (500, 480), (3000 * 2999, 15_000)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_distinct_codes_equal_the_np_unique_reference(self, total, count, seed):
        # dense cases draw many repeats and take several batches
        def reference(rng, total, count):
            codes = np.empty(0, dtype=np.int64)
            while codes.size < count:
                need = count - codes.size
                batch = rng.integers(0, total, size=int(need * 1.1) + 16)
                codes = np.unique(np.concatenate([codes, batch]))
            return codes[rng.permutation(codes.size)[:count]]

        got = _sample_distinct_codes(np.random.default_rng(seed), total, count)
        want = reference(np.random.default_rng(seed), total, count)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_mean_edge_count(self):
        # binomial moments: 50 draws at n=1000, p = n^-0.8
        n, draws = 1000, 50
        p = n ** -0.8
        total = n * (n - 1)
        counts = [gen_erdos_renyi(n, 100 + i).n_edges for i in range(draws)]
        se = np.sqrt(total * p * (1 - p) / draws)
        assert abs(np.mean(counts) - total * p) < 3 * se


class TestSbm:
    def test_returns_labels(self):
        g, labels = gen_sbm(60, 5)
        assert labels.shape == (60,)
        assert set(np.unique(labels)) <= {0, 1, 2}

    def test_block_rates(self):
        n, draws = 900, 50
        p_in, p_out = n ** -0.75, 1.0 / n
        within_edges = between_edges = 0
        within_total = between_total = 0
        for i in range(draws):
            g, labels = gen_sbm(n, 500 + i)
            same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
            within_edges += int(same.sum())
            between_edges += int((~same).sum())
            counts = np.bincount(labels, minlength=3)
            w_tot = int((counts * (counts - 1)).sum())
            within_total += w_tot
            between_total += n * (n - 1) - w_tot
        for observed, total, p in (
            (within_edges, within_total, p_in),
            (between_edges, between_total, p_out),
        ):
            se = np.sqrt(total * p * (1 - p))
            assert abs(observed - total * p) < 3 * se

    def test_deterministic(self):
        g1, l1 = gen_sbm(40, 9)
        g2, l2 = gen_sbm(40, 9)
        assert np.array_equal(g1.edges, g2.edges) and np.array_equal(l1, l2)


class TestPowerlaw:
    def test_degree_truncation(self):
        g = gen_powerlaw(30, 11)
        in_deg = np.bincount(g.edges[:, 1], minlength=30)
        assert in_deg.max() <= 29
        assert in_deg.min() >= 1

    def test_sampled_frequencies_match_pmf(self):
        # multinomial check of the degree sampler against the normalized
        # k^-2.5 law, 1e5 draws, k <= 10
        n, size = 1000, 100_000
        rng = np.random.default_rng(21)
        draws = sample_powerlaw_degrees(n, size, rng)
        pmf = powerlaw_degree_pmf(n)
        for k in range(1, 11):
            observed = np.mean(draws == k)
            se = np.sqrt(pmf[k - 1] * (1 - pmf[k - 1]) / size)
            assert abs(observed - pmf[k - 1]) < 3 * se

    def test_graph_indegrees_are_the_draws(self):
        n = 200
        g = gen_powerlaw(n, 31)
        rng = np.random.default_rng(31)
        expected = sample_powerlaw_degrees(n, n, rng)
        in_deg = np.bincount(g.edges[:, 1], minlength=n)
        assert np.array_equal(in_deg, expected)

    # n = 10002 draws from N = 10001 nodes, where numpy's choice takes its
    # tail-shuffle branch for in-degrees above N // 50
    @pytest.mark.parametrize("n", [2, 30, 1000, 3000, 10002])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edges_equal_the_per_node_loop(self, n, seed):
        def reference(n, rng):
            in_degrees = sample_powerlaw_degrees(n, n, rng)
            if n - 1 > 10000:
                assert np.any(in_degrees > (n - 1) // 50)
            chunks = []
            for i in range(n):
                m = int(in_degrees[i])
                followers = rng.choice(n - 1, size=m, replace=False)
                followers = np.where(followers < i, followers, followers + 1)
                chunks.append(np.column_stack([followers, np.full(m, i, dtype=np.int64)]))
            return np.concatenate(chunks)

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = gen_powerlaw(n, rng).edges
        want = reference(n, ref_rng)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_implied_density(self):
        # the truncated discrete law fixes the expected density; at n=1000
        # the mean in-degree is about 1.90 giving roughly 0.19% density
        n = 1000
        pmf = powerlaw_degree_pmf(n)
        mean_deg = float((np.arange(1, n) * pmf).sum())
        densities = [gen_powerlaw(n, 700 + i).density for i in range(10)]
        assert abs(np.mean(densities) - mean_deg / (n - 1)) < 3e-4


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64]


def choice_loop(rng, N, sizes):
    return np.concatenate([rng.choice(N, size=int(m), replace=False) for m in sizes])


def assert_same_as_choice_loop(bit_generator, seed, N, sizes):
    rng, ref_rng = np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))
    got = _choice_without_replacement(rng, N, sizes)
    want = choice_loop(ref_rng, N, sizes)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # the generators go on alike: 64-bit, buffered 32-bit and float draws
    assert np.array_equal(rng.integers(0, 2**63, size=4), ref_rng.integers(0, 2**63, size=4))
    assert np.array_equal(rng.integers(0, 2**32, size=3, dtype=np.uint32), ref_rng.integers(0, 2**32, size=3, dtype=np.uint32))
    assert rng.random() == ref_rng.random()


def scalar_lemire(raw_values, bound):
    """numpy's bounded draw in 0..bound, one uint32 at a time: returns the
    value and the number of uint32 draws it took."""
    span = bound + 1
    threshold = (2**32 - 1 - bound) % span
    for used, x in enumerate(raw_values, start=1):
        m = x * span
        if m % 2**32 >= threshold:
            return m >> 32, used
    raise AssertionError("ran out of raw values")


class TestChoiceWithoutReplacement:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda bg: bg.__name__)
    @pytest.mark.parametrize("N", [1, 2, 999, 10000, 10001, 12000])
    @pytest.mark.parametrize("m", ["1", "N//50", "N//50+1", "N"])
    def test_equals_per_node_choice(self, bit_generator, N, m):
        size = {"1": 1, "N//50": max(1, N // 50), "N//50+1": N // 50 + 1, "N": N}[m]
        # the size alone, then between small sizes, so runs of Floyd draws
        # meet numpy's own tail-shuffle draws on both sides
        for seed, sizes in enumerate([[size], [1, size, min(N, 3), size, 2 if N > 1 else 1]]):
            assert_same_as_choice_loop(bit_generator, seed, N, sizes)

    def test_scalar_lemire_matches_numpy(self):
        # bound 2**31 rejects nearly half of all uint32 draws
        for bound in [1, 6, 999, 2**31, 2**32 - 2]:
            rng, raw_rng = np.random.default_rng(bound), np.random.default_rng(bound)
            want = rng.integers(0, bound + 1, size=200)
            raw = raw_rng.integers(0, 2**32, size=1000, dtype=np.uint32).tolist()
            got = []
            while len(got) < want.size:
                value, used = scalar_lemire(raw, bound)
                got.append(value)
                raw = raw[used:]
            assert got == want.tolist()

    def test_lemire_on_crafted_draws(self):
        # bound 2**31: threshold 2**31 - 1, and x * (2**31 + 1) has low word
        # (x << 31) + x mod 2**32
        bound = 2**31
        raws = [0, 1, 2**31 - 2, 2**31 - 1, 2**31, 2**32 - 1, 12345, 2**31 + 7]
        for x in raws:
            value, ok = _lemire(np.array([x], dtype=np.uint32), np.array([bound]))
            low = (x * (bound + 1)) % 2**32
            assert ok == (low >= 2**31 - 1)
            if ok:
                assert value.tolist() == [scalar_lemire([x], bound)[0]]
        assert not _lemire(np.array(raws, dtype=np.uint32), np.full(len(raws), bound))[1]
        # bound 0xFFFFFFFF is numpy's unbounded uint32: every draw is kept as is
        value, ok = _lemire(np.array(raws, dtype=np.uint32), np.full(len(raws), 2**32 - 1))
        assert ok and value.tolist() == raws

    def test_rejected_draw_redraws_node_by_node(self, monkeypatch):
        lemire, calls = npr.graph._lemire, []

        def rejecting_first(raw, bounds):
            calls.append(raw.size)
            values, ok = lemire(raw, bounds)
            return values, ok and len(calls) > 1

        monkeypatch.setattr(npr.graph, "_lemire", rejecting_first)
        sizes = [3, 1, 7, 2, 40, 1]
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _choice_without_replacement(rng, 999, sizes)
        # one bulk draw of every bounded value, then numpy's own choice
        assert calls == [2 * sum(sizes) - len(sizes)]
        assert np.array_equal(got, choice_loop(ref_rng, 999, sizes))
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("N", [2**31 + 1, 2**32, 2**32 + 5])
    def test_large_populations(self, N):
        # near 2**31 about half the bounded draws are rejected and redrawn;
        # 2**32 uses numpy's unbounded uint32, above it numpy's 64-bit draws,
        # which the bulk decode reads as rejected
        for seed in range(4):
            assert_same_as_choice_loop(np.random.PCG64, seed, N, [3, 5, 1, 2])


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = DirectedGraph(5, [(0, 1), (3, 2), (4, 0)])
        path = tmp_path / "edges.csv"
        write_edge_list(path, g)
        back = read_edge_list(path)
        assert back.n_nodes == 5
        assert np.array_equal(np.sort(back.edges, axis=0), np.sort(g.edges, axis=0))

    def test_explicit_node_count(self, tmp_path):
        path = tmp_path / "edges.csv"
        write_edge_list(path, DirectedGraph(3, [(0, 1)]))
        assert read_edge_list(path, n_nodes=10).n_nodes == 10

    def test_bad_header(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(ValueError, match="src,dst"):
            read_edge_list(path)

    def test_non_integer_reports_line(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n0,1\nx,2\n")
        with pytest.raises(ValueError, match=":3"):
            read_edge_list(path)

    def test_largest_int64_node_id_exceeds_the_node_limit(self, tmp_path):
        # the inferred n_nodes is 2**63, which no int64 edge code can hold
        path = tmp_path / "edges.csv"
        path.write_text("src,dst\n0,9223372036854775807\n")
        with pytest.raises(ValueError, match="limit of 3037000499"):
            read_edge_list(path)


@pytest.mark.parametrize(
    "reader, text, expected",
    [
        # blank and whitespace-only lines are skipped, \r\n line ends accepted
        (read_edge_list, "src,dst\r\n0,1\r\n \t \r\n\r\n2,3\r\n", [[0, 1], [2, 3]]),
        (read_edge_list, "src,dst\n", np.empty((0, 2))),
        (read_edge_list, "src,dst\n0,1,2\n1,2\n", ":2: expected 2 columns, got 3"),
        (read_edge_list, "src,dst\n0,1\n1,2\n2,3,4\n", ":4: expected 2 columns, got 3"),
        (read_edge_list, "src,dst\n0,1\n99999999999999999999,1\n", ":3: non-integer node id"),
        (read_edge_list, "src,dst\n0,1\n1.0,2\n", ":3: non-integer node id"),
        # quoted header, spaces around fields
        (read_covariates, '"x1","x2"\n 1.5 , -2 \n', [[1.5, -2.0]]),
        # text after '#' is a bad value, not a comment
        (read_covariates, "x1,x2\n1,2 # c\n", ":2: non-numeric value"),
        # non-finite values are left to forward selection
        (read_covariates, "x1,x2\nnan,inf\n", [[np.nan, np.inf]]),
        # digit separators are not plain ASCII decimals
        (read_covariates, "x1\n1\n\n1_000\n", ":4: non-numeric value"),
        (read_covariates, "x1,x2\n", ": no data rows"),
    ],
)
def test_csv_reader_rules(tmp_path, reader, text, expected):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=re.escape(f"in.csv{expected}")):
            reader(path)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = reader(path)
    got = got.edges if reader is read_edge_list else got
    np.testing.assert_array_equal(got, expected)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_csv_reader_reads_a_pipe_once():
    # a pipe cannot be opened again from the start, so the reader must not
    # take the path a second time for its fast read
    r, w = os.pipe()
    os.write(w, b"x1\n1.5\n\n2.5\n")
    os.close(w)
    try:
        got = read_covariates(f"/dev/fd/{r}")
    finally:
        os.close(r)
    np.testing.assert_array_equal(got, [[1.5], [2.5]])


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "text, expected",
    [
        (b"x1\n1.5\nabc\n", ":3: non-numeric value"),
        (b"x1\n1\n \n2\n2,3\n", ":5: expected 1 column, got 2"),
    ],
)
def test_csv_reader_names_a_bad_row_of_a_pipe(text, expected):
    # the bisect that finds the bad row works on the lines already read
    r, w = os.pipe()
    os.write(w, text)
    os.close(w)
    try:
        with pytest.raises(ValueError, match=re.escape(f"/dev/fd/{r}{expected}")):
            read_covariates(f"/dev/fd/{r}")
    finally:
        os.close(r)
