"""Directed graphs, row-stochastic propagation operators and random generators.

The propagation operator ``W`` is the row-normalized adjacency matrix: row i
holds weight ``1/out_degree(i)`` on each out-neighbor of node i.  Nodes with
no out-edges get an all-zero row (they receive no propagated information),
so powers ``W^k`` stay row-substochastic.  Propagation of a covariate matrix
is computed iteratively as sparse-times-dense products; ``W^k`` itself is
never materialized.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

# largest n with n*n - 1 <= 2**63 - 1, so every edge code src*n + dst fits int64
MAX_NODES = 3_037_000_499


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """A simple directed graph on nodes ``0..n_nodes-1``.

    Self-loops and duplicate edges are rejected at construction time.
    Graphs compare and hash by identity, as their edge arrays cannot.
    """

    n_nodes: int
    edges: np.ndarray  # shape (m, 2) int64, rows are (source, target)
    # the sorted edge codes src*n + dst of the duplicate check, which
    # row_normalize reads as CSR order
    _codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if self.n_nodes > MAX_NODES:
            raise ValueError(f"n_nodes {self.n_nodes} exceeds the limit of {MAX_NODES} nodes")
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n_nodes:
                bad = edges[((edges < 0) | (edges >= self.n_nodes)).any(axis=1)][0]
                raise ValueError(f"edge {bad[0]},{bad[1]}: endpoint out of range [0, n_nodes)")
            if np.any(loops := edges[:, 0] == edges[:, 1]):
                bad = edges[loops][0]
                raise ValueError(f"edge {bad[0]},{bad[1]}: self-loops are not allowed")
        codes = np.sort(edges[:, 0] * self.n_nodes + edges[:, 1])
        if np.any(repeated := codes[1:] == codes[:-1]):
            src, dst = divmod(int(codes[1:][repeated][0]), self.n_nodes)
            raise ValueError(f"edge {src},{dst}: duplicate edges are not allowed")
        object.__setattr__(self, "_codes", codes)

    @property
    def n_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def density(self) -> float:
        possible = self.n_nodes * (self.n_nodes - 1)
        return self.n_edges / possible if possible else 0.0

    def summary(self) -> dict:
        """JSON-ready summary: node count, edge count and density."""
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "density": self.density,
        }


@dataclass(frozen=True)
class RowStochasticOperator:
    """Row-normalized adjacency operator stored in compressed sparse row form.

    Every row with at least one out-neighbor carries uniform weights summing
    to one; rows of isolated nodes are exactly zero.  Immutable after
    construction and safe to share across threads.
    """

    n_nodes: int
    csr: sparse.csr_matrix = field(repr=False)
    out_degrees: np.ndarray = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``W @ x`` for a vector or matrix with n_nodes rows."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.n_nodes:
            raise ValueError(
                f"operand has {x.shape[0]} rows, operator expects {self.n_nodes}"
            )
        return self.csr @ x

    def toarray(self) -> np.ndarray:
        return self.csr.toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.csr.sum(axis=1)).ravel()


def row_normalize(g: DirectedGraph) -> RowStochasticOperator:
    """Build the row-stochastic operator of a graph.

    Each existing edge (i, j) receives weight ``1/out_degree(i)``; nodes
    without out-edges keep an all-zero row.
    """
    n = g.n_nodes
    # the graph's sorted edge codes give the CSR arrays directly: rows in
    # order, column indices sorted within each row (edges are distinct)
    rows, cols = np.divmod(g._codes, n)
    out_deg = np.bincount(g.edges[:, 0], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_deg, out=indptr[1:])
    mat = sparse.csr_matrix((1.0 / out_deg[rows], cols, indptr), shape=(n, n))
    return RowStochasticOperator(n_nodes=n, csr=mat, out_degrees=out_deg)


def propagate(W: RowStochasticOperator, X: np.ndarray, K: int) -> np.ndarray:
    """Return ``(X, WX, ..., W^K X)`` side by side in one C-ordered
    ``(n, (K+1)d)`` array, block k in columns ``k*d`` to ``(k+1)*d``.

    Each block is W applied to the previous one, costing O(|E| * d) per
    step, and is written into its columns as it is made; only the last
    product is held besides the result.
    """
    if K < 0:
        raise ValueError("K must be non-negative")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.shape[0] != W.n_nodes:
        raise ValueError(
            f"X has {X.shape[0]} rows but operator has {W.n_nodes} nodes"
        )
    n, d = X.shape
    M = np.empty((n, (K + 1) * d))
    M[:, :d] = prev = X
    for k in range(1, K + 1):
        prev = W.csr @ prev
        M[:, k * d : (k + 1) * d] = prev
    return M


def spectral_bound_check(W: RowStochasticOperator, k: int) -> float:
    """Largest eigenvalue of ``(W^k)' W^k``, i.e. the squared top singular
    value of ``W^k``.

    Intended for diagnostics and tests on small graphs; cost is O(k |E| n)
    plus one dense symmetric eigensolve.  For any row-normalized operator
    the returned value never exceeds n_nodes.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    Wk = np.eye(W.n_nodes)
    for _ in range(k):
        Wk = W.csr @ Wk
    gram = Wk.T @ Wk
    return float(np.linalg.eigvalsh(gram)[-1])


def _sample_distinct_codes(rng: np.random.Generator, total: int, count: int) -> np.ndarray:
    """Sample ``count`` distinct integers from ``[0, total)`` uniformly,
    in random order.

    Duplicates are rejected batch by batch; that is cheap because the
    target graphs are sparse, so ``count`` is far below ``total``.
    """
    if count > total:
        raise ValueError("cannot sample more pairs than exist")
    codes = np.empty(0, dtype=np.int64)
    while codes.size < count:
        need = count - codes.size
        batch = rng.integers(0, total, size=int(need * 1.1) + 16)
        codes = np.concatenate([codes, batch])
        # np.unique's result, without its hash pass: sort, drop repeats
        codes.sort()
        first = np.empty(codes.size, dtype=bool)
        first[0] = True
        np.not_equal(codes[1:], codes[:-1], out=first[1:])
        codes = codes[first]
    # keep a uniformly random subset of exactly `count`
    return codes[rng.permutation(codes.size)[:count]]


def _sample_ordered_pairs(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Sample ``count`` distinct ordered pairs (i, j), i != j, uniformly.

    Pairs are encoded as i*(n-1) + r with the r-th non-i column, so
    self-pairs never occur.
    """
    codes = _sample_distinct_codes(rng, n * (n - 1), count)
    src = codes // (n - 1)
    rem = codes % (n - 1)
    dst = np.where(rem < src, rem, rem + 1)
    return np.column_stack([src, dst])


def gen_erdos_renyi(n: int, seed) -> DirectedGraph:
    """Erdős–Rényi directed graph with edge probability ``n**-0.8``.

    Every ordered pair (i, j), i != j, is included independently.  At
    n = 1000 this gives an expected density of about 0.4%.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    p = float(n) ** -0.8
    total = n * (n - 1)
    m = rng.binomial(total, p)
    edges = _sample_ordered_pairs(rng, n, int(m))
    return DirectedGraph(n_nodes=n, edges=edges)


def gen_sbm(n: int, seed) -> tuple[DirectedGraph, np.ndarray]:
    """Three-block stochastic block model.

    Nodes join one of three blocks uniformly at random; within-block edge
    probability is ``n**-0.75`` and between-block probability ``n**-1``.
    Returns the graph together with the 0-based block labels so that
    downstream generators can reuse the community assignment.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    p_within = float(n) ** -0.75
    p_between = 1.0 / n
    members = [np.flatnonzero(labels == b) for b in range(3)]
    chunks = []
    for a in range(3):
        for b in range(3):
            na, nb = members[a].size, members[b].size
            total = na * nb - (na if a == b else 0)
            if total <= 0:
                continue
            prob = p_within if a == b else p_between
            m = int(rng.binomial(total, prob))
            if m == 0:
                continue
            if a == b:
                pairs = _sample_ordered_pairs(rng, na, m)
                chunks.append(
                    np.column_stack([members[a][pairs[:, 0]], members[a][pairs[:, 1]]])
                )
            else:
                codes = _sample_distinct_codes(rng, total, m)
                chunks.append(
                    np.column_stack([members[a][codes // nb], members[b][codes % nb]])
                )
    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    return DirectedGraph(n_nodes=n, edges=edges), labels


def powerlaw_degree_pmf(n: int, exponent: float = 2.5) -> np.ndarray:
    """Normalized pmf proportional to ``k**-exponent`` on 1..n-1."""
    k = np.arange(1, n, dtype=np.float64)
    pmf = k ** -exponent
    return pmf / pmf.sum()


def sample_powerlaw_degrees(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw in-degrees by inverse cdf from the truncated power-law pmf."""
    pmf = powerlaw_degree_pmf(n)
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    degrees = 1 + np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(degrees, n - 1)


def _lemire(raw: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, bool]:
    """Values in ``0..bounds`` from uint32 draws ``raw`` by Lemire's
    multiply-shift, as numpy's bounded integers make them.

    The flag is False when numpy would have rejected some draw (the low
    word of ``raw * (bound + 1)`` below ``2**32 mod (bound + 1)``) and
    drawn again; the values are then not numpy's.  A bound of ``2**32`` or
    more, which numpy draws from 64 bits, always reads as rejected.
    """
    span = bounds.astype(np.uint64) + np.uint64(1)
    prod = raw.astype(np.uint64) * span
    low = prod & np.uint64(0xFFFFFFFF)
    rejected = low < np.uint64(1 << 32) % span
    return (prod >> np.uint64(32)).astype(np.int64), not rejected.any()


def _floyd_run(rng: np.random.Generator, N: int, sizes: np.ndarray) -> np.ndarray:
    """``rng.choice(N, size=m, replace=False)`` for each m in ``sizes``,
    concatenated, for sizes that numpy draws by Floyd's algorithm.

    numpy draws ``t = bounded(j)`` for ``j = N-m .. N-1`` and keeps ``t``,
    or ``j`` when ``t`` is already kept (Floyd's sampling); it then
    shuffles the m values by Fisher-Yates, swapping position ``i`` with
    ``bounded(i)`` for ``i = m-1 .. 1``.  ``bounded(b)`` takes one uint32
    draw per try, and none when ``b = 0``, so the whole run's draws are
    made in one call and decoded with ``_lemire``.  If numpy would have
    rejected one, the generator goes back to where it was and the run is
    drawn node by node.
    """
    state = rng.bit_generator.state
    # one segment per node: its Floyd bounds N-m..N-1, then its shuffle
    # bounds m-1..1
    seg = 2 * sizes - 1
    ends = np.cumsum(seg)
    starts = ends - seg
    node = np.repeat(np.arange(sizes.size), seg)
    pos = np.arange(ends[-1]) - starts[node]
    m = sizes[node]
    floyd = pos < m
    bounds = np.where(floyd, N - m + pos, 2 * m - 1 - pos)
    drawn = bounds > 0
    raw = rng.integers(0, 1 << 32, size=int(np.count_nonzero(drawn)), dtype=np.uint32)
    values = np.zeros(bounds.size, dtype=np.int64)
    values[drawn], ok = _lemire(raw, bounds[drawn])
    if not ok:
        rng.bit_generator.state = state
        return np.concatenate([rng.choice(N, size=int(k), replace=False) for k in sizes])

    picks = values[floyd]
    base = np.cumsum(sizes) - sizes
    # Floyd keeps every draw of a node unless two of them are equal; only
    # such nodes take the "else j" rule, one value at a time
    codes = np.sort(node[floyd] * (N + 1) + picks)
    for k in np.unique(codes[1:][codes[1:] == codes[:-1]] // (N + 1)).tolist():
        mk, kept = int(sizes[k]), set()
        for r in range(mk):
            t = int(picks[base[k] + r])
            if t in kept:
                t = picks[base[k] + r] = N - mk + r
            kept.add(t)

    # Fisher-Yates, one step for all nodes at once: with nodes by size,
    # largest first, step s moves the first count[s] of them
    order = np.argsort(-sizes, kind="stable")
    sizes, base, first = sizes[order], base[order], (starts + sizes)[order]
    count = np.searchsorted(1 - sizes, -np.arange(sizes[0] - 1), side="left")
    for s, c in enumerate(count.tolist()):
        i = base[:c] + sizes[:c] - 1 - s
        r = base[:c] + values[first[:c] + s]
        picks[i], picks[r] = picks[r], picks[i]
    return picks


def _choice_without_replacement(rng: np.random.Generator, N: int, sizes) -> np.ndarray:
    """``np.concatenate([rng.choice(N, size=m, replace=False) for m in
    sizes])``, each size in 1..N, leaving ``rng`` in the state that loop
    leaves it in.

    Runs of sizes that numpy draws by Floyd's algorithm are drawn in bulk
    by ``_floyd_run``.  numpy instead shuffles the tail of ``arange(N)``
    when ``N > 10000`` and ``m > N // 50``; those sizes are drawn by
    ``rng.choice`` itself, in their place between the runs.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    own = np.flatnonzero((N > 10000) & (sizes > N // 50)).tolist()
    chunks, start = [], 0
    for stop in [*own, sizes.size]:
        if stop > start:
            chunks.append(_floyd_run(rng, N, sizes[start:stop]))
        if stop < sizes.size:
            chunks.append(rng.choice(N, size=int(sizes[stop]), replace=False))
        start = stop + 1
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def gen_powerlaw(n: int, seed) -> DirectedGraph:
    """Heavy-tailed graph: in-degrees follow a discrete power law.

    Each node's in-degree is drawn from the pmf proportional to ``k**-2.5``
    truncated to [1, n-1]; its followers (edge sources) are then chosen
    uniformly without replacement among the other nodes.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    in_degrees = sample_powerlaw_degrees(n, n, rng)
    # node i's followers are drawn from the n-1 other nodes, in node order
    src = _choice_without_replacement(rng, n - 1, in_degrees)
    dst = np.repeat(np.arange(n), in_degrees)
    src += src >= dst
    return DirectedGraph(n_nodes=n, edges=np.column_stack([src, dst]))


_LOADTXT = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 2}


def _parsed(source, dtype, width: int, skiprows: int = 0) -> np.ndarray | None:
    """``np.loadtxt`` of a path or of lines, or ``None`` when a value does
    not parse or the rows are not ``width`` wide."""
    try:
        data = np.loadtxt(source, dtype=dtype, skiprows=skiprows, **_LOADTXT)
    except ValueError:
        return None
    return data if data.shape[1] == width else None


def _read_csv(path, header: list[str] | None, dtype, allow_empty: bool = False) -> np.ndarray:
    """Parse an input CSV file: one header line, then rows of numbers.

    ``header`` lists the expected column names; ``None`` stands for
    ``x1,...,xd`` with d read from the file.  Header fields are compared
    after stripping, so quoted names and surrounding spaces are allowed.
    Blank and whitespace-only lines are skipped, every data row must have
    the header's width and every value must parse as ``dtype`` (int64 node
    ids or float64).  Returns a ``(rows, width)`` array.  A bad header
    raises ``ValueError`` naming ``path``, a bad row one naming
    ``path:line``.
    """
    with open(path) as fh:
        line = fh.readline()
        fields = [f.strip() for f in next(csv.reader([line]), [])]
        if header is None and not line:
            raise ValueError(f"{path}: empty file")
        names = header or [f"x{i + 1}" for i in range(len(fields))]
        if fields != names:
            shown = ",".join(names)
            raise ValueError(f"{path}: expected header " + (shown if header is None else f"'{shown}'"))
        width = len(names)
        numbered = ((no, row) for no, row in enumerate(fh, start=2) if not row.isspace())
        first = next(numbered, None)
        if first is None:
            if not allow_empty:
                raise ValueError(f"{path}: no data rows")
            return np.empty((0, width), dtype=dtype)
        # numpy's chunked C reader runs only on a path (a file object is
        # fed to it line by line), so a regular file is read again by its
        # path.  That reader skips empty lines but raises on whitespace-only
        # ones; after any raise, and on a pipe, which cannot be read twice,
        # the rows come from the filtered lines kept here.
        data = _parsed(path, dtype, width, skiprows=1) if os.path.isfile(path) else None
        if data is not None:
            return data
        numbered = [first, *numbered]
    data = _parsed([row for _, row in numbered], dtype, width)
    if data is not None:
        return data

    # Some row is bad: halve the rows until the first bad one is left.
    lo, hi = 0, len(numbered)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        good = _parsed([row for _, row in numbered[lo:mid]], dtype, width) is not None
        lo, hi = (mid, hi) if good else (lo, mid)
    lineno, row = numbered[lo]
    got = len(next(csv.reader([row])))
    if got != width:
        raise ValueError(f"{path}:{lineno}: expected {width} column{'s' * (width != 1)}, got {got}")
    what = "non-integer node id" if np.issubdtype(dtype, np.integer) else "non-numeric value"
    raise ValueError(f"{path}:{lineno}: {what}")


def read_edge_list(path, n_nodes: int | None = None) -> DirectedGraph:
    """Read a directed graph from a CSV file with header ``src,dst``.

    One 0-based integer edge per line.  When ``n_nodes`` is omitted it is
    inferred as one plus the largest node id.  An edge the graph refuses
    raises ``ValueError`` naming ``path`` and the edge.
    """
    edges = _read_csv(path, ["src", "dst"], np.int64, allow_empty=True)
    if n_nodes is None:
        n_nodes = int(edges.max()) + 1 if edges.size else 1
    try:
        return DirectedGraph(n_nodes=n_nodes, edges=edges)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_edge_list(path, g: DirectedGraph) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        writer.writerows(g.edges.tolist())
