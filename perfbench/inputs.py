"""Seeded inputs for the fit workloads, made with numpy and scipy alone.

Nothing here calls ``npr``: the graph, covariates, responses and the
reference propagated design come from this file, so a change to the
package's own generators cannot change what the fit workloads measure.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
from scipy import sparse

D = 10  # covariates per node
K = 8  # propagation orders in every fitted design
TRUE_ORDERS = 3  # the response depends on W^0 X, W^1 X and W^2 X


def sample_edges(n: int, rng: np.random.Generator) -> np.ndarray:
    """Distinct directed edges (i, j), i != j, each present with p = n^-0.8.

    The edge count is binomial; pairs are drawn as codes over the
    n(n-1) ordered non-self pairs and de-duplicated by sorting.
    """
    total = n * (n - 1)
    m = int(rng.binomial(total, float(n) ** -0.8))
    codes = np.empty(0, dtype=np.int64)
    while codes.size < m:
        draw = rng.integers(0, total, size=m - codes.size + m // 50 + 64)
        codes = np.concatenate([codes, draw])
        codes.sort()
        codes = codes[np.concatenate([[True], codes[1:] != codes[:-1]])]
    codes = codes[rng.permutation(codes.size)[:m]]
    src = codes // (n - 1)
    rem = codes % (n - 1)
    dst = np.where(rem < src, rem, rem + 1)
    return np.column_stack([src, dst])


def row_normalized(n: int, edges: np.ndarray) -> sparse.csr_matrix:
    """Adjacency with weight 1/out-degree on every edge; empty rows stay 0."""
    out_deg = np.bincount(edges[:, 0], minlength=n)
    weights = 1.0 / out_deg[edges[:, 0]]
    return sparse.csr_matrix((weights, (edges[:, 0], edges[:, 1])), shape=(n, n))


def propagated(W: sparse.csr_matrix, X: np.ndarray, k_max: int = K) -> np.ndarray:
    """The raw design (X, WX, ..., W^k_max X) as one (n, (k_max+1)d) array."""
    blocks = [X]
    for _ in range(k_max):
        blocks.append(W @ blocks[-1])
    return np.hstack(blocks)


def covariates(n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard normal covariates, rounded to 6 decimals so the CSV text
    parses back to exactly these values."""
    return np.round(rng.standard_normal((n, D)), 6)


def true_coefficients(rng: np.random.Generator) -> np.ndarray:
    """Coefficients of orders 0..TRUE_ORDERS-1, flattened in design column
    order; every one is bounded away from zero."""
    signs = rng.choice([-1.0, 1.0], size=TRUE_ORDERS * D)
    return signs * rng.uniform(0.5, 1.5, size=TRUE_ORDERS * D)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_edges(path, edges: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("src,dst\n")
        fh.write("\n".join(f"{a},{b}" for a, b in edges.tolist()))
        fh.write("\n")


def write_covariates(path, X: np.ndarray) -> None:
    header = ",".join(f"x{j + 1}" for j in range(X.shape[1]))
    np.savetxt(path, X, fmt="%.6f", delimiter=",", header=header, comments="")


def write_column(path, name: str, values: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(name + "\n")
        fh.write("\n".join(repr(float(v)) for v in values))
        fh.write("\n")


def make_fit_csv(directory, n: int, seed: int) -> dict:
    """CSV inputs for ``npr fit/test/predict`` plus the reference answers.

    ``y = sum_{k<3} W^k X lambda_k + N(0, 1)``.  The noise is redrawn, on
    the same seeded stream, until the reference Wald tests select order 3
    at level 0.05, so the order the program must report is known before
    it runs.
    """
    from reference import order_test

    rng = np.random.default_rng([seed, 1])
    edges = sample_edges(n, rng)
    X = covariates(n, rng)
    M = propagated(row_normalized(n, edges), X)
    signal = M[:, : TRUE_ORDERS * D] @ true_coefficients(rng)
    for _ in range(20):
        y = signal + rng.standard_normal(n)
        ref = order_test(M, y)
        if ref["selected_order"] == TRUE_ORDERS:
            break
    else:
        raise RuntimeError("no noise draw gave the reference order 3")
    paths = {name: os.path.join(directory, f"{name}.csv") for name in ("edges", "covariates", "response")}
    write_edges(paths["edges"], edges)
    write_covariates(paths["covariates"], X)
    write_column(paths["response"], "y", y)
    np.savez(
        os.path.join(directory, "reference.npz"),
        theta=ref["theta"],
        fitted=ref["fitted"],
        selected_order=ref["selected_order"],
        y_std=y.std(),
    )
    return {name: sha256_file(p) for name, p in paths.items()}


def make_glm(directory, n: int, seed: int) -> dict:
    """Graph, covariates, Bernoulli labels, exponential survival times and
    the reference propagated design for the logistic and cox refits."""
    rng = np.random.default_rng([seed, 2])
    edges = sample_edges(n, rng)
    X = covariates(n, rng)
    M = propagated(row_normalized(n, edges), X)
    eta = M[:, : TRUE_ORDERS * D] @ true_coefficients(rng)
    eta /= eta.std()
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.float64)
    t_event = rng.exponential(np.exp(-eta))
    t_censor = rng.exponential(2.0, size=n)
    time = np.minimum(t_event, t_censor)
    event = (t_event <= t_censor).astype(np.int64)
    arrays = {"edges": edges, "X": X, "y": y, "time": time, "event": event}
    np.savez(os.path.join(directory, "glm.npz"), M=M, **arrays)
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}


MAKERS = {"fit-csv": make_fit_csv, "glm-refit": make_glm}


def generate(kind: str, directory, n: int, seed: int) -> dict:
    """Make the inputs in a child process, so the memory that making them
    takes never counts in this process's peak resident set."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), kind, str(directory), str(n), str(seed)],
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


if __name__ == "__main__":
    kind, directory, n, seed = sys.argv[1:5]
    print(json.dumps(MAKERS[kind](directory, int(n), int(seed))))
