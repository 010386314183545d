"""Augmented design matrices built from propagated covariates.

A :class:`PropagatedDesign` stacks the blocks ``X, WX, ..., W^K X``, so
its K gives every column's propagation order and covariate.  Forward
selection screens out (nearly) linearly dependent columns; centering
removes column means, which is the projection that kills the intercept
for the Gaussian family.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .exceptions import DegenerateDesignError, InputValueError
from .graph import RowStochasticOperator, _read_csv, propagate

DEFAULT_SELECT_TOL = 1e-8
OUT_OF_RANGE = "values too large or too small: the fit's numbers do not fit a float in their units"


def finite_prediction(values: np.ndarray) -> np.ndarray:
    """``values``, or ``InputValueError`` naming the covariates when one is
    not finite: a covariate the fit uses is not finite, or a product overflows."""
    if not np.isfinite(values).all():
        raise InputValueError("a prediction is not finite: a covariate the fit uses, or its propagation, "
                              "is not finite or too large", "covariates")
    return values


def column_names(columns, d: int) -> list[str]:
    """``k{order}_x{covariate}`` (1-based x) for each column c of a layout of ``d`` covariates."""
    return [f"k{c // d}_x{c % d + 1}" for c in columns]


@dataclass(eq=False)
class PropagatedDesign:
    """The propagated design ``(X, WX, ..., W^K X)``.

    ``matrix`` holds every column in one C-contiguous ``(n, (K+1)d)``
    array; column c is covariate ``c % d`` diffused ``c // d`` steps.
    ``selected`` lists the column indices admitted by forward selection, in
    scan order.  ``column_means`` holds the means that :func:`center`
    subtracted from every column, which new rows need to be centered the
    same way at prediction time: a design is centered exactly when it
    carries them, and a hand-built centered design passes them.
    """

    matrix: np.ndarray
    K: int
    selected: list[int] | None = None
    column_means: np.ndarray | None = None

    def __post_init__(self):
        if self.K < 0 or self.matrix.shape[1] % (self.K + 1):
            raise ValueError(f"K={self.K} is no layout of a design of {self.matrix.shape[1]} columns")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.n_columns // (self.K + 1)

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    def full_matrix(self) -> np.ndarray:
        """All columns, in layout order."""
        return self.matrix

    def selected_matrix(self) -> np.ndarray:
        if self.selected is None:
            raise ValueError("design has not been forward-selected")
        return self.matrix[:, self.selected]

    def column_names(self) -> list[str]:
        """The names of all columns, by :func:`column_names`."""
        return column_names(range(self.n_columns), self.d)

    def subset_rows(self, rows) -> "PropagatedDesign":
        """New design restricted to the given rows.

        K, selection and ``column_means`` carry over unchanged:
        ``column_means`` still describes the transform originally applied,
        not the subset's own means.
        """
        return PropagatedDesign(
            matrix=self.matrix[np.asarray(rows)],
            K=self.K,
            selected=None if self.selected is None else list(self.selected),
            column_means=None if self.column_means is None else self.column_means.copy(),
        )


def build_design(W: RowStochasticOperator, X: np.ndarray, K: int) -> PropagatedDesign:
    """The design ``(X, WX, ..., W^K X)``, uncentered and unselected."""
    return PropagatedDesign(matrix=propagate(W, X, K), K=K)


def center(design: PropagatedDesign) -> PropagatedDesign:
    """Subtract each column's mean (the projection ``I - 11'/N``).

    Idempotent up to floating point; the subtracted means are stored so new
    rows can be centered the same way later.
    """
    M = design.matrix
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite column fails the column screen
        if design.d == 1:
            # numpy sums a lone contiguous column pairwise but sums the columns
            # of a wider array row by row; per-column means keep d = 1 designs
            # on the pairwise sum, as when each order was a block of its own
            means = np.array([col.mean() for col in M.T])
        else:
            means = M.mean(axis=0)
        prior = design.column_means if design.column_means is not None else 0.0
        return replace(design, matrix=M - means, column_means=prior + means)


def center_response(y: np.ndarray) -> np.ndarray:
    """Return ``y`` with its mean removed."""
    y = np.asarray(y, dtype=np.float64)
    return y - y.mean()


def independent_columns(M: np.ndarray, tol: float, names: list[str] | None = None) -> list[int]:
    """Indices of a maximal numerically independent column subset.

    This is npr's one rank rule.  Columns are scanned left to right; a
    column is admitted iff its residual ratio, the norm of its residual
    after orthogonal projection onto the already-admitted span over the
    column's own norm, exceeds ``tol``.  Modified Gram-Schmidt with one
    re-orthogonalization pass keeps the admitted basis numerically sound.
    The scan first scales each column by an exact power of two, which
    leaves every ratio as it is and keeps the norms of any finite column
    in range.  A non-finite value raises ``InputValueError`` naming its
    column, ``names[j]`` or, without ``names``, the index j; it fails the
    certificate below, so only the scan checks for it.

    Fast path: the scan is skipped, and ``range(p)`` returned, when the
    Gram matrix certifies that it would admit every column.  With
    ``G = M'M`` and ``C = D^-1/2 G D^-1/2`` its unit-diagonal scaling,
    column j's exact residual ratio against all the other columns is
    ``1 / sqrt((C^-1)_jj) >= sqrt(lambda_min(C))``, and its ratio against
    any subset of them -- the columns admitted before it included -- is no
    smaller.  The certificate holds when ``n > p``, ``G`` is finite, every
    ``G_jj >= n * tiny`` (no underflow in the Gram sums; a zero column
    fails here) and

        lambda_hat - delta >= max(1e-6, (1e3 * tol)^2),

    where ``lambda_hat`` is the computed smallest eigenvalue of ``C`` and
    ``delta = 2 p (n + p) 2^-53`` bounds its rounding error: ``p n u`` for
    forming ``G`` (entrywise ``gamma_n ||m_i|| ||m_j||``, Higham ch. 3,
    over a p x p matrix) and ``2 p^2 u`` for the scaling and the
    backward-stable eigensolve on ``||C|| <= p`` (Higham ch. 19), with a
    factor 2 of slack on the Gram term.  Every exact ratio is then at
    least ``1e3 * tol`` and at least ``1e-3``, far above the scan's own
    rounding, so the list is the one the scan would give.  The threshold
    scales with ``tol``: from ``tol = 1e-3`` on it is at least 1, the
    largest ``lambda_min`` can be, and the certificate never holds.  Zero
    columns, ``n <= p``, near-collinear designs and large ``tol`` all run
    the scan.  Cost: one Gram product and a p x p eigensolve in place of
    p projections over n rows.
    """
    if _gram_certifies(M, tol):
        return list(range(M.shape[1]))
    return _mgs_columns(M, tol, names)


def _gram_certifies(M: np.ndarray, tol: float) -> bool:
    """True when the Gram certificate of :func:`independent_columns`
    proves that its scan admits every column of ``M`` at this ``tol``."""
    n, p = M.shape
    if p == 0 or n <= p:
        return False
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite G fails the certificate below
        G = M.T @ M
    diag = G.diagonal()
    if not (np.isfinite(G).all() and diag.min() >= n * np.finfo(np.float64).tiny):
        return False
    s = 1.0 / np.sqrt(diag)
    lam = np.linalg.eigvalsh(G * s[:, None] * s)[0]
    delta = 2.0 * p * (n + p) * 2.0 ** -53
    return bool(lam - delta >= max(1e-6, (1e3 * tol) ** 2))


def _mgs_columns(M: np.ndarray, tol: float, names: list[str] | None = None) -> list[int]:
    """The left-to-right modified Gram-Schmidt scan of
    :func:`independent_columns`."""
    n, p = M.shape
    basis = np.empty((n, min(n, p)), dtype=np.float64)
    n_basis = 0
    kept: list[int] = []
    for idx in range(p):
        v = M[:, idx]
        peak = np.abs(v).max(initial=0.0)
        if not np.isfinite(peak):
            name = idx if names is None else names[idx]
            raise InputValueError(f"design column {name} has a non-finite value", "covariates")
        if peak == 0.0:
            continue
        # largest |entry| in [1/2, 1): the squared norm can neither overflow
        # nor underflow, and on an in-range column the scaling is exact
        r = np.ldexp(v, -np.frexp(peak)[1])
        norm0 = np.linalg.norm(r)
        for _ in range(2):  # second pass guards against cancellation
            if n_basis:
                Q = basis[:, :n_basis]
                r -= Q @ (Q.T @ r)
        rnorm = np.linalg.norm(r)
        if rnorm > tol * norm0:
            kept.append(idx)
            if n_basis < basis.shape[1]:
                basis[:, n_basis] = r / rnorm
                n_basis += 1
    return kept


def fit_inputs(design: PropagatedDesign, family: str) -> dict:
    """The :class:`FitRecord` fields that describe the columns ``family`` fits.

    The design must be forward-selected, and centered exactly when the
    family is gaussian: least squares fits the centered design, while
    logistic and cox fit the raw one.  No columns are copied here: each
    family makes the one copy its products read, in the layout whose bits
    it keeps, straight from ``design.matrix``.
    """
    if design.selected is None:
        raise ValueError("design must be forward-selected before fitting")
    centered = family == "gaussian"
    if (design.column_means is not None) != centered:
        need = "a centered" if centered else "the uncentered"
        raise ValueError(f"{family} fits use {need} design")
    return {
        "selected": list(design.selected),
        "K": design.K,
        "d": design.d,
        "n": design.n_rows,
    }


def _report_value(mapping: dict, key: str, kind, path, name: str):
    """``mapping[key]`` of a fit report read from ``path`` that matches the fit schema, where
    ``name`` is the key's place in the report.  It checks what the schema cannot say.  ``kind`` is
    ``int``, for a Python int (the schema's integers include 2.0), or the shape ``(p,)`` or
    ``(p, p)`` of an array of numbers, returned as a float array; any other kind returns the
    value as it is."""
    value = mapping[key]
    if kind is int and type(value) is not int:
        raise ValueError(f"{path}: not a fit report (bad '{name}')")
    if not isinstance(kind, tuple):
        return value
    rows = value if len(kind) == 2 else [value]
    if len(value) != kind[0] or any(len(row) != kind[-1] for row in rows):
        raise ValueError(f"{path}: not a fit report ('{name}' does not match the {kind[0]} selected columns)")
    return np.asarray(value, dtype=np.float64)


@dataclass(eq=False, kw_only=True)
class FitRecord:
    """What every fit carries: the design columns it was fit on.

    ``selected`` indexes the design's columns, and ``K`` and ``d`` give the
    design's layout: column c is covariate ``c % d`` diffused ``c // d``
    steps, which names the selected columns; a prediction design needs only
    ``d`` and those columns.  Each family gives its report block by
    ``_report_block`` and reads it by ``_from_report_block``.
    """

    family: ClassVar[str]  # the report's family name and the key of its block
    selected: list[int]
    K: int
    d: int
    n: int

    @property
    def column_names(self) -> list[str]:
        return column_names(self.selected, self.d)

    @property
    def provenance(self) -> list[tuple[int, int]]:
        """The design's ``(order, covariate)`` layout, derived from ``K`` and ``d``."""
        return [(k, j) for k in range(self.K + 1) for j in range(self.d)]

    def _coefficients(self, estimates, std_errors) -> list[dict]:
        return [
            {"name": name, "order": int(c) // self.d, "covariate": int(c) % self.d,
             "estimate": float(est), "std_error": float(se)}
            for name, c, est, se in zip(self.column_names, self.selected, estimates, std_errors)
        ]

    def to_report(self) -> dict:
        """This fit's keys of a fit report: ``n``, ``K``, ``d``,
        ``selected_columns``, ``coefficients`` and the family's block.  A
        number that is not finite raises ``InputValueError``: its inputs'
        units are out of floating-point range."""
        estimates, std_errors, block = self._report_block()
        if not np.isfinite([*estimates, *std_errors, *(v for v in block.values() if type(v) is float)]).all():
            raise InputValueError(OUT_OF_RANGE, "covariates")
        return {"n": self.n, "K": self.K, "d": self.d, self.family: block,
                "selected_columns": [int(c) for c in self.selected],
                "coefficients": self._coefficients(estimates, std_errors)}

    @classmethod
    def from_report(cls, report: dict, path) -> "FitRecord":
        """The fit that :meth:`to_report` wrote into ``report``, as far as prediction and the
        order tests need it.  ``report`` must match the fit schema, with ``report[cls.family]``
        a dict and no number past the finite floats.  A value the schema admits and the fit
        cannot use raises ``ValueError`` naming ``path``: an integer that is no Python int, an
        array of the wrong size, a selected column outside the design, or a coefficient whose
        ``name``, ``order`` or ``covariate`` is not its column's."""
        K, d, n = (_report_value(report, key, int, path, key) for key in ("K", "d", "n"))
        selected, coefficients = report["selected_columns"], report["coefficients"]
        if not all(type(c) is int and c < (K + 1) * d for c in selected):
            raise ValueError(f"{path}: not a fit report (bad 'selected_columns')")
        if len(coefficients) != (p := len(selected)):
            raise ValueError(f"{path}: not a fit report ('coefficients' does not match the {p} selected columns)")
        estimates, std_errors = (np.asarray([c[key] for c in coefficients], dtype=np.float64)
                                 for key in ("estimate", "std_error"))

        def get(key: str, kind=None):
            return _report_value(report[cls.family], key, kind, path, f"{cls.family}.{key}")

        fit = cls(selected=selected, K=K, d=d, n=n, **cls._from_report_block(get, estimates, std_errors))
        for i, (label, want) in enumerate(zip(coefficients, fit._coefficients(estimates, std_errors))):
            for key in ("name", "order", "covariate"):
                if label[key] != want[key]:
                    raise ValueError(f"{path}: not a fit report (bad 'coefficients[{i}].{key}')")
        return fit

    def gather(self, design_new: PropagatedDesign) -> np.ndarray:
        """The fit's selected columns of a raw design with the fit's ``d`` that holds every one of them."""
        if design_new.d != self.d or max(self.selected, default=-1) >= design_new.n_columns:
            raise ValueError("provenance mismatch between fit and new design")
        if design_new.column_means is not None:
            raise ValueError("predictions use the raw (uncentered) design")
        return design_new.full_matrix()[:, self.selected]


def forward_select(design: PropagatedDesign, tol: float = DEFAULT_SELECT_TOL) -> PropagatedDesign:
    """Greedy screening of linearly independent columns.

    Columns are scanned in layout order (ascending propagation order,
    covariates within) by :func:`independent_columns`, so lower orders win
    ties.  A non-finite value anywhere in the design is an input error.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    selected = independent_columns(design.matrix, tol, design.column_names())
    if not selected:
        raise DegenerateDesignError("degenerate design: no independent columns")
    return replace(design, selected=selected)


def read_covariates(path, allow_empty: bool = False) -> np.ndarray:
    """Read an N x d covariate matrix from a CSV with header ``x1..xd``."""
    return _read_csv(path, None, np.float64, allow_empty)


def write_design_csv(path, design: PropagatedDesign) -> None:
    """Diagnostic export of all columns under their names."""
    M = design.matrix
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(design.column_names())
        for row in M:
            writer.writerow([repr(float(v)) for v in row])
