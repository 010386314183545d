"""Augmented design matrices built from propagated covariates.

A :class:`PropagatedDesign` stacks the blocks ``X, WX, ..., W^K X`` and
tracks, for every column, which propagation order and covariate it came
from.  Forward selection screens out (nearly) linearly dependent columns;
centering removes column means, which is the projection that kills the
intercept for the Gaussian family.
"""

from __future__ import annotations

import csv
import sys
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


@dataclass(eq=False)
class PropagatedDesign:
    """The propagated design ``(X, WX, ..., W^K X)`` with column provenance.

    ``matrix`` holds every column in one C-contiguous ``(n, (K+1)d)``
    array.  ``provenance[c] == (k, j)`` means column c is covariate j
    diffused k steps.  ``selected`` lists the column indices admitted by
    forward selection, in scan order; ``column_means`` records the means
    subtracted when the design was centered (needed to center new rows
    consistently at prediction time).
    """

    matrix: np.ndarray
    provenance: list[tuple[int, int]]
    selected: list[int] | None = None
    centered: bool = False
    column_means: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def k_max(self) -> int:
        return self.provenance[-1][0]

    @property
    def d(self) -> int:
        return self.n_columns // (self.k_max + 1)

    @property
    def n_columns(self) -> int:
        return len(self.provenance)

    def full_matrix(self) -> np.ndarray:
        """All columns, in provenance order."""
        return self.matrix

    def selected_matrix(self) -> np.ndarray:
        if self.selected is None:
            raise ValueError("design has not been forward-selected")
        return self.matrix[:, self.selected]

    def column_names(self) -> list[str]:
        """Provenance-derived names, ``k{order}_x{covariate}`` (1-based x)."""
        return [f"k{k}_x{j + 1}" for k, j in self.provenance]

    def subset_rows(self, rows) -> "PropagatedDesign":
        """New design restricted to the given rows.

        Provenance, selection and centering metadata carry over unchanged;
        ``column_means`` still describes the transform originally applied,
        not the subset's own means.
        """
        return PropagatedDesign(
            matrix=self.matrix[np.asarray(rows)],
            provenance=list(self.provenance),
            selected=None if self.selected is None else list(self.selected),
            centered=self.centered,
            column_means=None if self.column_means is None else self.column_means.copy(),
        )


def build_design(W: RowStochasticOperator, X: np.ndarray, K: int) -> PropagatedDesign:
    """The design ``(X, WX, ..., W^K X)``, uncentered and unselected."""
    M = propagate(W, X, K)
    d = M.shape[1] // (K + 1)
    provenance = [(k, j) for k in range(K + 1) for j in range(d)]
    return PropagatedDesign(matrix=M, provenance=provenance)


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
        return replace(design, matrix=M - means, centered=True, column_means=prior + means)


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


def fit_inputs(design: PropagatedDesign, family: str, centered: bool) -> tuple[np.ndarray, dict]:
    """The selected columns a family fits, and the :class:`FitRecord` fields
    that describe them.

    The design must be forward-selected and centered exactly when the
    family needs it (the gaussian family does; logistic and cox do not).
    """
    if design.selected is None:
        raise ValueError("design must be forward-selected before fitting")
    if design.centered != centered:
        need = "a centered" if centered else "the uncentered"
        raise ValueError(f"{family} fits use {need} design")
    names = design.column_names()
    return design.selected_matrix(), {
        "selected": list(design.selected),
        "provenance": list(design.provenance),
        "column_names": [names[c] for c in design.selected],
        "n": design.n_rows,
    }


_NUMBER = {int, float}  # the Python types of a parsed JSON number; true and false are neither


def _finite_floats(values) -> bool:
    """Whether parsed JSON numbers are finite floats: no NaN, infinity or integer past the floats."""
    return all(abs(v) <= sys.float_info.max for v in values)


def _report_value(mapping: dict, key: str, kind, path, name: str):
    """``mapping[key]`` of the fit report read from ``path``, where ``name`` is the key's place in
    the report.  ``kind`` is a set of Python types, one of which the value must have exactly,
    or the shape ``(p,)`` or ``(p, p)`` of a JSON array of numbers, returned as a float array.
    A number that may be a float must be a finite one."""
    if key not in mapping:
        raise ValueError(f"{path}: not a fit report (missing '{name}')")
    value = mapping[key]
    if isinstance(kind, set):
        if type(value) in kind and (float not in kind or _finite_floats([value])):
            return value
        raise ValueError(f"{path}: not a fit report (bad '{name}')")
    rows = value if len(kind) == 2 else [value]
    if not (type(value) is list
            and all(type(row) is list and set(map(type, row)) <= _NUMBER and _finite_floats(row) for row in rows)):
        raise ValueError(f"{path}: not a fit report (bad '{name}')")
    if len(value) != kind[0] or any(len(row) != kind[-1] for row in rows):
        raise ValueError(f"{path}: not a fit report ('{name}' does not match the {kind[0]} selected columns)")
    return np.asarray(value, dtype=np.float64)


@dataclass(eq=False, kw_only=True)
class FitRecord:
    """What every fit carries: the design columns it was fit on.

    ``selected`` indexes the design's columns, ``provenance`` is the full
    design layout (so a prediction design can be checked against it) and
    ``column_names`` names the selected columns in order.  Each family gives
    its report block by ``_report_block`` and reads it by ``_from_report_block``.
    """

    family: ClassVar[str]  # the report's family name and the key of its block
    selected: list[int]
    provenance: list[tuple[int, int]]
    column_names: list[str]
    n: int

    def _coefficients(self, estimates, std_errors) -> list[dict]:
        return [
            {"name": name, "order": int(self.provenance[c][0]), "covariate": int(self.provenance[c][1]),
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
        K = self.provenance[-1][0]
        return {"n": self.n, "K": K, "d": len(self.provenance) // (K + 1), self.family: block,
                "selected_columns": [int(c) for c in self.selected],
                "coefficients": self._coefficients(estimates, std_errors)}

    @classmethod
    def from_report(cls, report: dict, path) -> "FitRecord":
        """The fit that :meth:`to_report` wrote into ``report``, as far as prediction and the
        order tests need it; ``report[cls.family]`` must be a dict.  A key that is missing, or
        of the wrong type or size, raises ``ValueError`` naming ``path``."""
        K, d, n = (_report_value(report, key, {int}, path, key) for key in ("K", "d", "n"))
        selected = _report_value(report, "selected_columns", {list}, path, "selected_columns")
        coefficients = _report_value(report, "coefficients", {list}, path, "coefficients")
        provenance = [(k, j) for k in range(K + 1) for j in range(d)]
        if not all(type(c) is int and 0 <= c < len(provenance) for c in selected):
            raise ValueError(f"{path}: not a fit report (bad 'selected_columns')")
        if len(coefficients) != (p := len(selected)):
            raise ValueError(f"{path}: not a fit report ('coefficients' does not match the {p} selected columns)")
        for i, coefficient in enumerate(coefficients):
            if type(coefficient) is not dict:
                raise ValueError(f"{path}: not a fit report (bad 'coefficients[{i}]')")
        names, estimates, std_errors = (
            [_report_value(c, key, kind, path, f"coefficients[{i}].{key}") for i, c in enumerate(coefficients)]
            for key, kind in (("name", {str}), ("estimate", _NUMBER), ("std_error", _NUMBER))
        )

        def get(key: str, kind=_NUMBER):
            return _report_value(report[cls.family], key, kind, path, f"{cls.family}.{key}")

        return cls(
            selected=selected,
            provenance=provenance,
            column_names=names,
            n=n,
            **cls._from_report_block(get, *(np.asarray(a, dtype=np.float64) for a in (estimates, std_errors))),
        )

    def gather(self, design_new: PropagatedDesign) -> np.ndarray:
        """The fit's selected columns of a raw design with the fit's layout."""
        if list(design_new.provenance) != list(self.provenance):
            raise ValueError("provenance mismatch between fit and new design")
        if design_new.centered:
            raise ValueError("predictions use the raw (uncentered) design")
        return design_new.full_matrix()[:, self.selected]


def forward_select(design: PropagatedDesign, tol: float = DEFAULT_SELECT_TOL) -> PropagatedDesign:
    """Greedy screening of linearly independent columns.

    Columns are scanned in provenance order (ascending propagation order,
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
    """Diagnostic export of all columns under their provenance names."""
    M = design.matrix
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(design.column_names())
        for row in M:
            writer.writerow([repr(float(v)) for v in row])
