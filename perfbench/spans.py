"""Spans around calls into each module of ``npr``, recorded from outside.

Every traced function is wrapped where its caller looks it up: ``cli`` and
``sim`` bind names with ``from .x import y``, so ``npr.cli.read_edge_list``
and ``npr.graph.read_edge_list`` are patched separately.  Spans (name,
start, end, parent) stay in memory; self times and counts are derived
when the run ends.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

# (module, attribute, span name).  A span name is the per-layer metric it
# feeds, without the "_s" suffix.
PATCHES = [
    ("npr.cli", "main", "cli.self"),
    ("npr.cli", "read_edge_list", "graph.read_edge_list"),
    ("npr.cli", "read_covariates", "design.read_covariates"),
    ("npr.graph", "row_normalize", "graph.row_normalize"),  # cli imports it inside functions
    ("npr.sim", "row_normalize", "graph.row_normalize"),
    ("npr.design", "propagate", "graph.propagate"),
    ("npr.sim", "gen_powerlaw", "graph.gen_powerlaw"),
    ("npr.sim", "gen_erdos_renyi", "graph.gen_erdos_renyi"),
    ("npr.cli", "build_design", "design.build_design"),
    ("npr.sim", "build_design", "design.build_design"),
    ("npr.design", "build_design", "design.build_design"),
    ("npr.cli", "center", "design.center"),
    ("npr.sim", "center", "design.center"),
    ("npr.cli", "forward_select", "design.forward_select"),
    ("npr.sim", "forward_select", "design.forward_select"),
    ("npr.design", "forward_select", "design.forward_select"),
    ("npr.design.PropagatedDesign", "subset_rows", "design.subset_rows"),
    ("npr.cli", "fit_ols", "gaussian.fit_ols"),
    ("npr.sim", "fit_ols", "gaussian.fit_ols"),
    ("npr.cli", "order_test", "gaussian.order_test"),
    ("npr.sim", "order_test", "gaussian.order_test"),
    ("npr.cli", "t_statistics", "gaussian.t_statistics"),
    ("npr.cli", "predict_gaussian", "gaussian.predict"),
    ("npr.sim", "predict", "gaussian.predict"),
    ("npr.logistic", "fit_logistic", "logistic.fit_logistic"),
    ("npr.logistic", "predict_proba", "logistic.predict"),
    ("npr.logistic", "auc", "logistic.predict"),
    ("npr.cox", "fit_cox", "cox.fit_cox"),
    ("npr.cox", "predict_relative_risk", "cox.predict"),
    ("npr.logistic", "newton_maximize", "newton.newton_maximize"),
    ("npr.cox", "newton_maximize", "newton.newton_maximize"),
    ("npr.sim", "gen_lim", "baselines.gen_response"),
    ("npr.sim", "gen_npr", "baselines.gen_response"),
    # the row-subset 2SLS lives in sim today; it is the same estimator
    ("npr.sim", "_competitor_fit", "baselines.fit_2sls"),
    ("npr.sim", "fit_lim_2sls", "baselines.fit_2sls"),
    ("npr.baselines", "lim_reduced_form", "baselines.reduced_form"),
    ("npr.baselines", "lim_structural", "baselines.reduced_form"),
    ("npr.cli", "run_prediction_study", "sim.self"),
    ("npr.cli", "run_test_study", "sim.self"),
    ("npr.cli", "validate_report", "schemas.validate_report"),
]

# The Newton callbacks belong to the family that defined them,
# so the loop's own self time is the solve and step control alone.
NEWTON_CALLBACK_OWNER = {"npr.logistic": "logistic.fit_logistic", "npr.cox": "cox.fit_cox"}


def _resolve(path: str):
    """Import ``a.b`` or, for ``a.b.Class``, the class inside module ``a.b``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return traced

    def _wrap_newton(self, fn, owner: str):
        def traced(objective, theta0, max_iter, tol, loglik, guard=None):
            return fn(
                self.wrap(owner, objective),
                theta0,
                max_iter=max_iter,
                tol=tol,
                loglik=self.wrap(owner, loglik),
                guard=None if guard is None else self.wrap(owner, guard),
            )

        return self.wrap("newton.newton_maximize", traced)

    def _count_edges(self, graph):
        self.counts["graph.edges"] += graph.n_edges

    def _count_selection(self, design):
        self.counts["design.selected"] += len(design.selected)
        self.counts["design.candidates"] += design.n_columns

    def _counter(self, family: str):
        def count(fit):
            self.counts[f"{family}.fits"] += 1
            self.counts[f"{family}.newton_iterations"] += fit.iterations

        return count

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of PATCHES; restore the originals on exit."""
        after = {
            "graph.read_edge_list": self._count_edges,
            "design.forward_select": self._count_selection,
            "logistic.fit_logistic": self._counter("logistic"),
            "cox.fit_cox": self._counter("cox"),
        }
        saved = []
        try:
            for path, attr, name in PATCHES:
                owner = _resolve(path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if attr == "newton_maximize":
                    wrapper = self._wrap_newton(original, NEWTON_CALLBACK_OWNER[path])
                else:
                    wrapper = self.wrap(name, original, after.get(name))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)

    def total_time(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name and (parent < 0 or self.spans[parent][0] != name):
                total += end - start
        return total
