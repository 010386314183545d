"""The four workloads: inputs, one op, and the correctness gate of an op.

Each workload exposes ``once()`` (program calls made once, before the
first op; timed into ``setup_s``), ``op(i)`` (the timed call into the
program; returns what the gate needs) and ``check(result)`` (``None``
when the output is correct, else the reason).  Gates use only numpy,
scipy and jsonschema, never the code under test.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

import inputs

# Input sizes: the full benchmark, and a tiny smoke variant for the tests.
SIZES = {
    "full": {"fit-csv": 100_000, "glm-refit": 50_000, "sim-predict": 1000, "sim-test": 3000},
    "smoke": {"fit-csv": 2000, "glm-refit": 2000, "sim-predict": 200, "sim-test": 300},
}

# Relative tolerance on coefficients and predictions against the lstsq
# reference: far above rounding (about 1e-12 here), far below any error
# a wrong model would make, and loose enough for another factorization.
RTOL = 1e-6


def _report_validator(kind: str):
    """jsonschema validator for the report schema shipped in ``src/npr/schemas``."""
    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource

    directory = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "npr", "schemas")
    registry = Registry()
    schemas = {}
    for name in ("fit", kind):
        with open(os.path.join(directory, f"{name}.schema.json")) as fh:
            schemas[name] = json.load(fh)
        registry = registry.with_resource(f"npr/{name}.schema.json", Resource.from_contents(schemas[name]))
    return Draft202012Validator(schemas[kind], registry=registry)


def _main():
    import npr.cli

    return npr.cli.main


class FitCsv:
    """``npr fit --family gaussian``, then ``test --kmax 5``, then ``predict``."""

    name = "fit-csv"

    def __init__(self, workdir, seed: int, n: int):
        self.digests = inputs.generate(self.name, workdir, n, seed)
        ref = np.load(os.path.join(workdir, "reference.npz"))
        self.theta = ref["theta"]
        self.fitted = ref["fitted"]
        self.order = int(ref["selected_order"])
        self.y_std = float(ref["y_std"])
        self.path = {
            name: os.path.join(workdir, name)
            for name in ("edges.csv", "covariates.csv", "response.csv", "fit.json", "test.json", "pred.csv")
        }

    def once(self) -> None:
        pass

    def op(self, i: int) -> dict:
        p, main = self.path, _main()
        codes = [
            main(["fit", "--family", "gaussian", "--edges", p["edges.csv"], "--covariates", p["covariates.csv"],
                  "--response", p["response.csv"], "--K", str(inputs.K), "--out", p["fit.json"]]),
            main(["test", "--fit", p["fit.json"], "--kmax", "5", "--out", p["test.json"]]),
            main(["predict", "--fit", p["fit.json"], "--edges", p["edges.csv"], "--covariates", p["covariates.csv"],
                  "--out", p["pred.csv"]]),
        ]
        return {"codes": codes}

    def check(self, result: dict) -> str | None:
        if result["codes"] != [0, 0, 0]:
            return f"exit codes {result['codes']}"
        with open(self.path["fit.json"]) as fh:
            fit = json.load(fh)
        with open(self.path["test.json"]) as fh:
            test = json.load(fh)
        if fit["selected_columns"] != list(range(self.theta.size)):
            return f"selected {len(fit['selected_columns'])} of {self.theta.size} independent columns"
        theta = np.array([c["estimate"] for c in fit["coefficients"]])
        if np.abs(theta - self.theta).max() > RTOL * max(1.0, np.abs(self.theta).max()):
            return "coefficients differ from the lstsq reference"
        if test["selected_order"] != self.order:
            return f"selected order {test['selected_order']}, expected {self.order}"
        pred = np.loadtxt(self.path["pred.csv"], delimiter=",", skiprows=1)
        if pred.shape != (self.fitted.size, 2) or np.abs(pred[:, 1] - self.fitted).max() > RTOL * self.y_std:
            return "predictions differ from the lstsq reference"
        result["report_bytes"] = os.path.getsize(self.path["fit.json"]) + os.path.getsize(self.path["test.json"])
        return None


class GlmRefit:
    """Seeded 80% refits of the logistic and the cox model on one
    propagated design built once, in set-up."""

    name = "glm-refit"
    TRAIN_FRAC = 0.8

    def __init__(self, workdir, seed: int, n: int):
        self.seed = seed
        self.digests = inputs.generate(self.name, workdir, n, seed)
        data = np.load(os.path.join(workdir, "glm.npz"))
        self.n = n
        self.edges, self.X, self.M = data["edges"], data["X"], data["M"]
        self.y, self.time, self.event = data["y"], data["time"], data["event"]
        self.design = None

    def once(self) -> None:
        import npr.design
        import npr.graph

        graph = npr.graph.DirectedGraph(n_nodes=self.n, edges=self.edges)
        W = npr.graph.row_normalize(graph)
        self.design = npr.design.build_design(W, self.X, inputs.K)

    def op(self, i: int) -> dict:
        import npr.cox
        import npr.design
        import npr.logistic

        perm = np.random.default_rng([self.seed, 3, i]).permutation(self.n)
        n_train = int(self.TRAIN_FRAC * self.n)
        rows, held = np.sort(perm[:n_train]), np.sort(perm[n_train:])
        selected = npr.design.forward_select(self.design.subset_rows(rows))
        held_design = self.design.subset_rows(held)
        logit = npr.logistic.fit_logistic(selected, self.y[rows])
        auc = npr.logistic.auc(npr.logistic.predict_proba(logit, held_design), self.y[held])
        surv = npr.cox.SurvivalData(time=self.time[rows], event=self.event[rows])
        cox = npr.cox.fit_cox(selected, surv)
        risk = npr.cox.predict_relative_risk(cox, held_design)
        return {"rows": rows, "logit": logit, "auc": auc, "cox": cox, "risk": risk}

    def check(self, result: dict) -> str | None:
        logit, cox, rows = result["logit"], result["cox"], result["rows"]
        Xa = np.column_stack([np.ones(rows.size), self.M[rows][:, logit.selected]])
        p_hat = 1.0 / (1.0 + np.exp(-(Xa @ logit.theta_hat)))
        score = Xa.T @ (self.y[rows] - p_hat)
        # the score vanishes at the MLE; 1e-6 per observation is far above
        # the convergence tolerance and far below a wrong estimate
        if not logit.converged or np.abs(score).max() > 1e-6 * rows.size:
            return f"logistic score {np.abs(score).max():.3g} at the estimate"
        if not 0.6 < result["auc"] <= 1.0:
            return f"held-out AUC {result['auc']:.3f}"
        se = np.asarray(cox.std_errors)
        if not cox.converged or not np.all(np.isfinite(se) & (se > 0)):
            return "cox did not converge to finite standard errors"
        if not np.all(np.isfinite(result["risk"]) & (result["risk"] > 0)):
            return "relative risks not finite and positive"
        return None


class _Simulation:
    """One op is one replicate: an ``npr`` simulation command with
    ``--reps 1`` and a seed of its own."""

    command: list[str]

    def __init__(self, workdir, seed: int, n: int):
        self.seed = seed
        self.n = n
        self.out = os.path.join(workdir, "report.json")
        self.digests = {}
        self.validator = _report_validator("simulation")
        os.environ["NPR_THREADS"] = "1"

    def once(self) -> None:
        pass

    def run(self, seed: int, reps: int) -> dict:
        code = _main()(self.command + ["--n", str(self.n), "--reps", str(reps), "--seed", str(seed),
                                       "--out", self.out])
        return {"code": code, "reps": reps}

    def op(self, i: int) -> dict:
        return self.run(self.seed * 1_000_000 + i, 1)

    def check(self, result: dict) -> str | None:
        if result["code"] != 0:
            return f"exit code {result['code']}"
        with open(self.out) as fh:
            report = json.load(fh)
        errors = list(self.validator.iter_errors(report))
        if errors:
            return f"report does not validate: {errors[0].message}"
        if report["reps"] != result["reps"]:
            return f"report has {report['reps']} reps, {result['reps']} requested"
        result["report_bytes"] = os.path.getsize(self.out)
        return self.bands(report["metrics"], result["reps"])


class SimPredict(_Simulation):
    """``npr simulate --case 3 --setting 1 --n 1000``."""

    name = "sim-predict"
    command = ["simulate", "--case", "3", "--setting", "1"]

    @staticmethod
    def bands(metrics: dict, reps: int) -> str | None:
        # In-sample, the fit is never far worse than the oracle or the fitted
        # competitor (both ratios sit near 0.97 here); a competitor can be
        # far worse, and out-of-sample ratios of one replicate can be far
        # from 1, so those are only checked to be positive and finite.
        for name, (lo, hi) in {"kappa1": (0.5, 2.0), "kappa2": (0.0, 2.0),
                               "kappa3": (0.0, math.inf), "kappa4": (0.0, math.inf)}.items():
            value = metrics[name]["mean"]
            if not (math.isfinite(value) and lo < value < hi):
                return f"{name} = {value} outside ({lo}, {hi})"
        if not 1 <= metrics["mean_selected_columns"] <= (inputs.K + 1) * inputs.D:
            return f"mean_selected_columns = {metrics['mean_selected_columns']}"
        return None


class SimTest(_Simulation):
    """``npr simulate-test --case 1 --nulls 2 --n 3000``."""

    name = "sim-test"
    command = ["simulate-test", "--case", "1", "--nulls", "2"]
    WORKERS = 2

    def run_parallel(self, i: int, reps: int) -> dict:
        """A batch on the replicate process pool (``NPR_THREADS=2``)."""
        os.environ["NPR_THREADS"] = str(self.WORKERS)
        try:
            return self.run(self.seed * 1_000_000 + 500_000 + i, reps)
        finally:
            os.environ["NPR_THREADS"] = "1"

    @staticmethod
    def bands(metrics: dict, reps: int) -> str | None:
        # Rates are fractions of replicates; the coverage of 95% intervals
        # over about 30 true coefficients stays above 0.5 in every replicate
        # but a vanishingly rare one.
        for name in ("EP", "ES", "MP", "FWER", "CP"):
            value = metrics[name]
            if value is None or not (math.isfinite(value) and 0.0 <= value <= 1.0):
                return f"{name} = {value} outside [0, 1]"
        if metrics["CP"] < 0.5:
            return f"CP = {metrics['CP']} below 0.5"
        if sum(metrics["selected_order_distribution"]) != reps:
            return "selected-order distribution does not sum to the replicates"
        return None


WORKLOADS = {w.name: w for w in (FitCsv, GlmRefit, SimPredict, SimTest)}
