"""Command-line interface: fit, test, predict, simulate and evaluate.

Every command writes a JSON report that embeds a run manifest (resolved
arguments, sha256 digests of all input files, a fit report's taken
without its timestamp block, seed, tool version and a timestamp block).  All randomness flows from ``--seed``; when the flag is
omitted by a command that needs randomness, a seed is drawn once and
recorded in the manifest, so reports are always reproducible from their
own metadata.

Exit codes: 0 on success, 1 for numerical or model-level failures,
2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import stat
import sys
import time

import numpy as np

from . import __version__
from .cox import CoxFit, SurvivalData, fit_cox, predict_relative_risk
from .design import _NUMBER, _report_value, build_design, center, forward_select, read_covariates
from .exceptions import InputValueError, ModelError
from .gaussian import (
    Z_95,
    GaussianFit,
    fit_ols,
    order_test,
    predict as predict_gaussian,
    t_statistics,
)
from .graph import _read_csv, read_edge_list
from .logistic import LogisticFit, auc, fit_logistic, predict_proba
from .schemas import validate_report
from .sim import ScenarioConfig, row_splits, run_prediction_study, run_test_study

DEFAULT_TOL = 1e-8
_FIT_RECORDS = {record.family: record for record in (GaussianFit, LogisticFit, CoxFit)}
DETERMINISTIC_SEED_HELP = (
    "recorded in the report's manifest only; this command draws no random "
    "numbers, so its output is the same for every seed"
)


def _sha256(path) -> str:
    """The digest of a tracked input.  It is taken before the command reads
    the file, so a pipe or other non-regular file, which can be read only
    once, is refused."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(f"{path}: not a regular file; the report's input digest needs a regular file")
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


def _report_digest(report: dict) -> str:
    """The digest of a report read as input, taken without its manifest's
    ``timestamp`` block: two runs of the command that wrote it on the same
    inputs give the same digest."""
    manifest = report.get("manifest")
    if isinstance(manifest, dict):
        report = {**report, "manifest": {k: v for k, v in manifest.items() if k != "timestamp"}}
    return "sha256:" + hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class _Run:
    """Collects manifest data while a command executes."""

    def __init__(self, command: str, args: argparse.Namespace, tracked: list[str]):
        self.command = command
        self.started = time.time()
        self.seed = getattr(args, "seed", None)
        self.arguments = {
            k: v for k, v in vars(args).items() if k not in ("func",) and v is not None
        }
        self.input_digests = {}
        for name in tracked:
            path = getattr(args, name, None)
            if path is not None:
                self.input_digests[name] = _sha256(path)

    def manifest(self) -> dict:
        return {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "arguments": {k: v for k, v in self.arguments.items()},
            "input_digests": self.input_digests,
            "timestamp": {
                "started_utc": datetime.datetime.fromtimestamp(
                    self.started, tz=datetime.timezone.utc
                ).isoformat(),
                "wall_clock_sec": time.time() - self.started,
            },
        }


def _write_report(report: dict, path) -> None:
    validate_report(report)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_single_column(path, column: str) -> np.ndarray:
    return _read_csv(path, [column], np.float64)[:, 0]


def _load_design(args, X: np.ndarray, K: int):
    """The propagated design of covariates ``X`` on the graph in ``args.edges``."""
    from .graph import row_normalize

    graph = read_edge_list(args.edges, n_nodes=X.shape[0])
    return build_design(row_normalize(graph), X, K)


def cmd_fit(args) -> None:
    run = _Run("fit", args, ["edges", "covariates", "response", "time", "event"])
    if args.family in ("gaussian", "logistic"):
        if args.response is None:
            raise ValueError(f"--response is required for family {args.family}")
    else:
        if args.time is None or args.event is None:
            raise ValueError("--time and --event are required for family cox")

    design = _load_design(args, read_covariates(args.covariates), args.K)
    report = {"schema_version": 1, "kind": "fit", "family": args.family, "tol": args.tol,
              **dict.fromkeys(_FIT_RECORDS)}
    if args.family == "gaussian":
        y = _read_single_column(args.response, "y")
        design = center(design)  # rebinding frees the raw design before selection and the fit
        fit = fit_ols(forward_select(design, tol=args.tol), y)
        report["t_statistics"] = [
            {k: (v if not isinstance(v, float) or math.isfinite(v) else None) for k, v in rec.items()}
            for rec in t_statistics(fit)
        ]
    elif args.family == "logistic":
        y = _read_single_column(args.response, "y")
        fit = fit_logistic(forward_select(design, tol=args.tol), y, tol=args.tol)
    else:
        t = _read_single_column(args.time, "time")
        d = _read_single_column(args.event, "event")
        surv = SurvivalData(time=t, event=d)
        if surv.n != design.n_rows:
            raise ValueError("survival data length must match the covariate rows")
        fit = fit_cox(forward_select(design, tol=args.tol), surv, tol=args.tol)
    report.update(fit.to_report(), manifest=run.manifest())
    _write_report(report, args.out)


def _load_fit(path):
    """The fit record in the fit report at ``path``, and the report.  Only the keys that are
    read are checked: a full schema validation costs far more than the read itself at large n."""
    with open(path) as fh:
        report = json.load(fh)
    family = report.get("family") if isinstance(report, dict) else None
    if not (isinstance(family, str) and family in _FIT_RECORDS and report.get("kind") == "fit"
            and isinstance(report.get(family), dict)):
        raise ValueError(f"{path}: not a fit report")
    fit = _FIT_RECORDS[family].from_report(report, path)
    _report_value(report, "tol", _NUMBER, path, "tol")  # the key cmd_fit writes and eval-auc reads
    return fit, report


def cmd_test(args) -> None:
    run = _Run("test", args, [])
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie strictly between 0 and 1")
    fit, payload = _load_fit(args.fit)
    run.input_digests["fit"] = _report_digest(payload)
    if fit.family != "gaussian":
        raise ValueError("order tests require a gaussian-family fit")
    if args.kmax > payload["K"]:
        raise ValueError(f"--kmax {args.kmax} exceeds the fit's K={payload['K']}")
    result = order_test(fit, None, k_max=args.kmax, xi=args.alpha)
    report = {
        "schema_version": 1,
        "kind": "test",
        "kmax": args.kmax,
        **result.to_dict(),
        "manifest": run.manifest(),
    }
    _write_report(report, args.out)


def cmd_predict(args) -> None:
    fit, payload = _load_fit(args.fit)
    X = read_covariates(args.covariates, allow_empty=True)
    if X.shape[1] != payload["d"]:
        raise ValueError(f"covariates have {X.shape[1]} columns but the fit used {payload['d']}")
    values = np.empty(0)
    if X.shape[0]:  # an empty covariate file has no graph to read
        predictors = {"gaussian": predict_gaussian, "logistic": predict_proba, "cox": predict_relative_risk}
        values = predictors[fit.family](fit, _load_design(args, X, payload["K"]))
    # the bytes csv.writer gives: no field here needs quoting
    rows = "".join(f"{i},{v!r}\r\n" for i, v in enumerate(values.tolist()))
    with open(args.out, "w", newline="") as fh:
        fh.write("node,prediction\r\n" + rows)


def _replicate_csv(path, report) -> None:
    """Plot-ready long format: one (rep, metric, value) row per scalar."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "metric", "value"])
        for i, row in enumerate(report.replicates):
            for key, val in row.items():
                if isinstance(val, (int, float)):
                    writer.writerow([i, key, repr(float(val))])
                elif isinstance(val, list):
                    for j, item in enumerate(val):
                        writer.writerow([i, f"{key}_j{j}", repr(float(item))])


def _resolve_seed(args) -> int:
    if args.seed is None:
        args.seed = int(np.random.SeedSequence().entropy % (2 ** 63))
    return args.seed


def _run_study(args, command: str, study: str, setting: int, runner) -> None:
    """Run a seeded simulation study; write its report and, if asked, its CSV rows."""
    run = _Run(command, args, [])
    run.seed = _resolve_seed(args)
    cfg = ScenarioConfig(
        case=args.case,
        setting=setting,
        n=args.n,
        reps=args.reps,
        seed=args.seed,
        train_frac=args.train_frac,
    )
    report_obj = runner(cfg)
    report = {
        "schema_version": 1,
        "kind": "simulation",
        "study": study,
        "config": report_obj.config,
        "reps": report_obj.reps,
        "metrics": report_obj.metrics,
        "manifest": run.manifest(),
    }
    _write_report(report, args.out)
    if args.csv:
        _replicate_csv(args.csv, report_obj)


def cmd_simulate(args) -> None:
    _run_study(args, "simulate", "prediction", args.setting, run_prediction_study)


def cmd_simulate_test(args) -> None:
    _run_study(args, "simulate-test", "testing", 3, lambda cfg: run_test_study(cfg, n_nulls=args.nulls))


def cmd_eval_auc(args) -> None:
    run = _Run("eval-auc", args, ["edges", "covariates", "response"])
    if args.splits < 2:  # one split has no spread to give an interval
        raise ValueError("--splits must be at least 2")
    run.seed = _resolve_seed(args)
    fit, payload = _load_fit(args.fit)
    run.input_digests["fit"] = _report_digest(payload)
    if fit.family != "logistic":
        raise ValueError("eval-auc requires a logistic-family fit configuration")
    y = _read_single_column(args.response, "y")
    X = read_covariates(args.covariates)
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"covariates have {X.shape[0]} rows but {y.shape[0]} were expected")
    design = _load_design(args, X, payload["K"])
    tol = payload["tol"]
    rng = np.random.default_rng(args.seed)
    scores = []
    for train, test in row_splits(design.n_rows, args.train_frac, rng, args.splits):
        sub = forward_select(design.subset_rows(train), tol=tol)
        fit = fit_logistic(sub, y[train], tol=tol)
        proba = predict_proba(fit, design.subset_rows(test))
        scores.append(auc(proba, y[test]))
    scores = np.asarray(scores)
    sd = float(scores.std(ddof=1))
    half = Z_95 * sd / math.sqrt(scores.size)
    report = {
        "schema_version": 1,
        "kind": "auc-eval",
        "splits": args.splits,
        "train_frac": args.train_frac,
        "K": payload["K"],
        "mean_auc": float(scores.mean()),
        "sd": sd,
        "ci95_low": float(scores.mean() - half),
        "ci95_high": float(scores.mean() + half),
        "per_split": [float(s) for s in scores],
        "manifest": run.manifest(),
    }
    _write_report(report, args.out)


def _positive_float(text: str, below: float = math.inf, bounds: str = "above 0") -> float:
    """An argparse type: a finite float above zero (and below ``below``)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and 0 < value < below):
        raise argparse.ArgumentTypeError(f"must be a finite number {bounds}, got {text!r}")
    return value


_fraction = functools.partial(_positive_float, below=1.0, bounds="strictly between 0 and 1")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: each ``parse_args`` call returns a new
    namespace, so repeated ``main`` calls parse independently."""
    parser = argparse.ArgumentParser(
        prog="npr",
        description="Regression on network-linked data via propagated covariates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model from CSV inputs")
    p_fit.add_argument("--family", required=True, choices=_FIT_RECORDS)
    p_fit.add_argument("--edges", required=True)
    p_fit.add_argument("--covariates", required=True)
    p_fit.add_argument("--response")
    p_fit.add_argument("--time")
    p_fit.add_argument("--event")
    p_fit.add_argument("--K", type=int, default=8)
    p_fit.add_argument("--tol", type=_positive_float, default=DEFAULT_TOL)
    p_fit.add_argument("--seed", type=int, help=DETERMINISTIC_SEED_HELP)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="sequential order tests from a gaussian fit")
    p_test.add_argument("--fit", required=True)
    p_test.add_argument("--kmax", type=int, required=True)
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--seed", type=int, help=DETERMINISTIC_SEED_HELP)
    p_test.add_argument("--out", required=True)
    p_test.set_defaults(func=cmd_test)

    p_pred = sub.add_parser("predict", help="per-node predictions from a fit")
    p_pred.add_argument("--fit", required=True)
    p_pred.add_argument("--edges", required=True)
    p_pred.add_argument("--covariates", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a prediction-comparison study")
    p_sim.add_argument("--case", type=int, required=True)
    p_sim.add_argument("--setting", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--reps", type=int, default=100)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--train-frac", type=_fraction, default=0.8)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--csv")
    p_sim.set_defaults(func=cmd_simulate)

    p_st = sub.add_parser("simulate-test", help="run a sequential-testing study")
    p_st.add_argument("--case", type=int, required=True)
    p_st.add_argument("--nulls", type=int, required=True, choices=[2, 3])
    p_st.add_argument("--n", type=int, required=True)
    p_st.add_argument("--reps", type=int, default=1000)
    p_st.add_argument("--seed", type=int)
    p_st.add_argument("--train-frac", type=_fraction, default=0.8)
    p_st.add_argument("--out", required=True)
    p_st.add_argument("--csv")
    p_st.set_defaults(func=cmd_simulate_test)

    p_auc = sub.add_parser("eval-auc", help="repeated-split AUC for a logistic configuration")
    p_auc.add_argument("--fit", required=True)
    p_auc.add_argument("--edges", required=True)
    p_auc.add_argument("--covariates", required=True)
    p_auc.add_argument("--response", required=True)
    p_auc.add_argument("--splits", type=int, default=100)
    p_auc.add_argument("--train-frac", type=_fraction, default=0.8)
    p_auc.add_argument("--seed", type=int)
    p_auc.add_argument("--out", required=True)
    p_auc.set_defaults(func=cmd_eval_auc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 1
    except InputValueError as exc:  # prefixed by the files the faulty inputs came from
        named = " and ".join(str(path) for path in (getattr(args, name, None) for name in exc.inputs) if path)
        print(f"error: {named}: {exc}" if named else f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
