"""Command-line interface: fit, test, predict, simulate and evaluate.

Every command but ``predict`` writes a JSON report that embeds a run
manifest: the resolved arguments, sha256 digests of all input files (a fit
report's taken without its timestamp block), the seed, the tool version and
a timestamp block.  All randomness flows from ``--seed``; when the flag is
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
from .design import DEFAULT_SELECT_TOL, build_design, center, forward_select, read_covariates
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
from .logistic import LogisticFit, auc, check_binary, fit_logistic, predict_proba
from .schemas import SCHEMA_VERSION, SchemaMismatch, check, load_schema, validate_report
from .sim import ScenarioConfig, row_splits, run_prediction_study, run_test_study

_FIT_RECORDS = {record.family: record for record in (GaussianFit, LogisticFit, CoxFit)}
_CSV_INPUTS = ("edges", "covariates", "response", "time", "event")


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
    """One command's run: its manifest, built from the parsed arguments, and
    the one writer of its report."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.started = time.time()
        self.arguments = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
        self.input_digests = {
            name: _sha256(getattr(args, name)) for name in _CSV_INPUTS if getattr(args, name, None) is not None
        }

    def draw_seed(self) -> int:
        """``--seed``, or for a command that draws random numbers without it,
        a seed drawn once here.  It goes into the manifest's ``seed``, not
        into its ``arguments``."""
        if self.args.seed is None:
            self.args.seed = int(np.random.SeedSequence().entropy % (2 ** 63))
        return self.args.seed

    def read_fit(self):
        """The fit record in the ``--fit`` report, and the report, whose digest
        the manifest records."""
        fit, report = _load_fit(self.args.fit)
        self.input_digests["fit"] = _report_digest(report)
        return fit, report

    def write(self, kind: str, body: dict) -> None:
        """Validate the report of ``kind`` with ``body`` and this run's manifest,
        and write it to ``--out``."""
        report = {"schema_version": SCHEMA_VERSION, "kind": kind, **body, "manifest": {
            "command": self.args.command,
            "version": __version__,
            "seed": self.args.seed,
            "arguments": self.arguments,
            "input_digests": self.input_digests,
            "timestamp": {
                "started_utc": datetime.datetime.fromtimestamp(self.started, tz=datetime.timezone.utc).isoformat(),
                "wall_clock_sec": time.time() - self.started,
            },
        }}
        validate_report(report)
        with open(self.args.out, "w") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _read_single_column(path, column: str) -> np.ndarray:
    return _read_csv(path, [column], np.float64)[:, 0]


def _load_design(args, X: np.ndarray, K: int, k_from: str = "--K"):
    """The propagated design of covariates ``X`` on the graph in ``args.edges``.
    A ``K`` whose design cannot be allocated is refused naming ``k_from``,
    where ``K`` came from."""
    from .graph import row_normalize

    W = row_normalize(read_edge_list(args.edges, n_nodes=X.shape[0]))
    n, columns = X.shape[0], (K + 1) * X.shape[1]
    try:
        if n * columns * 8 <= sys.maxsize:  # 8-byte floats; numpy refuses a larger array naming nothing
            return build_design(W, X, K)
    except MemoryError:
        pass
    raise ValueError(f"{k_from} {K}: the propagated design of {n} rows by {columns} columns cannot be allocated")


def cmd_fit(args) -> None:
    run = _Run(args)
    if args.family in ("gaussian", "logistic"):
        if args.response is None:
            raise ValueError(f"--response is required for family {args.family}")
    elif args.time is None or args.event is None:
        raise ValueError("--time and --event are required for family cox")

    design = _load_design(args, read_covariates(args.covariates), args.K)
    body = {"family": args.family, "tol": args.tol, **dict.fromkeys(_FIT_RECORDS)}
    if args.family != "cox":
        y = _read_single_column(args.response, "y")
    if args.family == "gaussian":
        design = center(design)  # rebinding frees the raw design before selection and the fit
        fit = fit_ols(forward_select(design, tol=args.tol), y)
        body["t_statistics"] = [
            {k: (v if not isinstance(v, float) or math.isfinite(v) else None) for k, v in rec.items()}
            for rec in t_statistics(fit)
        ]
    elif args.family == "logistic":
        fit = fit_logistic(forward_select(design, tol=args.tol), y, tol=args.tol)
    else:
        surv = SurvivalData(time=_read_single_column(args.time, "time"), event=_read_single_column(args.event, "event"))
        fit = fit_cox(forward_select(design, tol=args.tol), surv, tol=args.tol)
    run.write("fit", {**body, **fit.to_report()})


@functools.cache
def _fit_schema() -> dict:
    """The fit schema as ``test``, ``predict`` and ``eval-auc`` read a fit
    report: its manifest may be left out, and is checked when present."""
    schema = load_schema("fit")
    return {**schema, "required": [key for key in schema["required"] if key != "manifest"]}


def _number(parse, text: str):
    """The JSON number ``text`` read by ``parse``, or ``text`` itself when that is no finite
    float or int within the float range (``1e400``, ``10**400``; an int of over 310 characters
    is not read): the fit schema refuses a string wherever it types a number."""
    value = parse(text) if parse is float or len(text) <= 310 else math.inf
    return value if abs(value) <= sys.float_info.max else text


def _load_fit(path):
    """The fit record in the fit report at ``path``, and the report, which
    must match the fit schema.  A schema failure names its key, as
    ``missing`` for a ``required`` one and ``bad`` for any other."""
    with open(path) as fh:
        report = json.load(fh, parse_constant=str, parse_float=functools.partial(_number, float),
                           parse_int=functools.partial(_number, int))  # NaN and ±Infinity as their text
    family = report.get("family") if isinstance(report, dict) else None
    if not (isinstance(family, str) and family in _FIT_RECORDS and report.get("kind") == "fit"
            and isinstance(report.get(family), dict)):
        raise ValueError(f"{path}: not a fit report")
    try:
        check(report, _fit_schema())
    except SchemaMismatch as exc:
        why = "missing" if exc.keyword == "required" else "bad"
        raise ValueError(f"{path}: not a fit report ({why} '{exc.where}')") from None
    return _FIT_RECORDS[family].from_report(report, path), report


def cmd_test(args) -> None:
    run = _Run(args)
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("--alpha must lie strictly between 0 and 1")
    fit, payload = run.read_fit()
    if fit.family != "gaussian":
        raise ValueError("order tests require a gaussian-family fit")
    if args.kmax > payload["K"]:
        raise ValueError(f"--kmax {args.kmax} exceeds the fit's K={payload['K']}")
    result = order_test(fit, None, k_max=args.kmax, xi=args.alpha)
    run.write("test", {"kmax": args.kmax, **result.to_dict()})


def cmd_predict(args) -> None:
    fit, payload = _load_fit(args.fit)
    X = read_covariates(args.covariates, allow_empty=True)
    if X.shape[1] != payload["d"]:
        raise InputValueError(f"covariates have {X.shape[1]} columns but the fit used {payload['d']}", "covariates")
    values = np.empty(0)
    if X.shape[0]:  # an empty covariate file has no graph to read
        predictors = {"gaussian": predict_gaussian, "logistic": predict_proba, "cox": predict_relative_risk}
        order = max(fit.selected, default=0) // fit.d  # the fit's K only bounds the orders it reads
        values = predictors[fit.family](fit, _load_design(args, X, order, f"{args.fit}: highest selected order"))
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


def cmd_simulate(args) -> None:
    """``simulate`` and ``simulate-test``: a seeded study, its report and, if
    asked, its replicate rows.  The testing study runs in setting 3."""
    run = _Run(args)
    testing = args.command == "simulate-test"
    cfg = ScenarioConfig(case=args.case, setting=3 if testing else args.setting, n=args.n, reps=args.reps,
                         seed=run.draw_seed(), train_frac=args.train_frac)
    try:
        study = run_test_study(cfg, n_nulls=args.nulls) if testing else run_prediction_study(cfg)
    except MemoryError:  # the study's arrays and seeds grow with --n and --reps alone
        raise ValueError(f"--n {args.n} and --reps {args.reps}: the study cannot be allocated") from None
    run.write("simulation", {"study": study.kind, "config": study.config, "reps": study.reps,
                             "metrics": study.metrics})
    if args.csv:
        _replicate_csv(args.csv, study)


def cmd_eval_auc(args) -> None:
    run = _Run(args)
    if args.splits < 2:  # one split has no spread to give an interval
        raise ValueError("--splits must be at least 2")
    rng = np.random.default_rng(run.draw_seed())
    fit, payload = run.read_fit()
    if fit.family != "logistic":
        raise ValueError("eval-auc requires a logistic-family fit configuration")
    y = _read_single_column(args.response, "y")
    check_binary(y)  # once, before the splits: a held-out row is scored, not fit
    X = read_covariates(args.covariates)
    if X.shape[0] != y.shape[0]:
        raise InputValueError(f"covariates have {X.shape[0]} rows but {y.shape[0]} were expected", "covariates")
    design = _load_design(args, X, payload["K"], f"{args.fit}: K")
    tol = payload["tol"]
    scores = []
    for i, (train, test) in enumerate(row_splits(design.n_rows, args.train_frac, rng, args.splits), 1):
        sub = forward_select(design.subset_rows(train), tol=tol)
        fit = fit_logistic(sub, y[train], tol=tol)
        proba = predict_proba(fit, design.subset_rows(test))
        try:
            scores.append(auc(proba, y[test]))
        except ValueError as exc:  # the held-out labels are of one class
            raise InputValueError(f"held-out split {i} of {args.splits}: {exc}", "response") from None
    scores = np.asarray(scores)
    mean, sd = float(scores.mean()), float(scores.std(ddof=1))
    half = Z_95 * sd / math.sqrt(scores.size)
    run.write("auc-eval", {"splits": args.splits, "train_frac": args.train_frac, "K": payload["K"], "mean_auc": mean,
                           "sd": sd, "ci95_low": mean - half, "ci95_high": mean + half, "per_split": scores.tolist()})


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

# Each flag is declared once.  A command takes the flags it names, in that
# order, with its own changes to a declaration.
_FLAGS = {
    "--family": {"required": True, "choices": _FIT_RECORDS},
    "--fit": {"required": True},
    "--edges": {"required": True},
    "--covariates": {"required": True},
    "--response": {},
    "--time": {},
    "--event": {},
    "--K": {"type": int, "default": 8},
    "--tol": {"type": _positive_float, "default": DEFAULT_SELECT_TOL},
    "--kmax": {"type": int, "required": True},
    "--alpha": {"type": float, "default": 0.05},
    "--case": {"type": int, "required": True},
    "--setting": {"type": int, "required": True},
    "--nulls": {"type": int, "required": True, "choices": [2, 3]},
    "--n": {"type": int, "required": True},
    "--reps": {"type": int},
    "--splits": {"type": int, "default": 100},
    "--train-frac": {"type": _fraction, "default": 0.8},
    "--seed": {"type": int, "help": "seeds the command's random draws and is recorded in its report's manifest; "
               "fit and test draw no random numbers, so their output is the same for every seed"},
    "--out": {"required": True},
    "--csv": {},
}
_COMMANDS = {  # name: (help, handler, flags, changes)
    "fit": ("fit a model from CSV inputs", cmd_fit,
            "--family --edges --covariates --response --time --event --K --tol --seed --out", {}),
    "test": ("sequential order tests from a gaussian fit", cmd_test, "--fit --kmax --alpha --seed --out", {}),
    "predict": ("per-node predictions from a fit", cmd_predict, "--fit --edges --covariates --out", {}),
    "simulate": ("run a prediction-comparison study", cmd_simulate,
                 "--case --setting --n --reps --seed --train-frac --out --csv",
                 {"--reps": {"default": 100}}),
    "simulate-test": ("run a sequential-testing study", cmd_simulate,
                      "--case --nulls --n --reps --seed --train-frac --out --csv",
                      {"--reps": {"default": 1000}}),
    "eval-auc": ("repeated-split AUC for a logistic configuration", cmd_eval_auc,
                 "--fit --edges --covariates --response --splits --train-frac --seed --out",
                 {"--response": {"required": True}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: each ``parse_args`` call returns a new
    namespace, so repeated ``main`` calls parse independently."""
    parser = argparse.ArgumentParser(
        prog="npr",
        description="Regression on network-linked data via propagated covariates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags, changes) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            command.add_argument(flag, **_FLAGS[flag] | changes.get(flag, {}))
        command.set_defaults(func=handler)
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
