import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import npr
from npr.cli import build_parser, main
from npr.schemas import validate_report

TOY = Path(__file__).parent / "data" / "toy"
SIM = Path(__file__).parent / "data" / "sim"
GOLDEN_FITS = ["golden_fit.json", "golden_logistic_fit.json", "golden_cox_fit.json"]
MISSING = object()  # a key deleted from a fit file


def golden_fit(**changes):
    """The toy gaussian golden fit with some top-level keys replaced."""
    return {**json.loads((TOY / "golden_fit.json").read_text()), **changes}


def gaussian_block(**changes):
    return {**golden_fit()["gaussian"], **changes}


def read_positions(fit) -> list[tuple]:
    """Every (container, key) of a fit report whose value test or predict reads."""
    unread = {"schema_version", "t_statistics", "gram_condition_number", "order", "covariate"}
    positions = []

    def walk(node):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            if key not in unread and value is not None:  # None: another family's block
                positions.append((node, key))
                if isinstance(value, (dict, list)):
                    walk(value)

    walk(fit)
    return positions


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def run(*argv):
    return main(list(argv))


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


TOY_COMMANDS = {  # commands on the toy inputs, each named file a path under TOY
    "gaussian": "fit --family gaussian --edges edges.csv --covariates covariates.csv --response response.csv --K 2",
    "logistic": "fit --family logistic --edges edges.csv --covariates covariates.csv --response binary.csv --K 2",
    "cox": "fit --family cox --edges edges.csv --covariates covariates.csv --time time.csv --event event.csv --K 2",
    "predict": "predict --fit golden_fit.json --edges edges.csv --covariates covariates.csv",
    "eval-auc": "eval-auc --fit golden_logistic_fit.json --edges edges.csv --covariates covariates.csv "
                "--response binary.csv --splits 2 --seed 1",
}


def toy_argv(command: str, replaced: dict) -> list[str]:
    """The arguments of ``TOY_COMMANDS[command]``, with each file that
    ``replaced`` maps to another path read from there."""
    return [str(replaced.get(arg, TOY / arg)) if arg.endswith((".csv", ".json")) else arg
            for arg in TOY_COMMANDS[command].split()]


@pytest.fixture
def auc_inputs(tmp_path):
    """Paths of a 300-node graph, two covariates, a binary response and a
    logistic fit of them at K 1: enough rows for every eval-auc split."""
    from scipy.special import expit

    from npr.design import build_design
    from npr.graph import gen_erdos_renyi, row_normalize, write_edge_list

    rng = np.random.default_rng(4)
    n = 300
    paths = {name: tmp_path / f"{name}.csv" for name in ("e", "x", "y")}
    g = gen_erdos_renyi(n, rng)
    write_edge_list(paths["e"], g)
    X = rng.standard_normal((n, 2))
    write_rows(paths["x"], ["x1", "x2"], [[repr(float(a)), repr(float(b))] for a, b in X])
    design = build_design(row_normalize(g), X, 1)
    eta = design.full_matrix() @ np.array([1.2, -0.8, 0.9, 0.5])
    y = (rng.random(n) < expit(eta)).astype(int)
    write_rows(paths["y"], ["y"], [[int(v)] for v in y])
    paths = {name: str(path) for name, path in paths.items()}
    paths["fit"] = str(tmp_path / "fit.json")
    assert run(
        "fit", "--family", "logistic", "--edges", paths["e"], "--covariates", paths["x"],
        "--response", paths["y"], "--K", "1", "--out", paths["fit"],
    ) == 0
    return paths


@pytest.fixture
def toy_fit(tmp_path):
    out = tmp_path / "fit.json"
    code = run(
        "fit", "--family", "gaussian",
        "--edges", str(TOY / "edges.csv"),
        "--covariates", str(TOY / "covariates.csv"),
        "--response", str(TOY / "response.csv"),
        "--K", "2", "--out", str(out),
    )
    assert code == 0
    return out


class TestFitCommand:
    def test_reproduces_golden_fit(self, toy_fit):
        got = json.loads(toy_fit.read_text())
        del got["manifest"]
        golden = json.loads((TOY / "golden_fit.json").read_text())
        assert got == golden

    def test_reproduces_golden_cox_fit(self, tmp_path):
        # tied times, one censored row tied with events: Breslow sums are pinned
        out = tmp_path / "cox.json"
        assert run(
            "fit", "--family", "cox",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--time", str(TOY / "time.csv"),
            "--event", str(TOY / "event.csv"),
            "--K", "2", "--out", str(out),
        ) == 0
        got = json.loads(out.read_text())
        del got["manifest"]
        golden = json.loads((TOY / "golden_cox_fit.json").read_text())
        assert got == golden

    def test_reproduces_golden_logistic_fit(self, tmp_path):
        out = tmp_path / "logistic.json"
        assert run(
            "fit", "--family", "logistic",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(TOY / "binary.csv"),
            "--K", "2", "--out", str(out),
        ) == 0
        got = json.loads(out.read_text())
        del got["manifest"]
        golden = json.loads((TOY / "golden_logistic_fit.json").read_text())
        assert got == golden

    def test_report_validates_against_schema(self, toy_fit):
        validate_report(json.loads(toy_fit.read_text()))

    @pytest.mark.parametrize(
        "command, inputs",
        [
            ("fit", ["--family", "gaussian", "--response", str(TOY / "response.csv")]),
            ("predict", ["--fit", str(TOY / "golden_fit.json")]),
        ],
        ids=["fit", "predict"],
    )
    def test_missing_file_exits_2(self, tmp_path, capsys, command, inputs):
        code = run(
            command, *inputs,
            "--edges", str(tmp_path / "nope.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--out", str(tmp_path / "o.out"),
        )
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err
        assert not (tmp_path / "o.out").exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-8", "abc"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        out = tmp_path / "fit.json"
        with pytest.raises(SystemExit) as exc:
            run(
                "fit", "--family", "gaussian",
                "--edges", str(TOY / "edges.csv"),
                "--covariates", str(TOY / "covariates.csv"),
                "--response", str(TOY / "response.csv"),
                "--K", "2", f"--tol={tol}", "--out", str(out),
            )
        assert exc.value.code == 2
        assert f"argument --tol: must be a finite number above 0, got {tol!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_k_zero_matches_classical_regression(self, tmp_path):
        out = tmp_path / "fit0.json"
        assert run(
            "fit", "--family", "gaussian",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(TOY / "response.csv"),
            "--K", "0", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert [c["name"] for c in payload["coefficients"]] == ["k0_x1", "k0_x2"]
        X = np.loadtxt(TOY / "covariates.csv", delimiter=",", skiprows=1)
        y = np.loadtxt(TOY / "response.csv", delimiter=",", skiprows=1)
        Xc = X - X.mean(axis=0)
        coef = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)[0]
        got = np.array([c["estimate"] for c in payload["coefficients"]])
        assert np.abs(got - coef).max() < 1e-10

    def test_family_response_mismatch_exits_2(self, tmp_path, capsys):
        assert run(
            "fit", "--family", "logistic",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(TOY / "response.csv"),
            "--out", str(tmp_path / "o.json"),
        ) == 2
        assert "0/1" in capsys.readouterr().err

    def test_separation_exits_1(self, tmp_path, capsys):
        n = 30
        write_rows(tmp_path / "e.csv", ["src", "dst"], [])
        write_rows(tmp_path / "x.csv", ["x1"], [[f"{v:.3f}"] for v in np.linspace(-2, 2, n)])
        write_rows(tmp_path / "y.csv", ["y"], [[int(v > 0)] for v in np.linspace(-2, 2, n)])
        code = run(
            "fit", "--family", "logistic",
            "--edges", str(tmp_path / "e.csv"),
            "--covariates", str(tmp_path / "x.csv"),
            "--response", str(tmp_path / "y.csv"),
            "--K", "0", "--out", str(tmp_path / "o.json"),
        )
        assert code == 1
        assert "separation" in capsys.readouterr().err

    def test_nan_covariate_exits_2_naming_the_column(self, tmp_path, capsys):
        lines = (TOY / "covariates.csv").read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",")[1]
        (tmp_path / "x.csv").write_text("\n".join(lines) + "\n")
        code = run(
            "fit", "--family", "gaussian",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(tmp_path / "x.csv"),
            "--response", str(TOY / "response.csv"),
            "--K", "2", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert "k0_x1" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_inf_response_exits_2_naming_the_response(self, tmp_path, capsys):
        lines = (TOY / "response.csv").read_text().splitlines()
        lines[5] = "inf"
        (tmp_path / "y.csv").write_text("\n".join(lines) + "\n")
        code = run(
            "fit", "--family", "gaussian",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(tmp_path / "y.csv"),
            "--K", "2", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert "response" in capsys.readouterr().err

    def test_rerun_fit_gives_the_same_test_report(self, tmp_path):
        # test digests the fit report without its manifest's timestamp block
        fit, out = tmp_path / "fit.json", tmp_path / "test.json"
        reports = []
        for _ in range(2):
            assert run("fit", "--family", "gaussian", "--edges", str(TOY / "edges.csv"),
                       "--covariates", str(TOY / "covariates.csv"), "--response", str(TOY / "response.csv"),
                       "--K", "2", "--out", str(fit)) == 0
            assert run("test", "--fit", str(fit), "--kmax", "1", "--out", str(out)) == 0
            report = json.loads(out.read_text())
            del report["manifest"]["timestamp"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family", ["gaussian", "logistic", "cox"])
    def test_covariate_whose_squares_overflow_exits_2_naming_the_file(self, tmp_path, capsys, family):
        # the column screen keeps x1 with one entry at 1e155, but the fit's
        # sums of its squares overflow
        lines = (TOY / "covariates.csv").read_text().splitlines()
        lines[4] = "1e155," + lines[4].split(",")[1]
        (tmp_path / "x.csv").write_text("\n".join(lines) + "\n")
        outcome = {"gaussian": ["--response", str(TOY / "response.csv")],
                   "logistic": ["--response", str(TOY / "binary.csv")],
                   "cox": ["--time", str(TOY / "time.csv"), "--event", str(TOY / "event.csv")]}[family]
        out = tmp_path / "o.json"
        assert run("fit", "--family", family, "--edges", str(TOY / "edges.csv"),
                   "--covariates", str(tmp_path / "x.csv"), *outcome, "--K", "2", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'x.csv'}: values too large or too small")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_covariate_whose_column_norm_overflows_exits_2_naming_the_file(self, tmp_path, capsys):
        # x1 at 1e308 in the first row: the QR factor of the centered design
        # overflows, where its column norms once printed numpy's warning
        lines = (TOY / "covariates.csv").read_text().splitlines()
        lines[1] = "1e308," + lines[1].split(",")[1]
        (tmp_path / "x.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        assert run("fit", "--family", "gaussian", "--edges", str(TOY / "edges.csv"), "--covariates",
                   str(tmp_path / "x.csv"), "--response", str(TOY / "response.csv"), "--K", "2", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'x.csv'}: values too large or too small")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("k", [-540, -600, -1000])
    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_covariate_whose_information_underflows_exits_2_naming_the_file(self, tmp_path, capsys, family, k):
        # x1 in units so small that its diagonal of the information is
        # below the smallest normal float while the column screen keeps it
        X = np.loadtxt(TOY / "covariates.csv", delimiter=",", skiprows=1)
        X[:, 0] = np.ldexp(X[:, 0], k)
        write_rows(tmp_path / "x.csv", ["x1", "x2"], [[repr(a), repr(b)] for a, b in X.tolist()])
        outcome = {"logistic": ["--response", str(TOY / "binary.csv")],
                   "cox": ["--time", str(TOY / "time.csv"), "--event", str(TOY / "event.csv")]}[family]
        out = tmp_path / "o.json"
        assert run("fit", "--family", family, "--edges", str(TOY / "edges.csv"),
                   "--covariates", str(tmp_path / "x.csv"), *outcome, "--K", "2", "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'x.csv'}: values too large or too small")
        assert not out.exists()

    def test_oversized_node_id_exits_2_naming_the_line(self, tmp_path, capsys):
        lines = (TOY / "edges.csv").read_text().splitlines()
        lines.append("99999999999999999999,1")
        (tmp_path / "edges.csv").write_text("\n".join(lines) + "\n")
        code = run(
            "fit", "--family", "gaussian",
            "--edges", str(tmp_path / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(TOY / "response.csv"),
            "--K", "2", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert f"edges.csv:{len(lines)}: non-integer node id" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input_exits_2_asking_for_a_regular_file(self, tmp_path, capsys):
        # the digest is taken before the read, and a pipe can be read once
        r, w = os.pipe()
        os.write(w, (TOY / "covariates.csv").read_bytes())
        os.close(w)
        try:
            code = run(
                "fit", "--family", "gaussian",
                "--edges", str(TOY / "edges.csv"),
                "--covariates", f"/dev/fd/{r}",
                "--response", str(TOY / "response.csv"),
                "--K", "2", "--out", str(tmp_path / "o.json"),
            )
        finally:
            os.close(r)
        assert code == 2
        assert f"/dev/fd/{r}: not a regular file" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_cox_fit_from_files(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 40
        t = rng.exponential(1.0, n) + 0.01
        e = (rng.random(n) < 0.8).astype(int)
        e[0] = 1
        write_rows(tmp_path / "t.csv", ["time"], [[repr(float(v))] for v in t])
        write_rows(tmp_path / "d.csv", ["event"], [[int(v)] for v in e])
        out = tmp_path / "fitc.json"
        code = run(
            "fit", "--family", "cox",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--time", str(tmp_path / "t.csv"),
            "--event", str(tmp_path / "d.csv"),
            "--K", "1", "--out", str(out),
        )
        # 40 survival rows vs 24 covariate rows -> dimension error (exit 2)
        assert code == 2
        # with matching lengths the fit succeeds
        write_rows(tmp_path / "t.csv", ["time"], [[repr(float(v))] for v in t[:24]])
        write_rows(tmp_path / "d.csv", ["event"], [[int(v)] for v in np.maximum(e[:24], np.eye(24, dtype=int)[0])])
        assert run(
            "fit", "--family", "cox",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--time", str(tmp_path / "t.csv"),
            "--event", str(tmp_path / "d.csv"),
            "--K", "1", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        validate_report(payload)
        assert payload["cox"]["converged"]


class TestTestCommand:
    def test_writes_valid_report(self, toy_fit, tmp_path):
        out = tmp_path / "test.json"
        assert run("test", "--fit", str(toy_fit), "--kmax", "2", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        validate_report(payload)
        assert len(payload["tests"]) == 3
        assert payload["selected_order"] in range(0, 4)

    def test_pure_direct_signal_selects_order(self, tmp_path):
        # strong order-0 signal only: the first retained hypothesis is j=1
        rng = np.random.default_rng(1)
        n = 400
        from npr.graph import gen_erdos_renyi, write_edge_list

        g = gen_erdos_renyi(n, rng)
        write_edge_list(tmp_path / "e.csv", g)
        X = rng.standard_normal((n, 2))
        write_rows(tmp_path / "x.csv", ["x1", "x2"], [[repr(float(a)), repr(float(b))] for a, b in X])
        y = X @ np.array([2.0, -1.5]) + rng.standard_normal(n)
        write_rows(tmp_path / "y.csv", ["y"], [[repr(float(v))] for v in y])
        fit_out = tmp_path / "fit.json"
        assert run(
            "fit", "--family", "gaussian",
            "--edges", str(tmp_path / "e.csv"),
            "--covariates", str(tmp_path / "x.csv"),
            "--response", str(tmp_path / "y.csv"),
            "--K", "4", "--out", str(fit_out),
        ) == 0
        out = tmp_path / "test.json"
        assert run("test", "--fit", str(fit_out), "--kmax", "4", "--out", str(out)) == 0
        assert json.loads(out.read_text())["selected_order"] == 1

    def test_kmax_exceeding_fit_K_exits_2(self, toy_fit, tmp_path):
        assert run("test", "--fit", str(toy_fit), "--kmax", "5", "--out", str(tmp_path / "t.json")) == 2

    def test_alpha_out_of_range_exits_2(self, toy_fit, tmp_path):
        assert run(
            "test", "--fit", str(toy_fit), "--kmax", "1", "--alpha", "1.5",
            "--out", str(tmp_path / "t.json"),
        ) == 2

    @pytest.mark.filterwarnings("ignore:zero residual variance:RuntimeWarning")
    @pytest.mark.parametrize("response", ["2 x1 + 1", "zero"])
    def test_an_exact_fit_exits_1_naming_the_zero_residual_variance(self, tmp_path, capsys, response):
        X = np.loadtxt(TOY / "covariates.csv", delimiter=",", skiprows=1)
        y = 2 * X[:, 0] + 1 if response == "2 x1 + 1" else np.zeros(len(X))
        write_rows(tmp_path / "y.csv", ["y"], [[repr(v)] for v in y.tolist()])
        fit, out = tmp_path / "fit.json", tmp_path / "test.json"
        assert run("fit", "--family", "gaussian", "--edges", str(TOY / "edges.csv"),
                   "--covariates", str(TOY / "covariates.csv"), "--response", str(tmp_path / "y.csv"),
                   "--K", "2", "--out", str(fit)) == 0
        if response == "zero":  # every estimate and standard error is 0: no evidence either way
            assert {(t["t"], t["p"]) for t in json.loads(fit.read_text())["t_statistics"]} == {(None, 1.0)}
        capsys.readouterr()
        assert run("test", "--fit", str(fit), "--kmax", "2", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: zero residual variance")
        assert not out.exists()

    def test_non_gaussian_fit_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        yb = (rng.random(24) < 0.5).astype(int)
        yb[:2] = [0, 1]
        write_rows(tmp_path / "yb.csv", ["y"], [[int(v)] for v in yb])
        fit_out = tmp_path / "fitl.json"
        assert run(
            "fit", "--family", "logistic",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(tmp_path / "yb.csv"),
            "--K", "1", "--out", str(fit_out),
        ) == 0
        assert run("test", "--fit", str(fit_out), "--kmax", "1", "--out", str(tmp_path / "t.json")) == 2


class TestPredictCommand:
    def test_round_trip_matches_fitted_values(self, toy_fit, tmp_path):
        out = tmp_path / "pred.csv"
        assert run(
            "predict", "--fit", str(toy_fit),
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--out", str(out),
        ) == 0
        rows = list(csv.DictReader(open(out)))
        preds = np.array([float(r["prediction"]) for r in rows])
        payload = json.loads(toy_fit.read_text())
        y = np.loadtxt(TOY / "response.csv", delimiter=",", skiprows=1)
        rss = float(((y - preds) ** 2).sum())
        assert rss == pytest.approx(payload["gaussian"]["rss"], rel=1e-10)

    def test_empty_prediction_set(self, toy_fit, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n")
        out = tmp_path / "pred.csv"
        assert run(
            "predict", "--fit", str(toy_fit),
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(empty),
            "--out", str(out),
        ) == 0
        assert out.read_text().strip() == "node,prediction"

    def test_rows_are_the_bytes_csv_writer_gives(self, toy_fit, tmp_path):
        from npr.cli import _load_design
        from npr.gaussian import GaussianFit, predict

        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n")
        X = np.loadtxt(TOY / "covariates.csv", delimiter=",", skiprows=1)
        args = type("Args", (), {"edges": str(TOY / "edges.csv")})
        values = predict(GaussianFit.from_report(json.loads(toy_fit.read_text()), toy_fit), _load_design(args, X, 2))
        for covariates, rows in ((TOY / "covariates.csv", values), (empty, [])):
            out, want = tmp_path / "pred.csv", tmp_path / "want.csv"
            assert run(
                "predict", "--fit", str(toy_fit), "--edges", str(TOY / "edges.csv"),
                "--covariates", str(covariates), "--out", str(out),
            ) == 0
            write_rows(want, ["node", "prediction"], [[i, repr(float(v))] for i, v in enumerate(rows)])
            assert out.read_bytes() == want.read_bytes()

    def test_wrong_width_exits_2(self, toy_fit, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1\n1.0\n")
        assert run(
            "predict", "--fit", str(toy_fit),
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(bad),
            "--out", str(tmp_path / "p.csv"),
        ) == 2

    def test_logistic_probabilities_use_the_reported_coefficients(self, tmp_path):
        yb = (np.random.default_rng(2).random(24) < 0.5).astype(int)
        yb[:2] = [0, 1]
        write_rows(tmp_path / "yb.csv", ["y"], [[int(v)] for v in yb])
        fit_out = tmp_path / "fitl.json"
        common = ["--edges", str(TOY / "edges.csv"), "--covariates", str(TOY / "covariates.csv")]
        assert run(
            "fit", "--family", "logistic", *common, "--response", str(tmp_path / "yb.csv"),
            "--K", "1", "--out", str(fit_out),
        ) == 0
        out = tmp_path / "p.csv"
        assert run("predict", "--fit", str(fit_out), *common, "--out", str(out)) == 0
        payload = json.loads(fit_out.read_text())
        from npr.design import build_design
        from npr.graph import read_edge_list, row_normalize
        from scipy.special import expit

        X = np.loadtxt(TOY / "covariates.csv", delimiter=",", skiprows=1)
        M = build_design(row_normalize(read_edge_list(TOY / "edges.csv", n_nodes=24)), X, 1).full_matrix()
        beta = np.array([c["estimate"] for c in payload["coefficients"]])
        expected = expit(payload["logistic"]["intercept"] + M[:, payload["selected_columns"]] @ beta)
        got = np.array([float(r["prediction"]) for r in csv.DictReader(open(out))])
        assert np.array_equal(got, expected)

    def test_cox_relative_risk_output(self, tmp_path):
        rng = np.random.default_rng(3)
        t = rng.exponential(1.0, 24) + 0.01
        e = np.ones(24, dtype=int)
        write_rows(tmp_path / "t.csv", ["time"], [[repr(float(v))] for v in t])
        write_rows(tmp_path / "d.csv", ["event"], [[int(v)] for v in e])
        fit_out = tmp_path / "fitc.json"
        assert run(
            "fit", "--family", "cox",
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--time", str(tmp_path / "t.csv"),
            "--event", str(tmp_path / "d.csv"),
            "--K", "1", "--out", str(fit_out),
        ) == 0
        out = tmp_path / "rr.csv"
        assert run(
            "predict", "--fit", str(fit_out),
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--out", str(out),
        ) == 0
        rr = np.array([float(r["prediction"]) for r in csv.DictReader(open(out))])
        assert np.all(rr > 0)

    @pytest.mark.parametrize("golden", GOLDEN_FITS)
    @pytest.mark.parametrize("row", ["nan,1.0", "inf,1", "1e308,-1e308"])
    def test_a_non_finite_prediction_exits_2_naming_the_covariates(self, tmp_path, capsys, golden, row):
        lines = (TOY / "covariates.csv").read_text().splitlines()
        lines[2] = row  # the second data row
        (tmp_path / "x.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("predict", "--fit", str(TOY / golden), "--edges", str(TOY / "edges.csv"),
                       "--covariates", str(tmp_path / "x.csv"), "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'x.csv'}: a prediction is not finite")
        assert not out.exists()


class TestSimulateCommands:
    def test_simulate_deterministic_and_valid(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--case", "1", "--setting", "1", "--n", "200",
                "--reps", "3", "--seed", "17"]
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        a, b = json.loads(out1.read_text()), json.loads(out2.read_text())
        validate_report(a)
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        a["manifest"]["arguments"].pop("out")
        b["manifest"]["arguments"].pop("out")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_simulate_csv_long_format(self, tmp_path):
        out = tmp_path / "r.json"
        csv_out = tmp_path / "rows.csv"
        assert run(
            "simulate", "--case", "1", "--setting", "3", "--n", "150",
            "--reps", "2", "--seed", "3", "--out", str(out), "--csv", str(csv_out),
        ) == 0
        rows = list(csv.DictReader(open(csv_out)))
        assert {r["metric"] for r in rows} >= {"kappa1", "kappa2", "kappa3", "kappa4"}
        assert {r["rep"] for r in rows} == {"0", "1"}

    def test_simulate_test_smoke(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(
            "simulate-test", "--case", "1", "--nulls", "3", "--n", "300",
            "--reps", "3", "--seed", "23", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        validate_report(payload)
        assert payload["study"] == "testing"
        assert set(payload["metrics"]) >= {"EP", "ES", "MP", "FWER", "CP"}

    def test_seed_recorded_when_drawn(self, tmp_path):
        out = tmp_path / "r.json"
        assert run(
            "simulate", "--case", "1", "--setting", "1", "--n", "150",
            "--reps", "2", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["seed"] is not None
        assert payload["config"]["seed"] == payload["manifest"]["seed"]

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("simulate_case1_setting2", ["simulate", "--case", "1", "--setting", "2", "--n", "1000", "--seed", "1201"]),
            ("simulate_case2_setting4", ["simulate", "--case", "2", "--setting", "4", "--n", "1000", "--seed", "1202"]),
            ("simulate_case3_setting1", ["simulate", "--case", "3", "--setting", "1", "--n", "1000", "--seed", "1203"]),
            ("simulate_test_case1", ["simulate-test", "--case", "1", "--nulls", "2", "--n", "3000", "--seed", "1211"]),
            ("simulate_test_case2", ["simulate-test", "--case", "2", "--nulls", "3", "--n", "3000", "--seed", "1212"]),
            ("simulate_test_case3", ["simulate-test", "--case", "3", "--nulls", "2", "--n", "3000", "--seed", "1213"]),
            ("simulate_case2_setting3", ["simulate", "--case", "2", "--setting", "3", "--n", "1000", "--seed", "1204"]),
        ],
    )
    def test_reproduces_golden_study(self, tmp_path, name, argv):
        # reports and replicate rows of three replicates, pinned bit for bit
        out, rows = tmp_path / "r.json", tmp_path / "r.csv"
        assert run(*argv, "--reps", "3", "--out", str(out), "--csv", str(rows)) == 0
        got = json.loads(out.read_text())
        del got["manifest"]
        assert got == json.loads((SIM / f"{name}.json").read_text())
        assert rows.read_bytes() == (SIM / f"{name}.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "0", "-3", ""])
    def test_bad_thread_count_exits_2_naming_the_variable(self, tmp_path, capsys, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(npr.sim, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("NPR_THREADS", threads)
        out = tmp_path / "r.json"
        assert run(
            "simulate", "--case", "1", "--setting", "1", "--n", "50",
            "--reps", "2", "--seed", "1", "--out", str(out),
        ) == 2
        assert f"NPR_THREADS must be an integer >= 1, got {threads!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_an_exact_fit_in_a_replicate_exits_1(self, tmp_path, capsys):
        # ten rows: the replicate's design fits its response exactly
        out = tmp_path / "t.json"
        assert run("simulate-test", "--case", "2", "--nulls", "3", "--n", "10", "--reps", "1",
                   "--seed", "1", "--out", str(out)) == 1
        assert capsys.readouterr().err.startswith("error: zero residual variance")
        assert not out.exists()

    def test_an_ill_conditioned_wald_solve_prints_no_warning(self, tmp_path):
        # a replicate's restriction block has rcond ~ 1e-17; its T is kept
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate-test", "--case", "1", "--nulls", "2", "--n", "60", "--reps", "36",
                       "--seed", "1", "--out", str(out)) == 0
        holm, unadjusted = 31 / 36, 32 / 36
        assert json.loads(out.read_text())["metrics"] == {
            "EP": unadjusted, "ES": 0.875, "MP": holm, "FWER": holm, "CP": 0.24629629629629632, "n_nulls": 2,
            "per_order_unadjusted_rejection": [unadjusted] * 4 + [holm],
            "per_order_holm_rejection": [holm] * 5,
            "selected_order_distribution": [5, 0, 0, 0, 0, 31],
        }

    def test_invalid_config_exits_2(self, tmp_path):
        assert run(
            "simulate", "--case", "1", "--setting", "4", "--n", "150",
            "--reps", "2", "--seed", "1", "--out", str(tmp_path / "r.json"),
        ) == 2


class TestMain:
    @pytest.mark.parametrize("command", ["test", "predict"])
    @pytest.mark.parametrize(
        "payload, reason",
        [
            ([1, 2], ""),
            ("fit", ""),
            ({"kind": "fit"}, ""),
            ({"kind": "fit", "family": "gaussian"}, ""),
            ({"kind": "fit", "family": "probit", "probit": {}}, ""),
            ({"kind": "fit", "family": ["gaussian"]}, ""),
            (golden_fit(selected_columns=[999]), " (bad 'selected_columns')"),
            (golden_fit(selected_columns=[0, 1, 2, 3, 4, 6]), " (bad 'selected_columns')"),
            (golden_fit(coefficients=golden_fit()["coefficients"][1:]),
             " ('coefficients' does not match the 6 selected columns)"),
            (golden_fit(gaussian=gaussian_block(column_means=None)), " (bad 'gaussian.column_means')"),
            (golden_fit(gaussian=gaussian_block(column_means=[0.0] * 5)),
             " ('gaussian.column_means' does not match the 6 selected columns)"),
            (golden_fit(gaussian=gaussian_block(gram="x")), " (bad 'gaussian.gram')"),
            (golden_fit(gaussian=gaussian_block(gram=gaussian_block()["gram"][:5])),
             " ('gaussian.gram' does not match the 6 selected columns)"),
            (golden_fit(gaussian=gaussian_block(gram_inverse=[row[:5] for row in gaussian_block()["gram_inverse"]])),
             " ('gaussian.gram_inverse' does not match the 6 selected columns)"),
            (golden_fit(coefficients=[{**golden_fit()["coefficients"][0], "estimate": 10 ** 400},
                                      *golden_fit()["coefficients"][1:]]),
             " (bad 'coefficients[0].estimate')"),
        ],
        ids=["list", "string", "no family", "no family block", "unknown family", "family of a list type",
             "selected column out of range", "selected column past the design", "one coefficient removed",
             "null column means", "short column means", "gram a string", "gram missing a row",
             "gram inverse rows too short", "estimate past the floats"],
    )
    def test_fit_file_of_the_wrong_shape_exits_2(self, tmp_path, capsys, command, payload, reason):
        fit = tmp_path / "fit.json"
        if isinstance(payload, dict):  # a golden fit with keys taken away or changed
            golden = json.loads((TOY / "golden_fit.json").read_text())
            payload = {**{k: v for k, v in golden.items() if k not in ("family", "gaussian")}, **payload}
        fit.write_text(json.dumps(payload))
        inputs = {
            "test": ["--kmax", "1"],
            "predict": ["--edges", str(TOY / "edges.csv"), "--covariates", str(TOY / "covariates.csv")],
        }[command]
        out = tmp_path / "o.out"
        assert run(command, "--fit", str(fit), *inputs, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"error: {fit}: not a fit report{reason}\n"
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize(
        "golden, key, value",
        [
            *(pytest.param(golden, key, MISSING, id=f"{golden}-{key}") for golden, key in [
                *(("golden_fit.json", key) for key in ["K", "d", "n", "tol", "selected_columns", "coefficients"]),
                *(("golden_fit.json", f"gaussian.{key}") for key in
                  ["rss", "sigma2_hat", "gram", "gram_inverse", "column_means", "y_mean"]),
                *(("golden_logistic_fit.json", f"logistic.{key}") for key in
                  ["intercept", "intercept_std_error", "log_likelihood", "iterations", "converged"]),
                *(("golden_cox_fit.json", f"cox.{key}") for key in ["partial_loglik", "iterations", "converged"]),
                *(("golden_fit.json", f"coefficients[0].{key}") for key in ["name", "estimate", "std_error"]),
                ("golden_cox_fit.json", "cox.n_events"),
            ]),
            # a value of the wrong JSON type: exit 2 naming the key, not a traceback
            *(pytest.param(golden, key, value, id=f"{golden}-{key}={value!r}") for golden, key, value in [
                ("golden_fit.json", "K", "2"),
                ("golden_fit.json", "K", True),
                ("golden_fit.json", "d", 2.0),
                ("golden_fit.json", "n", None),
                ("golden_fit.json", "tol", "1e-8"),
                ("golden_fit.json", "selected_columns", {}),
                ("golden_fit.json", "coefficients", "k0_x1"),
                ("golden_fit.json", "coefficients[2]", 1.5),
                ("golden_fit.json", "coefficients[2].estimate", "1.0"),
                ("golden_fit.json", "coefficients[5].name", 5),
                ("golden_fit.json", "gaussian.rss", None),
                ("golden_fit.json", "gaussian.column_means", [0.0, 0.0, 0.0, 0.0, 0.0, "0"]),
                ("golden_logistic_fit.json", "logistic.intercept", [1.0]),
                ("golden_logistic_fit.json", "logistic.converged", 1),
                ("golden_cox_fit.json", "cox.iterations", False),
                ("golden_cox_fit.json", "coefficients[1].std_error", True),
            ]),
        ],
    )
    def test_fit_file_missing_a_key_names_it(self, tmp_path, capsys, golden, key, value):
        payload = json.loads((TOY / golden).read_text())
        *parents, last = key.replace("[", ".").replace("]", "").split(".")
        holder = payload
        for part in parents:
            holder = holder[int(part) if part.isdigit() else part]
        last = int(last) if last.isdigit() else last
        if value is MISSING:
            del holder[last]
        else:
            holder[last] = value
        fit = tmp_path / "fit.json"
        fit.write_text(json.dumps(payload))
        out = tmp_path / "pred.csv"
        assert run("predict", "--fit", str(fit), "--edges", str(TOY / "edges.csv"),
                   "--covariates", str(TOY / "covariates.csv"), "--out", str(out)) == 2
        why = "missing" if value is MISSING else "bad"
        assert capsys.readouterr().err == f"error: {fit}: not a fit report ({why} '{key}')\n"
        assert not out.exists()

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_damaged_fit_file_exits_2_without_a_traceback(self, data):
        # one damage to a value that test or predict reads: its key deleted,
        # a value of another JSON type, or a list cut short
        payload = json.loads((TOY / data.draw(st.sampled_from(GOLDEN_FITS))).read_text())
        holder, key = data.draw(st.sampled_from(read_positions(payload)))
        value = holder[key]
        damages = ["retype"]
        if isinstance(holder, dict):
            damages.append("delete")
        if type(value) is list and value:
            damages.append("truncate")
        damage = data.draw(st.sampled_from(damages))
        if damage == "delete":
            del holder[key]
        elif damage == "truncate":
            holder[key] = value[: data.draw(st.integers(0, len(value) - 1))]
        else:
            others = [v for v in (None, True, 1.5, "x", [], {}) if json_type(v) != json_type(value)]
            holder[key] = data.draw(st.sampled_from(others))
        command, *inputs = data.draw(st.sampled_from([
            ["test", "--kmax", "1"],
            ["predict", "--edges", str(TOY / "edges.csv"), "--covariates", str(TOY / "covariates.csv")],
        ]))
        with tempfile.TemporaryDirectory() as tmp:
            fit, out = Path(tmp) / "fit.json", Path(tmp) / "out"
            fit.write_text(json.dumps(payload))
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert run(command, "--fit", str(fit), *inputs, "--out", str(out)) == 2
            assert "Traceback" not in err.getvalue() and not out.exists()

    @pytest.mark.parametrize("family", ["logistic", "cox"])
    def test_fit_stopped_at_the_iteration_cap_exits_0(self, tmp_path, family):
        # a tolerance no step can meet: 100 iterations, then a report that
        # says the fit did not converge
        outcome = {"logistic": ["--response", str(TOY / "binary.csv")],
                   "cox": ["--time", str(TOY / "time.csv"), "--event", str(TOY / "event.csv")]}[family]
        out = tmp_path / "fit.json"
        assert run("fit", "--family", family, "--edges", str(TOY / "edges.csv"),
                   "--covariates", str(TOY / "covariates.csv"), *outcome,
                   "--K", "2", "--tol", "1e-300", "--out", str(out)) == 0
        block = json.loads(out.read_text())[family]
        assert (block["iterations"], block["converged"]) == (100, False)

    @pytest.mark.parametrize("frac", ["nan", "inf", "0", "1", "abc"])
    @pytest.mark.parametrize("command", ["eval-auc", "simulate", "simulate-test"])
    def test_train_frac_must_lie_strictly_between_0_and_1(self, tmp_path, capsys, command, frac):
        argv = {
            "eval-auc": ["--fit", str(TOY / "golden_logistic_fit.json"), "--edges", str(TOY / "edges.csv"),
                         "--covariates", str(TOY / "covariates.csv"), "--response", str(TOY / "binary.csv")],
            "simulate": ["--case", "1", "--setting", "1", "--n", "50", "--reps", "2"],
            "simulate-test": ["--case", "1", "--nulls", "2", "--n", "50", "--reps", "2"],
        }[command]
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run(command, *argv, "--seed", "1", f"--train-frac={frac}", "--out", str(out))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --train-frac: must be a finite number strictly between 0 and 1, got {frac!r}" in err
        assert not out.exists()

    def test_calls_in_a_row_parse_independently(self, tmp_path):
        # the parser is built once; no flag of one call leaks into the next
        assert build_parser() is build_parser()
        fit = ["fit", "--family", "gaussian", "--edges", str(TOY / "edges.csv"),
               "--covariates", str(TOY / "covariates.csv"), "--response", str(TOY / "response.csv")]
        outs = [tmp_path / f"{i}.json" for i in range(3)]
        assert run(*fit, "--K", "2", "--tol", "1e-6", "--out", str(outs[0])) == 0
        assert run("simulate", "--case", "1", "--setting", "1", "--n", "150", "--reps", "2",
                   "--seed", "3", "--out", str(outs[1])) == 0
        assert run(*fit, "--out", str(outs[2])) == 0
        args = [json.loads(out.read_text())["manifest"]["arguments"] for out in outs]
        assert (args[0]["K"], args[0]["tol"]) == (2, 1e-6)
        assert args[1]["command"] == "simulate" and "family" not in args[1] and "K" not in args[1]
        assert (args[2]["K"], args[2]["tol"]) == (8, 1e-8)
        assert not {"case", "setting", "reps", "seed"} & set(args[2])


class TestRefusedValues:
    """Each refused input value names the file it came from."""

    CASES = [  # (command, the files damaged, the damage to their rows, the refusal)
        ("gaussian", ["edges.csv"], lambda rows: rows + ["24,3"], "edge 24,3: endpoint out of range"),
        ("gaussian", ["edges.csv"], lambda rows: rows + ["5,5"], "edge 5,5: self-loops are not allowed"),
        ("gaussian", ["edges.csv"], lambda rows: rows + [rows[1]], "edge 10,11: duplicate edges"),
        ("gaussian", ["response.csv"], lambda rows: rows[:-1], "response has 23 rows, design has 24"),
        ("logistic", ["binary.csv"], lambda rows: rows[:-1], "response has 23 rows, design has 24"),
        ("logistic", ["binary.csv"], lambda rows: [*rows[:-1], "2"], "logistic responses must be 0/1"),
        ("cox", ["time.csv"], lambda rows: rows[:-1], "time and event must have the same length"),
        ("cox", ["time.csv"], lambda rows: [*rows[:-1], "-1"], "observed times must be positive"),
        ("cox", ["event.csv"], lambda rows: [*rows[:-1], "2"], "event indicators must be 0/1"),
        ("cox", ["event.csv"], lambda rows: ["event"] + ["0"] * 24, "at least one event"),
        ("cox", ["time.csv", "event.csv"], lambda rows: rows[:-1], "survival data has 23 rows, design has 24"),
        ("predict", ["covariates.csv"], lambda rows: ["x1,x2,x3", "1,2,3"], "covariates have 3 columns but the fit used 2"),
        ("eval-auc", ["covariates.csv"], lambda rows: rows[:-1], "covariates have 23 rows but 24 were expected"),
    ]

    @pytest.mark.parametrize("command, damaged, edit, message", CASES, ids=[f"{case[0]}-{case[-1]}" for case in CASES])
    def test_names_the_file(self, tmp_path, capsys, command, damaged, edit, message):
        for name in damaged:
            (tmp_path / name).write_text("\n".join(edit((TOY / name).read_text().splitlines())) + "\n")
        out = tmp_path / "out"
        assert run(*toy_argv(command, {name: tmp_path / name for name in damaged}), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert all(str(tmp_path / name) in err.split(message)[0] for name in damaged)
        assert not out.exists()


class TestUnits:
    """A fit in other units: the toy inputs with y, or one covariate column,
    scaled by 2^k."""

    @staticmethod
    def fit(directory: Path, family: str, X: np.ndarray, y: np.ndarray) -> tuple[int, str, str | None]:
        """Exit code, stderr and report text of ``npr fit --K 2`` on X and y written to ``directory``."""
        write_rows(directory / "x.csv", ["x1", "x2"], [[repr(a), repr(b)] for a, b in X.tolist()])
        write_rows(directory / "y.csv", ["y"], [[repr(v)] for v in y.tolist()])
        outcome = (["--time", str(TOY / "time.csv"), "--event", str(TOY / "event.csv")] if family == "cox"
                   else ["--response", str(directory / "y.csv")])
        out = directory / "fit.json"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = run("fit", "--family", family, "--edges", str(TOY / "edges.csv"),
                       "--covariates", str(directory / "x.csv"), *outcome, "--K", "2", "--out", str(out))
        return code, err.getvalue(), out.read_text() if out.exists() else None

    # a response scaled to all zeros fits exactly, with the documented warning
    @pytest.mark.filterwarnings("ignore:zero residual variance:RuntimeWarning")
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_a_unit_scaling_scales_the_fit_exactly_or_exits_2(self, data):
        family = data.draw(st.sampled_from(["gaussian", "logistic", "cox"]))
        scaled = data.draw(st.sampled_from(["y", 0, 1] if family == "gaussian" else [0, 1]))
        k = data.draw(st.one_of(st.integers(-64, 64), st.integers(-1100, 1100)))
        X = np.loadtxt(TOY / "covariates.csv", delimiter=",", skiprows=1)
        y = np.loadtxt(TOY / ("binary.csv" if family == "logistic" else "response.csv"), delimiter=",", skiprows=1)
        Xk, yk = X.copy(), y
        with np.errstate(over="ignore", under="ignore"):
            if scaled == "y":
                yk = np.ldexp(y, k)
            else:
                Xk[:, scaled] = np.ldexp(X[:, scaled], k)
            # a scaling that overflows or loses bits gives other inputs
            exact = np.array_equal(np.ldexp(yk, -k), y) if scaled == "y" else np.array_equal(
                np.ldexp(Xk[:, scaled], -k), X[:, scaled])
        with tempfile.TemporaryDirectory() as tmp:
            base = json.loads(self.fit(Path(tmp), family, X, y)[2])
            code, err, text = self.fit(Path(tmp), family, Xk, yk)
        assert "Traceback" not in err
        if code == 2:
            assert str(Path(tmp) / ("y.csv" if scaled == "y" else "x.csv")) in err
            return
        assert code == 0
        fit = json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in a fit report"))
        if not exact:
            return
        assert fit["selected_columns"] == base["selected_columns"]
        if family != "gaussian":
            return
        for got, want in zip(fit["coefficients"], base["coefficients"]):
            e = k if scaled == "y" else -k * (want["covariate"] == scaled)
            assert (got["estimate"], got["std_error"]) == (
                math.ldexp(want["estimate"], e), math.ldexp(want["std_error"], e))
        assert fit["gaussian"]["rss"] == math.ldexp(base["gaussian"]["rss"], 2 * k * (scaled == "y"))
        assert [(t["t"], t["p"]) for t in fit["t_statistics"]] == [(t["t"], t["p"]) for t in base["t_statistics"]]


class TestNumericFlags:
    """Numeric flags at the edges of their ranges: one command at a time, with
    up to two of its numeric flags drawn and the others at valid values."""

    FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e-320", "0.5", "1", "1.5", "abc"]
    GRAPH = {"--edges": TOY / "edges.csv", "--covariates": TOY / "covariates.csv"}
    COMMANDS = {  # the inputs of each command, and its numeric flags at valid values
        "fit": ({"--family": "gaussian", **GRAPH, "--response": TOY / "response.csv"}, {"--K": 2, "--tol": 1e-8}),
        "test": ({"--fit": TOY / "golden_fit.json"}, {"--kmax": 2, "--alpha": 0.05}),
        "simulate": ({}, {"--case": 1, "--setting": 1, "--n": 30, "--reps": 1, "--train-frac": 0.8}),
        "simulate-test": ({}, {"--case": 1, "--nulls": 2, "--n": 30, "--reps": 1, "--train-frac": 0.8}),
        "eval-auc": ({"--fit": TOY / "golden_logistic_fit.json", **GRAPH, "--response": TOY / "binary.csv"},
                     {"--splits": 2, "--train-frac": 0.8}),
    }
    # --K, --n and --reps stay small: they allocate memory or start work
    INTEGERS = {"--K": (-1, 3), "--kmax": (-1, 3), "--splits": (-1, 3), "--case": (0, 4), "--setting": (0, 5),
                "--nulls": (1, 4), "--n": (-1, 30), "--reps": (-1, 2)}

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_numeric_flag_runs_or_exits_with_a_named_cause(self, data):
        command = data.draw(st.sampled_from(sorted(self.COMMANDS)))
        inputs, numbers = self.COMMANDS[command]
        drawn = data.draw(st.sets(st.sampled_from(sorted(numbers)), min_size=1, max_size=2))
        flags = {**inputs, **numbers, **{
            flag: data.draw(st.integers(*self.INTEGERS[flag]) if flag in self.INTEGERS
                            else st.sampled_from(self.FLOATS))
            for flag in sorted(drawn)
        }}
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", "zero residual variance", RuntimeWarning)
            out = Path(tmp) / "out.json"
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:  # --flag=value, so that a value such as -inf is not read as a flag
                    code = run(command, *(f"{flag}={value}" for flag, value in flags.items()),
                               "--seed", "1", "--out", str(out))
                except SystemExit as exc:
                    code = exc.code
            text = out.read_text() if out.exists() else None
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} in a report"))
        else:
            assert text is None and err.getvalue().startswith(("error: ", "usage: "))


class TestDamagedRows:
    """One row of one toy input file damaged, deleted or appended: each command
    that reads the file runs, or exits naming one of its input files."""

    READERS = {  # file: the commands that read it
        "edges.csv": ["gaussian", "logistic", "cox"], "covariates.csv": ["gaussian", "logistic", "cox"],
        "response.csv": ["gaussian"], "binary.csv": ["logistic"], "time.csv": ["cox"], "event.csv": ["cox"],
    }
    DAMAGES = ["abc", "", "nan", "inf", "-inf", "1e308", "-1", "1.5", "24",
               "extra field", "missing field", "self-loop", "repeated row", "whitespace"]

    @staticmethod
    def damaged(data, rows: list[str], row: str, damage: str) -> str:
        fields = row.split(",")
        if damage == "extra field":
            return row + ",1"
        if damage == "missing field":
            return ",".join(fields[:-1])
        if damage == "self-loop":
            return ",".join([fields[0]] * len(fields))
        if damage == "repeated row":
            return data.draw(st.sampled_from(rows[1:]))
        if damage == "whitespace":
            return "   "
        fields[data.draw(st.integers(0, len(fields) - 1))] = damage
        return ",".join(fields)

    @staticmethod
    def outcome(argv: list[str]) -> tuple[int, str, str | None]:
        """The exit code, stderr and output of ``npr argv``; no warning may
        be raised but the documented zero-residual-variance one."""
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.filterwarnings("ignore", "zero residual variance", RuntimeWarning)
            out = Path(tmp) / "out"
            with contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    code = run(*argv, "--out", str(out))
                except SystemExit as exc:
                    code = exc.code
            text = out.read_text() if out.exists() else None
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), err.getvalue()
        return code, err.getvalue(), text

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_damaged_row_runs_or_exits_naming_an_input(self, data):
        name = data.draw(st.sampled_from(sorted(self.READERS)))
        rows = (TOY / name).read_text().splitlines()
        action = data.draw(st.sampled_from(["damage", "delete", "append"]))
        at = data.draw(st.integers(0, len(rows) - 1))  # row 0 is the header
        if action == "delete":
            del rows[at]
        else:
            row = self.damaged(data, rows, rows[at], data.draw(st.sampled_from(self.DAMAGES)))
            if action == "append":
                rows.append(row)
            else:
                rows[at] = row
        commands = [data.draw(st.sampled_from(self.READERS[name]))]
        if name in ("edges.csv", "covariates.csv"):
            commands.append("predict")  # from the undamaged gaussian fit
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / name
            bad.write_text("\n".join(rows) + "\n")
            for command in commands:
                argv = toy_argv(command, {name: bad})
                code, err, text = self.outcome(argv)
                if code == 0 and command == "predict":
                    predictions = [float(r["prediction"]) for r in csv.DictReader(io.StringIO(text))]
                    assert all(math.isfinite(v) for v in predictions), predictions
                elif code == 0:
                    json.loads(text, parse_constant=lambda constant: pytest.fail(f"{constant} in a report"))
                elif code == 2:
                    assert any(arg in err for arg in argv if arg.endswith((".csv", ".json"))), err


class TestEvalAuc:
    def test_auc_eval_round_trip(self, tmp_path, auc_inputs):
        out = tmp_path / "auc.json"
        assert run(
            "eval-auc", "--fit", auc_inputs["fit"],
            "--edges", auc_inputs["e"],
            "--covariates", auc_inputs["x"],
            "--response", auc_inputs["y"],
            "--splits", "12", "--seed", "6", "--out", str(out),
        ) == 0
        payload = json.loads(out.read_text())
        validate_report(payload)
        assert 0.5 < payload["mean_auc"] <= 1.0
        assert payload["ci95_low"] <= payload["mean_auc"] <= payload["ci95_high"]
        assert len(payload["per_split"]) == 12

    def test_zero_splits_exits_2(self, tmp_path, capsys):
        # one split would report a zero-width interval around its own AUC
        for splits in ("0", "1"):
            assert run(
                "eval-auc", "--fit", str(TOY / "golden_logistic_fit.json"),
                "--edges", str(TOY / "edges.csv"),
                "--covariates", str(TOY / "covariates.csv"),
                "--response", str(TOY / "binary.csv"),
                "--splits", splits, "--seed", "1", "--out", str(tmp_path / "a.json"),
            ) == 2
            assert "--splits must be at least 2" in capsys.readouterr().err
            assert not (tmp_path / "a.json").exists()

    def test_requires_logistic_fit(self, toy_fit, tmp_path):
        assert run(
            "eval-auc", "--fit", str(toy_fit),
            "--edges", str(TOY / "edges.csv"),
            "--covariates", str(TOY / "covariates.csv"),
            "--response", str(TOY / "response.csv"),
            "--splits", "3", "--seed", "1", "--out", str(tmp_path / "a.json"),
        ) == 2


class TestManifest:
    """What each command records of its run: its arguments, defaults included,
    the inputs it digests, and its seed.  The golden tests leave the manifest
    out, so this is what pins it."""

    @staticmethod
    def one_replicate(study):
        # the manifest is under test, not the study: one replicate of seed 1
        return lambda cfg, *args, **kwargs: study(dataclasses.replace(cfg, reps=1, seed=1), *args, **kwargs)

    @pytest.mark.parametrize("command, seed", [
        *((command, seed) for command in ("fit", "test", "simulate", "simulate-test", "eval-auc")
          for seed in (None, 5)),
        ("predict", None),
    ])
    def test_records_arguments_digests_and_seed(self, tmp_path, monkeypatch, auc_inputs, command, seed):
        monkeypatch.setattr(npr.cli, "run_prediction_study", self.one_replicate(npr.sim.run_prediction_study))
        monkeypatch.setattr(npr.cli, "run_test_study", self.one_replicate(npr.sim.run_test_study))
        edges, covariates, fit = str(TOY / "edges.csv"), str(TOY / "covariates.csv"), str(TOY / "golden_fit.json")
        out = str(tmp_path / "out")
        argv, arguments, digests = {
            "fit": (["--family", "gaussian", "--edges", edges, "--covariates", covariates,
                     "--response", str(TOY / "response.csv")],
                    {"family": "gaussian", "edges": edges, "covariates": covariates,
                     "response": str(TOY / "response.csv"), "K": 8, "tol": 1e-8},
                    ["covariates", "edges", "response"]),
            "test": (["--fit", fit, "--kmax", "2"], {"fit": fit, "kmax": 2, "alpha": 0.05}, ["fit"]),
            "predict": (["--fit", fit, "--edges", edges, "--covariates", covariates],
                        {"fit": fit, "edges": edges, "covariates": covariates}, None),
            "simulate": (["--case", "1", "--setting", "1", "--n", "50"],
                         {"case": 1, "setting": 1, "n": 50, "reps": 100, "train_frac": 0.8}, []),
            "simulate-test": (["--case", "1", "--nulls", "2", "--n", "50"],
                              {"case": 1, "nulls": 2, "n": 50, "reps": 1000, "train_frac": 0.8}, []),
            "eval-auc": (["--fit", auc_inputs["fit"], "--edges", auc_inputs["e"], "--covariates", auc_inputs["x"],
                          "--response", auc_inputs["y"]],
                         {"fit": auc_inputs["fit"], "edges": auc_inputs["e"], "covariates": auc_inputs["x"],
                          "response": auc_inputs["y"], "splits": 100, "train_frac": 0.8},
                         ["covariates", "edges", "fit", "response"]),
        }[command]
        if seed is not None:
            argv, arguments = [*argv, "--seed", str(seed)], {**arguments, "seed": seed}
        assert run(command, *argv, "--out", out) == 0
        arguments = {**arguments, "command": command, "out": out}
        if digests is None:  # predict writes rows, no report
            assert Path(out).read_bytes().startswith(b"node,prediction\r\n")
            parsed = vars(build_parser().parse_args([command, *argv, "--out", out]))
            assert {k: v for k, v in parsed.items() if k != "func" and v is not None} == arguments
            return
        manifest = json.loads(Path(out).read_text())["manifest"]
        assert manifest["arguments"] == arguments
        assert sorted(manifest["input_digests"]) == digests
        if seed is not None or command in ("fit", "test"):
            assert manifest["seed"] == seed
        else:  # drawn after the arguments were recorded
            assert type(manifest["seed"]) is int and "seed" not in manifest["arguments"]


def test_cli_import_leaves_scipy_stats_out():
    # the CLI's start-up cost is mostly imports; scipy.stats alone costs
    # about as much as the rest of them together
    src = str(Path(npr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, npr.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
