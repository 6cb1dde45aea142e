import contextlib
import csv
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
from hypothesis import example, given, settings, strategies as st

from anchorlab import cli, datamodel, numkern, sparse
from anchorlab.batteries import random_scm
from anchorlab.scm import (
    Shift,
    example_confounder_shift,
    example_iv_chain,
    population_anchor,
    save_scm,
    scm_to_dict,
    shift_risk,
)

import oracles


@pytest.fixture(scope="module")
def example2_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("example2")
    model_path = root / "example2.json"
    save_scm(model_path, example_iv_chain())
    assert cli.main(
        [
            "simulate",
            "--scm", str(model_path),
            "--n", "200000",
            "--seed", "1",
            "--out", str(root / "data"),
        ]
    ) == 0
    return {
        "root": root,
        "scm": model_path,
        "data": root / "data" / "data.csv",
        "config": root / "data" / "config.json",
    }


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """An n < d dataset with categorical anchors and a lasso penalty for it."""
    root = tmp_path_factory.mktemp("wide")
    rng = numkern.make_rng(5)
    n, d = 30, 45
    x = rng.standard_normal((n, d))
    y = x[:, :3] @ np.array([1.5, -2.0, 1.0]) + 0.3 * rng.standard_normal(n)
    labels = np.array([str(v) for v in rng.integers(0, 4, n)])
    ds = datamodel.from_levels(x, y, labels)
    datamodel.write_csv(root / "data.csv", ds, anchor_labels=labels)
    config = root / "config.json"
    config.write_text(
        json.dumps({"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]})
    )
    read = datamodel.read_csv(root / "data.csv", datamodel.load_column_config(config))
    return {
        "data": root / "data.csv",
        "config": config,
        "lam": repr(0.2 * sparse.lambda_max(read, 1.0)),
    }


def _read_coef(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["coordinate", "estimate"]
    return {name: float(v) for name, v in rows[1:]}


def _tiny_files(root, text):
    data = root / "tiny.csv"
    data.write_text(text)
    config = root / "tiny.json"
    config.write_text(
        json.dumps({"response": "y", "anchors": [{"name": "a1", "kind": "continuous"}]})
    )
    return data, config


def _overflow_files(root, columns=("x1", "x2")):
    """50 rows: x1 driven by the one continuous anchor a1, x2 not; y on x1.
    gamma near the largest double times the anchor energy of x1 overflows."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(50)
    table = {"x1": a + rng.standard_normal(50), "x2": rng.standard_normal(50)}
    y = table["x1"] + rng.standard_normal(50)
    rows = np.column_stack([y, *(table[c] for c in columns), a]).tolist()
    text = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    return _tiny_files(root, ",".join(["y", *columns, "a1"]) + "\n" + text)


def _categorical_config(root):
    config = root / "cat.json"
    config.write_text(
        json.dumps({"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]})
    )
    return config


class TestFit:
    @pytest.mark.parametrize(
        "gamma,target", [("1", 5.0 / 3.0), ("0", 2.0), ("inf", 1.0)]
    )
    def test_example_endpoints(self, example2_files, tmp_path, gamma, target):
        out = tmp_path / f"fit{gamma}"
        code = cli.main(
            [
                "fit",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--gamma", gamma,
                "--out", str(out),
            ]
        )
        assert code == 0
        coef = _read_coef(out / "coefficients.csv")
        assert coef["x1"] == pytest.approx(target, abs=0.02)
        meta = json.loads((out / "fit.json").read_text())
        assert meta["lambda"] == 0
        assert meta["gamma"] == ("inf" if gamma == "inf" else float(gamma))

    def test_standardize_back_transforms(self, example2_files, tmp_path):
        plain, scaled = tmp_path / "plain", tmp_path / "scaled"
        base = [
            "fit",
            "--data", str(example2_files["data"]),
            "--config", str(example2_files["config"]),
            "--gamma", "1",
        ]
        assert cli.main(base + ["--out", str(plain)]) == 0
        assert cli.main(base + ["--standardize", "--out", str(scaled)]) == 0
        a = _read_coef(plain / "coefficients.csv")["x1"]
        b = _read_coef(scaled / "coefficients.csv")["x1"]
        assert a == pytest.approx(b, rel=1e-9)


class TestPath:
    def test_grid_rows_match_fit(self, example2_files, tmp_path):
        out = tmp_path / "path"
        assert cli.main(
            [
                "path",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--grid", "0,1",
                "--out", str(out),
            ]
        ) == 0
        with open(out / "path.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["gamma", "x1"]
        fit0 = tmp_path / "f0"
        cli.main(
            [
                "fit",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--gamma", "0",
                "--out", str(fit0),
            ]
        )
        assert float(rows[1][1]) == pytest.approx(
            _read_coef(fit0 / "coefficients.csv")["x1"], abs=1e-12
        )

    @settings(deadline=None, max_examples=8)
    @given(grid=st.permutations(["0", "0.5", "1", "4", "1000"]), size=st.integers(1, 5))
    def test_lasso_rows_equal_fit_in_any_grid_order(self, wide_files, grid, size):
        # each path row is warm-started from the previous gamma's solution,
        # and every row is byte-equal to the cold fit at that gamma
        grid = grid[:size]
        data = ["--data", str(wide_files["data"]), "--config", str(wide_files["config"]),
                "--lambda", wide_files["lam"]]
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            assert cli.main(["path", *data, "--grid", ",".join(grid),
                             "--out", str(out / "path")]) == 0
            with open(out / "path" / "path.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            for gamma, row in zip(grid, rows):
                assert cli.main(["fit", *data, "--gamma", gamma,
                                 "--out", str(out / gamma)]) == 0
                with open(out / gamma / "coefficients.csv", newline="") as fh:
                    fit_cells = [cells[1] for cells in list(csv.reader(fh))[1:]]
                assert row[1:] == fit_cells
                assert any(cell != "0" for cell in fit_cells)

    def test_population_risk_curve_dips_inside(self, tmp_path):
        model_path = tmp_path / "m.json"
        save_scm(model_path, example_iv_chain())
        out = tmp_path / "curve"
        assert cli.main(
            [
                "path",
                "--scm", str(model_path),
                "--grid", "0,1,2,4,8,16,inf",
                "--shift", "1.8,0,0",
                "--out", str(out),
            ]
        ) == 0
        with open(out / "path.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        risks = {row[0]: float(row[2]) for row in rows[1:]}
        interior = min(risks[g] for g in ("2", "4", "8", "16"))
        assert interior < min(risks["0"], risks["1"], risks["inf"]) - 0.05

    def test_confounder_shift_outperforms_causal(self):
        # risk of the direct causal coefficient is never below the gamma=5
        # anchor coefficient when shifts act on the hidden confounder
        model = example_confounder_shift()
        b5 = population_anchor(model, 5.0)
        causal = np.array([1.0])
        for t in np.linspace(-3.0, 3.0, 25):
            v = np.array([0.0, 0.0, t])
            assert shift_risk(model, causal, Shift(vector=v)) >= shift_risk(
                model, b5, Shift(vector=v)
            ) - 1e-12

    def test_requires_input(self, tmp_path):
        assert cli.main(["path", "--grid", "0,1", "--out", str(tmp_path / "x")]) == 2

    def test_model_and_data_disagree_on_d(self, tmp_path, capsys):
        # rejected once the CSV is read, before any fit; a --shift of the
        # wrong length is rejected earlier, before the CSV is read
        data, config = _tiny_files(tmp_path, "y,x1,a1\n1,2,0.5\n2,3,1\n3,1,2\n4,2,1\n")
        model = tmp_path / "m.json"
        save_scm(model, random_scm(numkern.make_rng(0), d=2))
        code = cli.main(["path", "--data", str(data), "--config", str(config),
                         "--scm", str(model), "--grid", "0,1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--scm models 2 predictors, --data has 1" in capsys.readouterr().err

    def test_wrong_length_shift_is_rejected_before_any_read(
        self, example2_files, tmp_path, monkeypatch, capsys
    ):
        # the model's three shift components fix the length as soon as it loads
        calls = []
        for module, name in ((datamodel, "read_csv"), (sparse, "fit_anchor_lasso")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, name=name, real=real: calls.append(name) or real(*a))
        code = cli.main(["path", "--data", str(example2_files["data"]),
                         "--config", str(example2_files["config"]),
                         "--scm", str(example2_files["scm"]), "--grid", "0,1,4",
                         "--shift", "1,0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "--shift must have 3 components, got 2" in capsys.readouterr().err
        assert calls == []

    def test_shift_without_model_is_rejected_before_any_read(self, tmp_path, capsys):
        # only the model's risks read a shift; none of the input files exists
        code, err, files = _run_in(tmp_path, ["path", "--data", str(tmp_path / "d.csv"),
                                              "--config", str(tmp_path / "c.json"),
                                              "--grid", "0,1", "--shift", "5,5,5,5"], "o")
        assert code == 2
        assert err.startswith("config error: --shift needs --scm")
        assert files == {}


class TestCv:
    def test_runs_and_reports(self, example2_files, tmp_path):
        out = tmp_path / "cv"
        code = cli.main(
            [
                "cv",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--grid", "0.5,1,2",
                "--alpha", "0.5",
                "--folds", "2",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "cv_selected.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "gamma"]
        assert float(rows[1][1]) in (0.5, 1.0, 2.0)

    def test_infinite_grid_rejected(self, example2_files, tmp_path):
        assert cli.main(
            [
                "cv",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--grid", "1,inf",
                "--seed", "0",
                "--out", str(tmp_path / "cvbad"),
            ]
        ) == 2


class TestSimulateVerify:
    def test_simulate_deterministic(self, tmp_path):
        model_path = tmp_path / "m.json"
        save_scm(model_path, example_iv_chain())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(
                [
                    "simulate",
                    "--scm", str(model_path),
                    "--n", "1000",
                    "--seed", "1",
                    "--out", str(out),
                ]
            ) == 0
            outs.append((out / "data.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command, shift, code", [
        ("simulate", "inf,0,0", 2),
        ("simulate", "nan,0,0", 2),
        ("simulate", "0,-inf,0", 2),
        ("simulate", "1e308,1e308,0", 3),
        ("path", "nan,0,0", 2),
        ("path", "0,0,inf", 2),
    ])
    def test_non_finite_shift_writes_nothing(self, command, shift, code, tmp_path, capsys):
        # a NaN or infinite component is an input error; a finite shift that
        # overflows the draw is a numeric error, with no numpy warning
        model_path = tmp_path / "m.json"
        save_scm(model_path, example_iv_chain())
        argv = ["--n", "50", "--seed", "1"] if command == "simulate" else ["--grid", "0,1,inf"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = cli.main([command, "--scm", str(model_path), f"--shift={shift}", *argv,
                            "--out", str(tmp_path / "o")])
        assert got == code
        assert caught == []
        assert not (tmp_path / "o").exists()
        assert "Warning" not in capsys.readouterr().err

    def test_verify_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        assert cli.main(["verify", "--seed", "7", "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"]
        names = {c["name"] for c in report["checks"]}
        assert "worst_case_identity" in names
        assert "pass: worst_case_identity" in capsys.readouterr().out

    def test_verify_supplied_model(self, tmp_path):
        model_path = tmp_path / "m.json"
        save_scm(model_path, example_iv_chain())
        out = tmp_path / "verify"
        assert cli.main(
            ["verify", "--scm", str(model_path), "--seed", "0", "--out", str(out)]
        ) == 0

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        def failing(seed=0):
            return {
                "seed": seed,
                "passed": False,
                "checks": [{"name": "stub", "passed": False}],
            }

        monkeypatch.setattr(cli.batteries, "run_battery", failing)
        assert cli.main(["verify", "--seed", "0", "--out", str(tmp_path / "v")]) == 4


class TestRank:
    def test_dominance_in_output(self, example2_files, tmp_path):
        out = tmp_path / "rank"
        assert cli.main(
            [
                "rank",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--lambda", "50",
                "--out", str(out),
            ]
        ) == 0
        with open(out / "ranking.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["coordinate", "a_score", "l_score"]
        for _, a, l in rows[1:]:
            assert float(a) <= float(l) + 1e-12


class TestErrorContract:
    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(
            [
                "fit",
                "--data", str(tmp_path / "nope.csv"),
                "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "o"),
            ]
        ) == 2

    def test_bad_gamma_literal(self, example2_files, tmp_path):
        assert cli.main(
            [
                "fit",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--gamma", "banana",
                "--out", str(tmp_path / "o"),
            ]
        ) == 2

    def test_numeric_failure_exit_three(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("y,x1,x2,x3,a1\n1,2,3,4,0.5\n2,3,4,5,-0.5\n")
        config = tmp_path / "c.json"
        config.write_text(
            json.dumps({"response": "y", "anchors": [{"name": "a1", "kind": "continuous"}]})
        )
        assert cli.main(
            [
                "fit",
                "--data", str(data),
                "--config", str(config),
                "--out", str(tmp_path / "o"),
            ]
        ) == 3

    def test_zero_lambda_is_the_dense_fit_everywhere(self, tmp_path):
        # n <= d: every subcommand refuses the unpenalized fit alike
        data, config = _tiny_files(tmp_path, "y,x1,x2,x3,a1\n1,2,3,4,0.5\n2,3,4,5,-0.5\n")
        files = ["--data", str(data), "--config", str(config)]
        outcomes = [
            _run_in(tmp_path, [*argv, "--lambda", "0", *files], f"wide{j}")
            for j, argv in enumerate([["fit"], ["path", "--grid", "0,1"], ["rank"]])
        ]
        assert {(code, err) for code, err, _ in outcomes} == {
            (3, "numeric error: n=2 <= d=3; use the l1-penalized solver for this regime\n")
        }
        # n > d: cv's default lambda is 0
        rng = numkern.make_rng(4)
        x = rng.standard_normal((40, 2))
        labels = rng.choice(list("abcdef"), 40)
        data = tmp_path / "cv.csv"
        ds = datamodel.from_levels(x, x @ [1.0, -0.5] + rng.standard_normal(40), labels)
        datamodel.write_csv(data, ds, anchor_labels=labels)
        argv = ["cv", "--grid", "0,1,4", "--folds", "3", "--seed", "0",
                "--data", str(data), "--config", str(_categorical_config(tmp_path))]
        default = _run_in(tmp_path, argv, "cv_default")
        assert default[0] == 0
        assert _run_in(tmp_path, [*argv, "--lambda", "0"], "cv_zero") == default

    @pytest.mark.parametrize("argv", [
        ["fit", "--gamma", "-1"],
        ["fit", "--gamma", "nan"],
        ["fit", "--lambda", "-1"],
        ["fit", "--lambda", "nan"],
        ["path", "--grid", "0,-0.5"],
        ["path", "--grid", "1", "--lambda", "nan"],
        ["cv", "--grid", "1,nan", "--seed", "0"],
        ["rank", "--lambda", "-1"],
    ])
    def test_negative_or_nan_penalty_is_config_error(self, argv, tmp_path, capsys):
        data, config = _tiny_files(tmp_path, "y,x1,a1\n1,2,0.5\n2,3,1\n3,1,2\n4,2,1\n")
        code = cli.main(argv + ["--data", str(data), "--config", str(config),
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert "must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("y,x1,a1\n1,2,0.5\n", "at least two data rows"),
        ("y,x1,a1\n1,2,0.5\n2,nan,1\n3,1,2\n", "row 2, column 'x1'"),
        ("y,x1,a1\n1,2,0.5\n2,3,1\n3,1,-inf\n", "row 3, column 'a1'"),
        ("y,x1,a1\n1,2,0.5\n2,3\n3,1,2\n", "row 2 has 2 cells, the header has 3"),
        ("y,x1,a1\n1,2,0.5\n2,3,1,7\n3,1,2\n", "row 2 has 4 cells, the header has 3"),
        ("y,x1,a1\n1,2,0.5\n2,3,1\n3,1,2\n\n", "row 4 has 0 cells, the header has 3"),
        ("y,x1,x1,a1\n1,2,2,0.5\n2,3,1,1\n3,1,2,2\n", "duplicate column name 'x1'"),
    ])
    def test_bad_csv_is_config_error(self, text, where, tmp_path, capsys):
        data, config = _tiny_files(tmp_path, text)
        code = cli.main(["fit", "--data", str(data), "--config", str(config),
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert where in capsys.readouterr().err

    def test_non_utf8_csv_is_config_error(self, tmp_path):
        data, config = _tiny_files(tmp_path, "")
        data.write_bytes(b"y,x1,a1\n1,2,3\n2,\xff3,4\n3,4,5\n")
        code, err, files = _run_in(tmp_path, ["fit", "--data", str(data),
                                              "--config", str(config)], "o")
        assert (code, files) == (2, {})
        assert err == "config error: byte 0xff at offset 16 (row 2) is not valid UTF-8\n"
        # a column config that is not UTF-8 is a config error too
        config.write_bytes(b'{"response": "\xff"}')
        code, err, files = _run_in(tmp_path, ["fit", "--data", str(data),
                                              "--config", str(config)], "o")
        assert (code, files) == (2, {})
        assert err.startswith(f"config error: column config {config} is not UTF-8")

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "the column config must be a JSON object"),
        ({"response": ["y"], "anchors": [{"name": "a1"}]}, "'response'"),
        ({"response": "y", "anchors": ["a1"]}, "'anchors' must be a list of objects"),
        ({"response": "y", "anchors": {"name": "a1"}}, "'anchors' must be a list of objects"),
        ({"response": "y", "anchors": [{"name": "a1"}], "drop_columns": 5}, "'drop_columns'"),
        ({"response": "y", "anchors": [{"name": "a1", "kind": "categorial"}]},
         "anchor 'a1' has kind 'categorial'"),
    ])
    def test_malformed_column_config_is_config_error(self, config, message, tmp_path):
        data, path = _tiny_files(tmp_path, "y,x1,a1\n1,2,0.5\n2,3,1\n3,1,2\n4,2,1\n")
        path.write_text(json.dumps(config))
        code, err, files = _run_in(tmp_path, ["fit", "--data", str(data),
                                              "--config", str(path)], "o")
        assert (code, files) == (2, {})
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("argv", [
        ["fit", "--gamma", "inf", "--lambda", "1"],
        ["path", "--grid", "1,inf", "--lambda", "1"],
        ["rank", "--grid", "0,inf"],
    ])
    def test_infinite_gamma_lasso_is_config_error(self, argv, tmp_path, capsys):
        # rejected before any data is read: the data file does not exist
        code = cli.main(argv + ["--data", str(tmp_path / "absent.csv"),
                                "--config", str(tmp_path / "absent.json"),
                                "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "finite" in err and "absent" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["fit", "--gamma", "1"],
        ["fit", "--gamma", "inf"],
        ["path", "--grid", "0,1,inf"],
    ])
    def test_no_predictor_columns_is_config_error(self, argv, tmp_path, capsys):
        data = tmp_path / "nopred.csv"
        data.write_text("y,env\n1,a\n2,b\n3,a\n4,b\n")
        code = cli.main(argv + ["--data", str(data), "--config", str(_categorical_config(tmp_path)),
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no predictor columns" in capsys.readouterr().err

    def test_one_row_training_fold_is_numeric_error(self, tmp_path, capsys):
        # with two folds over two levels, one fold trains on level a's single row
        data = tmp_path / "onerow.csv"
        data.write_text("y,x1,env\n1,2,a\n2,3,b\n3,1,b\n4,2,b\n")
        code = cli.main(["cv", "--grid", "0,1", "--folds", "2", "--seed", "0",
                         "--data", str(data), "--config", str(_categorical_config(tmp_path)),
                         "--out", str(tmp_path / "o")])
        assert code == 3
        assert "at least two rows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fit", "--gamma", "1e307", "--lambda", "0.5"],
        ["path", "--grid", "1e306,1e307", "--lambda", "0.5"],
        ["rank", "--grid", "0,1e307", "--lambda", "0.5"],
    ])
    def test_overflowing_gamma_lasso_is_numeric_error(self, argv, tmp_path, capsys):
        # gamma times the anchor energy of a column exceeds the largest double,
        # so G_off + gamma G_on cannot be formed; the l1 solver must not run on it
        data, config = _overflow_files(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv + ["--data", str(data), "--config", str(config),
                                    "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric error:")
        assert not (tmp_path / "o").exists()

    def test_huge_gamma_lasso_agrees_across_gamma(self, tmp_path):
        # far above gamma ~ 1e16, G_off is lost in the rounding of gamma G_on,
        # so G_SS of x1 and x2 is singular to working precision. A step along its
        # null vector must not raise ||b||_1: x2 = 99.9 carries x1's anchor
        # part at 90 times its l1 norm
        data, config = _overflow_files(tmp_path)
        ds = datamodel.center(datamodel.read_csv(data, datamodel.load_column_config(config)))
        ref = sparse.fit_anchor_lasso(ds, 1e16, 0.5).coef
        for gamma in (1e50, 1e100, 1e200, 1e305):
            coef = sparse.fit_anchor_lasso(ds, gamma, 0.5).coef
            assert np.max(np.abs(coef - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_infinite_objective_is_strict_json(self, tmp_path):
        # y = x1 + 3 a2 + noise with x1 = a1 + noise: the on-anchor residual
        # times gamma = 1e308 overflows, so the objective is inf, which JSON
        # can only hold as a string
        rng = np.random.default_rng(0)
        a = rng.standard_normal((50, 2))
        x1 = a[:, 0] + rng.standard_normal(50)
        y = x1 + 3.0 * a[:, 1] + rng.standard_normal(50)
        data = tmp_path / "strong.csv"
        data.write_text("y,x1,a1,a2\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in np.column_stack([y, x1, a]).tolist()
        ))
        config = tmp_path / "strong.json"
        config.write_text(json.dumps({"response": "y", "anchors": [
            {"name": "a1", "kind": "continuous"}, {"name": "a2", "kind": "continuous"}]}))
        out = tmp_path / "o"
        code = cli.main(["fit", "--gamma", "1e308", "--data", str(data),
                         "--config", str(config), "--out", str(out)])
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        fit = json.loads((out / "fit.json").read_text(), parse_constant=reject)
        assert fit["objective"] == "inf" and fit["gamma"] == 1e308

    @pytest.mark.parametrize("columns", [("x1",), ("x1", "x2")])
    def test_largest_gamma_dense_fit_reaches_the_iv_limit(self, columns, tmp_path):
        # the dense path never forms gamma sigma^2, so 1e308 does not overflow;
        # where the IV limit is identified (x1 alone) the fit is at it
        data, config = _overflow_files(tmp_path, columns)
        codes, coefs = {}, {}
        for gamma in ("1e308", "inf"):
            out = tmp_path / gamma
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                codes[gamma] = cli.main(["fit", "--gamma", gamma, "--lambda", "0",
                                         "--data", str(data), "--config", str(config),
                                         "--out", str(out)])
            if codes[gamma] == 0:
                coefs[gamma] = np.array(list(_read_coef(out / "coefficients.csv").values()))
        assert codes["1e308"] == 0 and np.isfinite(coefs["1e308"]).all()
        if columns == ("x1",):
            assert codes["inf"] == 0
            np.testing.assert_allclose(coefs["1e308"], coefs["inf"], rtol=1e-9)
        else:
            assert codes["inf"] == 3  # one anchor, two predictors

    def test_predictor_in_the_anchor_span(self, tmp_path, capsys):
        # a site-level covariate, constant within each of 8 levels: gamma = 0
        # partials it out entirely; every gamma > 0 fits its anchor part alone
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 8, 200)
        site = rng.standard_normal(8)[labels]
        y = 2.0 * site + rng.standard_normal(200)
        data = tmp_path / "site.csv"
        data.write_text("y,x1,env\n" + "".join(
            f"{a!r},{b!r},s{c}\n" for a, b, c in zip(y.tolist(), site.tolist(), labels.tolist())))
        config = _categorical_config(tmp_path)

        def fit(gamma):
            return cli.main(["fit", "--gamma", gamma, "--data", str(data),
                             "--config", str(config), "--out", str(tmp_path / gamma)])

        assert fit("0") == 3
        assert "anchor span" in capsys.readouterr().err
        assert not (tmp_path / "0").exists()
        coefs = []
        for gamma in ("0.5", "1", "inf"):
            assert fit(gamma) == 0
            coefs.append(_read_coef(tmp_path / gamma / "coefficients.csv")["x1"])
        assert coefs[1] == pytest.approx(coefs[0], rel=1e-9)
        assert coefs[2] == pytest.approx(coefs[0], rel=1e-9)

    @pytest.mark.parametrize("argv, text", [
        (["path", "--grid", "1e308", "--lambda", "0.5"], None),
        (["path", "--grid", "0,1"], "y,x1,a1\n1,2,0.5\n2,x,1\n3,1,2\n"),
    ])
    def test_failed_path_leaves_no_out_directory(self, argv, text, tmp_path):
        data, config = _overflow_files(tmp_path) if text is None else _tiny_files(tmp_path, text)
        code = cli.main(argv + ["--data", str(data), "--config", str(config),
                                "--out", str(tmp_path / "o")])
        assert code in (2, 3)
        assert not (tmp_path / "o").exists()

    def test_lasso_converges_on_a_tiny_response(self, tmp_path):
        # the squares of a response below ~1e-154 underflow to zero; the
        # solver's stop must not depend on them. lambda_max is ~2.6e-161
        # here, so the l1 solver runs
        data, config = _tiny_files(
            tmp_path, "y,x1,x2,a1\n1.49e-269,0,-5.79,2\n3.03e-162,0,8.69,0.96\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["rank", "--lambda", "1e-170", "--data", str(data),
                             "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_nonconvergence_warning_names_the_step_count(self, wide_files, monkeypatch):
        # two active-set solves do not reach this fit; the warning counts them
        solver = sparse.feature_sign
        monkeypatch.setattr(
            sparse, "feature_sign",
            lambda gram, lam, start=None: solver(gram, lam, start, max_steps=2),
        )
        out = wide_files["data"].parent / "capped"
        text = "feature-sign search stopped after 2 steps; returning best iterate"
        with pytest.warns(RuntimeWarning, match=f"^{text}$"):
            code = cli.main(["fit", "--gamma", "1", "--lambda", wide_files["lam"],
                             "--data", str(wide_files["data"]),
                             "--config", str(wide_files["config"]), "--out", str(out)])
        assert code == 0
        assert json.loads((out / "fit.json").read_text())["converged"] is False

    def test_collinear_columns_converge(self, tmp_path):
        # x1 and x2 are collinear after the gamma = 0 transform, so the exact
        # solve meets a singular active Gram and steps to the solution on x2
        data = tmp_path / "collinear.csv"
        data.write_text(
            "y,x1,x2,env\n-2.6e-238,3,-3,v\n2.00001,-2,0.0,w\n4.178471598672189,1e-06,0,v\n"
        )
        config = _categorical_config(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["rank", "--lambda", "0.3", "--data", str(data),
                             "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0
        ds = datamodel.center(datamodel.read_csv(data, datamodel.load_column_config(config)))
        fit = sparse.fit_anchor_lasso(ds, 0.0, 0.3)
        assert fit.converged and fit.coef[0] == 0.0
        xt, yt = oracles.qr_gamma_transform(ds, 0.0)
        assert oracles.kkt_violation(xt, yt, fit.coef, 0.3) <= 1e-9 * 0.3
        with open(tmp_path / "o" / "ranking.csv", newline="") as fh:
            l_scores = [float(row["l_score"]) for row in csv.DictReader(fh)]
        assert l_scores == [float(f"{abs(c):.12g}") for c in fit.coef]

    def test_json_format_outputs(self, example2_files, tmp_path):
        out = tmp_path / "rankjson"
        assert cli.main(
            [
                "rank",
                "--data", str(example2_files["data"]),
                "--config", str(example2_files["config"]),
                "--lambda", "50",
                "--format", "json",
                "--out", str(out),
            ]
        ) == 0
        rows = json.loads((out / "ranking.json").read_text())
        assert {r["coordinate"] for r in rows} == {"x1"}


# --- the exit-code contract on random small inputs -------------------------

NUMBERS = st.one_of(st.floats(-9.0, 9.0).map(repr), st.integers(-3, 3).map(str))
CELLS = st.one_of(NUMBERS, st.sampled_from(["", "nan", "inf", "x", " 1"]))
FINITE = st.sampled_from(["0", "0.5", "1", "7"])
GAMMA = st.one_of(FINITE, st.just("inf"))
GRID = st.lists(GAMMA, min_size=1, max_size=3).map(",".join)
FINITE_GRID = st.lists(FINITE, min_size=1, max_size=3).map(",".join)
LAMBDA = st.sampled_from(["0", "0.3"])
# quantile levels and seeds, valid or not: alpha must lie in [0, 1], a seed be >= 0
ALPHA = st.sampled_from(["0.5,0.9", "0", "1", "1.5", "nan", "0.5,-0.5"])
SEED = st.sampled_from(["0", "3", "-1"])


def _column_config(kind):
    return json.dumps({"response": "y", "anchors": [{"name": "a", "kind": kind}]}).encode()


CATEGORICAL = _column_config("categorical")
# column configs that read_csv rejects before it opens the data: the
# response as an anchor, an anchor named twice, wrong types, JSON that does
# not parse and bytes that are not UTF-8
RESPONSE_AS_ANCHOR = b'{"response": "y", "anchors": [{"name": "y"}]}'
BAD_CONFIGS = [
    RESPONSE_AS_ANCHOR,
    b'{"response": "y", "anchors": [{"name": "a"}, {"name": "a", "kind": "categorical"}]}',
    b'{"response": 1, "anchors": [{"name": "a"}]}',
    b'{"response": "y", "anchors": "a"}',
    b'{"response": "y", "anchors": [{"name": "a", "kind": 3}]}',
    b'{"response": "y", "anchors": [{"name": "a"}], "drop_columns": "x1"}',
    b'["y", "a"]',
    b'{"response": "y", ',
    b'{"response": "y", "anchors": [{"name": "\xff"}]}',
]
MODEL_NOT_UTF8 = b'{"d": 1, "x": "\xff"}'


def _model_file(spec) -> bytes:
    """The bytes of a model file: a JSON tree as JSON, bytes as they are."""
    return spec if isinstance(spec, bytes) else json.dumps(spec).encode()


@st.composite
def cli_inputs(draw):
    """(CSV text, column config, argv without paths, model file or None)
    for fit, path, cv or rank on 0-6 rows and 0-3 predictors; a quarter of
    the configs are malformed, and path may read a model file too."""
    command = draw(st.sampled_from(["fit", "path", "cv", "rank"]))
    n, d = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    # cv needs anchor levels; with a continuous anchor it exits 3 at once
    categorical = command == "cv" or draw(st.booleans())
    config = _column_config("categorical" if categorical else "continuous")
    if draw(st.integers(0, 3)) == 0:
        config = draw(st.sampled_from(BAD_CONFIGS))
    cells = draw(st.sampled_from([NUMBERS, CELLS]))  # half the tables are all numeric
    labels = st.sampled_from(["u", "v", "w", ""]) if categorical else cells
    header = ["y", *(f"x{j + 1}" for j in range(d)), "a"]
    rows = [[*(draw(cells) for _ in range(d + 1)), draw(labels)] for _ in range(n)]
    text = "".join(",".join(row) + "\n" for row in [header, *rows])
    model = None
    if command == "fit":
        flags = ["--gamma", draw(GAMMA), "--lambda", draw(LAMBDA)]
        flags += ["--standardize"] if draw(st.booleans()) else []
    elif command == "path":
        flags = ["--grid", draw(GRID), "--lambda", draw(LAMBDA)]
        # no model, the model of one predictor, or a malformed model file
        spec = draw(st.one_of(st.none(), st.just(IV_SPEC), model_specs()))
        model = None if spec is None else _model_file(spec)
    elif command == "cv":
        # an infinite cv grid exits 2 before the data are read
        flags = ["--grid", draw(FINITE_GRID), "--alpha", draw(ALPHA), "--seed", draw(SEED),
                 "--folds", str(draw(st.integers(1, 3))), "--lambda", draw(LAMBDA)]
    else:
        flags = ["--lambda", draw(LAMBDA)]
        flags += ["--grid", draw(GRID)] if draw(st.booleans()) else []
    if command != "fit":  # fit writes one CSV and one JSON file and has no --format
        flags += ["--format", draw(st.sampled_from(["csv", "json"]))]
    return text, config, [command, *flags], model


def _run_in(root, argv, name):
    """Exit code, stderr and the output files of one in-process CLI run."""
    out = root / name
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    if code in (cli.EXIT_CONFIG, cli.EXIT_NUMERIC):
        # an input or numeric error writes nothing, not even the directory
        assert not out.exists(), (code, err.getvalue())
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, err.getvalue(), files


THREE_LEVELS = "y,x1,a\n1,2,u\n2,3,u\n3,1,v\n4,2,v\n5,0,w\n6,1,w\n"


@given(inputs=cli_inputs())
@example(inputs=("y,a\n1,u\n2,v\n3,u\n", CATEGORICAL, ["fit", "--gamma", "inf"], None))
@example(inputs=("y,x1,a\n1,2,u\n2,3,v\n3,1,v\n4,2,v\n", CATEGORICAL,
                 ["cv", "--grid", "1", "--folds", "2", "--seed", "0"], None))
# three two-row levels that cv fits: an alpha above 1 or a negative seed
# reached the quantile rank or the generator
@example(inputs=(THREE_LEVELS, CATEGORICAL,
                 ["cv", "--grid", "1", "--folds", "3", "--seed", "0", "--alpha", "1.5"], None))
@example(inputs=(THREE_LEVELS, CATEGORICAL, ["cv", "--grid", "1", "--folds", "3", "--seed", "-1"],
                 None))
# the response named as the anchor: a1 was fitted as a predictor, exit 0
@example(inputs=("y,x1,a1\n1,2,3\n2,1,5\n3,4,1\n4,3,2\n5,5,4\n", RESPONSE_AS_ANCHOR,
                 ["fit", "--gamma", "2"], None))
# a model file that is not UTF-8: an uncaught UnicodeDecodeError
@example(inputs=(THREE_LEVELS, CATEGORICAL, ["path", "--grid", "1"], MODEL_NOT_UTF8))
@settings(max_examples=80, deadline=None)
def test_exit_code_contract(inputs):
    text, config, argv, model = inputs
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "data.csv").write_text(text)
        (root / "config.json").write_bytes(config)
        argv = argv + ["--data", str(root / "data.csv"), "--config", str(root / "config.json")]
        if model is not None:
            (root / "model.json").write_bytes(model)
            argv += ["--scm", str(root / "model.json")]
        first = _run_in(root, argv, "first")
        code, err, _ = first
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        # a malformed config, or a model file that is not UTF-8, is an input
        # error whatever else was drawn
        if config in BAD_CONFIGS or (model is not None and b"\xff" in model):
            assert code == 2, err
        assert _run_in(root, argv, "second") == first


@pytest.mark.parametrize("argv, name", [
    (["cv", "--grid", "1", "--alpha", "1.5", "--seed", "0"], "alpha"),
    (["cv", "--grid", "1", "--alpha", "nan", "--seed", "0"], "alpha"),
    (["cv", "--grid", "1", "--alpha", "0.5,-0.5", "--seed", "0"], "alpha"),
    (["cv", "--grid", "1", "--seed", "-1"], "seed"),
    (["simulate", "--n", "30", "--seed", "-1"], "seed"),
    (["verify", "--seed", "-1"], "seed"),
    (["cv", "--grid", "1", "--folds", "1", "--seed", "0"], "folds"),
    (["cv", "--grid", "1", "--folds", "0", "--seed", "0"], "folds"),
    (["cv", "--grid", "1", "--folds", "-2", "--seed", "0"], "folds"),
])
def test_bad_alpha_or_seed_is_rejected_before_reading(argv, name, tmp_path):
    # none of the input files exists: the value is rejected before any is read
    inputs = (["--scm", str(tmp_path / "m.json")] if argv[0] != "cv" else
              ["--data", str(tmp_path / "d.csv"), "--config", str(tmp_path / "c.json")])
    code, err, files = _run_in(tmp_path, argv + inputs, "o")
    assert code == 2
    assert err.startswith(f"config error: {name}")
    assert files == {}


# --- options a subcommand does not read ------------------------------------

# the smallest argv of each subcommand that argparse accepts
PARSEABLE = {
    "fit": ["fit"],
    "path": ["path"],
    "cv": ["cv", "--seed", "0"],
    "simulate": ["simulate", "--seed", "0"],
    "verify": ["verify", "--seed", "0"],
    "rank": ["rank"],
}


@pytest.mark.parametrize("command, option, value", [
    ("fit", "--scm", "m.json"),
    ("fit", "--seed", "1"),
    ("fit", "--format", "json"),
    ("path", "--seed", "1"),
    ("cv", "--scm", "m.json"),
    ("simulate", "--data", "d.csv"),
    ("simulate", "--config", "c.json"),
    ("simulate", "--format", "json"),
    ("verify", "--data", "d.csv"),
    ("verify", "--config", "c.json"),
    ("verify", "--format", "json"),
    ("verify", "--battery", "default"),
    ("rank", "--scm", "m.json"),
    ("rank", "--seed", "1"),
])
def test_unread_option_is_rejected(command, option, value, capsys):
    cli.build_parser().parse_args(PARSEABLE[command])
    with pytest.raises(SystemExit) as exc:
        cli.main([*PARSEABLE[command], option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


# --- the exit-code contract on malformed model files -----------------------

MODEL_COMMANDS = {
    "simulate": ["simulate", "--n", "30", "--seed", "0"],
    "verify": ["verify", "--seed", "0"],
    "path": ["path", "--grid", "0,1,inf"],
}
IV_SPEC = scm_to_dict(example_iv_chain())  # d = 1, r = 1: B is 3x3


def _sites(node):
    """(container, key, value) of every entry below a JSON node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key, value
        if isinstance(value, (dict, list)):
            yield from _sites(value)


@st.composite
def model_specs(draw):
    """A random_scm model as save_scm writes it, with one mutation: a key
    dropped, a list one entry longer or shorter, a string or a NaN for a
    number, the whole spec wrapped in a list, or a field that is not UTF-8
    (then the file's bytes)."""
    rng = numkern.make_rng(draw(st.integers(0, 2**16)))
    model = random_scm(
        rng,
        d=draw(st.integers(1, 3)),
        r=draw(st.integers(0, 2)),
        q=draw(st.integers(1, 2)),
        anchor_kind=draw(st.sampled_from(["gaussian", "rademacher"])),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_scm(path, model)
        spec = json.loads(path.read_text())
    mutation = draw(st.sampled_from(["drop", "length", "string", "nan", "wrap", "bytes"]))
    if mutation == "wrap":
        return [spec]
    if mutation == "bytes":
        return b'{"note": "\xff", ' + json.dumps(spec).encode()[1:]
    sites = list(_sites(spec))
    if mutation == "drop":
        node, key, _ = draw(st.sampled_from([s for s in sites if isinstance(s[0], dict)]))
        del node[key]
    elif mutation == "length":
        _, _, values = draw(st.sampled_from([s for s in sites if isinstance(s[2], list)]))
        if draw(st.booleans()):
            values.append(values[-1])
        else:
            values.pop()
    else:
        numbers = [s for s in sites if type(s[2]) in (int, float)]
        node, key, _ = draw(st.sampled_from(numbers))
        node[key] = "one" if mutation == "string" else math.nan
    return spec


MALFORMED_MODELS = {
    "wrapped-in-list": [IV_SPEC],
    "string-d": {**IV_SPEC, "d": "one"},
    "nan-in-M": {**IV_SPEC, "M": [[math.nan], [0.0], [0.0]]},
    "B-shape": {**IV_SPEC, "B": IV_SPEC["B"][:2]},
    "anchor-kind": {**IV_SPEC, "anchor": {"kind": "cauchy"}},
    # X <- H and H <- X with unit weights: Id - B is singular
    "singular": {**IV_SPEC, "B": [[0.0, 0.0, 1.0], [1.0, 0.0, 2.0], [1.0, 0.0, 0.0]]},
    "q-mismatch": {**IV_SPEC, "q": 7},
}


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@pytest.mark.parametrize("model", sorted(MALFORMED_MODELS))
def test_malformed_model_file_is_config_error(command, model, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MALFORMED_MODELS[model]))
    code, err, files = _run_in(tmp_path, [*MODEL_COMMANDS[command], "--scm", str(path)], "o")
    assert code == 2
    assert err.startswith(f"config error: model file {path}: ")
    assert files == {}


@pytest.mark.parametrize("command", sorted(MODEL_COMMANDS))
@given(spec=model_specs())
@example(spec={**IV_SPEC, "d": 2})
@example(spec=[IV_SPEC])
@example(spec={**IV_SPEC, "anchor": {"kind": "gaussian", "gram": [[1.0, 0.0], [0.0]]}})
@example(spec={**IV_SPEC, "d": "one"})
@example(spec={**IV_SPEC, "d": 0, "r": 2})
@example(spec={**IV_SPEC, "M": [[math.nan], [0.0], [0.0]]})
@example(spec=MODEL_NOT_UTF8)
@settings(max_examples=30, deadline=None)
def test_model_file_contract(command, spec):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "model.json").write_bytes(_model_file(spec))
        argv = [*MODEL_COMMANDS[command], "--scm", str(root / "model.json")]
        first = _run_in(root, argv, "first")
        code, err, _ = first
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        if isinstance(spec, bytes):  # not UTF-8
            assert code == 2, err
        assert _run_in(root, argv, "second") == first


def test_no_subcommand_builds_the_level_block(tmp_path, monkeypatch):
    # a lone categorical anchor is read as level codes: no fit, path, cv or
    # rank, unpenalised or penalised, nor the equal-weight lasso, asks for
    # its n x L indicator block
    built = []

    def refuse(ds):
        built.append(ds.n)
        raise AssertionError("the anchor block was built")

    monkeypatch.setattr(datamodel.AnchorDataset, "anchor_matrix", refuse)
    rng = numkern.make_rng(21)
    n, d = 240, 3
    codes = rng.integers(0, 8, n)
    x = rng.standard_normal((8, d))[codes] + rng.standard_normal((n, d))
    labels = codes.astype(str)
    data, config = tmp_path / "levels.csv", _categorical_config(tmp_path)
    ds = datamodel.from_levels(x, x @ [1.0, -0.5, 0.0] + rng.standard_normal(n), labels)
    datamodel.write_csv(data, ds, anchor_labels=labels)
    read = datamodel.read_csv(data, datamodel.load_column_config(config))
    lam = 0.1 * sparse.lambda_max(read, 1.0)
    files = ["--data", str(data), "--config", str(config)]
    commands = [
        ["fit", "--gamma", "2"],
        ["fit", "--gamma", "2", "--standardize"],
        ["path", "--grid", "0,1,4"],
        ["cv", "--grid", "0.5,2", "--folds", "3", "--seed", "0"],
        ["rank", "--grid", "0,4"],
    ]
    for penalty in (0.0, lam):
        for j, argv in enumerate(commands):
            run = [*argv, "--lambda", repr(penalty), *files]
            assert _run_in(tmp_path, run, f"{penalty}-{j}")[:2] == (0, "")
        assert sparse.fit_equal_weight_lasso(read, 2.0, penalty).coef.shape == (d,)
    assert built == []


def test_cv_leaves_numpy_ma_unimported(tmp_path):
    # grouped cv on level codes needs no np.unique, whose import of numpy.ma
    # costs a fresh process about 12 ms
    rng = numkern.make_rng(22)
    codes = rng.integers(0, 6, 120)
    x = rng.standard_normal((6, 2))[codes] + rng.standard_normal((120, 2))
    labels = np.char.add("s", codes.astype(str))
    ds = datamodel.from_levels(x, x @ [1.0, -1.0] + rng.standard_normal(120), labels)
    datamodel.write_csv(tmp_path / "levels.csv", ds, anchor_labels=labels)
    argv = [
        "cv", "--grid", "0.5,2", "--folds", "3", "--seed", "0",
        "--data", str(tmp_path / "levels.csv"),
        "--config", str(_categorical_config(tmp_path)),
        "--out", str(tmp_path / "out"),
    ]
    script = (
        "import sys\nfrom anchorlab import cli\n"
        f"code = cli.main({argv!r})\nprint(code, 'numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.stdout.split() == ["0", "False"], done.stderr
