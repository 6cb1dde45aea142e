"""Command-line surface: fit, path, cv, simulate, verify, rank.

Outputs are plain data files (CSV or JSON) with all floats at 12 significant
digits, so repeated runs with the same seed and config are byte-identical.
Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import batteries, datamodel, modelsel, numkern, scm as scm_mod, sparse
from .datamodel import FLOAT_FORMAT
from .exceptions import AnchorlabError, DomainError, InvalidConfig, MissingColumn, ParseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

CONFIG_ERRORS = (
    InvalidConfig,
    ParseError,
    MissingColumn,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    json.JSONDecodeError,
    KeyError,
)


def _fmt(x) -> str:
    return FLOAT_FORMAT % float(x)


def _round_tripped(obj):
    """Clamp every float in a JSON tree to 12 significant digits; a
    non-finite one becomes its FLOAT_FORMAT string, as in the CSV outputs."""
    if isinstance(obj, dict):
        return {str(k): _round_tripped(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tripped(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_tripped(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj)) if math.isfinite(obj) else _fmt(obj)
    return obj


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_round_tripped(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_table(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [cell if isinstance(cell, str) else _fmt(cell) for cell in row]
            )


def _nonnegative(value: float, name: str) -> float:
    """Reject negative and NaN values of a nonnegative option as input errors."""
    if not value >= 0:
        raise InvalidConfig(f"{name} must be nonnegative, got {value}")
    return value


def _parse_gamma(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise InvalidConfig(f"cannot parse gamma value {text!r}") from None
    return _nonnegative(value, "gamma")


def _require_finite_for_lasso(gammas, lam: float) -> None:
    """The l1 fits solve on gamma-transformed data, which gamma = inf has not."""
    if lam > 0 and math.inf in gammas:
        raise InvalidConfig("gamma = inf needs --lambda 0; the lasso needs a finite gamma")


def _parse_float_list(text: str, name: str) -> list:
    if not text.strip():
        raise InvalidConfig(f"{name} grid must be nonempty")
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if name == "gamma":
            out.append(_parse_gamma(piece))
        else:
            try:
                out.append(float(piece))
            except ValueError:
                raise InvalidConfig(f"cannot parse {name} value {piece!r}") from None
            if name == "shift" and not math.isfinite(out[-1]):
                raise InvalidConfig(f"shift components must be finite, got {piece!r}")
    return out


def _load_dataset(args) -> datamodel.AnchorDataset:
    if args.data is None:
        raise InvalidConfig("--data is required for this subcommand")
    if args.config is None:
        raise InvalidConfig("--config is required when reading a dataset")
    config = datamodel.load_column_config(args.config)
    return datamodel.read_csv(args.data, config)


def _load_model(path) -> scm_mod.LinearScm:
    """The model in a --scm file; a malformed model is an input error."""
    try:
        return scm_mod.load_scm(path)
    except DomainError as exc:
        raise InvalidConfig(f"model file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"model file {path} is not UTF-8: {exc.reason}") from None


def _parse_shift(text, model: scm_mod.LinearScm):
    """The --shift vector as a Shift of `model`, or None without one; an
    input error unless it has the model's p components, each finite."""
    if text is None:
        return None
    vec = np.array(_parse_float_list(text, "shift"))
    if vec.shape[0] != model.p:
        raise InvalidConfig(f"--shift must have {model.p} components, got {vec.shape[0]}")
    return scm_mod.Shift(vector=vec)


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _coef_rows(names, coef):
    return [(name, float(c)) for name, c in zip(names, coef)]


def cmd_fit(args) -> int:
    gamma = _parse_gamma(args.gamma)
    _require_finite_for_lasso([gamma], args.lam)
    ds = datamodel.center(_load_dataset(args))
    scales = None
    if args.standardize:
        scales = ds.X.std(axis=0)
        if (scales == 0.0).any():
            raise InvalidConfig("cannot standardize a constant predictor column")
        ds = datamodel.center(replace(ds, X=ds.X / scales, centered=False))
    fit = sparse.fit_anchor_lasso(ds, gamma, args.lam)
    coef = fit.coef / scales if scales is not None else fit.coef
    out = _outdir(args)
    _write_table(
        os.path.join(out, "coefficients.csv"),
        ["coordinate", "estimate"],
        _coef_rows(fit.predictor_names, coef),
    )
    _write_json(
        os.path.join(out, "fit.json"),
        {
            "gamma": fit.gamma,
            "lambda": fit.lam,
            "objective": fit.objective,
            "iterations": fit.iterations,
            "converged": fit.converged,
            "standardized": bool(args.standardize),
            "n": ds.n,
            "d": ds.d,
        },
    )
    return EXIT_OK


def cmd_path(args) -> int:
    if args.grid is None:
        raise InvalidConfig("--grid with gamma values is required for path")
    gammas = _parse_float_list(args.grid, "gamma")
    _require_finite_for_lasso(gammas, args.lam)
    if args.shift is not None and args.scm is None:
        raise InvalidConfig("--shift needs --scm: it enters only the model's risks")
    model = _load_model(args.scm) if args.scm is not None else None
    shift = None if model is None else _parse_shift(args.shift, model)

    rows = []
    if args.data is not None:
        ds = datamodel.center(_load_dataset(args))
        if model is not None and ds.d != model.d:
            raise InvalidConfig(
                f"--scm models {model.d} predictors, --data has {ds.d}"
            )
        names = ds.predictor_names
        coefs = []
        for gamma in gammas:
            # warm start; the last solve reads only the active set and signs,
            # so it agrees with a cold fit
            start = coefs[-1] if coefs else None
            coefs.append(sparse.fit_anchor_lasso(ds, gamma, args.lam, start).coef)
    elif model is not None:
        names = tuple(f"x{j + 1}" for j in range(model.d))
        coefs = [scm_mod.population_anchor(model, gamma) for gamma in gammas]
    else:
        raise InvalidConfig("path needs --data and/or --scm")

    header = ["gamma", *names]
    if model is not None:
        header += ["shift_risk", "worst_case_risk"]
    for gamma, coef in zip(gammas, coefs):
        row = [gamma, *coef]
        if model is not None:
            row.append(scm_mod.shift_risk(model, coef, shift))
            row.append(
                scm_mod.worst_case_risk(model, coef, gamma)
                if gamma != math.inf
                else math.inf
            )
        rows.append(row)

    out = _outdir(args)
    if args.format == "json":
        _write_json(os.path.join(out, "path.json"), [dict(zip(header, row)) for row in rows])
    else:
        _write_table(os.path.join(out, "path.csv"), header, rows)
    return EXIT_OK


def cmd_cv(args) -> int:
    if args.grid is None:
        raise InvalidConfig("--grid with gamma values is required for cv")
    gammas = _parse_float_list(args.grid, "gamma")
    if any(g == math.inf for g in gammas):
        raise InvalidConfig("cv grid must be finite")
    alphas = _parse_float_list(args.alpha, "alpha")
    if not all(0.0 <= a <= 1.0 for a in alphas):
        raise InvalidConfig(f"alpha levels must lie in [0, 1], got {args.alpha!r}")
    if args.folds < 2:
        raise InvalidConfig(f"folds must be at least 2, got {args.folds}")
    result = modelsel.cv_gamma(
        _load_dataset(args),
        alphas=alphas,
        gamma_grid=gammas,
        folds=args.folds,
        lam=args.lam,
        seed=args.seed,
    )
    out = _outdir(args)
    if args.format == "json":
        _write_json(
            os.path.join(out, "cv.json"),
            {
                "gamma_grid": list(result.gamma_grid),
                "alphas": list(result.alphas),
                "curves": result.curves,
                "selected": {_fmt(a): g for a, g in result.selected.items()},
            },
        )
    else:
        header = ["gamma"] + [f"q{_fmt(a)}" for a in result.alphas]
        rows = [
            [g, *result.curves[:, j]] for j, g in enumerate(result.gamma_grid)
        ]
        _write_table(os.path.join(out, "cv.csv"), header, rows)
        _write_table(
            os.path.join(out, "cv_selected.csv"),
            ["alpha", "gamma"],
            [[a, g] for a, g in result.selected.items()],
        )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.scm is None:
        raise InvalidConfig("--scm is required for simulate")
    if args.n is None or args.n < 1:
        raise InvalidConfig("--n must be a positive integer")
    model = _load_model(args.scm)
    rng = numkern.make_rng(args.seed)
    shift = _parse_shift(args.shift, model)
    ds = scm_mod.sample(model, args.n, rng, shift=shift)
    out = _outdir(args)
    labels = None
    if ds.level_codes is not None:
        labels = np.array([str(label) for label in ds.level_labels], dtype=object)[ds.level_codes]
    datamodel.write_csv(os.path.join(out, "data.csv"), ds, anchor_labels=labels)
    anchors = (
        [{"name": "env", "kind": "categorical"}]
        if labels is not None
        else [{"name": f"a{j + 1}", "kind": "continuous"} for j in range(ds.q)]
    )
    _write_json(
        os.path.join(out, "config.json"),
        {"response": "y", "anchors": anchors},
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.scm is not None:
        report = batteries.run_scm_checks(_load_model(args.scm), seed=args.seed)
    else:
        report = batteries.run_battery(seed=args.seed)
    out = _outdir(args)
    _write_json(os.path.join(out, "verify.json"), report)
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        print(f"{status}: {check['name']}")
    if not report["passed"]:
        print("verification failed", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_rank(args) -> int:
    if args.grid is not None:
        endpoints = _parse_float_list(args.grid, "gamma")
        if math.inf in endpoints:
            # the ranking's log-spaced grid and its lasso fits need finite gammas
            raise InvalidConfig("rank grid must be finite")
        gamma_range = (min(endpoints), max(endpoints))
    else:
        gamma_range = (0.0, 1.0)
    ds = datamodel.center(_load_dataset(args))
    table = modelsel.replicability_rank(ds, lam=args.lam, gamma_range=gamma_range)
    out = _outdir(args)
    rows = [
        [name, a, l]
        for name, a, l in zip(table.predictor_names, table.a_scores, table.l_scores)
    ]
    if args.format == "json":
        _write_json(
            os.path.join(out, "ranking.json"),
            [
                {"coordinate": name, "a_score": a, "l_score": l}
                for name, a, l in rows
            ],
        )
    else:
        _write_table(
            os.path.join(out, "ranking.csv"),
            ["coordinate", "a_score", "l_score"],
            rows,
        )
    return EXIT_OK


# Options several subcommands share; each subcommand takes only those its
# handler reads.
SHARED_OPTIONS = {
    "data": {"default": None, "help": "CSV dataset path"},
    "config": {"default": None, "help": "column-role JSON path"},
    "scm": {"default": None, "help": "structural model JSON path"},
    "seed": {"type": int, "required": True},
    "out": {"default": None, "help": "output directory"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorlab",
        description="Anchor regression: fitting, diagnostics and model oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *names):
        for name in names:
            p.add_argument(f"--{name}", **SHARED_OPTIONS[name])

    p_fit = sub.add_parser("fit", help="fit at a single (gamma, lambda)")
    shared(p_fit, "data", "config", "out")
    p_fit.add_argument("--gamma", default="1")
    p_fit.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_fit.add_argument("--standardize", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_path = sub.add_parser("path", help="coefficients along a gamma grid")
    shared(p_path, "data", "config", "scm", "out", "format")
    p_path.add_argument("--grid", default=None, help="comma-separated gammas")
    p_path.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_path.add_argument("--shift", default=None, help="comma-separated shift vector")
    p_path.set_defaults(func=cmd_path)

    p_cv = sub.add_parser("cv", help="pick gamma by grouped cross-validation")
    shared(p_cv, "data", "config", "seed", "out", "format")
    p_cv.add_argument("--grid", default=None, help="comma-separated gammas")
    p_cv.add_argument("--alpha", default="0.9", help="comma-separated quantile levels")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_cv.set_defaults(func=cmd_cv)

    p_sim = sub.add_parser("simulate", help="draw a dataset from a model")
    shared(p_sim, "scm", "seed", "out")
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--shift", default=None, help="comma-separated shift vector")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run the certification battery")
    shared(p_ver, "scm", "seed", "out")
    p_ver.set_defaults(func=cmd_verify)

    p_rank = sub.add_parser("rank", help="stability vs. lasso coefficient ranking")
    shared(p_rank, "data", "config", "out", "format")
    p_rank.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_rank.add_argument("--grid", default=None, help="gamma range endpoints")
    p_rank.set_defaults(func=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "lam"):
            _nonnegative(args.lam, "lambda")
        if hasattr(args, "seed"):
            _nonnegative(args.seed, "seed")
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnchorlabError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
