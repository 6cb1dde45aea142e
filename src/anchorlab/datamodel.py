"""Dataset container, anchor dummy-encoding, centering, CSV round-trip.

Datasets are immutable after construction: `center` returns a new object and
records the subtracted means so that prediction on new data can reuse them.
Anchors are not required at prediction time.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import numkern
from .exceptions import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    MissingColumn,
    NonNumericPredictor,
    ParseError,
)

FLOAT_FORMAT = "%.12g"


@dataclass(frozen=True)
class AnchorEncoding:
    """How a raw anchor column was turned into numeric columns.

    The full dummy set is kept (one indicator per level, no reference level
    dropped); the rank-truncating QR inside the projection absorbs the
    redundancy after centering.
    """

    kind: str  # "continuous" | "categorical-dummy"
    levels: tuple = ()

    @property
    def width(self) -> int:
        return len(self.levels) if self.kind == "categorical-dummy" else 1


def _level_codes(labels) -> tuple[np.ndarray, tuple]:
    """Per-row index into the sorted tuple of distinct labels (as strings)."""
    labels = [str(lab) for lab in labels]
    if not labels:
        raise EmptyInput("no rows to encode")
    levels = tuple(sorted(set(labels)))
    index = {lab: j for j, lab in enumerate(levels)}
    return np.array([index[lab] for lab in labels]), levels


def _indicators(codes: np.ndarray, width: int) -> np.ndarray:
    mat = np.zeros((codes.shape[0], width))
    mat[np.arange(codes.shape[0]), codes] = 1.0
    return mat


def _level_rows(codes: np.ndarray, levels: tuple) -> dict:
    return {lev: np.flatnonzero(codes == j) for j, lev in enumerate(levels)}


def encode_anchors(labels) -> tuple[np.ndarray, AnchorEncoding]:
    """Dummy-encode per-row categorical labels, columns in sorted label order."""
    codes, levels = _level_codes(labels)
    return _indicators(codes, len(levels)), AnchorEncoding(kind="categorical-dummy", levels=levels)


@dataclass(frozen=True)
class AnchorDataset:
    """Observations (X, Y, A) sharing n rows.

    anchor_levels maps a level label to the row indices belonging to it; the
    sets partition the rows when present (discrete anchors only).

    level_codes, when present, records that A is the 0/1 indicator matrix of
    these per-row column indices (before centering). Only constructors that
    build A that way set it; the anchor projection then uses level sums.
    """

    X: np.ndarray
    Y: np.ndarray
    A: np.ndarray
    anchor_levels: dict | None = None
    centered: bool = False
    x_means: np.ndarray | None = None
    y_mean: float = 0.0
    a_means: np.ndarray | None = None
    predictor_names: tuple = field(default=())
    level_codes: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        # a 1-d X or A is one column
        X, A = (mat.reshape(-1, 1) if mat.ndim < 2 else mat for mat in (X, A))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "A", A)
        n = X.shape[0]
        if Y.shape[0] != n or A.shape[0] != n:
            raise DimensionMismatch(
                f"row mismatch: X has {n}, Y has {Y.shape[0]}, A has {A.shape[0]}"
            )
        if not self.predictor_names:
            object.__setattr__(
                self,
                "predictor_names",
                tuple(f"x{j + 1}" for j in range(X.shape[1])),
            )
        if self.anchor_levels is not None:
            covered = np.concatenate(
                [np.asarray(ix) for ix in self.anchor_levels.values()]
            )
            if len(covered) != n or len(np.unique(covered)) != n:
                raise ValueError("anchor level index sets must partition the rows")
        if self.level_codes is not None:
            codes = np.asarray(self.level_codes)
            if (
                codes.shape != (n,)
                or not np.issubdtype(codes.dtype, np.integer)
                or (n and (codes.min() < 0 or codes.max() >= A.shape[1]))
            ):
                raise ValueError("level codes must be one column index of A per row")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return self.A.shape[1]

    @cached_property
    def projection(self) -> numkern.AnchorProjection:
        """Pi_A for this centred dataset, built on first use and shared by
        every fit on it: level sums when the anchors carry level codes, else
        one QR of A."""
        if not self.centered:
            raise DomainError("the anchor projection needs a centred dataset")
        return numkern.AnchorProjection(self.A, self.level_codes)

    @cached_property
    def moments(self) -> numkern.AnchorMoments:
        """[X Y] on and off the anchor span, for the dense solves."""
        return numkern.anchor_moments(self.projection, np.column_stack([self.X, self.Y]))


def center(ds: AnchorDataset) -> AnchorDataset:
    """Subtract column means from X, Y and A; store them for prediction."""
    if ds.n < 2:
        raise EmptyInput(f"centering needs at least two rows, got {ds.n}")
    if ds.centered:
        # idempotent: previously stored means are kept
        return ds
    x_means = ds.X.mean(axis=0)
    y_mean = float(ds.Y.mean())
    a_means = ds.A.mean(axis=0)
    return replace(
        ds,
        X=ds.X - x_means,
        Y=ds.Y - y_mean,
        A=ds.A - a_means,
        centered=True,
        x_means=x_means,
        y_mean=y_mean,
        a_means=a_means,
    )


def _parse_cell(text: str, row: int, col: str, kind: str) -> float:
    try:
        return float(text)
    except ValueError:
        exc = NonNumericPredictor if kind == "predictor" else ParseError
        raise exc(
            f"cannot parse {kind} cell at row {row}, column {col!r}: {text!r}",
            row=row,
            column=col,
        ) from None


def load_column_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path, config: dict) -> AnchorDataset:
    """Strictly parse a CSV file into an AnchorDataset.

    `config` names the `response` column and the `anchors` (list of
    {"name", "kind"}); all remaining numeric columns except `drop_columns`
    become predictors. Row order is preserved; duplicate header names, rows
    whose cell count differs from the header's, missing or non-finite values
    and fewer than two data rows are an error.
    """
    response = config["response"]
    anchor_specs = config.get("anchors", [])
    drop = set(config.get("drop_columns", []))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", row=0) from None
        rows = list(reader)
    seen = set()
    for name in header:
        if name in seen:
            raise ParseError(f"duplicate column name {name!r} in the header", row=0, column=name)
        seen.add(name)
    width = len(header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise ParseError(
            f"row {i + 1} has {len(rows[i])} cells, the header has {width}", row=i + 1
        )
    colidx = {name: j for j, name in enumerate(header)}
    anchor_names = [spec["name"] for spec in anchor_specs]
    for name in [response, *anchor_names]:
        if name not in colidx:
            raise MissingColumn(name)
    if not anchor_specs:
        raise MissingColumn("at least one anchor column is required")
    if len(rows) < 2:
        raise ParseError(f"need at least two data rows, found {len(rows)}", row=len(rows) + 1)
    predictor_names = [
        name
        for name in header
        if name != response and name not in anchor_names and name not in drop
    ]
    if not predictor_names:
        raise ParseError("no predictor columns: each is the response, an anchor or dropped", row=0)
    categorical = [spec.get("kind", "continuous") == "categorical" for spec in anchor_specs]
    labels = {
        name: _level_codes(row[colidx[name]] for row in rows)
        for name, cat in zip(anchor_names, categorical)
        if cat
    }
    widths = [len(labels[name][1]) if cat else 1 for name, cat in zip(anchor_names, categorical)]
    starts = np.cumsum([0, *widths[:-1]])

    n, d = len(rows), len(predictor_names)
    X, Y, A = np.empty((n, d)), np.empty(n), np.zeros((n, sum(widths)))
    numeric = [
        (response, "response", Y),
        *((name, "predictor", X[:, j]) for j, name in enumerate(predictor_names)),
        *(
            (name, "anchor", A[:, start])
            for name, cat, start in zip(anchor_names, categorical, starts)
            if not cat
        ),
    ]
    for name, kind, out in numeric:
        cix = colidx[name]
        out[:] = [_parse_cell(row[cix], i + 1, name, kind) for i, row in enumerate(rows)]
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = int(bad[0])
            raise ParseError(
                f"non-finite {kind} cell at row {i + 1}, column {name!r}: {rows[i][cix]!r}",
                row=i + 1,
                column=name,
            )

    anchor_levels = level_codes = None
    for name, cat, start in zip(anchor_names, categorical, starts):
        if cat:
            codes, levels = labels[name]
            A[np.arange(n), start + codes] = 1.0
            if len(anchor_specs) == 1:
                level_codes = codes
                anchor_levels = _level_rows(codes, levels)
    return AnchorDataset(
        X=X,
        Y=Y,
        A=A,
        anchor_levels=anchor_levels,
        predictor_names=tuple(predictor_names),
        level_codes=level_codes,
    )


def write_csv(path, ds: AnchorDataset, anchor_labels=None) -> None:
    """Inverse of read_csv for numeric data, 12 significant digits."""
    header = ["y", *ds.predictor_names]
    if anchor_labels is not None:
        header.append("env")
    else:
        header.extend(f"a{j + 1}" for j in range(ds.q))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [FLOAT_FORMAT % ds.Y[i]]
            row.extend(FLOAT_FORMAT % v for v in ds.X[i])
            if anchor_labels is not None:
                row.append(str(anchor_labels[i]))
            else:
                row.extend(FLOAT_FORMAT % v for v in ds.A[i])
            writer.writerow(row)


def from_levels(X, Y, labels) -> AnchorDataset:
    """Build a discrete-anchor dataset from per-row level labels."""
    codes, levels = _level_codes(labels)
    return AnchorDataset(
        X=X,
        Y=Y,
        A=_indicators(codes, len(levels)),
        anchor_levels=_level_rows(codes, levels),
        level_codes=codes,
    )
