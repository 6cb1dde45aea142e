"""Dataset container, anchor dummy-encoding, centering, CSV round-trip.

Datasets are immutable after construction: `center` returns a new object and
records the subtracted means so that prediction on new data can reuse them.
Anchors are not required at prediction time.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from . import numkern
from .exceptions import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    EmptyLevel,
    MissingColumn,
    NonNumericPredictor,
    ParseError,
)

FLOAT_FORMAT = "%.12g"


def _level_codes(labels) -> tuple[np.ndarray, tuple]:
    """Per-row index into the sorted tuple of distinct labels (as strings)."""
    labels = [str(lab) for lab in labels]
    if not labels:
        raise EmptyInput("no rows to encode")
    levels = tuple(sorted(set(labels)))
    index = {lab: j for j, lab in enumerate(levels)}
    return np.array([index[lab] for lab in labels]), levels


def _level_rows(codes: np.ndarray, levels: tuple) -> dict:
    return {lev: np.flatnonzero(codes == j) for j, lev in enumerate(levels)}


@dataclass(frozen=True)
class AnchorDataset:
    """Observations (X, Y, A) sharing n rows.

    anchor_levels maps a level label to the row indices belonging to it; the
    integer index sets partition range(n) when present (discrete anchors
    only).

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
            # n integer indices, each in range(n) and each row hit, are a permutation
            parts = [np.asarray(ix) for ix in self.anchor_levels.values()]
            rows = np.concatenate([ix for ix in parts if ix.size] or [np.zeros(0, int)])
            hit = np.zeros(n, dtype=bool)
            ok = rows.dtype.kind in "iu" and rows.size == n
            if ok and n and 0 <= rows.min() and rows.max() < n:
                hit[rows] = True
            if not (ok and hit.all()):
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
        one thin SVD of A."""
        if not self.centered:
            raise DomainError("the anchor projection needs a centred dataset")
        return numkern.AnchorProjection(self.A, self.level_codes)

    @cached_property
    def moments(self) -> numkern.AnchorMoments:
        """[X Y] on and off the anchor span, for the dense solves."""
        return numkern.anchor_moments(self.projection, np.column_stack([self.X, self.Y]))

    @cached_property
    def gram_columns(self):
        """The same blocks for the l1 solver, which reads them a column at a
        time: `moments` when n > d, else `numkern.ColumnMoments`, so that no
        (d+1) x (d+1) matrix is formed for a dataset wider than long."""
        if self.n > self.d:
            return self.moments
        return numkern.ColumnMoments(self.projection, np.column_stack([self.X, self.Y]))


def center(ds: AnchorDataset) -> AnchorDataset:
    """Subtract column means from X, Y and A; store those of X and Y for
    prediction."""
    if ds.n < 2:
        raise EmptyInput(f"centering needs at least two rows, got {ds.n}")
    if ds.centered:
        # idempotent: previously stored means are kept
        return ds
    x_means = ds.X.mean(axis=0)
    y_mean = float(ds.Y.mean())
    return replace(
        ds,
        X=ds.X - x_means,
        Y=ds.Y - y_mean,
        A=ds.A - ds.A.mean(axis=0),
        centered=True,
        x_means=x_means,
        y_mean=y_mean,
    )


def level_blocks(ds: AnchorDataset) -> list:
    """(label, rows) of each anchor level; EmptyLevel if there are none or one is empty."""
    if ds.anchor_levels is None:
        raise EmptyLevel("dataset carries no discrete anchor levels")
    blocks = [(label, np.asarray(idx)) for label, idx in ds.anchor_levels.items()]
    for label, idx in blocks:
        if idx.size == 0:
            raise EmptyLevel(f"anchor level {label!r} has no rows")
    return blocks


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


@dataclass(frozen=True)
class _Columns:
    """Which header columns feed Y, X and A under a column config."""

    index: dict  # header name -> position
    response: str
    predictors: list
    anchors: list  # in config order
    categorical: list  # one flag per anchor

    @property
    def numeric(self) -> list:
        """(name, kind) of each column read as numbers, in the order checked."""
        return [
            (self.response, "response"),
            *((name, "predictor") for name in self.predictors),
            *((name, "anchor") for name, cat in zip(self.anchors, self.categorical) if not cat),
        ]

    @property
    def labelled(self) -> list:
        return [name for name, cat in zip(self.anchors, self.categorical) if cat]


def _columns(header: list, n: int, config: dict) -> _Columns:
    """Resolve `config` against a header of distinct names over n data rows."""
    response = config["response"]
    anchor_specs = config.get("anchors", [])
    drop = set(config.get("drop_columns", []))
    index = {name: j for j, name in enumerate(header)}
    anchors = [spec["name"] for spec in anchor_specs]
    for name in [response, *anchors]:
        if name not in index:
            raise MissingColumn(name)
    if not anchor_specs:
        raise MissingColumn("at least one anchor column is required")
    if n < 2:
        raise ParseError(f"need at least two data rows, found {n}", row=n + 1)
    predictors = [
        name for name in header if name != response and name not in anchors and name not in drop
    ]
    if not predictors:
        raise ParseError("no predictor columns: each is the response, an anchor or dropped", row=0)
    categorical = [spec.get("kind", "continuous") == "categorical" for spec in anchor_specs]
    return _Columns(index, response, predictors, anchors, categorical)


def _dataset(cols: _Columns, numeric: dict, labels: dict) -> AnchorDataset:
    """Assemble (X, Y, A) from parsed numeric columns and (codes, levels) per
    categorical anchor; a lone categorical anchor also sets the level codes."""
    n = len(numeric[cols.response])
    widths = [
        len(labels[name][1]) if cat else 1 for name, cat in zip(cols.anchors, cols.categorical)
    ]
    X = np.empty((n, len(cols.predictors)))
    for j, name in enumerate(cols.predictors):
        X[:, j] = numeric[name]
    A = np.zeros((n, sum(widths)))
    anchor_levels = level_codes = None
    for name, cat, start in zip(cols.anchors, cols.categorical, np.cumsum([0, *widths[:-1]])):
        if not cat:
            A[:, start] = numeric[name]
            continue
        codes, levels = labels[name]
        A[np.arange(n), start + codes] = 1.0
        if len(cols.anchors) == 1:
            level_codes = codes
            anchor_levels = _level_rows(codes, levels)
    return AnchorDataset(
        X=X,
        Y=np.array(numeric[cols.response]),
        A=A,
        anchor_levels=anchor_levels,
        predictor_names=tuple(cols.predictors),
        level_codes=level_codes,
    )


def read_csv(path, config: dict) -> AnchorDataset:
    """Strictly parse a CSV file into an AnchorDataset.

    `config` names the `response` column and the `anchors` (list of
    {"name", "kind"}); all remaining numeric columns except `drop_columns`
    become predictors. Row order is preserved; duplicate header names, rows
    whose cell count differs from the header's, missing or non-finite values
    and fewer than two data rows are an error.

    Numeric cells are read as Python's float() reads them. Most files go
    through numpy's C parser (`_parse_plain`); any file it cannot vouch for,
    and every file with an error in it, goes through the per-cell parser
    (`_parse_strict`), which names the row and column of the first bad cell.
    """
    parsed = _parse_plain(path, config) or _parse_strict(path, config)
    return _dataset(*parsed)


def _parse_plain(path, config: dict) -> tuple | None:
    """(columns, numeric, labels) of a CSV file from numpy's C parser, or
    None where they could differ from the per-cell parser's.

    Used only for a file with no quote (csv strips quotes, loadtxt keeps
    them), no NUL (numpy strings drop trailing NULs), distinct header names
    and the header's cell count on every line (so no blank line, which
    loadtxt would skip), and then only when loadtxt reads every numeric cell
    as a finite number.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()  # split where csv.reader splits rows
    header = lines[0].rstrip("\r\n").split(",") if lines else []
    width = len(header)
    # A blank line is one cell to split(",") but none to csv, so the cell
    # count tells it apart only from a header of two or more cells.
    if (
        width < 2
        or len(set(header)) < width
        or any('"' in line or "\x00" in line for line in lines)
        or {line.count(",") for line in lines} != {width - 1}
    ):
        return None
    cols = _columns(header, len(lines) - 1, config)
    read = partial(np.loadtxt, lines, delimiter=",", comments=None, skiprows=1, ndmin=2)
    try:
        values = read(usecols=[cols.index[name] for name, _ in cols.numeric])
        strings = [read(dtype=str, usecols=[cols.index[name]])[:, 0] for name in cols.labelled]
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    labels = {}
    for name, column in zip(cols.labelled, strings):
        levels, codes = np.unique(column, return_inverse=True)
        labels[name] = codes, tuple(levels.tolist())
    numeric = {name: column for (name, _), column in zip(cols.numeric, values.T)}
    return cols, numeric, labels


def _parse_strict(path, config: dict) -> tuple:
    """(columns, numeric, labels) of a CSV file, cell by cell through
    csv.reader and float(): the error path."""
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
    cols = _columns(header, len(rows), config)
    labels = {
        name: _level_codes(row[cols.index[name]] for row in rows) for name in cols.labelled
    }
    numeric = {}
    for name, kind in cols.numeric:
        cix = cols.index[name]
        out = numeric[name] = np.array(
            [_parse_cell(row[cix], i + 1, name, kind) for i, row in enumerate(rows)], dtype=float
        )
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            i = int(bad[0])
            raise ParseError(
                f"non-finite {kind} cell at row {i + 1}, column {name!r}: {rows[i][cix]!r}",
                row=i + 1,
                column=name,
            )
    return cols, numeric, labels


# rows formatted per write call: one block is a few MB of text
WRITE_BLOCK_ROWS = 8192
# a label holding one of these is written by csv.writer, which quotes it
_QUOTED = frozenset(',"\r\n')


def write_csv(path, ds: AnchorDataset, anchor_labels=None) -> None:
    """Inverse of read_csv for numeric data, 12 significant digits.

    Lines end in "\\r\\n", as csv.writer ends them. Numbers are written as
    `FLOAT_FORMAT` gives them. With `anchor_labels` the anchors are one
    column `env` of the labels as str(); a label holding a comma, a quote
    or a line break is quoted by csv.writer, and the header too goes
    through csv.writer.
    """
    header = ["y", *ds.predictor_names]
    blocks = [ds.Y, ds.X]
    if anchor_labels is not None:
        header.append("env")
        labels = [str(label) for label in anchor_labels]
    else:
        header.extend(f"a{j + 1}" for j in range(ds.q))
        blocks.append(ds.A)
    values = np.column_stack(blocks)
    row_format = ",".join([FLOAT_FORMAT] * values.shape[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, ds.n, WRITE_BLOCK_ROWS):
            rows = values[start : start + WRITE_BLOCK_ROWS].tolist()
            if anchor_labels is None:
                fh.write("".join([row_format % tuple(row) + "\r\n" for row in rows]))
                continue
            lines = []
            for row, label in zip(rows, labels[start : start + WRITE_BLOCK_ROWS]):
                if _QUOTED.isdisjoint(label):
                    lines.append(f"{row_format % tuple(row)},{label}\r\n")
                else:
                    fh.write("".join(lines))
                    lines = []
                    writer.writerow([*(FLOAT_FORMAT % v for v in row), label])
            fh.write("".join(lines))


def from_levels(X, Y, labels) -> AnchorDataset:
    """Build a discrete-anchor dataset from per-row level labels."""
    codes, levels = _level_codes(labels)
    A = np.zeros((codes.size, len(levels)))
    A[np.arange(codes.size), codes] = 1.0
    return AnchorDataset(
        X=X,
        Y=Y,
        A=A,
        anchor_levels=_level_rows(codes, levels),
        level_codes=codes,
    )
