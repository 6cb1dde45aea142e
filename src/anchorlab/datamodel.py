"""Dataset container, anchor level codes, centering, the level split, CSV round-trip.

Datasets are immutable after construction: `center` returns a new object and
records the subtracted means so that prediction on new data can reuse them.
Anchors are not required at prediction time. A lone categorical anchor is
held as per-row level codes, never as its n x L indicator block.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import numkern
from .exceptions import (
    AnchorlabError,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    EmptyLevel,
    InvalidConfig,
    MissingColumn,
    NonNumericPredictor,
    ParseError,
)

FLOAT_FORMAT = "%.12g"


def _level_codes(labels) -> tuple[np.ndarray, tuple]:
    """Per-row index into the sorted tuple of distinct labels: one dict pass
    finds each label's first row, and the sorted labels rank those rows."""
    first = {}  # label -> the row where it first appears
    rows = np.fromiter(map(first.setdefault, labels, itertools.count()), dtype=np.intp)
    if not first:
        raise EmptyInput("no rows to encode")
    levels = sorted(first)
    rank = np.empty(rows.size, dtype=np.intp)
    rank[[first[lab] for lab in levels]] = np.arange(len(levels))
    return rank[rows], tuple(levels)


@dataclass(frozen=True)
class AnchorDataset:
    """Observations (X, Y, A) sharing n rows.

    A discrete anchor is held once: row i is in the level labelled
    `level_labels[level_codes[i]]`, and a label may hold no rows.

    Without A, the anchor block is the 0/1 indicator matrix of the level
    codes (before centering): the anchor projection uses level sums, and the
    block is built on request by `anchor_matrix`, one column per label. With
    A, the codes only group the rows, as `scm.sample` groups the rows it
    draws by their level.
    """

    X: np.ndarray
    Y: np.ndarray
    A: np.ndarray | None = None
    centered: bool = False
    x_means: np.ndarray | None = None
    y_mean: float = 0.0
    predictor_names: tuple = field(default=())
    level_codes: np.ndarray | None = None
    level_labels: tuple | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float).ravel()
        A = None if self.A is None else np.asarray(self.A, dtype=float)
        # a 1-d X or A is one column
        X, A = (mat.reshape(-1, 1) if mat is not None and mat.ndim < 2 else mat for mat in (X, A))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "A", A)
        n = X.shape[0]
        if self.level_codes is None and (A is None or self.level_labels is not None):
            raise ValueError("a dataset without A, or with level labels, needs level codes")
        # without A, the level-code check below covers the rows
        a_rows = n if A is None else A.shape[0]
        if Y.shape[0] != n or a_rows != n:
            raise DimensionMismatch(
                f"row mismatch: X has {n}, Y has {Y.shape[0]}, A has {a_rows}"
            )
        if not self.predictor_names:
            object.__setattr__(
                self,
                "predictor_names",
                tuple(f"x{j + 1}" for j in range(X.shape[1])),
            )
        if self.level_codes is not None:
            codes = np.asarray(self.level_codes)
            if (
                self.level_labels is None
                or codes.shape != (n,)
                or not np.issubdtype(codes.dtype, np.integer)
                or (n and (codes.min() < 0 or codes.max() >= len(self.level_labels)))
            ):
                raise ValueError("level codes must be one index into level_labels per row")
            if len(set(self.level_labels)) < len(self.level_labels):
                raise ValueError("level labels must be distinct")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def q(self) -> int:
        return len(self.level_labels) if self.A is None else self.A.shape[1]

    @cached_property
    def anchor_levels(self) -> dict | None:
        """Each level label's row indices, ascending, derived from the codes:
        a label with no rows maps to an empty array. None without codes."""
        if self.level_codes is None:
            return None
        codes = np.asarray(self.level_codes, dtype=np.intp)
        order = np.argsort(codes, kind="stable")
        ends = np.cumsum(np.bincount(codes, minlength=len(self.level_labels)))
        return dict(zip(self.level_labels, np.split(order, ends[:-1])))

    def anchor_matrix(self) -> np.ndarray:
        """The n x q anchor block: A, or the 0/1 block of the level codes,
        built on each call and centred when the dataset is. No fit reads it."""
        if self.A is not None:
            return self.A
        block = np.zeros((self.n, self.q))
        block[np.arange(self.n), self.level_codes] = 1.0
        return block - block.mean(axis=0) if self.centered else block

    @cached_property
    def projection(self) -> numkern.AnchorProjection:
        """Pi_A for this centred dataset, built on first use and shared by
        every fit on it: one thin SVD of A, or level sums when the level
        codes stand for A."""
        if not self.centered:
            raise DomainError("the anchor projection needs a centred dataset")
        return numkern.AnchorProjection(self.A, self.level_codes)

    @cached_property
    def gram_columns(self):
        """[X Y] on and off the anchor span, split once per dataset and held
        as `numkern.moment_source` holds them for the l1 solver, which reads
        them a column at a time: no (d+1) x (d+1) matrix is formed for a
        dataset wider than long."""
        projection = self.projection  # its SVD runs before [X Y] is copied
        data = np.column_stack([self.X, self.Y])
        return numkern.moment_source(self.n, *numkern.anchor_split(projection, data))

    @cached_property
    def moments(self) -> numkern.AnchorMoments:
        """The whole blocks, for the dense solves."""
        columns = self.gram_columns
        if isinstance(columns, numkern.AnchorMoments):
            return columns
        return numkern.anchor_moments(columns.on, columns.off)


def _require_rows(n: int) -> None:
    if n < 2:
        raise EmptyInput(f"centering needs at least two rows, got {n}")


def center(ds: AnchorDataset) -> AnchorDataset:
    """Subtract column means from X, Y and A, when held; store those of X and
    Y for prediction."""
    _require_rows(ds.n)
    if ds.centered:
        # idempotent: previously stored means are kept
        return ds
    x_means = ds.X.mean(axis=0)
    y_mean = float(ds.Y.mean())
    return replace(
        ds,
        X=ds.X - x_means,
        Y=ds.Y - y_mean,
        A=None if ds.A is None else ds.A - ds.A.mean(axis=0),
        centered=True,
        x_means=x_means,
        y_mean=y_mean,
    )


@dataclass(frozen=True)
class CentredLevels:
    """Whole anchor levels of a dataset as the fits read a centred dataset,
    without its rows: their count n, the predictors' number d and names,
    the means and `split`, the (on, off) split of the centred [X Y]."""

    n: int
    d: int
    predictor_names: tuple
    x_means: np.ndarray
    y_mean: float
    split: tuple
    centered: ClassVar[bool] = True

    @cached_property
    def moments(self) -> numkern.AnchorMoments:
        return numkern.anchor_moments(*self.split)

    @cached_property
    def gram_columns(self):
        return numkern.moment_source(self.n, *self.split)


class LevelSplit:
    """[X Y] of a dataset by its levels that hold rows, through the level-code
    `numkern.AnchorProjection`: `on` holds sqrt(n_l) m_l, with m_l the mean
    over the n_l rows of level l, and `off` each row less its level's mean.
    Row i is in level `labels[codes[i]]`; `counts` holds n_l."""

    def __init__(self, ds: AnchorDataset):
        self.codes, present, self.counts = numkern.present_levels(ds.level_codes)
        self.labels = [ds.level_labels[j] for j in present]
        self.predictor_names = ds.predictor_names
        data = np.column_stack([ds.X, ds.Y])
        self.on, self.off = numkern.anchor_split(numkern.AnchorProjection(None, self.codes), data)

    def centred(self, keep: np.ndarray, anchors: np.ndarray | None = None) -> CentredLevels:
        """The levels flagged in `keep`, centred at their mean m: on the span
        of their level means sqrt(n_l)(m_l - m), and off it their rows. With
        `anchors`, one row per kept level, the span is theirs instead: one thin
        SVD of the table centred and weighted as the coordinates are,
        sqrt(n_l)(a_l - a), and the level-mean directions outside it join
        the rows off it. EmptyInput, as from `center`, under two rows."""
        n = int(self.counts[keep].sum())
        _require_rows(n)
        root = np.sqrt(self.counts[keep])[:, None]
        mean = (root.T @ self.on[keep] / n)[0]
        on, off = self.on[keep] - root * mean, self.off[keep[self.codes]]
        if anchors is not None:
            basis = numkern.orthonormal_range(root * (anchors - root.T @ (root * anchors) / n))
            coords = basis.T @ on
            on, off = coords, np.vstack([off, on - basis @ coords])
        return CentredLevels(n, mean.size - 1, self.predictor_names, mean[:-1], mean[-1], (on, off))


def level_counts(ds: AnchorDataset) -> np.ndarray:
    """Each anchor level's row count, read from the codes; EmptyLevel if
    there are no levels or one is empty, naming the first empty label."""
    if ds.level_codes is None:
        raise EmptyLevel("dataset carries no discrete anchor levels")
    counts = np.bincount(np.asarray(ds.level_codes, dtype=np.intp), minlength=len(ds.level_labels))
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise EmptyLevel(f"anchor level {ds.level_labels[empty[0]]!r} has no rows")
    return counts


def level_blocks(ds: AnchorDataset) -> list:
    """(label, rows) of each anchor level; EmptyLevel as from `level_counts`."""
    level_counts(ds)
    return list(ds.anchor_levels.items())


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
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"column config {path} is not UTF-8: {exc.reason}") from None


def _check_config(config) -> None:
    """InvalidConfig unless `config` is an object with a string `response`,
    `anchors` a list of objects each with a string `name`, no two alike nor
    the response, and a `kind` of "categorical" or "continuous" (continuous
    when absent), and `drop_columns` a list of strings; both lists may be
    absent."""
    if not isinstance(config, dict):
        raise InvalidConfig("the column config must be a JSON object")
    if not isinstance(config.get("response"), str):
        raise InvalidConfig("the column config needs a column name as its 'response'")
    anchors = config.get("anchors", [])
    if not (
        isinstance(anchors, list)
        and all(isinstance(spec, dict) and isinstance(spec.get("name"), str) for spec in anchors)
    ):
        raise InvalidConfig("'anchors' must be a list of objects, each with a string 'name'")
    names = [config["response"], *(spec["name"] for spec in anchors)]
    twice = [name for name in names if names.count(name) > 1]
    if twice:
        raise InvalidConfig(f"column {twice[0]!r} is named twice as the response or an anchor")
    for spec in anchors:
        kind = spec.get("kind", "continuous")
        if kind not in ("categorical", "continuous"):
            raise InvalidConfig(
                f"anchor {spec['name']!r} has kind {kind!r}; use 'categorical' or 'continuous'"
            )
    drop = config.get("drop_columns", [])
    if not (isinstance(drop, list) and all(isinstance(name, str) for name in drop)):
        raise InvalidConfig("'drop_columns' must be a list of column names")


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


def _columns(header: list, n: int | None, config: dict) -> _Columns:
    """Resolve `config` against a header of distinct names over n data rows,
    or over rows not yet counted when n is None."""
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
    if n is not None and n < 2:
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
    categorical anchor; a lone categorical anchor keeps its codes, not A."""
    n = len(numeric[cols.response])
    widths = [
        len(labels[name][1]) if cat else 1 for name, cat in zip(cols.anchors, cols.categorical)
    ]
    X = np.empty((n, len(cols.predictors)))
    for j, name in enumerate(cols.predictors):
        X[:, j] = numeric[name]
    A = None if cols.categorical == [True] else np.zeros((n, sum(widths)))
    level_codes = level_labels = None
    for name, cat, start in zip(cols.anchors, cols.categorical, np.cumsum([0, *widths[:-1]])):
        if not cat:
            A[:, start] = numeric[name]
            continue
        if A is None:
            level_codes, level_labels = labels[name]
        else:
            A[np.arange(n), start + labels[name][0]] = 1.0
    return AnchorDataset(
        X=X,
        Y=np.array(numeric[cols.response]),
        A=A,
        predictor_names=tuple(cols.predictors),
        level_codes=level_codes,
        level_labels=level_labels,
    )


def read_csv(path, config: dict) -> AnchorDataset:
    """Strictly parse a UTF-8 CSV file into an AnchorDataset.

    `config` names the `response` column and the `anchors` (list of
    {"name", "kind"}); all remaining columns except `drop_columns` become
    numeric predictors. A malformed config is an InvalidConfig, raised
    before the file is read. Row order is preserved; bytes that are not
    UTF-8, duplicate header names, rows whose cell count differs from the
    header's, missing or non-finite values and fewer than two data rows are
    a ParseError.

    Numeric cells are read as Python's float() reads them. Most files take
    one pass of numpy's C parser (`_parse_plain`); any file it cannot vouch
    for, and every file with an error in it, goes through the per-cell
    parser (`_parse_strict`), which names the row and column of the first
    bad cell.

    The numpy pass streams the file's lines into loadtxt, so at its peak it
    holds loadtxt's table of every column and the X, Y and A copied from it:
    about twice the bytes of X, Y and A for a numeric file. The per-cell
    parser holds the file and its rows of cells.
    """
    _check_config(config)
    parsed = _parse_plain(path, config) or _parse_strict(path, config)
    return _dataset(*parsed)


def _parse_plain(path, config: dict) -> tuple | None:
    """(columns, numeric, labels) of a CSV file from one np.loadtxt pass, or
    None where they could differ from the per-cell parser's.

    loadtxt takes the lines after the header straight from the open file,
    counted as they pass, and no list of the lines is built. It reads every
    header column, as a float for the response, the predictors and the
    continuous anchors and as a string for the others, and rejects a row
    whose cell count differs from the header's. The file is left to the
    per-cell parser when it is not UTF-8, when its header names repeat or
    `_columns` rejects it, when its first data line is blank or missing,
    when loadtxt rejects it or skips a blank line, when it has fewer than
    two data rows, when a number is not finite, and when the header or a
    string cell holds a quote: csv strips quotes, loadtxt keeps them, and a
    quoted field that spans a line break leaves one in some string cell. A
    number holding a quote already fails to parse.
    """
    # a file that is not UTF-8 fails to decode, here or inside loadtxt, with
    # a UnicodeDecodeError, which is a ValueError
    with open(path, newline="", encoding="utf-8") as fh:  # split where csv.reader splits rows
        try:
            head = fh.readline()
            header = head.rstrip("\r\n").split(",") if head else []
            if len(set(header)) < len(header):
                return None
            cols = _columns(header, None, config)
            # loadtxt warns on a body of blank lines, and skips a blank line
            # anywhere else: a blank or missing first line is left here
            first = fh.readline()
            if not first.strip("\r\n"):
                return None
            floats = {cols.index[name] for name, _ in cols.numeric}
            dtype = np.dtype([("", "f8" if j in floats else object) for j in range(len(header))])
            counted = itertools.count()  # zip draws one number per line
            lines = map(operator.itemgetter(0), zip(itertools.chain([first], fh), counted))
            table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (AnchorlabError, ValueError):
            return None
    # the body had next(counted) lines; a row short means a skipped blank line
    if not 2 <= len(table) == next(counted):
        return None
    strings = "".join({head}.union(*(table[f] for f in dtype.names if dtype[f] == object)))
    if '"' in strings:
        return None
    numeric = {name: table[dtype.names[cols.index[name]]] for name, _ in cols.numeric}
    if not all(np.isfinite(column).all() for column in numeric.values()):
        return None
    labels = {name: _level_codes(table[dtype.names[cols.index[name]]]) for name in cols.labelled}
    return cols, numeric, labels


def _parse_strict(path, config: dict) -> tuple:
    """(columns, numeric, labels) of a CSV file, cell by cell through
    csv.reader and float(): the error path. Rows count from 0 at the header;
    a byte that is not UTF-8 is reported at the line that holds it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = len(data[: exc.start + 1].splitlines()) - 1
        raise ParseError(
            f"byte {data[exc.start]:#04x} at offset {exc.start} (row {row}) is not valid UTF-8",
            row=row,
        ) from None
    # read as open(newline="") reads: a StringIO would hold four bytes a character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
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


# rows formatted per write call. A block's Python floats and row strings
# fit in the interpreter's free pools; 8192 rows took about ten fresh 1 MiB
# arenas, and a float that outlived the call kept one of them mapped, so a
# process that wrote file after file grew by about 1 MB per file
WRITE_BLOCK_ROWS = 1024
# a label holding one of these is written by csv.writer, which quotes it
_QUOTED = frozenset(',"\r\n')


def write_csv(path, ds: AnchorDataset, anchor_labels=None) -> None:
    """Inverse of read_csv for numeric data, 12 significant digits.

    Lines end in "\\r\\n", as csv.writer ends them. Numbers are written as
    `FLOAT_FORMAT` gives them. With `anchor_labels` the anchors are one
    column `env` of the labels as str(); a label holding a comma, a quote
    or a line break is quoted by csv.writer, and the header too goes
    through csv.writer.

    Y, X and A are stacked one block of `WRITE_BLOCK_ROWS` rows at a time,
    so beyond the dataset and the labels the writer holds one block, as
    floats, as Python lists and as text.
    """
    names = ["y", *ds.predictor_names]  # the columns written as numbers
    blocks = [ds.Y, ds.X]
    if anchor_labels is not None:
        labels = [str(label) for label in anchor_labels]
    else:
        names.extend(f"a{j + 1}" for j in range(ds.q))
        blocks.append(ds.anchor_matrix())
    row_format = ",".join([FLOAT_FORMAT] * len(names))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names if anchor_labels is None else [*names, "env"])
        for start in range(0, ds.n, WRITE_BLOCK_ROWS):
            rows = np.column_stack([b[start : start + WRITE_BLOCK_ROWS] for b in blocks]).tolist()
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
    codes, levels = _level_codes(map(str, labels))
    return AnchorDataset(X=X, Y=Y, level_codes=codes, level_labels=levels)
