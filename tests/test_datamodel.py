import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anchorlab import datamodel, numkern
from anchorlab.datamodel import (
    FLOAT_FORMAT,
    AnchorDataset,
    center,
    from_levels,
    read_csv,
    write_csv,
)
from anchorlab.exceptions import (
    AnchorlabError,
    DimensionMismatch,
    EmptyInput,
    InvalidConfig,
    MissingColumn,
    ParseError,
)

import oracles


def _encode(labels):
    """The dummy block and the sorted levels that `from_levels` builds."""
    ds = from_levels(np.zeros((len(labels), 1)), np.zeros(len(labels)), labels)
    return ds.anchor_matrix(), tuple(ds.anchor_levels)


class TestEncodeAnchors:
    def test_two_levels(self):
        mat, levels = _encode(["a", "b", "a"])
        assert np.array_equal(mat, [[1, 0], [0, 1], [1, 0]])
        assert levels == ("a", "b")

    def test_single_level(self):
        mat, _ = _encode(["a", "a"])
        assert np.array_equal(mat, [[1], [1]])

    def test_column_sums_count_levels(self):
        rng = numkern.make_rng(0)
        labels = rng.choice(["u", "v", "w"], size=300)
        mat, levels = _encode(labels)
        for j, level in enumerate(levels):
            assert mat[:, j].sum() == np.sum(labels == level)

    def test_rows_sum_to_one(self):
        mat, _ = _encode(list("abcabcb"))
        assert np.array_equal(mat.sum(axis=1), np.ones(7))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            _encode([])


class TestCenter:
    def _toy(self):
        rng = numkern.make_rng(1)
        return AnchorDataset(
            X=rng.standard_normal((100, 4)),
            Y=rng.standard_normal(100),
            A=rng.standard_normal((100, 2)),
        )

    def test_column_means_zero(self):
        ds = center(self._toy())
        assert np.max(np.abs(ds.X.mean(axis=0))) < 1e-12
        assert abs(ds.Y.mean()) < 1e-12
        assert np.max(np.abs(ds.A.mean(axis=0))) < 1e-12

    def test_idempotent(self):
        ds = center(self._toy())
        again = center(ds)
        assert np.array_equal(ds.X, again.X)
        assert np.array_equal(again.x_means, ds.x_means)

    def test_simple_response(self):
        ds = AnchorDataset(X=np.zeros((3, 1)), Y=[1.0, 2.0, 3.0], A=np.ones((3, 1)))
        assert np.allclose(center(ds).Y, [-1.0, 0.0, 1.0])

    def test_stores_means(self):
        ds = self._toy()
        centered = center(ds)
        assert np.allclose(centered.x_means, ds.X.mean(axis=0))
        assert centered.y_mean == pytest.approx(float(ds.Y.mean()))


class TestCsv:
    def _write_fixture(self, path):
        path.write_text(
            "y,x1,x2,env\n"
            "1.5,0.1,2.0,north\n"
            "2.5,0.2,1.0,south\n"
            "0.5,-0.3,0.5,north\n"
            "3.5,0.4,1.5,south\n"
        )
        return {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]}

    def test_fixture_shapes(self, tmp_path):
        p = tmp_path / "toy.csv"
        config = self._write_fixture(p)
        ds = read_csv(p, config)
        assert (ds.n, ds.d, ds.q) == (4, 2, 2)
        assert ds.predictor_names == ("x1", "x2")
        assert set(ds.anchor_levels) == {"north", "south"}
        assert np.array_equal(ds.anchor_levels["north"], [0, 2])

    def test_non_numeric_cell_located(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("y,x1,env\n1.0,NA,a\n2.0,0.5,b\n")
        with pytest.raises(ParseError) as err:
            read_csv(p, {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]})
        assert err.value.row == 1
        assert err.value.column == "x1"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_located(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"y,x1,env\n1.0,0.5,a\n2.0,0.5,b\n3.0,{cell},a\n")
        with pytest.raises(ParseError) as err:
            read_csv(p, {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]})
        assert (err.value.row, err.value.column) == (3, "x1")

    @pytest.mark.parametrize("body", ["", "1.0,0.5,a\n"])
    def test_fewer_than_two_rows_rejected(self, tmp_path, body):
        p = tmp_path / "short.csv"
        p.write_text("y,x1,env\n" + body)
        with pytest.raises(ParseError, match="at least two data rows"):
            read_csv(p, {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]})

    def test_mixed_anchors_keep_config_order(self, tmp_path):
        p = tmp_path / "mixed.csv"
        p.write_text("y,x1,a1,env,a2\n1,2,0.5,b,3\n2,3,1,a,4\n3,1,2,c,5\n4,2,1,a,6\n")
        ds = read_csv(p, {"response": "y", "anchors": [
            {"name": "a1"}, {"name": "env", "kind": "categorical"}, {"name": "a2"},
        ]})
        assert np.array_equal(ds.A, [
            [0.5, 0, 1, 0, 3], [1, 1, 0, 0, 4], [2, 0, 0, 1, 5], [1, 1, 0, 0, 6],
        ])
        # only a lone categorical anchor is a pure indicator block
        assert ds.level_codes is None and ds.anchor_levels is None

    def test_level_codes_index_the_indicator_columns(self, tmp_path):
        p = tmp_path / "toy.csv"
        ds = read_csv(p, self._write_fixture(p))
        block = ds.anchor_matrix()
        assert np.array_equal(block[np.arange(ds.n), ds.level_codes], np.ones(ds.n))
        assert np.array_equal(block.sum(axis=1), np.ones(ds.n))

    def test_missing_column(self, tmp_path):
        p = tmp_path / "missing.csv"
        p.write_text("y,x1\n1.0,2.0\n")
        with pytest.raises(MissingColumn):
            read_csv(p, {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]})

    def test_drop_columns(self, tmp_path):
        p = tmp_path / "drop.csv"
        p.write_text("y,x1,junk,a1\n1,2,zzz,0.1\n3,4,qqq,0.2\n")
        ds = read_csv(
            p,
            {
                "response": "y",
                "anchors": [{"name": "a1", "kind": "continuous"}],
                "drop_columns": ["junk"],
            },
        )
        assert ds.predictor_names == ("x1",)

    def test_roundtrip_large(self, tmp_path):
        rng = numkern.make_rng(2)
        n = 10_000
        ds = AnchorDataset(
            X=rng.standard_normal((n, 3)),
            Y=rng.standard_normal(n),
            A=rng.standard_normal((n, 2)),
        )
        p = tmp_path / "round.csv"
        write_csv(p, ds)
        back = read_csv(
            p,
            {
                "response": "y",
                "anchors": [
                    {"name": "a1", "kind": "continuous"},
                    {"name": "a2", "kind": "continuous"},
                ],
            },
        )
        # values agree bitwise after both sides are clamped to 12 significant digits
        for ours, theirs in ((ds.X, back.X), (ds.Y[:, None], back.Y[:, None]), (ds.A, back.A)):
            a = np.vectorize(lambda v: FLOAT_FORMAT % v)(ours)
            b = np.vectorize(lambda v: FLOAT_FORMAT % v)(theirs)
            assert np.array_equal(a, b)

    def test_categorical_roundtrip(self, tmp_path):
        rng = numkern.make_rng(3)
        labels = rng.choice(["a", "b", "c"], size=50)
        ds = from_levels(rng.standard_normal((50, 2)), rng.standard_normal(50), labels)
        p = tmp_path / "cat.csv"
        write_csv(p, ds, anchor_labels=labels)
        back = read_csv(
            p, {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]}
        )
        assert set(back.anchor_levels) == {"a", "b", "c"}
        assert np.array_equal(back.anchor_matrix(), ds.anchor_matrix())


class TestPipelineIdentity:
    def test_projection_equals_group_mean_deviation(self):
        # dummy-encode, center everything, then project: the result must be
        # the per-level mean of Y minus the grand mean, broadcast within level
        rng = numkern.make_rng(4)
        labels = rng.choice(["p", "q", "r"], size=120)
        y = rng.standard_normal(120)
        ds = center(from_levels(rng.standard_normal((120, 1)), y, labels))
        proj = ds.Y - numkern.anchor_split([ds.Y], ds.anchor_matrix())[1][:, 0]
        expected = oracles.groupwise_means(y, labels) - y.mean()
        assert np.max(np.abs(proj - expected)) < 1e-9


@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=30, deadline=None)
def test_center_means_property(n, d, seed):
    rng = numkern.make_rng(seed)
    ds = AnchorDataset(
        X=rng.standard_normal((n, d)),
        Y=rng.standard_normal(n),
        A=rng.standard_normal((n, 1)),
    )
    centered = center(ds)
    assert np.max(np.abs(centered.X.mean(axis=0))) < 1e-10
    assert abs(centered.Y.mean()) < 1e-10


def test_row_mismatch_rejected():
    with pytest.raises(ValueError):
        AnchorDataset(X=np.zeros((3, 1)), Y=np.zeros(4), A=np.zeros((3, 1)))


def test_anchor_rows_must_match_x():
    # an A with q rows and n columns is an error, never silently transposed
    x, y = np.zeros((5, 1)), np.zeros(5)
    with pytest.raises(DimensionMismatch):
        AnchorDataset(X=x, Y=y, A=np.arange(10.0).reshape(2, 5))
    assert issubclass(DimensionMismatch, ValueError)
    ds = AnchorDataset(X=x, Y=y, A=np.arange(5.0))
    assert ds.A.shape == (5, 1)
    assert np.array_equal(ds.A[:, 0], np.arange(5.0))


def test_level_partition_enforced():
    for codes in (
        np.array([0, 1]),  # row 2 in no level
        np.array([0, 1, 3]),  # a code past the labels
        np.array([0, -1, 1]),  # a negative code
        np.array([0.0, 1.0, 2.0]),  # not integer codes
    ):
        with pytest.raises(ValueError, match="one index into level_labels per row"):
            AnchorDataset(
                X=np.zeros((3, 1)),
                Y=np.zeros(3),
                A=np.zeros((3, 1)),
                level_codes=codes,
                level_labels=("a", "b", "c"),
            )
    # labels without codes group no rows
    with pytest.raises(ValueError, match="with level labels, needs level codes"):
        AnchorDataset(X=np.zeros((3, 1)), Y=np.zeros(3), A=np.zeros((3, 1)), level_labels=("a",))
    # two levels under one label would merge in anchor_levels alone
    with pytest.raises(ValueError, match="level labels must be distinct"):
        AnchorDataset(X=np.zeros((3, 1)), Y=np.zeros(3), level_codes=np.array([0, 1, 0]),
                      level_labels=("a", "a"))
    # a label with no rows holds an empty index set
    ds = AnchorDataset(X=np.zeros((3, 1)), Y=np.zeros(3), A=np.zeros((3, 1)),
                       level_codes=np.array([0, 1, 0]), level_labels=("a", "b", "c"))
    levels = center(ds).anchor_levels
    assert list(levels) == ["a", "b", "c"]
    assert [rows.tolist() for rows in levels.values()] == [[0, 2], [1], []]


@given(
    n=st.integers(min_value=0, max_value=60),
    n_labels=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_anchor_levels_match_per_label_scan(n, n_labels, seed):
    # codes drawn from fewer labels than there are leave some labels without rows
    rng = numkern.make_rng(seed)
    codes = rng.integers(0, int(rng.integers(1, n_labels + 1)), size=n)
    labels = tuple(f"L{j}" for j in rng.permutation(n_labels))
    ds = AnchorDataset(X=np.zeros((n, 1)), Y=np.zeros(n), level_codes=codes, level_labels=labels)
    want = oracles.level_rows(codes, labels)
    got = ds.anchor_levels
    assert list(got) == list(want)
    for label, rows in want.items():
        assert got[label].dtype == rows.dtype and got[label].shape == rows.shape
        assert got[label].tobytes() == rows.tobytes()


# --- the numpy reader against the per-cell parser ----------------------------

WHITESPACE = st.sampled_from(["", " ", "\t", " \t "])
FINITE_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(lambda v: f"{v:+d}"),
    st.builds(
        "{}{}e{}".format,
        st.sampled_from(["", "-", "+"]),
        st.sampled_from(["1", "2.5", ".5", "7."]),
        st.integers(-330, 330),
    ),
    st.just("-0"),
)
ODD_CELLS = st.sampled_from(
    ["nan", "inf", "-Infinity", "", "1_000", "١٢", '"1.5"', '"-2"', "x", "1.5.", " ", "1\x00"]
)
LABELS = st.sampled_from(["u", "v", " w", "w ", "", "1.5", "١", "a\tb"])
ODD_LABELS = st.sampled_from(['"a,b"', '"say ""x"""', 'a"b', "u\x00"])
HAZARDS = (
    "odd cell", "odd label", "ragged row", "blank line", "lone CR", "one column", "few rows",
    "dropped text", "spanning quote", "two categorical",
)


def _config(categorical=False, second=False, drop=False):
    """Response y, anchor a (and a categorical anchor b), text column t dropped."""
    anchors = [{"name": "a", "kind": "categorical" if categorical else "continuous"}]
    anchors += [{"name": "b", "kind": "categorical"}] if second else []
    return {"response": "y", "anchors": anchors, "drop_columns": ["t"] if drop else []}


@st.composite
def csv_files(draw):
    """(text, column config) of a small CSV of numbers with surrounding
    whitespace, LF or CRLF line ends and up to two hazards: an odd cell or
    label, a short or long row, a blank line (possibly last), CR line ends,
    a header of one column, fewer than two rows, a dropped text column, a
    quoted field that spans a line break while every physical line keeps
    the header's cell count, or a second categorical anchor."""
    hazards = draw(st.sets(st.sampled_from(HAZARDS), max_size=2))
    second, drop = "two categorical" in hazards, "dropped text" in hazards
    header = ["y"] if "one column" in hazards else (
        ["y", "x1", "x2", "a"] + ["b"] * second + ["t"] * drop
    )
    # an odd label or a spanning quote goes into the last column, which holds text
    text_last = bool(hazards & {"odd label", "spanning quote"})
    categorical = (text_last and header[-1] == "a") or draw(st.booleans())
    number = st.builds("{}{}{}".format, WHITESPACE, FINITE_TEXT, WHITESPACE)
    labelled = [column in "bt" or (column == "a" and categorical) for column in header]
    rows = [
        [draw(LABELS if label else number) for label in labelled]
        for _ in range(draw(st.integers(0, 1) if "few rows" in hazards else st.integers(2, 6)))
    ]
    if rows:
        i = draw(st.integers(0, len(rows) - 1))
        row = rows[i]
        if "odd cell" in hazards:
            numeric = [j for j, label in enumerate(labelled) if not label]
            row[draw(st.sampled_from(numeric))] = draw(ODD_CELLS)
        if "odd label" in hazards:
            row[-1] = draw(ODD_LABELS)
        if "spanning quote" in hazards and i + 1 < len(rows):
            row[-1], rows[i + 1][-1] = f'"{row[-1]}', f'{rows[i + 1][-1]}"'
        if "ragged row" in hazards:
            row[:] = row[:-1] if draw(st.booleans()) else row + [draw(number)]
    lines = [",".join(row) for row in rows]
    if lines and "blank line" in hazards:
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\r" if "lone CR" in hazards else draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(header), *lines]) + (end if draw(st.booleans()) else "")
    return text, _config(categorical, second, drop)


def _read_strict(path, config):
    """read_csv with the per-cell parser alone: the config is checked first."""
    datamodel._check_config(config)
    return datamodel._dataset(*datamodel._parse_strict(path, config))


def _read_outcome(read, path, config):
    """Every array and level of the result, or the error's class, location and message."""
    try:
        ds = read(path, config)
    except AnchorlabError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    arrays = [ds.X, ds.Y, ds.anchor_matrix()] + ([] if ds.level_codes is None else [ds.level_codes])
    levels = None if ds.anchor_levels is None else [
        (label, rows.tolist()) for label, rows in ds.anchor_levels.items()
    ]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], levels, ds.predictor_names


@given(csv_files())
# a file for each guard of the numpy reader, and a CR-only file and a NUL
# label, which it reads
@example(('y,x1,x2,a\n1,2,3,"say ""x"""\n2,3,4,u\n', _config(True)))
@example(('y,"x1",x2,a\n1,2,3,4\n2,3,4,5\n', _config()))
@example(("y,x1,x2,a\n1,2,3,u\x00\n2,3,4,u\n", _config(True)))
@example(("y,x1,x2,a\r1,2,3,4\r5,6,7,8\r", _config()))
@example(("y,x1,x2,a\n1,2,3,4,5\n2,3,4,5\n", _config()))
@example(("y\n1\n\n2\n", _config()))
@example(("y,x1,x2,a\n1,nan,3,4\n2,3,4,5\n", _config()))
@example(('y,x1,x2,a\n1,2,3,"u\n4,5,6,v"\n7,8,9,w\n', _config(True)))
@example(('y,x1,x2,a,t\n1,2,3,4,"u\n5,6,7,8,v"\n9,8,7,6,w\n', _config(drop=True)))
# one ragged row: reported as ragged, not as too few rows
@example(("y,x1,x2,a\n0.0,0.0,0.0,0.0,0.0", _config()))
# a header over blank lines only, on which loadtxt warns
@example(("y,x1,x2,a\n\n\n", _config()))
# one column named as two anchors, read both as numbers and as labels: the
# config is rejected before either parser reads the file
@example(("y,x1,x2,a\n1,2,3,10\n2,3,4,9\n3,4,5,9.0\n", {
    "response": "y", "anchors": [{"name": "a"}, {"name": "a", "kind": "categorical"}],
}))
@settings(max_examples=300, deadline=None)
def test_numpy_reader_matches_per_cell_parser(tmp_path_factory, drawn):
    text, config = drawn
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _read_outcome(read_csv, path, config) == _read_outcome(_read_strict, path, config)


PLAIN_CONFIGS = [_config(), _config(True), _config(True, second=True, drop=True)]


def _plain_file(path, end, config):
    """Three rows of plain cells under the columns `config` names."""
    columns = {
        "y": [" 1.5", "2", "-1"],
        "x1": ["-0 ", "+5e-324", "7"],
        "x2": ["\t3e2", "1e300", "0"],
        "a": ["0.5", "1e-3", "-2"],
        "b": ["p", "q", "q"],
        "t": ["id 1", "", "id\t3"],
    }
    if config["anchors"][0]["kind"] == "categorical":
        columns["a"] = ["u", " v", "u"]
    header = ["y", "x1", "x2", *(spec["name"] for spec in config["anchors"])]
    header += config["drop_columns"]
    rows = [",".join(columns[name][i] for name in header) for i in range(3)]
    path.write_bytes(end.join([",".join(header), *rows, ""]).encode("utf-8"))


def _assert_plain(path, config):
    # plain files never reach the per-cell parser, and give what it gives
    assert datamodel._parse_plain(path, config) is not None
    assert _read_outcome(read_csv, path, config) == _read_outcome(_read_strict, path, config)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("categorical", [False, True])
def test_numpy_reader_takes_plain_files(tmp_path, end, categorical):
    path = tmp_path / "plain.csv"
    _plain_file(path, end, _config(categorical))
    _assert_plain(path, _config(categorical))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_numpy_reader_takes_text_columns(tmp_path, end):
    # two categorical anchors and a dropped text column
    config = _config(True, second=True, drop=True)
    path = tmp_path / "plain.csv"
    _plain_file(path, end, config)
    _assert_plain(path, config)


@pytest.mark.parametrize("config", PLAIN_CONFIGS)
def test_plain_file_takes_one_loadtxt_pass(tmp_path, monkeypatch, config):
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    path = tmp_path / "plain.csv"
    _plain_file(path, "\n", config)
    ds = read_csv(path, config)
    assert len(calls) == 1
    assert ds.predictor_names == ("x1", "x2")


def _body(rows, end="\n"):
    """Rows of y, x1, x2 and a label a, the label holding the row's parity."""
    return [f"{i},{i * 0.5},{-i},{'uv'[i % 2]}{end}" for i in range(rows)]


# bytes of the file after its header: a body longer than the text layer's
# read chunk (8 KiB) is decoded, and fails to decode, inside loadtxt
STREAM_BODIES = {
    "bad byte in the last line only": "".join(_body(2000)).encode() + b"7,8,9,\xff\n",
    "blank lines only": b"\n\r\n\n",
    "blank line in the middle": "".join(_body(1000) + ["\n"] + _body(1000)).encode(),
    "lone CR line ends": "".join(_body(2000, "\r")).encode(),
    "quote in the last label only": "".join(_body(2000)).encode() + b'7,8,9,u"v\n',
}


@pytest.mark.parametrize("body", STREAM_BODIES)
def test_streamed_read_falls_back_as_per_cell_parser_reads(tmp_path, body):
    path = tmp_path / "stream.csv"
    path.write_bytes(b"y,x1,x2,a\n" + STREAM_BODIES[body])
    config = _config(categorical=True)
    # only a file with lone CR line ends is plain
    assert (datamodel._parse_plain(path, config) is None) == (body != "lone CR line ends")
    assert _read_outcome(read_csv, path, config) == _read_outcome(_read_strict, path, config)


def test_read_csv_peak_memory(tmp_path):
    # at its peak the reader holds loadtxt's table and the dataset built
    # from it; holding the file's lines as well came to 3.4 times the data
    n = 20_000
    rng = numkern.make_rng(3)
    ds = AnchorDataset(
        X=rng.standard_normal((n, 10)), Y=rng.standard_normal(n), A=rng.standard_normal((n, 10))
    )
    path = tmp_path / "dense.csv"
    write_csv(path, ds)
    config = {"response": "y", "anchors": [{"name": f"a{j + 1}"} for j in range(10)]}
    _, peak = oracles.traced_peak(lambda: read_csv(path, config))
    assert peak < 2.5 * 8 * n * 21


def test_gram_columns_peak_memory():
    # the thin SVD runs before [X Y] is copied, and the copy loses its
    # anchor part a block of rows at a time: beyond the dataset, the basis
    # and the copy, two blocks; the whole expansion at once came to 8 n (d+1)
    n, d, q = 50_000, 10, 10
    rng = numkern.make_rng(4)
    ds = center(AnchorDataset(
        X=rng.standard_normal((n, d)), Y=rng.standard_normal(n), A=rng.standard_normal((n, q))
    ))
    _, peak = oracles.traced_peak(lambda: ds.gram_columns)
    assert peak < 8 * (n * (q + d + 1) + 2 * numkern.SPLIT_BLOCK_ROWS * (d + 1))


def test_non_utf8_byte_located(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"y,x1,a\n1,2,3\n2,\xff3,4\n3,4,5\n")
    with pytest.raises(ParseError, match=r"^byte 0xff at offset 15 \(row 2\) is not valid UTF-8$") as err:
        read_csv(path, _config())
    assert err.value.row == 2


@pytest.mark.parametrize("config, message", [
    ([1, 2], "must be a JSON object"),
    ({"anchors": [{"name": "a"}]}, "'response'"),
    ({"response": ["y"], "anchors": [{"name": "a"}]}, "'response'"),
    ({"response": "y", "anchors": ["a"]}, "'anchors' must be a list of objects"),
    ({"response": "y", "anchors": {"name": "a"}}, "'anchors' must be a list of objects"),
    ({"response": "y", "anchors": [{"kind": "continuous"}]}, "'anchors' must be a list"),
    ({"response": "y", "anchors": [{"name": "a"}], "drop_columns": 5}, "'drop_columns'"),
    ({"response": "y", "anchors": [{"name": "a"}], "drop_columns": [5]}, "'drop_columns'"),
    ({"response": "y", "anchors": [{"name": "a", "kind": "categorial"}]}, "kind 'categorial'"),
])
def test_malformed_config_rejected_before_reading(tmp_path, config, message):
    # the file does not exist: the config is checked first
    with pytest.raises(InvalidConfig, match=message):
        read_csv(tmp_path / "absent.csv", config)


def _csv_writer_reference(ds, anchor_labels=None) -> bytes:
    """write_csv as csv.writer writes it, one formatted cell at a time."""
    out = io.StringIO()
    writer = csv.writer(out)
    labelled = anchor_labels is not None
    writer.writerow(
        ["y", *ds.predictor_names, *(["env"] if labelled else [f"a{j + 1}" for j in range(ds.q)])]
    )
    for i in range(ds.n):
        row = [FLOAT_FORMAT % ds.Y[i], *(FLOAT_FORMAT % v for v in ds.X[i])]
        row += [str(anchor_labels[i])] if labelled else [FLOAT_FORMAT % v for v in ds.A[i]]
        writer.writerow(row)
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("labelled", [False, True])
def test_write_csv_matches_csv_writer(tmp_path, labelled):
    # more rows than one write block, so a quoted label falls on each side of a block edge
    rng = numkern.make_rng(5)
    n = datamodel.WRITE_BLOCK_ROWS + 7
    X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-300, 300, (n, 3))
    X[:4] = [[-0.0, 5e-324, 1e300], [3.0, -42.0, 1e16], [0.1, 2.0**-1074, -1e-300], [7, 0, 1]]
    ds = AnchorDataset(X=X, Y=rng.standard_normal(n), A=rng.standard_normal((n, 2)))
    labels = None
    if labelled:
        labels = np.array(["a,b", 'say "x"', "plain", "", " pad "], dtype=object)[
            rng.integers(0, 5, n)
        ]
        labels[datamodel.WRITE_BLOCK_ROWS - 1 : datamodel.WRITE_BLOCK_ROWS + 1] = "a,b"
    path = tmp_path / "w.csv"
    write_csv(path, ds, anchor_labels=labels)
    assert path.read_bytes() == _csv_writer_reference(ds, labels)


def _indicator(labels) -> np.ndarray:
    """The n x L 0/1 block of per-row labels, a column per sorted label: the
    anchor block a lone categorical anchor was once held as."""
    labels = np.asarray(labels, dtype=str)
    return (labels[:, None] == np.array(sorted(set(labels)))[None, :]).astype(float)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestLevelCodedAnchors:
    """A lone categorical anchor is held as level codes, with no A; the block
    is built on request, bitwise the block once held."""

    CONFIG = {"response": "y", "anchors": [{"name": "env", "kind": "categorical"}]}

    def _datasets(self, tmp_path, n=101):
        rng = numkern.make_rng(11)
        labels = rng.choice(["u", "v", "w", "x,y"], size=n)
        x, y = rng.standard_normal((n, 2)), rng.standard_normal(n)
        path = tmp_path / "levels.csv"
        write_csv(path, from_levels(x, y, labels), anchor_labels=labels)
        return labels, [from_levels(x, y, labels), read_csv(path, self.CONFIG)]

    def test_anchor_matrix_is_the_indicator_block(self, tmp_path):
        labels, datasets = self._datasets(tmp_path)
        block = _indicator(labels)
        for ds in datasets:
            assert ds.A is None and ds.q == block.shape[1]
            assert _same_bits(ds.anchor_matrix(), block)
            centred = center(ds)
            assert centred.A is None
            assert _same_bits(centred.anchor_matrix(), block - block.mean(axis=0))

    def test_write_csv_without_labels_writes_the_block(self, tmp_path):
        labels, datasets = self._datasets(tmp_path)
        block = _indicator(labels)
        path = tmp_path / "out.csv"
        for ds in datasets:
            for shown, held in ((ds, block), (center(ds), block - block.mean(axis=0))):
                write_csv(path, shown)
                reference = AnchorDataset(X=shown.X, Y=shown.Y, A=held)
                assert path.read_bytes() == _csv_writer_reference(reference)

    def test_write_csv_without_labels_builds_no_whole_block(self, tmp_path, monkeypatch):
        # blocks of 64 rows against 2 000 rows in 200 levels: the writer
        # holds one block, as floats, lists and text, never the whole
        # n * L indicator block
        monkeypatch.setattr(datamodel, "WRITE_BLOCK_ROWS", 64)
        n, levels = 2_000, 200
        rng = numkern.make_rng(12)
        labels = rng.integers(0, levels, n).astype(str)
        ds = from_levels(rng.standard_normal((n, 3)), rng.standard_normal(n), labels)
        block_bytes = n * levels * 8
        for shown in (ds, center(ds)):
            _, peak = oracles.traced_peak(lambda: write_csv(tmp_path / "wide-levels.csv", shown))
            assert peak < block_bytes / 2

    def test_centred_read_allocates_no_block(self, tmp_path):
        # 20 000 rows in 400 levels: the block alone would be n * L * 8 = 64 MB
        n, levels = 20_000, 400
        rng = numkern.make_rng(12)
        labels = rng.integers(0, levels, n).astype(str)
        path = tmp_path / "wide-levels.csv"
        write_csv(path, from_levels(rng.standard_normal((n, 3)), rng.standard_normal(n), labels),
                  anchor_labels=labels)

        def read_centred():
            ds = center(read_csv(path, self.CONFIG))
            ds.moments
            return ds

        ds, peak = oracles.traced_peak(read_centred)
        block_bytes = n * levels * 8
        assert ds.q == levels
        assert peak < block_bytes / 8
