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
    MissingColumn,
    ParseError,
)

import oracles


def _encode(labels):
    """The dummy block and the sorted levels that `from_levels` builds."""
    ds = from_levels(np.zeros((len(labels), 1)), np.zeros(len(labels)), labels)
    return ds.A, tuple(ds.anchor_levels)


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
        assert np.array_equal(ds.A[np.arange(ds.n), ds.level_codes], np.ones(ds.n))
        assert np.array_equal(ds.A.sum(axis=1), np.ones(ds.n))

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
        assert np.array_equal(back.A, ds.A)


class TestPipelineIdentity:
    def test_projection_equals_group_mean_deviation(self):
        # dummy-encode, center everything, then project: the result must be
        # the per-level mean of Y minus the grand mean, broadcast within level
        rng = numkern.make_rng(4)
        labels = rng.choice(["p", "q", "r"], size=120)
        y = rng.standard_normal(120)
        ds = center(from_levels(rng.standard_normal((120, 1)), y, labels))
        proj = numkern.AnchorProjection(ds.A).project(ds.Y)
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
    for levels in (
        {"a": np.array([0, 1])},  # row 2 in no level
        {"a": [0, 1], "b": [7]},  # a row outside range(n)
        {"a": [0, 2], "b": [-1]},  # row 2 twice, row 1 never
        {"a": [0.0, 1.0], "b": [2.0]},  # not integer indices
    ):
        with pytest.raises(ValueError, match="must partition the rows"):
            AnchorDataset(
                X=np.zeros((3, 1)),
                Y=np.zeros(3),
                A=np.zeros((3, 1)),
                anchor_levels=levels,
            )
    # an empty level set holds no row
    ds = AnchorDataset(X=np.zeros((3, 1)), Y=np.zeros(3), A=np.zeros((3, 1)),
                       anchor_levels={"a": [2, 0], "b": [1], "c": []})
    assert center(ds).anchor_levels is ds.anchor_levels


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
    "odd cell", "odd label", "ragged row", "blank line", "lone CR", "one column", "few rows"
)


@st.composite
def csv_files(draw):
    """(text, categorical?) of a small CSV of numbers with surrounding
    whitespace, LF or CRLF line ends and up to two hazards: an odd cell or
    label, a short or long row, a blank line (possibly last), CR line ends,
    a header of one column or fewer than two rows."""
    hazards = draw(st.sets(st.sampled_from(HAZARDS), max_size=2))
    header = ["y"] if "one column" in hazards else ["y", "x1", "x2", "a"]
    categorical = "odd label" in hazards or draw(st.booleans())
    number = st.builds("{}{}{}".format, WHITESPACE, FINITE_TEXT, WHITESPACE)
    labelled = [column == "a" and categorical for column in header]
    rows = [
        [draw(LABELS if label else number) for label in labelled]
        for _ in range(draw(st.integers(0, 1) if "few rows" in hazards else st.integers(2, 6)))
    ]
    if rows:
        row = draw(st.sampled_from(rows))
        if "odd cell" in hazards:
            numeric = [j for j, label in enumerate(labelled) if not label]
            row[draw(st.sampled_from(numeric))] = draw(ODD_CELLS)
        if "odd label" in hazards:
            row[-1] = draw(ODD_LABELS)
        if "ragged row" in hazards:
            row[:] = row[:-1] if draw(st.booleans()) else row + [draw(number)]
    lines = [",".join(row) for row in rows]
    if lines and "blank line" in hazards:
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\r" if "lone CR" in hazards else draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(header), *lines]) + (end if draw(st.booleans()) else "")
    return text, categorical


def _read_strict(path, config):
    return datamodel._dataset(*datamodel._parse_strict(path, config))


def _read_outcome(read, path, config):
    """Every array and level of the result, or the error's class, location and message."""
    try:
        ds = read(path, config)
    except AnchorlabError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)
    arrays = [ds.X, ds.Y, ds.A] + ([] if ds.level_codes is None else [ds.level_codes])
    levels = None if ds.anchor_levels is None else [
        (label, rows.tolist()) for label, rows in ds.anchor_levels.items()
    ]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays], levels, ds.predictor_names


@given(csv_files())
# a file for each guard of the numpy reader, and a CR-only file, which it reads
@example(('y,x1,x2,a\n1,2,3,"say ""x"""\n2,3,4,u\n', True))
@example(("y,x1,x2,a\n1,2,3,u\x00\n2,3,4,u\n", True))
@example(("y,x1,x2,a\r1,2,3,4\r5,6,7,8\r", False))
@example(("y,x1,x2,a\n1,2,3,4,5\n2,3,4,5\n", False))
@example(("y\n1\n\n2\n", False))
@example(("y,x1,x2,a\n1,nan,3,4\n2,3,4,5\n", False))
@settings(max_examples=300, deadline=None)
def test_numpy_reader_matches_per_cell_parser(tmp_path_factory, drawn):
    text, categorical = drawn
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    kind = "categorical" if categorical else "continuous"
    config = {"response": "y", "anchors": [{"name": "a", "kind": kind}]}
    assert _read_outcome(read_csv, path, config) == _read_outcome(_read_strict, path, config)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("categorical", [False, True])
def test_numpy_reader_takes_plain_files(tmp_path, end, categorical):
    # plain files never reach the per-cell parser, and give what it gives
    anchor = ["u", " v", "u"] if categorical else ["0.5", "1e-3", "-2"]
    rows = [f" 1.5,-0 ,\t3e2,{anchor[0]}", f"2,+5e-324,1e300,{anchor[1]}", f"-1,7,0,{anchor[2]}"]
    path = tmp_path / "plain.csv"
    path.write_bytes(end.join(["y,x1,x2,a", *rows, ""]).encode("utf-8"))
    kind = "categorical" if categorical else "continuous"
    config = {"response": "y", "anchors": [{"name": "a", "kind": kind}]}
    assert datamodel._parse_plain(path, config) is not None
    assert _read_outcome(read_csv, path, config) == _read_outcome(_read_strict, path, config)


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
