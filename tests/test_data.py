"""CSV ingestion and the writer that feeds it."""
from __future__ import annotations

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from explainleak import Dataset, SynthConfig, data, generate_synthetic
from explainleak.data import _load_columns, load_csv_dataset, write_csv_dataset

from conftest import assert_no_child, use_cpus


def test_csv_round_trip_is_exact(tmp_path):
    # Float64 features of every magnitude, including ones whose numpy repr
    # is not a plain float literal under numpy 2.
    rng = np.random.default_rng(3)
    features = rng.normal(size=(6, 4)) * np.array([1e-300, 1e-3, 1.0, 1e300])
    features[0, 0] = 0.1
    features[1, 1] = -0.0
    original = Dataset(features, np.array([0, 1, 2, 0, 1, 2]), groups=list("abcabc"))
    path = tmp_path / "data.csv"
    write_csv_dataset(path, original)
    loaded = load_csv_dataset(path, "label", "group")
    np.testing.assert_array_equal(loaded.features, original.features)
    assert loaded.features.tobytes() == original.features.tobytes()
    np.testing.assert_array_equal(loaded.labels, original.labels)
    assert loaded.groups == original.groups


def test_cells_are_plain_float_literals(tmp_path):
    dataset = generate_synthetic(SynthConfig(n_features=3, n_samples=10, seed=4))
    path = tmp_path / "synth.csv"
    write_csv_dataset(path, dataset)
    first_row = path.read_text().splitlines()[1].split(",")
    assert first_row[0] == repr(float(dataset.features[0, 0]))
    assert not any("np." in cell for cell in first_row)


@pytest.mark.parametrize(
    "cell, row, column", [("nan", 4, "x1"), ("inf", 7, "x0"), ("-Infinity", 41, "x1")]
)
def test_non_finite_cell_names_row_and_column(tmp_path, cell, row, column):
    lines = ["x0,x1,label"] + [f"{i}.0,{-i}.5,{i % 2}" for i in range(40)]
    x0, x1, label = lines[row - 1].split(",")
    lines[row - 1] = ",".join([cell if column == "x0" else x0, cell if column == "x1" else x1, label])
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"row {row}, column '{column}': non-finite value"):
        load_csv_dataset(path, "label")


def row_loop(path, label_column, group_column=None) -> Dataset:
    """The per-cell Python parser that `load_csv_dataset` used before numpy's
    C parser took plain files, with labels outside int64 and a file without a
    feature column named as errors."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        label_idx = header.index(label_column)
        group_idx = header.index(group_column) if group_column is not None else None
        feature_idx = [i for i in range(len(header)) if i not in (label_idx, group_idx)]
        if not feature_idx:
            raise ValueError(f"{path}: no feature column besides the label and group columns")
        rows, labels, groups = [], [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_no} has {len(row)} cells, header has {len(header)}"
                )
            feats = []
            for i in feature_idx:
                try:
                    feats.append(float(row[i]))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {row_no}, column {header[i]!r}: "
                        f"non-numeric value {row[i]!r}"
                    ) from None
            try:
                label = int(row[label_idx])
            except ValueError:
                label = None
            if label is None or not -(2**63) <= label < 2**63:
                raise ValueError(
                    f"{path}: row {row_no}, column {label_column!r}: "
                    f"label {row[label_idx]!r} is not a 64-bit integer"
                )
            rows.append(feats)
            labels.append(label)
            if group_idx is not None:
                groups.append(row[group_idx])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if len(bad):
        row, col = bad[0]
        raise ValueError(
            f"{path}: row {row + 2}, column {header[feature_idx[col]]!r}: "
            f"non-finite value {float(features[row, col])!r}"
        )
    return Dataset(features, np.array(labels, dtype=np.int64), groups if group_column else None)


def _outcome(loader, path, group_column):
    try:
        dataset = loader(path, "label", group_column)
    except ValueError as exc:
        return str(exc)
    features, labels = dataset.features, dataset.labels
    return features.shape, features.tobytes(), labels.dtype, labels.tobytes(), dataset.groups


# Cells both parsers read alike, and cells where float()/int() and a naive
# numpy parse would disagree.
PLAIN_FEATURES = [
    "0", "-2.5", "0.1", "1e-300", "+1", " 1.5", "1.5 ", "\xa01", "\t2", "1.", "1e999", "nan",
    "-inf", "Infinity",
]
PLAIN_LABELS = ["0", "1", "2", "+1", " 1", "007", "9223372036854775807", "-1"]
ODD_FEATURES = ["1_000", "\u0661", "", " ", "1#x", "#3", "0x10", '"1.5"', '"1,5"', "1\x00"]
ODD_LABELS = [
    "1.0", "1_0", "\u0661", "2#x", "99999999999999999999", "-9223372036854775809", '"1"', "", "nan",
]
# Whole data lines: blank, whitespace-only, commented out, a quoted cell.
ODD_LINES = ["", "   ", "#", '"1,5",0']


@st.composite
def csv_texts(draw):
    """A plain headered table, then up to three odd cells, rows or lines."""
    n_features = draw(st.integers(0, 3))
    names = [f"f{i}" for i in range(n_features)]
    names.insert(draw(st.integers(0, n_features)), "label")
    with_group = draw(st.booleans())
    if with_group:
        names.insert(draw(st.integers(0, len(names))), "group")
    pools = {"label": PLAIN_LABELS, "group": ["a", "b c", "", "\xe9", " b"]}
    rows = [
        [draw(st.sampled_from(pools.get(name, PLAIN_FEATURES))) for name in names]
        for _ in range(draw(st.integers(0, 4)))
    ]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        r = draw(st.integers(0, len(rows) - 1))
        c = draw(st.integers(0, len(names) - 1))
        kind = draw(st.sampled_from(["cell", "short", "long", "line", "comment"]))
        if kind == "cell" and c < len(rows[r]):
            odd = ODD_LABELS if names[c] == "label" else ODD_FEATURES
            rows[r][c] = draw(st.sampled_from(odd))
        elif kind in ("short", "long"):
            rows[r] = rows[r][:-1] if kind == "short" else rows[r] + ["0"]
        lines[r] = ",".join(rows[r])
        if kind == "line":
            lines[r] = draw(st.sampled_from(ODD_LINES))
        elif kind == "comment":
            lines[r] = "#" + lines[r]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([",".join(names)] + lines) + draw(st.sampled_from([end, ""])), with_group


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_loader_agrees_with_row_loop(tmp_path_factory, drawn):
    """Whatever numpy's C parser accepts comes out bit-identical to the row
    loop; whatever the row loop rejects fails with the row loop's message. At
    2 CPUs the file is parsed in 2 forked shares, one of them empty for a
    one-row file; CRLF, lone-CR and unterminated files are drawn too."""
    text, with_group = drawn
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    group_column = "group" if with_group else None
    expected = _outcome(row_loop, path, group_column)
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_cpus(monkeypatch, cpus)
            assert _outcome(load_csv_dataset, path, group_column) == expected, cpus
        assert_no_child()


def _shares_agree(path):
    """The (features, labels) parsed at 1 CPU, after checking that 2 forked shares
    parse the same bytes, dtypes and shapes."""
    loaded = {}
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as monkeypatch:
            use_cpus(monkeypatch, cpus)
            dataset = load_csv_dataset(path, "label")
        assert_no_child()
        loaded[cpus] = dataset.features, dataset.labels
    for one, two in zip(loaded[1], loaded[2]):
        assert one.dtype == two.dtype and one.shape == two.shape
        assert one.tobytes() == two.tobytes()
    return loaded[1]


def test_a_multi_mib_file_parses_alike_in_shares(tmp_path):
    # 3 MiB: the newline count reads several chunks, and each share many lines.
    rng = np.random.default_rng(11)
    features = rng.normal(size=(2501, 64)) * 10.0 ** rng.integers(-300, 300, size=(2501, 64))
    labels = rng.integers(0, 5, size=2501)
    path = tmp_path / "big.csv"
    with open(path, "w", newline="") as handle:
        handle.write(",".join([f"f{i}" for i in range(64)] + ["label"]) + "\r\n")
        handle.writelines(",".join(map(repr, row)) + f",{label}\r\n"
                          for row, label in zip(features.tolist(), labels.tolist()))
    assert path.stat().st_size > 3 * 2**20
    got_features, got_labels = _shares_agree(path)
    assert got_features.tobytes() == features.tobytes() and got_features.flags.c_contiguous
    assert got_labels.dtype == np.int64 and got_labels.tolist() == labels.tolist()


@pytest.mark.parametrize("line, message", [
    ("7.0,8.0", r"row 5 has 2 cells, header has 3"),
    ('"7.0",8.0,1', None),  # a quote goes to the row loop, which reads it
    ("7.0,x,1", r"row 5, column 'b': non-numeric value 'x'"),
    ("7.0,8.0,1.5", r"row 5, column 'label': label '1.5' is not a 64-bit integer"),
])
def test_a_line_only_the_last_share_reads_gets_the_row_loops_verdict(tmp_path, monkeypatch,
                                                                     line, message):
    # Data rows 0-4 over 2 shares: share 1, the last, reads rows 1 and 3 (file row 5).
    rows = ["1.0,2.0,0", "3.0,4.0,1", "5.0,6.0,0", line, "9.0,1.0,1"]
    path = tmp_path / "odd.csv"
    path.write_text("a,b,label\n" + "\n".join(rows) + "\n")
    use_cpus(monkeypatch, 2)
    if message is None:
        assert load_csv_dataset(path, "label").features[3].tolist() == [7.0, 8.0]
    else:
        with pytest.raises(ValueError, match=message):
            load_csv_dataset(path, "label")
    assert_no_child()


def test_a_one_row_file_leaves_a_share_empty_without_a_warning(tmp_path, monkeypatch):
    path = tmp_path / "one.csv"
    path.write_text("a,label\n1.5,1\n")
    use_cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inherited by the forked shares
        dataset = load_csv_dataset(path, "label")
    assert_no_child()
    assert dataset.features.tolist() == [[1.5]] and dataset.labels.tolist() == [1]


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_c_parser_takes_plain_files(tmp_path, end):
    """A plain file, then the same file with a group column first, in the middle and last:
    group cells come back as the csv module reads them, spaces and empty cells kept."""
    table = [["a", "label", "b"], ["+1", " 0 ", "1e-300"], [" 1.5", "007", "-0.0"],
             ["2", "1", "nan"]]
    expected = np.array([[1.0, 1e-300], [1.5, -0.0], [2.0, np.nan]])
    for at in (None, 0, 2, 3):
        rows = [list(row) for row in table]
        if at is not None:
            for row, cell in zip(rows, ["g", " b c", "", "\xe9"]):
                row.insert(at, cell)
        path = tmp_path / f"plain-{at}.csv"
        path.write_bytes(end.join(map(",".join, rows)).encode())
        header = rows[0]
        columns = _load_columns(path, len(header), [header.index("a"), header.index("b")],
                                header.index("label"), at)
        assert columns is not None, at
        features, labels, groups = columns
        assert features.tobytes() == expected.tobytes()
        assert labels.dtype == np.int64 and labels.tolist() == [0, 7, 1]
        assert groups == (None if at is None else [" b c", "", "\xe9"])


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_plain_grouped_file_never_enters_the_row_loop(tmp_path, monkeypatch, cpus):
    """A grouped file the C parser takes gives the row loop's features, labels and groups
    without entering it; a quoted group cell still goes to the row loop, which reads it."""
    use_cpus(monkeypatch, cpus)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    rows = ["1.5, b c,0", "-2,,1", "0.25,\xe9,1", "3,a,0", "1e-3, b c,2"]
    plain.write_bytes("f0,group,label\n".encode() + "\r\n".join(rows).encode())
    quoted.write_bytes('f0,group,label\n1.5,"b,c",0\n-2,,1\n'.encode())
    expected = {path: _outcome(row_loop, path, "group") for path in (plain, quoted)}
    real, entered = data._read_rows, []

    def read_rows(path, *args):
        if path == plain:
            raise AssertionError(f"{path} reached the row loop")
        entered.append(path)
        return real(path, *args)

    monkeypatch.setattr(data, "_read_rows", read_rows)
    for path in (plain, quoted):
        assert _outcome(load_csv_dataset, path, "group") == expected[path]
        assert_no_child()
    assert entered == [quoted] and expected[quoted][-1] == ["b,c", ""]


@pytest.mark.parametrize(
    "body",
    [
        "1,2\n3\n",  # ragged: usecols would skip the cell-count check
        "1,2\n\n3,4\n",  # blank line
        "1,2\n  \n3,4\n",  # whitespace-only line
        "1,2#x\n",  # comment marker
        '"1,5",2\n',  # quoted cell holding the delimiter
        "1_000,2\n",
        "\u0661,2\n",
        "1,1.0\n",
        "1,99999999999999999999\n",
        "",  # no data rows
    ],
)
def test_c_parser_leaves_hazards_to_row_loop(tmp_path, body):
    path = tmp_path / "odd.csv"
    path.write_text("a,label\n" + body)
    assert _load_columns(path, 2, [0], 1) is None


def test_duplicate_header_name_is_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("a,b,label,label\n1,2,0,0\n")
    with pytest.raises(ValueError, match="column 'label' appears more than once"):
        load_csv_dataset(path, "label")


@pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809"])
def test_label_outside_int64_names_row_and_column(tmp_path, label):
    path = tmp_path / "big.csv"
    path.write_text(f"x,label\n1.0,0\n2.0,{label}\n")
    with pytest.raises(ValueError, match=rf"row 3, column 'label': label '{label}' is not a 64-bit"):
        load_csv_dataset(path, "label")


@pytest.mark.parametrize("text, group_column", [("label\n0\n1\n0\n1\n", None),
                                                ("label,g\n0,a\n1,b\n", "g")])
def test_file_without_a_feature_column_is_rejected(tmp_path, text, group_column):
    # Such a file once loaded as an n x 0 matrix and failed later, deep in numpy.
    path = tmp_path / "labels_only.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="no feature column") as excinfo:
        load_csv_dataset(path, "label", group_column)
    assert str(excinfo.value).startswith(f"{path}: ")
