"""CSV ingestion, deterministic path serialization, JSON summaries."""

import csv

import numpy as np
import pytest

from larspath.core import VARIANTS, _record_path, fit_path
from larspath.dataio import (
    FIXED_COLUMNS,
    json_summary,
    read_csv,
    write_path_csv,
)
from larspath.datasets import load_diabetes, verify_checksum
from larspath.errors import (
    EmptyData,
    MissingResponse,
    NonNumericCell,
    ParseError,
)
from larspath.preprocess import from_unit_columns, standardize, to_original_units

LABELS = ["AGE", "SEX", "BMI", "BP", "S1", "S2", "S3", "S4", "S5", "S6"]


def test_bundled_data_shape_and_checksum():
    matrix, response, labels = load_diabetes()
    assert matrix.shape == (442, 10)
    assert response.shape == (442,)
    assert labels == LABELS
    assert verify_checksum()


def test_read_csv_drops_response_and_keeps_order(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,y,b\n1,10,2\n3,20,4\n")
    matrix, response, labels = read_csv(f, "y")
    assert labels == ["a", "b"]
    assert matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert response.tolist() == [10.0, 20.0]


def test_read_csv_ignores_blank_lines(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,y\n\n1,10\n   ,\n2,20\n\n")
    matrix, response, _ = read_csv(f, "y")
    assert matrix.tolist() == [[1.0], [2.0]]
    assert response.tolist() == [10.0, 20.0]


def test_read_csv_empty_and_header_only(tmp_path):
    f = tmp_path / "e.csv"
    f.write_text("")
    with pytest.raises(EmptyData):
        read_csv(f, "y")
    f.write_text("a,b,y\n")
    with pytest.raises(EmptyData):
        read_csv(f, "y")


def test_read_csv_missing_response(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(MissingResponse):
        read_csv(f, "y")


def test_read_csv_non_numeric_cell_names_the_spot(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b,y\n1,2,3\n4,5,6\n7,oops,9\n")
    with pytest.raises(NonNumericCell) as exc:
        read_csv(f, "y")
    assert exc.value.row == 3
    assert exc.value.column_name == "b"


def test_read_csv_ragged_row(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b,y\n1,2,3\n4,5\n")
    with pytest.raises(ParseError) as exc:
        read_csv(f, "y")
    assert exc.value.line == 3
    assert exc.value.column == 2


def test_read_csv_ignores_a_byte_order_mark(tmp_path):
    f = tmp_path / "t.csv"
    f.write_bytes(b"\xef\xbb\xbfy,a\r\n10,1\r\n20,2\r\n")
    matrix, response, labels = read_csv(f, "y")
    assert labels == ["a"]
    assert response.tolist() == [10.0, 20.0]
    assert matrix.tolist() == [[1.0], [2.0]]


def test_read_csv_refuses_repeated_column_names(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,y,y\n1,2,3\n4,5,7\n")
    with pytest.raises(ParseError, match="'y'") as exc:
        read_csv(f, "y")
    assert exc.value.line == 1 and exc.value.column == 3
    f.write_text("\nb,a,y, b\n1,2,3,4\n")
    with pytest.raises(ParseError, match="'b'") as exc:
        read_csv(f, "y")
    assert exc.value.line == 2 and exc.value.column == 4


@pytest.mark.parametrize("header", ["a,,c,y", "a, ,c,y"])
def test_read_csv_refuses_an_empty_column_name(tmp_path, header):
    f = tmp_path / "t.csv"
    f.write_text(f"\n{header}\n1,2,3,4\n5,6,7,9\n")
    with pytest.raises(ParseError, match="empty") as exc:
        read_csv(f, "y")
    assert exc.value.line == 2 and exc.value.column == 2


def test_read_csv_refuses_a_cell_that_is_not_utf8(tmp_path):
    f = tmp_path / "t.csv"
    f.write_bytes(b"\xef\xbb\xbfa,y\n1,2\n3,\xff4\n")
    with pytest.raises(NonNumericCell) as exc:
        read_csv(f, "y")
    assert exc.value.row == 2 and exc.value.column_name == "y"


def test_read_csv_refuses_a_field_over_the_csv_size_limit(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a," + "y" * (csv.field_size_limit() + 1) + "\n1,2\n")
    with pytest.raises(ParseError) as exc:
        read_csv(f, "y")
    assert exc.value.line == 1


def _float_table(path):
    """Reference reader: csv tokens, blank rows skipped, ``float`` per cell."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if any(tok.strip() for tok in r)]
    return np.array([[float(tok) for tok in r] for r in rows[1:]])


def test_read_csv_is_bit_equal_to_float_per_cell(tmp_path):
    rng = np.random.default_rng(20)
    values = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-300, 300, (40, 5))
    values[0] = [-0.0, 5e-324, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.0]
    values[1, :3] = [2.2250738585072014e-308, -5e-324, 0.1]
    cells = [[format(v, ".17g") for v in row] for row in values]
    cells[2][0] = '"%s"' % cells[2][0]
    cells[3][1] = "  %s " % cells[3][1]
    cells[4][2] = '" %s"' % cells[4][2]
    cells[5][3] = "1E+02"
    cells[6][4] = "-.5"
    lines = ["a,b,c,y,d"]
    for i, row in enumerate(cells):
        lines.append(",".join(row))
        if i % 7 == 3:
            lines.append("")
        if i % 11 == 5:
            lines.append(" \t, ,  ,,")
    f = tmp_path / "t.csv"
    f.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    matrix, response, labels = read_csv(f, "y")
    assert labels == ["a", "b", "c", "d"]
    expected = _float_table(f)
    assert np.array_equal(expected[0], values[0])
    table = np.column_stack([matrix[:, :3], response, matrix[:, 3]])
    assert table.tobytes() == expected.tobytes()  # the sign of zero too


def test_read_csv_errors_count_past_blank_rows(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("a,b,y\n1,2,3\n\n  ,\n4,5,6\n7,oops,9\n")
    with pytest.raises(NonNumericCell) as exc:
        read_csv(f, "y")
    assert exc.value.row == 3 and exc.value.column_name == "b"
    f.write_text("a,b,y\n1,2,3\n\n  ,\n4,5\n")
    with pytest.raises(ParseError) as exc:
        read_csv(f, "y")
    assert exc.value.line == 5 and exc.value.column == 2


def test_read_csv_applies_numpys_cell_rule(tmp_path):
    """``float`` takes digit-group underscores and non-ASCII digits; the
    bulk parser does not, and the refusal names the cell."""
    f = tmp_path / "t.csv"
    for bad in ("1_000", "\u0661"):
        assert float(bad) > 0
        f.write_text(f"a,b,y\n1,2,3\n4,{bad},6\n", encoding="utf-8")
        with pytest.raises(NonNumericCell) as exc:
            read_csv(f, "y")
        assert exc.value.row == 2 and exc.value.column_name == "b"


def test_path_csv_layout(diabetes_paths):
    text = write_path_csv(diabetes_paths["lars"])
    lines = text.splitlines()
    assert len(lines) == 12  # header + starting vertex + ten moves
    header = lines[0].split(",")
    assert tuple(header[:8]) == FIXED_COLUMNS
    assert header[8:] == LABELS
    first = lines[1].split(",")
    assert first[:4] == ["0", "", "", ""]
    step1 = lines[2].split(",")
    assert step1[1] == "ADD" and step1[2] == "BMI" and step1[3] == "1"


def test_path_csv_of_an_immediately_saturated_fit():
    d = from_unit_columns(np.eye(3), np.zeros(3))
    path = fit_path(d)
    text = write_path_csv(path)
    assert len(text.splitlines()) == 2


def _parse_report(text):
    """The report read back with :mod:`csv` and ``float``: the header, the
    fixed cells of each row, and the coefficients as an array."""
    header, *rows = csv.reader(text.splitlines())
    width = len(FIXED_COLUMNS)
    fixed = [row[:4] + [float(x) for x in row[4:width]] for row in rows]
    coefs = np.array([[float(x) for x in row[width:]] for row in rows])
    return header, fixed, coefs


def test_serialization_round_trips_byte_for_byte(diabetes_paths):
    for variant in ("lars", "lasso", "stagewise"):
        text = write_path_csv(diabetes_paths[variant])
        header, fixed, coefs = _parse_report(text)
        lines = [",".join(header)]
        for cells, coef in zip(fixed, coefs):
            lines.append(",".join(cells[:4] + [format(x, ".17g")
                                               for x in (*cells[4:], *coef)]))
        assert "\n".join(lines) + "\n" == text


def test_seventeen_digit_floats_survive_the_round_trip(diabetes_paths):
    path = diabetes_paths["lasso"]
    scales = {False: path.design.column_scales, True: 1.0}
    for standardized, scale in scales.items():
        text = write_path_csv(path, standardized=standardized)
        header, fixed, coefs = _parse_report(text)
        assert header[4:8] == ["gamma", "C_max", "T", "rss"]
        assert len(fixed) == len(path.steps)
        for cells, step in zip(fixed, path.steps):
            assert cells[4] == step.gamma
            assert cells[5] == step.C_max
            assert cells[6] == step.T
            assert cells[7] == step.rss
        assert np.array_equal(coefs, path.betas / scale)


def test_records_report_original_units_by_default(design, diabetes_paths):
    path = diabetes_paths["lars"]
    header, fixed, coefs = _parse_report(write_path_csv(path))
    assert header[len(FIXED_COLUMNS):] == LABELS
    beta_orig, _ = to_original_units(design, path.steps[-1].beta)
    assert np.array_equal(coefs[-1], beta_orig)
    _, std_fixed, std_coefs = _parse_report(write_path_csv(path, standardized=True))
    assert np.array_equal(std_coefs[-1], path.steps[-1].beta)
    # T is the unit-norm budget in both unit modes
    assert [c[6] for c in fixed] == [c[6] for c in std_fixed]
    assert fixed[-1][6] == path.t_max
    # unit-norm columns carry much smaller per-unit coefficients after
    # rescaling back to the raw measurement units
    assert np.abs(std_coefs[-1]).sum() > np.abs(coefs[-1]).sum()


def test_json_summary_contents(diabetes_paths):
    s = json_summary(diabetes_paths["lasso"])
    assert s["variant"] == "lasso"
    assert s["steps"] == 12
    assert s["entry_order"][:4] == ["BMI", "S5", "BP", "S3"]
    assert s["entry_order_index"][:4] == [3, 9, 4, 7]
    assert s["t_max"] > 0
    assert set(s) == {"variant", "steps", "entry_order", "entry_order_index",
                      "t_max"}


def _reference_path_csv(path, standardized):
    """The report built cell by cell: ``to_original_units`` per vertex and
    ``format(x, ".17g")`` per float."""
    design = path.design
    names = list(design.column_names) or [f"x{j + 1}" for j in range(design.m)]
    token = {None: "", "add": "ADD", "drop": "DROP"}
    lines = [",".join(FIXED_COLUMNS + tuple(names))]
    for s in path.steps:
        coef = s.beta if standardized else to_original_units(design, s.beta)[0]
        cells = [
            str(s.step_index),
            token[s.action],
            "" if s.variable is None else names[s.variable],
            "" if s.sign is None else str(int(s.sign)),
        ]
        cells += [format(float(x), ".17g")
                  for x in (s.gamma, s.C_max, s.T, s.rss, *coef)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _path_of_zeros_and_extremes():
    """A path recorded as the walk records one, whose coefficients hold
    both zeros, subnormals and the largest finite doubles."""
    rng = np.random.default_rng(31)
    X = rng.normal(size=(10, 4)) * [0.05, 1.0, 2.0, 30.0]
    design = standardize(X, rng.normal(size=10))
    big, tiny = np.finfo(float).max, 5e-324
    betas = [np.zeros(4),
             np.array([-0.0, 0.0, tiny, big]),
             np.array([-tiny, -0.0, -big, 1e-310])]
    moves = [("add", j, 1, np.arange(j + 1), np.ones(j + 1, np.int8),
              0.5, 1.0, 1.0, 2.0, ()) for j in range(2)]
    return _record_path("lars", design, 1.0, 3.0, moves, betas)


def test_path_csv_matches_a_per_cell_reference(diabetes_paths, quad_paths,
                                               quad_design):
    """Only a +0.0 coefficient is written without formatting; every other
    cell, -0.0 and subnormals included, reads as ``"%.17g"`` writes it."""
    rng = np.random.default_rng(30)
    designs = []
    for shape in ((200, 40), (30, 80)):
        X = rng.normal(size=shape) * rng.uniform(0.01, 100.0, shape[1])
        designs.append(standardize(
            X, X[:, :5].sum(axis=1) + rng.normal(size=shape[0])))
    paths = [*diabetes_paths.values(), *quad_paths.values(),
             fit_path(quad_design, "positive-lasso"),
             *(fit_path(d, v) for d in designs for v in VARIANTS)]
    for group in (paths[:4], paths[4:8], paths[8:12], paths[12:]):
        assert sorted(p.variant for p in group) == sorted(VARIANTS)
    extremes = _path_of_zeros_and_extremes()
    assert write_path_csv(extremes, standardized=True).splitlines()[2].endswith(
        ",-0,0,4.9406564584124654e-324,1.7976931348623157e+308")
    for path in [*paths, extremes]:
        for standardized in (False, True):
            assert write_path_csv(path, standardized=standardized) == (
                _reference_path_csv(path, standardized))
