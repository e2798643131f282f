"""CSV ingestion and deterministic serialization of fitted paths.

An input file is read in bulk.  The header row is tokenized with
:mod:`csv`, rows holding only whitespace, commas and quote marks are
dropped, and every other row is parsed by one ``np.loadtxt`` call.  A cell
is accepted as NumPy's parser accepts it: decimal or scientific notation,
optionally quoted or padded with whitespace.  Digit-group underscores and
non-ASCII digits are refused, although Python's ``float`` takes them.
``nan`` and ``inf`` cells pass here and are refused by ``standardize``.
Only when the bulk parse refuses a file does a row-by-row scan run, to
name the line or cell in the raised :class:`ParseError` or
:class:`NonNumericCell`; the scan never returns data.

Floating point values are written with 17 significant digits, one
``%``-format per row, so parsing and re-serializing a report reproduces it
byte for byte.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyData, MissingResponse, NonNumericCell, ParseError

__all__ = [
    "PathRecord",
    "read_csv",
    "write_path_csv",
    "records_from_path",
    "read_path_records",
    "write_path_records",
    "json_summary",
]

FIXED_COLUMNS = (
    "step",
    "action",
    "variable",
    "sign",
    "gamma",
    "C_max",
    "T_original_units",
    "rss",
)


def column_names(design):
    """Labels for a design, synthesizing x1..xm when none were recorded."""
    names = list(design.column_names)
    if len(names) == design.m:
        return names
    return [f"x{j + 1}" for j in range(design.m)]


def _is_blank(line):
    """Whether the row holds only whitespace, commas and quote marks, so
    that every cell is empty or whitespace.  The first test settles a data
    row without copying it."""
    return (line.lstrip()[:1] in ("", ",", '"')
            and not line.replace(",", "").replace('"', "").strip())


def _accepted(cell):
    """Whether ``np.loadtxt`` takes the cell: what ``float`` takes, written
    in ASCII and without digit-group underscores."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        return False
    try:
        float(text)
    except ValueError:
        return False
    return True


def _csv_rows(lines, line_numbers):
    """Tokenize ``lines`` with :mod:`csv`; yield each row with the physical
    line number it ends on."""
    reader = csv.reader(lines)
    try:
        for row in reader:
            yield line_numbers[reader.line_num - 1], row
    except csv.Error as exc:
        line = line_numbers[reader.line_num - 1]
        raise ParseError(line=line, column=0,
                         message=f"malformed CSV at line {line}: {exc}") from None


def _diagnose(header, lines, line_numbers, refusal):
    """Raise the error that explains why the bulk parse refused ``lines``."""
    for data_line, (line, row) in enumerate(_csv_rows(lines, line_numbers), 1):
        if len(row) != len(header):
            raise ParseError(
                line=line,
                column=len(row),
                message=f"expected {len(header)} fields, found {len(row)}",
            )
        for name, cell in zip(header, row):
            if not _accepted(cell):
                raise NonNumericCell(data_line, name)
    raise ParseError(line=line_numbers[0], column=0,
                     message=f"malformed CSV: {refusal}")


def read_csv(path, response_column):
    """Load a rectangular numeric CSV with a header row.

    Returns ``(matrix, response, labels)`` with the response column removed
    from the matrix and the remaining column order preserved.  The file is
    read as UTF-8; a leading byte-order mark is ignored, and a byte that is
    not UTF-8 reads as U+FFFD, so a cell holding one is refused as
    non-numeric.  Rows holding only
    whitespace, commas and quote marks are ignored.  Repeated header names
    raise :class:`ParseError` at the repeat.
    """
    with open(path, encoding="utf-8-sig", errors="replace", newline="") as fh:
        lines = fh.readlines()
    line_numbers = [i for i, line in enumerate(lines, 1) if not _is_blank(line)]
    if not line_numbers:
        raise EmptyData("no header row")
    lines = [lines[i - 1] for i in line_numbers]
    header_line, header = next(_csv_rows(lines, line_numbers))
    header = [tok.strip() for tok in header]
    seen = set()
    for j, name in enumerate(header, 1):
        if name in seen:
            raise ParseError(line=header_line, column=j,
                             message=f"column {name!r} repeated in the header "
                                     f"(field {j})")
        seen.add(name)
    start = line_numbers.index(header_line) + 1
    lines, line_numbers = lines[start:], line_numbers[start:]
    table = None
    if lines:
        try:
            table = np.loadtxt(lines, delimiter=",", quotechar='"',
                               comments=None, ndmin=2)
        except ValueError as exc:
            _diagnose(header, lines, line_numbers, exc)
        if table.shape[1] != len(header):
            _diagnose(header, lines, line_numbers,
                      f"{table.shape[1]} fields per row under {len(header)} names")
    if response_column not in header:
        raise MissingResponse(response_column)
    if table is None:
        raise EmptyData("header only, no data rows")
    y_col = header.index(response_column)
    keep = [i for i in range(len(header)) if i != y_col]
    labels = [header[i] for i in keep]
    return table[:, keep], table[:, y_col], labels


@dataclass(frozen=True)
class PathRecord:
    """One serialized path vertex."""

    step: int
    action: str
    variable: str
    sign: object
    gamma: float
    C_max: float
    T_original_units: float
    rss: float
    coefficients: np.ndarray


def records_from_path(path, design=None, standardized=False):
    """Flatten a fitted path into serializable records.

    Coefficients are reported in the original units of the raw columns
    unless ``standardized`` is set, in which case the internal unit-norm
    scale is kept.  The conversion is the division by the column scales
    that :func:`~larspath.preprocess.to_original_units` applies, done once
    for all vertices.
    """
    design = path.design if design is None else design
    names = column_names(design)
    action_token = {None: "", "add": "ADD", "drop": "DROP", "final": "FINAL"}
    coefs = np.array([s.beta for s in path.steps], dtype=float)
    if not standardized:
        coefs /= design.column_scales
    out = [
        PathRecord(
            step=s.step_index,
            action=action_token[s.action],
            variable="" if s.variable is None else names[s.variable],
            sign=None if s.sign is None else int(s.sign),
            gamma=s.gamma,
            C_max=s.C_max,
            T_original_units=s.T,
            rss=s.rss,
            coefficients=coef,
        )
        for s, coef in zip(path.steps, coefs)
    ]
    return names, out


def write_path_records(names, records):
    """Serialize records to CSV text (deterministic, 17 significant digits)."""
    row = ",".join(["%d", "%s", "%s", "%s"] + ["%.17g"] * (4 + len(names)))
    lines = [",".join(FIXED_COLUMNS + tuple(names))]
    for r in records:
        lines.append(row % (
            r.step,
            r.action,
            r.variable,
            "" if r.sign is None else int(r.sign),
            r.gamma,
            r.C_max,
            r.T_original_units,
            r.rss,
            *r.coefficients.tolist(),
        ))
    return "\n".join(lines) + "\n"


def write_path_csv(path, design=None, standardized=False):
    """CSV report of a fitted path: header, starting vertex, one row per move."""
    names, records = records_from_path(path, design, standardized)
    return write_path_records(names, records)


def read_path_records(text):
    """Parse :func:`write_path_csv` output back into records."""
    rows = [r for r in csv.reader(text.splitlines()) if r]
    if not rows:
        raise EmptyData("no header row")
    header = rows[0]
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise ParseError(line=1, column=1, message="unrecognized path header")
    names = header[len(FIXED_COLUMNS):]
    records = []
    for line, row in enumerate(rows[1:], 2):
        if len(row) != len(header):
            raise ParseError(
                line=line,
                column=len(row),
                message=f"expected {len(header)} fields, found {len(row)}",
            )
        cells = [_path_cell(convert, row, j, header, line)
                 for j, convert in enumerate(_CELL_TYPES)]
        coefs = [_path_cell(float, row, j, header, line)
                 for j in range(len(FIXED_COLUMNS), len(row))]
        records.append(PathRecord(*cells, coefficients=np.array(coefs)))
    return names, records


def _optional_int(text):
    return None if text == "" else int(text)


# Converters of the FIXED_COLUMNS cells; "action" and "variable" stay text.
_CELL_TYPES = (int, str, str, _optional_int, float, float, float, float)


def _path_cell(convert, row, j, header, line):
    """``convert(row[j])``, or a :class:`ParseError` naming the cell."""
    try:
        return convert(row[j])
    except ValueError:
        raise ParseError(
            line=line,
            column=j + 1,
            message=f"bad {header[j]!r} value {row[j]!r} at line {line}, "
                    f"column {j + 1}",
        ) from None


def json_summary(path, design=None, cp_argmin=None):
    """Machine-readable fit summary.

    Variable references appear twice: by label and by 1-based column index,
    matching the numbering used in the CSV reports.
    """
    design = path.design if design is None else design
    names = column_names(design)
    summary = {
        "variant": path.variant,
        "steps": path.n_steps,
        "entry_order": [names[j] for j in path.entry_order],
        "entry_order_index": [int(j) + 1 for j in path.entry_order],
        "t_max": path.t_max,
    }
    if cp_argmin is not None:
        summary["cp_argmin"] = int(cp_argmin)
    return summary
