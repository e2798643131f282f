"""CSV ingestion and deterministic reports of fitted paths.

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

Floating point values in a report are written with 17 significant digits,
one ``%``-format per row, so every float parses back to the same double.
"""

import csv

import numpy as np

from .errors import EmptyData, MissingResponse, NonNumericCell, ParseError

__all__ = [
    "read_csv",
    "write_path_csv",
    "json_summary",
]

FIXED_COLUMNS = (
    "step",
    "action",
    "variable",
    "sign",
    "gamma",
    "C_max",
    "T",
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


# Report tokens of PathStep.action; the starting vertex has none.
_ACTION_TOKENS = {None: "", "add": "ADD", "drop": "DROP"}


def write_path_csv(path, standardized=False):
    """CSV report of a fitted path: header, starting vertex, one row per move.

    Each row holds a vertex's step fields and its coefficients, read from
    ``path.steps`` and ``path.betas``.  Coefficients are reported in the
    original units of the raw columns, divided by the column scales as
    :func:`~larspath.preprocess.to_original_units` does, unless
    ``standardized`` is set, in which case the internal unit-norm scale is
    kept.  ``T`` is the unit-norm sum |beta_j| in both modes.
    """
    design = path.design
    names = column_names(design)
    scales = 1.0 if standardized else design.column_scales
    row = ",".join(["%d", "%s", "%s", "%s"] + ["%.17g"] * (4 + len(names)))
    lines = [",".join(FIXED_COLUMNS + tuple(names))]
    for s, beta in zip(path.steps, path.betas):
        lines.append(row % (
            s.step_index,
            _ACTION_TOKENS[s.action],
            "" if s.variable is None else names[s.variable],
            "" if s.sign is None else int(s.sign),
            s.gamma,
            s.C_max,
            s.T,
            s.rss,
            *(beta / scales).tolist(),
        ))
    return "\n".join(lines) + "\n"


def json_summary(path, cp_argmin=None):
    """Machine-readable fit summary.

    Variable references appear twice: by label and by 1-based column index,
    matching the numbering used in the CSV reports.
    """
    names = column_names(path.design)
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
