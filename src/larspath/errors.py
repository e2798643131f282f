"""Exception and warning types shared across the package, and one check."""

import operator


class LarsError(Exception):
    """Base class for all larspath errors."""


# ---------------------------------------------------------------------------
# linear algebra kernel


class DegenerateColumn(LarsError):
    """A column is (numerically) linearly dependent on the active set."""


# ---------------------------------------------------------------------------
# preprocessing


class ConstantColumn(LarsError):
    """A predictor column has zero scale and cannot be standardized."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} is constant (zero scale)")


class DimensionMismatch(LarsError, ValueError):
    """Array shapes are inconsistent with each other, or a size or option
    argument is outside the values it takes."""


class WrongColumnCount(LarsError, ValueError):
    """The quadratic expansion received an unusable raw-column layout."""


# ---------------------------------------------------------------------------
# path engine


class StalledPath(LarsError):
    """A move shrank the active set to an active set and signs that an
    earlier move had shrunk it to, so the walk would cycle."""


class TOutOfRange(LarsError, ValueError):
    """Interpolation parameter t lies outside [0, T_final]."""


# ---------------------------------------------------------------------------
# variants, model selection and iterative solvers


class VariantMismatch(LarsError, ValueError):
    """An operation received a path fitted under an unsupported variant."""


class IndexOutOfRange(LarsError, IndexError):
    """A step index does not address a vertex of the fitted path."""


class Underdetermined(LarsError):
    """Too few observations to estimate the residual variance."""


class MaxIterations(LarsError):
    """An iterative solver hit its iteration cap before converging."""


# ---------------------------------------------------------------------------
# data ingestion


class ParseError(LarsError, ValueError):
    """A CSV row could not be parsed."""

    def __init__(self, line, column, message=None):
        self.line = line
        self.column = column
        super().__init__(
            message or f"malformed CSV at line {line}, column {column}"
        )


class MissingResponse(LarsError, KeyError):
    """The requested response column is absent from the header."""


class NonNumericCell(LarsError, ValueError):
    """A data cell could not be converted to a float."""

    def __init__(self, row, column_name):
        self.row = row
        self.column_name = column_name
        super().__init__(
            f"non-numeric value in data row {row}, column {column_name!r}"
        )


class EmptyData(LarsError):
    """The CSV contains a header but no data rows (or nothing at all)."""


# ---------------------------------------------------------------------------
# integer arguments


def as_integer(value, name, error=DimensionMismatch, minimum=None):
    """A count or position ``value`` as an int, by ``operator.index``, or
    ``error`` naming it: a float, even a whole one, a string or an array is
    refused, as is a value below ``minimum`` when one is given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} takes integers, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name}={value} must be at least {minimum}")
    return value


# ---------------------------------------------------------------------------
# warnings


class TieWarning(UserWarning):
    """Several candidates tied for the next event; lowest index was taken."""
