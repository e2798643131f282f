"""Exception and warning types shared across the package, and one check.

The classes are grouped by what the caller can do about the refusal: fix
an argument, fix the data, or accept that the numerics refuse.
"""

import operator


class LarsError(Exception):
    """Base class for all larspath errors."""


# ---------------------------------------------------------------------------
# arguments: the call is at fault, and another argument fixes it


class DimensionMismatch(LarsError, ValueError):
    """Array shapes are inconsistent with each other, or a size, index,
    budget or option argument is outside the values it takes."""


class VariantMismatch(LarsError, ValueError):
    """An operation received a path fitted under an unsupported variant."""


def as_integer(value, name, minimum=None, maximum=None):
    """A count or position ``value`` as an int, by ``operator.index``, or
    :class:`DimensionMismatch` naming it: a bool, a float (even 2.0), a
    string or an array is refused, as is a value below ``minimum`` when one
    is given, or outside ``minimum..maximum`` when ``maximum`` is too."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise DimensionMismatch(f"{name} takes integers, got {value!r}") from None
    if maximum is not None and not minimum <= value <= maximum:
        raise DimensionMismatch(f"{name}={value} outside {minimum}..{maximum}")
    if minimum is not None and value < minimum:
        raise DimensionMismatch(f"{name}={value} must be at least {minimum}")
    return value


# ---------------------------------------------------------------------------
# data: the values are at fault, and other data fixes it


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


class ConstantColumn(LarsError):
    """A predictor column has zero scale and cannot be standardized."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} is constant (zero scale)")


class Underdetermined(LarsError):
    """Too few observations: fewer than two to standardize, or too few
    beyond the columns to estimate the residual variance."""


# ---------------------------------------------------------------------------
# numerics: the walk or a solver cannot go on from where it is


class DegenerateColumn(LarsError):
    """A column is (numerically) linearly dependent on the active set."""


class StalledPath(LarsError):
    """A move shrank the active set to an active set and signs that an
    earlier move had shrunk it to, so the walk would cycle."""


class MaxIterations(LarsError):
    """An iterative solver hit its iteration cap before converging."""


# ---------------------------------------------------------------------------
# warnings


class TieWarning(UserWarning):
    """Several candidates tied for the next event; lowest index was taken."""
