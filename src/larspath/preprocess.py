"""Design-matrix preparation: standardization, back-transforms, expansion.

The solver operates on predictors that are centered and scaled to unit
Euclidean length, with a centered response.  ``StandardizedDesign`` carries
the metadata needed to map fitted coefficients back to the original units.
"""

from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import (
    ConstantColumn,
    DimensionMismatch,
    NonNumericCell,
    Underdetermined,
    as_integer,
)

__all__ = [
    "StandardizedDesign",
    "standardize",
    "from_unit_columns",
    "to_original_units",
    "quadratic_expand",
]


@dataclass(frozen=True)
class StandardizedDesign:
    """A ready-to-fit design: unit-length predictor columns, centered y.

    Attributes
    ----------
    columns : (n, m) array, C-contiguous (copied into C order when given in
        another), each column mean 0 (when ``centered``) and squared norm 1.
    response : (n,) array, mean 0 when ``centered``.
    column_means, column_scales : per-column centering and scale
        (scale = root of the centered sum of squares, not the standard
        deviation, so that each stored column has unit length).
    response_mean : scalar subtracted from the raw response.
    column_names : labels, aligned with columns; x1..xm when none are given.
    centered : False only for designs built by :func:`from_unit_columns`,
        e.g. identity designs used in closed-form tests, where centering
        would destroy the structure.

    A fit on a tall design (n >= m) keeps X'X on the design for every
    later fit, so ``columns`` must not be changed in place once a fit has
    read them; ``dataclasses.replace`` builds a design without it.
    """

    columns: np.ndarray
    response: np.ndarray
    column_means: np.ndarray
    column_scales: np.ndarray
    response_mean: float
    column_names: tuple = field(default=())
    centered: bool = True

    def __post_init__(self):
        object.__setattr__(self, "columns", np.asarray(self.columns, order="C"))
        names = _names(tuple(self.column_names) or None, self.m)
        object.__setattr__(self, "column_names", names)
        # ``_redrawn`` builds a design per draw in the resampling code with
        # ``dataclasses.replace``: its y is refused here as a raw one is.
        _check_response(_floats(self.response, "response"), self.n)

    @property
    def n(self):
        return self.columns.shape[0]

    @property
    def m(self):
        return self.columns.shape[1]

    @cached_property
    def _gram(self):
        """X'X, read-only and built on first read; None on a wide design."""
        if self.n < self.m:
            return None
        G = self.columns.T @ self.columns
        G.flags.writeable = False
        return G


def _redrawn(design, response):
    """``design`` with ``response`` in place of its own, holding the same
    Gram: the design of one resampling draw."""
    out = replace(design, response=response)
    object.__setattr__(out, "_gram", design._gram)
    return out


def _names(names, m):
    """``names`` as a tuple of m labels, x1..xm when ``names`` is None."""
    names = tuple(f"x{j + 1}" for j in range(m)) if names is None else tuple(names)
    if len(names) != m:
        raise DimensionMismatch(f"{len(names)} names for {m} columns")
    return names


def _floats(value, what):
    """``value`` as C-ordered floats, NaN at each cell that is not a number,
    or :class:`DimensionMismatch` for ragged or complex input."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise DimensionMismatch(f"{what} is ragged: rows differ in length") from None
    if np.iscomplexobj(arr):
        raise DimensionMismatch(f"{what} is complex; only real values are fitted")
    try:
        return arr.astype(float, order="C", copy=False)
    except (TypeError, ValueError):
        # Only a failed bulk conversion pays for a scan by cell.
        out = np.full(arr.shape, np.nan)
        for at, cell in np.ndenumerate(arr):
            with suppress(TypeError, ValueError):
                out[at] = cell
        return out


def _require_finite(X, names):
    """Raise :class:`NonNumericCell` at the first NaN or infinite cell of
    ``X``, whose columns are ``names``, numbering rows from 1 as the CSV reader does."""
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        raise NonNumericCell(int(bad[0, 0]) + 1, names[bad[0, 1]])


def _check_response(y, n):
    """Refuse a response ``y`` (floats) that is not n finite numbers."""
    if y.shape != (n,):
        raise DimensionMismatch(f"response has shape {y.shape}, expected ({n},)")
    _require_finite(y[:, None], ("response",))


def _raw_design(columns, response, names, what):
    """The matrix, response and names of a raw design, as floats, after the
    checks that :func:`standardize` and :func:`from_unit_columns` share,
    also on the raw response: centering spreads one bad cell to every row."""
    X, y = _floats(columns, what), _floats(response, "response")
    if X.ndim != 2:
        raise DimensionMismatch(f"{what} must be 2-D")
    n, m = X.shape
    names = _names(names, m)
    _require_finite(X, names)
    _check_response(y, n)
    return X, y, names


def _interactions(centered, columns, names):
    """The centered product of each pair of ``columns``, the earlier one
    first, and its ``a:b`` label."""
    pairs = list(combinations(columns, 2))
    return ([centered[:, i] * centered[:, j] for i, j in pairs],
            [f"{names[i]}:{names[j]}" for i, j in pairs])


def standardize(raw_columns, raw_response, names=None):
    """Center and rescale a raw design to mean-0, unit-length columns.

    Returns a :class:`StandardizedDesign`.  Raises :class:`ConstantColumn`
    for any zero-variance predictor, :class:`NonNumericCell` for a cell
    that is not a finite number, :class:`Underdetermined` for fewer than two
    rows and :class:`DimensionMismatch` for ragged or complex input or a
    response length that does not match the matrix.
    """
    X, y, names = _raw_design(raw_columns, raw_response, names, "raw_columns")
    n = X.shape[0]
    if n < 2:
        raise Underdetermined("need at least two observations")

    means = X.mean(axis=0)
    centered = X - means
    scales = np.sqrt((centered**2).sum(axis=0))
    # a column of identical values can leave a tiny nonzero scale through
    # rounding in the mean, so the check is relative to the column magnitude
    floor = 1e-12 * np.sqrt(n) * np.maximum(1.0, np.abs(means))
    bad = np.flatnonzero(scales <= floor)
    if bad.size:
        raise ConstantColumn(names[bad[0]])
    ymean = float(y.mean())
    return StandardizedDesign(
        columns=centered / scales,
        response=y - ymean,
        column_means=means,
        column_scales=scales,
        response_mean=ymean,
        column_names=names,
    )


def from_unit_columns(columns, response, names=None):
    """Wrap columns that are already unit length, without centering.

    Intended for synthetic designs (identity matrices, pre-built orthonormal
    frames) where the closed-form theory applies to the raw coordinates.
    The response is taken as-is.  Columns must have unit squared norm within
    1e-9 and every cell must be finite; means and scales are recorded as 0
    and 1 so the original-units back-transform is the identity.
    """
    X, y, names = _raw_design(columns, response, names, "columns")
    m = X.shape[1]
    norms = (X**2).sum(axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise DimensionMismatch("columns must have unit squared norm")
    return StandardizedDesign(
        columns=X.copy(),
        response=y.copy(),
        column_means=np.zeros(m),
        column_scales=np.ones(m),
        response_mean=0.0,
        column_names=names,
        centered=False,
    )


def to_original_units(design, beta_standardized):
    """Map standardized coefficients to original units plus an intercept.

    The returned pair satisfies, as an algebraic identity,

        X_raw @ beta_original + intercept == X_std @ beta_standardized
                                             + response_mean.

    ``beta_standardized`` is refused as the data are: complex or ragged
    input is a :class:`DimensionMismatch`, and a cell that is not a finite
    number is a :class:`NonNumericCell` naming its variable.
    """
    beta = _floats(beta_standardized, "beta")
    if beta.shape != (design.m,):
        raise DimensionMismatch(
            f"beta has shape {beta.shape}, expected ({design.m},)"
        )
    _require_finite(beta[None, :], design.column_names)
    beta_original = beta / design.column_scales
    intercept = design.response_mean - float(
        design.column_means @ beta_original
    )
    return beta_original, intercept


def quadratic_expand(raw_columns, binary_column, names=None):
    """Expand m raw predictors into the full quadratic design.

    Output column order: the m main effects, the m(m-1)/2 pairwise products
    (i < j), and the m - 1 squares (every column except ``binary_column``,
    whose square would duplicate information up to an affine shift).  For
    the ten-predictor diabetes data this gives the 64-column design.

    Products and squares are formed from mean-centered copies of the inputs,
    so an interaction column measures joint variation beyond what the two
    main effects already carry.  The main effects themselves are emitted
    raw; the standardization applied afterwards absorbs their centering.
    Returns ``(matrix, labels)`` with labels following the patterns
    ``name_i``, ``name_i:name_j`` and ``name_i^2``.
    """
    X = _floats(raw_columns, "raw_columns")
    if X.ndim != 2 or X.shape[1] < 2:
        raise DimensionMismatch(
            f"need at least 2 columns, got {X.shape[1] if X.ndim == 2 else 'n/a'}"
        )
    n, m = X.shape
    binary_column = as_integer(binary_column, "binary_column", 0, m - 1)
    names = _names(names, m)
    _require_finite(X, names)
    centered = X - X.mean(axis=0)

    products, pair_labels = _interactions(centered, range(m), names)
    squared = [j for j in range(m) if j != binary_column]
    cols = ([X[:, j] for j in range(m)] + products
            + [centered[:, j] ** 2 for j in squared])
    labels = [*names, *pair_labels, *(f"{names[j]}^2" for j in squared)]
    return np.column_stack(cols), labels
