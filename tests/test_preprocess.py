import dataclasses
import re

import numpy as np
import pytest

from larspath.errors import (
    ConstantColumn,
    DimensionMismatch,
    NonNumericCell,
    Underdetermined,
)
from larspath.model_select import lars_fitted_values
from larspath.preprocess import (
    StandardizedDesign,
    from_unit_columns,
    quadratic_expand,
    standardize,
    to_original_units,
)

rng = np.random.default_rng(5)


def check_standardized(d):
    n = d.n
    assert np.abs(d.columns.sum(axis=0)).max() < 1e-9 * n
    assert np.abs((d.columns**2).sum(axis=0) - 1.0).max() < 1e-9
    assert abs(d.response.sum()) < 1e-9 * n * max(1.0, np.abs(d.response).max())


def test_standardize_basic_invariants():
    X = rng.normal(size=(50, 4)) * np.array([1.0, 10.0, 0.01, 100.0]) + 3.0
    y = rng.normal(size=50) * 40 + 7
    d = standardize(X, y)
    check_standardized(d)
    assert d.column_names == ("x1", "x2", "x3", "x4")


def test_standardize_is_idempotent():
    X = rng.normal(size=(30, 3))
    y = rng.normal(size=30)
    d = standardize(X, y)
    d2 = standardize(d.columns, d.response)
    assert np.allclose(d2.column_scales, 1.0, atol=1e-12)
    assert np.allclose(d2.column_means, 0.0, atol=1e-12)
    assert np.allclose(d2.columns, d.columns, atol=1e-12)


def test_standardize_reports_constant_column_by_name():
    X = rng.normal(size=(20, 3))
    X[:, 1] = 4.2
    with pytest.raises(ConstantColumn, match="mid"):
        standardize(X, rng.normal(size=20), names=("lo", "mid", "hi"))


def test_non_finite_cells_are_rejected_by_row_and_column():
    local = np.random.default_rng(8)
    X = local.normal(size=(6, 3))
    y = local.normal(size=6)
    unit = np.eye(6)[:, :3]
    for bad in (np.nan, np.inf, -np.inf):
        Xb = X.copy()
        Xb[4, 2] = bad
        with pytest.raises(NonNumericCell) as exc:
            standardize(Xb, y, names=("a", "b", "c"))
        assert (exc.value.row, exc.value.column_name) == (5, "c")
        yb = y.copy()
        yb[1] = bad
        with pytest.raises(NonNumericCell) as exc:
            standardize(X, yb)
        assert (exc.value.row, exc.value.column_name) == (2, "response")

        Ub = unit.copy()
        Ub[0, 1] = bad
        with pytest.raises(NonNumericCell) as exc:
            from_unit_columns(Ub, y)
        assert (exc.value.row, exc.value.column_name) == (1, "x2")
        with pytest.raises(NonNumericCell) as exc:
            from_unit_columns(unit, yb)
        assert (exc.value.row, exc.value.column_name) == (2, "response")

        with pytest.raises(NonNumericCell) as exc:
            quadratic_expand(Xb, 0, names=("a", "b", "c"))
        assert (exc.value.row, exc.value.column_name) == (5, "c")
    with pytest.raises(DimensionMismatch):
        from_unit_columns(unit, y, names=("a",))
    with pytest.raises(DimensionMismatch, match="1 names for 3 columns"):
        quadratic_expand(X, 0, names=("a",))


def test_a_replaced_response_is_refused_as_a_raw_one_is():
    """``dataclasses.replace(design, response=y)``, the design that the
    resampling code fits for each draw, refuses a y that is not a finite
    vector of length n: a NaN at its row, a short or 2-D y by its shape.
    So does ``lars_fitted_values``'s estimator, which builds that design."""
    local = np.random.default_rng(26)
    X = local.normal(size=(8, 3))
    d = standardize(X, X @ np.array([1.0, -2.0, 0.5]) + local.normal(size=8))
    with_nan = d.response.copy()
    with_nan[2] = np.nan
    estimator = lars_fitted_values(d, 3)
    for build in (lambda y: dataclasses.replace(d, response=y), estimator):
        with pytest.raises(NonNumericCell) as exc:
            build(with_nan)
        assert (exc.value.row, exc.value.column_name) == (3, "response")
        for bad, shape in ((d.response[:-1], (7,)), (d.response[:, None], (8, 1))):
            message = f"response has shape {shape}, expected (8,)"
            with pytest.raises(DimensionMismatch, match=re.escape(message)):
                build(bad)
    assert estimator(d.response).shape == (4, 8)


# Each raw-design entry point, on a matrix with columns a, b and c and,
# where it takes one, a response.
RAW_BUILDERS = {
    "standardize": lambda X, y: standardize(X, y, names=("a", "b", "c")),
    "from_unit_columns": lambda X, y: from_unit_columns(X, y, names=("a", "b", "c")),
    "quadratic_expand": lambda X, y: quadratic_expand(X, 0, names=("a", "b", "c")),
}
WITH_RESPONSE = ("standardize", "from_unit_columns")


@pytest.mark.parametrize("build", RAW_BUILDERS)
def test_an_object_cell_that_is_not_a_number_is_named(build):
    """The first cell that no float conversion takes is refused at its row
    and column, not with NumPy's conversion error."""
    X = np.eye(6)[:, :3].astype(object)
    X[3, 1] = "a"
    X[4, 0] = "b"
    with pytest.raises(NonNumericCell) as exc:
        RAW_BUILDERS[build](X, np.ones(6))
    assert (exc.value.row, exc.value.column_name) == (4, "b")


@pytest.mark.parametrize("build", WITH_RESPONSE)
def test_a_string_response_is_refused_at_its_first_non_number(build):
    y = np.array(["0.5", "1", "x", "2", "y", "3"])
    with pytest.raises(NonNumericCell) as exc:
        RAW_BUILDERS[build](np.eye(6)[:, :3], y)
    assert (exc.value.row, exc.value.column_name) == (3, "response")


@pytest.mark.parametrize("build", RAW_BUILDERS)
def test_a_ragged_matrix_is_a_dimension_mismatch(build):
    ragged = [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]
    with pytest.raises(DimensionMismatch, match="ragged"):
        RAW_BUILDERS[build](ragged, np.ones(3))


@pytest.mark.parametrize("build", WITH_RESPONSE)
def test_a_ragged_response_is_a_dimension_mismatch(build):
    with pytest.raises(DimensionMismatch, match="ragged"):
        RAW_BUILDERS[build](np.eye(3), [1.0, [2.0, 3.0], 4.0])


@pytest.mark.parametrize("build", RAW_BUILDERS)
def test_a_complex_matrix_is_a_dimension_mismatch(build):
    """Refused, where NumPy would drop the imaginary part with a warning."""
    X = np.eye(6)[:, :3] + 0j
    X[2, 1] = 1j
    with pytest.raises(DimensionMismatch, match="complex"):
        RAW_BUILDERS[build](X, np.ones(6))


@pytest.mark.parametrize("build", WITH_RESPONSE)
def test_a_complex_response_is_a_dimension_mismatch(build):
    y = np.ones(6) + 0j
    y[1] = 2 + 1j
    with pytest.raises(DimensionMismatch, match="complex"):
        RAW_BUILDERS[build](np.eye(6)[:, :3], y)


def test_standardize_shape_errors():
    X = rng.normal(size=(20, 3))
    with pytest.raises(DimensionMismatch):
        standardize(X, np.zeros(19))
    with pytest.raises(Underdetermined, match="need at least two observations"):
        standardize(X[:1], np.zeros(1))
    with pytest.raises(DimensionMismatch):
        standardize(X, np.zeros(20), names=("a", "b"))
    with pytest.raises(DimensionMismatch, match="raw_columns must be 2-D"):
        standardize(np.ones(5), np.zeros(5))


def test_original_units_round_trip():
    """Predictions computed either way agree to machine precision."""
    X = rng.normal(size=(40, 5)) * 100 + 50
    y = rng.normal(size=40)
    d = standardize(X, y)
    beta = rng.normal(size=5)
    beta_orig, intercept = to_original_units(d, beta)
    lhs = X @ beta_orig + intercept
    rhs = d.columns @ beta + d.response_mean
    assert np.abs(lhs - rhs).max() < 1e-10 * max(1.0, np.abs(rhs).max())


def test_original_units_wrong_length():
    d = standardize(rng.normal(size=(10, 3)), rng.normal(size=10))
    with pytest.raises(DimensionMismatch):
        to_original_units(d, np.zeros(4))


def test_original_units_refuses_a_scalar_beta_for_one_column():
    """A scalar is not the one-entry beta of a one-column design: the
    conversion to C-ordered floats keeps its shape ()."""
    d = standardize(rng.normal(size=(10, 1)), rng.normal(size=10))
    for beta in (2.0, np.float64(2.0)):
        with pytest.raises(DimensionMismatch, match=r"shape \(\), expected \(1,\)"):
            to_original_units(d, beta)


def test_original_units_refuses_a_complex_beta():
    d = standardize(rng.normal(size=(10, 3)), rng.normal(size=10))
    with pytest.raises(DimensionMismatch, match="complex"):
        to_original_units(d, np.array([1.0, 2.0, 3.0 + 1j]))


def test_original_units_names_a_beta_cell_that_is_not_a_number():
    d = standardize(rng.normal(size=(10, 3)), rng.normal(size=10), ["a", "b", "c"])
    with pytest.raises(NonNumericCell) as exc:
        to_original_units(d, np.array([1.0, "a", 2.0], dtype=object))
    assert exc.value.column_name == "b"


def test_a_design_built_without_names_names_its_columns():
    """A design built directly, without names, is named x1..xm, so a bad
    beta cell is named, not an IndexError; names of another length are
    refused, and ``dataclasses.replace`` keeps the names it was given."""
    d = StandardizedDesign(columns=np.eye(3)[:, :2], response=np.zeros(3),
                           column_means=np.zeros(2), column_scales=np.ones(2),
                           response_mean=0.0)
    assert d.column_names == ("x1", "x2")
    with pytest.raises(NonNumericCell) as exc:
        to_original_units(d, [1.0, np.nan])
    assert exc.value.column_name == "x2"
    with pytest.raises(DimensionMismatch, match="3 names for 2 columns"):
        dataclasses.replace(d, column_names=("a", "b", "c"))
    renamed = dataclasses.replace(d, column_names=["a", "b"])
    assert renamed.column_names == ("a", "b")
    assert dataclasses.replace(renamed, response=np.ones(3)).column_names == ("a", "b")


def test_diabetes_ols_coefficient_budget(design):
    beta, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    assert abs(np.abs(beta).sum() - 3460.00) < 0.5


def test_from_unit_columns_identity():
    y = rng.normal(size=6)
    d = from_unit_columns(np.eye(6), y)
    assert not d.centered
    assert np.array_equal(d.response, y)
    beta_orig, intercept = to_original_units(d, y)
    assert np.array_equal(beta_orig, y)
    assert intercept == 0.0


def test_from_unit_columns_rejects_unnormalized():
    X = rng.normal(size=(8, 2))
    with pytest.raises(DimensionMismatch):
        from_unit_columns(X, np.zeros(8))


def test_quadratic_expand_shapes_and_labels():
    X = rng.normal(size=(30, 10))
    X[:, 1] = (X[:, 1] > 0).astype(float)
    M, labels = quadratic_expand(X, 1)
    assert M.shape == (30, 64)
    assert len(labels) == 64
    # 10 mains, 45 ordered products, 9 squares (binary column skipped)
    assert labels[:10] == [f"x{j}" for j in range(1, 11)]
    products = [l for l in labels if ":" in l]
    squares = [l for l in labels if l.endswith("^2")]
    assert len(products) == 45
    assert len(squares) == 9
    assert "x2^2" not in squares
    assert labels[10] == "x1:x2"
    assert labels[-1] == "x10^2"


def test_quadratic_expand_small_design():
    X = rng.normal(size=(20, 3))
    M, labels = quadratic_expand(X, 1, names=("a", "b", "c"))
    assert M.shape == (20, 8)
    assert labels == ["a", "b", "c", "a:b", "a:c", "b:c", "a^2", "c^2"]


def test_quadratic_expand_interactions_are_centered_products():
    X = rng.normal(size=(25, 3)) + 5.0
    M, labels = quadratic_expand(X, 0)
    centered = X - X.mean(axis=0)
    assert np.allclose(M[:, labels.index("x1:x2")], centered[:, 0] * centered[:, 1])
    assert np.allclose(M[:, labels.index("x3^2")], centered[:, 2] ** 2)
    # main effects come through untouched
    assert np.array_equal(M[:, :3], X)


def test_quadratic_expand_errors():
    with pytest.raises(DimensionMismatch, match="need at least 2 columns, got 1"):
        quadratic_expand(np.ones((5, 1)), 0)
    with pytest.raises(DimensionMismatch, match="need at least 2 columns, got n/a"):
        quadratic_expand(np.ones(5), 0)
    with pytest.raises(DimensionMismatch, match=r"binary_column=3 outside 0\.\.2"):
        quadratic_expand(rng.normal(size=(5, 3)), 3)


def test_quadratic_design_standardizes_cleanly(quad_design):
    assert quad_design.m == 64
    check_standardized(quad_design)
