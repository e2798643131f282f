"""Piecewise-linear coefficient paths for linear regression.

Fits the full solution path of least-angle style active-set walks,
including the lasso modification (coefficient sign crossings remove
variables), the idealized forward-stagewise limit (direction projected
into the active sign cone), and the nonnegative-coefficient restriction.
Ships risk estimation on top of the fitted paths (Cp with df read from the
path, bootstrap degrees of freedom, a comparison with forward selection) and a
small CLI.  Everything is NumPy and SciPy: LAPACK for the Cholesky
factors and Lawson-Hanson for the stagewise cone projection.
"""

from .core import VARIANTS, Path, PathStep, fit_path, interpolate
from .datasets import load_diabetes
from .dataio import read_csv, write_path_csv
from .errors import (
    ConstantColumn,
    DegenerateColumn,
    DimensionMismatch,
    EmptyData,
    LarsError,
    MaxIterations,
    MissingResponse,
    NonNumericCell,
    ParseError,
    StalledPath,
    TieWarning,
    Underdetermined,
    VariantMismatch,
)
from .model_select import (
    CpReport,
    DfEstimate,
    SimulationResult,
    bootstrap_df,
    cp_curve,
    hybrid_r2,
    lars_fitted_values,
    lasso_df_by_support,
    main_effects_first,
    run_simulation_study,
    sigma2_full_ols,
)
from .oracles import forward_selection
from .preprocess import (
    StandardizedDesign,
    from_unit_columns,
    quadratic_expand,
    standardize,
    to_original_units,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # designs
    "StandardizedDesign",
    "standardize",
    "from_unit_columns",
    "to_original_units",
    "quadratic_expand",
    # paths
    "PathStep",
    "Path",
    "fit_path",
    "interpolate",
    "VARIANTS",
    "forward_selection",
    # model selection
    "CpReport",
    "DfEstimate",
    "SimulationResult",
    "sigma2_full_ols",
    "cp_curve",
    "lars_fitted_values",
    "bootstrap_df",
    "lasso_df_by_support",
    "hybrid_r2",
    "main_effects_first",
    "run_simulation_study",
    # data plumbing
    "read_csv",
    "write_path_csv",
    "load_diabetes",
    # errors
    "LarsError",
    "DegenerateColumn",
    "ConstantColumn",
    "DimensionMismatch",
    "StalledPath",
    "VariantMismatch",
    "Underdetermined",
    "MaxIterations",
    "ParseError",
    "MissingResponse",
    "NonNumericCell",
    "EmptyData",
    "TieWarning",
]
