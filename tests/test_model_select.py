"""Risk-estimation layer: Cp, bootstrap df, hybrid refits, simulation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from larspath.core import fit_path
from larspath.errors import DimensionMismatch, Underdetermined, VariantMismatch
from larspath.model_select import (
    bootstrap_df,
    cp_curve,
    hybrid_r2,
    lars_fitted_values,
    lasso_df_by_support,
    run_simulation_study,
    sigma2_full_ols,
)
from larspath.preprocess import from_unit_columns, standardize


def test_sigma2_full_ols_diabetes(design):
    sigma2 = sigma2_full_ols(design)
    # residual variance of the saturated fit on this data
    assert abs(sigma2 - 2932.6816372) < 1e-6
    ols, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    rss = float(np.sum((design.response - design.columns @ ols) ** 2))
    assert abs(sigma2 - rss / (design.n - design.m - 1)) < 1e-9


def test_sigma2_underdetermined():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 11))
    d = standardize(X, rng.normal(size=12))
    with pytest.raises(Underdetermined):
        sigma2_full_ols(d)


def test_cp_curve_is_the_stated_formula(design, diabetes_paths):
    path = diabetes_paths["lars"]
    sigma2 = sigma2_full_ols(design)
    report = cp_curve(path, sigma2)
    assert report.sigma2_bar == sigma2
    assert report.df_used.tolist() == list(range(11))
    for k, s in enumerate(path.steps):
        want = s.rss / sigma2 - design.n + 2.0 * k
        assert abs(report.cp[k] - want) < 1e-10
    assert report.argmin_k == 7


def test_cp_curve_rejects_other_variants(design, diabetes_paths):
    sigma2 = sigma2_full_ols(design)
    with pytest.raises(VariantMismatch):
        cp_curve(diabetes_paths["lasso"], sigma2)
    report = cp_curve(diabetes_paths["lasso"], sigma2, allow_variant=True)
    assert report.cp.shape == (diabetes_paths["lasso"].n_steps + 1,)


def test_bootstrap_df_recovers_projection_trace(design):
    # for a linear smoother mu_hat = M y the covariance sum is trace(M)
    # exactly in expectation; projections onto the first r columns have
    # trace r
    X = design.columns
    n = design.n
    mats = [np.zeros((n, n))]
    for r in range(1, 4):
        Xr = X[:, :r]
        mats.append(Xr @ np.linalg.pinv(Xr))

    def estimator(y_star):
        return np.array([M @ y_star for M in mats])

    for resampling in ("normal", "residual"):
        out = bootstrap_df(design, estimator, B=60, groups=6, seed=0,
                           resampling=resampling)
        assert [e.k for e in out] == [0, 1, 2, 3]
        for e in out:
            assert e.ci_low <= e.df_hat <= e.ci_high
            assert e.ci_low <= e.k <= e.ci_high
            assert abs(e.df_hat - e.k) < 0.5
            assert e.B == 60 and e.groups == 6


def test_bootstrap_df_group_shape_validation(design):
    est = lars_fitted_values(design, 2)
    with pytest.raises(DimensionMismatch):
        bootstrap_df(design, est, B=100, groups=7)
    with pytest.raises(DimensionMismatch):
        bootstrap_df(design, est, B=10, groups=10)
    with pytest.raises(ValueError):
        bootstrap_df(design, est, B=20, groups=2, resampling="wild")


def test_lars_fitted_values_shape_and_padding():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 0.2 * rng.normal(size=25)
    d = standardize(X, y)
    est = lars_fitted_values(d, 6)
    fits = est(d.response)
    assert fits.shape == (7, 25)
    assert np.all(fits[0] == 0.0)
    # the walk has at most 3 moves, so the tail rows repeat the last vertex
    assert np.array_equal(fits[3], fits[6])


def test_lasso_df_by_support_tracks_support_size():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(30, 6)))
    y = Q @ np.array([4.0, -3.0, 2.5, 2.0, -1.5, 1.0]) + 0.8 * rng.normal(size=30)
    d = from_unit_columns(Q, y)
    out = lasso_df_by_support(d, B=100, seed=1, groups=10)
    assert [e.k for e in out] == list(range(7))
    assert out[0].df_hat == 0.0
    for e in out:
        assert e.ci_low <= e.df_hat <= e.ci_high
        assert e.ci_low <= e.k <= e.ci_high
        assert abs(e.df_hat - e.k) < 0.8


def test_hybrid_refit_identity():
    # the refit improvement is tied to the fraction of the move travelled:
    # (refit - path) = (1-rho)^2 / (rho (2-rho)) * (path - previous vertex)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 8))
        y = X @ rng.normal(size=8) + 0.5 * rng.normal(size=50)
        d = standardize(X, y)
        p = fit_path(d, "lars")
        tss = p.steps[0].rss
        for k in range(1, p.n_steps + 1):
            r2_path, r2_refit, rho = hybrid_r2(p, k)
            assert 0.0 < rho <= 1.0
            assert r2_refit >= r2_path - 1e-12
            r2_prev = 1.0 - p.steps[k - 1].rss / tss
            gain = (1 - rho) ** 2 / (rho * (2 - rho)) * (r2_path - r2_prev)
            assert abs((r2_refit - r2_path) - gain) < 1e-8


def test_hybrid_final_step_travels_the_whole_move(diabetes_paths):
    path = diabetes_paths["lars"]
    r2_path, r2_refit, rho = hybrid_r2(path, path.n_steps)
    assert rho == 1.0
    assert abs(r2_refit - r2_path) < 1e-12


def test_hybrid_argument_validation(diabetes_paths):
    path = diabetes_paths["lars"]
    with pytest.raises(DimensionMismatch):
        hybrid_r2(path, 0)
    with pytest.raises(DimensionMismatch):
        hybrid_r2(path, path.n_steps + 1)
    with pytest.raises(VariantMismatch):
        hybrid_r2(diabetes_paths["lasso"], 1)


def test_simulation_study_structure(diabetes):
    matrix, response, _ = diabetes
    res = run_simulation_study(matrix, response, seed=0, replications=4,
                               n_steps=6)
    assert 0.0 < res.true_R2 < 1.0
    methods = {"lars", "lasso", "stagewise", "forward-selection"}
    assert set(res.pe_curves) == methods
    assert set(res.pe_sd) == methods
    assert set(res.nonzero_axis) == methods
    for name in methods:
        curve = res.pe_curves[name]
        assert curve.shape == (7,)
        assert abs(curve[0]) < 1e-12
        assert curve.max() <= 1.0 + 1e-12
        assert res.nonzero_axis[name][0] == 0.0
        assert np.all(res.pe_sd[name] >= 0.0)
    assert res.replications == 4 and res.n_steps == 6


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_import_leaves_scipy_stats_unloaded(module):
    """The df intervals take the Student t quantile from scipy.special and
    the cone projection is solved in the package; importing scipy.stats or
    scipy.optimize would add a fifth to a half of a second to every start."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, larspath; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
