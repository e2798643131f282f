"""Checks for the slow reference procedures in ``tests/reference`` and for
forward selection.

These are mostly closed-form cases (orthogonal designs) plus cross-checks
against the path engine on the diabetes data.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from larspath.core import fit_path, interpolate
from larspath.errors import DimensionMismatch
from larspath.oracles import forward_selection
from larspath.preprocess import from_unit_columns, standardize
from reference.oracles import (
    OrderStatistics,
    _cd_sweeps,
    _gram,
    _stagewise_chunk,
    epsilon_stagewise,
    lasso_at_t,
    soft_threshold_path,
)


def test_order_statistics_sorting_and_permutation():
    stats = OrderStatistics.from_values([3.0, 1.0, -2.0])
    assert stats.sorted_abs.tolist() == [3.0, 2.0, 1.0]
    assert stats.permutation.tolist() == [0, 2, 1]
    v = np.array([3.0, 1.0, -2.0])
    assert np.array_equal(np.abs(v)[stats.permutation], stats.sorted_abs)


def test_order_statistics_stable_on_ties():
    stats = OrderStatistics.from_values([2.0, -2.0, 0.5])
    assert stats.permutation.tolist() == [0, 1, 2]


def test_order_statistics_threshold():
    stats = OrderStatistics.from_values([3.0, 1.0, -2.0])
    assert stats.threshold(0) == 3.0
    assert stats.threshold(1) == 2.0
    assert stats.threshold(2) == 1.0
    assert stats.threshold(3) == 0.0
    assert stats.threshold(99) == 0.0
    with pytest.raises(DimensionMismatch):
        stats.threshold(-1)


def test_soft_threshold_small_cases():
    v = [3.0, 1.0, -2.0]
    assert soft_threshold_path(v, 0).tolist() == [0.0, 0.0, 0.0]
    assert soft_threshold_path(v, 1).tolist() == [1.0, 0.0, 0.0]
    assert soft_threshold_path(v, 2).tolist() == [2.0, 0.0, -1.0]
    assert soft_threshold_path(v, 3).tolist() == [3.0, 1.0, -2.0]


def test_soft_threshold_matches_path_vertices_on_identity():
    # with orthonormal columns the path vertex after k moves shrinks every
    # coefficient toward zero by the (k+1)-th largest |correlation|
    rng = np.random.default_rng(31)
    for _ in range(10):
        y = rng.normal(size=6) * 3.0
        d = from_unit_columns(np.eye(6), y)
        path = fit_path(d, "lasso")
        for k, step in enumerate(path.steps):
            ref = soft_threshold_path(y, k)
            assert np.abs(step.beta - ref).max() < 1e-12


def test_epsilon_stagewise_single_predictor_approach():
    d = from_unit_columns(np.array([[1.0], [0.0]]), np.array([3.0, 0.7]))
    eps = 0.01
    traj = epsilon_stagewise(d, eps, 400)
    b = traj[:, 0]
    # climbs monotonically in eps-sized increments, then hovers at the fit
    assert abs(b[0] - eps) < 1e-15
    assert np.all(np.diff(b[:299]) > 0)
    assert b.max() <= 3.0 + eps * (1 + 1e-12)
    assert abs(b[-1] - 3.0) <= eps


def test_greedy_stagewise_equals_forward_selection_on_orthogonal():
    y = np.array([4.0, -1.0, 2.5, 0.5])
    d = from_unit_columns(np.eye(4), y)
    traj = epsilon_stagewise(d, None, 4)
    fwd = forward_selection(d, 4)
    assert fwd.entry_order == [0, 2, 1, 3]
    for k in range(1, 5):
        assert np.abs(traj[k - 1] - fwd.steps[k].beta).max() < 1e-12


def test_epsilon_stagewise_crosses_chunk_refresh_boundary():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=30)
    d = standardize(X, y)
    # sum |ols| is about 17, so 20000 steps of 1e-3 cross the 1024-step
    # refresh boundary many times and still land on the full fit
    traj = epsilon_stagewise(d, 1e-3, 20000)
    assert np.isfinite(traj).all()
    ols, *_ = np.linalg.lstsq(d.columns, d.response, rcond=None)
    assert np.abs(traj[-1] - ols).max() < 5e-3


def _gram_problem(seed, n=30, m=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, m))
    y = X @ rng.normal(size=m) + 0.5 * rng.normal(size=n)
    d = standardize(X, y)
    G = _gram(d)
    c0 = d.columns.T @ d.response
    return G, c0


def test_cd_sweeps_reaches_a_soft_threshold_fixed_point():
    G, c0 = _gram_problem(0)
    lam = 0.3 * float(np.abs(c0).max())
    beta = np.zeros(6)
    c = c0.copy()
    sweeps = _cd_sweeps(beta, c, G, lam, 1e-12, 100000)
    assert sweeps > 0
    for j in range(6):
        if beta[j] == 0.0:
            assert abs(c[j]) <= lam + 1e-8
        else:
            assert abs(c[j] - lam * np.sign(beta[j])) < 1e-8


def test_cd_sweeps_reports_nonconvergence():
    G, c0 = _gram_problem(1)
    beta = np.zeros(6)
    c = c0.copy()
    assert _cd_sweeps(beta, c, G, 0.01, 1e-14, 1) == -1


def test_stagewise_chunk_sits_still_without_correlation():
    G, _ = _gram_problem(2)
    beta = np.full(6, 0.5)
    c = np.zeros(6)
    traj = np.empty((4, 6))
    _stagewise_chunk(beta, c, G, 0.01, 4, traj, 0)
    assert np.all(traj == 0.5)


def test_lasso_at_t_boundary_budgets(design):
    assert lasso_at_t(design, 0.0).tolist() == [0.0] * 10
    ols, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    big = float(np.abs(ols).sum()) + 10.0
    assert np.abs(lasso_at_t(design, big) - ols).max() < 1e-12
    with pytest.raises(DimensionMismatch):
        lasso_at_t(design, -0.5)


def test_lasso_at_t_diabetes_budget_1000(design, diabetes_paths):
    beta = lasso_at_t(design, 1000.0)
    assert abs(np.abs(beta).sum() - 1000.0) <= 1e-8
    assert set(np.flatnonzero(beta)) == {2, 3, 6, 8}
    via_path = interpolate(diabetes_paths["lasso"], 1000.0)
    assert np.abs(beta - via_path).max() < 1e-6


def test_lasso_at_t_agrees_with_path_interpolation():
    rng = np.random.default_rng(12)
    for _ in range(5):
        X = rng.normal(size=(40, 6))
        y = X @ rng.normal(size=6) + 0.3 * rng.normal(size=40)
        d = standardize(X, y)
        path = fit_path(d, "lasso")
        for frac in (0.2, 0.55, 0.9):
            t = frac * path.t_max
            assert np.abs(lasso_at_t(d, t) - interpolate(path, t)).max() < 1e-6


def test_forward_selection_orthogonal_order_and_fit():
    y = np.array([4.0, -1.0, 2.5, 0.5])
    d = from_unit_columns(np.eye(4), y)
    fwd = forward_selection(d, 4)
    assert fwd.variant == "forward-selection"
    assert fwd.entry_order == [0, 2, 1, 3]
    assert np.abs(fwd.steps[-1].beta - y).max() < 1e-12
    for s in fwd.steps[1:]:
        assert s.gamma == 0.0 and s.A == 0.0


def test_forward_selection_refits_least_squares_each_round(design):
    fwd = forward_selection(design, 10)
    assert fwd.entry_order[0] == 2
    rss_prev = fwd.steps[0].rss
    for s in fwd.steps[1:]:
        sel = list(s.active_after)
        resid = design.response - design.columns @ s.beta
        assert np.abs(design.columns[:, sel].T @ resid).max() < 1e-8
        assert s.rss < rss_prev
        rss_prev = s.rss
    ols, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    assert np.abs(fwd.steps[-1].beta - ols).max() < 1e-8


def test_forward_selection_k_max_bounds(design):
    with pytest.raises(DimensionMismatch):
        forward_selection(design, -1)
    with pytest.raises(DimensionMismatch):
        forward_selection(design, 11)


def test_forward_selection_stops_on_exhausted_residual():
    d = from_unit_columns(np.eye(3), np.array([2.0, 0.0, 0.0]))
    fwd = forward_selection(d, 3)
    assert len(fwd.steps) == 2
    assert fwd.entry_order == [0]


def test_forward_selection_stops_at_a_near_copy(diabetes):
    """BMI plus noise of 1e-6 of its spread, appended to diabetes 10, is the
    11th pick; its append is refused (pivot^2 about 1e-12), and the
    selection returns its first 10 rounds, byte for byte those of k = 10."""
    matrix, response, names = diabetes
    bmi = matrix[:, 2]
    noise = np.random.default_rng(0).standard_normal(bmi.size)
    X = np.column_stack([matrix, bmi + 1e-6 * bmi.std() * noise])
    d = standardize(X, response, (*names, "bmi_near"))
    eleven, ten = forward_selection(d, 11), forward_selection(d, 10)
    assert ten.n_steps == 10 and 10 not in ten.entry_order
    assert eleven.betas.tobytes() == ten.betas.tobytes()
    fields = ("action", "variable", "sign", "active_after", "signs_after",
              "C_max", "rss", "T")
    for a, b in zip(eleven.steps, ten.steps, strict=True):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]


def test_reference_code_imports_only_the_error_classes():
    """The references share no code with the engine: every module under
    ``tests/reference`` imports from ``larspath`` only ``larspath.errors``."""
    modules = sorted((Path(__file__).parent / "reference").glob("*.py"))
    assert {m.name for m in modules} >= {"__init__.py", "oracles.py"}
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] == "larspath":
                    assert name == "larspath.errors", (module.name, name)
