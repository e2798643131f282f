"""Risk-estimation layer: Cp, bootstrap df, hybrid refits, simulation."""

import functools
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from larspath.core import fit_path
from larspath.errors import (
    DimensionMismatch,
    LarsError,
    Underdetermined,
    VariantMismatch,
)
from larspath.model_select import (
    _df_estimates,
    bootstrap_df,
    cp_curve,
    hybrid_r2,
    lars_fitted_values,
    lasso_df_by_support,
    main_effects_first,
    run_simulation_study,
    sigma2_full_ols,
)
from larspath.oracles import forward_selection
from larspath.preprocess import from_unit_columns, quadratic_expand, standardize
from reference.divergence import divergence


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
    """The lasso is charged its nonzero count: 9 at vertices 10 and 11,
    where a coefficient reaches zero and drops, and 10 at vertex 12, where
    df = k would charge 10, 11 and 12.  Stagewise and forward selection
    have no closed-form df and are refused, naming the bootstrap."""
    sigma2 = sigma2_full_ols(design)
    lasso = diabetes_paths["lasso"]
    report = cp_curve(lasso, sigma2)
    assert report.df_used.tolist() == [*range(10), 9, 9, 10]
    assert np.array_equal(report.df_used, np.count_nonzero(lasso.betas, axis=1))
    rss = np.array([s.rss for s in lasso.steps])
    assert np.array_equal(report.cp, rss / sigma2 - design.n + 2.0 * report.df_used)
    for path in (diabetes_paths["stagewise"], forward_selection(design, 5)):
        with pytest.raises(VariantMismatch, match="bootstrap_df"):
            cp_curve(path, sigma2)


def _correlated_tall():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 12))
    X[:, 1] = X[:, 0] + 0.2 * rng.normal(size=60)
    return standardize(X, X @ rng.normal(size=12) + rng.normal(size=60))


def _wide():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(25, 40))
    return standardize(X, X[:, :5] @ rng.normal(size=5) + 0.5 * rng.normal(size=25))


@pytest.mark.parametrize("make", [_correlated_tall, _wide], ids=["60x12", "25x40"])
def test_cp_df_is_the_divergence_of_the_fit(make):
    """The df that ``cp_curve`` charges is Stein's divergence of the fit,
    by finite differences, at every vertex of lars, lasso and positive-lasso
    paths.  Stagewise's divergence is not its nonzero count, so no count
    read from the path can serve it."""
    design = make()
    sigma2 = float(design.response @ design.response) / design.n
    for variant in ("lars", "lasso", "positive-lasso"):
        path = fit_path(design, variant)
        df = divergence(design, functools.partial(fit_path, variant=variant))
        assert np.abs(cp_curve(path, sigma2).df_used - df).max() < 1e-6, variant
    stagewise = fit_path(design, "stagewise")
    df = divergence(design, functools.partial(fit_path, variant="stagewise"))
    assert np.abs(np.count_nonzero(stagewise.betas, axis=1) - df).max() > 0.5


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


@pytest.mark.parametrize("groups", [0, 1])
def test_df_estimators_refuse_fewer_than_two_groups(design, groups):
    """One group leaves no spread for the interval, and zero none at all:
    both are refused before any draw, without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="groups"):
            bootstrap_df(design, lars_fitted_values(design, 2), B=20, groups=groups)
        with pytest.raises(DimensionMismatch, match="groups"):
            lasso_df_by_support(design, B=20, groups=groups)


def test_df_estimates_leave_out_a_group_that_saw_k_once():
    """A group whose draws reached some ``k`` once has no covariance there:
    that ``k``'s estimate leaves the group out, without a divide by zero,
    and a ``k`` that only one group saw twice has no estimate."""
    rng = np.random.default_rng(0)
    sum_fy, sum_f, sum_y = (rng.normal(size=(3, 3, 5)) for _ in range(3))
    count = np.array([[2, 3, 2], [4, 2, 1], [3, 1, 0]])
    sigma2 = 2.0

    def df_of(g, k):
        c = count[g, k]
        cov = (sum_fy[g, k] - sum_f[g, k] * sum_y[g, k] / c) / (c - 1)
        return cov.sum() / sigma2

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _df_estimates(sum_fy, sum_f, sum_y, count, sigma2)
    assert [(e.k, e.groups) for e in out] == [(0, 3), (1, 2)]
    assert out[0].df_hat == pytest.approx(np.mean([df_of(g, 0) for g in range(3)]))
    assert out[1].df_hat == pytest.approx((df_of(0, 1) + df_of(1, 1)) / 2)


@pytest.mark.parametrize("B, groups", [(20.0, 2), (20, 2.5), ("20", 2)])
def test_df_estimators_refuse_non_integer_draw_counts(design, B, groups):
    """A non-integer ``B`` or ``groups`` is refused as a LarsError before any
    draw, rather than failing where the arrays are sized."""
    with pytest.raises(DimensionMismatch, match="integers"):
        bootstrap_df(design, lars_fitted_values(design, 2), B=B, groups=groups)
    with pytest.raises(DimensionMismatch, match="integers"):
        lasso_df_by_support(design, B=B, groups=groups)


def test_df_estimators_take_numpy_integers_and_solve_the_full_fit_once(
        design, monkeypatch):
    """NumPy integers count as the integers they hold, and each estimate
    solves the full least squares fit once for its draws and its sigma2."""
    est = lars_fitted_values(design, 2)
    want = (bootstrap_df(design, est, B=4, groups=2),
            lasso_df_by_support(design, B=4, groups=2))
    solves = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        solves.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    got = bootstrap_df(design, est, B=np.int64(4), groups=np.uint8(2))
    assert len(solves) == 1
    assert got == want[0] and got[0].B == 4 and type(got[0].groups) is int
    got = lasso_df_by_support(design, B=np.int64(4), groups=np.uint8(2))
    assert len(solves) == 2
    assert got == want[1]


@pytest.mark.parametrize("shapes", [
    [(2, 5)], [(2, 3, 442)], [()], [(443,)], [(1, 441)], [(3, 442), (2, 442)],
    [(2, 442), (1, 442)],
], ids=["2x5", "3-d", "scalar", "long-vector", "short-rows", "R-changes", "R-drops-to-one"])
def test_bootstrap_df_refuses_malformed_estimator_output(design, shapes):
    """An estimator returns ``(n,)`` or ``(R, n)`` with one ``R`` for every
    draw; any other output is refused with its shape named, not with a raw
    broadcasting error."""
    outputs = iter(shapes + shapes[-1:] * 20)

    def estimator(y_star):
        return np.zeros(next(outputs))

    bad = shapes[-1]
    with pytest.raises(DimensionMismatch, match=re.escape(f"shape {bad}")):
        bootstrap_df(design, estimator, B=20, groups=2)


def test_lars_fitted_values_shape_and_padding():
    """A walk that ends before ``k_max`` moves is padded with its last
    vertex: y lies in the span of two of the three columns, so the
    correlations vanish after two moves."""
    rng = np.random.default_rng(9)
    X = rng.normal(size=(25, 3))
    d = standardize(X, X @ np.array([2.0, -1.0, 0.0]))
    assert fit_path(d, "lars").n_steps == 2
    est = lars_fitted_values(d, 3)
    fits = est(d.response)
    assert fits.shape == (4, 25)
    assert np.all(fits[0] == 0.0)
    assert np.array_equal(fits[2], fits[3])


def test_lars_fitted_values_refuses_steps_no_walk_can_take(design):
    """``k_max`` above the variables a walk can hold is refused, naming
    ``k_max``, instead of padding rows for moves no walk takes: on the
    10-column diabetes design, k = 11..50 would repeat k = 10."""
    assert len(bootstrap_df(design, lars_fitted_values(design, 10), B=4, groups=2)) == 11
    for k_max in (11, 50):
        with pytest.raises(DimensionMismatch, match=f"k_max={k_max}"):
            lars_fitted_values(design, k_max)
    wide = standardize(np.random.default_rng(4).normal(size=(6, 9)),
                       np.arange(6.0))
    lars_fitted_values(wide, 5)
    with pytest.raises(DimensionMismatch, match="k_max=6 outside 0..5"):
        lars_fitted_values(wide, 6)


def test_unknown_resampling_is_refused_before_the_solve(design, monkeypatch):
    """An unknown ``resampling`` raises a LarsError that is a ValueError,
    for both estimators, before the full least squares solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the resampling name")

    monkeypatch.setattr(np.linalg, "lstsq", no_solve)
    for call in (
        lambda: bootstrap_df(design, lars_fitted_values(design, 2), B=20, groups=2,
                             resampling="wild"),
        lambda: lasso_df_by_support(design, B=20, groups=2, resampling="wild"),
    ):
        with pytest.raises(LarsError, match="unknown resampling 'wild'") as info:
            call()
        assert isinstance(info.value, ValueError)


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


# A value that is not a number is refused by name too, as ``interpolate``
# refuses such a budget.
@pytest.mark.parametrize("sigma2", [0.0, -1.0, float("nan"), float("inf"),
                                    None, "x", [1.0]], ids=repr)
def test_cp_curve_refuses_a_variance_that_is_not_finite_and_positive(diabetes_paths,
                                                                    sigma2):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="sigma2"):
            cp_curve(diabetes_paths["lars"], sigma2)


@pytest.mark.parametrize("k", [1.5, 2.0, "2", None])
def test_hybrid_r2_refuses_a_step_that_is_not_an_integer(diabetes_paths, k):
    path = diabetes_paths["lars"]
    with pytest.raises(DimensionMismatch, match="integer"):
        hybrid_r2(path, k)
    assert hybrid_r2(path, np.int64(2)) == hybrid_r2(path, 2)


@pytest.mark.parametrize("name, call", [
    ("stop_after", lambda d, p, X, y: fit_path(d, "lars", stop_after=1.5)),
    ("stop_after", lambda d, p, X, y: fit_path(d, "lars", stop_after=-1)),
    ("k_max", lambda d, p, X, y: forward_selection(d, 2.0)),
    ("k", lambda d, p, X, y: main_effects_first(p, 2.0, X[:, :3] * X[:, 3:6])),
    ("k_max", lambda d, p, X, y: lars_fitted_values(d, 2.5)),
    ("k_max", lambda d, p, X, y: lars_fitted_values(d, -1)),
    ("n_steps", lambda d, p, X, y: run_simulation_study(X, y, replications=2, n_steps=2.5)),
    ("replications", lambda d, p, X, y: run_simulation_study(X, y, replications=2.0)),
    ("binary_column", lambda d, p, X, y: run_simulation_study(
        X, y, replications=2, n_steps=2, binary_column=1.5)),
    ("binary_column", lambda d, p, X, y: quadratic_expand(X, 1.5)),
    ("seed", lambda d, p, X, y: bootstrap_df(
        d, lars_fitted_values(d, 2), B=4, groups=2, seed=-1)),
    ("seed", lambda d, p, X, y: lasso_df_by_support(d, B=4, groups=2, seed=1.5)),
    ("seed", lambda d, p, X, y: lasso_df_by_support(d, B=4, groups=2, seed="a")),
    ("seed", lambda d, p, X, y: run_simulation_study(
        X, y, seed=-1, replications=2, n_steps=2)),
], ids=["stop_after=1.5", "stop_after=-1", "forward_selection",
        "main_effects_first", "lars_fitted_values=2.5", "lars_fitted_values=-1", "simulation_n_steps", "simulation_replications",
        "simulation_binary_column", "quadratic_expand", "bootstrap_seed=-1", "df_by_support_seed=1.5", "df_by_support_seed=str",
        "simulation_seed=-1"])
def test_count_and_position_arguments_must_be_integers(design, diabetes_paths,
                                                       diabetes, name, call):
    """A count, position or seed that is not an integer, even a whole
    float, and a negative move count or seed are refused with a LarsError
    naming the argument, rather than rounded, read as some other count or
    left to fail inside NumPy."""
    matrix, response, _ = diabetes
    with pytest.raises(LarsError, match=name):
        call(design, diabetes_paths["lars"], matrix, response)


@pytest.mark.parametrize("replications", [0, 1])
def test_simulation_study_refuses_fewer_than_two_replications(diabetes,
                                                              replications):
    matrix, response, _ = diabetes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="replications"):
            run_simulation_study(matrix, response, replications=replications,
                                 n_steps=4)


def test_simulation_study_checks_n_steps_before_any_fit(diabetes, monkeypatch):
    """``n_steps`` beyond the 64 variables forward selection can take is
    refused by its own name before any path is fitted."""
    import larspath.model_select as ms

    matrix, response, _ = diabetes
    fits = []

    def no_fit(*args, **kwargs):
        fits.append(args)
        raise RuntimeError("fitted")

    monkeypatch.setattr(ms, "fit_path", no_fit)
    with pytest.raises(DimensionMismatch, match=r"n_steps=100 outside 0\.\.64"):
        run_simulation_study(matrix, response, replications=2, n_steps=100)
    with pytest.raises(DimensionMismatch, match="n_steps=65"):
        run_simulation_study(matrix, response, replications=2, n_steps=65)
    assert fits == []
    with pytest.raises(RuntimeError, match="fitted"):
        run_simulation_study(matrix, response, replications=2, n_steps=64)


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


def _gaussian(n, m, seed, binary_column=None):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, m))
    if binary_column is not None:
        X[:, binary_column] = r.integers(0, 2, n)
    return X, X @ r.normal(size=m) + r.normal(size=n)


# sha1 of the ``repr`` of each resampling result below, as computed before
# the draws shared their parent design's Gram, when every refit formed its
# own X'X (x86_64, OpenBLAS).
RESAMPLING_SHA1 = {
    ("diabetes10", "bootstrap_df"): "dccf75c36c00b19773000c7d0c71ee21ce8797b3",
    ("diabetes10", "lasso_df_by_support"): "473949a3b8df309863cadfcceacaa73d6d1c979d",
    ("diabetes10", "run_simulation_study"): "7437fbfc4d16974eaf2e66834bb97ff9749d5ea9",
    ("gauss200x40", "bootstrap_df"): "1fd5fb1dfdd59a1fd20c1ab135b42ecf55a480d7",
    ("gauss200x40", "lasso_df_by_support"): "8a5516fa981e57b2888f0e8132e055297e40368f",
    ("gauss200x8", "run_simulation_study"): "16808b31e8d143bf79f6172b08b605e33a0a9cc0",
}


@pytest.mark.parametrize("data, call", list(RESAMPLING_SHA1))
def test_resampling_draws_share_the_parent_design_gram(diabetes, monkeypatch, data, call):
    """Every draw's design holds its parent design's Gram object, and the
    result keeps the bytes of its ``repr``.  The simulation study builds
    its quadratic design itself (64 columns from diabetes, 43 from the
    200 x 8 table) and fits it once before the draws."""
    import larspath.model_select as ms

    seen = []

    def recording(fit):
        def wrapped(design, *args, **kwargs):
            seen.append(design)
            return fit(design, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(ms, "fit_path", recording(ms.fit_path))
    monkeypatch.setattr(ms, "forward_selection", recording(ms.forward_selection))
    raw, response, names = diabetes
    if data == "gauss200x8":
        raw, response = _gaussian(200, 8, 8, binary_column=1)
    elif data == "gauss200x40":
        raw, response = _gaussian(200, 40, 40)
    d = standardize(raw, response)
    if call == "bootstrap_df":
        out = bootstrap_df(d, lars_fitted_values(d, 10), B=20, groups=2, seed=3)
    elif call == "lasso_df_by_support":
        out = lasso_df_by_support(d, B=20, groups=2, seed=3)
    else:
        out = run_simulation_study(raw, response, seed=3, replications=2, n_steps=8)
        d, seen = seen[0], seen[1:]
    assert len(seen) == (2 * 4 if call == "run_simulation_study" else 20)
    assert d._gram is not None
    assert all(draw._gram is d._gram and draw is not d for draw in seen)
    assert hashlib.sha1(repr(out).encode()).hexdigest() == RESAMPLING_SHA1[data, call]


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy.special"])
def test_import_leaves_scipy_stats_unloaded(module):
    """The df intervals import the Student t quantile from scipy.special
    when they first need it, and the cone projection is solved in the
    package; importing scipy.stats, scipy.optimize or scipy.special with the
    package or its CLI would add a sixth to a half of a second to every
    start."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, larspath, larspath.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
