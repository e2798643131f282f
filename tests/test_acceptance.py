"""Whole-system checks with pinned tolerances and runtime budgets.

Each test exercises one end-to-end claim about the package, from the fitted
paths on the bundled data through the risk-estimation layer.  Timing guards
use generous limits so they only catch order-of-magnitude regressions.
"""

import dataclasses
import time

import numpy as np
import scipy.linalg
from scipy.optimize import nnls

from larspath.core import fit_path, interpolate
from larspath.model_select import (
    bootstrap_df,
    cp_curve,
    hybrid_r2,
    lars_fitted_values,
    run_simulation_study,
    sigma2_full_ols,
)
from larspath.preprocess import from_unit_columns, standardize
from reference.oracles import epsilon_stagewise, lasso_at_t, soft_threshold_path


def test_diabetes_additive_path_structure(design):
    t0 = time.perf_counter()
    path = fit_path(design, "lars")
    elapsed = time.perf_counter() - t0
    assert path.n_steps == 10
    assert path.entry_order[:4] == [2, 8, 3, 6]
    assert path.entry_order[-1] == 0
    assert all(s.action == "add" for s in path.steps[1:])
    assert elapsed < 1.0


def test_diabetes_lasso_drop_and_reentry(design):
    t0 = time.perf_counter()
    path = fit_path(design, "lasso")
    elapsed = time.perf_counter() - t0
    assert path.n_steps == 12
    events = [(s.action, s.variable) for s in path.steps[1:]]
    drops = [(k, e) for k, e in enumerate(events) if e[0] == "drop"]
    assert len(drops) == 1
    k, (_, var) = drops[0]
    assert var == 6
    assert events[k + 1] == ("add", 6)
    assert elapsed < 1.0


def test_diabetes_stagewise_projection_exclusions(design):
    t0 = time.perf_counter()
    path = fit_path(design, "stagewise")
    elapsed = time.perf_counter() - t0
    assert path.n_steps == 13
    assert all(s.action == "add" for s in path.steps[1:])
    # variables pushed out of a move by the nonnegativity projection are
    # recorded on the step and missing from the move's working set
    excluded = set()
    for prev, cur in zip(path.steps, path.steps[1:]):
        assert set(cur.projection_dropped) == (
            set(prev.active_after) | {cur.variable}) - set(cur.active_after)
        excluded |= set(cur.projection_dropped)
    assert excluded == {2, 6}
    assert elapsed < 1.0
    assert _stagewise_events(path) == _exact_stagewise_walk(design)[0]


def test_quadratic_design_path_lengths(quad_design):
    t0 = time.perf_counter()
    lasso = fit_path(quad_design, "lasso")
    stagewise = fit_path(quad_design, "stagewise")
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert 100 <= lasso.n_steps <= 106

    # the stagewise count is the exact path's, settled by a walk that shares
    # no code with the engine: the same entrant, sign and projected set at
    # every move, the same vertices, ending at the least squares fit
    events = _stagewise_events(stagewise)
    walk_events, walk_betas = _exact_stagewise_walk(quad_design)
    first = next((k for k, (e, w) in enumerate(zip(events, walk_events), 1)
                  if e != w), min(len(events), len(walk_events)) + 1)
    counts = (f"engine takes {stagewise.n_steps} stagewise moves on the "
              f"quadratic design, the independent walk {len(walk_events)}")
    assert events == walk_events, (
        f"{counts}; their events first differ at move {first}: engine "
        f"{events[first - 1:first]}, walk {walk_events[first - 1:first]}")
    assert stagewise.n_steps == 251, f"{counts}, expected 251"

    betas = np.array([s.beta for s in stagewise.steps])
    gap = np.abs(betas[1:] - walk_betas[1:]).max(axis=1)
    assert np.all(gap <= 1e-7 * np.abs(walk_betas[1:]).max(axis=1))
    ols = np.linalg.lstsq(quad_design.columns, quad_design.response,
                          rcond=None)[0]
    assert np.abs(walk_betas[-1] - ols).max() <= 1e-8 * np.abs(ols).max()
    assert _stagewise_certificate_violations(stagewise) == []


def test_final_coefficient_magnitude_budget(diabetes_paths):
    t_end = diabetes_paths["lars"].steps[-1].T
    assert abs(t_end - 3460.00) <= 0.5


def test_budget_1000_support(design, diabetes_paths):
    beta = interpolate(diabetes_paths["lasso"], 1000.0)
    assert set(np.flatnonzero(beta)) == {2, 3, 6, 8}
    # cross-check with the penalized solver, which shares no path code
    direct = lasso_at_t(design, 1000.0)
    assert set(np.flatnonzero(direct)) == {2, 3, 6, 8}


def test_cp_minimizers_on_both_designs(design, quad_design):
    t0 = time.perf_counter()
    small = cp_curve(fit_path(design, "lars"), sigma2_full_ols(design))
    big = cp_curve(fit_path(quad_design, "lars"), sigma2_full_ols(quad_design))
    elapsed = time.perf_counter() - t0
    assert small.argmin_k == 7
    assert 15 <= big.argmin_k <= 17
    assert elapsed < 10.0


def test_orthogonal_designs_reduce_to_soft_thresholding():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        y = 3.0 * rng.normal(size=n)
        d = from_unit_columns(np.eye(n), y)
        path = fit_path(d, "lasso")
        for k, step in enumerate(path.steps):
            assert np.abs(step.beta - soft_threshold_path(y, k)).max() < 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_penalized_solves_match_path_interpolation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(25):
        X = rng.normal(size=(50, 8))
        y = X @ rng.normal(size=8) + 0.4 * rng.normal(size=50)
        d = standardize(X, y)
        path = fit_path(d, "lasso")
        for t in np.linspace(0.0, path.t_max, 20):
            diff = np.abs(lasso_at_t(d, t) - interpolate(path, t)).max()
            worst = max(worst, float(diff))
    assert worst < 1e-6
    assert time.perf_counter() - t0 < 30.0


def _stagewise_events(path):
    return [(s.variable, s.sign, tuple(s.projection_dropped))
            for s in path.steps[1:]]


def _exact_stagewise_walk(design):
    """The stagewise path from its definition, sharing no code with the engine.

    LARS with one change: the equiangular direction of the signed active
    columns is replaced by its projection onto their convex cone, which is
    the equiangular direction of the columns the projection keeps.  Dense
    X'X, ``np.linalg.solve`` and Lawson-Hanson NNLS on the columns.  Returns
    one ``(entrant, sign, projected_out)`` per move, and the vertices.
    """
    X, y = design.columns, design.response
    m = X.shape[1]
    G = X.T @ X
    c0 = X.T @ y
    c = c0.copy()
    beta = np.zeros(m)
    j = int(np.argmax(np.abs(c)))
    entrant = (j, 1 if c[j] >= 0 else -1)
    active = {}
    events, betas = [], [beta.copy()]

    def gram_ones(idx, s):
        return np.linalg.solve(G[np.ix_(idx, idx)] * np.outer(s, s),
                               np.ones(idx.size))

    for _ in range(8 * m):
        active[entrant[0]] = entrant[1]
        idx = np.array(sorted(active))
        s = np.array([active[i] for i in idx], dtype=float)
        g = gram_ones(idx, s)
        out = ()
        if g.min() <= 0.0:
            Xs = X[:, idx] * s
            p, _ = nnls(Xs, Xs @ g)
            out = tuple(int(i) for i in idx[p <= 0.0])
            for i in out:
                del active[i]
            idx, s = idx[p > 0.0], s[p > 0.0]
            g = gram_ones(idx, s)
        events.append(entrant + (out,))
        A = 1.0 / np.sqrt(g.sum())
        d = s * A * g
        a = G[:, idx] @ d
        C = float(np.mean(s * c[idx]))
        gamma, entrant = C / A, None
        # a candidate ties the falling envelope C - gamma*A on either sign;
        # a column just projected out falls away from it (den < 0)
        for sign in (1, -1):
            num, den = C - sign * c, A - sign * a
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(den > 0.0, num / den, np.inf)
            r[idx] = np.inf
            r[r < 0.0] = np.inf
            i = int(np.argmin(r))
            if r[i] < gamma:
                gamma, entrant = float(r[i]), (i, sign)
        beta[idx] += gamma * d
        c = c0 - G @ beta
        betas.append(beta.copy())
        if entrant is None:
            break
    return events, np.array(betas)


def _stagewise_certificate_violations(path):
    """Stagewise vertex conditions, each scaled to that vertex's envelope.

    Every move changes each mover's coefficient in its sign's direction.  At
    every vertex but the last, where the envelope is zero, the movers are
    tied at the envelope with their signs and no other variable is above it.
    """
    X, y = path.design.columns, path.design.response
    steps = path.steps
    rtol = 1e-6
    bad = []
    for k in range(1, len(steps)):
        movers = list(steps[k].active_after)
        signs = np.array(steps[k].signs_after, dtype=float)
        delta = steps[k].beta[movers] - steps[k - 1].beta[movers]
        if not np.all(signs * delta > 0.0):
            bad.append((k, "mover against its sign"))
        if k == len(steps) - 1:
            break
        c = X.T @ (y - X @ steps[k].beta)
        C_k = float(np.abs(c[movers]).max())
        if float((signs * c[movers]).min()) < C_k * (1 - rtol):
            bad.append((k, "movers untied"))
        others = np.setdiff1d(np.arange(path.design.m), movers)
        if others.size and float(np.abs(c[others]).max()) > C_k * (1 + rtol):
            bad.append((k, "non-mover above the envelope"))
    return bad


def _optimality_violations(path):
    """Every optimality condition a fitted path must satisfy, by vertex."""
    d = path.design
    X, y = d.columns, d.response
    steps = path.steps
    scale = max(1.0, steps[0].C_max)
    tol = 1e-8 * scale
    bad = []

    c_prev = X.T @ y
    for k in range(1, len(steps)):
        s = steps[k]
        prev = steps[k - 1]
        movers = list(s.active_after)
        c = X.T @ (y - X @ s.beta)

        # equal profile: every moving variable stays tied with the envelope
        if movers:
            cm = np.abs(c[movers])
            if cm.max() - cm.min() > tol:
                bad.append((path.variant, k, "active correlations untied"))
            c_hat = cm.max()
            others = [j for j in range(d.m) if j not in s.active_after]
            for l in others:
                val = c[l] if path.variant == "positive-lasso" else abs(c[l])
                if val > c_hat + tol:
                    bad.append((path.variant, k, f"variable {l} above envelope"))

        # recorded envelope values strictly decrease move over move
        if k >= 2 and not s.C_max < prev.C_max:
            bad.append((path.variant, k, "envelope did not decrease"))

        # travelled distance never exceeds the distance to the residual
        limit = s.C_max / s.A
        slack = 1e-9 if k == len(steps) - 1 else 1e-12
        if not s.gamma <= limit * (1 + slack):
            bad.append((path.variant, k, "move longer than full travel"))

        # untouched coordinates are bit-for-bit immobile
        frozen = [j for j in range(d.m) if j not in s.active_after]
        if frozen and not np.array_equal(s.beta[frozen], prev.beta[frozen]):
            bad.append((path.variant, k, "frozen coordinate moved"))

        # recorded signs reflect the correlations seen at the move start
        for j, sgn in zip(s.active_after, s.signs_after):
            if abs(c_prev[j]) > tol and np.sign(c_prev[j]) != sgn:
                bad.append((path.variant, k, f"sign of {j} contradicts data"))

        if path.variant in ("lasso", "positive-lasso"):
            for j, sgn in zip(s.active_after, s.signs_after):
                if s.beta[j] != 0.0 and np.sign(s.beta[j]) != sgn:
                    bad.append((path.variant, k, f"coefficient {j} crossed zero"))
        if path.variant == "stagewise":
            for j, sgn in zip(s.active_after, s.signs_after):
                delta = s.beta[j] - prev.beta[j]
                if delta != 0.0 and np.sign(delta) != sgn:
                    bad.append((path.variant, k, f"move of {j} against its sign"))

        c_prev = c
    return bad


def test_path_optimality_conditions_hold_everywhere(diabetes_paths, quad_paths,
                                                    random_paths):
    corpus = (list(diabetes_paths.values()) + list(quad_paths.values())
              + list(random_paths))
    violations = []
    for path in corpus:
        violations.extend(_optimality_violations(path))
    assert violations == []


def test_divergence_of_the_k_step_fitter_counts_k():
    # sum_i d mu_i / d y_i of the k-step fit equals the number of selected
    # variables; measured by forward differences well inside a linear piece
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(900 + i)
        X = rng.normal(size=(30, 8))
        y = X @ rng.normal(size=8) + 0.5 * rng.normal(size=30)
        d = standardize(X, y)
        est = lars_fitted_values(d, 5)
        h = 1e-5 * float(np.linalg.norm(d.response))
        base = est(d.response)
        div = np.zeros(6)
        for j in range(30):
            bumped = d.response.copy()
            bumped[j] += h
            div += (est(bumped)[:, j] - base[:, j]) / h
        worst = max(worst, float(np.abs(div - np.arange(6)).max()))
    assert worst < 0.01
    assert time.perf_counter() - t0 < 60.0


def test_bootstrap_df_intervals_cover_the_step_index(design):
    t0 = time.perf_counter()
    estimator = lars_fitted_values(design, 10)
    estimates = bootstrap_df(design, estimator, B=100, groups=10, seed=0)
    elapsed = time.perf_counter() - t0
    covered = sum(1 for e in estimates[1:] if e.ci_low <= e.k <= e.ci_high)
    assert covered >= 9
    assert elapsed < 60.0


def test_simulation_study_relative_performance(diabetes):
    matrix, response, _ = diabetes
    t0 = time.perf_counter()
    res = run_simulation_study(matrix, response, seed=0, replications=100,
                               n_steps=40)
    elapsed = time.perf_counter() - t0
    assert abs(res.true_R2 - 0.416) <= 0.002
    lars_pe = res.pe_curves["lars"]
    assert abs(float(lars_pe.max()) - 0.963) <= 0.02
    assert abs(int(lars_pe.argmax()) - 10) <= 2
    fwd_pe = res.pe_curves["forward-selection"]
    assert abs(float(fwd_pe.max()) - 0.950) <= 0.02
    assert abs(int(fwd_pe.argmax()) - 3) <= 2
    assert elapsed < 300.0


def test_hybrid_refit_identity_across_instances():
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = int(rng.integers(30, 61))
        m = int(rng.integers(4, 9))
        X = rng.normal(size=(n, m))
        y = X @ rng.normal(size=m) + 0.5 * rng.normal(size=n)
        d = standardize(X, y)
        path = fit_path(d, "lars")
        tss = path.steps[0].rss
        for k in range(1, path.n_steps + 1):
            r2_path, r2_refit, rho = hybrid_r2(path, k)
            assert r2_refit >= r2_path - 1e-12
            r2_prev = 1.0 - path.steps[k - 1].rss / tss
            gain = (1 - rho) ** 2 / (rho * (2 - rho)) * (r2_path - r2_prev)
            assert abs((r2_refit - r2_path) - gain) < 1e-8


def test_tiny_step_iteration_converges_linearly_to_the_path(quad_design):
    t0 = time.perf_counter()
    path = fit_path(quad_design, "stagewise")

    # vertex list refined at coefficient zero crossings, where the
    # magnitude budget has a kink inside a move
    pts = [path.steps[0].beta]
    for prev, cur in zip(path.steps, path.steps[1:]):
        b0, b1 = prev.beta, cur.beta
        fs = sorted(b0[j] / (b0[j] - b1[j]) for j in np.flatnonzero(b0 * b1 < 0))
        for f in fs:
            pts.append(b0 + f * (b1 - b0))
        pts.append(b1)
    B = np.vstack(pts)
    Ts = np.abs(B).sum(axis=1)
    assert np.all(np.diff(Ts) > -1e-9)

    def beta_at(t):
        if t <= Ts[0]:
            return B[0]
        if t >= Ts[-1]:
            return B[-1]
        i = int(np.searchsorted(Ts, t))
        f = (t - Ts[i - 1]) / (Ts[i] - Ts[i - 1])
        return B[i - 1] + f * (B[i] - B[i - 1])

    sups = []
    for eps in (0.5, 0.25, 0.125, 0.0625):
        n_steps = int(5500 / eps)
        traj = epsilon_stagewise(quad_design, eps, n_steps)
        budgets = np.abs(traj).sum(axis=1)
        assert budgets.max() >= 3400.0
        worst = 0.0
        for s in range(0, n_steps, 10):
            if budgets[s] > 3400.0:
                continue
            diff = traj[s] - beta_at(budgets[s])
            worst = max(worst, float(np.linalg.norm(diff)))
        sups.append(worst)
    for coarse, fine in zip(sups, sups[1:]):
        assert 1.5 <= coarse / fine <= 2.5
    assert time.perf_counter() - t0 < 120.0


def test_path_runtime_within_factor_of_one_least_squares_solve():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(2000, 200))
    y = X @ rng.normal(size=200) + rng.normal(size=2000)
    d = standardize(X, y)
    path_times, qr_times = [], []
    for _ in range(5):
        # A fresh copy holds no X'X, so every timed fit forms its own, as
        # the paper's O(m^3 + n m^2) count has it.
        fresh = dataclasses.replace(d)
        t0 = time.perf_counter()
        path = fit_path(fresh, "lars")
        path_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        Q, R = np.linalg.qr(d.columns)
        scipy.linalg.solve_triangular(R, Q.T @ d.response)
        qr_times.append(time.perf_counter() - t0)
    assert path.n_steps == 200
    assert np.median(path_times) < 5.0 * np.median(qr_times)
