import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

from larspath.core import (
    TIE_RTOL,
    _direction,
    _next_event,
    _scan_drop,
    _scan_join,
    fit_path,
)
from larspath.errors import DimensionMismatch
from larspath.model_select import main_effects_first
from larspath.preprocess import StandardizedDesign, from_unit_columns, standardize

from factors import from_gram


def plain_factor(design, active, signs=None):
    k = len(active)
    signs = (1,) * k if signs is None else signs
    cols = design.columns[:, list(active)]
    s = np.asarray(signs, dtype=float)
    return from_gram(np.outer(s, s) * (cols.T @ cols))


def direction(design, active, signs, factor, cone):
    """What ``_direction`` returns on ``factor``, plus the kept variables
    and signs, ``u = X_kept sw`` and ``a = X'u``."""
    active, signs = np.asarray(active), np.asarray(signs, dtype=float)
    retained, A, sw = _direction(factor, signs, cone)
    if retained is not None:
        active, signs = active[retained], signs[retained]
    u = design.columns[:, active] @ sw
    return SimpleNamespace(retained=retained, A=A, sw=sw,
                           active=tuple(active.tolist()), signs=signs, u=u,
                           a=design.columns.T @ u)


def positive_scan(c, C_hat, A, a, candidates):
    """``_scan_join`` on the positive branch, nothing leaving."""
    return _scan_join(np.asarray(c, dtype=float), C_hat, A, a,
                      np.asarray(candidates, dtype=int), np.empty(0, dtype=int),
                      np.empty(0), True, TIE_RTOL * C_hat)


def test_drop_candidate_none_when_moving_away():
    gamma, pos = _scan_drop(np.array([1.0, -2.0]), np.array([0.5, -0.25]), 0.0)
    assert gamma == np.inf and pos is None


def test_drop_candidate_first_crossing():
    gamma, pos = _scan_drop(np.array([1.0]), np.array([-0.5]), 0.0)
    assert gamma == 2.0 and pos == 0
    gamma, pos = _scan_drop(np.array([1.0, 0.3, -4.0]), np.array([-0.5, -0.3, 1.0]), 0.0)
    assert gamma == 1.0 and pos == 1


def test_drop_scan_skips_zero_rates_without_warning():
    """Entries with a zero rate (a zero coefficient among them, 0/0) never
    cross, and the scan divides nothing by zero to find that out."""
    beta = np.array([1.0, 0.0, -2.0, 0.25, -0.0])
    direction = np.array([0.0, 0.0, 1.0, -0.25, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _scan_drop(beta, direction, 0.0) == (1.0, 3)
        assert _scan_drop(beta, np.zeros(5), 0.0) == (np.inf, None)
        assert _scan_drop(np.zeros(3), np.zeros(3), 0.0) == (np.inf, None)


def test_drop_scan_ignores_a_crossing_at_the_floor():
    """Crossings at 1 and 2: a floor of exactly 1 leaves the second, a floor
    just below 1 the first.  Equal crossings take the lower position."""
    beta, direction = np.array([1.0, 1.0]), np.array([-1.0, -0.5])
    assert _scan_drop(beta, direction, 1.0) == (2.0, 1)
    assert _scan_drop(beta, direction, np.nextafter(1.0, 0.0)) == (1.0, 0)
    assert _scan_drop(np.array([1.0, 2.0]), np.array([-1.0, -2.0]), 0.0) == (1.0, 0)


def test_drop_scan_finds_a_crossing_of_tiny_entries():
    """1e-200 against a rate of -1e-200 crosses at 1, though the product
    of the two underflows to -0.0."""
    assert 1e-200 * -1e-200 == 0.0
    assert _scan_drop(np.array([1e-200]), np.array([-1e-200]), 0.5) == (1.0, 0)


def test_arbitration():
    assert _next_event(2.0, 3.0, np.inf) == (2.0, "join")
    assert _next_event(2.0, 3.0, 1.5) == (1.5, "drop")
    # exact tie goes to the drop
    assert _next_event(2.0, 3.0, 2.0) == (2.0, "drop")
    # a join no sooner than the full travel gives way to the final move,
    # and a drop at the final move still wins
    assert _next_event(3.0, 3.0, np.inf) == (3.0, "final")
    assert _next_event(np.inf, 3.0, 3.0) == (3.0, "drop")


def test_diabetes_drop_zeroes_the_coefficient(diabetes_paths):
    path = diabetes_paths["lasso"]
    drop = next(s for s in path.steps if s.action == "drop")
    assert drop.variable == 6
    assert drop.beta[6] == 0.0
    assert 6 not in drop.active_after
    after = path.steps[drop.step_index + 1]
    assert after.action == "add" and after.variable == 6
    assert 6 in after.active_after


# ------------------------------------------------------------- stagewise


def test_stagewise_direction_interior_is_identity():
    d = standardize(np.random.default_rng(0).normal(size=(30, 4)),
                    np.random.default_rng(1).normal(size=30))
    f = plain_factor(d, (0, 1))
    plain = direction(d, (0, 1), (1, 1), f, False)
    assert plain.sw.min() > 0
    face = direction(d, (0, 1), (1, 1), f, True)
    assert face.retained is None  # nothing projected out
    assert f.active_dim == 2
    assert face.A == plain.A and np.array_equal(face.sw, plain.sw)


def test_stagewise_direction_two_variable_cone():
    """Direction outside a two-ray cone projects onto the nearer ray."""
    G = np.array([[4.0, 1.5], [1.5, 1.0]])
    X = np.linalg.cholesky(G).T
    d = StandardizedDesign(
        columns=X, response=np.zeros(2), column_means=np.zeros(2),
        column_scales=np.ones(2), response_mean=0.0,
        column_names=("a", "b"), centered=False,
    )
    f = from_gram(G)
    assert direction(d, (0, 1), (1, 1), f, False).sw.min() < 0
    face = direction(d, (0, 1), (1, 1), f, True)
    assert tuple(np.delete([0, 1], face.retained)) == (0,)
    assert f.active_dim == 1  # refactorized in place to the face
    assert face.active == (1,)
    assert np.allclose(face.u, X[:, 1] / np.linalg.norm(X[:, 1]))


def test_stagewise_diabetes_event(design, diabetes_paths):
    path = diabetes_paths["stagewise"]
    k = next(i for i, s in enumerate(path.steps) if s.projection_dropped)
    before, event = path.steps[k - 1], path.steps[k]
    active = tuple(before.active_after) + (event.variable,)
    signs = tuple(before.signs_after) + (event.sign,)
    f = plain_factor(design, active, signs)
    face = direction(design, active, signs, f, True)
    dropped = tuple(sorted(np.delete(active, face.retained).tolist()))
    assert dropped == (2, 6)
    assert set(face.active) == set(active) - {2, 6}
    assert (face.signs * face.sw).min() > 0
    # the face keeps the equal-angle property
    for j, s in zip(face.active, face.signs):
        assert abs(s * design.columns[:, j] @ face.u - face.A) < 1e-10


def test_stagewise_never_moves_a_coefficient_against_its_sign(quad_paths):
    path = quad_paths["stagewise"]
    for prev, cur in zip(path.steps, path.steps[1:]):
        delta = cur.beta - prev.beta
        sgn = dict(zip(cur.active_after, cur.signs_after))
        for j in np.flatnonzero(delta):
            assert j in sgn
            assert np.sign(delta[j]) == sgn[j]


# -------------------------------------------------------------- positive


def test_positive_step_scans_one_branch():
    y = np.array([5.0, -4.0, 3.0])
    d = from_unit_columns(np.eye(3), y)
    b = direction(d, (0,), (1,), plain_factor(d, (0,)), False)
    gamma, joining, sign, _ = positive_scan(y, 5.0, b.A, b.a, [1, 2])
    assert sign == 1
    # variable 1 is more correlated in absolute value but on the wrong side
    assert joining == 2
    assert abs(gamma - 2.0) < 1e-12


def test_positive_step_formal_ratio_beyond_full_travel():
    # the one-sided ratio can land past the point where the envelope hits
    # zero; the walk then prefers its final move and stops early
    y = np.array([5.0, -4.0])
    d = from_unit_columns(np.eye(2), y)
    b = direction(d, (0,), (1,), plain_factor(d, (0,)), False)
    gamma, joining, _, _ = positive_scan(y, 5.0, b.A, b.a, [1])
    assert abs(gamma - 9.0) < 1e-12 and joining == 1
    path = fit_path(d, "positive-lasso")
    assert path.n_steps == 1
    assert np.allclose(path.steps[-1].beta, [5.0, 0.0])


def test_positive_step_no_candidate():
    # candidate moving exactly parallel to the envelope, strictly below it
    x2 = np.array([0.5, 0.5, 2**-0.5, 0.0])
    X = np.column_stack([np.eye(4)[:, 0], np.eye(4)[:, 1], x2])
    y = np.array([5.0, 5.0, -1.0, 0.0])
    d = from_unit_columns(X, y)
    b = direction(d, (0, 1), (1, 1), plain_factor(d, (0, 1)), False)
    c = X.T @ y
    assert abs(b.a[2] - b.A) < 1e-15
    assert c[2] < 5.0
    assert positive_scan(c, 5.0, b.A, b.a, [2]) is None


def test_positive_path_stays_nonnegative(diabetes_paths):
    path = diabetes_paths["positive-lasso"]
    for s in path.steps:
        assert s.beta.min() >= 0.0
        assert all(sg == 1 for sg in s.signs_after)


def test_positive_path_ignores_negatively_correlated_variable():
    # orthogonal columns keep every correlation's sign fixed, so the
    # variable that starts out negative can never come back around
    y = np.array([5.0, 3.0, 2.0, -4.0])
    d = from_unit_columns(np.eye(4), y)
    path = fit_path(d, "positive-lasso")
    assert path.entry_order == [0, 1, 2]
    for s in path.steps:
        assert 3 not in s.active_after
        assert s.beta[3] == 0.0
    assert np.allclose(path.steps[-1].beta, [5.0, 3.0, 2.0, 0.0])


def test_positive_endpoint_is_the_nonnegative_least_squares_fit(design,
                                                                diabetes_paths):
    path = diabetes_paths["positive-lasso"]
    ref, _ = scipy.optimize.nnls(design.columns, design.response)
    assert np.abs(path.steps[-1].beta - ref).max() < 1e-6
    # and it differs from unconstrained least squares, which goes negative
    ols, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    assert ols.min() < 0
    assert np.abs(path.steps[-1].beta - ols).max() > 1.0


def test_positive_matches_plain_on_all_positive_orthogonal():
    y = np.array([4.0, 3.0, 2.0, 1.0])
    d = from_unit_columns(np.eye(4), y)
    a = fit_path(d, "lasso")
    b = fit_path(d, "positive-lasso")
    assert a.n_steps == b.n_steps
    for sa, sb in zip(a.steps, b.steps):
        assert sa.variable == sb.variable
        assert np.allclose(sa.beta, sb.beta, atol=1e-12)


def test_variants_coincide_without_events():
    """On a walk with no drops and no projections all variants agree."""
    r = np.random.default_rng(14)
    X = r.normal(size=(50, 5))
    y = X @ np.array([3.0, 2.5, 2.0, 1.5, 1.0]) + 0.1 * r.normal(size=50)
    d = standardize(X, y)
    paths = {v: fit_path(d, v) for v in ("lars", "lasso", "stagewise")}
    assert all(s.action == "add" for s in paths["lasso"].steps[1:])
    assert all(not s.projection_dropped for s in paths["stagewise"].steps)
    for v in ("lasso", "stagewise"):
        assert paths[v].n_steps == paths["lars"].n_steps
        for sa, sb in zip(paths["lars"].steps, paths[v].steps):
            assert sa.variable == sb.variable
            assert np.allclose(sa.beta, sb.beta, atol=1e-10)


# ------------------------------------------------------ two-stage fitting


def test_main_effects_first_on_diabetes(diabetes, design, diabetes_paths):
    matrix, response, names = diabetes
    base = diabetes_paths["lars"]
    k = 4
    chosen = sorted(base.steps[k].active_after)
    assert chosen == [2, 3, 6, 8]
    centered = matrix - matrix.mean(axis=0)
    cols, labels = [], []
    for a in range(len(chosen)):
        for b in range(a + 1, len(chosen)):
            i, j = chosen[a], chosen[b]
            cols.append(centered[:, i] * centered[:, j])
            labels.append(f"{names[i]}:{names[j]}")
    inner = main_effects_first(design, base, k, np.column_stack(cols), labels)
    assert inner.design.m == 6
    assert 1 <= inner.n_steps <= 6
    assert inner.design.column_names == tuple(labels)


def test_main_effects_first_zero_residual_gives_empty_path():
    r = np.random.default_rng(6)
    X = r.normal(size=(20, 2))
    y = X @ np.array([1.0, -2.0])
    y -= y.mean()
    X2 = r.normal(size=(20, 3))
    d = standardize(X, y)
    base = fit_path(d)
    # the full fit is exact, so nothing is left for the second stage
    assert base.steps[-1].rss < 1e-9 * float(y @ y)
    inner = main_effects_first(d, base, base.n_steps, X2)
    assert inner.n_steps == 0


def test_main_effects_first_fits_a_small_but_real_residual():
    """A residual of about 1e-6 of |y|, far above rounding noise, is
    fitted: only a negligible residual gives the empty path."""
    r = np.random.default_rng(6)
    X = r.normal(size=(20, 2))
    y = X @ np.array([1.0, -2.0])
    noise = r.normal(size=20)
    noise -= noise.mean()
    y += 1e-6 * np.linalg.norm(y) / np.linalg.norm(noise) * noise
    y -= y.mean()
    X2 = r.normal(size=(20, 3))
    d = standardize(X, y)
    base = fit_path(d)
    residual = d.response - d.columns @ base.betas[-1]
    assert 1e-7 < np.linalg.norm(residual) / np.linalg.norm(y) < 1e-5
    inner = main_effects_first(d, base, base.n_steps, X2)
    assert inner.n_steps >= 1
    assert inner.steps[-1].rss < inner.steps[0].rss


def test_main_effects_first_bad_step_index(design, diabetes_paths):
    base = diabetes_paths["lars"]
    with pytest.raises(DimensionMismatch, match=r"k=11 outside 0\.\.10"):
        main_effects_first(design, base, 11, np.ones((design.n, 2)))
    with pytest.raises(DimensionMismatch, match=r"k=-1 outside 0\.\.10"):
        main_effects_first(design, base, -1, np.ones((design.n, 2)))
