import dataclasses
import importlib.util
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import nnls

import larspath
from larspath import core
from larspath.core import (
    TIE_RTOL,
    Path,
    VariantPolicy,
    _direction,
    _GramCache,
    _scan_join,
    fit_path,
    interpolate,
)
from larspath.errors import (
    DegenerateColumn,
    LarsError,
    MaxStepsExceeded,
    StalledPath,
    TieWarning,
    TOutOfRange,
    VariantMismatch,
)
from larspath.linalg import CholeskyFactor
from larspath.oracles import forward_selection
from larspath.preprocess import from_unit_columns, standardize

rng = np.random.default_rng(11)


def signed_factor(design, active, signs):
    cols = design.columns[:, list(active)]
    s = np.asarray(signs, dtype=float)
    return CholeskyFactor.from_gram(np.outer(s, s) * (cols.T @ cols))


def equiangular(design, active, signs):
    """``A`` and the signed weights ``sw`` from ``_direction`` on the signed
    Gram factor of ``active``, with ``u = X_A sw`` and ``a = X'u``."""
    s = np.asarray(signs, dtype=float)
    _, retained, A, sw = _direction(signed_factor(design, active, signs), s, False)
    assert retained is None
    u = design.columns[:, list(active)] @ sw
    return A, sw, u, design.columns.T @ u


def scan_join(c, C_hat, A, a, candidates):
    """``_scan_join`` on both sign branches, nothing leaving, with the
    walk's tie tolerance."""
    cand_idx = np.asarray(candidates, dtype=int)
    return _scan_join(np.asarray(c, dtype=float), C_hat, A, a, cand_idx, {},
                      False, TIE_RTOL * max(1.0, C_hat))


def random_design(n, m, seed):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, m))
    y = X @ r.normal(size=m) + r.normal(size=n)
    return standardize(X, y)


# ---------------------------------------------------------------- direction


def test_equiangular_singleton():
    d = random_design(30, 4, 0)
    for j in range(4):
        for s in (1, -1):
            A, sw, u, _ = equiangular(d, (j,), (s,))
            assert abs(A - 1.0) < 1e-12
            assert np.allclose(u, s * d.columns[:, j])
            assert np.allclose(s * sw, [1.0])


def test_equiangular_orthogonal_active_set():
    for k in (2, 3, 5):
        d = from_unit_columns(np.eye(8), rng.normal(size=8))
        active = tuple(range(k))
        signs = tuple(1 for _ in range(k))
        A, sw, u, _ = equiangular(d, active, signs)
        assert abs(A - k**-0.5) < 1e-12
        assert np.allclose(sw, k**-0.5)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12


def test_equiangular_correlated_pair():
    # two unit columns with inner product 0.5
    X = np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)], [0.0, 0.0]])
    d = from_unit_columns(X, np.zeros(3))
    A, *_ = equiangular(d, (0, 1), (1, 1))
    assert abs(A - math.sqrt(0.75)) < 1e-12


def test_equiangular_invariants_random():
    """Unit direction, equal signed inner products, matching normalization."""
    for trial in range(10):
        d = random_design(50, 8, 100 + trial)
        r = np.random.default_rng(trial)
        k = int(r.integers(1, 7))
        active = tuple(r.choice(8, size=k, replace=False))
        signs = tuple(int(s) for s in r.choice([-1, 1], size=k))
        A, sw, u, a = equiangular(d, active, signs)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-10
        for j, s in zip(active, signs):
            assert abs(s * d.columns[:, j] @ u - A) < 1e-10
        G = d.columns[:, list(active)].T @ d.columns[:, list(active)]
        Gs = np.outer(signs, signs) * G
        assert abs(A - np.linalg.solve(Gs, np.ones(k)).sum() ** -0.5) < 1e-10
        # the walk's Gram product G[:, A] sw is the same a = X'u
        assert np.allclose(_GramCache(d.columns).stack(np.array(active), sw), a)


def test_next_join_orthogonal_gap():
    y = np.array([5.0, -3.0, 2.0, 1.0, -0.5])
    d = from_unit_columns(np.eye(5), y)
    A, _, _, a = equiangular(d, (0,), (1,))
    gamma, joining, sign, n_tied = scan_join(y, 5.0, A, a, [1, 2, 3, 4])
    assert n_tied == 1
    assert abs(gamma - 2.0) < 1e-12  # 5 - |-3|
    assert joining == 1
    assert sign == -1


def test_next_join_tie_warns_and_takes_lowest_index():
    y = np.array([5.0, 3.0, 3.0])
    d = from_unit_columns(np.eye(3), y)
    A, _, _, a = equiangular(d, (0,), (1,))
    gamma, joining, sign, n_tied = scan_join(y, 5.0, A, a, [1, 2])
    assert n_tied == 2
    assert abs(gamma - 2.0) < 1e-12
    assert joining == 1
    assert sign == 1
    # the walk warns about the tie and takes the lower index
    with pytest.warns(TieWarning, match="2 candidates tie"):
        path = fit_path(d)
    assert path.steps[2].variable == 1
    assert abs(path.steps[1].gamma - 2.0) < 1e-12


def test_next_join_no_candidates():
    d = from_unit_columns(np.eye(2), np.ones(2))
    A, _, _, a = equiangular(d, (0,), (1,))
    assert scan_join(np.ones(2), 1.0, A, a, []) is None


def scan_leaving(values, left_signs, positive=False):
    """``_scan_join`` at envelope 1 and rate 1/2 over the candidates
    ``values`` ({variable: (c, a)}) of a 10-variable design."""
    c, a = np.zeros(10), np.zeros(10)
    for j, (cj, aj) in values.items():
        c[j], a[j] = cj, aj
    cand_idx = np.array(sorted(values))
    return _scan_join(c, 1.0, 0.5, a, cand_idx, left_signs, positive, TIE_RTOL)


def test_leaver_same_sign_branch_is_barred():
    """A variable that leaves at this vertex sits on the envelope: its
    same-sign ratio is 0/0 and would tie at once; the scan bars it."""
    values = {1: (0.25, 0.0), 3: (1.0, 0.5)}   # 1: (1 - 0.25) / (0.5 - 0)
    assert scan_leaving(values, {}) == (0.0, 3, 1, 1)
    assert scan_leaving(values, {3: 1}) == (1.5, 1, 1, 1)
    # the same for a leaver with a negative sign, on the negative branch
    values = {1: (0.25, 0.0), 3: (-1.0, -0.5)}
    assert scan_leaving(values, {}) == (0.0, 3, -1, 1)
    assert scan_leaving(values, {3: -1}) == (1.5, 1, 1, 1)


def test_leaver_opposite_branch_stays_live():
    """The leaver's opposite branch is scanned, and it wins when it is the
    minimum: (1 + 1) / (0.5 + 0.5) = 2."""
    assert scan_leaving({3: (1.0, 0.5)}, {3: 1}) == (2.0, 3, -1, 1)
    assert scan_leaving({3: (-1.0, -0.5)}, {3: -1}) == (2.0, 3, 1, 1)
    # another candidate ties it (6: 1 / 0.5 = 2): the lower index joins
    values = {3: (1.0, 0.5), 6: (0.0, 0.0)}
    assert scan_leaving(values, {3: 1}) == (2.0, 3, -1, 2)


def test_positive_scan_ignores_a_departing_negative_sign():
    """The positive variant scans one branch; a leaver recorded with sign -1
    does not bar it, while one recorded with sign +1 does."""
    values = {3: (-0.25, -0.25), 7: (0.5, 0.25)}   # 1.25 / 0.75 and 0.5 / 0.25
    want = scan_leaving(values, {}, positive=True)
    assert want == (1.25 / 0.75, 3, 1, 1)
    assert scan_leaving(values, {3: -1}, positive=True) == want
    assert scan_leaving(values, {3: 1}, positive=True) == (2.0, 7, 1, 1)
    assert scan_leaving({3: (-0.25, -0.25)}, {3: 1}, positive=True) is None


def test_tie_takes_the_lowest_index_and_counts_the_tied():
    """Variables 5 (positive branch) and 8 (negative branch) tie at 1; 2
    comes later.  The lowest tied index joins, and both count as tied."""
    values = {2: (0.0, 0.0), 5: (0.5, 0.0), 8: (-0.5, 0.0)}
    assert scan_leaving(values, {}) == (1.0, 5, 1, 2)
    # with 5 leaving on its positive branch, 8 joins alone
    assert scan_leaving(values, {5: 1}) == (1.0, 8, -1, 1)


# ---------------------------------------------------------------- full walks


def test_identity_design_step_lengths():
    """Orthogonal walk: each move closes the gap between successive order
    statistics, scaled by the square root of the active count."""
    y = np.array([7.0, -5.0, 4.0, -2.5, 1.0, 0.5])
    n = y.size
    d = from_unit_columns(np.eye(n), y)
    path = fit_path(d)
    assert path.n_steps == n
    mags = np.sort(np.abs(y))[::-1]
    for k in range(1, n):
        expect = math.sqrt(k) * (mags[k - 1] - mags[k])
        assert abs(path.steps[k].gamma - expect) < 1e-12
    assert abs(path.steps[n].gamma - math.sqrt(n) * mags[-1]) < 1e-12
    assert np.allclose(path.steps[-1].beta, y, atol=1e-12)


def test_entry_signs_match_initial_correlations():
    d = random_design(60, 6, 3)
    path = fit_path(d)
    c0 = d.columns.T @ d.response
    first = path.steps[1]
    assert first.variable == int(np.argmax(np.abs(c0)))
    assert first.sign == int(np.sign(c0[first.variable]))


def test_diabetes_plain_path(diabetes_paths):
    path = diabetes_paths["lars"]
    assert path.n_steps == 10
    assert path.entry_order == [2, 8, 3, 6, 1, 9, 4, 7, 5, 0]
    assert all(s.action == "add" for s in path.steps[1:])


def test_diabetes_lasso_path(diabetes_paths):
    path = diabetes_paths["lasso"]
    assert path.n_steps == 12
    actions = [(s.action, s.variable) for s in path.steps[1:]]
    drops = [a for a in actions if a[0] == "drop"]
    assert drops == [("drop", 6)]
    drop_at = actions.index(("drop", 6))
    assert actions[drop_at + 1] == ("add", 6)


def test_diabetes_stagewise_path(diabetes_paths):
    path = diabetes_paths["stagewise"]
    assert path.n_steps == 13
    projections = [s.projection_dropped for s in path.steps if s.projection_dropped]
    assert projections[0] == (2, 6)
    assert all(s.action == "add" for s in path.steps[1:])


def test_paths_share_the_least_squares_endpoint(design, diabetes_paths):
    beta, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    for v in ("lars", "lasso", "stagewise"):
        end = diabetes_paths[v].steps[-1].beta
        assert np.abs(end - beta).max() < 1e-6


def test_move_lengths_stay_below_full_travel(diabetes_paths):
    for path in diabetes_paths.values():
        for s in path.steps[1:-1]:
            assert s.gamma < s.C_max / s.A * (1 + 1e-12)
        last = path.steps[-1]
        assert last.gamma <= last.C_max / last.A * (1 + 1e-9)


def test_support_stays_inside_active_set(diabetes_paths, quad_paths):
    for path in list(diabetes_paths.values()) + list(quad_paths.values()):
        seen = set()
        for s in path.steps[1:]:
            seen.update(s.active_after)
            support = set(np.flatnonzero(s.beta))
            if path.variant == "stagewise":
                assert support <= seen
            else:
                assert support <= set(s.active_after)


def test_residual_orthogonal_at_the_end(design, diabetes_paths):
    path = diabetes_paths["lars"]
    r = design.response - design.columns @ path.steps[-1].beta
    assert np.abs(design.columns.T @ r).max() < 1e-8


# ------------------------------------------------------- ties and stalling


def test_tied_pair_joins_at_zero_distance():
    d = from_unit_columns(np.eye(2), np.array([1.0, 1.0]))
    with pytest.warns(TieWarning):
        path = fit_path(d)
    assert path.n_steps == 2
    assert abs(path.steps[1].gamma) == 0.0
    assert abs(path.steps[2].gamma - math.sqrt(2)) < 1e-12
    assert np.allclose(path.steps[-1].beta, [1.0, 1.0])


def test_triple_tie_stalls():
    d = from_unit_columns(np.eye(3), np.ones(3))
    with pytest.raises(StalledPath), warnings.catch_warnings():
        warnings.simplefilter("ignore", TieWarning)
        fit_path(d)


def test_jitter_rescues_a_stalled_walk():
    d = from_unit_columns(np.eye(3), np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no TieWarning may escape
        path = fit_path(d, jitter_seed=0)
    assert path.n_steps == 3
    assert np.abs(path.steps[-1].beta - 1.0).max() < 1e-6


def test_jitter_leaves_untied_walks_alone(design, diabetes_paths):
    path = fit_path(design, "lars", jitter_seed=123)
    ref = diabetes_paths["lars"]
    assert path.entry_order == ref.entry_order
    assert np.array_equal(path.steps[-1].beta, ref.steps[-1].beta)


# ----------------------------------------------------------- wide problems


def test_wide_design_saturates():
    r = np.random.default_rng(8)
    X = r.normal(size=(20, 40))
    y = r.normal(size=20)
    d = standardize(X, y)
    path = fit_path(d)
    assert max(len(s.active_after) for s in path.steps) == 19
    rss_end = path.steps[-1].rss
    assert rss_end < 1e-8 * path.steps[0].rss
    assert rss_end > -1e-9 * path.steps[0].rss


@pytest.mark.parametrize("shape", [(20, 50), (50, 20)])
def test_gram_products_match_dense(shape):
    """Through X (n < m) or from the materialized Gram (n >= m), the Gram
    products equal the dense X'X ones."""
    r = np.random.default_rng(shape[1])
    X = r.normal(size=shape)
    G = X.T @ X
    gram = _GramCache(X)
    for j in (0, 7, shape[1] - 1):
        assert np.allclose(gram.column(j), G[:, j], rtol=1e-12, atol=1e-12)
    for idx in ([], [3], [0, 7, 2], list(range(shape[1]))):
        idx = np.array(idx, dtype=int)
        v = r.normal(size=idx.size)
        got = gram.stack(idx, v)
        assert got.shape == (shape[1],)
        assert np.allclose(got, G[:, idx] @ v, rtol=1e-12, atol=1e-12)


def _events_and_vertices(design, variant):
    try:
        path = fit_path(design, variant)
    except LarsError as exc:
        return type(exc), None
    events = [(s.action, s.variable, s.sign, s.projection_dropped) for s in path.steps]
    return events, np.array([s.beta for s in path.steps])


def _counted(value, calls, key):
    """``value`` with each call (each construction, for a class) counted."""
    if isinstance(value, type):
        class Counted(value):
            def __init__(self, *args, **kwargs):
                calls[key] += 1
                super().__init__(*args, **kwargs)
        return Counted

    def counted(*args, **kwargs):
        calls[key] += 1
        return value(*args, **kwargs)
    return counted


def _assert_same_paths_under(monkeypatch, designs, patches):
    """Fit every variant on each design, then again with each
    ``(owner, name, value)`` of ``patches`` set: the same events (or error
    type) and, to rounding, the same vertices.  Every patched value must be
    called during the second round, so a walk that no longer resolves a
    helper where it is patched fails instead of comparing with itself."""
    variants = ("lars", "lasso", "stagewise", "positive-lasso")
    calls = {name: 0 for _, name, _ in patches}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TieWarning)
        default = [_events_and_vertices(d, v) for d in designs for v in variants]
        for owner, name, value in patches:
            monkeypatch.setattr(owner, name, _counted(value, calls, name))
        forced = [_events_and_vertices(d, v) for d in designs for v in variants]
    assert all(calls.values()), calls
    for (ev_default, b_default), (ev_forced, b_forced) in zip(default, forced):
        assert ev_default == ev_forced
        if b_default is not None:
            scale = np.abs(b_forced).max()
            assert np.abs(b_default - b_forced).max() <= 1e-9 * scale


def test_lazy_gram_path_matches_materialized_gram(monkeypatch):
    """A wide design's Gram products go through X; materializing X'X instead
    gives the same events and, to rounding, the same vertices."""
    def materialized(self, X):
        self.X = X
        self._full = X.T @ X

    designs = [random_design(30, 80, 500 + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs, [(_GramCache, "__init__", materialized)])


def test_materialized_gram_path_matches_products_through_x(monkeypatch):
    """A tall design's Gram products gather rows of the materialized X'X;
    taking them through X instead gives the same events and, to rounding,
    the same vertices."""
    def through_x(self, X):
        self.X = X
        self._full = None

    designs = [random_design(120, 40, 700 + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs, [(_GramCache, "__init__", through_x)])


class _DenseFactor:
    """Reference factor: the active Gram matrix itself, solved densely."""

    def __init__(self, gram):
        self.gram = gram
        self.active_dim = gram.shape[0]

    @classmethod
    def empty(cls):
        return cls(np.zeros((0, 0)))


def _dense_append(factor, cross, norm_sq):
    k = factor.active_dim
    pivot_sq = norm_sq - cross @ np.linalg.solve(factor.gram, cross) if k else norm_sq
    if pivot_sq < 1e-12 * norm_sq:
        raise DegenerateColumn("entering column depends on the active set")
    G = np.empty((k + 1, k + 1))
    G[:k, :k] = factor.gram
    G[:k, k] = G[k, :k] = cross
    G[k, k] = norm_sq
    return _DenseFactor(G)


def _dense_drop(factor, position):
    keep = np.delete(np.arange(factor.active_dim), position)
    return _DenseFactor(factor.gram[np.ix_(keep, keep)])


def _dense_solve(factor, rhs):
    return np.linalg.solve(factor.gram, rhs)


def _dense_cone(factor, w):
    if np.all(w > 0):
        return factor, np.arange(factor.active_dim)
    R = np.linalg.cholesky(factor.gram).T
    p, _ = nnls(R, R @ w)
    face = np.flatnonzero(p > 0)
    return _DenseFactor(factor.gram[np.ix_(face, face)]), face


@pytest.mark.parametrize("shape, seed", [((120, 40), 900), ((30, 80), 950)])
def test_path_matches_dense_reference_factor(monkeypatch, shape, seed):
    """The packed, shared-buffer factor gives the walk the same events and,
    to rounding, the same vertices as a dense reference that keeps the
    active Gram matrix and solves it with numpy (30 tall, 30 wide designs)."""
    designs = [random_design(*shape, seed + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs, [
        (core, "CholeskyFactor", _DenseFactor),
        (core, "cholesky_append", _dense_append),
        (core, "cholesky_drop", _dense_drop),
        (core, "solve_gram", _dense_solve),
        (core, "nnls_inner_loop", _dense_cone),
    ])


def test_max_steps_budget(design):
    with pytest.raises(MaxStepsExceeded):
        fit_path(design, "lars", max_steps=3)


def test_stop_after_truncates(design, diabetes_paths):
    path = fit_path(design, "lars", stop_after=4)
    assert path.n_steps == 4
    full = diabetes_paths["lars"]
    for a, b in zip(path.steps, full.steps[:5]):
        assert np.array_equal(a.beta, b.beta)


def test_unknown_variant(design):
    with pytest.raises(VariantMismatch):
        fit_path(design, "newton")
    with pytest.raises(VariantMismatch):
        fit_path(design, VariantPolicy("newton"))


def test_export_surface():
    """Every exported name resolves, once; the step primitives, the factor
    layer and the retired variant helpers stay out of the surface."""
    names = larspath.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(larspath, name) is not None
    retired = {
        "EquiangularBasis", "compute_equiangular", "next_join", "final_gamma",
        "lasso_drop_candidate", "apply_lasso_modification",
        "stagewise_direction", "positive_lasso_step", "NoPositiveCandidate",
        "CholeskyFactor", "cholesky_append", "cholesky_drop", "solve_gram",
        "nnls_inner_loop",
    }
    assert not retired & set(names)
    assert importlib.util.find_spec("larspath.variants") is None
    # Interpolation is the module function only.
    assert not hasattr(larspath.Path, "interpolate")


# ------------------------------------------------------- vertex coefficients


def _stacked(path):
    return np.array([s.beta for s in path.steps])


def test_vertices_own_their_data(quad_design, quad_paths):
    """The walk keeps its active set and coefficients in buffers it
    overwrites; every recorded vertex holds copies: Python ints in the
    tuples, and a coefficient array of its own that no other vertex shares."""
    paths = dict(quad_paths, **{"positive-lasso": fit_path(quad_design, "positive-lasso")})
    for variant, path in paths.items():
        betas = [s.beta for s in path.steps]
        for s in path.steps:
            for field in (s.active_after, s.signs_after):
                assert type(field) is tuple
                assert all(type(v) is int for v in field), variant
            assert set(s.signs_after) <= {-1, 1}
            assert s.beta.base is None and s.beta.flags.owndata, variant
        for i, b in enumerate(betas):
            assert not any(np.shares_memory(b, other) for other in betas[i + 1:]), variant


def test_path_betas_stack_the_vertices(design, diabetes_paths):
    paths = list(diabetes_paths.values()) + [forward_selection(design, design.m)]
    assert {p.variant for p in paths} == {
        "lars", "lasso", "stagewise", "positive-lasso", "forward-selection"}
    for path in paths:
        betas = path.betas
        want = _stacked(path)
        assert betas.dtype == want.dtype and betas.shape == want.shape
        assert betas.tobytes() == want.tobytes()
        assert betas.shape == (path.n_steps + 1, design.m)
        assert not betas.flags.writeable
        with pytest.raises(ValueError):
            betas[0, 0] = 1.0
        assert path.betas is betas


def test_a_replaced_path_reads_its_own_steps(diabetes_paths):
    """A copy made with ``dataclasses.replace(path, steps=...)`` builds its
    own vertex coefficients, and interpolation reads them."""
    path = diabetes_paths["lasso"]
    original = path.betas.copy()
    last = path.steps[-1]
    beta = last.beta.copy()
    beta[0] += 1e-3 * np.abs(beta).max()
    steps = path.steps[:-1] + (dataclasses.replace(last, beta=beta),)
    copy = dataclasses.replace(path, steps=steps)
    assert np.array_equal(copy.betas[-1], beta)
    assert np.array_equal(copy.betas[:-1], original[:-1])
    assert np.array_equal(interpolate(copy, copy.t_max), beta)
    assert np.array_equal(path.betas, original)
    assert np.array_equal(interpolate(path, path.t_max), last.beta)


# ----------------------------------------------------------- interpolation


def test_interpolate_endpoints(diabetes_paths):
    path = diabetes_paths["lasso"]
    assert np.array_equal(interpolate(path, 0.0), path.steps[0].beta)
    assert np.allclose(interpolate(path, path.t_max), path.steps[-1].beta)


def test_interpolate_budget_is_exact(diabetes_paths):
    path = diabetes_paths["lasso"]
    for t in (13.0, 500.0, 1000.0, 2500.0, 3400.0):
        beta = interpolate(path, t)
        assert abs(np.abs(beta).sum() - t) < 1e-9 * max(1.0, t)


def test_interpolate_rejects_out_of_range(diabetes_paths):
    path = diabetes_paths["lasso"]
    with pytest.raises(TOutOfRange):
        interpolate(path, -1.0)
    with pytest.raises(TOutOfRange):
        interpolate(path, path.t_max * 1.01)
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(TOutOfRange):
            interpolate(path, t)


def test_coefficients_at_original_units(design, diabetes_paths):
    path = diabetes_paths["lasso"]
    beta, intercept = path.coefficients_at(1000.0, original_units=True)
    std = interpolate(path, 1000.0)
    assert np.allclose(beta, std / design.column_scales)
    fitted_raw = (design.columns * design.column_scales +
                  design.column_means) @ beta + intercept
    fitted_std = design.columns @ std + design.response_mean
    assert np.abs(fitted_raw - fitted_std).max() < 1e-8


# -------------------------------------------------- fit-size curve geometry


def test_lasso_error_curve_is_convex_with_envelope_slope(design, diabetes_paths):
    """Residual error as a function of the coefficient budget decreases,
    flattens, and has slope minus twice the correlation envelope."""
    path = diabetes_paths["lasso"]
    X, y = design.columns, design.response

    def rss_at(t):
        return float(np.sum((y - X @ interpolate(path, t)) ** 2))

    Ts = [s.T for s in path.steps]
    assert all(b > a for a, b in zip(Ts, Ts[1:]))
    S = [s.rss for s in path.steps]
    assert all(b < a for a, b in zip(S, S[1:]))
    slopes = np.diff(S) / np.diff(Ts)
    assert all(b > a for a, b in zip(slopes, slopes[1:]))  # convex

    h = 1e-5 * path.t_max
    for s in path.steps[1:-1]:
        envelope = np.abs(X.T @ (y - X @ s.beta)).max()
        right = (rss_at(s.T + h) - rss_at(s.T)) / h
        left = (rss_at(s.T) - rss_at(s.T - h)) / h
        assert abs(right - (-2 * envelope)) < 1e-3 * envelope
        assert abs(left - (-2 * envelope)) < 1e-3 * envelope
