import dataclasses
import importlib.util
import math
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import nnls

import larspath
from larspath import core
from larspath.cli import cli_main
from larspath.core import (
    TIE_RTOL,
    VARIANTS,
    Path,
    _direction,
    _GramCache,
    _scan_join,
    fit_path,
    interpolate,
)
from larspath.dataio import json_summary, write_path_csv
from larspath.datasets import load_diabetes
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
from larspath.model_select import (
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
    retained, A, sw = _direction(signed_factor(design, active, signs), s, False)
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
    products equal the dense X'X ones: each join's cross products with the
    carried active set and its squared norm, products with the carried
    block, and products with any gathered block."""
    r = np.random.default_rng(shape[1])
    X = r.normal(size=shape)
    G = X.T @ X
    gram = _GramCache(X)
    order = np.array([0, 7, shape[1] - 1, 3, 11])
    gram.carry(order.size)
    for k, j in enumerate(order):
        cross, norm_sq = gram.join(k, j, order[:k])
        assert cross.shape == (k,)
        assert np.allclose(cross, G[j, order[:k]], rtol=1e-12, atol=1e-12)
        assert math.isclose(norm_sq, G[j, j], rel_tol=1e-12)
    v = r.normal(size=order.size)
    assert np.allclose(gram.times(gram.active_block(order), v), G[:, order] @ v,
                       rtol=1e-12, atol=1e-12)
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


def _refresh_over_support(gram, c0, y_sq, beta, block, beta_A):
    """The correlation refresh as a product of its own, gathered over the
    sorted support rather than read from the active block."""
    nz = beta.nonzero()[0]
    b_nz = beta[nz]
    c = c0 - gram.stack(nz, b_nz)
    return c, y_sq - float((c0[nz] + c[nz]) @ b_nz)


@pytest.mark.parametrize("shape, seed", [((120, 40), 1300), ((30, 80), 1400)])
def test_refresh_from_the_active_block_matches_a_separate_product(monkeypatch,
                                                                  shape, seed):
    """The walk refreshes the correlations from the Gram block it gathered
    for the move's rates; a separate gather and product over the sorted
    support gives the same events and, to rounding, the same vertices
    (30 tall, 30 wide designs)."""
    designs = [random_design(*shape, seed + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs,
                             [(core, "_refresh", _refresh_over_support)])


def _fresh_gather(self, act_idx):
    """The active block gathered afresh from G (from X on a wide design)."""
    return self.block(act_idx)


def test_carried_gram_rows_match_a_fresh_gather_per_move(monkeypatch, quad_design):
    """The walk carries its active block across moves through joins, drops
    and cone projections: rows of G on a tall design, columns of X on a
    wide one.  Gathering ``G[act_idx]`` or ``X[:, act_idx]`` afresh on every
    move instead gives byte-equal events and vertices (diabetes 64, 12 tall
    and 12 wide random designs, every variant)."""
    designs = ([quad_design] + [random_design(120, 40, 1500 + i) for i in range(12)]
               + [random_design(30, 80, 1600 + i) for i in range(6)]
               + [random_design(40, 150, 1650 + i) for i in range(6)])
    calls = {"active_block": 0}

    def fits():
        out = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            for d in designs:
                for v in VARIANTS:
                    try:
                        path = fit_path(d, v)
                    except LarsError as exc:
                        out.append((type(exc), str(exc)))
                        continue
                    events = [(s.action, s.variable, s.sign, s.active_after,
                               s.projection_dropped) for s in path.steps]
                    out.append((events, path.betas.tobytes()))
        return out

    carried = fits()
    monkeypatch.setattr(_GramCache, "active_block",
                        _counted(_fresh_gather, calls, "active_block"))
    gathered = fits()
    assert calls["active_block"] > 0
    assert carried == gathered
    events = [e for fit in carried if isinstance(fit[0], list) for e in fit[0]]
    assert any(e[0] == "drop" for e in events)
    assert any(e[4] for e in events)


def _join_from_a_whole_gram_column(self, k, j, act_idx):
    """A join that forms all m products ``X' x_j`` and reads the active
    ones from them."""
    self._rows[k] = self.X[:, j]
    col = self.X.T @ self.X[:, j]
    return col[act_idx], float(col[j])


def test_join_products_from_the_carried_columns_match_a_whole_gram_column(monkeypatch):
    """On a wide design a join takes its k cross products from the carried
    active columns of X; forming all m products ``X' x_j`` instead gives the
    same events and, to rounding, the same vertices (30 wide designs)."""
    designs = ([random_design(30, 80, 1800 + i) for i in range(15)]
               + [random_design(40, 150, 1850 + i) for i in range(15)])
    _assert_same_paths_under(monkeypatch, designs,
                             [(_GramCache, "join", _join_from_a_whole_gram_column)])


class _DenseFactor:
    """Reference factor: the active Gram matrix itself, solved densely, and
    replaced in place by the append, drop and cone projection below."""

    def __init__(self):
        self.gram = np.zeros((0, 0))

    @property
    def active_dim(self):
        return self.gram.shape[0]


def _dense_append(factor, cross, norm_sq):
    k = factor.active_dim
    pivot_sq = norm_sq - cross @ np.linalg.solve(factor.gram, cross) if k else norm_sq
    if pivot_sq < 1e-12 * norm_sq:
        raise DegenerateColumn("entering column depends on the active set")
    G = np.empty((k + 1, k + 1))
    G[:k, :k] = factor.gram
    G[:k, k] = G[k, :k] = cross
    G[k, k] = norm_sq
    factor.gram = G
    return factor


def _dense_drop(factor, position):
    keep = np.delete(np.arange(factor.active_dim), position)
    factor.gram = factor.gram[np.ix_(keep, keep)]
    return factor


def _dense_solve(factor, rhs):
    return np.linalg.solve(factor.gram, rhs)


def _dense_cone(factor, w):
    if np.all(w > 0):
        return factor, np.arange(factor.active_dim)
    R = np.linalg.cholesky(factor.gram).T
    p, _ = nnls(R, R @ w)
    face = np.flatnonzero(p > 0)
    factor.gram = factor.gram[np.ix_(face, face)]
    return factor, face


@pytest.mark.parametrize("shape, seed", [((120, 40), 900), ((30, 80), 950)])
def test_path_matches_dense_reference_factor(monkeypatch, shape, seed):
    """The packed factor, changed in place, gives the walk the same events
    and, to rounding, the same vertices as a dense reference that keeps the
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
    assert fit_path(design, "lars", stop_after=np.int64(4)).betas.tobytes() == \
        path.betas.tobytes()


def test_cold_start_uses_the_walks_envelope_floor():
    """Every variant starts when its top score reaches the envelope floor
    and stops at once below it: the score is c for positive-lasso and |c|
    otherwise, and the test is the walk's own ``< ENVELOPE_FLOOR``."""
    floor = core.ENVELOPE_FLOOR
    at = from_unit_columns(np.eye(2), [floor, 0.0])
    below = from_unit_columns(np.eye(2), [0.5 * floor, 0.0])
    for variant in core.VARIANTS:
        assert fit_path(at, variant).n_steps == 1, variant
        assert fit_path(below, variant).n_steps == 0, variant
    negative = from_unit_columns(np.eye(2), [-1.0, 0.0])
    assert [fit_path(negative, v).n_steps for v in core.VARIANTS] == [1, 1, 1, 0]


def test_unknown_variant(design):
    """A variant is one of the four names in ``VARIANTS``; any other name or
    any non-string, even one that compares equal to a name, is refused."""
    assert core.VARIANTS == ("lars", "lasso", "stagewise", "positive-lasso")
    for bad in ("newton", "LARS", None, np.array("lars"), np.array(["lars", "lasso"])):
        with pytest.raises(VariantMismatch):
            fit_path(design, bad)


def test_export_surface():
    """Every exported name resolves, once; the step primitives, the factor
    layer, the retired variant helpers and the test-only references stay out
    of the surface."""
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
    # Variants are named by string; the references live under tests/.
    gone = {
        "VariantPolicy", "LARS", "LASSO", "STAGEWISE", "POSITIVE_LASSO",
        "POLICIES", "OrderStatistics", "soft_threshold_path",
        "epsilon_stagewise", "lasso_at_t",
    }
    assert not (retired | gone) & set(names)
    for module in (larspath, core, larspath.oracles):
        assert not {name for name in gone if hasattr(module, name)}, module
    assert importlib.util.find_spec("larspath.variants") is None
    # Interpolation is the module function only, and the factor is built
    # from a Gram matrix or by appends, one object changed in place with no
    # dense views.
    assert not hasattr(larspath.Path, "interpolate")
    assert not hasattr(larspath.Path, "coefficients_at")
    for name in ("from_factor", "empty", "R", "packed", "_storage"):
        assert not hasattr(CholeskyFactor, name), name
    assert not hasattr(larspath.linalg, "_Storage")
    assert not hasattr(larspath.StandardizedDesign, "gram")
    # A path holds its vertices one way, as columns, and interpolation
    # makes one search.
    for name in ("_built", "_steps", "column"):
        assert not hasattr(core._Vertices, name), name
    for name in ("monotone", "low", "high"):
        assert name not in core._BudgetTable._fields, name


# ------------------------------------------------------- vertex coefficients


def _stacked(path):
    return np.array([s.beta for s in path.steps])


def test_vertices_own_their_data(quad_design, quad_paths):
    """The walk keeps its active set and coefficients in buffers it
    overwrites; every recorded vertex holds copies: Python ints in the
    tuples, and a read-only row of ``path.betas`` as its coefficients, a
    row that no other vertex overlaps."""
    paths = dict(quad_paths, **{"positive-lasso": fit_path(quad_design, "positive-lasso")})
    for variant, path in paths.items():
        betas = [s.beta for s in path.steps]
        for i, s in enumerate(path.steps):
            for field in (s.active_after, s.signs_after):
                assert type(field) is tuple
                assert all(type(v) is int for v in field), variant
            assert set(s.signs_after) <= {-1, 1}
            assert s.beta.base is path.betas and not s.beta.flags.writeable, variant
            assert np.shares_memory(s.beta, path.betas[i]), variant
        for i, b in enumerate(betas):
            assert not any(np.shares_memory(b, other) for other in betas[i + 1:]), variant


def test_every_vertex_beta_is_stored_once(design, quad_design):
    """A recorded path holds its coefficients once: every vertex's beta
    lies in ``path.betas``, the array the vertices were recorded in, so
    reading it stacks nothing."""
    paths = [fit_path(d, v) for d in (design, quad_design) for v in VARIANTS] + [
        forward_selection(design, design.m), forward_selection(quad_design, 20)]
    for path in paths:
        recorded = path.steps[0].beta.base
        assert path.betas is recorded, path.variant
        for s in path.steps:
            assert np.shares_memory(s.beta, path.betas), path.variant


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


def test_vertex_objects_are_built_only_when_steps_are_read(design, quad_design,
                                                            monkeypatch):
    """A fit records its vertices as columns: fitting, the path's own
    properties, interpolation, the model-selection routines and the CLI's
    ``main-effects-first`` build no PathStep.  Reading ``steps`` builds one
    per vertex read, on every read, and keeps none."""
    calls = {"PathStep": 0}
    monkeypatch.setattr(core, "PathStep", _counted(core.PathStep, calls, "PathStep"))
    data = str(resources.files("larspath").joinpath("data/diabetes.csv"))
    assert cli_main(["main-effects-first", "--input", data, "--response", "Y",
                     "--k", "4", "--json"]) == 0
    assert calls["PathStep"] == 0
    paths = [fit_path(d, v) for d in (design, quad_design) for v in VARIANTS]
    paths.append(forward_selection(design, design.m))
    lars = paths[0]
    for path in paths:
        path.n_steps, path.t_max, path.betas, path.entry_order
        interpolate(path, 0.5 * path.t_max)
        write_path_csv(path)
    sigma2 = sigma2_full_ols(design)
    cp_curve(lars, sigma2)
    hybrid_r2(lars, 3)
    main_effects_first(design, lars, 2, quad_design.columns[:, 10:14])
    bootstrap_df(design, lars_fitted_values(design, 3), B=4, groups=2)
    lasso_df_by_support(design, B=4, groups=2)
    raw, response, _ = load_diabetes()
    run_simulation_study(raw, response, replications=2, n_steps=3)
    assert calls["PathStep"] == 0

    def built(read):
        before = calls["PathStep"]
        read()
        return calls["PathStep"] - before

    for path in paths:
        steps = path.steps
        K = len(steps)
        assert K == path.n_steps + 1
        assert built(lambda: steps[0]) == 1
        assert built(lambda: steps[0]) == 1
        assert steps[0].step_index == 0 and steps[-1].step_index == K - 1
        assert steps[-1].beta is not steps[-1].beta
        assert np.array_equal(steps[-K].beta, steps[0].beta)
        assert built(lambda: steps[1:3]) == len(steps[1:3]) == min(2, K - 1)
        assert [s.step_index for s in steps[::-2]] == list(range(K))[::-2]
        assert built(lambda: list(steps)) == K
        for i in (K, -K - 1):
            with pytest.raises(IndexError):
                steps[i]


def _path_outputs(path):
    """Everything a caller reads off a path, as comparable values."""
    cp = cp_curve(path, sigma2_full_ols(path.design), allow_variant=True)
    outputs = {
        "n_steps": path.n_steps,
        "t_max": path.t_max,
        "entry_order": path.entry_order,
        "betas": path.betas.tobytes(),
        "interpolate": [interpolate(path, t).tobytes()
                        for t in [*(s.T for s in path.steps), 0.37 * path.t_max]],
        "csv": write_path_csv(path),
        "json": json_summary(path),
        "cp": (cp.cp.tobytes(), cp.argmin_k, cp.df_used.tobytes()),
    }
    if path.variant == "lars":
        outputs["hybrid_r2"] = [hybrid_r2(path, k) for k in range(1, path.n_steps + 1)]
    return outputs


def test_a_replaced_path_reads_its_own_steps(design, diabetes_paths):
    """A copy made with ``dataclasses.replace(path, steps=...)`` records
    the steps it was given, and interpolation reads them; a path made from
    another path's steps reads exactly as that path does."""
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
    for p in [*diabetes_paths.values(), forward_selection(design, design.m)]:
        rebuilt = Path(p.variant, list(p.steps), p.design)
        assert _path_outputs(rebuilt) == _path_outputs(p), p.variant
        for a, b in zip(rebuilt.steps, p.steps, strict=True):
            assert _same_step(a, b), (p.variant, b.step_index)


def _same_step(a, b):
    fields = [f.name for f in dataclasses.fields(a) if f.name != "beta"]
    return (all(getattr(a, f) == getattr(b, f) for f in fields)
            and a.beta.tobytes() == b.beta.tobytes())


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
