import dataclasses
import importlib.util
import inspect
import math
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import nnls

import larspath
from larspath import core
from larspath.cli import cli_main
from larspath.core import (
    PARALLEL_TOL,
    TIE_RTOL,
    VARIANTS,
    Path,
    PathStep,
    _ActiveSet,
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
    DimensionMismatch,
    LarsError,
    StalledPath,
    TieWarning,
    VariantMismatch,
)
from larspath.linalg import CholeskyFactor, nnls_inner_loop
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
from larspath.preprocess import from_unit_columns, quadratic_expand, standardize

import corpus
from factors import from_gram

rng = np.random.default_rng(11)


def signed_factor(design, active, signs):
    cols = design.columns[:, list(active)]
    s = np.asarray(signs, dtype=float)
    return from_gram(np.outer(s, s) * (cols.T @ cols))


def equiangular(design, active, signs):
    """``A`` and the signed weights ``sw`` from ``_direction`` on the signed
    Gram factor of ``active``, with ``u = X_A sw`` and ``a = X'u``."""
    s = np.asarray(signs, dtype=float)
    retained, A, sw = _direction(signed_factor(design, active, signs), s, False)
    assert retained is None
    u = design.columns[:, list(active)] @ sw
    return A, sw, u, design.columns.T @ u


def departed(left_signs):
    """The variables and signs of ``left_signs`` ({variable: sign}) as
    ``_scan_join`` takes them: two arrays."""
    return (np.array(list(left_signs), dtype=int),
            np.array(list(left_signs.values()), dtype=float))


def scan_join(c, C_hat, A, a, candidates):
    """``_scan_join`` on both sign branches, nothing leaving, with the
    walk's tie tolerance."""
    cand_idx = np.asarray(candidates, dtype=int)
    return _scan_join(np.asarray(c, dtype=float), C_hat, A, a, cand_idx,
                      *departed({}), False, TIE_RTOL * C_hat)


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
        assert np.allclose(_GramCache(d).stack(np.array(active), sw), a)


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


def scan_leaving(values, left_signs, positive=False):
    """``_scan_join`` at envelope 1 and rate 1/2 over the candidates
    ``values`` ({variable: (c, a)}) of a 10-variable design."""
    c, a = np.zeros(10), np.zeros(10)
    for j, (cj, aj) in values.items():
        c[j], a[j] = cj, aj
    cand_idx = np.array(sorted(values))
    return _scan_join(c, 1.0, 0.5, a, cand_idx, *departed(left_signs), positive,
                      TIE_RTOL)


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


def test_a_near_tie_takes_the_lower_index_though_the_higher_is_nearer():
    """Variable 6 ties at distance 1 and variable 2 at 1 + 2e-13, within
    the tie tolerance but not equal: the lower index joins, at its own
    distance, not the nearer one."""
    values = {2: (0.5 - 1e-13, 0.0), 6: (0.5, 0.0)}
    gamma, j, sign, n_tied = scan_leaving(values, {})
    assert (j, sign, n_tied) == (2, 1, 2)
    assert gamma == (1.0 - (0.5 - 1e-13)) / 0.5 > 1.0


def test_two_branches_tied_at_one_distance_take_the_positive_sign():
    """(1 - 0) / (1/2 - 0) and (1 + 0) / (1/2 + 0) are both 2: one
    candidate, counted once, on the positive branch."""
    assert scan_leaving({6: (0.0, 0.0)}, {}) == (2.0, 6, 1, 1)


def test_no_gap_ties_at_once_unless_the_candidate_falls_behind():
    """Variable 4 sits on the envelope (c = C_hat = 1).  A rate of -1e-15
    against the envelope is parallel within ``PARALLEL_TOL``, so it ties at
    distance 0; at -1e-13 it falls behind, and only its negative branch,
    2 / (1 + 1e-13), is left."""
    a = 0.5 + 1e-15
    assert -PARALLEL_TOL < 0.5 - a < 0.0
    assert scan_leaving({4: (1.0, a)}, {}) == (0.0, 4, 1, 1)
    a = 0.5 + 1e-13
    assert 0.5 - a < -PARALLEL_TOL
    assert scan_leaving({4: (1.0, a)}, {}) == (2.0 / (0.5 + a), 4, -1, 1)


def test_a_gap_over_a_parallel_rate_never_joins():
    """A gap of 1/2 over a rate of 5e-15, below ``PARALLEL_TOL``, is no
    crossing: the two-branch scan takes the negative branch, and the
    positive variant finds nothing."""
    a = 0.5 - 5e-15
    assert 0.0 < 0.5 - a < PARALLEL_TOL
    assert scan_leaving({4: (0.5, a)}, {}) == (1.5 / (0.5 + a), 4, -1, 1)
    assert scan_leaving({4: (0.5, a)}, {}, positive=True) is None


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


def test_k_way_ties_give_the_orthogonal_design_path():
    """k orthonormal columns tie with y = 1: under every variant the tied
    variables join one at a time through zero-length moves, and the path is
    the paper's orthogonal-design answer, beta(t) = (t / k) 1."""
    for k in (3, 4):
        d = from_unit_columns(np.eye(k), np.ones(k))
        for variant in VARIANTS:
            with pytest.warns(TieWarning):
                path = fit_path(d, variant)
            assert path.n_steps == k, (k, variant)
            assert [s.gamma for s in path.steps[1:k]] == [0.0] * (k - 1)
            assert np.allclose(path.betas[-1], 1.0, rtol=0, atol=1e-12)
            for t in np.linspace(0.0, k, 9):
                assert np.allclose(interpolate(path, t), t / k, rtol=0, atol=1e-12), \
                    (k, variant, t)


def _cycle_through_a_drop_and_a_rejoin(monkeypatch, gamma):
    """Scans that fire at distance ``gamma``: the lowest candidate joins,
    and a pair drops its first member.  On the identity design with y =
    (3, 2, 1) the walk goes {0}, {0, 1}, {1}, {1, 0}, {0}, {0, 1}, {1}, and
    moves 3, 5 and 7 shrink the set: the seventh move shrinks it to the
    state of the third."""
    def join_lowest(c, C_hat, A, a, cand_idx, *rest):
        return gamma, int(cand_idx[0]), 1, 1

    def drop_first_of_a_pair(beta_active, direction, floor):
        return (gamma, 0) if beta_active.size == 2 else (np.inf, None)

    monkeypatch.setattr(core, "_scan_join", join_lowest)
    monkeypatch.setattr(core, "_scan_drop", drop_first_of_a_pair)
    return from_unit_columns(np.eye(3), np.array([3.0, 2.0, 1.0]))


def test_zero_length_moves_that_return_to_a_state_stall(monkeypatch):
    """The walk refuses a move that shrinks the active set to an active set
    and signs that an earlier move shrank it to.  Here every move has
    length 0, and the seventh shrinks the set to the state of the third."""
    d = _cycle_through_a_drop_and_a_rejoin(monkeypatch, 0.0)
    with pytest.raises(StalledPath, match="step 7"):
        fit_path(d, "lasso")


def test_a_cycle_of_positive_moves_stalls_on_its_second_lap(monkeypatch):
    """The same cycle through a drop and a re-join, with moves of positive
    length, is refused on its second lap, at the seventh move, not after
    some budget of moves."""
    d = _cycle_through_a_drop_and_a_rejoin(monkeypatch, 1e-3)
    with pytest.raises(StalledPath, match="step 7"):
        fit_path(d, "lasso")


def test_a_walk_through_more_than_8m_states_completes(monkeypatch):
    """No move count bounds the walk.  On the 4 x 4 identity design the
    scripted scans fill the active set, then flip one sign at a time along
    the cyclic 4-bit Gray code: a drop of the variable, then its re-join
    with the other sign.  A Gray code flips each bit from each code at most
    once, so the 16 drops shrink the set to 16 different states, and the
    walk completes after 4 + 2 * 16 = 36 > 8 m moves."""
    flips = [(t & -t).bit_length() - 1 for t in range(1, 16)] + [3]
    signs = [1, 1, 1, 1]
    events = [("join", 1, 1), ("join", 2, 1), ("join", 3, 1)]
    for j in flips:
        signs[j] = -signs[j]
        events += [("drop", j), ("join", j, signs[j])]
    # A lasso move always scans for drops, and for joins only below a full
    # set: the drop scan takes each move's event, the join scan only reads
    # it.  ``order`` is the active set in factor order, for drop positions.
    order = [0]

    def scripted_join(c, C_hat, A, a, cand_idx, *rest):
        if events and events[0][0] == "join":
            _, j, s = events[0]
            return 1e-3, j, s, 1
        return None

    def scripted_drop(beta_active, direction, floor):
        if not events:
            return np.inf, None
        event = events.pop(0)
        if event[0] == "join":
            order.append(event[1])
            return np.inf, None
        pos = order.index(event[1])
        order.pop(pos)
        return 1e-3, pos

    monkeypatch.setattr(core, "_scan_join", scripted_join)
    monkeypatch.setattr(core, "_scan_drop", scripted_drop)
    d = from_unit_columns(np.eye(4), np.array([4.0, 3.0, 2.0, 1.0]))
    path = fit_path(d, "lasso")
    assert path.n_steps == 36 > 8 * 4
    assert events == []
    shrunk = [(tuple(s.active_after), s.signs_after)
              for s in path.steps[1:] if s.action == "drop"]
    assert len(shrunk) == 16
    assert len({frozenset(zip(*state)) for state in shrunk}) == 16


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
    products equal the dense X'X ones: ``cross`` from a table of rows,
    each add's cross products with the carried active set and its squared
    norm, and products with the carried block.  ``stack`` sums the rows of
    any set with weights: G[:, idx] v on a tall design, X[:, idx] v on a
    wide one."""
    r = np.random.default_rng(shape[1])
    d = standardize(r.normal(size=shape), r.normal(size=shape[0]))
    X = d.columns
    G = X.T @ X
    gram = _GramCache(d)
    order = np.array([0, 7, shape[1] - 1, 3, 11])
    # Every row of ``order`` is in the table, so a cross that reads a row
    # other than the first k + 1 gets a wrong answer, not an empty one.
    rows = gram.rows[order]
    for k, j in enumerate(order):
        cross, norm_sq = gram.cross(rows, k, order[:k], j)
        assert cross.shape == (k,)
        assert np.allclose(cross, G[order[:k], j], rtol=1e-12, atol=1e-12)
        assert math.isclose(norm_sq, G[j, j], rel_tol=1e-12)
    active = _ActiveSet(gram, order.size)
    for k, j in enumerate(order):
        active.add(j, 1)
        # With sign +1 the factor's new Gram column is the products as formed.
        cross, norm_sq = active.factor.gram[:k, k], active.factor.gram[k, k]
        assert cross.shape == (k,)
        assert np.allclose(cross, G[j, order[:k]], rtol=1e-12, atol=1e-12)
        assert math.isclose(norm_sq, G[j, j], rel_tol=1e-12)
    v = r.normal(size=order.size)
    assert np.allclose(gram.times(active.block, v), G[:, order] @ v,
                       rtol=1e-12, atol=1e-12)
    for idx in ([], [3], [0, 7, 2], list(range(shape[1]))):
        idx = np.array(idx, dtype=int)
        v = r.normal(size=idx.size)
        got = gram.stack(idx, v)
        want = G[:, idx] @ v if shape[0] >= shape[1] else X[:, idx] @ v
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _gram_rows_read(monkeypatch):
    """The ``rows`` table of every ``_GramCache`` built from here on."""
    read = []
    init = _GramCache.__init__

    def recording(self, design):
        init(self, design)
        read.append(self.rows)

    monkeypatch.setattr(_GramCache, "__init__", recording)
    return read


GRAM_FITS = {**{v: lambda d, v=v: fit_path(d, v) for v in VARIANTS},
             "forward_selection": lambda d: forward_selection(d, 40)}


@pytest.mark.parametrize("fit", list(GRAM_FITS))
def test_a_second_fit_on_a_tall_design_reads_the_same_gram(fit, monkeypatch):
    """A tall design's X'X is built by its first fit; a second fit reads
    that same object, and both keep every byte of a fit on a fresh copy,
    which builds its own."""
    d = random_design(200, 40, 33)
    read = _gram_rows_read(monkeypatch)
    first, second = GRAM_FITS[fit](d), GRAM_FITS[fit](d)
    fresh = GRAM_FITS[fit](dataclasses.replace(d))
    assert read[0] is d._gram and read[1] is d._gram
    assert read[2] is not d._gram
    for path in (first, second):
        assert corpus._exact(path) == corpus._exact(fresh)


def test_a_tall_design_gram_is_read_only_x_t_x_and_not_replaced_along():
    """The design's Gram equals ``X.T @ X`` byte for byte and refuses a
    write; a design made by ``dataclasses.replace`` with other columns
    builds its own from them."""
    d = random_design(200, 40, 34)
    G = d._gram
    assert G is d._gram
    assert G.tobytes() == (d.columns.T @ d.columns).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        G[0, 0] = 0.0
    other = random_design(200, 40, 35).columns
    swapped = dataclasses.replace(d, columns=other)
    assert swapped._gram is not G
    assert swapped._gram.tobytes() == (other.T @ other).tobytes()
    assert corpus._exact(fit_path(swapped)) == corpus._exact(
        fit_path(dataclasses.replace(d, columns=other.copy())))


def test_a_wide_design_allocates_no_m_by_m_matrix(monkeypatch):
    """On a 40 x 1000 design no fit forms X'X (8 MB): the cache reads X'
    and each fit's peak allocation stays below a quarter of that."""
    d = random_design(40, 1000, 36)
    read = _gram_rows_read(monkeypatch)
    fits = [lambda v=v: fit_path(d, v, stop_after=39) for v in VARIANTS]
    for fit in fits + [lambda: forward_selection(d, 39)]:
        tracemalloc.start()
        try:
            fit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000 * 8 / 4
    assert d._gram is None
    assert len(read) == 5
    assert all(rows.shape == (1000, 40) and np.shares_memory(rows, d.columns)
               for rows in read)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(20, 50), (50, 20)])
def test_carried_vertex_gives_correlations_rates_and_rss(shape, order):
    """Whatever the cache carries for a vertex (c on a tall design, X beta
    on a wide one), settled from the active block or from a ``stack`` over
    a support larger than the active set, as a stagewise walk's frozen
    coefficients make it, ``correlation``, ``rates`` and the rss returned
    match the dense c = X'y - X'X beta, a = X'X_A sw and |y - X beta|^2,
    whichever memory order the raw columns came in: an array reaches the
    cache through ``standardize``, as a user's does."""
    r = np.random.default_rng(shape[0])
    raw = np.asarray(r.normal(size=shape), order=order)
    design = standardize(raw, r.normal(size=shape[0]))
    X, y = design.columns, design.response
    G, c0, m = X.T @ X, X.T @ y, shape[1]
    gram = _GramCache(design)
    gram.begin(c0, float(y @ y))
    active = _ActiveSet(gram, 6)
    for j in (4, 0, 17, 9):
        active.add(j, 1)
    idx, block = active.idx, active.block
    sw = r.normal(size=idx.size)
    for settle in ("begin", "block", "stack"):
        beta = np.zeros(m)
        if settle != "begin":
            beta[idx] = r.normal(size=idx.size)
            if settle == "block":
                rss = gram.settle(beta, beta[idx] @ block)
            else:
                # Frozen coefficients outside the active set.
                beta[[2, 11, m - 1]] = r.normal(size=3)
                nz = beta.nonzero()[0]
                rss = gram.settle(beta, gram.stack(nz, beta[nz]))
            assert math.isclose(rss, float(np.sum((y - X @ beta) ** 2)), rel_tol=1e-12)
        want = c0 - G @ beta
        for j in (3, 9):
            assert math.isclose(gram.correlation(j), want[j], rel_tol=1e-12,
                                abs_tol=1e-12 * np.abs(c0).max())
        c, a = gram.rates(block, sw)
        assert np.allclose(c, want, rtol=1e-12, atol=1e-12 * np.abs(c0).max())
        assert np.allclose(a, G[:, idx] @ sw, rtol=1e-12, atol=1e-12)


def _assert_active_set_is(active, gram, X, model):
    """``active`` holds the variables and signs of ``model`` ([(variable,
    sign)] in factor order): its variables, signs, inactive mask, signed
    state and carried block equal a fresh gather from ``gram.rows``, and
    its factor that of the signed Gram block of the design ``X``."""
    idx = np.array([j for j, _ in model], dtype=int)
    s = np.array([sign for _, sign in model], dtype=float)
    k = idx.size
    assert active.k == active.factor.active_dim == k
    assert np.array_equal(active.idx, idx)
    assert np.array_equal(active.signs, s)
    inactive = np.ones(X.shape[1], dtype=bool)
    inactive[idx] = False
    assert np.array_equal(active.inactive, inactive)
    state = np.zeros(X.shape[1], dtype=np.int8)
    state[idx] = s
    assert active.state.dtype == np.int8
    assert np.array_equal(active.state, state)
    assert np.array_equal(active.block, gram.rows[idx])
    signed = np.outer(s, s) * (X[:, idx].T @ X[:, idx])
    upper = np.triu_indices(k)
    scale = np.abs(signed).max()
    assert np.allclose(active.factor.gram[:k, :k][upper], signed[upper],
                       rtol=1e-12, atol=1e-12 * scale)
    fresh = from_gram(signed)
    packed = k * (k + 1) // 2
    assert np.allclose(active.factor.ap[:packed], fresh.ap[:packed],
                       rtol=1e-9, atol=1e-9 * math.sqrt(scale))


@pytest.mark.parametrize("shape, seed", [((120, 40), 2100), ((30, 80), 2200)])
def test_active_set_edits_keep_every_part_in_step(shape, seed):
    """A seeded run of adds, drops and cone-projection keeps: after each
    edit the active set's variables, signs, inactive mask and carried block
    equal a fresh gather, its factor's Gram block is the signed Gram block, and
    its factor is that block's fresh factorization; a drop or keep hands back
    the variables that left and their signs."""
    d = random_design(*shape, seed)
    gram = _GramCache(d)
    r = np.random.default_rng(seed)
    capacity = 12
    active = _ActiveSet(gram, capacity)
    model = []
    edits = {"add": 0, "drop": 0, "keep": 0}
    for _ in range(80):
        k = len(model)
        if k < 2 or (k < capacity and r.random() < 0.6):
            j = int(r.choice(np.flatnonzero(active.inactive)))
            sign = int(r.choice([-1, 1]))
            active.add(j, sign)
            model.append((j, sign))
            edits["add"] += 1
        elif r.random() < 0.5:
            pos = int(r.integers(k))
            gone = model.pop(pos)
            left_vars, left_signs = active.drop(pos)
            assert (left_vars.tolist(), left_signs.tolist()) == ([gone[0]], [gone[1]])
            edits["drop"] += 1
        else:
            # A cone projection of a target with one negative weight
            # refactorizes the factor to a face, as the stagewise walk's
            # does before its keep.
            target = 1.0 + r.random(k)
            target[r.integers(k)] = -1.0
            _, retained = nnls_inner_loop(active.factor, target)
            if retained.size == k:
                continue
            kept = set(retained.tolist())
            gone = [model[i] for i in range(k) if i not in kept]
            model = [model[i] for i in retained]
            left_vars, left_signs = active.keep(retained)
            assert list(zip(left_vars.tolist(), left_signs.tolist())) == gone
            edits["keep"] += 1
        _assert_active_set_is(active, gram, d.columns, model)
    assert min(edits.values()) >= 3, edits


def test_each_fit_allocates_one_factor_that_fills_exactly(monkeypatch):
    """Every walk, and forward selection to the most variables a walk can
    hold, constructs one factor, with room for that many columns: on a tall,
    a wide and an uncentered design.  A walk that reaches that many active
    variables fills the factor's buffers exactly."""
    built = []
    init = CholeskyFactor.__init__

    def noted(factor, *args):
        init(factor, *args)
        built.append(factor)

    monkeypatch.setattr(CholeskyFactor, "__init__", noted)
    designs = [random_design(30, 8, 2600), random_design(12, 30, 2601),
               from_unit_columns(np.eye(4), np.ones(4))]
    for d, limit in zip(designs, (8, 11, 4), strict=True):
        assert core._max_active(d) == limit
        fits = {variant: lambda v=variant: fit_path(d, v) for variant in VARIANTS}
        fits["forward-selection"] = lambda: forward_selection(d, limit)
        saturated = []
        for name, fit in fits.items():
            built.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TieWarning)
                path = fit()
            assert [f.gram.shape[0] for f in built] == [limit], name
            factor = built[0]
            if len(path.steps[-1].active_after) == limit:
                saturated.append(name)
                assert factor.active_dim == limit, name
                assert factor.ap.size == limit * (limit + 1) // 2, name
                assert factor.gram.shape == (limit, limit), name
        assert {"lars", "forward-selection"} <= set(saturated), saturated


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
    def materialized(self, design):
        X = design.columns
        self._X = None
        self.rows = X.T @ X

    designs = [random_design(30, 80, 500 + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs, [(_GramCache, "__init__", materialized)])


def test_materialized_gram_path_matches_products_through_x(monkeypatch):
    """A tall design's Gram products gather rows of the materialized X'X;
    taking them through X instead gives the same events and, to rounding,
    the same vertices."""
    def through_x(self, design):
        self._X = design.columns
        self.rows = design.columns.T

    designs = [random_design(120, 40, 700 + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs, [(_GramCache, "__init__", through_x)])


def _settle_apart(gram, beta, product):
    """The vertex ``beta`` kept as c = X'y - X'(X beta), a product of its
    own over the whole design (through the materialized G on a tall
    design), whatever ``product`` the walk settles it from."""
    c0 = gram._c0
    gram._c_apart = c = c0 - gram.times(gram.rows, beta)
    return gram._y_sq - float((c0 + c) @ beta)


def _correlation_apart(gram, j):
    return getattr(gram, "_c_apart", gram._c0)[j]


def _rates_apart(gram, block, sw):
    """c as ``_settle_apart`` keeps it, and the rates a = X'(X_A sw) as a
    product of their own."""
    return getattr(gram, "_c_apart", gram._c0), gram.times(block, sw)


@pytest.mark.parametrize("shape, seed", [((120, 40), 1300), ((30, 80), 1400)])
def test_refresh_from_the_active_block_matches_a_separate_product(monkeypatch,
                                                                  shape, seed):
    """The walk settles each vertex from a row sum over its support: c on a
    tall design, and on a wide one X beta, from which the next move's one
    product gives c and the rates together.  c kept from the vertex's beta
    by a product over the whole design, and the rates as a product of
    their own, give the same events and, to rounding, the same vertices
    (30 tall, 30 wide designs)."""
    designs = [random_design(*shape, seed + i) for i in range(30)]
    _assert_same_paths_under(monkeypatch, designs,
                             [(_GramCache, "settle", _settle_apart),
                              (_GramCache, "correlation", _correlation_apart),
                              (_GramCache, "rates", _rates_apart)])


def _regathered(edit, calls):
    """The active-set edit ``edit``, then its carried block replaced by a
    fresh gather from the Gram cache's rows (of G, or of X' on a wide
    design)."""
    def edited(self, *args):
        calls["regather"] += 1
        out = edit(self, *args)
        self.block = self._gram.rows[self.idx]
        return out
    return edited


def test_carried_gram_rows_match_a_fresh_gather_per_move(monkeypatch, quad_design):
    """The walk carries its active block across moves through adds, drops
    and cone projections: rows of G on a tall design, columns of X on a
    wide one.  Gathering ``G[act_idx]`` or ``X[:, act_idx]`` afresh after
    every edit instead gives byte-equal events and vertices (diabetes 64,
    12 tall and 12 wide random designs, every variant)."""
    designs = ([quad_design] + [random_design(120, 40, 1500 + i) for i in range(12)]
               + [random_design(30, 80, 1600 + i) for i in range(6)]
               + [random_design(40, 150, 1650 + i) for i in range(6)])
    calls = {"regather": 0}

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
    for name in ("add", "drop", "keep"):
        monkeypatch.setattr(_ActiveSet, name,
                            _regathered(getattr(_ActiveSet, name), calls))
    gathered = fits()
    assert calls["regather"] > 0
    assert carried == gathered
    events = [e for fit in carried if isinstance(fit[0], list) for e in fit[0]]
    assert any(e[0] == "drop" for e in events)
    assert any(e[4] for e in events)


def test_join_products_from_the_carried_columns_match_a_whole_gram_column(monkeypatch):
    """On a wide design an add takes its k cross products from the carried
    active columns of X; forming all m products ``X' x_j`` instead gives the
    same events and, to rounding, the same vertices (30 wide designs)."""
    designs = ([random_design(30, 80, 1800 + i) for i in range(15)]
               + [random_design(40, 150, 1850 + i) for i in range(15)])
    adding = []
    add, append = _ActiveSet.add, core.cholesky_append

    def add_noted(self, j, s):
        adding.append((self, j, s))
        return add(self, j, s)

    def append_from_a_whole_gram_column(factor, cross, norm_sq):
        """The append of the add in progress, with its signed cross
        products read from all m products ``X' x_j``."""
        active, j, s = adding.pop()
        X = active._gram._X
        col = X.T @ X[:, j]
        return append(factor, s * active.signs * col[active.idx], float(col[j]))

    _assert_same_paths_under(monkeypatch, designs, [
        (_ActiveSet, "add", add_noted),
        (core, "cholesky_append", append_from_a_whole_gram_column),
    ])


class _DenseFactor:
    """Reference factor: the active Gram matrix itself, solved densely, and
    replaced in place by the append, drop and cone projection below."""

    def __init__(self, capacity):
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


def _assert_prefix(part, full, k):
    """``part`` is the first k moves of ``full``: equal step fields and
    equal coefficient bytes."""
    assert part.n_steps == k
    fields = [f.name for f in dataclasses.fields(PathStep) if f.name != "beta"]
    for a, b in zip(part.steps, full.steps[: k + 1], strict=True):
        assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    assert part.betas.tobytes() == full.betas[: k + 1].tobytes()


def test_stop_after_truncates(design, diabetes_paths, quad_design, quad_paths):
    """``stop_after=k`` and ``forward_selection(d, k)`` give the first k
    moves of the full path: at every k on diabetes 10, and on diabetes 64
    at every k whose next event is a drop, where the stop test comes before
    the pending drop is applied."""
    for variant, full in diabetes_paths.items():
        for k in range(full.n_steps + 1):
            _assert_prefix(fit_path(design, variant, stop_after=k), full, k)
    _assert_prefix(fit_path(design, "lars", stop_after=np.int64(4)),
                   diabetes_paths["lars"], 4)
    full = forward_selection(design, design.m)
    for k in range(full.n_steps + 1):
        _assert_prefix(forward_selection(design, k), full, k)
    quad = {"lasso": quad_paths["lasso"],
            "positive-lasso": fit_path(quad_design, "positive-lasso")}
    for variant, full in quad.items():
        ks = [k for k, a in enumerate(full._field("action")[1:]) if a == "drop"]
        assert ks
        for k in ks:
            _assert_prefix(fit_path(quad_design, variant, stop_after=k), full, k)


@pytest.mark.parametrize("seed", [0, 1])
def test_stop_after_truncates_a_wide_walk(seed):
    """On a wide design each vertex is settled from its own fit X beta,
    summed over the active block or, under stagewise, over the support,
    and the next move's correlations come from a product at that move, so
    ``stop_after=k`` still gives the bit-exact first k moves at every k,
    under every variant."""
    d = random_design(30, 80, seed)
    for variant in VARIANTS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TieWarning)
            full = fit_path(d, variant)
            for k in range(full.n_steps + 1):
                _assert_prefix(fit_path(d, variant, stop_after=k), full, k)


def _layouts(X):
    """The values of X in C order, in Fortran order (a CSV file's), and as
    a view that is neither."""
    wider = np.zeros((X.shape[0], 2 * X.shape[1]))
    wider[:, ::2] = X
    return np.ascontiguousarray(X), np.asfortranarray(X), wider[:, ::2]


@pytest.mark.parametrize("name", ["diabetes10", "diabetes64", "wide30x80",
                                  "wide100x1000"])
def test_the_same_values_in_any_memory_order_fit_the_same_bytes(name, diabetes):
    """A design holds X C-ordered, whatever the order of the values it was
    built from, so C, Fortran and non-contiguous copies of the same raw
    values give byte-identical designs, and byte-identical paths under every
    variant: to the last of about 850 stagewise moves on 100 x 1000, and on
    diabetes 64 expanded from each layout of the raw data.  A design built
    directly is C-ordered too, and a resampled one shares its X."""
    if name.startswith("diabetes"):
        X, y, names = diabetes
    else:
        shape, seed = {"wide30x80": ((30, 80), 2900),
                       "wide100x1000": ((100, 1000), 2910)}[name]
        r = np.random.default_rng(seed)
        X = r.normal(size=shape)
        y, names = X @ r.normal(size=shape[1]) + r.normal(size=shape[0]), None
    designs = []
    for raw in _layouts(X):
        labels = names
        if name == "diabetes64":
            raw, labels = quadratic_expand(raw, 1, names)
        designs.append(standardize(raw, y, labels))
    first, *others = designs
    assert first.columns.flags.c_contiguous
    others.append(dataclasses.replace(first, columns=_layouts(first.columns)[2]))
    assert dataclasses.replace(first, response=y - y.mean()).columns is first.columns
    for d in others:
        assert d.columns.flags.c_contiguous
        assert d.columns.tobytes() == first.columns.tobytes()
    for variant in VARIANTS:
        want = corpus.outcome(lambda tree: tree.fit_path(first, variant), larspath)
        for d in others:
            got = corpus.outcome(lambda tree: tree.fit_path(d, variant), larspath)
            assert corpus.first_difference(got, want) is None, variant


@pytest.mark.parametrize("seed", [1, 5])
def test_a_column_in_the_span_of_two_others_ends_the_walk_cleanly(seed):
    """With x_9 = a x_1 + b x_2 (not a signed copy of either), the last
    join can come from x_9 once the correlations have vanished; the walk
    ends there, before the add would refuse x_9, under every variant."""
    r = np.random.default_rng(seed)
    X = r.standard_normal((80, 8))
    a, b = r.uniform(0.3, 1.5, 2) * r.choice([-1, 1], 2)
    X = np.column_stack([X, a * X[:, 0] + b * X[:, 1]])
    d = standardize(X, X[:, :8] @ r.standard_normal(8) + 0.5 * r.standard_normal(80))
    C0 = np.abs(d.columns.T @ d.response).max()
    for variant in VARIANTS:
        path = fit_path(d, variant)
        c = d.columns.T @ (d.response - d.columns @ path.betas[-1])
        score = c if variant == "positive-lasso" else np.abs(c)
        assert score.max() < core.ENVELOPE_RTOL * C0, variant
        assert len(path.steps[-1].active_after) <= 8, variant


def test_cold_start_uses_the_walks_envelope_floor():
    """Every variant starts unless its top score is negligible against |y|,
    that is not above ``ENVELOPE_RTOL`` times |y|: the score is c for
    positive-lasso and |c| otherwise.  The rule is relative, so a response
    scaled by 2**k starts exactly where the unscaled one does."""
    rtol = core.ENVELOPE_RTOL
    # Two unit columns that see only the first entry of y = (t, 0, 1).
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    for k in (-60, -40, -1, 0, 1, 30):
        scale = 2.0**k
        start = from_unit_columns(X, [2 * rtol * scale, 0.0, scale])
        empty = from_unit_columns(X, [0.5 * rtol * scale, 0.0, scale])
        for variant in core.VARIANTS:
            assert fit_path(start, variant).n_steps == 1, (k, variant)
            assert fit_path(empty, variant).n_steps == 0, (k, variant)
    negative = from_unit_columns(np.eye(2), [-1.0, 0.0])
    assert [fit_path(negative, v).n_steps for v in core.VARIANTS] == [1, 1, 1, 0]


def _events(path):
    """Every recorded field of a path but its numbers."""
    return {name: path.steps.columns[name] for name in
            ("action", "variable", "sign", "projection_dropped")} | {
        name: [a.tolist() for a in path.steps.columns[name]]
        for name in ("active_after", "signs_after")}


@pytest.mark.parametrize("which", ["design", "quad_design"])
def test_paths_scale_with_the_response(request, which):
    """y -> 2**k y keeps every event and scales every vertex by exactly
    2**k, for each variant and forward selection, from k = -40 to 30: the
    walk's tolerances are relative, so no decision depends on the units of
    y.  The scaled designs share the reference's columns."""
    d = request.getfixturevalue(which)
    fits = {v: (lambda d, v=v: fit_path(d, v)) for v in VARIANTS}
    fits["forward-selection"] = lambda d: forward_selection(d, 10)
    for name, fit in fits.items():
        ref = fit(d)
        for k in (-40, -23, -9, -1, 1, 12, 30):
            scaled = fit(dataclasses.replace(d, response=d.response * 2.0**k))
            assert _events(scaled) == _events(ref), (name, k)
            assert np.array_equal(scaled.betas, ref.betas * 2.0**k), (name, k)


def test_a_tiny_response_gives_the_scaled_path():
    """y = (1e-300, 2e-300) on two orthonormal columns walks the y = (1, 2)
    path, scaled."""
    tiny = from_unit_columns(np.eye(2), np.array([1e-300, 2e-300]))
    unit = from_unit_columns(np.eye(2), np.array([1.0, 2.0]))
    for variant in VARIANTS:
        got, want = fit_path(tiny, variant), fit_path(unit, variant)
        assert want.n_steps == 2
        assert _events(got) == _events(want), variant
        assert np.allclose(got.betas, want.betas * 1e-300, rtol=1e-12, atol=0), variant


def _every_fit(design):
    """Each variant's walk, and forward selection, on ``design``."""
    fits = {v: (lambda v=v: fit_path(design, v)) for v in VARIANTS}
    fits["forward-selection"] = lambda: forward_selection(design, 2)
    return fits


@pytest.mark.parametrize("scale", [1e308, 1e160])
def test_a_response_whose_sum_of_squares_overflows_is_refused(scale):
    """y'y overflows to inf: every walk and forward selection refuse the
    response by name, without the overflow's RuntimeWarning (an error
    under the test suite's filters)."""
    d = from_unit_columns(np.eye(2), np.array([scale, scale]))
    for name, fit in _every_fit(d).items():
        with pytest.raises(DimensionMismatch, match="response"):
            fit()


def test_a_large_response_with_a_finite_sum_of_squares_still_fits():
    y = np.array([2e150, 1e150])
    d = from_unit_columns(np.eye(2), y)
    for name, fit in _every_fit(d).items():
        path = fit()
        assert path.n_steps == 2, name
        assert all(math.isfinite(s.rss) for s in path.steps), name
        assert np.allclose(path.betas[-1], y, rtol=1e-12), name


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
    # by appends into buffers its owner sizes, one object changed in place
    # with no dense views.  No public call can empty a cone face.
    assert not hasattr(larspath.Path, "interpolate")
    assert not hasattr(larspath.Path, "coefficients_at")
    for name in ("from_factor", "from_gram", "empty", "R", "packed", "_storage"):
        assert not hasattr(CholeskyFactor, name), name
    for name in ("_Storage", "MIN_CAPACITY"):
        assert not hasattr(larspath.linalg, name), name
    for module in (larspath, larspath.errors):
        assert not hasattr(module, "EmptyFace"), module
    # One rule ends a walk that cannot finish: no move budget, and no
    # error for exceeding one.  The bundled data's design is built by the
    # caller.
    for module in (larspath, larspath.errors):
        assert not hasattr(module, "MaxStepsExceeded"), module
    for module in (larspath, larspath.datasets):
        assert not hasattr(module, "diabetes_design"), module
    assert not {"MaxStepsExceeded", "diabetes_design"} & set(names)
    # A step index, a budget and a column count out of range are each
    # refused as any other argument outside the values it takes.
    retired_errors = {"IndexOutOfRange", "TOutOfRange", "WrongColumnCount"}
    assert not retired_errors & set(names)
    for module in (larspath, larspath.errors):
        assert not {name for name in retired_errors if hasattr(module, name)}, module
    assert len(names) == 39
    assert "max_steps" not in inspect.signature(fit_path).parameters
    assert not hasattr(larspath.StandardizedDesign, "gram")
    # A path holds its vertices one way, as columns, and interpolation
    # makes one search.
    for name in ("_built", "_steps", "column"):
        assert not hasattr(core._Vertices, name), name
    for name in ("monotone", "low", "high"):
        assert name not in core._BudgetTable._fields, name


# One case per public argument that has a range: the call with a value just
# outside it, on the ten-column diabetes design (m = 10) and its lars path
# (10 moves), and the argument's name.
RANGE_CONTRACT = {
    "fit_path": (lambda d, p, raw: fit_path(d, "lars", stop_after=-1),
                 "stop_after"),
    "lars_fitted_values": (lambda d, p, raw: lars_fitted_values(d, d.m + 1),
                           "k_max"),
    "forward_selection": (lambda d, p, raw: forward_selection(d, d.m + 1),
                          "k_max"),
    "run_simulation_study": (
        lambda d, p, raw: run_simulation_study(raw[0], raw[1], n_steps=65),
        "n_steps"),
    "hybrid_r2": (lambda d, p, raw: hybrid_r2(p, 0), "k"),
    "main_effects_first": (
        lambda d, p, raw: main_effects_first(d, p, p.n_steps + 1,
                                             np.ones((d.n, 2))),
        "k"),
    "interpolate": (lambda d, p, raw: interpolate(p, -1), "t"),
    "quadratic_expand": (lambda d, p, raw: quadratic_expand(raw[0], d.m),
                         "binary_column"),
    "bootstrap_df": (
        lambda d, p, raw: bootstrap_df(d, lars_fitted_values(d, 2), B=3,
                                       groups=2),
        "B"),
}


@pytest.mark.parametrize("entry", sorted(RANGE_CONTRACT))
def test_an_argument_out_of_range_is_a_named_dimension_mismatch(
        entry, design, diabetes_paths, diabetes):
    call, name = RANGE_CONTRACT[entry]
    with pytest.raises(DimensionMismatch, match=rf"(^|\W){name}=") as got:
        call(design, diabetes_paths["lars"], diabetes)
    assert type(got.value) is DimensionMismatch


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
    properties, interpolation and the model-selection routines build no
    PathStep, and the CLI's ``main-effects-first`` builds only the one whose
    active set it reads.  Reading ``steps`` builds one per vertex read, on
    every read, and keeps none."""
    calls = {"PathStep": 0}
    monkeypatch.setattr(core, "PathStep", _counted(core.PathStep, calls, "PathStep"))
    data = str(resources.files("larspath").joinpath("data/diabetes.csv"))
    assert cli_main(["main-effects-first", "--input", data, "--response", "Y",
                     "--k", "4", "--json"]) == 0
    assert calls["PathStep"] == 1
    calls["PathStep"] = 0
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
    outputs = {
        "n_steps": path.n_steps,
        "t_max": path.t_max,
        "entry_order": path.entry_order,
        "betas": path.betas.tobytes(),
        "interpolate": [interpolate(path, t).tobytes()
                        for t in [*(s.T for s in path.steps), 0.37 * path.t_max]],
        "csv": write_path_csv(path),
        "json": json_summary(path),
    }
    if path.variant in ("lars", "lasso", "positive-lasso"):
        cp = cp_curve(path, sigma2_full_ols(path.design))
        outputs["cp"] = (cp.cp.tobytes(), cp.argmin_k, cp.df_used.tobytes())
    if path.variant == "lars":
        outputs["hybrid_r2"] = [hybrid_r2(path, k) for k in range(1, path.n_steps + 1)]
    return outputs


def test_comparing_paths_does_not_raise(design):
    """Paths compare by identity: a path equals itself, and comparing two
    fits, or a fit with a Path over an equal but distinct design, returns
    without raising."""
    path = fit_path(design, "lasso")
    assert path == path
    assert path != fit_path(design, "lasso")
    twin = dataclasses.replace(design, columns=design.columns.copy(),
                               response=design.response.copy())
    rebuilt = Path(path.variant, path.steps, twin)
    assert (path == rebuilt) is False and (path != rebuilt) is True


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
    with pytest.raises(DimensionMismatch, match=r"t=-1\.0 outside \[0, "):
        interpolate(path, -1.0)
    with pytest.raises(DimensionMismatch, match="outside"):
        interpolate(path, path.t_max * 1.01)
    for t in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(DimensionMismatch, match=f"t={t!r} outside"):
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
