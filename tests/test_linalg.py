import itertools
import math

import numpy as np
import pytest
import scipy.optimize

import larspath.core
import larspath.linalg
from larspath.core import fit_path
from larspath.errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyFace,
    IndexOutOfRange,
    LarsError,
    MaxIterations,
)
from larspath.linalg import (
    CholeskyFactor,
    cholesky_append,
    cholesky_drop,
    nnls_inner_loop,
    solve_gram,
)

rng = np.random.default_rng(42)


def random_gram(k):
    X = rng.normal(size=(3 * k + 5, k))
    return X.T @ X


def test_append_first_column():
    f = cholesky_append(CholeskyFactor.empty(), np.zeros(0), 1.0)
    assert f.active_dim == 1
    assert np.allclose(f.R, [[1.0]])


def test_append_orthonormal_pair():
    f = cholesky_append(CholeskyFactor.empty(), np.zeros(0), 1.0)
    f = cholesky_append(f, np.array([0.0]), 1.0)
    assert np.allclose(f.R, np.eye(2))


def test_append_correlated_pair():
    # unit columns at correlation 0.5: second pivot is sqrt(1 - 0.25)
    f = cholesky_append(CholeskyFactor.empty(), np.zeros(0), 1.0)
    f = cholesky_append(f, np.array([0.5]), 1.0)
    expected = np.array([[1.0, 0.5], [0.0, math.sqrt(0.75)]])
    assert np.allclose(f.R, expected, atol=1e-15)
    assert np.allclose(f.R.T @ f.R, f.gram, atol=1e-15)


def test_append_rejects_duplicate_column():
    f = cholesky_append(CholeskyFactor.empty(), np.zeros(0), 1.0)
    with pytest.raises(DegenerateColumn):
        cholesky_append(f, np.array([1.0]), 1.0)


def test_append_rejects_near_dependent_column():
    G = random_gram(4)
    f = CholeskyFactor.from_gram(G)
    # new column = exact combination of the active ones
    coef = np.array([1.0, -2.0, 0.5, 1.5])
    cross = G @ coef
    norm_sq = float(coef @ G @ coef)
    with pytest.raises(DegenerateColumn):
        cholesky_append(f, cross, norm_sq)


def test_append_wrong_cross_product_length():
    f = CholeskyFactor.from_gram(random_gram(3))
    with pytest.raises(DimensionMismatch):
        cholesky_append(f, np.zeros(2), 1.0)


def test_drop_reverses_append():
    G = random_gram(5)
    f = CholeskyFactor.from_gram(G)
    g = cholesky_append(f, rng.normal(size=5) * 0.1, 2.0)
    back = cholesky_drop(g, 5)
    assert np.allclose(back.R, f.R, atol=1e-12)
    assert np.allclose(back.gram, f.gram)


def test_drop_from_identity():
    f = CholeskyFactor.from_gram(np.eye(3))
    g = cholesky_drop(f, 1)
    assert g.active_dim == 2
    assert np.allclose(g.R, np.eye(2))


def test_drop_middle_column_matches_fresh_factor():
    G = random_gram(5)
    f = CholeskyFactor.from_gram(G)
    g = cholesky_drop(f, 2)
    keep = [0, 1, 3, 4]
    fresh = CholeskyFactor.from_gram(G[np.ix_(keep, keep)])
    assert np.allclose(g.R, fresh.R, atol=1e-10)


def test_drop_last_column_gives_empty():
    f = CholeskyFactor.from_gram(np.array([[2.0]]))
    g = cholesky_drop(f, 0)
    assert g.active_dim == 0


def test_drop_position_out_of_range():
    f = CholeskyFactor.from_gram(random_gram(3))
    with pytest.raises(IndexOutOfRange):
        cholesky_drop(f, 3)
    with pytest.raises(IndexOutOfRange):
        cholesky_drop(f, -1)


def test_drop_several_positions_equals_single_drops():
    f = CholeskyFactor.from_gram(random_gram(6))
    both = cholesky_drop(f, [1, 4])
    one_by_one = cholesky_drop(cholesky_drop(f, 4), 1)
    assert np.array_equal(both.R, one_by_one.R)
    assert np.array_equal(both.gram, one_by_one.gram)
    assert cholesky_drop(f, []) is f


def test_drop_one_position_given_as_int_or_array_agrees():
    """A single position, as a Python or NumPy integer, gives the same
    factor bytes as the one-element sequence holding it."""
    f = CholeskyFactor.from_gram(random_gram(7))
    for p in range(7):
        want = cholesky_drop(f, [p])
        for one in (p, np.int64(p), np.uint8(p)):
            got = cholesky_drop(f, one)
            assert got.packed.tobytes() == want.packed.tobytes()
            assert got.gram.tobytes() == want.gram.tobytes()
    for bad in (7, np.int64(-1), np.uint8(7)):
        with pytest.raises(IndexOutOfRange):
            cholesky_drop(f, bad)


def test_drop_several_positions_out_of_range():
    f = CholeskyFactor.from_gram(random_gram(4))
    with pytest.raises(IndexOutOfRange):
        cholesky_drop(f, [0, 4])
    with pytest.raises(IndexOutOfRange):
        cholesky_drop(f, [-1, 2])


def test_drop_non_integer_position():
    f = CholeskyFactor.from_gram(random_gram(4))
    for bad in (1.5, 2.0, [0, 1.5], True):
        with pytest.raises(IndexOutOfRange):
            cholesky_drop(f, bad)


def test_drop_repeated_position():
    f = CholeskyFactor.from_gram(random_gram(4))
    for bad in ([1, 1], [3, 0, 3]):
        with pytest.raises(IndexOutOfRange):
            cholesky_drop(f, bad)
    assert cholesky_drop(f, np.zeros(0, dtype=int)) is f


def test_random_append_drop_sequences():
    """Maintained factor stays close to a from-scratch factorization."""
    for trial in range(20):
        trng = np.random.default_rng(1000 + trial)
        m = 30
        X = trng.normal(size=(80, m))
        X /= np.linalg.norm(X, axis=0)
        G = X.T @ X
        active = []
        f = CholeskyFactor.empty()
        for op in range(60):
            if active and trng.random() < 0.35:
                pos = int(trng.integers(len(active)))
                active.pop(pos)
                f = cholesky_drop(f, pos)
            else:
                candidates = [j for j in range(m) if j not in active]
                if not candidates:
                    continue
                j = candidates[int(trng.integers(len(candidates)))]
                idx = np.array(active, dtype=int)
                f = cholesky_append(f, G[idx, j], G[j, j])
                active.append(j)
            if active:
                idx = np.ix_(active, active)
                ref = G[idx]
                err = np.linalg.norm(f.R.T @ f.R - ref) / np.linalg.norm(ref)
                assert err < 1e-9


def test_factor_matches_dense_references_through_appends_and_drops():
    """Appends, single drops and multi-position drops give the factor and
    the solves of a dense Cholesky and a dense solve, and R stays in the
    Fortran order LAPACK takes."""
    trng = np.random.default_rng(2024)
    X = trng.normal(size=(200, 60))
    X /= np.linalg.norm(X, axis=0)
    G = X.T @ X

    def check(f, idx):
        sub = G[np.ix_(idx, idx)]
        assert f.R.flags.f_contiguous
        assert np.allclose(f.R, np.linalg.cholesky(sub).T, rtol=0, atol=1e-12)
        b = trng.normal(size=len(idx))
        assert np.allclose(solve_gram(f, b), np.linalg.solve(sub, b),
                           rtol=1e-11, atol=1e-12)

    f = CholeskyFactor.empty()
    for k in range(1, 61):
        f = cholesky_append(f, G[: k - 1, k - 1], G[k - 1, k - 1])
        check(f, list(range(k)))
    assert CholeskyFactor.from_gram(G).R.flags.f_contiguous
    for gone in (0, 59, 31, [2, 3, 40], [0, 17, 58, 59], list(range(1, 60, 2))):
        idx = [p for p in range(60) if p not in np.atleast_1d(gone)]
        check(cholesky_drop(f, gone), idx)


def _unit_gram(seed, n, m):
    X = np.random.default_rng(seed).normal(size=(n, m))
    X /= np.linalg.norm(X, axis=0)
    return X.T @ X


def _grown(G, order):
    """The factor of G's ``order`` block, grown one append at a time."""
    f = CholeskyFactor.empty()
    for i, j in enumerate(order):
        f = cholesky_append(f, G[order[:i], j], G[j, j])
    return f


def _assert_factors(f, G, idx):
    sub = G[np.ix_(idx, idx)]
    assert f.active_dim == len(idx)
    assert np.allclose(f.R, np.linalg.cholesky(sub).T, rtol=0, atol=1e-12)
    assert np.array_equal(f.gram, sub)
    b = np.linspace(-1.0, 2.0, len(idx))
    assert np.allclose(solve_gram(f, b), np.linalg.solve(sub, b), rtol=1e-11, atol=1e-12)


def test_two_appends_to_one_factor_are_independent():
    """Two different columns appended to one factor give two factors that
    each match a dense Cholesky and a dense solve of their own Gram matrix,
    whichever is appended first, and keep doing so as both grow further."""
    G = _unit_gram(3, 60, 14)
    base = list(range(10))
    for first, second in ((10, 11), (11, 10)):
        f = _grown(G, base)
        g1 = cholesky_append(f, G[base, first], G[first, first])
        g2 = cholesky_append(f, G[base, second], G[second, second])
        idx1, idx2 = base + [first], base + [second]
        h1 = cholesky_append(g1, G[idx1, 12], G[12, 12])
        h2 = cholesky_append(g2, G[idx2, 13], G[13, 13])
        _assert_factors(f, G, base)
        _assert_factors(g1, G, idx1)
        _assert_factors(g2, G, idx2)
        _assert_factors(h1, G, idx1 + [12])
        _assert_factors(h2, G, idx2 + [13])


def test_refused_append_leaves_the_factor_unchanged():
    """An append refused as dependent writes nothing: the parent keeps its
    R, Gram and solves, and a later append to it is exact."""
    G = _unit_gram(4, 40, 8)
    base = list(range(5))
    f = _grown(G, base)
    packed, R, gram = f.packed.copy(), f.R, f.gram
    coef = np.array([1.0, -2.0, 0.5, 1.5, 0.25])
    cross = G[np.ix_(base, base)] @ coef
    with pytest.raises(DegenerateColumn):
        cholesky_append(f, cross, float(coef @ cross))
    with pytest.raises(DegenerateColumn):
        cholesky_append(f, G[base, 5], 0.0)
    assert np.array_equal(f.packed, packed)
    assert np.array_equal(f.R, R)
    assert np.array_equal(f.gram, gram)
    _assert_factors(f, G, base)
    _assert_factors(cholesky_append(f, G[base, 5], G[5, 5]), G, base + [5])


def test_append_chain_writes_in_place():
    """Along a chain of 200 appends the factors share one packed buffer
    (no append copied the factor), and an early factor still matches its
    dense reference after the later appends."""
    G = _unit_gram(5, 400, 200)
    f = CholeskyFactor.empty()
    kept = {}
    for j in range(200):
        f = cholesky_append(f, G[:j, j], G[j, j])
        if j + 1 in (100, 120):
            kept[j + 1] = f
    assert np.shares_memory(kept[100].packed, kept[120].packed)
    assert np.array_equal(kept[120].packed[: kept[100].packed.size], kept[100].packed)
    _assert_factors(kept[100], G, list(range(100)))
    _assert_factors(f, G, list(range(200)))


def test_nonzero_lapack_info_is_a_lars_error():
    """A zero pivot in a given factor or a Gram matrix that is not positive
    definite (dpotrf) raises a LarsError, not a raw LAPACK one."""
    singular = CholeskyFactor.from_factor(np.array([[1.0, 0.5], [0.0, 0.0]]),
                                          np.array([[1.0, 0.5], [0.5, 0.25]]))
    with pytest.raises(LarsError, match="info=2"):
        solve_gram(singular, np.ones(2))
    with pytest.raises(LarsError, match="info=2"):
        cholesky_append(singular, np.array([0.1, 0.2]), 1.0)
    with pytest.raises(LarsError, match="info=2"):
        CholeskyFactor.from_gram(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_solve_gram_identity():
    f = CholeskyFactor.from_gram(np.eye(4))
    assert np.allclose(solve_gram(f, np.ones(4)), np.ones(4))


def test_solve_gram_correlated_closed_form():
    for rho in (0.3, 0.5, -0.4, 0.9):
        G = np.array([[1.0, rho], [rho, 1.0]])
        f = CholeskyFactor.from_gram(G)
        x = solve_gram(f, np.ones(2))
        assert np.allclose(x, [1 / (1 + rho), 1 / (1 + rho)], atol=1e-12)


def test_solve_gram_residual():
    G = random_gram(7)
    f = CholeskyFactor.from_gram(G)
    b = rng.normal(size=7)
    x = solve_gram(f, b)
    assert np.linalg.norm(G @ x - b) < 1e-10 * np.linalg.norm(b)


def test_solve_gram_wrong_length():
    f = CholeskyFactor.from_gram(random_gram(3))
    with pytest.raises(DimensionMismatch):
        solve_gram(f, np.ones(4))


def _cone_weights(factor, w):
    """The projection's face and, at full length, the face's unit-length
    equiangular weights, solved with the face factor it returns."""
    face_factor, retained = nnls_inner_loop(factor, w)
    assert face_factor.active_dim == retained.size
    g1 = solve_gram(face_factor, np.ones(retained.size))
    out = np.zeros(factor.active_dim)
    out[retained] = g1 / math.sqrt(g1.sum())
    return out, retained


def test_nnls_all_positive_is_identity():
    f = CholeskyFactor.from_gram(random_gram(4))
    w = np.array([0.3, 0.1, 0.5, 0.2])
    face_factor, retained = nnls_inner_loop(f, w)
    assert np.array_equal(retained, np.arange(4))
    assert face_factor is f


def test_nnls_empty_factor():
    with pytest.raises(EmptyFace):
        nnls_inner_loop(CholeskyFactor.empty(), np.zeros(0))


def test_nnls_unequal_norms_keeps_nearest_face():
    """With one negative weight on two columns, the surviving singleton is
    the face nearest the unconstrained direction (checked by brute force)."""
    for g11, g22, g12 in ((4.0, 1.0, 1.5), (9.0, 1.0, 2.0), (1.0, 6.25, 2.0)):
        G = np.array([[g11, g12], [g12, g22]])
        # explicit columns realizing G
        L = np.linalg.cholesky(G)
        X = L.T
        g1 = np.linalg.solve(G, np.ones(2))
        assert g1.min() < 0  # the crafted gram puts the direction outside the cone
        w = g1 / math.sqrt(g1.sum())
        out, retained = _cone_weights(CholeskyFactor.from_gram(G), w)
        assert retained.size == 1
        kept = int(retained[0])
        # brute force: distance from the unconstrained direction to each ray
        u = X @ g1
        u /= np.linalg.norm(u)
        dist = []
        for j in range(2):
            xj = X[:, j]
            proj = max(float(u @ xj), 0.0) / float(xj @ xj) * xj
            dist.append(np.linalg.norm(u - proj))
        assert kept == int(np.argmin(dist))
        # face weight gives a unit-length direction
        v = X @ out
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def _brute_force_face(X, u):
    """The face of the cone of X's columns nearest u, over all 2^k faces
    on which the projection of u has positive weights."""
    best, best_dist = None, np.inf
    k = X.shape[1]
    for size in range(1, k + 1):
        for face in itertools.combinations(range(k), size):
            q, *_ = np.linalg.lstsq(X[:, face], u, rcond=None)
            if q.min() <= 0:
                continue
            dist = np.linalg.norm(u - X[:, face] @ q)
            if dist < best_dist:
                best, best_dist = face, dist
    return best


def test_nnls_face_matches_brute_force_on_random_cones():
    """On random signed designs with one strongly correlated pair, the face
    chosen by the projection is the nearest face found by enumeration, and
    its weights are the face's unit-length equiangular weights."""
    trng = np.random.default_rng(11)
    cones = 0
    for trial in range(1000):
        k = 2 + trial % 5
        X = trng.normal(size=(3 * k + 5, k))
        X[:, 1] = X[:, 0] + 0.2 * trng.normal(size=X.shape[0])
        X /= np.linalg.norm(X, axis=0)
        X *= trng.choice([-1.0, 1.0], size=k)
        G = X.T @ X
        g1 = np.linalg.solve(G, np.ones(k))
        if g1.min() > 0:
            continue
        w = g1 / math.sqrt(g1.sum())
        out, retained = _cone_weights(CholeskyFactor.from_gram(G), w)
        face = _brute_force_face(X, X @ w)
        assert tuple(int(p) for p in retained) == face
        wf = out[list(face)]
        assert wf.min() > 0
        assert np.count_nonzero(out) == len(face)
        inner = G[np.ix_(face, face)] @ wf
        assert np.allclose(inner, inner[0], atol=1e-10)
        assert abs(np.linalg.norm(X @ out) - 1.0) < 1e-12
        cones += 1
        if cones == 200:
            break
    assert cones == 200


def _positive_dual(alpha, a, x, **kwargs):
    """Stand-in for BLAS dsymv whose products, the duals included, are all
    positive: what rounding could make of a dual that is not."""
    return np.ones(a.shape[0])


def test_nnls_bars_a_position_its_trial_solve_rejects(monkeypatch):
    """A position let in by a positive dual whose trial weight is not
    positive leaves the face again and is not retried, where stepping back
    to it would add it once more on every round."""
    monkeypatch.setattr(larspath.linalg, "dsymv", _positive_dual)
    face_factor, retained = nnls_inner_loop(
        CholeskyFactor.from_gram(np.eye(2)), np.array([1.0, -1.0]))
    assert np.array_equal(retained, [0])
    assert np.array_equal(face_factor.R, [[1.0]])


def test_nnls_iteration_limit_raises_max_iterations(monkeypatch):
    """A dual that stays positive everywhere, as no dual at the optimum
    does, keeps the search adding and stepping back on this cone; it stops
    after 3 k trial solves with MaxIterations instead of looping on."""
    solves = []
    real_dpotrs = larspath.linalg.dpotrs

    def counted(*args, **kwargs):
        solves.append(1)
        return real_dpotrs(*args, **kwargs)

    monkeypatch.setattr(larspath.linalg, "dsymv", _positive_dual)
    monkeypatch.setattr(larspath.linalg, "dpotrs", counted)
    G = np.array([[12.0, 5.0, -2.0], [5.0, 3.0, 1.5], [-2.0, 1.5, 11.0]])
    with pytest.raises(MaxIterations):
        nnls_inner_loop(CholeskyFactor.from_gram(G), np.array([0.1, -1.0, -1.0]))
    assert 0 < len(solves) <= 9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nnls_non_finite_target_is_degenerate_column(bad):
    """NaN and inf targets, which only a numerically singular Gram matrix
    gives, raise a LarsError that names them."""
    f = CholeskyFactor.from_gram(random_gram(3))
    with pytest.raises(DegenerateColumn, match="non-finite"):
        nnls_inner_loop(f, np.array([0.5, bad, -0.2]))


def _scipy_projection(G, w):
    """Reference: SciPy's Lawson-Hanson on the factored problem."""
    R = np.linalg.cholesky(G).T
    p, _ = scipy.optimize.nnls(R, R @ w)
    return p


def _assert_matches_scipy(factor, w):
    """Same face as SciPy's nnls, and the same projection weights solved
    with the returned face factor.  Returns whether the face before the
    last column had positive weights, the start the search is warm from."""
    G = factor.gram
    ref = _scipy_projection(G, w)
    face_factor, retained = nnls_inner_loop(factor, w)
    assert np.array_equal(retained, np.flatnonzero(ref > 0))
    b = G @ w
    p = np.zeros(w.size)
    p[retained] = solve_gram(face_factor, b[retained])
    assert np.allclose(p, ref)
    k = w.size
    return bool(np.linalg.solve(G[: k - 1, : k - 1], b[: k - 1]).min() > 0)


def test_nnls_matches_scipy_from_warm_and_cold_starts():
    """On signed Gaussian cones with k from 20 to 90, both starts give
    SciPy's face and weights: a target negative in its last position only
    leaves the weights before it positive (warm start), negatives spread
    through it do not (cold start)."""
    trng = np.random.default_rng(5)
    starts = {True: 0, False: 0}
    for k in range(20, 91, 5):
        for spread in (False, True):
            X = trng.normal(size=(3 * k, k)) * trng.choice([-1.0, 1.0], size=k)
            w = trng.uniform(0.1, 1.0, size=k)
            w[-1] = -0.5
            if spread:
                w[trng.choice(k - 1, size=k // 4, replace=False)] *= -1.0
            f = CholeskyFactor.empty()
            for j in range(k):
                f = cholesky_append(f, X[:, :j].T @ X[:, j], X[:, j] @ X[:, j])
            warm = _assert_matches_scipy(f, w)
            assert warm != spread
            starts[warm] += 1
    assert starts == {True: 15, False: 15}


def test_nnls_matches_scipy_on_every_diabetes_projection(quad_design, monkeypatch):
    """Every cone projection of the stagewise walk on the 64-column
    diabetes design gives SciPy's face and weights."""
    calls = []

    def recorded(factor, w):
        calls.append((factor, w.copy()))
        return nnls_inner_loop(factor, w)

    monkeypatch.setattr(larspath.core, "nnls_inner_loop", recorded)
    fit_path(quad_design, "stagewise")
    assert len(calls) == 104
    for factor, w in calls:
        _assert_matches_scipy(factor, w)


def test_nnls_diabetes_projection_event(design, diabetes_paths):
    """Reconstruct the face search behind the recorded projection event."""
    path = diabetes_paths["stagewise"]
    k = next(i for i, s in enumerate(path.steps) if s.projection_dropped)
    before = path.steps[k - 1]
    event = path.steps[k]
    assert event.projection_dropped == (2, 6)

    active = list(before.active_after) + [event.variable]
    signs = np.array(list(before.signs_after) + [event.sign], dtype=float)
    cols = design.columns[:, active]
    Gs = np.outer(signs, signs) * (cols.T @ cols)
    g1 = np.linalg.solve(Gs, np.ones(len(active)))
    assert g1.min() <= 0
    w = g1 / math.sqrt(g1.sum())

    out, retained = _cone_weights(CholeskyFactor.from_gram(Gs), w)
    dropped_vars = sorted(active[p] for p in range(len(active))
                          if p not in retained)
    assert dropped_vars == [2, 6]
    assert sorted(active[p] for p in retained) == sorted(
        set(active) - {2, 6})

    # face weights positive; equal inner products on the face; dropped
    # columns at least as aligned with the face direction
    face = [int(p) for p in retained]
    wf = out[face]
    assert wf.min() > 0
    inner = Gs[np.ix_(face, face)] @ wf
    A = inner[0]
    assert np.allclose(inner, A, atol=1e-10)
    for p in range(len(active)):
        if p not in face:
            assert float(Gs[p, face] @ wf) >= A - 1e-10
