"""``interpolate`` against a frozen copy of its earlier algorithm.

The budget table and the bisection must return the same bytes as the
per-call ``searchsorted`` and segment loop they replaced, at vertices, at
both ends, inside the slack, at random budgets, and on a path whose T
decreases at its last move up to that path's ``t_max``; above it, such a
path takes the first segment that reaches the budget, and so does a
forward-selection path whose T falls and climbs again.
"""

import numpy as np
import pytest

from larspath.core import fit_path, interpolate
from larspath.errors import DimensionMismatch
from larspath.oracles import forward_selection
from larspath.preprocess import standardize

from test_lars_path import random_design

VARIANTS = ("lars", "lasso", "stagewise", "positive-lasso")


def reference_interpolate(path, t):
    """The earlier ``interpolate``, kept verbatim as the byte reference but
    for its slack, which is now relative to the end T as in ``interpolate``
    (the two slacks differ only when that T is below 1)."""
    betas = path.betas
    Ts = np.array([s.T for s in path.steps])
    monotone = bool(np.all(np.diff(Ts) >= 0))
    t_end = float(Ts[-1])
    slack = 1e-12 * t_end
    t = float(t)
    if not -slack <= t <= t_end + slack:
        raise DimensionMismatch(f"t={t!r} outside [0, {t_end!r}]")
    t = min(max(t, 0.0), t_end)
    if monotone:
        hi = int(Ts.searchsorted(t, side="left"))
        if hi == 0:
            return betas[0].copy()
    else:
        hi = None
        for i in range(1, len(Ts)):
            lo_t, hi_t = Ts[i - 1], Ts[i]
            if min(lo_t, hi_t) - slack <= t <= max(lo_t, hi_t) + slack:
                hi = i
                break
        if hi is None:
            raise DimensionMismatch(f"t={t!r} not bracketed by any path segment")
    lo = hi - 1
    span = Ts[hi] - Ts[lo]
    theta = 0.0 if span == 0 else (t - Ts[lo]) / span
    return (1.0 - theta) * betas[lo] + theta * betas[hi]


def budgets_of(path, seed):
    """Every vertex T, both ends, the end plus half its slack, and 200
    random budgets in [0, t_max]."""
    t_max = path.t_max
    slack = 1e-12 * t_max
    random = np.random.default_rng(seed).uniform(0.0, t_max, 200)
    return ([s.T for s in path.steps] + [0.0, t_max, t_max + slack / 2]
            + random.tolist())


def assert_same_bytes(path, budgets):
    for t in budgets:
        got, want = interpolate(path, t), reference_interpolate(path, t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), t
        assert got.flags.writeable and got.flags.owndata


def zero_response_design():
    X = np.random.default_rng(3).normal(size=(25, 5))
    return standardize(X, np.zeros(25))


@pytest.fixture(scope="module")
def reference_paths(design, quad_design):
    designs = {
        "diabetes10": design,
        "diabetes64": quad_design,
        "random120x40": random_design(120, 40, 700),
        "random30x80": random_design(30, 80, 500),
        "zero": zero_response_design(),
    }
    return {(name, v): fit_path(d, v) for name, d in designs.items()
            for v in VARIANTS}


def test_zero_response_path_is_one_vertex(reference_paths):
    for v in VARIANTS:
        path = reference_paths["zero", v]
        assert path.n_steps == 0 and path.t_max == 0.0


def test_interpolate_is_byte_identical_to_reference(reference_paths):
    for seed, path in enumerate(reference_paths.values()):
        assert_same_bytes(path, budgets_of(path, seed))
        assert all(type(T) is float for T in path._budget_table.Ts)


def test_interpolate_refuses_what_the_reference_refuses(reference_paths):
    for path in reference_paths.values():
        for t in (-1.0, max(path.t_max * 1.01, 1e-9), float("nan"),
                  float("inf"), -float("inf")):
            with pytest.raises(DimensionMismatch, match="outside") as got:
                interpolate(path, t)
            with pytest.raises(DimensionMismatch, match="outside") as want:
                reference_interpolate(path, t)
            assert str(got.value) == str(want.value)
        # Not a number at all: the reference fails inside float().
        for t in (None, "x", [1.0]):
            with pytest.raises(DimensionMismatch, match="not a number"):
                interpolate(path, t)


def first_reaching_blend(path, t):
    """The blend on the segment that ends at the first vertex whose T
    reaches ``t``."""
    T = np.array([s.T for s in path.steps])
    hi = int(np.argmax(T >= t))
    theta = (t - T[hi - 1]) / (T[hi] - T[hi - 1])
    return (1.0 - theta) * path.betas[hi - 1] + theta * path.betas[hi]


def test_decreasing_budget_takes_the_first_bracketing_segment():
    # The last lars move of this design, the saturating one, lowers T from
    # about 185.1 to t_max of about 167.2.
    path = fit_path(random_design(20, 100, 1), "lars")
    T = np.array([s.T for s in path.steps])
    assert path.n_steps == 19 and T[-2] > T[-1] == path.t_max
    ts = np.random.default_rng(20).uniform(0.0, path.t_max, 2000)
    assert_same_bytes(path, [*ts.tolist(), *T[T <= path.t_max], path.t_max])
    # The path passes through (t_max, max T] twice, rising to T[-2] and
    # falling back to t_max; a budget there takes the first segment that
    # holds it, on the rise.
    t_top = T[-2]
    assert np.all(np.diff(T[:-1]) >= 0) and T.max() == t_top
    above = np.random.default_rng(21).uniform(path.t_max, t_top, 200)
    for t in [*above.tolist(), (T[-2] + T[-1]) / 2, t_top]:
        assert int(np.argmax(T >= t)) < path.n_steps
        assert interpolate(path, t).tobytes() == first_reaching_blend(path, t).tobytes(), t
    with pytest.raises(DimensionMismatch, match="outside"):
        interpolate(path, t_top * (1 + 1e-9))


def test_budget_above_a_peak_takes_the_segment_that_reaches_it():
    """Forward selection on this design lowers T after vertices 15, 18 and
    19, and T climbs past the first two peaks later.  A budget just above a
    peak, within the slack, lies on the later segment that reaches it, not
    on the earlier one extended past its end."""
    path = forward_selection(random_design(30, 80, 502), 29)
    T = np.array([s.T for s in path.steps])
    peaks = np.flatnonzero(T[1:-1] > T[2:]) + 1
    assert peaks.tolist() == [15, 18, 19]
    slack = 1e-12 * max(1.0, float(T.max()))
    ts = np.random.default_rng(22).uniform(0.0, T.max(), 300)
    budgets = [*ts.tolist(), *T[1:].tolist(), *(T[peaks] + slack / 2).tolist()]
    for t in budgets:
        assert interpolate(path, t).tobytes() == first_reaching_blend(path, t).tobytes(), t
    # Past peaks 15 and 18 the segment that reaches the budget ends two and
    # four vertices later; past peak 19, which lies below peak 18, it ends
    # at vertex 18.
    for peak, end in ((15, 17), (18, 22), (19, 18)):
        assert int(np.argmax(T >= T[peak] + slack / 2)) == end
