"""Piecewise-linear coefficient path engine.

The fitter walks a sequence of vertices.  At each vertex one event is
applied (a variable joins the active set or leaves it), the equiangular
direction of the active columns is formed, and the coefficient vector moves
along that direction until the next event:

* a candidate's correlation ties the shrinking envelope (join),
* an active coefficient crosses zero under the sign-consistency rule
  (drop; lasso and positive-lasso variants), or
* the travel distance C_max / A is exhausted (final move, landing on the
  restricted least squares fit of the active set).

Moves are labeled by the event applied at their start; the final move keeps
the label of its starting event, so a path that adds a variable and then
runs to the least squares point counts one move, not two.

One walk serves all four variants.  ``POLICIES`` maps each variant name to
its :class:`VariantPolicy`, whose three rules the walk reads: ``positive``
(join on the positive sign branch only), ``drops`` (sign-crossing drops)
and ``cone`` (stagewise projection of the direction).  Each move calls the
same step primitives, which the tests exercise directly:

* ``_direction``: equiangular weights of the signed active columns, and
  under ``cone`` the Lawson-Hanson face of the active sign cone;
* ``_scan_join``: the smallest distance at which a candidate ties the
  envelope;
* ``_scan_drop``: the first active coefficient to cross zero;
* ``_next_event``: arbitration between join, drop and the final move.

Numerical conventions that the step counts depend on:

* Correlations are recomputed exactly, c = X'y - G beta, after every move.
  Incremental correlation updates drift at the 1e-2 level on
  ill-conditioned quadratic designs and were observed to derail drop/join
  ordering; exact recomputation removes the drift entirely.  It costs
  O(m * k) per move from the materialized Gram matrix of a tall design and
  O(n * m) through X on a wide one, the same order as the equiangular
  products a = G[:, A] (s * w).
* A variable that leaves the active set at the current vertex (coefficient
  sign crossing, or cone projection under the stagewise variant) sits
  exactly on the correlation envelope.  Its same-sign join ratio is 0/0 and
  must not be re-detected by tolerance; the scan excludes the leaver's
  departing sign branch at that vertex only.  The opposite sign branch
  stays live, which is what allows a dropped variable to re-enter later.
* Join/drop events are carried explicitly from one vertex to the next
  (``pending`` state) instead of being re-derived from correlations.
"""

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (
    MaxStepsExceeded,
    StalledPath,
    TieWarning,
    TOutOfRange,
    VariantMismatch,
)
from .linalg import (
    CholeskyFactor,
    cholesky_append,
    cholesky_drop,
    nnls_inner_loop,
    solve_gram,
)
from .preprocess import StandardizedDesign, to_original_units

__all__ = [
    "VariantPolicy",
    "LARS",
    "LASSO",
    "STAGEWISE",
    "POSITIVE_LASSO",
    "POLICIES",
    "PathStep",
    "Path",
    "fit_path",
    "interpolate",
]


@dataclass(frozen=True)
class VariantPolicy:
    """The event rules of one variant, derived from its name ``kind``.

    Accepted anywhere a variant string is.  The rules are read-only
    properties rather than fields, so only the four variants of
    ``POLICIES`` can be expressed.
    """

    kind: str

    @property
    def positive(self):
        """Candidates join on the positive sign branch only."""
        return self.kind == "positive-lasso"

    @property
    def drops(self):
        """An active coefficient that crosses zero leaves the active set."""
        return self.kind in ("lasso", "positive-lasso")

    @property
    def cone(self):
        """The direction is projected into the cone of the active signs."""
        return self.kind == "stagewise"


LARS = VariantPolicy("lars")
LASSO = VariantPolicy("lasso")
STAGEWISE = VariantPolicy("stagewise")
POSITIVE_LASSO = VariantPolicy("positive-lasso")
POLICIES = {p.kind: p for p in (LARS, LASSO, STAGEWISE, POSITIVE_LASSO)}

# Correlations this small (in response units) terminate the walk.
ENVELOPE_FLOOR = 1e-10

# Relative tolerance used for tie detection on the correlation scale.
TIE_RTOL = 1e-12

# Denominators below this are treated as exactly parallel to the envelope.
PARALLEL_TOL = 1e-14

# Signs of the join scan's two branches, one row each.
_BRANCH_SIGNS = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class PathStep:
    """One vertex of a fitted path.

    ``action`` is the event applied at the start of the move that produced
    this vertex ("add" or "drop"), or None for the starting vertex.
    ``projection_dropped`` lists variables removed by the stagewise cone
    projection folded into this move; their coefficients stay frozen at the
    values they had when projected out, so for the stagewise variant the
    nonzero support of ``beta`` can exceed ``active_after``.
    """

    step_index: int
    action: object
    variable: object
    sign: object
    active_after: tuple
    signs_after: tuple
    gamma: float
    C_max: float
    A: float
    beta: np.ndarray
    rss: float
    T: float
    projection_dropped: tuple = ()


@dataclass(frozen=True)
class Path:
    """A fitted coefficient path: the starting vertex plus one per move."""

    variant: str
    steps: tuple
    design: StandardizedDesign = field(repr=False)

    @property
    def n_steps(self):
        return len(self.steps) - 1

    @property
    def entry_order(self):
        return [s.variable for s in self.steps if s.action == "add"]

    @property
    def t_max(self):
        return self.steps[-1].T

    @cached_property
    def betas(self):
        """The ``(n_steps + 1, m)`` vertex coefficients, one row per step,
        stacked once and read-only."""
        betas = np.array([s.beta for s in self.steps])
        betas.flags.writeable = False
        return betas

    @cached_property
    def _budgets(self):
        """Vertex budgets T and whether they never decrease, built once."""
        Ts = np.array([s.T for s in self.steps])
        Ts.flags.writeable = False
        return Ts, bool(np.all(np.diff(Ts) >= 0))

    def coefficients_at(self, t, original_units=False):
        beta = interpolate(self, t)
        if not original_units:
            return beta, 0.0
        return to_original_units(self.design, beta)


class _TieRestart(Exception):
    """Internal: a tie was hit while a jitter restart is available."""


class _GramCache:
    """Products with G = X'X: materialized when n >= m, through X otherwise.

    A tall design (n >= m) keeps the m x m Gram matrix and reads its rows,
    which equal its columns (G is symmetric): a row gather is contiguous
    where a column gather is strided.  A wide design neither forms G nor
    caches its columns: every product is two matrix-vector products with X,
    O(n m) per move as in the paper's cost argument.
    """

    def __init__(self, X):
        self.X = X
        n, m = X.shape
        self._full = X.T @ X if n >= m else None

    def column(self, j):
        """Column j of G: the Gram row of an entering variable."""
        if self._full is not None:
            return self._full[j]
        return self.X.T @ self.X[:, j]

    def stack(self, indices, weights):
        """``G[:, indices] @ weights``."""
        if self._full is not None:
            return weights @ self._full[indices]
        return self.X.T @ (self.X[:, indices] @ weights)


def _scan_join(c, C_hat, A, a, cand_idx, left_signs, positive, tie_tol):
    """Smallest travel distance at which a candidate ties the envelope.

    Works on both sign branches (one for the positive variant).  A branch
    whose correlation gap is within ``tie_tol`` of zero ties immediately
    (distance 0); this includes the exactly-parallel 0/0 case.  Returns
    ``(gamma, variable, sign, n_tied)`` or None when nothing can tie.
    """
    n = cand_idx.size
    if n == 0:
        return None
    # Row 0 is the positive sign branch; row 1, the negative branch (absent
    # for the positive variant), sees -c and -a.
    branches = _BRANCH_SIGNS[:1] if positive else _BRANCH_SIGNS
    num = C_hat - branches * c[cand_idx]
    den = A - branches * a[cand_idx]
    ahead = den > PARALLEL_TOL
    r = np.full(num.shape, np.inf)
    np.divide(num, den, out=r, where=ahead & (num > tie_tol))
    # Tied now: no gap, and the candidate is not falling behind.
    r[(np.abs(num) <= tie_tol) & (den >= -PARALLEL_TOL)] = 0.0
    for var, s in left_signs.items():
        p = int(cand_idx.searchsorted(var))
        if p < n and cand_idx[p] == var:
            if s == 1:
                r[0, p] = np.inf
            elif not positive:
                r[1, p] = np.inf
    best = r[0] if positive else np.minimum(r[0], r[1])

    gmin = best.min()
    if not np.isfinite(gmin):
        return None
    tied = (best - gmin) * A <= tie_tol
    p = int(tied.argmax())
    sign = 1 if positive or r[0, p] <= r[1, p] else -1
    return float(best[p]), int(cand_idx[p]), sign, int(np.count_nonzero(tied))


def _scan_drop(beta_active, direction, floor):
    """First active coefficient to cross zero along the move direction.

    Entries whose direction is zero never cross, and are masked before the
    division rather than divided and discarded.
    """
    r = np.full(direction.size, np.inf)
    np.divide(-beta_active, direction, out=r, where=direction != 0.0)
    r = np.where(r > floor, r, np.inf)
    p = int(r.argmin())
    if r[p] == np.inf:
        return np.inf, None
    return float(r[p]), p


def _direction(factor, s_vec, cone):
    """Equiangular weights of the signed active columns.

    ``factor`` holds the signed Gram matrix of the active set, whose signs
    are ``s_vec``.  Returns ``(factor, retained, A, sw)``: with ``sw`` the
    signed weights, ``u = X_A sw`` is the unit direction along which every
    active column's signed correlation falls at rate ``A``.  Under ``cone``
    a direction outside the active sign cone is replaced by the equiangular
    direction of its Lawson-Hanson face: ``retained`` holds the positions
    kept, and the factor and ``sw`` cover those positions only.  ``retained``
    is None when no projection was needed.
    """
    g1 = solve_gram(factor, np.ones(s_vec.size))
    retained = None
    if cone and g1.min() <= 0.0:
        w_target = (1.0 / math.sqrt(g1.sum())) * g1
        factor, retained = nnls_inner_loop(factor, w_target)
        s_vec = s_vec[retained]
        g1 = solve_gram(factor, np.ones(retained.size))
    A = 1.0 / math.sqrt(g1.sum())
    return factor, retained, A, s_vec * (A * g1)


def _next_event(g_join, gamma_bar, g_drop):
    """Length and kind ("join", "final" or "drop") of the next move.

    The join wins only when it comes before the full travel ``gamma_bar``;
    a drop wins when it comes no later than either, ties included.
    """
    gamma, event = (g_join, "join") if g_join < gamma_bar else (gamma_bar, "final")
    if g_drop <= gamma * (1 + 1e-12):
        return g_drop, "drop"
    return gamma, event


def _tie(tie_mode, message):
    if tie_mode == "raise":
        raise _TieRestart(message)
    warnings.warn(message, TieWarning, stacklevel=3)


def _fit_once(design, policy, max_steps, stop_after, tie_mode):
    X = design.columns
    y = design.response
    n, m = X.shape
    budget = 8 * m if max_steps is None else int(max_steps)
    max_active = min(m, n - 1) if design.centered else min(m, n)
    positive, drops, cone = policy.positive, policy.drops, policy.cone

    gram = _GramCache(X)
    c0 = X.T @ y
    c = c0.copy()
    beta = np.zeros(m)
    y_sq = float(y @ y)
    # The active set lives in two buffers allocated once, with room for
    # ``max_active + 1`` entries: ``act_buf`` holds the active variables in
    # factor order and ``s_buf`` their signs (as floats, ready to scale
    # weights).  The active set is their first ``k`` entries, read through
    # the views ``act_idx`` and ``s_vec``: a join writes entry ``k``, a drop
    # shifts the entries after it down by one, and a cone projection gathers
    # the retained entries to the front.  Nothing recorded on the path is a
    # view of them.
    act_buf = np.empty(max_active + 1, dtype=int)
    s_buf = np.empty(max_active + 1)
    k = 0
    act_idx = act_buf[:0]
    s_vec = s_buf[:0]
    active_mask = np.zeros(m, dtype=bool)
    factor = CholeskyFactor.empty()

    C0 = float(np.abs(c).max()) if m else 0.0
    steps = [
        PathStep(
            step_index=0,
            action=None,
            variable=None,
            sign=None,
            active_after=(),
            signs_after=(),
            gamma=0.0,
            C_max=C0,
            A=0.0,
            beta=beta.copy(),
            rss=y_sq,
            T=0.0,
        )
    ]

    def make_path():
        return Path(variant=policy.kind, steps=tuple(steps), design=design)

    # Cold start: highest absolute correlation (highest positive correlation
    # for the positive variant), ties to the lowest index.
    if positive:
        top = float(c.max()) if m else 0.0
        if top <= ENVELOPE_FLOOR:
            return make_path()
        tie_tol0 = TIE_RTOL * max(1.0, top)
        tied = np.flatnonzero(c >= top - tie_tol0)
    else:
        top = C0
        if top < ENVELOPE_FLOOR:
            return make_path()
        tie_tol0 = TIE_RTOL * max(1.0, top)
        tied = np.flatnonzero(np.abs(c) >= top - tie_tol0)
    if tied.size > 1:
        _tie(tie_mode, f"{tied.size} variables tie at the start; taking {int(tied[0])}")
    j0 = int(tied[0])
    s0 = 1 if (positive or c[j0] >= 0) else -1
    # The next event: its action, variable, sign and, for a drop, the
    # variable's position in the active set.
    pending = ("add", j0, s0, None)
    zero_run = 0

    while True:
        # The envelope is the mean |c| over the active set after the pending
        # event; it is computed once per move (again only after a cone
        # projection) and ends the walk when the correlations have vanished.
        action, event_var, event_sign, pos = pending
        if action == "add":
            act_buf[k] = event_var
            k_next = k + 1
        else:
            act_buf[pos : k - 1] = act_buf[pos + 1 : k]
            k_next = k - 1
        new_idx = act_buf[:k_next]
        C_hat = float(np.abs(c[new_idx]).sum()) / k_next
        if C_hat < ENVELOPE_FLOOR:
            break
        n_moves = len(steps) - 1
        if stop_after is not None and n_moves >= stop_after:
            break
        if n_moves >= budget:
            raise MaxStepsExceeded(f"path incomplete after {n_moves} moves")

        left_signs = {}
        proj = ()
        if action == "add":
            col = gram.column(event_var)
            # The entering column's signed cross products, event_sign * s_vec
            # * col[act_idx], formed in place: the signs are +-1, so the
            # products are exact in any order.
            cross = col[act_idx]
            cross *= s_vec
            if event_sign < 0:
                np.negative(cross, out=cross)
            factor = cholesky_append(factor, cross, float(col[event_var]))
            s_buf[k] = event_sign
            active_mask[event_var] = True
        else:
            factor = cholesky_drop(factor, pos)
            s_buf[pos : k - 1] = s_buf[pos + 1 : k]
            active_mask[event_var] = False
            left_signs[event_var] = event_sign
        k = k_next
        act_idx = new_idx
        s_vec = s_buf[:k]

        factor, retained, A, sw = _direction(factor, s_vec, cone)
        if retained is not None:
            gone = np.ones(k, dtype=bool)
            gone[retained] = False
            proj_vars = act_idx[gone]
            left_signs.update(zip(proj_vars.tolist(), s_vec[gone].astype(int).tolist()))
            active_mask[proj_vars] = False
            proj = tuple(sorted(proj_vars.tolist()))
            act_buf[: retained.size] = act_idx[retained]
            s_buf[: retained.size] = s_vec[retained]
            k = retained.size
            act_idx = act_buf[:k]
            s_vec = s_buf[:k]
            C_hat = float(np.abs(c[act_idx]).sum()) / k

        gamma_bar = C_hat / A
        floor = 1e-12 * gamma_bar
        tie_tol = TIE_RTOL * max(1.0, C_hat)
        a = gram.stack(act_idx, sw)

        g_join = np.inf
        if k < max_active:
            cand_idx = (~active_mask).nonzero()[0]
            found = _scan_join(c, C_hat, A, a, cand_idx, left_signs, positive, tie_tol)
            if found is not None:
                g_join, j_next, s_next, n_tied = found
                if n_tied > 1:
                    _tie(
                        tie_mode,
                        f"{n_tied} candidates tie at gamma={g_join:.6g}; "
                        f"taking variable {j_next}",
                    )
        g_drop, p_drop = _scan_drop(beta[act_idx], sw, floor) if drops else (np.inf, None)
        gamma, event = _next_event(g_join, gamma_bar, g_drop)
        if event == "drop":
            j_drop = int(act_idx[p_drop])

        if gamma <= floor:
            zero_run += 1
            if zero_run > 1:
                raise StalledPath(
                    f"two consecutive zero-length moves at step {n_moves + 1}"
                )
        else:
            zero_run = 0

        beta[act_idx] += gamma * sw
        if event == "drop":
            beta[j_drop] = 0.0
        nz = beta.nonzero()[0]
        if nz.size:
            b_nz = beta[nz]
            c = c0 - gram.stack(nz, b_nz)
            rss = y_sq - float((c0[nz] + c[nz]) @ b_nz)
        else:
            c = c0.copy()
            rss = y_sq
        steps.append(
            PathStep(
                step_index=n_moves + 1,
                action=action,
                variable=event_var,
                sign=event_sign,
                active_after=tuple(act_idx.tolist()),
                signs_after=tuple(s_vec.astype(int).tolist()),
                gamma=float(gamma),
                C_max=C_hat,
                A=float(A),
                beta=beta.copy(),
                rss=float(rss),
                T=float(np.abs(beta).sum()),
                projection_dropped=proj,
            )
        )
        if event == "drop":
            pending = ("drop", j_drop, int(s_vec[p_drop]), p_drop)
        elif event == "join":
            pending = ("add", j_next, s_next, None)
        else:
            break
    return make_path()


def fit_path(design, variant="lars", *, max_steps=None, stop_after=None,
             jitter_seed=None):
    """Fit a coefficient path on a standardized design.

    ``variant`` selects the event rules: "lars" (additions only), "lasso"
    (sign-consistency drops), "stagewise" (cone projections), or
    "positive-lasso".  ``max_steps`` bounds the move count (default ``8 m``;
    exceeding it raises :class:`MaxStepsExceeded`).  ``stop_after``
    truncates the walk after that many moves without error.

    Ties are resolved to the lowest variable index with a
    :class:`TieWarning` unless ``jitter_seed`` is given, in which case the
    fit restarts (up to three times) with a centered uniform perturbation of
    the response at relative scale 1e-9.
    """
    kind = getattr(variant, "kind", variant)
    policy = POLICIES.get(kind) if isinstance(kind, str) else None
    if policy is None:
        raise VariantMismatch(f"unknown variant {kind!r}")
    if jitter_seed is None:
        return _fit_once(design, policy, max_steps, stop_after, tie_mode="warn")
    rng = np.random.default_rng(jitter_seed)
    scale = 1e-9 * float(np.linalg.norm(design.response))
    work = design
    for _ in range(3):
        try:
            return _fit_once(work, policy, max_steps, stop_after, tie_mode="raise")
        except _TieRestart:
            noise = rng.uniform(-1.0, 1.0, design.n) * scale
            if design.centered:
                noise -= noise.mean()
            work = replace(design, response=design.response + noise)
    return _fit_once(work, policy, max_steps, stop_after, tie_mode="warn")


def interpolate(path, t):
    """Coefficients at coefficient-magnitude budget ``t``.

    Linear interpolation in T = sum |beta_j| between the two bracketing
    vertices; exact at vertices.  ``t`` must lie in [0, path.t_max] up to a
    small slack, otherwise (NaN included) :class:`TOutOfRange` is raised.
    """
    betas = path.betas
    Ts, monotone = path._budgets
    t_end = float(Ts[-1])
    slack = 1e-12 * max(1.0, t_end)
    t = float(t)
    if not -slack <= t <= t_end + slack:
        raise TOutOfRange(f"t={t!r} outside [0, {t_end!r}]")
    t = min(max(t, 0.0), t_end)
    if monotone:
        hi = int(Ts.searchsorted(t, side="left"))
        if hi == 0:
            return betas[0].copy()
    else:
        # T can decrease after a drop; take the first bracketing segment.
        hi = None
        for i in range(1, len(Ts)):
            lo_t, hi_t = Ts[i - 1], Ts[i]
            if min(lo_t, hi_t) - slack <= t <= max(lo_t, hi_t) + slack:
                hi = i
                break
        if hi is None:
            raise TOutOfRange(f"t={t!r} not bracketed by any path segment")
    lo = hi - 1
    span = Ts[hi] - Ts[lo]
    theta = 0.0 if span == 0 else (t - Ts[lo]) / span
    return (1.0 - theta) * betas[lo] + theta * betas[hi]
