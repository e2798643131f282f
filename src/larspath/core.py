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

One walk serves all four variants, named by the strings in ``VARIANTS``.
From the name the walk derives three rules once per fit: ``positive`` (join
on the positive sign branch only; "positive-lasso"), ``drops``
(sign-crossing drops; "lasso" and "positive-lasso") and ``cone`` (stagewise
projection of the direction; "stagewise").  Each move calls the same step
primitives, which the tests exercise directly:

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
  products a = G[:, A] (s * w).  Both products read one block per move,
  for the rates and again for the refresh, because the support of a lars,
  lasso or positive-lasso path lies in its active set.  The block is
  carried across moves in a buffer that changes with the same edits as the
  active set (a join writes one row, a drop shifts the rows after it down,
  a cone projection gathers the retained rows to the front), so no move
  gathers it again: the active rows of G on a tall design, and on a wide
  one the active columns of X, stored as rows and read through a
  transpose.  Either view has the layout of the gather it replaces, rows
  of a C-ordered G or columns of X in Fortran order, so the rates and the
  refresh make the same BLAS calls on the same bytes as a gather.  A join takes the entering
  variable's cross products with the active set from the carried rows:
  k products through X on a wide design, not m.  A stagewise support also
  holds the coefficients that cone projections froze, so that variant
  refreshes over its sorted support with a gather of its own.
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
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (
    MaxStepsExceeded,
    StalledPath,
    TieWarning,
    TOutOfRange,
    VariantMismatch,
    as_integer,
)
from .linalg import (
    CholeskyFactor,
    cholesky_append,
    cholesky_drop,
    nnls_inner_loop,
    solve_gram,
)
from .preprocess import StandardizedDesign

__all__ = [
    "VARIANTS",
    "PathStep",
    "Path",
    "fit_path",
    "interpolate",
]


VARIANTS = ("lars", "lasso", "stagewise", "positive-lasso")

# Correlations this small (in response units) terminate the walk.
ENVELOPE_FLOOR = 1e-10

# Relative tolerance used for tie detection on the correlation scale.
TIE_RTOL = 1e-12

# Denominators below this are treated as exactly parallel to the envelope.
PARALLEL_TOL = 1e-14

# Signs of the join scan's two branches, one row each.
_BRANCH_SIGNS = np.array([[1.0], [-1.0]])


class _BudgetTable(NamedTuple):
    """What :func:`interpolate` reads of a path, built once: the vertex
    budgets T, their running maximum ``reach``, the rows of ``Path.betas``,
    and the largest budget and its slack."""

    Ts: Sequence
    reach: list
    rows: list
    t_top: float
    slack: float


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


# The fields a walk records for each vertex, in :class:`PathStep` order
# after ``step_index``; ``beta`` is kept apart, as the stacked
# ``Path.betas``, and ``T`` is reduced from it.
_MOVE_FIELDS = ("action", "variable", "sign", "active_after", "signs_after",
                "gamma", "C_max", "A", "rss", "projection_dropped")

# The starting vertex's active set and signs.
_NO_VARS = np.empty(0, dtype=int)
_NO_VARS.flags.writeable = False


class _Vertices(Sequence):
    """The vertices of a path, recorded as columns, read as
    :class:`PathStep` objects.

    ``betas`` is the read-only ``(K + 1, m)`` stack of vertex coefficients.
    ``columns`` holds one sequence per other :class:`PathStep` field, by
    name (``_MOVE_FIELDS`` and ``T``), with each vertex's active set and
    signs as arrays.  Every index or slice builds its :class:`PathStep`
    objects from the columns again; nothing built is kept.
    """

    def __init__(self, columns, betas):
        self.columns = columns
        self.betas = betas

    @classmethod
    def of(cls, steps):
        """The columns of the given :class:`PathStep` objects."""
        steps = tuple(steps)
        columns = {name: tuple(getattr(s, name) for s in steps)
                   for name in (*_MOVE_FIELDS, "T")}
        for name, dtype in (("active_after", int), ("signs_after", np.int8)):
            columns[name] = tuple(np.array(v, dtype=dtype) for v in columns[name])
        betas = np.array([s.beta for s in steps])
        betas.flags.writeable = False
        return cls(columns, betas)

    def __len__(self):
        return len(self.columns["T"])

    def __getitem__(self, i):
        """The vertex at index ``i``, or a tuple of those in slice ``i``."""
        picked = range(len(self))[i]
        if isinstance(i, slice):
            return tuple(self[j] for j in picked)
        fields = {name: column[picked] for name, column in self.columns.items()}
        for name in ("active_after", "signs_after"):
            fields[name] = tuple(fields[name].tolist())
        return PathStep(picked, beta=self.betas[picked], **fields)


@dataclass(frozen=True)
class Path:
    """A fitted coefficient path: the starting vertex plus one per move.

    ``steps`` holds the vertices as recorded columns and builds each
    :class:`PathStep` when it is read; ``n_steps``, ``t_max``, ``betas``,
    ``entry_order`` and :func:`interpolate` read the columns.  Steps given
    in another form, as by ``Path(variant, steps, design)`` or
    ``dataclasses.replace(path, steps=...)``, are recorded as columns once,
    when the path is made.
    """

    variant: str
    steps: Sequence
    design: StandardizedDesign = field(repr=False)

    def __post_init__(self):
        if not isinstance(self.steps, _Vertices):
            object.__setattr__(self, "steps", _Vertices.of(self.steps))

    def _field(self, name):
        """Every vertex's ``name`` field, as recorded."""
        return self.steps.columns[name]

    @property
    def n_steps(self):
        return len(self.steps) - 1

    @property
    def entry_order(self):
        return [v for a, v in zip(self._field("action"), self._field("variable"))
                if a == "add"]

    @property
    def t_max(self):
        return self._field("T")[-1]

    @property
    def betas(self):
        """The read-only ``(n_steps + 1, m)`` vertex coefficients."""
        return self.steps.betas

    @cached_property
    def _budget_table(self):
        """The vertex budgets and rows as ``interpolate`` reads them, built
        once."""
        Ts = self._field("T")
        reach = list(accumulate(Ts, max))
        t_top = reach[-1]
        return _BudgetTable(Ts, reach, list(self.betas), t_top, 1e-12 * max(1.0, t_top))


def _max_active(design):
    """The most variables a walk can hold: m, below n, or n - 1 if centered."""
    return min(design.m, design.n - 1 if design.centered else design.n)


def _record_path(variant, design, C_max0, rss0, moves, betas):
    """The :class:`Path` of a walk from each move's fields in the order of
    ``_MOVE_FIELDS`` (``moves``, with the active set and signs as arrays
    that nothing else holds) and every vertex's coefficients (``betas``),
    stacked once into the read-only ``Path.betas``; one reduction over it
    gives every T."""
    stacked = np.array(betas)
    stacked.flags.writeable = False
    Ts = np.add.reduce(np.abs(stacked), axis=1).tolist()
    start = (None, None, None, _NO_VARS, _NO_VARS, 0.0, C_max0, 0.0, rss0, ())
    columns = dict(zip(_MOVE_FIELDS, zip(start, *moves)), T=Ts)
    return Path(variant=variant, steps=_Vertices(columns, stacked), design=design)


class _TieRestart(Exception):
    """Internal: a tie was hit while a jitter restart is available."""


class _GramCache:
    """Products with G = X'X: materialized when n >= m, through X otherwise.

    A tall design (n >= m) keeps the m x m Gram matrix and reads its rows,
    which equal its columns (G is symmetric): a row gather is contiguous
    where a column gather is strided.  A wide design neither forms G nor
    caches its columns: every product is two matrix-vector products with X,
    O(n m) per move as in the paper's cost argument.

    After ``carry``, the walk's active set is carried in a buffer of rows
    that ``join``, ``drop`` and ``keep`` change as the walk changes its
    active set: rows of G on a tall design, columns of X on a wide one.
    ``active_block`` reads them in place, with the layout of ``block``.
    """

    def __init__(self, X):
        self.X = X
        n, m = X.shape
        self._full = X.T @ X if n >= m else None

    def carry(self, capacity):
        """Start carrying up to ``capacity`` active rows: rows of G when it
        is materialized, columns of X otherwise."""
        n, m = self.X.shape
        self._rows = np.empty((capacity, n if self._full is None else m))

    def join(self, k, j, act_idx):
        """Carry variable j's row in slot ``k`` and return its Gram cross
        products with the ``k`` active variables ``act_idx`` (a new array)
        and its squared norm."""
        if self._full is not None:
            col = self._full[j]
            self._rows[k] = col
            return col[act_idx], float(col[j])
        row = self._rows[k]
        row[:] = self.X[:, j]
        products = self._rows[: k + 1] @ row
        return products[:k], float(products[k])

    def drop(self, pos, k):
        """Remove carried row ``pos`` of ``k``; the rows after it move down."""
        self._rows[pos : k - 1] = self._rows[pos + 1 : k]

    def keep(self, retained):
        """Keep the carried rows at positions ``retained``, in that order."""
        self._rows[: retained.size] = self._rows[retained]

    def active_block(self, act_idx):
        """The ``block`` of the active set ``act_idx``, read from the
        carried rows."""
        rows = self._rows[: act_idx.size]
        return rows if self._full is not None else rows.T

    def block(self, indices):
        """The block that products with ``G[:, indices]`` read: those rows
        of G on a tall design, those columns of X on a wide one."""
        if self._full is not None:
            return self._full[indices]
        return self.X[:, indices]

    def times(self, block, weights):
        """``G[:, indices] @ weights`` from the ``block`` of ``indices``."""
        if self._full is not None:
            return weights @ block
        return self.X.T @ (block @ weights)

    def stack(self, indices, weights):
        """``G[:, indices] @ weights``."""
        return self.times(self.block(indices), weights)


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
    num = branches * c[cand_idx]
    np.subtract(C_hat, num, out=num)
    den = branches * a[cand_idx]
    np.subtract(A, den, out=den)
    gap = num > tie_tol
    r = np.full(num.shape, np.inf)
    np.divide(num, den, out=r, where=gap & (den > PARALLEL_TOL))
    if not gap.all():
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

    p = int(best.argmin())
    gmin = best[p]
    if not gmin < np.inf:
        return None
    # (best - gmin) * A rises with best, so another candidate ties only if
    # the runner-up does; only then are the ties counted and the lowest
    # tied index taken.
    best[p] = np.inf
    runner_up = np.minimum.reduce(best)
    best[p] = gmin
    n_tied = 1
    if (runner_up - gmin) * A <= tie_tol:
        tied = (best - gmin) * A <= tie_tol
        p = int(tied.argmax())
        n_tied = int(np.count_nonzero(tied))
    sign = 1 if positive or r[0, p] <= r[1, p] else -1
    return float(best[p]), int(cand_idx[p]), sign, n_tied


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
    are ``s_vec``.  Returns ``(retained, A, sw)``: with ``sw`` the signed
    weights, ``u = X_A sw`` is the unit direction along which every active
    column's signed correlation falls at rate ``A``.  Under ``cone`` a
    direction outside the active sign cone is replaced by the equiangular
    direction of its Lawson-Hanson face: ``retained`` holds the positions
    kept, the factor is refactorized in place to those positions, and
    ``sw`` covers them only.  ``retained`` is None when no projection was
    needed.
    """
    g1 = solve_gram(factor, np.ones(s_vec.size))
    retained = None
    if cone and np.minimum.reduce(g1) <= 0.0:
        w_target = (1.0 / math.sqrt(np.add.reduce(g1))) * g1
        _, retained = nnls_inner_loop(factor, w_target)
        s_vec = s_vec[retained]
        g1 = solve_gram(factor, np.ones(retained.size))
    A = 1.0 / math.sqrt(np.add.reduce(g1))
    # g1 is the solve's own array: scaled in place into sw.
    g1 *= A
    g1 *= s_vec
    return retained, A, g1


def _refresh(gram, c0, y_sq, beta, block, beta_A):
    """Correlations ``c = X'y - G beta`` and the residual sum of squares
    after a move whose support lies in the active set: ``block`` is the
    active set's Gram block, read already for the move's rates, and
    ``beta_A`` the active coefficients in its order."""
    c = c0 - gram.times(block, beta_A)
    return c, y_sq - float((c0 + c) @ beta)


def _envelope(c, idx):
    """Mean |c| over the variables ``idx``."""
    c_idx = c[idx]
    return float(np.add.reduce(np.abs(c_idx, out=c_idx))) / idx.size


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


def _fit_once(design, variant, max_steps, stop_after, tie_mode):
    X = design.columns
    y = design.response
    m = X.shape[1]
    budget = 8 * m if max_steps is None else max_steps
    max_active = _max_active(design)
    positive = variant == "positive-lasso"
    drops = positive or variant == "lasso"
    cone = variant == "stagewise"

    gram = _GramCache(X)
    gram.carry(max_active + 1)
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
    # the retained entries to the front; ``gram`` carries the active rows
    # of G (of X', on a wide design) through the same edits.  Nothing
    # recorded on the path is a view of them.
    act_buf = np.empty(max_active + 1, dtype=int)
    s_buf = np.empty(max_active + 1)
    k = 0
    act_idx = act_buf[:0]
    s_vec = s_buf[:0]
    active_mask = np.zeros(m, dtype=bool)
    factor = CholeskyFactor()

    C0 = float(np.abs(c).max()) if m else 0.0
    # Per move, the fields ``_record_path`` reads, and the vertex's beta.
    moves = []
    betas = [beta.copy()]

    # Cold start: highest absolute correlation (highest positive correlation
    # for the positive variant), ties to the lowest index.
    score = c if positive else np.abs(c)
    top = float(score.max()) if m else 0.0
    if top < ENVELOPE_FLOOR:
        return _record_path(variant, design, C0, y_sq, moves, betas)
    tied = np.flatnonzero(score >= top - TIE_RTOL * max(1.0, top))
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
        C_hat = _envelope(c, new_idx)
        if C_hat < ENVELOPE_FLOOR:
            break
        n_moves = len(moves)
        if stop_after is not None and n_moves >= stop_after:
            break
        if n_moves >= budget:
            raise MaxStepsExceeded(f"path incomplete after {n_moves} moves")

        left_signs = {}
        proj = ()
        if action == "add":
            cross, norm_sq = gram.join(k, event_var, act_idx)
            # The entering column's signed cross products, event_sign * s_vec
            # * cross, formed in place: the signs are +-1, so the products
            # are exact in any order.
            cross *= s_vec
            if event_sign < 0:
                np.negative(cross, out=cross)
            cholesky_append(factor, cross, norm_sq)
            s_buf[k] = event_sign
            active_mask[event_var] = True
        else:
            cholesky_drop(factor, pos)
            gram.drop(pos, k)
            s_buf[pos : k - 1] = s_buf[pos + 1 : k]
            active_mask[event_var] = False
            left_signs[event_var] = event_sign
        k = k_next
        act_idx = new_idx
        s_vec = s_buf[:k]

        retained, A, sw = _direction(factor, s_vec, cone)
        if retained is not None:
            gone = np.ones(k, dtype=bool)
            gone[retained] = False
            proj_vars = act_idx[gone]
            left_signs.update(zip(proj_vars.tolist(), s_vec[gone].astype(int).tolist()))
            active_mask[proj_vars] = False
            proj = tuple(sorted(proj_vars.tolist()))
            act_buf[: retained.size] = act_idx[retained]
            s_buf[: retained.size] = s_vec[retained]
            gram.keep(retained)
            k = retained.size
            act_idx = act_buf[:k]
            s_vec = s_buf[:k]
            C_hat = _envelope(c, act_idx)

        gamma_bar = C_hat / A
        floor = 1e-12 * gamma_bar
        tie_tol = TIE_RTOL * max(1.0, C_hat)
        # One active block serves the rates a = G_A sw here and the refresh
        # after the move.
        block = gram.active_block(act_idx)
        a = gram.times(block, sw)

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
        beta_A = beta[act_idx]
        g_drop, p_drop = _scan_drop(beta_A, sw, floor) if drops else (np.inf, None)
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

        # sw is _direction's own array: scaled in place into the move.
        sw *= gamma
        beta_A += sw
        if event == "drop":
            beta_A[p_drop] = 0.0
        beta[act_idx] = beta_A
        if cone:
            # A stagewise support also holds the variables projected out,
            # frozen at nonzero coefficients that the active block misses.
            nz = beta.nonzero()[0]
            b_nz = beta[nz]
            c = c0 - gram.stack(nz, b_nz)
            rss = y_sq - float((c0[nz] + c[nz]) @ b_nz)
        else:
            c, rss = _refresh(gram, c0, y_sq, beta, block, beta_A)
        moves.append((action, event_var, event_sign, act_idx.copy(),
                      s_vec.astype(np.int8), float(gamma), C_hat, float(A),
                      float(rss), proj))
        betas.append(beta.copy())
        if event == "drop":
            pending = ("drop", j_drop, int(s_vec[p_drop]), p_drop)
        elif event == "join":
            pending = ("add", j_next, s_next, None)
        else:
            break
    return _record_path(variant, design, C0, y_sq, moves, betas)


def fit_path(design, variant="lars", *, max_steps=None, stop_after=None,
             jitter_seed=None):
    """Fit a coefficient path on a standardized design.

    ``variant`` selects the event rules: "lars" (additions only), "lasso"
    (sign-consistency drops), "stagewise" (cone projections), or
    "positive-lasso".  ``max_steps`` bounds the move count (default ``8 m``;
    exceeding it raises :class:`MaxStepsExceeded`).  ``stop_after``
    truncates the walk after that many moves without error.  A count, or a
    ``jitter_seed``, that is not a non-negative integer raises
    :class:`DimensionMismatch`.

    Ties are resolved to the lowest variable index with a
    :class:`TieWarning` unless ``jitter_seed`` is given, in which case the
    fit restarts (up to three times) with a centered uniform perturbation of
    the response at relative scale 1e-9.
    """
    if not (isinstance(variant, str) and variant in VARIANTS):
        raise VariantMismatch(f"unknown variant {variant!r}")
    if max_steps is not None:
        max_steps = as_integer(max_steps, "max_steps", minimum=0)
    if stop_after is not None:
        stop_after = as_integer(stop_after, "stop_after", minimum=0)
    if jitter_seed is None:
        return _fit_once(design, variant, max_steps, stop_after, tie_mode="warn")
    rng = np.random.default_rng(as_integer(jitter_seed, "jitter_seed", minimum=0))
    scale = 1e-9 * float(np.linalg.norm(design.response))
    work = design
    for _ in range(3):
        try:
            return _fit_once(work, variant, max_steps, stop_after, tie_mode="raise")
        except _TieRestart:
            noise = rng.uniform(-1.0, 1.0, design.n) * scale
            if design.centered:
                noise -= noise.mean()
            work = replace(design, response=design.response + noise)
    return _fit_once(work, variant, max_steps, stop_after, tie_mode="warn")


def interpolate(path, t):
    """Coefficients at coefficient-magnitude budget ``t``.

    Linear interpolation in T = sum |beta_j| between the two vertices of
    the first segment that reaches ``t``: its end is the first vertex whose
    T is ``t`` or more, found by one bisection of the running maximum of T,
    whether or not T falls somewhere before it, as on a lars path whose
    last move lowers it.  Exact at vertices.  ``t`` must be a number in
    [0, max T] up to a small slack, otherwise (NaN included)
    :class:`TOutOfRange` is raised; max T is ``path.t_max`` unless T falls.
    """
    Ts, reach, rows, t_top, slack = path._budget_table
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise TOutOfRange(f"t={t!r} is not a number") from None
    if not -slack <= t <= t_top + slack:
        raise TOutOfRange(f"t={t!r} outside [0, {t_top!r}]")
    t = min(max(t, 0.0), t_top)
    hi = bisect_left(reach, t)
    if hi == 0:
        return rows[0].copy()
    lo = hi - 1
    span = Ts[hi] - Ts[lo]
    theta = 0.0 if span == 0 else (t - Ts[lo]) / span
    beta = (1.0 - theta) * rows[lo]
    beta += theta * rows[hi]
    return beta
