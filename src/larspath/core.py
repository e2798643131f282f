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
  envelope, on both sign branches at once, in whole-array NumPy calls;
* ``_scan_drop``: the first active coefficient to cross zero, found in
  Python floats among the few entries whose signs let them cross;
* ``_next_event``: arbitration between join, drop and the final move.

Numerical conventions that the step counts depend on:

* Correlations are recomputed exactly, c = X'y - G beta, at every vertex.
  Incremental correlation updates drift at the 1e-2 level on
  ill-conditioned quadratic designs and were observed to derail drop/join
  ordering; exact recomputation removes the drift entirely.  Each vertex
  is settled from its whole support as a row sum (see ``_GramCache``):
  over the active block, which is carried across moves with the active
  set, for lars, lasso and positive-lasso, whose support lies in the
  active set; over the sorted support for stagewise, whose support also
  holds the coefficients that cone projections froze.  Every variant
  carries one fit per shape.  A tall design refreshes c, O(m * k) from
  the Gram matrix, which the design forms, O(n * m^2), for its first fit
  and lends to every later fit and resampling refit, and the next move
  takes its rates a = G[:, A] (s * w) from the active block.  A wide
  design keeps the fit X beta, O(n * k), and the next move gets c and a
  from one two-column product through X: one O(n * m) pass over X per
  move.
* A variable that leaves the active set at the current vertex (coefficient
  sign crossing, or cone projection under the stagewise variant) sits
  exactly on the correlation envelope.  Its same-sign join ratio is 0/0 and
  must not be re-detected by tolerance; the scan excludes the leaver's
  departing sign branch at that vertex only.  The opposite sign branch
  stays live, which is what allows a dropped variable to re-enter later.
* Join/drop events are carried explicitly from one vertex to the next
  (``pending`` state) instead of being re-derived from correlations.  The
  next move runs its stopping tests, which edit nothing, then applies its
  event to the active set in one call (``_ActiveSet``), and reads the
  envelope from the edited set.
* Every tolerance is relative, so no decision depends on the units of y:
  y -> 2**k y keeps every event and scales every vertex by exactly 2**k.
  The walk does not start when its top score is not above ``ENVELOPE_RTOL``
  |y|, and it ends when the envelope falls below ``ENVELOPE_RTOL`` C0, C0
  being the largest |c| at the start; ``forward_selection`` stops at the
  same floor.  A candidate ties when its gap to the envelope is within
  ``TIE_RTOL`` C_hat, and the drop scan ignores crossings nearer than
  1e-12 of the full travel.  ``PARALLEL_TOL`` compares rates, which depend
  on X alone.  The value of ``ENVELOPE_RTOL`` is not critical: on 18 Gaussian
  100 x 1000 designs, floors from 1e-12 C0 to 1e-8 C0 all complete the
  stagewise walk with |y - X beta|^2 / |y|^2 below 1e-15, and keep the
  diabetes paths equal under y -> 2**k y.  1e-8, the coarsest, spends the
  fewest moves on the tail of rounding noise.

One rule ends a walk that cannot finish.  Adds only grow the active set,
at most ``_max_active`` in a row, so a walk that never ends shrinks the
set without end: by a lasso or positive-lasso drop, or by a stagewise
projection, which cuts at least one position.  There are finitely many
(active set, signs) states, so such a walk shrinks to one of them twice.
The walk keys the state after each shrinking move, and a second shrink to
a key raises ``StalledPath``, on the second lap of any cycle.  A lasso
walk in general position never gets there: each (active set, signs) pair
holds on one interval of the envelope (Tibshirani 2013, "The lasso problem
and uniqueness").  No move count bounds the walk, since a legitimate lasso
path can have (3^p + 1) / 2 segments (Mairal & Yu 2012).  A lars walk only
adds, and keys nothing.
"""

import math
import warnings
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    StalledPath,
    TieWarning,
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

# The walk's relative floor: a fraction of C0 for the envelope, and of |y|
# for the cold start's top score.
ENVELOPE_RTOL = 1e-8

# Relative tolerance used for tie detection on the correlation scale.
TIE_RTOL = 1e-12

# Denominators below this are treated as exactly parallel to the envelope.
PARALLEL_TOL = 1e-14


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


@dataclass(frozen=True, eq=False)
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
        return _BudgetTable(Ts, reach, list(self.betas), t_top, 1e-12 * t_top)


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


class _GramCache:
    """Products with G = X'X of a design, read from ``rows``, a table with
    one row per variable, and the fit at the walk's vertex.

    On a tall design (n >= m) ``rows`` is the design's G, built once for
    all its fits; G's rows are its columns, so a product with the columns
    ``indices`` of G reads the rows ``rows[indices]``.  A wide design
    never forms G: ``rows`` is the view ``X'``, and ``_X`` finishes each
    product with a pass over X.  The walk carries its active set's rows
    across moves instead of gathering them (see ``_ActiveSet``).

    From ``begin`` on, the cache carries the fit at the walk's vertex, one
    per shape for every variant, settled from a row sum over a set that
    holds beta's support (``beta_A @ block``, or ``stack``).  On a tall
    design the sum is G beta and the cache carries c = X'y - G beta, O(m);
    ``rates`` reads the next move's rates from the active rows.  On a wide
    one the sum is mu = X beta, which the cache carries; ``rates`` gets c
    and the rates from one two-column product through X, one pass over X
    per move as in the paper's cost argument, and ``correlation`` reads
    one entry of c, O(n) from mu.
    """

    def __init__(self, design):
        G, X = design._gram, design.columns
        self._X = None if G is not None else X
        self.rows = G if G is not None else X.T

    def times(self, rows, weights):
        """``G[:, indices] @ weights`` from the ``rows`` of ``indices``."""
        out = weights @ rows
        return out if self._X is None else self._X.T @ out

    def begin(self, c0, y_sq):
        """Start a walk at beta = 0, from ``c0 = X'y`` and ``y_sq = y'y``."""
        self._c0, self._y_sq = c0, y_sq
        if self._X is None:
            self._c = c0
            return
        n = self._X.shape[0]
        self._mu = np.zeros(n)
        # mu and X_A sw, the fused product's weights, as two rows.
        self._w = np.empty((2, n))

    def settle(self, beta, product):
        """Carry the vertex ``beta`` from ``product``, the rows of a set
        that holds its support, each weighted by its coefficient; return
        its residual sum of squares."""
        c0, y_sq = self._c0, self._y_sq
        if self._X is None:
            self._c = c = c0 - product
            return y_sq - float((c0 + c) @ beta)
        # |y - mu|^2 = y'y - 2 c0'beta + mu'mu, from this vertex alone.
        self._mu = product
        return y_sq - 2.0 * float(c0 @ beta) + float(product @ product)

    def correlation(self, j):
        """``c[j]`` at the carried vertex."""
        if self._X is None:
            return self._c[j]
        return self._c0[j] - self.rows[j] @ self._mu

    def rates(self, block, sw):
        """``(c, a)`` at the carried vertex: its correlations, and the rates
        ``a = G_A sw`` from the active set's rows ``block``."""
        if self._X is None:
            return self._c, sw @ block
        w = self._w
        w[0] = self._mu
        w[1] = sw @ block
        both = w @ self._X
        return self._c0 - both[0], both[1]

    def stack(self, indices, weights):
        """``weights @ rows[indices]``: G[:, indices] @ weights on a tall
        design, X[:, indices] @ weights on a wide one."""
        return weights @ self.rows[indices]

    def cross(self, rows, k, idx, j):
        """``G[idx, j]`` and ``G[j, j]``, where the first k of ``rows`` are
        those of ``idx`` and row k is that of ``j``: a gather from the row
        of ``j`` on a tall design, k + 1 products through X on a wide one."""
        if self._X is None:
            row = rows[k]
            return row[idx], row[j]
        products = rows[: k + 1] @ rows[k]
        return products[:k], products[k]


class _ActiveSet:
    """The active set of a walk, and all that changes with it: ``idx``, the
    variables in factor order; ``signs``, as floats ready to scale weights;
    ``inactive``, the other variables; ``state``, every variable's sign
    as an int8, 0 when inactive, whose bytes key the (active set, signs)
    state; ``factor``, the Cholesky factor of the signed Gram matrix;
    ``block``, the ``_GramCache.rows`` of ``idx``.  Only ``add``, ``drop``
    and ``keep`` (a cone projection) change them, each in one call.

    Each part is the first k entries of a buffer allocated once: an add
    writes entry k, a drop shifts the entries after it down, a keep gathers
    the retained ones to the front, and nothing recorded on a path is a
    view of them.  So the block is carried across moves, not gathered, and
    has the layout of the gather it replaces: products with it make the
    same BLAS calls on the same bytes.  An add takes its cross products
    from the carried rows (``_GramCache.cross``).
    """

    __slots__ = ("_gram", "_vars", "_signs", "_rows",
                 "inactive", "state", "factor", "k", "idx", "signs", "block")

    def __init__(self, gram, capacity):
        self._gram = gram
        m, width = gram.rows.shape
        self._vars = np.empty(capacity, dtype=int)
        self._signs = np.empty(capacity)
        self._rows = np.empty((capacity, width))
        self.inactive = np.ones(m, dtype=bool)
        self.state = np.zeros(m, dtype=np.int8)
        self.factor = CholeskyFactor(capacity)
        self._resize(0)

    def _resize(self, k):
        """Make the first ``k`` variables the active set."""
        self.k = k
        self.idx = self._vars[:k]
        self.signs = self._signs[:k]
        self.block = self._rows[:k]

    def add(self, j, s):
        """Add ``j`` with sign ``s`` (:class:`DegenerateColumn` when j
        depends on the active set)."""
        k = self.k
        self._rows[k] = self._gram.rows[j]
        cross, norm_sq = self._gram.cross(self._rows, k, self.idx, j)
        # The signed cross products, s * signs * G[A, j], formed in place:
        # the signs are +-1, so the products are exact in any order.
        cross *= self.signs
        if s < 0:
            np.negative(cross, out=cross)
        cholesky_append(self.factor, cross, float(norm_sq))
        self._vars[k] = j
        self._signs[k] = s
        self.inactive[j] = False
        self.state[j] = s
        self._resize(k + 1)

    def drop(self, pos):
        """Drop the variable at position ``pos``; return it and its sign,
        as arrays."""
        k = self.k - 1
        left = self._vars[pos : pos + 1].copy(), self._signs[pos : pos + 1].copy()
        self.inactive[self._vars[pos]] = True
        self.state[self._vars[pos]] = 0
        cholesky_drop(self.factor, pos)
        for buf in (self._vars, self._signs, self._rows):
            buf[pos:k] = buf[pos + 1 : k + 1]
        self._resize(k)
        return left

    def keep(self, retained):
        """Keep the positions ``retained``, to which the cone projection has
        cut the factor; return the variables that left and their signs, as
        arrays."""
        gone = np.ones(self.k, dtype=bool)
        gone[retained] = False
        left = self.idx[gone], self.signs[gone]
        k = retained.size
        for buf in (self._vars, self._signs, self._rows):
            buf[:k] = buf[retained]
        self.inactive[left[0]] = True
        self.state[left[0]] = 0
        self._resize(k)
        return left


def _response_sq(y):
    """y'y, or :class:`DimensionMismatch` when it overflows."""
    # vdot returns inf on overflow without warning, and the same bytes as y @ y.
    y_sq = float(np.vdot(y, y))
    if y_sq == math.inf:
        raise DimensionMismatch("response too large: its sum of squares overflows")
    return y_sq


def _scan_join(c, C_hat, A, a, cand_idx, left_vars, left_signs, positive, tie_tol):
    """Smallest travel distance at which a candidate ties the envelope.

    Works on both sign branches (one for the positive variant).  A branch
    whose correlation gap is within ``tie_tol`` of zero ties immediately
    (distance 0); this includes the exactly-parallel 0/0 case.  The
    departing branches of ``left_vars`` (signs ``left_signs``) are barred.
    ``cand_idx`` is never empty: the walk scans only while fewer than
    ``_max_active`` <= m variables are active.  Returns ``(gamma, variable,
    sign, n_tied)`` or None when nothing ties.
    """
    c_cand, a_cand = c[cand_idx], a[cand_idx]
    # Row 0 is the positive sign branch; row 1, absent for the positive
    # variant, the negative one, whose C_hat + c is C_hat - (-c) bit for bit.
    shape = (1 if positive else 2, cand_idx.size)
    num, den = np.empty(shape), np.empty(shape)
    np.subtract(C_hat, c_cand, out=num[0])
    np.subtract(A, a_cand, out=den[0])
    if not positive:
        np.add(C_hat, c_cand, out=num[1])
        np.add(A, a_cand, out=den[1])
    gap = num > tie_tol
    r = np.empty(shape)
    r.fill(math.inf)
    np.divide(num, den, out=r, where=gap & (den > PARALLEL_TOL))
    if not gap.item(gap.argmin()):
        # Tied now: no gap, and the candidate is not falling behind.
        r[(np.abs(num) <= tie_tol) & (den >= -PARALLEL_TOL)] = 0.0
    if left_vars.size:
        # A departing branch is row 0 for sign +1 and row 1 for sign -1,
        # which the positive variant does not scan.
        for var, s in zip(left_vars.tolist(), left_signs.tolist()):
            if s > 0 or not positive:
                r[int(s < 0), int(cand_idx.searchsorted(var))] = math.inf
    best = r[0] if positive else np.minimum(r[0], r[1])

    p = int(best.argmin())
    gmin = best.item(p)
    if not gmin < math.inf:
        return None
    # (best - gmin) * A rises with best, so another candidate ties only if
    # the runner-up does; only then are the ties counted and the lowest
    # tied index taken.
    best[p] = math.inf
    runner_up = best.item(best.argmin())
    best[p] = gmin
    n_tied = 1
    if (runner_up - gmin) * A <= tie_tol:
        tied = (best - gmin) * A <= tie_tol
        p = int(tied.argmax())
        n_tied = int(np.count_nonzero(tied))
    sign = 1 if positive or r.item(0, p) <= r.item(1, p) else -1
    return best.item(p), cand_idx.item(p), sign, n_tied


def _scan_drop(beta_active, direction, floor):
    """First active coefficient to cross zero along the move direction.

    Entry i crosses at -b_i / d_i > 0 only when b_i and d_i are nonzero and
    of opposite signs, so ``(b < 0) != (d < 0)`` selects every entry that
    can cross; a test b_i d_i < 0 would miss tiny entries, whose product
    underflows to -0.0.  The selected entries, usually few, are divided in
    Python floats, as NumPy divides; zero rates never cross, and the first
    smallest distance above ``floor`` wins.
    """
    gamma, p = math.inf, None
    for i in ((beta_active < 0) != (direction < 0)).nonzero()[0].tolist():
        d = direction.item(i)
        if d:
            r = -beta_active.item(i) / d
            if floor < r < gamma:
                gamma, p = r, i
    return gamma, p


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
    # NumPy's ones, written in Python, takes twice as long as this fill.
    ones = np.empty(s_vec.size)
    ones.fill(1.0)
    g1 = solve_gram(factor, ones)
    retained = None
    if cone and np.minimum.reduce(g1) <= 0.0:
        w_target = (1.0 / math.sqrt(np.add.reduce(g1))) * g1
        _, retained = nnls_inner_loop(factor, w_target)
        s_vec = s_vec[retained]
        g1 = solve_gram(factor, ones[: retained.size])
    A = 1.0 / math.sqrt(np.add.reduce(g1))
    # g1 is the solve's own array: scaled in place into sw.
    g1 *= A
    g1 *= s_vec
    return retained, A, g1


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


def fit_path(design, variant="lars", *, stop_after=None):
    """Fit a coefficient path on a standardized design.

    ``variant`` selects the event rules: "lars" (additions only), "lasso"
    (sign-consistency drops), "stagewise" (cone projections), or
    "positive-lasso".  ``stop_after`` truncates the walk after that many
    moves without error; a count that is not a non-negative integer raises
    :class:`DimensionMismatch`.

    Tied candidates join one at a time, lowest variable index first,
    through zero-length moves, with a :class:`TieWarning`.  A move that
    shrinks the active set (a drop, or a stagewise projection) to an
    active set and signs that an earlier move shrank it to raises
    :class:`StalledPath`: the walk would cycle.
    """
    if not (isinstance(variant, str) and variant in VARIANTS):
        raise VariantMismatch(f"unknown variant {variant!r}")
    if stop_after is not None:
        stop_after = as_integer(stop_after, "stop_after", minimum=0)
    X = design.columns
    y = design.response
    m = X.shape[1]
    max_active = _max_active(design)
    positive = variant == "positive-lasso"
    drops = positive or variant == "lasso"
    cone = variant == "stagewise"

    y_sq = _response_sq(y)
    gram = _GramCache(design)
    active = _ActiveSet(gram, max_active)
    c0 = X.T @ y
    gram.begin(c0, y_sq)
    beta = np.zeros(m)

    C0 = float(np.abs(c0).max()) if m else 0.0
    # Per move, the fields ``_record_path`` reads, and the vertex's beta.
    moves = []
    betas = [beta.copy()]

    # Cold start: highest absolute correlation (highest positive correlation
    # for the positive variant), ties to the lowest index; nothing to fit
    # when it is negligible against |y|.
    score = c0 if positive else np.abs(c0)
    top = float(score.max()) if m else 0.0
    if not top > ENVELOPE_RTOL * math.sqrt(y_sq):
        return _record_path(variant, design, C0, y_sq, moves, betas)
    tied = np.flatnonzero(score >= top - TIE_RTOL * top)
    if tied.size > 1:
        warnings.warn(f"{tied.size} variables tie at the start; taking {int(tied[0])}",
                      TieWarning, stacklevel=2)
    j0 = int(tied[0])
    s0 = 1 if (positive or c0[j0] >= 0) else -1
    # The next event: its action, variable, sign and, for a drop, the
    # variable's position in the active set.
    pending = ("add", j0, s0, None)
    C_floor = ENVELOPE_RTOL * C0
    # The (active set, signs) states that moves have shrunk the walk to.
    shrunk = set()

    while True:
        n_moves = len(moves)
        if stop_after is not None and n_moves >= stop_after:
            break
        action, event_var, event_sign, pos = pending
        # The walk ends once the correlations have vanished, read from the
        # event's variable, which ties the active ones, before the edit: a
        # column in the active span may join at that point.
        if abs(gram.correlation(event_var)) < C_floor:
            break
        left_vars = left_signs = _NO_VARS
        proj = ()
        if pos is None:
            active.add(event_var, event_sign)
        else:
            left_vars, left_signs = active.drop(pos)

        retained, A, sw = _direction(active.factor, active.signs, cone)
        if retained is not None:
            left_vars, left_signs = active.keep(retained)
            proj = tuple(sorted(left_vars.tolist()))
        if left_vars.size:
            state = active.state.tobytes()
            if state in shrunk:
                raise StalledPath(f"the walk shrinks again to an active set and "
                                  f"signs it has shrunk to, at step {n_moves + 1}")
            shrunk.add(state)
        act_idx = active.idx
        s_vec = active.signs
        # The active block serves the correlations and the rates a = G_A sw
        # here, and the vertex after the move.
        block = active.block
        c, a = gram.rates(block, sw)
        C_hat = _envelope(c, act_idx)

        gamma_bar = C_hat / A
        floor = 1e-12 * gamma_bar
        tie_tol = TIE_RTOL * C_hat

        g_join = np.inf
        if act_idx.size < max_active:
            cand_idx = active.inactive.nonzero()[0]
            found = _scan_join(c, C_hat, A, a, cand_idx, left_vars, left_signs,
                               positive, tie_tol)
            if found is not None:
                g_join, j_next, s_next, n_tied = found
                if n_tied > 1:
                    warnings.warn(f"{n_tied} candidates tie at gamma={g_join:.6g}; "
                                  f"taking variable {j_next}", TieWarning, stacklevel=2)
        beta_A = beta[act_idx]
        g_drop, p_drop = _scan_drop(beta_A, sw, floor) if drops else (np.inf, None)
        gamma, event = _next_event(g_join, gamma_bar, g_drop)

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
            rss = gram.settle(beta, gram.stack(nz, beta[nz]))
        else:
            rss = gram.settle(beta, beta_A @ block)
        moves.append((action, event_var, event_sign, act_idx.copy(),
                      s_vec.astype(np.int8), float(gamma), C_hat, float(A),
                      rss, proj))
        betas.append(beta.copy())
        if event == "drop":
            pending = ("drop", int(act_idx[p_drop]), int(s_vec[p_drop]), p_drop)
        elif event == "join":
            pending = ("add", j_next, s_next, None)
        else:
            break
    return _record_path(variant, design, C0, y_sq, moves, betas)


def interpolate(path, t):
    """Coefficients at coefficient-magnitude budget ``t``.

    Linear interpolation in T = sum |beta_j| between the two vertices of
    the first segment that reaches ``t``: its end is the first vertex whose
    T is ``t`` or more, found by one bisection of the running maximum of T,
    whether or not T falls somewhere before it, as on a lars path whose
    last move lowers it.  Exact at vertices.  A ``t`` that is not a number
    in [0, max T] up to a small slack (NaN included) raises
    :class:`DimensionMismatch`; max T is ``path.t_max`` unless T falls.
    """
    Ts, reach, rows, t_top, slack = path._budget_table
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"t={t!r} is not a number") from None
    if not -slack <= t <= t_top + slack:
        raise DimensionMismatch(f"t={t!r} outside [0, {t_top!r}]")
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
