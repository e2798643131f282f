"""Dense linear algebra for active-set Gram matrices.

Maintains an upper-triangular Cholesky factor R of the active-set Gram
matrix G (R'R = G), the update behind the paper's cost claim: a column
append is an O(k^2) bordered solve that writes O(k) numbers, a column drop
refactorizes the kept block of G with LAPACK.  Also provides the triangular
solves with the factor and the projection of the equiangular direction
into the positive cone of the active columns.

The cone projection is Lawson-Hanson nonnegative least squares in Gram
form, ``min p'G p / 2 - p'G w`` over ``p >= 0``, run on the carried G
rather than on a dense copy of R.  It starts from the face before the last
column when that face's weights, solved with the leading block of R, are
all positive, and from ``p = 0`` otherwise.  It hands back the Cholesky
factor of the face it finds, computed exactly as a drop to that face
would, so the caller solves the face without factorizing it again.

R is stored packed, column by column (LAPACK "UP" storage), in a buffer
with room to grow: the k x k factor is the prefix ``ap[:k(k+1)/2]``, and
appending column k writes its k + 1 entries at the end.  Both triangular
solves are BLAS ``dtpsv`` on the whole buffer with an explicit order, so no
call slices the factor or makes the wrapper copy it.  G is carried in a
square Fortran-ordered buffer of the same capacity, upper triangle only
(all that ``dpotrf`` reads); an append writes its new column there.

Factors grown from one another share these buffers.  The buffers record
the order of the largest factor written to them: a factor of that order
appends in place, any other one (a factor that has already been appended
to) first copies its prefix into buffers of its own.  So a factor never
sees its R or G change, however many factors are grown from it.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dsymv, dtpsv
from scipy.linalg.lapack import dpotrf, dpotrs, dtpttr, dtrttp

from .errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyFace,
    IndexOutOfRange,
    MaxIterations,
)

__all__ = [
    "CholeskyFactor",
    "cholesky_append",
    "cholesky_drop",
    "solve_gram",
    "nnls_inner_loop",
]

# A pivot whose squared value falls below this fraction of the new column's
# squared norm marks the column as linearly dependent on the active set.
DEGENERACY_RTOL = 1e-12

# Columns of room a new buffer gets at least; a full one doubles.
MIN_CAPACITY = 16


def _packed_len(k):
    return k * (k + 1) // 2


def _lapack_ok(routine, out, info):
    """``out`` of a LAPACK call, or :class:`DegenerateColumn` on nonzero info.

    A positive info from ``dpotrf`` is a leading minor that is not positive
    definite: the tracked columns are dependent.
    """
    if info != 0:
        raise DegenerateColumn(f"LAPACK {routine} returned info={info}")
    return out


class _Storage:
    """Buffers shared by the factors grown from one another.

    ``ap`` holds R packed by columns and ``gram`` the upper triangle of G,
    both with room for ``capacity`` columns; ``fill`` is the order of the
    largest factor written to them, the only factor that may append in
    place.
    """

    __slots__ = ("ap", "gram", "fill")

    def __init__(self, capacity):
        self.ap = np.empty(_packed_len(capacity))
        self.gram = np.empty((capacity, capacity), order="F")
        self.fill = 0

    @property
    def capacity(self):
        return self.gram.shape[0]

    def branch(self, k, capacity):
        """New buffers holding a copy of the first ``k`` columns."""
        out = _Storage(capacity)
        n = _packed_len(k)
        out.ap[:n] = self.ap[:n]
        out.gram[:k, :k] = self.gram[:k, :k]
        out.fill = k
        return out


@dataclass(frozen=True, eq=False)
class CholeskyFactor:
    """Upper-triangular factor R with R'R equal to the tracked Gram matrix.

    R is held packed by columns in a buffer shared with the factors it was
    grown from and those grown from it; G is carried beside it, upper
    triangle only, for the drops and cone projections that need its blocks.
    ``R`` and ``gram`` build dense copies on demand.  Factors come from
    :meth:`empty`, :meth:`from_gram`, :meth:`from_factor` and the
    append/drop operations; the fields past ``active_dim`` are internal.
    Instances are immutable: the append/drop operations return new factors,
    and an append to a factor whose buffer has grown past it copies before
    it writes.
    """

    active_dim: int
    _storage: _Storage = field(repr=False)
    # 1-based position of the first zero on R's diagonal, 0 if none.
    _zero_pivot: int = 0

    @property
    def packed(self):
        """R packed by columns (read-only view of the shared buffer)."""
        view = self._storage.ap[: _packed_len(self.active_dim)]
        view.flags.writeable = False
        return view

    @property
    def R(self):
        """R as a dense Fortran-ordered matrix, unpacked from the buffer."""
        k = self.active_dim
        return dtpttr(k, self._storage.ap[: _packed_len(k)])[0]

    @property
    def gram(self):
        """G as a dense symmetric matrix, built from its upper triangle."""
        upper = self._storage.gram[: self.active_dim, : self.active_dim]
        out = np.triu(upper)
        out += np.triu(upper, 1).T
        return out

    @classmethod
    def empty(cls):
        return cls(0, _Storage(MIN_CAPACITY))

    @classmethod
    def from_gram(cls, gram):
        """Fresh factorization of a symmetric positive-definite matrix.

        Only the upper triangle is read, as LAPACK does.  Raises
        :class:`DegenerateColumn` when the matrix is not numerically
        positive definite.
        """
        G = np.asarray(gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise DimensionMismatch("gram must be square")
        k = G.shape[0]
        if k == 0:
            return cls.empty()
        R = _lapack_ok("dpotrf", *dpotrf(G, clean=0))
        return cls._packing(R, G)

    @classmethod
    def from_factor(cls, R, gram):
        """A factor from a given upper-triangular R and the G it factors.

        R is not checked against G.  A zero on R's diagonal is recorded
        once, here, and makes every solve and append with the factor raise
        :class:`DegenerateColumn`.
        """
        R = np.asarray(R, dtype=float)
        G = np.asarray(gram, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1] or G.shape != R.shape:
            raise DimensionMismatch("R and gram must be square and of one size")
        if R.shape[0] == 0:
            return cls.empty()
        zeros = np.flatnonzero(np.diagonal(R) == 0.0)
        return cls._packing(R, G, int(zeros[0]) + 1 if zeros.size else 0)

    @classmethod
    def _packing(cls, R, G, zero_pivot=0):
        k = R.shape[0]
        storage = _Storage(max(MIN_CAPACITY, 2 * k))
        storage.ap[: _packed_len(k)] = dtrttp(R)[0]
        storage.gram[:k, :k] = G
        storage.fill = k
        return cls(k, storage, zero_pivot)


def _check_pivots(factor):
    """Raise :class:`DegenerateColumn` for a factor with a zero pivot.

    ``info`` is the pivot's 1-based position, as LAPACK's triangular solver
    would report it.
    """
    if factor._zero_pivot:
        raise DegenerateColumn(f"factor has a zero pivot: info={factor._zero_pivot}")


def cholesky_append(factor, new_cross_products, new_norm_sq):
    """Extend the factor by one column of the Gram matrix.

    ``new_cross_products`` holds the inner products of the entering column
    with the current active columns; ``new_norm_sq`` its squared norm.
    Cost O(k^2) for the solve, O(k) written.  Raises
    :class:`DegenerateColumn` when the entering column is numerically
    dependent on the active set.
    """
    v = np.asarray(new_cross_products, dtype=float).reshape(-1)
    k = factor.active_dim
    if v.shape[0] != k:
        raise DimensionMismatch(f"expected {k} cross products, got {v.shape[0]}")
    norm_sq = float(new_norm_sq)
    if norm_sq <= 0.0:
        raise DegenerateColumn("entering column has nonpositive squared norm")
    _check_pivots(factor)

    storage = factor._storage
    if k == 0:
        r12 = v
        pivot_sq = norm_sq
    else:
        r12 = dtpsv(k, storage.ap, v, trans=1)
        pivot_sq = norm_sq - float(r12 @ r12)
    if pivot_sq < DEGENERACY_RTOL * norm_sq:
        raise DegenerateColumn(
            f"pivot^2 = {pivot_sq:.3e} below tolerance for norm^2 = {norm_sq:.3e}"
        )

    if storage.fill != k or storage.capacity == k:
        storage = storage.branch(k, max(MIN_CAPACITY, 2 * (k + 1)))
    start = _packed_len(k)
    storage.ap[start : start + k] = r12
    storage.ap[start + k] = math.sqrt(pivot_sq)
    storage.gram[:k, k] = v
    storage.gram[k, k] = norm_sq
    storage.fill = k + 1
    return CholeskyFactor(k + 1, storage)


def cholesky_drop(factor, position):
    """Remove rows/columns of the tracked Gram matrix from the factor.

    ``position`` is one position or a sequence of distinct ones; all are
    dropped together, and an empty sequence returns the factor unchanged.
    A position that is not an integer, is out of range or is repeated
    raises :class:`IndexOutOfRange`.  The kept block of the carried Gram
    matrix is gathered and refactorized once in LAPACK.  That is O(k^3),
    cheap at active-set sizes, and the factor never drifts from its Gram
    matrix over long append/drop sequences.
    """
    k = factor.active_dim
    if type(position) is int or isinstance(position, np.integer):
        # One position, the walk's case: checked and skipped without arrays.
        if not 0 <= position < k:
            raise IndexOutOfRange(f"position {position} out of range for k={k}")
        keep = np.arange(k - 1)
        keep[position:] += 1
    else:
        gone = np.atleast_1d(position)
        if gone.size == 0:
            return factor
        if gone.ndim != 1 or gone.dtype.kind not in "iu":
            raise IndexOutOfRange(f"positions must be integers, got {position!r}")
        out = gone[(gone < 0) | (gone >= k)]
        if out.size:
            raise IndexOutOfRange(f"position {out[0]} out of range for k={k}")
        if gone.size > 1 and np.unique(gone).size != gone.size:
            raise IndexOutOfRange(f"repeated position in {gone.tolist()}")
        keep = np.delete(np.arange(k), gone)
    # Kept positions stay in increasing order, so the block's upper triangle
    # comes from G's.  Whole columns first: they are contiguous.
    return CholeskyFactor.from_gram(factor._storage.gram[:k, keep][keep])


def solve_gram(factor, rhs):
    """Solve G x = rhs through the maintained triangular factor."""
    b = np.asarray(rhs, dtype=float).reshape(-1)
    k = factor.active_dim
    if b.shape[0] != k:
        raise DimensionMismatch(f"rhs length {b.shape[0]}, expected {k}")
    if k == 0:
        return np.zeros(0)
    _check_pivots(factor)
    ap = factor._storage.ap
    z = dtpsv(k, ap, b, trans=1)
    return dtpsv(k, ap, z, overwrite_x=1)


def nnls_inner_loop(gram_factor, target_weights):
    """Project the equiangular direction into the cone of active columns.

    With ``u = X w`` the unconstrained direction and ``G = X'X``, the
    nearest cone point ``X p`` (``p >= 0``) minimizes ``|R (p - w)|``, that
    is ``p'G p / 2 - p'b`` with ``b = G w``.  Lawson-Hanson solves it in this
    Gram form on the carried G: add the position with the largest positive
    dual ``(G (w - p))_j``, solve the trial face, and step back to the
    boundary when a trial weight is not positive.  The search starts from
    the face before the last column: the factor's leading block is its
    Cholesky factor, and when its weights are all positive that point is
    optimal on its face; otherwise it starts from ``p = 0``.  At most
    ``3 k`` trial solves are made (:class:`MaxIterations` past that).

    Returns ``(face_factor, retained)``: the Cholesky factor of the face's
    Gram block, from the same LAPACK call :func:`cholesky_drop` would make
    on it, and the sorted positions of the face within the active set.  On
    the face the projection is parallel to the face's own equiangular
    direction.  A target with every weight positive is its own projection
    and returns the factor as given.  A non-finite target, which only a
    numerically singular Gram matrix yields, raises
    :class:`DegenerateColumn`.
    """
    w = np.asarray(target_weights, dtype=float).reshape(-1)
    k = gram_factor.active_dim
    if w.shape[0] != k:
        raise DimensionMismatch(f"expected {k} weights, got {w.shape[0]}")
    if k == 0:
        raise EmptyFace("no active variables")
    if not np.isfinite(w).all():
        raise DegenerateColumn("cone projection target has non-finite weights")
    if w.min() > 0.0:
        return gram_factor, np.arange(k)
    _check_pivots(gram_factor)

    storage = gram_factor._storage
    # One contiguous copy, so that dsymv does not copy G on every product.
    G = np.array(storage.gram[:k, :k], order="F")
    b = dsymv(1.0, G, w)
    p = np.zeros(k)
    face = np.zeros(k, dtype=bool)
    if k > 1:
        z = dtpsv(k - 1, storage.ap, b[: k - 1], trans=1)
        z = dtpsv(k - 1, storage.ap, z, overwrite_x=1)
        if z.min() > 0.0:
            p[: k - 1] = z
            face[: k - 1] = True
    # The factor of the current face and the block it factors; None while
    # the face has not been solved.
    R = block = None
    solves = 0
    dual = dsymv(1.0, G, w - p)
    dual[face] = 0.0
    while True:
        j = int(dual.argmax())
        if dual[j] <= 0.0:
            break
        face[j] = True
        idx = face.nonzero()[0]
        entering = int(idx.searchsorted(j))
        while True:
            solves += 1
            if solves > 3 * k:
                raise MaxIterations(f"cone projection: no face after {3 * k} solves")
            if idx.size == k:
                # b = G w, so on the full set the solution is w itself.
                z, R_trial, block_trial = w, None, None
            else:
                # idx is increasing, so the block's upper triangle, all that
                # dpotrf reads, is G's.
                block_trial = G[:, idx][idx]
                R_trial = _lapack_ok("dpotrf", *dpotrf(block_trial, clean=0))
                z = _lapack_ok("dpotrs", *dpotrs(R_trial, b[idx]))
            if entering is not None and z[entering] <= 0.0:
                # Rounding let in a position that does not enter the face:
                # bar it until the dual is next computed.
                face[j] = False
                dual[j] = 0.0
                break
            entering = None
            if z.min() > 0.0:
                p[idx] = z
                R, block = R_trial, block_trial
            else:
                # Step back to the first boundary crossed on the way to z
                # and remove the positions that reach zero there.
                x = p[idx]
                neg = (z <= 0.0).nonzero()[0]
                xn = x[neg]
                ratios = xn / (xn - z[neg])
                first = int(ratios.argmin())
                x += ratios[first] * (z - x)
                x[neg[first]] = 0.0
                keep = x > 0.0
                p[idx] = np.where(keep, x, 0.0)
                face[idx] = keep
                idx = idx[keep]
                R = block = None
                if idx.size:
                    continue
            dual = dsymv(1.0, G, w - p)
            dual[face] = 0.0
            break

    idx = face.nonzero()[0]
    if idx.size == 0:
        raise EmptyFace("all variables eliminated")
    if R is None:
        block = G[:, idx][idx]
        R = _lapack_ok("dpotrf", *dpotrf(block, clean=0))
    return CholeskyFactor._packing(R, block), idx
