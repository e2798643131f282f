"""Dense linear algebra for active-set Gram matrices.

Maintains an upper-triangular Cholesky factor R of the active-set Gram
matrix G (R'R = G), the update behind the paper's cost claim: a column
append is an O(k^2) bordered solve that writes O(k) numbers, a column drop
refactorizes the kept block of G with LAPACK.  Also provides the triangular
solves with the factor and the projection of the equiangular direction
into the positive cone of the active columns.  A walk owns one factor:
the append grows it, and the drop and the cone projection refactorize it,
all in place.

The cone projection is Lawson-Hanson nonnegative least squares in Gram
form, ``min p'G p / 2 - p'G w`` over ``p >= 0``, run on the carried G
rather than on a dense copy of R.  It starts from the face before the last
column when that face's weights, solved with the leading block of R, are
all positive, and from ``p = 0`` otherwise.  It leaves in the factor the
Cholesky factor of the face it finds, computed exactly as a fresh
factorization of the face's Gram block would be, so the caller solves the
face without factorizing it again.

R is stored packed, column by column (LAPACK "UP" storage), in a buffer
that the factor's owner sizes for the largest active set it will hold:
the k x k factor is the prefix ``ap[:k(k+1)/2]``, and appending column k
writes its k + 1 entries at the end.  A solve with G is one LAPACK
``dpptrs`` call on the whole buffer with an explicit order, so no call
slices the factor or makes the wrapper copy it; the append's single
triangular solve is BLAS ``dtpsv``.  ``dpptrs`` makes the two ``dtpsv``
calls that reference LAPACK does, and its results equal theirs bit for
bit (a test pins this).  G is carried in a square Fortran-ordered buffer
of the same capacity, upper triangle only (all that ``dpotrf`` reads); an
append writes its new column there, and a drop or a face writes its
factor and Gram block over the prefixes of the same buffers.  The one
caller, the walk in ``core``, passes float arrays of the factor's order
and positions inside it, and appends only below the capacity it sized.
"""

import math

import numpy as np
from scipy.linalg.blas import dsymv, dtpsv
from scipy.linalg.lapack import dpotrf, dpotrs, dpptrs, dtrttp

from .errors import DegenerateColumn, MaxIterations

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


class CholeskyFactor:
    """Upper-triangular factor R with R'R equal to the tracked Gram matrix.

    ``ap`` holds R packed by columns and ``gram`` the upper triangle of G,
    both allocated once with room for ``capacity`` columns, of which the
    first ``active_dim`` are in use.  The owner sizes it for the largest
    active set it will hold.  The append, drop and cone projection change
    the factor in place, and one that raises leaves it as it was.
    """

    __slots__ = ("ap", "gram", "active_dim")

    def __init__(self, capacity):
        self.ap = np.empty(_packed_len(capacity))
        self.gram = np.empty((capacity, capacity), order="F")
        self.active_dim = 0


def _refactor(factor, block, R=None):
    """Load the Gram block ``block`` and its Cholesky factor ``R`` (from
    ``dpotrf`` when not given) into the factor's buffers.  Nothing is
    written when the factorization fails."""
    k = block.shape[0]
    if k:
        if R is None:
            R = _lapack_ok("dpotrf", *dpotrf(block, clean=0))
        factor.ap[: _packed_len(k)] = dtrttp(R)[0]
        factor.gram[:k, :k] = block
    factor.active_dim = k
    return factor


def cholesky_append(factor, cross, norm_sq):
    """Extend the factor in place by one column of the Gram matrix.

    ``cross`` holds the inner products of the entering column with the
    current active columns; ``norm_sq`` its squared norm.  Cost O(k^2) for
    the solve, O(k) written.  Raises :class:`DegenerateColumn` when the
    entering column is numerically dependent on the active set.  Returns
    the factor.
    """
    k = factor.active_dim
    if norm_sq <= 0.0:
        raise DegenerateColumn("entering column has nonpositive squared norm")

    if k == 0:
        r12 = cross
        pivot_sq = norm_sq
    else:
        r12 = dtpsv(k, factor.ap, cross, trans=1)
        pivot_sq = norm_sq - float(r12 @ r12)
    if pivot_sq < DEGENERACY_RTOL * norm_sq:
        raise DegenerateColumn(
            f"pivot^2 = {pivot_sq:.3e} below tolerance for norm^2 = {norm_sq:.3e}"
        )

    start = _packed_len(k)
    factor.ap[start : start + k] = r12
    factor.ap[start + k] = math.sqrt(pivot_sq)
    factor.gram[:k, k] = cross
    factor.gram[k, k] = norm_sq
    factor.active_dim = k + 1
    return factor


def cholesky_drop(factor, p):
    """Remove the row and column at position ``p`` (an integer in 0..k-1) of
    the tracked Gram matrix from the factor, in place, and return the
    factor.

    The kept block of the carried Gram matrix is refactorized in LAPACK.
    That is O(k^3), cheap at active-set sizes, and the factor never drifts
    from its Gram matrix over long append/drop sequences.
    """
    k = factor.active_dim
    # The kept block's upper triangle is three slices of G's, copied into a
    # Fortran-ordered block that dpotrf reads in place.  Its strict lower
    # triangle is never read.
    G = factor.gram
    q = p + 1
    block = np.empty((k - 1, k - 1), order="F")
    block[:p, :p] = G[:p, :p]
    block[:p, p:] = G[:p, q:k]
    block[p:, p:] = G[q:k, q:k]
    return _refactor(factor, block)


def solve_gram(factor, rhs):
    """Solve G x = rhs, a float array of the factor's order, through the
    maintained triangular factor; at order 0, an empty array.  ``dpptrs``
    reports only illegal arguments, which the caller never passes."""
    return dpptrs(factor.active_dim, factor.ap, rhs)[0]


def nnls_inner_loop(gram_factor, w):
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

    ``w`` is a float array of the factor's order.  Returns ``(gram_factor,
    retained)``: the factor, changed in place to the Cholesky factor of the
    face's Gram block (a fresh LAPACK ``dpotrf`` of that block), and the
    sorted positions of the face within the active set.  On the face the
    projection is parallel to the face's own equiangular direction.  A
    target with every weight positive is its own projection and leaves the
    factor as it is; so does a refusal.  Only a numerically singular Gram
    matrix yields a non-finite target or an empty face (in exact arithmetic
    ``b = G w`` is a positive multiple of ones, so the face is not empty);
    both raise :class:`DegenerateColumn`.
    """
    k = gram_factor.active_dim
    if not np.isfinite(w).all():
        raise DegenerateColumn("cone projection target has non-finite weights")
    if w.min() > 0.0:
        return gram_factor, np.arange(k)

    # One contiguous copy, so that dsymv does not copy G on every product.
    G = np.array(gram_factor.gram[:k, :k], order="F")
    b = dsymv(1.0, G, w)
    p = np.zeros(k)
    face = np.zeros(k, dtype=bool)
    if k > 1:
        z = dpptrs(k - 1, gram_factor.ap, b[: k - 1])[0]
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
        raise DegenerateColumn("cone projection eliminated every position: "
                               "the active Gram matrix is numerically singular")
    if R is None:
        block = G[:, idx][idx]
    return _refactor(gram_factor, block, R), idx
