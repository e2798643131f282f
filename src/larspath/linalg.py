"""Dense linear algebra for active-set Gram matrices.

Maintains an upper-triangular Cholesky factor of the current active-set Gram
matrix: a column append is an O(k^2) bordered update, a column drop
refactorizes the reduced Gram matrix with LAPACK.  Also provides the
associated triangular solves and the Lawson-Hanson nonnegative least squares
projection of the equiangular direction into the positive cone of the
active columns.

The factor is kept in Fortran order and handed to the LAPACK routines
directly: at active-set sizes, scipy's argument-checking wrappers and a
copy of the factor into Fortran order on every call would cost more than
the solves themselves.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.optimize import nnls

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


def _lapack_ok(routine, out, info):
    """``out`` of a LAPACK call, or :class:`DegenerateColumn` on nonzero info.

    A positive info is a zero pivot (``dtrtrs``) or a leading minor that is
    not positive definite (``dpotrf``): the tracked columns are dependent.
    """
    if info != 0:
        raise DegenerateColumn(f"LAPACK {routine} returned info={info}")
    return out


@dataclass(frozen=True)
class CholeskyFactor:
    """Upper-triangular factor R with R'R equal to the tracked Gram matrix.

    ``R`` is Fortran-ordered, as LAPACK takes it.  The Gram matrix itself is
    carried alongside the factor: a column drop refactorizes it and the cone
    projection reads its faces, and at active-set sizes it is small.
    Instances are immutable; the append/drop operations return new factors.
    """

    R: np.ndarray
    gram: np.ndarray

    @property
    def active_dim(self):
        return self.R.shape[0]

    @classmethod
    def empty(cls):
        return cls(R=np.zeros((0, 0)), gram=np.zeros((0, 0)))

    @classmethod
    def from_gram(cls, gram):
        """Fresh factorization of a symmetric positive-definite matrix.

        Raises :class:`DegenerateColumn` when the matrix is not numerically
        positive definite.
        """
        G = np.ascontiguousarray(gram, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise DimensionMismatch("gram must be square")
        if G.shape[0] == 0:
            return cls.empty()
        R = _lapack_ok("dpotrf", *dpotrf(G))
        return cls(R=R, gram=G.copy())


def cholesky_append(factor, new_cross_products, new_norm_sq):
    """Extend the factor by one column of the Gram matrix.

    ``new_cross_products`` holds the inner products of the entering column
    with the current active columns; ``new_norm_sq`` its squared norm.
    Cost O(k^2).  Raises :class:`DegenerateColumn` when the entering column
    is numerically dependent on the active set.
    """
    v = np.asarray(new_cross_products, dtype=float).reshape(-1)
    k = factor.active_dim
    if v.shape[0] != k:
        raise DimensionMismatch(f"expected {k} cross products, got {v.shape[0]}")
    norm_sq = float(new_norm_sq)
    if norm_sq <= 0.0:
        raise DegenerateColumn("entering column has nonpositive squared norm")

    if k == 0:
        r12 = v
        pivot_sq = norm_sq
    else:
        r12 = _lapack_ok("dtrtrs", *dtrtrs(factor.R, v, trans=1))
        pivot_sq = norm_sq - float(r12 @ r12)
    if pivot_sq < DEGENERACY_RTOL * norm_sq:
        raise DegenerateColumn(
            f"pivot^2 = {pivot_sq:.3e} below tolerance for norm^2 = {norm_sq:.3e}"
        )

    R = np.zeros((k + 1, k + 1), order="F")
    R[:k, :k] = factor.R
    R[:k, k] = r12
    R[k, k] = math.sqrt(pivot_sq)

    gram = np.zeros((k + 1, k + 1))
    gram[:k, :k] = factor.gram
    gram[:k, k] = v
    gram[k, :k] = v
    gram[k, k] = norm_sq
    return CholeskyFactor(R=R, gram=gram)


def cholesky_drop(factor, position):
    """Remove rows/columns of the tracked Gram matrix from the factor.

    ``position`` is one position or a sequence of them; all are dropped
    together, and an empty sequence returns the factor unchanged.  The
    reduced Gram matrix, which the factor carries, is refactorized once in
    LAPACK.  That is O(k^3), cheap at active-set sizes, and the factor never
    drifts from its Gram matrix over long append/drop sequences.
    """
    k = factor.active_dim
    gone = np.atleast_1d(position)
    for p in gone:
        if not 0 <= p < k:
            raise IndexOutOfRange(f"position {p} out of range for k={k}")
    if gone.size == 0:
        return factor
    keep = np.delete(np.arange(k), gone)
    return CholeskyFactor.from_gram(factor.gram[np.ix_(keep, keep)])


def solve_gram(factor, rhs):
    """Solve G x = rhs through the maintained triangular factor."""
    b = np.asarray(rhs, dtype=float).reshape(-1)
    k = factor.active_dim
    if b.shape[0] != k:
        raise DimensionMismatch(f"rhs length {b.shape[0]}, expected {k}")
    if k == 0:
        return np.zeros(0)
    z = _lapack_ok("dtrtrs", *dtrtrs(factor.R, b, trans=1))
    return _lapack_ok("dtrtrs", *dtrtrs(factor.R, z))


def nnls_inner_loop(gram_factor, target_weights):
    """Project the equiangular direction into the cone of active columns.

    With ``u = X w`` the unconstrained direction and ``R'R = X'X``, the
    nearest cone point ``X p`` (``p >= 0``) solves the nonnegative least
    squares problem ``min |R p - R w|``, done here by Lawson-Hanson.  The
    face is the support of ``p``; on it the projection is parallel to the
    face's own equiangular direction.

    Returns ``(feasible_weights, retained)``: a full-length weight vector
    that is zero off the face and holds the face's equiangular weights,
    normalized so the implied direction has unit length, and the sorted
    positions of the face within the active set.
    """
    w = np.asarray(target_weights, dtype=float).reshape(-1)
    k = gram_factor.active_dim
    if w.shape[0] != k:
        raise DimensionMismatch(f"expected {k} weights, got {w.shape[0]}")
    if k == 0:
        raise EmptyFace("no active variables")
    if np.all(w > 0):
        return w.copy(), np.arange(k)

    R = gram_factor.R
    try:
        p, _ = nnls(R, R @ w)
    except RuntimeError as exc:
        raise MaxIterations(f"cone projection: {exc}") from None
    face = np.flatnonzero(p > 0)
    if face.size == 0:
        raise EmptyFace("all variables eliminated")
    g1 = np.linalg.solve(gram_factor.gram[np.ix_(face, face)], np.ones(face.size))
    out = np.zeros(k)
    out[face] = g1 / math.sqrt(g1.sum())
    return out, face
