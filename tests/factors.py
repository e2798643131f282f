"""Factors that tests build from a whole Gram matrix.  The walk never does:
it grows its one factor by appends."""

import numpy as np

from larspath.linalg import CholeskyFactor, _refactor


def from_gram(gram):
    """A fresh factor of the symmetric positive-definite ``gram``, with no
    room to grow.  Only the upper triangle is read, as LAPACK does.  Raises
    :class:`DegenerateColumn` when ``gram`` is not numerically positive
    definite."""
    G = np.asarray(gram, dtype=float)
    return _refactor(CholeskyFactor(G.shape[0]), G)
