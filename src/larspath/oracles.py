"""Greedy forward selection, the classical procedure that least-angle
regression makes less greedy; the simulation study compares it with the
path variants."""

import numpy as np

from .core import Path, PathStep, _GramCache
from .errors import DimensionMismatch, as_integer
from .linalg import CholeskyFactor, cholesky_append, solve_gram

__all__ = ["forward_selection"]


def forward_selection(design, k_max):
    """Greedy orthogonal-projection selection, reported in path form.

    Each round picks the column most correlated with the current residual
    and refits least squares on the selected set.  The returned
    :class:`Path` uses ``gamma = 0`` and ``A = 0`` placeholders since the
    walk is not piecewise linear.
    """
    X = design.columns
    y = design.response
    n, m = X.shape
    limit = min(m, n - 1) if design.centered else min(m, n)
    k_max = as_integer(k_max, "k_max")
    if not 0 <= k_max <= limit:
        raise DimensionMismatch(f"k_max={k_max} outside 0..{limit}")

    gram = _GramCache(X)
    c0 = X.T @ y
    y_sq = float(y @ y)
    beta = np.zeros(m)
    sel = np.zeros(0, dtype=int)
    factor = CholeskyFactor()
    steps = [
        PathStep(
            step_index=0, action=None, variable=None, sign=None,
            active_after=(), signs_after=(), gamma=0.0,
            C_max=float(np.abs(c0).max()) if m else 0.0, A=0.0,
            beta=beta.copy(), rss=y_sq, T=0.0,
        )
    ]
    for step in range(1, k_max + 1):
        c = c0 - gram.stack(sel, beta[sel]) if sel.size else c0.copy()
        c_abs = np.abs(c)
        c_abs[sel] = -np.inf
        j = int(np.argmax(c_abs))
        if c_abs[j] < 1e-10:
            break
        col = gram.column(j)
        cholesky_append(factor, col[sel], float(col[j]))
        sel = np.append(sel, j)
        coef = solve_gram(factor, c0[sel])
        # Zero (of either sign) counts as positive.
        signs = np.where(coef < 0, -1, 1)
        beta = np.zeros(m)
        beta[sel] = coef
        rss = y_sq - float(coef @ c0[sel])
        steps.append(
            PathStep(
                step_index=step, action="add", variable=j,
                sign=int(signs[-1]),
                active_after=tuple(sel.tolist()),
                signs_after=tuple(signs.tolist()),
                gamma=0.0, C_max=float(c_abs[j]), A=0.0,
                beta=beta.copy(), rss=float(rss), T=float(np.abs(beta).sum()),
            )
        )
    return Path(variant="forward-selection", steps=tuple(steps), design=design)
