"""Greedy forward selection, the classical procedure that least-angle
regression makes less greedy; the simulation study compares it with the
path variants."""

import numpy as np

from .core import (ENVELOPE_RTOL, _ActiveSet, _GramCache, _max_active,
                   _record_path, _response_sq)
from .errors import DegenerateColumn, as_integer
from .linalg import solve_gram

__all__ = ["forward_selection"]


def forward_selection(design, k_max):
    """Greedy orthogonal-projection selection, reported in path form.

    Each round picks the column most correlated with the current residual
    and refits least squares on the selected set.  The rounds are recorded
    as the path engine records its moves, with ``gamma = 0`` and ``A = 0``
    placeholders since the walk is not piecewise linear.  ``k_max`` may
    not exceed the number of variables a walk can hold.  The rounds stop
    early when the largest correlation is not above ``ENVELOPE_RTOL`` times
    its value before the first round, the walk's relative floor, or when
    the pick, the column with the largest |c| left, depends numerically on
    the selected columns: its append raises :class:`DegenerateColumn`,
    which leaves the selection as it was.
    """
    X, y, m = design.columns, design.response, design.m
    k_max = as_integer(k_max, "k_max", 0, _max_active(design))

    y_sq = _response_sq(y)
    gram = _GramCache(design)
    active = _ActiveSet(gram, k_max)
    c0 = X.T @ y
    beta = np.zeros(m)
    C0 = float(np.abs(c0).max()) if m else 0.0
    moves = []
    betas = [beta]
    for _ in range(k_max):
        sel = active.idx
        c = c0 - gram.times(active.block, beta[sel])
        c_abs = np.abs(c)
        c_abs[sel] = -np.inf
        j = int(np.argmax(c_abs))
        if not c_abs[j] > ENVELOPE_RTOL * C0:
            break
        try:
            active.add(j, 1)  # Signs +1 leave the cross products exact.
        except DegenerateColumn:
            break
        sel = active.idx.copy()
        coef = solve_gram(active.factor, c0[sel])
        # Zero (of either sign) counts as positive.
        signs = np.where(coef < 0, -1, 1)
        beta = np.zeros(m)
        beta[sel] = coef
        rss = y_sq - float(coef @ c0[sel])
        moves.append(("add", j, int(signs[-1]), sel, signs, 0.0, float(c_abs[j]),
                      0.0, rss, ()))
        betas.append(beta)
    return _record_path("forward-selection", design, C0, y_sq, moves, betas)
