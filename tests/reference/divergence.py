"""Degrees of freedom of a fitted path by finite differences.

Stein's lemma defines the df of a fit as the divergence
``sum_i d mu_i / d y_i``.  Between events a path's fit is linear in y, so
one refit per observation, with that observation moved by a small amount,
gives the divergence at every vertex exactly up to rounding, provided the
refit makes the same events.  The fitter is passed in; a design is read
through its ``columns`` and ``response`` and copied with
:func:`dataclasses.replace`, and a path through its ``betas`` and the
``action`` and ``variable`` of its steps.
"""

from dataclasses import replace

import numpy as np

__all__ = ["divergence"]

# The perturbation, relative to |y|: small enough to cross no event on the
# designs the tests use, large enough that the quotient keeps about seven
# digits.
_REL_STEP = 1e-7


def _events(path):
    return [(s.action, s.variable) for s in path.steps]


def divergence(design, fit):
    """``(n_steps + 1,)`` finite-difference divergence of ``fit`` at every
    vertex of ``fit(design)``.

    Observation i is moved by ``h = 1e-7 * |y|`` and every observation by
    ``-h / n``, so a centered response stays centered; the fit of a centered
    design sees only the move of observation i.  Raises ``ValueError`` when
    a refit makes other events than the fit, where the quotient would mix
    two linear pieces.
    """
    X, y = design.columns, design.response
    base = fit(design)
    events = _events(base)
    h = _REL_STEP * float(np.linalg.norm(y))
    n = y.size
    total = np.zeros(base.betas.shape[0])
    for i in range(n):
        delta = np.full(n, -h / n)
        delta[i] += h
        moved = fit(replace(design, response=y + delta))
        if _events(moved) != events:
            raise ValueError(f"moving observation {i} changed the events")
        total += (X[i] @ (moved.betas - base.betas).T) / h
    return total
