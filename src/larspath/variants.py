"""Variant rules layered on the shared path engine.

Each variant differs only in which events it recognizes while walking the
path: the plain fitter only adds variables, the lasso-rule fitter also
removes a variable whose coefficient would cross zero, the stagewise fitter
projects the direction into the cone of the active signs, and the positive
variant restricts everything to nonnegative coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .core import _scan_join, _scan_drop, compute_equiangular
from .errors import IndexOutOfRange, NoPositiveCandidate
from .linalg import cholesky_drop, nnls_inner_loop
from .preprocess import standardize

__all__ = [
    "VariantPolicy",
    "LARS",
    "LASSO",
    "STAGEWISE",
    "POSITIVE_LASSO",
    "lasso_drop_candidate",
    "apply_lasso_modification",
    "stagewise_direction",
    "positive_lasso_step",
    "main_effects_first",
]


@dataclass(frozen=True)
class VariantPolicy:
    """Named variant selector accepted anywhere a variant string is."""

    kind: str


LARS = VariantPolicy("lars")
LASSO = VariantPolicy("lasso")
STAGEWISE = VariantPolicy("stagewise")
POSITIVE_LASSO = VariantPolicy("positive-lasso")


def lasso_drop_candidate(beta_active, direction):
    """First active coefficient to reach zero along the move direction.

    ``direction`` is the signed per-coefficient velocity (sign * weight).
    Returns ``(gamma_tilde, position)``; ``(inf, None)`` when no coefficient
    shrinks toward zero.
    """
    b = np.asarray(beta_active, dtype=float).reshape(-1)
    d = np.asarray(direction, dtype=float).reshape(-1)
    return _scan_drop(b, d, 0.0)


def apply_lasso_modification(gamma_hat, gamma_tilde, joining=None,
                             drop_position=None):
    """Arbitrate between the pending join and the pending drop.

    The drop wins when it occurs no later than the join (ties included), in
    which case the move is truncated at ``gamma_tilde``.  Returns
    ``(event, variable_or_position, gamma)``.
    """
    if gamma_tilde <= gamma_hat * (1 + 1e-12):
        return "drop", drop_position, gamma_tilde
    return "add", joining, gamma_hat


def stagewise_direction(design, basis, factor):
    """Project the equiangular direction into the active sign cone.

    When every weight in ``basis`` is already positive the basis is returned
    unchanged.  Otherwise the nonnegative least squares inner loop selects
    the cone face, and a fresh equiangular basis is computed on the face.
    Returns ``(face_basis, projected_out)`` where ``projected_out`` lists
    the variables removed from the active set (their coefficients stay
    frozen at the current vertex).
    """
    if basis.w.size and basis.w.min() > 0:
        return basis, ()
    _, retained = nnls_inner_loop(factor, basis.w)
    kept = np.zeros(len(basis.active), dtype=bool)
    kept[retained] = True
    gone = np.flatnonzero(~kept)
    face_factor = cholesky_drop(factor, gone)
    face_active = [basis.active[p] for p in retained]
    face_signs = [basis.signs[p] for p in retained]
    face_basis = compute_equiangular(design, face_active, face_signs, face_factor)
    projected = tuple(sorted(basis.active[p] for p in gone))
    return face_basis, projected


def positive_lasso_step(correlations, C_max, basis, candidates):
    """Join distance under the nonnegative-coefficient restriction.

    Only the positive sign branch is scanned.  Returns
    ``(gamma_hat, joining)``; raises :class:`NoPositiveCandidate` when no
    candidate's (signed) correlation can tie the envelope.
    """
    c = np.asarray(correlations, dtype=float)
    cand_idx = np.asarray(sorted(int(j) for j in candidates), dtype=int)
    tie_tol = 1e-12 * max(1.0, C_max)
    found = _scan_join(c, C_max, basis.A, basis.a, cand_idx, {}, True, tie_tol)
    if found is None:
        raise NoPositiveCandidate("no candidate ties the envelope from above")
    gamma, var, _, _ = found
    return gamma, var


def main_effects_first(design_main, path, k, interaction_columns, names=None,
                       variant="lars"):
    """Fit interactions against the residual of a k-step main-effects fit.

    ``interaction_columns`` holds the raw (unstandardized) interaction
    candidates; they are standardized against the residual
    ``y - X beta_k`` and a fresh path is fitted on them.  Returns the new
    path.  The residual of a saturating fit gives an empty path.
    """
    from .core import fit_path

    if not 0 <= k < len(path.steps):
        raise IndexOutOfRange(f"k={k} outside the fitted path (0..{len(path.steps) - 1})")
    beta_k = path.steps[k].beta
    residual = design_main.response - design_main.columns @ beta_k
    inner = standardize(interaction_columns, residual, names)
    return fit_path(inner, variant)
