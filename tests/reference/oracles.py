"""Slow, independent reference procedures for the tests.

Each reaches the fits of the path engine by a route that shares none of its
code: coordinate descent for the penalized problem, explicit tiny-step
iteration for the stagewise limit, and closed forms for orthogonal designs.
Only the error classes come from ``larspath``; a design is read through its
``columns``, ``response`` and ``m`` alone.
"""

from dataclasses import dataclass

import numpy as np

from larspath.errors import DimensionMismatch, MaxIterations

__all__ = [
    "OrderStatistics",
    "soft_threshold_path",
    "epsilon_stagewise",
    "lasso_at_t",
]

# Correlation refresh interval for the tiny-step stagewise iteration: this
# many steps update the correlations incrementally between exact
# recomputations.
_CHUNK = 1024


@dataclass(frozen=True)
class OrderStatistics:
    """Absolute values of a vector in decreasing order, with the permutation."""

    sorted_abs: np.ndarray
    permutation: np.ndarray

    @classmethod
    def from_values(cls, values):
        v = np.asarray(values, dtype=float).reshape(-1)
        order = np.argsort(-np.abs(v), kind="stable")
        return cls(sorted_abs=np.abs(v)[order], permutation=order)

    def threshold(self, k):
        """The (k+1)-th largest absolute value; 0 past the end."""
        if k < 0:
            raise DimensionMismatch("k must be nonnegative")
        if k >= self.sorted_abs.size:
            return 0.0
        return float(self.sorted_abs[k])


def soft_threshold_path(values, k):
    """Coefficients after k path steps on an orthogonal design.

    With orthonormal columns every variant collapses to soft thresholding of
    the back-projected response at its (k+1)-th largest absolute value.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    thr = OrderStatistics.from_values(v).threshold(k)
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def epsilon_stagewise(design, epsilon, n_steps):
    """Explicit tiny-step stagewise iteration.

    Each step moves the coefficient of the most correlated column by
    ``epsilon`` toward its correlation sign.  With ``epsilon=None`` the full
    greedy step (the entire current correlation) is taken instead, which on
    orthogonal designs reproduces forward selection.  Returns the
    coefficient trajectory, shape ``(n_steps, m)``.
    """
    X = design.columns
    y = design.response
    m = design.m
    G = _gram(design)
    beta = np.zeros(m)
    c = X.T @ y
    traj = np.empty((n_steps, m))
    if epsilon is None:
        for t in range(n_steps):
            j = int(np.argmax(np.abs(c)))
            step = c[j]
            beta[j] += step
            c = c - step * G[j]
            traj[t] = beta
        return traj
    done = 0
    while done < n_steps:
        chunk = min(_CHUNK, n_steps - done)
        _stagewise_chunk(beta, c, G, float(epsilon), chunk, traj, done)
        done += chunk
        # periodic exact refresh keeps the incrementally updated
        # correlations from drifting over long runs
        c = X.T @ (y - X @ beta)
    return traj


def lasso_at_t(design, t, tol=1e-8):
    """Penalized coordinate-descent solve at coefficient budget ``t``.

    Bisects the penalty level until the fitted ``sum |beta_j|`` matches
    ``t`` within ``tol`` (or the unpenalized fit is reached), then certifies
    stationarity of the result.  Entirely independent of the path engine.
    """
    X = design.columns
    y = design.response
    m = design.m
    if t < 0:
        raise DimensionMismatch("t must be nonnegative")
    if t <= tol:
        return np.zeros(m)

    beta_ls, *_ = np.linalg.lstsq(X, y, rcond=None)
    if t >= float(np.abs(beta_ls).sum()) - tol:
        return beta_ls

    G = _gram(design)
    c0 = X.T @ y
    lam_lo, lam_hi = 0.0, float(np.abs(c0).max())
    beta = np.zeros(m)
    for _ in range(200):
        lam = 0.5 * (lam_lo + lam_hi)
        c = c0 - G @ beta
        sweeps = _cd_sweeps(beta, c, G, lam, 1e-10, 100000)
        if sweeps < 0:
            raise MaxIterations("coordinate descent did not converge")
        total = float(np.abs(beta).sum())
        if abs(total - t) <= tol:
            _certify_stationary(beta, c0 - G @ beta, lam)
            return beta.copy()
        if total > t:
            lam_lo = lam
        else:
            lam_hi = lam
    raise MaxIterations("penalty bisection did not bracket the budget")


def _cd_sweeps(beta, c, G, lam, tol, max_sweeps):
    """Cyclic coordinate-descent sweeps for the L1-penalized problem.

    Arguments ``beta`` (coefficients) and ``c`` (residual correlations,
    maintained as c = X'y - G·beta) are updated in place.  Returns the number
    of sweeps used, or -1 if ``max_sweeps`` was reached before the largest
    coordinate change in a sweep fell below ``tol``.  Assumes a unit-diagonal
    Gram matrix.  The loops run on plain Python floats, which at these
    dimensions is several times faster than on NumPy scalars.
    """
    m = beta.shape[0]
    bl = beta.tolist()
    cl = c.tolist()
    Gl = G.tolist()
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        delta = 0.0
        for j in range(m):
            bj = bl[j]
            z = bj + cl[j]
            if z > lam:
                nb = z - lam
            elif z < -lam:
                nb = z + lam
            else:
                nb = 0.0
            d = nb - bj
            if d != 0.0:
                bl[j] = nb
                Gj = Gl[j]
                for i in range(m):
                    cl[i] -= d * Gj[i]
                ad = -d if d < 0.0 else d
                if ad > delta:
                    delta = ad
        sweeps += 1
        if delta < tol:
            converged = True
            break
    beta[:] = bl
    c[:] = cl
    return sweeps if converged else -1


def _stagewise_chunk(beta, c, G, eps, n_steps, traj, t0):
    """Run ``n_steps`` fixed-size stagewise updates, recording each vertex.

    ``beta`` and ``c`` are updated in place; row ``t0 + t`` of ``traj``
    receives the coefficient vector after update ``t``.  Ties in the
    most-correlated variable go to the lowest index.
    """
    for t in range(n_steps):
        j = int(np.argmax(np.abs(c)))
        cj = c[j]
        if cj > 0.0:
            es = eps
        elif cj < 0.0:
            es = -eps
        else:
            es = 0.0
        beta[j] += es
        c -= es * G[j]
        traj[t0 + t] = beta


def _certify_stationary(beta, grad, lam, slack=1e-6):
    bound = lam + slack * max(1.0, lam)
    for j in range(beta.size):
        if beta[j] != 0.0:
            if abs(grad[j] - lam * np.sign(beta[j])) > slack * max(1.0, lam):
                raise MaxIterations(
                    f"stationarity failed on coordinate {j}: "
                    f"grad={grad[j]:.3e} lam={lam:.3e}"
                )
        elif abs(grad[j]) > bound:
            raise MaxIterations(
                f"gradient bound failed on coordinate {j}: "
                f"|{grad[j]:.3e}| > {lam:.3e}"
            )


def _gram(design):
    """The m x m Gram matrix of the design's columns."""
    return design.columns.T @ design.columns
