"""Output checks that share no code with the path engine.

Every check recomputes what it needs from the design with plain NumPy or
SciPy (correlations, least squares, nonnegative least squares, Cp) and
returns a list of problems; an empty list means the output passed.  The
engine's own bookkeeping (active sets, signs) is only read, never trusted:
it is checked against the recomputed correlations.
"""

import json

import numpy as np
import scipy.optimize

# Correlation-scale tolerance, relative to the largest starting |correlation|.
CORR_RTOL = 1e-7
# Coefficient-scale tolerance, relative to the largest final |coefficient|.
BETA_RTOL = 1e-6
# Largest allowed |df_hat - k| of a bootstrap degrees-of-freedom estimate.
DF_SLACK = 2.0

VARIANTS = ("lars", "lasso", "stagewise", "positive-lasso")


def _betas(path):
    return np.array([s.beta for s in path.steps])


def check_path(X, y, path, variant):
    """Vertex conditions of the paper, plus the end point of a full fit.

    At every vertex the recomputed correlations c = X'(y - X beta) must put
    the active set on a common envelope, keep every inactive |c_j| under it,
    and the envelope must not grow.  Per variant: the active correlation
    signs match the recorded signs; the lasso and positive variants keep
    coefficients off the inactive set, with the lasso's nonzero
    coefficients agreeing in sign with their correlations and the positive
    variant's coefficients nonnegative; the stagewise moves stay in the cone
    of the active correlation signs.  A full fit with n > m must end at the
    least squares fit (nonnegative least squares for the positive variant);
    with n <= m a fit that saturates the active set must leave no residual.
    """
    problems = []
    n, m = X.shape
    B = _betas(path)
    C = X.T @ (y[:, None] - X @ B.T)  # m x (K+1) correlations at each vertex
    c_tol = CORR_RTOL * max(1.0, float(np.abs(C[:, 0]).max()))
    b_tol = BETA_RTOL * max(1.0, float(np.abs(B).max()))
    positive = variant == "positive-lasso"
    if np.any(B[0] != 0.0):
        problems.append("starting vertex is not beta = 0")

    envelope_prev = np.inf
    for i in range(1, B.shape[0]):
        step = path.steps[i]
        active = np.array(step.active_after, dtype=int)
        signs = np.array(step.signs_after, dtype=float)
        c = C[:, i]
        inactive = np.ones(m, dtype=bool)
        inactive[active] = False
        if active.size:
            signed = c[active] * signs
            envelope = float(signed.max())
            if float(np.abs(signed - envelope).max()) > c_tol:
                problems.append(f"vertex {i}: active correlations off the envelope")
            if envelope > c_tol and np.any(signed < 0):
                problems.append(f"vertex {i}: active correlation sign disagrees")
        else:
            envelope = float(np.abs(c).max())
        outside = c[inactive] if positive else np.abs(c[inactive])
        if outside.size and float(outside.max()) > envelope + c_tol:
            problems.append(f"vertex {i}: inactive correlation above the envelope")
        if envelope > envelope_prev + c_tol:
            problems.append(f"vertex {i}: envelope grew")
        envelope_prev = envelope

        beta = B[i]
        move = beta - B[i - 1]
        if variant == "stagewise":
            moving = np.flatnonzero(np.abs(move) > b_tol)
            if not set(moving.tolist()) <= set(active.tolist()):
                problems.append(f"vertex {i}: an inactive coefficient moved")
            if active.size:
                start_sign = np.sign(C[active, i - 1])
                if np.any(move[active] * start_sign < -b_tol):
                    problems.append(f"vertex {i}: move leaves the sign cone")
        else:
            if np.any(np.abs(move[inactive]) > b_tol):
                problems.append(f"vertex {i}: an inactive coefficient moved")
        if variant in ("lasso", "positive-lasso"):
            if np.any(np.abs(beta[inactive]) > b_tol):
                problems.append(f"vertex {i}: nonzero coefficient off the active set")
            big = active[np.abs(beta[active]) > b_tol]
            if envelope > c_tol and np.any(np.sign(beta[big]) != np.sign(c[big])):
                problems.append(f"vertex {i}: coefficient sign disagrees with correlation")
        if positive and np.any(beta < -b_tol):
            problems.append(f"vertex {i}: negative coefficient")

    beta = B[-1]
    if n > m:
        if positive:
            reference = scipy.optimize.nnls(X, y)[0]
        else:
            reference = np.linalg.lstsq(X, y, rcond=None)[0]
        scale = max(1.0, float(np.abs(reference).max()))
        if float(np.abs(beta - reference).max()) > BETA_RTOL * scale:
            problems.append("final vertex differs from the least squares reference")
        if variant == "lars" and path.n_steps != m:
            problems.append(f"lars took {path.n_steps} moves, expected {m}")
    else:
        saturated = len(path.steps[-1].active_after) >= n - 1
        if saturated and variant != "positive-lasso":
            resid = float(np.linalg.norm(y - X @ beta))
            if resid > 1e-6 * max(1.0, float(np.linalg.norm(y))):
                problems.append(f"saturated fit leaves residual {resid:.3e}")
        if variant == "lars" and path.n_steps != n - 1:
            problems.append(f"lars took {path.n_steps} moves, expected {n - 1}")
    return problems


def check_interpolation(path, budgets, betas):
    """Each interpolated vector lies on the path at coefficient budget t.

    The bracketing segment is found from the vertex coefficients alone
    (T = sum |beta|, the first segment whose T range contains t), and the
    result must equal the linear blend of its two vertices and have
    sum |beta| = t.
    """
    B = _betas(path)
    T = np.abs(B).sum(axis=1)
    budgets = np.asarray(budgets, dtype=float)
    betas = np.asarray(betas, dtype=float)
    slack = 1e-12 * max(1.0, float(T[-1]))
    lo_t = np.minimum(T[:-1], T[1:]) - slack
    hi_t = np.maximum(T[:-1], T[1:]) + slack
    inside = (budgets[:, None] >= lo_t[None, :]) & (budgets[:, None] <= hi_t[None, :])
    if not inside.any(axis=1).all():
        return ["a budget is not bracketed by any segment"]
    seg = inside.argmax(axis=1) + 1
    span = T[seg] - T[seg - 1]
    theta = np.where(span == 0, 0.0, (budgets - T[seg - 1]) / np.where(span == 0, 1.0, span))
    expected = (1.0 - theta)[:, None] * B[seg - 1] + theta[:, None] * B[seg]
    scale = max(1.0, float(np.abs(B).max()))
    problems = []
    if float(np.abs(betas - expected).max()) > BETA_RTOL * scale:
        problems.append("interpolated coefficients are off the path segment")
    if float(np.abs(np.abs(betas).sum(axis=1) - budgets).max()) > BETA_RTOL * scale:
        problems.append("interpolated coefficients miss the budget")
    return problems


def check_cli(code, stdout, out_file, library_path):
    """The CLI exits 0 and agrees with the library fit of the same data."""
    if code != 0:
        return [f"cli exited with {code}"]
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return ["cli printed no JSON summary"]
    problems = []
    if summary.get("steps") != library_path.n_steps:
        problems.append(
            f"cli reports {summary.get('steps')} steps, library {library_path.n_steps}"
        )
    with open(out_file) as fh:
        rows = sum(1 for line in fh if line.strip())
    if rows != library_path.n_steps + 2:
        problems.append(f"cli CSV has {rows} lines, expected {library_path.n_steps + 2}")
    return problems


def cp_argmin(X, y, path):
    """Cp = rss_k / sigma2 - n + 2k with sigma2 from the full OLS fit."""
    n, m = X.shape
    B = _betas(path)
    rss = ((y[:, None] - X @ B.T) ** 2).sum(axis=0)
    ols = np.linalg.lstsq(X, y, rcond=None)[0]
    sigma2 = float(((y - X @ ols) ** 2).sum()) / (n - m - 1)
    cp = rss / sigma2 - n + 2.0 * np.arange(B.shape[0])
    return int(np.argmin(cp))


def check_df(estimates, k_max):
    """Bootstrap df estimates exist for k = 0..k_max and track k."""
    ks = [e.k for e in estimates]
    if ks != list(range(k_max + 1)):
        return [f"df estimates cover k = {ks}, expected 0..{k_max}"]
    worst = max(abs(e.df_hat - e.k) for e in estimates)
    if not np.isfinite(worst) or worst > DF_SLACK:
        return [f"df_hat strays {worst:.3g} from k"]
    return []


def check_simulation(result, methods):
    """Prediction-error curves start at 0 and stay within (0, 1]."""
    problems = []
    if not 0.0 < result.true_R2 < 1.0:
        problems.append(f"true R2 {result.true_R2} outside (0, 1)")
    for name in methods:
        pe = result.pe_curves.get(name)
        if pe is None:
            problems.append(f"no curve for {name}")
            continue
        if abs(float(pe[0])) > 1e-12 or not 0.0 < float(pe.max()) <= 1.0:
            problems.append(f"{name} curve out of range")
    return problems


def digest(value):
    """Exact fingerprint of nested results, to compare rounds bit for bit."""
    if isinstance(value, np.ndarray):
        return (value.shape, value.tobytes())
    if isinstance(value, dict):
        return tuple(sorted((k, digest(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(digest(v) for v in value)
    if hasattr(value, "__dataclass_fields__"):
        return tuple((f, digest(getattr(value, f))) for f in value.__dataclass_fields__)
    return value
