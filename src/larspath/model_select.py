"""Risk estimation: degrees of freedom, Cp curves, hybrid refits, and the
resampled prediction-error comparison of the path variants.

The Cp curve charges each vertex its count of nonzero coefficients as
degrees of freedom: exact for the lasso and the positive lasso, and k on a
lars path.  The bootstrap df machinery treats a fitting procedure as a black
box ``y* -> fitted values`` and estimates, per step, the sum of covariances
between fitted and observed values; stagewise and forward selection need it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import ENVELOPE_RTOL, _max_active, fit_path
from .errors import (
    DimensionMismatch,
    Underdetermined,
    VariantMismatch,
    as_integer,
)
from .oracles import forward_selection
from .preprocess import _redrawn, quadratic_expand, standardize

__all__ = [
    "CpReport",
    "DfEstimate",
    "SimulationResult",
    "sigma2_full_ols",
    "cp_curve",
    "lars_fitted_values",
    "bootstrap_df",
    "lasso_df_by_support",
    "hybrid_r2",
    "main_effects_first",
    "run_simulation_study",
]


@dataclass(frozen=True)
class CpReport:
    """Risk per vertex, ``rss_k / sigma2 - n + 2 df_k``; df_k is ``df_used``."""

    sigma2_bar: float
    cp: np.ndarray
    argmin_k: int
    df_used: np.ndarray


@dataclass(frozen=True)
class DfEstimate:
    """Bootstrap degrees of freedom at one step, with a group-based CI."""

    k: int
    df_hat: float
    ci_low: float
    ci_high: float
    B: int
    groups: int


@dataclass(frozen=True)
class SimulationResult:
    """Average proportion of true-signal variance explained, per method."""

    true_R2: float
    pe_curves: dict
    pe_sd: dict
    nonzero_axis: dict
    replications: int
    n_steps: int


def _full_ols(design):
    """Fitted values, residuals and residual variance of the full least
    squares fit, from one solve."""
    n, m = design.n, design.m
    if n <= m + 1:
        raise Underdetermined(f"need n > m + 1, got n={n}, m={m}")
    beta, *_ = np.linalg.lstsq(design.columns, design.response, rcond=None)
    mu_bar = design.columns @ beta
    residuals = design.response - mu_bar
    return mu_bar, residuals, float(np.sum(residuals ** 2)) / (n - m - 1)


def sigma2_full_ols(design):
    """Residual variance of the full least squares fit.

    The divisor is n - m - 1: one degree of freedom per predictor plus one
    for the centering step that absorbed the intercept.
    """
    return _full_ols(design)[2]


def cp_curve(path, sigma2):
    """Risk estimate ``rss_k / sigma2 - n + 2 df_k`` at every vertex, df_k the
    number of nonzero coefficients: the exact df of the lasso and the positive
    lasso (Zou, Hastie & Tibshirani 2007), and k on a lars path (Theorem 3).
    Stagewise and forward selection have no closed form and raise
    :class:`VariantMismatch`.  ``sigma2`` must be finite and positive."""
    if path.variant not in ("lars", "lasso", "positive-lasso"):
        raise VariantMismatch(
            f"no closed-form df for {path.variant!r}; estimate it with "
            "bootstrap_df(design, lars_fitted_values(design, k, variant))")
    try:
        sigma2 = float(sigma2)
    except (TypeError, ValueError):
        raise DimensionMismatch(f"sigma2={sigma2!r} is not a number") from None
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise DimensionMismatch(f"sigma2={sigma2!r} must be finite and positive")
    df_used = np.count_nonzero(path.betas, axis=1).astype(float)
    rss = np.array(path._field("rss"))
    cp = rss / sigma2 - path.design.n + 2.0 * df_used
    return CpReport(
        sigma2_bar=sigma2,
        cp=cp,
        argmin_k=int(np.argmin(cp)),
        df_used=df_used,
    )


def _vertex_betas(path, k_max):
    """The ``(k_max + 1, m)`` vertex coefficients of ``path``, padded with
    its final vertex when the walk ended early."""
    return path.betas[np.minimum(np.arange(k_max + 1), path.n_steps)]


def lars_fitted_values(design, k_max, variant="lars"):
    """Estimator factory for :func:`bootstrap_df`.

    Returns a callable mapping a response vector to the ``(k_max + 1, n)``
    matrix of fitted values at every vertex 0..k_max, padding with the final
    vertex when the path terminates early.  ``k_max`` may not exceed the
    number of variables a walk can hold.
    """
    k_max = as_integer(k_max, "k_max", 0, _max_active(design))
    X = design.columns

    def estimator(y_star):
        p = fit_path(_redrawn(design, y_star), variant, stop_after=k_max)
        return _vertex_betas(p, k_max) @ X.T

    return estimator


def _resampling(design, B, groups, seed, resampling):
    """The set-up both bootstrap estimates share, with one least squares
    solve: the checked ``groups`` (two or more, each of two draws or more),
    the full fit's residual variance, and an iterator over the ``B`` draws
    around the full fit, each as ``(group, y_star)``."""
    B, groups = as_integer(B, "B"), as_integer(groups, "groups", minimum=2)
    seed = as_integer(seed, "seed", minimum=0)
    if B % groups != 0 or B < 2 * groups:
        raise DimensionMismatch(
            f"B={B} must be a multiple of groups={groups}, at least 2 per group"
        )
    if resampling not in ("normal", "residual"):
        raise DimensionMismatch(
            f"unknown resampling {resampling!r}; expected 'normal' or 'residual'")
    mu_bar, residuals, sigma2 = _full_ols(design)
    sigma = math.sqrt(sigma2)
    n = design.n

    def draws():
        for b in range(B):
            rng = np.random.default_rng([seed, b])
            if resampling == "normal":
                y_star = mu_bar + sigma * rng.standard_normal(n)
            else:
                y_star = mu_bar + residuals[rng.integers(0, n, n)]
            yield b // (B // groups), y_star

    return groups, sigma2, draws()


def _df_sums(groups, R, n):
    """Zeroed ``(groups, R, n)`` sums of fitted times drawn values, of
    fitted values and of drawn values, and ``(groups, R)`` draw counts."""
    return (*(np.zeros((groups, R, n)) for _ in range(3)),
            np.zeros((groups, R), dtype=int))


def _df_estimates(sum_fy, sum_f, sum_y, count, sigma2):
    """One :class:`DfEstimate` per estimate ``k`` seen in two draws or more
    by two groups or more: the mean over those groups of their summed
    covariances over ``sigma2``, with a Student-t 95% interval."""
    # Imported here: scipy.special would add a sixth to every import of larspath.
    from scipy.special import stdtrit
    out = []
    crit = float(stdtrit(count.shape[0] - 1, 0.975))
    for k in range(count.shape[1]):
        cnt = count[:, k]
        ok = cnt >= 2
        n_ok = int(ok.sum())
        if n_ok < 2:
            continue
        c = cnt[ok][:, None].astype(float)
        cov = (sum_fy[ok, k] - sum_f[ok, k] * sum_y[ok, k] / c) / (c - 1)
        df_groups = cov.sum(axis=1) / sigma2
        df_hat = float(df_groups.mean())
        half = crit * (float(df_groups.std(ddof=1)) / math.sqrt(n_ok))
        out.append(DfEstimate(k, df_hat, df_hat - half, df_hat + half,
                              int(cnt.sum()), n_ok))
    return out


def bootstrap_df(design, estimator, B=100, groups=10, seed=0, *,
                 resampling="normal"):
    """Bootstrap estimate of degrees of freedom per step.

    Draws ``B`` responses around the full-model fit, applies ``estimator``
    to each, and accumulates per-observation covariances between fitted and
    drawn values.  Replicates are split into ``groups`` equal groups; the
    reported df is the mean of the per-group estimates with a Student-t 95%
    interval across groups.  Fitted values of a shape other than ``(n,)``
    or ``(R, n)``, with one ``R`` for every draw, raise DimensionMismatch.

    ``resampling="residual"`` draws errors by resampling the full-model
    residuals instead of normal deviates.
    """
    groups, sigma2, draws = _resampling(design, B, groups, seed, resampling)
    n = design.n
    sums = None
    for g, y_star in draws:
        out = np.asarray(estimator(y_star))
        fits = out[None, :] if out.ndim == 1 else out
        if sums is None and fits.ndim == 2:
            sums = _df_sums(groups, len(fits), n)
        if sums is None or fits.shape != sums[0].shape[1:]:
            raise DimensionMismatch(f"estimator returned shape {out.shape}; expected "
                                    f"({n},) or (R, {n}) with the same R on every draw")
        sum_fy, sum_f, sum_y, count = sums
        sum_fy[g] += fits * y_star
        sum_f[g] += fits
        sum_y[g] += y_star
        count[g] += 1
    return _df_estimates(*sums, sigma2)


def lasso_df_by_support(design, B=100, seed=0, groups=10, *,
                        resampling="normal"):
    """Bootstrap df of the lasso-rule fit indexed by support size.

    For each draw the path is refitted and, for every support size k, the
    last vertex whose coefficient support has exactly k nonzeros is taken as
    the k-th estimate.  Support sizes a draw never visits are skipped for
    that draw.
    """
    groups, sigma2, draws = _resampling(design, B, groups, seed, resampling)
    X = design.columns
    sum_fy, sum_f, sum_y, count = sums = _df_sums(groups, design.m + 1, design.n)
    for g, y_star in draws:
        betas = fit_path(_redrawn(design, y_star), "lasso").betas
        sizes = np.count_nonzero(betas, axis=1).tolist()
        last_at = {k: i for i, k in enumerate(sizes)}
        for k, i in last_at.items():
            fits = X @ betas[i]
            sum_fy[g, k] += fits * y_star
            sum_f[g, k] += fits
            sum_y[g, k] += y_star
            count[g, k] += 1
    return _df_estimates(*sums, sigma2)


def hybrid_r2(path, k):
    """Fit quality of the k-step path estimate against its refitted version.

    Returns ``(r2_path, r2_refit, rho)`` where the refit is ordinary least
    squares on the step's active set and ``rho`` is the ratio of the step
    length actually travelled to the full travel distance of that step.
    """
    if path.variant != "lars":
        raise VariantMismatch(f"requires the plain variant, got {path.variant!r}")
    k = as_integer(k, "k", 1, path.n_steps)
    rss = path._field("rss")
    tss = rss[0]
    r2_path = 1.0 - rss[k] / tss
    cols = path.design.columns[:, list(path._field("active_after")[k])]
    coef, *_ = np.linalg.lstsq(cols, path.design.response, rcond=None)
    rss_refit = float(np.sum((path.design.response - cols @ coef) ** 2))
    r2_refit = 1.0 - rss_refit / tss
    gamma, C_max, A = (path._field(name)[k] for name in ("gamma", "C_max", "A"))
    rho = gamma / (C_max / A)
    return r2_path, r2_refit, float(rho)


def main_effects_first(design_main, path, k, interaction_columns, names=None,
                       variant="lars"):
    """Fit interactions against the residual of a k-step main-effects fit.

    ``interaction_columns`` holds the raw (unstandardized) interaction
    candidates; they are standardized against the residual
    ``y - X beta_k`` and a fresh path is fitted on them.  Returns the new
    path.  A residual whose norm is not above ``ENVELOPE_RTOL`` times the
    main response's, as a saturating fit leaves, gives an empty path: it is
    rounding noise, which the walk would fit like any other response.
    """
    k = as_integer(k, "k", 0, path.n_steps)
    beta_k = path.betas[k]
    residual = design_main.response - design_main.columns @ beta_k
    inner = standardize(interaction_columns, residual, names)
    negligible = not (np.linalg.norm(residual)
                      > ENVELOPE_RTOL * np.linalg.norm(design_main.response))
    return fit_path(inner, variant, stop_after=0 if negligible else None)


def run_simulation_study(raw_columns, raw_response, seed=0, replications=100,
                         n_steps=40, *, binary_column=1):
    """Resampled comparison of the variants on the quadratic design.

    Builds the 64-column quadratic design, takes the 10-step plain fit as
    the true signal, and for each replicate resamples residuals onto that
    signal and refits every method.  Reports, per method and step, the mean
    and standard deviation over replicates of the proportion of true-signal
    variance explained, plus the average nonzero count per step.  At least
    two replications are needed for the standard deviations, and forward
    selection needs ``n_steps`` within the variables a walk can hold.
    """
    replications = as_integer(replications, "replications", minimum=2)
    seed = as_integer(seed, "seed", minimum=0)
    Xq, labels = quadratic_expand(raw_columns, binary_column)
    design = standardize(Xq, raw_response, labels)
    n_steps = as_integer(n_steps, "n_steps", 0, _max_active(design))
    base = fit_path(design, "lars", stop_after=10)
    mu = design.columns @ base.betas[-1]
    eps = design.response - mu
    mu_sq = float(mu @ mu)
    true_R2 = mu_sq / (mu_sq + float(eps @ eps))

    n = design.n
    methods = ("lars", "lasso", "stagewise", "forward-selection")
    pe = {name: np.zeros((replications, n_steps + 1)) for name in methods}
    nnz = {name: np.zeros((replications, n_steps + 1)) for name in methods}

    for b in range(replications):
        rng = np.random.default_rng([seed, b])
        eps_star = eps[rng.integers(0, n, n)]
        eps_star = eps_star - eps_star.mean()
        d_star = _redrawn(design, mu + eps_star)
        for name in methods:
            if name == "forward-selection":
                p = forward_selection(d_star, n_steps)
            else:
                p = fit_path(d_star, name, stop_after=n_steps)
            betas = _vertex_betas(p, n_steps)
            fitted = betas @ design.columns.T
            pe[name][b] = 1.0 - np.sum((fitted - mu) ** 2, axis=1) / mu_sq
            nnz[name][b] = np.count_nonzero(betas, axis=1)

    return SimulationResult(
        true_R2=true_R2,
        pe_curves={name: pe[name].mean(axis=0) for name in methods},
        pe_sd={name: pe[name].std(axis=0, ddof=1) for name in methods},
        nonzero_axis={name: nnz[name].mean(axis=0) for name in methods},
        replications=replications,
        n_steps=n_steps,
    )
