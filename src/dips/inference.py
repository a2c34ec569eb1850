"""Per-set estimators, within-set variances, Firth-penalized logistic fits,
and the multiple-synthesis combination rules.

Within-set variability is stored as a variance throughout; the average of
the per-set variances enters the total variance T = B/m + W directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mechanisms import NonConvergence
from .randvar import t_quantile

__all__ = [
    "DegenerateEstimate",
    "NonConvergence",
    "RankDeficient",
    "PerSetEstimate",
    "CombinedEstimate",
    "combine",
    "estimate_proportion",
    "estimate_mean",
    "estimate_variance",
    "variance_from_moments",
    "estimate_correlation",
    "firth_logistic",
    "fit_multinomial_logit",
]


class DegenerateEstimate(ValueError):
    """The requested estimate is undefined for this sample."""


class RankDeficient(ValueError):
    pass


@dataclass(frozen=True)
class PerSetEstimate:
    estimate: float
    within_variance: float

    def __post_init__(self):
        if self.within_variance < 0:
            raise ValueError("within_variance must be nonnegative")


@dataclass(frozen=True)
class CombinedEstimate:
    point: float
    between_B: float
    within_W: float
    total_T: float
    df: float
    ci_low: float
    ci_high: float
    level: float
    single_set: bool = False
    degenerate_between: bool = False


def combine(estimates: list[PerSetEstimate],
            level: float = 0.95) -> CombinedEstimate:
    """Pool per-set estimates: mean point estimate, T = B/m + W, and a
    t-interval on df = (m-1)(1 + mW/B)^2.  B = 0 degenerates to the normal
    quantile with T = W; a single estimate is passed through flagged."""
    if not estimates:
        raise ValueError("need at least one estimate")
    if not (0 < level < 1):
        raise ValueError(f"level must be in (0,1), got {level}")
    m = len(estimates)
    points = np.array([e.estimate for e in estimates])
    variances = np.array([e.within_variance for e in estimates])
    point = float(points.mean())
    within = float(variances.mean())
    if m == 1:
        half = t_quantile(1 - (1 - level) / 2, math.inf) * math.sqrt(within)
        return CombinedEstimate(point, 0.0, within, within, math.inf,
                                point - half, point + half, level,
                                single_set=True)
    between = float(np.sum((points - point) ** 2) / (m - 1))
    if between == 0.0:
        total = within
        df = math.inf
        degenerate = True
    else:
        total = between / m + within
        df = (m - 1) * (1 + m * within / between) ** 2
        degenerate = False
    half = t_quantile(1 - (1 - level) / 2, df) * math.sqrt(total)
    return CombinedEstimate(point, between, within, total, df,
                            point - half, point + half, level,
                            degenerate_between=degenerate)


# -- per-set estimators -----------------------------------------------------

def estimate_proportion(values) -> PerSetEstimate:
    """Sample proportion with variance p(1-p)/n."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 1:
        raise DegenerateEstimate("empty sample")
    p = float(values.mean())
    return PerSetEstimate(p, p * (1 - p) / n)


def estimate_mean(values) -> PerSetEstimate:
    """Sample mean with variance S^2/n."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 3:
        raise DegenerateEstimate(f"need n >= 3, got {n}")
    return PerSetEstimate(float(values.mean()), float(values.var(ddof=1)) / n)


def excess_kurtosis(values) -> float:
    values = np.asarray(values, dtype=float)
    centered = values - values.mean()
    s2 = centered.var()
    if s2 == 0:
        raise DegenerateEstimate("constant sample has no kurtosis")
    return float(np.mean(centered ** 4) / s2 ** 2 - 3.0)


def estimate_variance(values) -> PerSetEstimate:
    """Sample variance with variance (S^2)^2 (2/(n-1) + kappa/n), kappa the
    excess kurtosis."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n < 4:
        raise DegenerateEstimate(f"need n >= 4, got {n}")
    s2 = float(values.var(ddof=1))
    if s2 == 0:
        raise DegenerateEstimate("constant column: variance of variance undefined")
    return variance_from_moments(s2, excess_kurtosis(values), n)


def variance_from_moments(s2: float, kappa: float, n: int) -> PerSetEstimate:
    """S^2 with variance (S^2)^2 (2/(n-1) + kappa/n), kappa the excess
    kurtosis, floored at 0."""
    return PerSetEstimate(s2, max(s2 ** 2 * (2.0 / (n - 1) + kappa / n), 0.0))


def estimate_correlation(x, y=None, r: float | None = None,
                         n: int | None = None) -> PerSetEstimate:
    """Pearson correlation with variance (1 - r^2)/(n - 2).

    Either pass two samples, or a precomputed (r, n) pair (used when r is
    derived from a pooled covariance matrix).
    """
    if r is None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 3:
            raise DegenerateEstimate(f"need n >= 3, got {n}")
        sx, sy = x.std(ddof=1), y.std(ddof=1)
        if sx == 0 or sy == 0:
            raise DegenerateEstimate("constant column: correlation undefined")
        r = float(np.cov(x, y, ddof=1)[0, 1] / (sx * sy))
    if n is None or n < 3:
        raise DegenerateEstimate("need n >= 3 for the correlation variance")
    r = min(1.0, max(-1.0, r))
    return PerSetEstimate(r, (1 - r ** 2) / (n - 2))


# -- Firth-penalized logistic regression ------------------------------------

def _check_design(design: np.ndarray):
    n, q = design.shape
    if n <= q:
        raise RankDeficient(f"need n > q, got n={n}, q={q}")
    if np.linalg.matrix_rank(design) < q:
        raise RankDeficient("design matrix is rank deficient")


def firth_logistic(design, response, max_iter: int = 100,
                   tol: float = 1e-6) -> list[PerSetEstimate]:
    """Binary logistic regression maximizing the Jeffreys-penalized
    likelihood l(beta) + 1/2 log det I(beta) by Newton steps with
    step-halving.  Returns one PerSetEstimate per coefficient, with
    variances from the inverse information at the solution."""
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    _check_design(design)
    n, q = design.shape
    beta = np.zeros(q)

    def score_info(b):
        eta = design @ b
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1 - p)
        xtw = design.T * w
        info = xtw @ design
        # hat diagonal of W^(1/2) X (X'WX)^-1 X' W^(1/2)
        half = design * np.sqrt(w)[:, None]
        hat = np.einsum("ij,ij->i", half @ np.linalg.inv(info), half)
        score = design.T @ (response - p + hat * (0.5 - p))
        return score, info

    def penalized_loglik(b):
        eta = design @ b
        ll = float(response @ eta - np.logaddexp(0.0, eta).sum())
        p = 1.0 / (1.0 + np.exp(-eta))
        w = p * (1 - p)
        sign, logdet = np.linalg.slogdet((design.T * w) @ design)
        return ll + 0.5 * logdet

    obj = penalized_loglik(beta)
    for _ in range(max_iter):
        score, info = score_info(beta)
        if np.max(np.abs(score)) < tol:
            cov = np.linalg.inv(info)
            return [PerSetEstimate(float(beta[j]), float(cov[j, j]))
                    for j in range(q)]
        step = np.linalg.solve(info, score)
        factor = 1.0
        for _ in range(30):
            trial = beta + factor * step
            trial_obj = penalized_loglik(trial)
            if trial_obj >= obj - 1e-12:
                break
            factor /= 2.0
        beta = beta + factor * step
        obj = penalized_loglik(beta)
    raise NonConvergence(f"Firth fit did not converge in {max_iter} iterations")


def _multinomial_probs(design, theta, n_alt):
    """Softmax probabilities for a baseline-category logit; returns
    (n, n_alt) matrix of non-reference level probabilities."""
    n, q = design.shape
    etas = design @ theta.reshape(n_alt, q).T  # (n, n_alt)
    denom = 1.0 + np.exp(etas).sum(axis=1)
    return np.exp(etas) / denom[:, None]


def _multinomial_info(design, probs):
    """Expected information of the baseline-category logit, blocked by
    alternative."""
    n, q = design.shape
    n_alt = probs.shape[1]
    info = np.zeros((n_alt * q, n_alt * q))
    for a in range(n_alt):
        for b in range(n_alt):
            w = probs[:, a] * ((a == b) - probs[:, b])
            info[a * q:(a + 1) * q, b * q:(b + 1) * q] = (design.T * w) @ design
    return info


def fit_multinomial_logit(design, response, max_iter: int = 100,
                          tol: float = 1e-6):
    """Firth-penalized baseline-category logit for a 3-level response with
    level 0 as the reference.  Returns a list of coefficient blocks, one
    list of PerSetEstimates per non-reference level.

    The Jeffreys penalty gradient is evaluated by central differences of
    1/2 log det I(theta); the Newton direction uses the expected
    information."""
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=np.int64)
    _check_design(design)
    levels = np.unique(response)
    if not np.array_equal(levels, np.arange(len(levels))) or len(levels) != 3:
        raise ValueError("response must use codes 0, 1, 2 with all present")
    n, q = design.shape
    n_alt = 2
    indicator = np.column_stack([(response == a + 1).astype(float)
                                 for a in range(n_alt)])
    theta = np.zeros(n_alt * q)

    def loglik(th):
        probs = _multinomial_probs(design, th, n_alt)
        p_ref = 1.0 - probs.sum(axis=1)
        p_obs = np.where(response == 0, p_ref,
                         probs[np.arange(n), np.maximum(response - 1, 0)])
        return float(np.log(np.clip(p_obs, 1e-300, None)).sum())

    def penalty(th):
        probs = _multinomial_probs(design, th, n_alt)
        sign, logdet = np.linalg.slogdet(_multinomial_info(design, probs))
        return 0.5 * logdet

    def penalty_grad(th, h=1e-5):
        grad = np.zeros_like(th)
        for j in range(len(th)):
            up, dn = th.copy(), th.copy()
            up[j] += h
            dn[j] -= h
            grad[j] = (penalty(up) - penalty(dn)) / (2 * h)
        return grad

    obj = loglik(theta) + penalty(theta)
    for _ in range(max_iter):
        probs = _multinomial_probs(design, theta, n_alt)
        score = np.concatenate([design.T @ (indicator[:, a] - probs[:, a])
                                for a in range(n_alt)])
        score = score + penalty_grad(theta)
        if np.max(np.abs(score)) < tol:
            cov = np.linalg.inv(_multinomial_info(design, probs))
            blocks = []
            for a in range(n_alt):
                blocks.append([
                    PerSetEstimate(float(theta[a * q + j]),
                                   float(cov[a * q + j, a * q + j]))
                    for j in range(q)
                ])
            return blocks
        info = _multinomial_info(design, probs)
        step = np.linalg.solve(info + 1e-10 * np.eye(len(theta)), score)
        factor = 1.0
        for _ in range(30):
            trial = theta + factor * step
            trial_obj = loglik(trial) + penalty(trial)
            if trial_obj >= obj - 1e-12:
                break
            factor /= 2.0
        theta = theta + factor * step
        obj = loglik(theta) + penalty(theta)
    raise NonConvergence(
        f"multinomial Firth fit did not converge in {max_iter} iterations")
