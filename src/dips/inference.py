"""Per-set estimators, within-set variances, Firth-penalized logistic fits,
and the multiple-synthesis combination rules.

Within-set variability is stored as a variance throughout; the average of
the per-set variances enters the total variance T = B/m + W directly.

The binary and the three-level Firth fits share one Newton loop,
``_firth_fit``, with the Jeffreys penalty's gradient in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


class NonConvergence(RuntimeError):
    """An iterative fit (Firth) did not converge within its budget."""


class RankDeficient(DegenerateEstimate):
    """The design matrix has too few rows or dependent columns."""


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


LEVEL = 0.95


def combine(estimates: list[PerSetEstimate]) -> CombinedEstimate:
    """Pool per-set estimates: mean point estimate, T = B/m + W, and a
    ``LEVEL`` t-interval on df = (m-1)(1 + mW/B)^2.  B = 0 degenerates to
    the normal quantile with T = W; a single estimate is passed through
    flagged."""
    if not estimates:
        raise ValueError("need at least one estimate")
    m = len(estimates)
    points = np.array([e.estimate for e in estimates])
    variances = np.array([e.within_variance for e in estimates])
    point = float(points.mean())
    within = float(variances.mean())
    if m == 1:
        half = t_quantile(1 - (1 - LEVEL) / 2, math.inf) * math.sqrt(within)
        return CombinedEstimate(point, 0.0, within, within, math.inf,
                                point - half, point + half, LEVEL,
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
    half = t_quantile(1 - (1 - LEVEL) / 2, df) * math.sqrt(total)
    return CombinedEstimate(point, between, within, total, df,
                            point - half, point + half, LEVEL,
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

def _check_design(design) -> np.ndarray:
    design = np.asarray(design, dtype=float)
    n, q = design.shape
    if n <= q:
        raise RankDeficient(f"need n > q, got n={n}, q={q}")
    if np.linalg.matrix_rank(design) < q:
        raise RankDeficient("design matrix is rank deficient")
    return design


def _half_logdet(info) -> float:
    """The Jeffreys penalty 1/2 log det I of an information matrix.  At
    separation I is singular (slogdet's sign 0), and the penalty is -inf:
    a step onto such a point is never taken."""
    with np.errstate(divide="ignore"):  # log of a zero pivot
        sign, logdet = np.linalg.slogdet(info)
    if sign == 0:
        return -math.inf
    return 0.5 * logdet


def _firth_terms(design, codes, k: int):
    """The Jeffreys-penalized likelihood of a baseline-category logit with
    level 0 as the reference and k other levels (k = 1 is the binary
    logit).  theta holds one block of q coefficients per level.  Returns
    ``evaluate(theta) -> (l + 1/2 log det I, p, I)`` and
    ``penalized_score(p, I) -> (score, I^-1)``.

    Row i has log-probabilities [0, eta_i1..eta_ik] minus their
    log-sum-exp, and the information is I = sum_i W_i (x) x_i x_i' with
    W_i = diag(p_i) - p_i p_i'.  The penalty's gradient is in closed form:
    d(1/2 log det I)/d theta_aj = sum_i x_ij r_ia, where
    r_ia = 1/2 sum_bc H_i[b, c] dW_i[b, c]/d eta_ia
         = 1/2 p_ia (H_i[a, a] - sum_b p_ib H_i[b, b] - 2 (H_i p_i)_a
                     + 2 p_i' H_i p_i)
    and H_i[b, c] = x_i' (I^-1)_bc x_i.  For k = 1 that is h_i (1/2 - p_i)
    with h_i the hat diagonal, Firth's modified score."""
    n, q = design.shape
    rows = np.arange(n)
    diag = np.arange(k)
    observed = (codes[:, None] == diag + 1).astype(float)
    # x_i x_i' flattened: I and H are its products with (k x k) weights
    outer = (design[:, :, None] * design[:, None, :]).reshape(n, q * q)

    def evaluate(theta):
        full = np.zeros((n, k + 1))
        full[:, 1:] = design @ theta.reshape(k, q).T
        top = full.max(axis=1, keepdims=True)
        lse = top + np.log(np.exp(full - top).sum(axis=1, keepdims=True))
        logp = full - lse
        p = np.exp(logp[:, 1:])
        w = -p[:, :, None] * p[:, None, :]
        w[:, diag, diag] += p
        info = (w.reshape(n, k * k).T @ outer).reshape(
            k, k, q, q).transpose(0, 2, 1, 3).reshape(k * q, k * q)
        return float(logp[rows, codes].sum()) + _half_logdet(info), p, info

    def penalized_score(p, info):
        cov = np.linalg.inv(info)
        h = outer @ cov.reshape(k, q, k, q).transpose(0, 2, 1, 3).reshape(
            k * k, q * q).T
        h = h.reshape(n, k, k)
        h_diag = h[:, diag, diag]
        hp = np.einsum("iab,ib->ia", h, p)
        r = 0.5 * p * (h_diag - (p * h_diag).sum(axis=1, keepdims=True)
                       - 2 * hp + 2 * (p * hp).sum(axis=1, keepdims=True))
        return ((observed - p + r).T @ design).ravel(), cov

    return evaluate, penalized_score


FIRTH_MAX_ITER = 100
FIRTH_TOL = 1e-6


def _firth_fit(design, codes, k: int):
    """Maximize ``_firth_terms``' penalized likelihood by Newton steps on
    the expected information, with step-halving, until no entry of the
    penalized score exceeds ``FIRTH_TOL`` in absolute value, at most
    ``FIRTH_MAX_ITER`` steps.  Returns the estimate theta, one block of
    coefficients per non-reference level end to end, and the inverse
    information at it."""
    evaluate, penalized_score = _firth_terms(design, codes, k)
    theta = np.zeros(k * design.shape[1])
    obj, p, info = evaluate(theta)
    for _ in range(FIRTH_MAX_ITER):
        score, cov = penalized_score(p, info)
        if np.max(np.abs(score)) < FIRTH_TOL:
            return theta, cov
        step = np.linalg.solve(info + 1e-10 * np.eye(len(theta)), score)
        factor = 1.0
        for _ in range(30):
            trial = evaluate(theta + factor * step)
            if trial[0] >= obj - 1e-12:
                break
            factor /= 2.0
        else:
            trial = evaluate(theta + factor * step)
        theta = theta + factor * step
        obj, p, info = trial
    raise NonConvergence(f"Firth fit did not converge in {FIRTH_MAX_ITER} "
                         "iterations")


def _estimates(theta, cov, k: int) -> list[list[PerSetEstimate]]:
    """One list of PerSetEstimates per non-reference level, with
    variances from the inverse information."""
    return [[PerSetEstimate(float(t), float(v))
             for t, v in zip(block, block_var)]
            for block, block_var in zip(theta.reshape(k, -1),
                                        np.diag(cov).reshape(k, -1))]


def _checked_firth_fit(design, response, k: int):
    """``_firth_fit`` of a full-rank design and response codes 0..k, each
    present when k > 1: the estimate theta and its inverse information."""
    design = _check_design(design)
    response = np.asarray(response)
    if not np.isin(response, np.arange(k + 1)).all():
        raise ValueError("response must use codes "
                         + ", ".join(map(str, range(k + 1))))
    codes = response.astype(np.int64)
    levels = np.unique(codes)
    if k > 1 and len(levels) != k + 1:
        raise DegenerateEstimate(f"response lacks a level: {levels.tolist()}")
    return _firth_fit(design, codes, k)


def firth_logistic(design, response) -> list[PerSetEstimate]:
    """Firth-penalized binary logistic regression (``_firth_fit`` with
    k = 1) for a 0/1 response.  Returns one PerSetEstimate per
    coefficient."""
    return _estimates(*_checked_firth_fit(design, response, 1), 1)[0]


def fit_multinomial_logit(design, response):
    """Firth-penalized baseline-category logit (``_firth_fit`` with k = 2)
    for a 3-level response with level 0 as the reference.  Returns a list
    of coefficient blocks, one list of PerSetEstimates per non-reference
    level.  A response that lacks a level is a DegenerateEstimate."""
    return _estimates(*_checked_firth_fit(design, response, 2), 2)
