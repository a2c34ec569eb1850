"""Reference code for sim4's regressions, kept verbatim from before the two
Firth fits shared one Newton loop.

- ``reference_firth_logistic``: the binary fit with the closed-form
  modified score X'(y - p + h(1/2 - p)).
- ``reference_fit_multinomial_logit``: the three-level baseline-category
  fit, whose Jeffreys penalty gradient is a central difference of
  1/2 log det I, with ``_multinomial_probs`` and ``_multinomial_info``.
- ``log_factors_binary``, ``log_factors_trinomial`` and
  ``clamped_loglik``: the scalar likelihood that gave
  ``SequentialLogisticModel`` its raw log-products.

The tests import these by name; they are not collected themselves.
"""

import math

import numpy as np

from dips.inference import (
    DegenerateEstimate,
    NonConvergence,
    PerSetEstimate,
    RankDeficient,
)
from dips.param_synth import PROPORTION_CLAMP


def _check_design(design: np.ndarray):
    n, q = design.shape
    if n <= q:
        raise RankDeficient(f"need n > q, got n={n}, q={q}")
    if np.linalg.matrix_rank(design) < q:
        raise RankDeficient("design matrix is rank deficient")


def _half_logdet(info) -> float:
    with np.errstate(divide="ignore"):  # log of a zero pivot
        sign, logdet = np.linalg.slogdet(info)
    if sign == 0:
        return -math.inf
    return 0.5 * logdet


def reference_firth_logistic(design, response, max_iter: int = 100,
                             tol: float = 1e-6) -> list[PerSetEstimate]:
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
        return ll + _half_logdet((design.T * w) @ design)

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
    # a row whose largest predictor would overflow exp is shifted by it;
    # every other row keeps the unshifted arithmetic
    top = etas.max(axis=1)
    shift = np.where(top > 700, top, 0.0)
    expd = np.exp(etas - shift[:, None])
    return expd / (np.exp(-shift) + expd.sum(axis=1))[:, None]


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


def reference_fit_multinomial_logit(design, response, max_iter: int = 100,
                                    tol: float = 1e-6):
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=np.int64)
    _check_design(design)
    levels = np.unique(response)
    if not np.isin(levels, (0, 1, 2)).all():
        raise ValueError("response must use codes 0, 1, 2")
    if len(levels) != 3:
        raise DegenerateEstimate(f"response lacks a level: {levels.tolist()}")
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
        return _half_logdet(_multinomial_info(design, probs))

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


def log_factors_binary(design, response, beta):
    eta = design @ beta
    logp = response * eta - np.logaddexp(0.0, eta)
    return logp


def log_factors_trinomial(design, response, beta3, beta4):
    eta3 = design @ beta3
    eta4 = design @ beta4
    lse = np.logaddexp(0.0, np.logaddexp(eta3, eta4))
    logp = np.where(response == 0, -lse,
                    np.where(response == 1, eta3 - lse, eta4 - lse))
    return logp


def clamped_loglik(logp):
    lo, hi = PROPORTION_CLAMP
    return float(np.clip(logp, math.log(lo), math.log(hi)).sum())
