"""Core DP sanitizers: the Laplace mechanism, the discrete Exponential
mechanism, and legitimizing post-processing (clamping, and truncation by
drawing the noise from the Laplace law conditioned on the bounds)."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .randvar import RngStream, sample_laplace, sample_truncated_laplace

__all__ = [
    "NonConvergence",
    "SensitivitySpec",
    "SanitizedStatistic",
    "laplace_mechanism",
    "exponential_mechanism_discrete",
    "postprocess_truncate",
    "postprocess_bit",
]


class NonConvergence(RuntimeError):
    """An iterative fit (Firth) did not converge within its budget."""


@dataclass(frozen=True)
class SensitivitySpec:
    """l1 global sensitivity of a statistic."""

    delta_s: float

    def __post_init__(self):
        if not (self.delta_s > 0):
            raise ValueError(f"delta_s must be positive, got {self.delta_s}")


@dataclass(frozen=True)
class SanitizedStatistic:
    label: str
    raw: np.ndarray
    sanitized: np.ndarray
    eps_spent: float
    sensitivity: SensitivitySpec
    postprocess: str = "none"  # "none" | "truncate(lo,hi)" | "BIT(lo,hi)"

    def __post_init__(self):
        if self.raw.shape != self.sanitized.shape:
            raise ValueError("raw and sanitized must have matching shapes")

    @property
    def scale(self) -> float:
        return self.sensitivity.delta_s / self.eps_spent

    def to_json(self) -> str:
        return json.dumps({
            "label": self.label,
            "raw": self.raw.tolist(),
            "sanitized": self.sanitized.tolist(),
            "eps_spent": self.eps_spent,
            "delta_s": self.sensitivity.delta_s,
            "postprocess": self.postprocess,
        })


def laplace_mechanism(rng: RngStream, raw, sens: SensitivitySpec, eps: float,
                      label: str = "stat") -> SanitizedStatistic:
    """Add iid Laplace(0, delta_s/eps) noise to each entry of ``raw``."""
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    raw = np.atleast_1d(np.asarray(raw, dtype=float))
    noise = sample_laplace(rng, 0.0, sens.delta_s / eps, size=raw.shape)
    return SanitizedStatistic(label, raw, raw + noise, eps, sens)


def exponential_mechanism_discrete(rng: RngStream, candidates, utility,
                                   delta_u: float, eps: float):
    """Select a candidate with probability proportional to
    exp(u(c) * eps / (2 delta_u)), normalized with log-sum-exp."""
    if len(candidates) == 0:
        raise ValueError("candidate set must be non-empty")
    if not (delta_u > 0):
        raise ValueError(f"delta_u must be positive, got {delta_u}")
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    scores = np.array([utility(c) for c in candidates], dtype=float)
    if np.any(np.isnan(scores)):
        raise ValueError("utility returned NaN")
    logits = scores * eps / (2.0 * delta_u)
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    idx = rng.generator.choice(len(candidates), p=probs)
    return candidates[idx]


def postprocess_truncate(rng: RngStream, stat: SanitizedStatistic,
                         lo: float, hi: float) -> SanitizedStatistic:
    """Replace each out-of-bound entry by a draw of raw + Laplace noise
    conditioned on [lo, hi]; in-bound entries are untouched."""
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    out = stat.sanitized.copy()
    oob = (out < lo) | (out > hi)
    out[oob] = sample_truncated_laplace(rng, stat.raw[oob], stat.scale, lo, hi)
    return dataclasses.replace(stat, sanitized=out,
                               postprocess=f"truncate({lo},{hi})")


def postprocess_bit(stat: SanitizedStatistic, lo: float,
                    hi: float) -> SanitizedStatistic:
    """Boundary inflated truncation: clamp entries into [lo, hi]."""
    if not (lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    return dataclasses.replace(stat, sanitized=np.clip(stat.sanitized, lo, hi),
                               postprocess=f"BIT({lo},{hi})")
