"""The core DP sanitizer: the Laplace mechanism with its legitimizing
post-processing (a clamp into the bounds, or truncation by drawing the
noise from the Laplace law conditioned on the bounds)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randvar import RngStream, sample_laplace, sample_truncated_laplace

__all__ = [
    "SensitivitySpec",
    "SanitizedStatistic",
    "laplace_mechanism",
]


@dataclass(frozen=True)
class SensitivitySpec:
    """l1 global sensitivity of a statistic: one value, or one per entry."""

    delta_s: float | np.ndarray

    def __post_init__(self):
        delta = self.delta_s
        if not ((delta > 0).all() if isinstance(delta, np.ndarray)
                else delta > 0):
            raise ValueError(f"delta_s must be positive, got {self.delta_s}")


@dataclass(frozen=True)
class SanitizedStatistic:
    label: str
    raw: np.ndarray
    sanitized: np.ndarray
    eps_spent: float
    sensitivity: SensitivitySpec
    postprocess: str  # "BIT" | "truncate"

    def __post_init__(self):
        if self.raw.shape != self.sanitized.shape:
            raise ValueError("raw and sanitized must have matching shapes")

    @property
    def scale(self) -> float | np.ndarray:
        return self.sensitivity.delta_s / self.eps_spent


def laplace_mechanism(rng: RngStream, raw, sens: SensitivitySpec, eps: float,
                      label: str = "stat", *, lower=-math.inf, upper=math.inf,
                      defined=None, postprocess: str = "BIT",
                      ) -> SanitizedStatistic:
    """Add Laplace(0, delta_s/eps) noise to each defined entry of ``raw``,
    then legitimize every entry into [lower, upper].

    The sensitivity and the bounds may be scalars or per-entry arrays.
    ``defined`` masks entries that do not exist for this dataset (e.g. the
    mean of an empty cell): they get no noise and are only clamped.
    ``postprocess`` "BIT" (boundary inflated truncation) clamps; "truncate"
    replaces each out-of-bound defined entry by a draw of raw + Laplace
    noise conditioned on its bounds, made on ``rng`` after the noise, so
    in-bound entries keep their first draw.  An ``eps`` so small that a
    scale delta_s/eps overflows a float is a ValueError naming ``label``.
    """
    if not (eps > 0):
        raise ValueError(f"eps must be positive, got {eps}")
    if postprocess not in ("BIT", "truncate"):
        raise ValueError(f"unknown postprocess {postprocess!r}")
    raw = np.atleast_1d(np.asarray(raw, dtype=float))
    delta = sens.delta_s
    # the largest entry's scale overflows first; a float division never warns
    peak = delta.max() if isinstance(delta, np.ndarray) else delta
    if not math.isfinite(float(peak) / float(eps)):
        raise ValueError(f"{label}: eps = {float(eps)!r} is too small, its "
                         "Laplace scale overflows a float")
    scale = delta / eps
    if defined is None:
        sanitized = raw + sample_laplace(rng, 0.0, scale, size=raw.shape)
    else:
        defined = np.atleast_1d(defined)
        noise = np.zeros_like(raw)
        if defined.any():
            noise[defined] = sample_laplace(
                rng, 0.0, np.broadcast_to(scale, raw.shape)[defined],
                size=int(defined.sum()))
        sanitized = raw + noise
    if postprocess == "truncate":
        scale, lo, hi = (np.broadcast_to(v, raw.shape)
                         for v in (scale, lower, upper))
        oob = (sanitized < lo) | (sanitized > hi)
        if defined is not None:
            oob &= defined
        sanitized[oob] = sample_truncated_laplace(rng, raw[oob], scale[oob],
                                                  lo[oob], hi[oob])
    sanitized = np.clip(sanitized, lower, upper)
    return SanitizedStatistic(label, raw, sanitized, eps, sens, postprocess)
