"""Seedable random sampling for every distribution the synthesizers need.

All samplers take an explicit :class:`RngStream`; identical (seed, stream)
pairs reproduce identical sequences.  Standard scalar distributions
delegate to numpy's Generator; the inverse-Wishart sampler is built here
via the Bartlett decomposition so near-singular draws are never inverted
directly.  The Laplace conditioned on an interval is drawn by inverse CDF.
Of scipy only ``scipy.special`` is loaded, for the t and normal quantiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

__all__ = [
    "ParameterDomainError",
    "RngStream",
    "sample_laplace",
    "sample_truncated_laplace",
    "sample_beta",
    "sample_dirichlet",
    "sample_gamma",
    "sample_inv_gamma",
    "sample_multinomial",
    "sample_bernoulli",
    "sample_normal",
    "sample_mvnormal",
    "sample_wishart",
    "sample_inv_wishart",
    "t_quantile",
]


class ParameterDomainError(ValueError):
    """A distribution parameter is outside its domain."""


@dataclass
class RngStream:
    """A value-like, splittable RNG stream.

    The underlying generator is keyed by (seed, stream path); substreams
    derived through :meth:`substream` are statistically independent and do
    not require coordination between workers.
    """

    seed: int
    stream: tuple[int, ...] = ()
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.stream, int):
            self.stream = (self.stream,)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def substream(self, *path: int) -> "RngStream":
        """A fresh independent stream derived from this one's identity."""
        return RngStream(self.seed, self.stream + tuple(path))


def _check_positive(name, value):
    # every sampler call checks its parameters: a plain comparison for a
    # Python number costs far less than the array path; NaN fails both
    if isinstance(value, (int, float)):
        ok = value > 0
    else:
        ok = np.all(np.asarray(value) > 0)
    if not ok:
        raise ParameterDomainError(f"{name} must be positive, got {value}")


def sample_laplace(rng: RngStream, location, scale, size=None):
    _check_positive("scale", scale)
    return rng.generator.laplace(location, scale, size=size)


def sample_truncated_laplace(rng: RngStream, location, scale, lo, hi):
    """Laplace(location, scale) conditioned on [lo, hi], elementwise.

    Inverse CDF with one uniform per entry; the arguments broadcast
    together.  A window on one side of the location is a truncated
    exponential whose draw depends only on the window width in scales, so
    it stays exact however far out the window lies.  A window around the
    location inverts the two-piece CDF, measuring mass outward from the
    location.  ``lo == hi`` returns that point.
    """
    _check_positive("scale", scale)
    location, scale, lo, hi = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (location, scale, lo, hi)))
    if np.any(lo > hi):
        raise ParameterDomainError("need lo <= hi for every entry")
    u = rng.generator.random(location.shape)
    out = np.empty(location.shape)
    for side, anchor, sign in ((lo >= location, lo, 1.0),
                               (hi <= location, hi, -1.0)):
        width = (hi[side] - lo[side]) / scale[side]
        depth = -np.log1p(u[side] * np.expm1(-width))
        out[side] = anchor[side] + sign * scale[side] * depth
    mid = (lo < location) & (location < hi)
    b = scale[mid]
    mass_lo = -0.5 * np.expm1((lo[mid] - location[mid]) / b)
    mass_hi = -0.5 * np.expm1((location[mid] - hi[mid]) / b)
    t = u[mid] * (mass_lo + mass_hi) - mass_lo  # signed mass from location
    out[mid] = location[mid] + b * np.where(t < 0, np.log1p(2 * t),
                                            -np.log1p(-2 * t))
    return np.clip(out, lo, hi)


def sample_beta(rng: RngStream, a, b, size=None):
    _check_positive("a", a)
    _check_positive("b", b)
    return rng.generator.beta(a, b, size=size)


def sample_dirichlet(rng: RngStream, alpha):
    alpha = np.asarray(alpha, dtype=float)
    _check_positive("alpha", alpha)
    return rng.generator.dirichlet(alpha)


def sample_gamma(rng: RngStream, shape, rate=1.0, size=None):
    _check_positive("shape", shape)
    _check_positive("rate", rate)
    return rng.generator.gamma(shape, 1.0 / rate, size=size)


def sample_inv_gamma(rng: RngStream, shape, scale, size=None):
    """Inverse-Gamma(shape, scale): 1/X with X ~ Gamma(shape, rate=scale)."""
    _check_positive("shape", shape)
    _check_positive("scale", scale)
    return 1.0 / rng.generator.gamma(shape, 1.0 / scale, size=size)


def sample_multinomial(rng: RngStream, n, pvals):
    pvals = np.asarray(pvals, dtype=float)
    if np.any(pvals < 0) or not math.isclose(pvals.sum(), 1.0, abs_tol=1e-9):
        raise ParameterDomainError("pvals must be nonnegative and sum to 1")
    return rng.generator.multinomial(n, pvals / pvals.sum())


def sample_bernoulli(rng: RngStream, p, size=None):
    if not (0 <= p <= 1):
        raise ParameterDomainError(f"p must be in [0,1], got {p}")
    return (rng.generator.random(size) < p).astype(np.int64)


def sample_normal(rng: RngStream, mean, sd, size=None):
    _check_positive("sd", sd)
    return rng.generator.normal(mean, sd, size=size)


def sample_mvnormal(rng: RngStream, mean, cov, size=None):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ParameterDomainError("covariance must be symmetric")
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() < -1e-10 * max(1.0, eigs.max()):
        raise ParameterDomainError("covariance must be positive semi-definite")
    return rng.generator.multivariate_normal(mean, cov, size=size,
                                             method="eigh")


def _bartlett_factor(rng: RngStream, dof: float, p: int) -> np.ndarray:
    """Lower-triangular Bartlett factor A with W = A A' ~ Wishart(dof, I)."""
    a = np.zeros((p, p))
    gen = rng.generator
    # scalar calls: at p <= 5 one array-valued chisquare call costs more
    for i in range(p):
        a[i, i] = math.sqrt(gen.chisquare(dof - i))
    # a boolean mask fills in row-major order, as np.tril_indices lists the
    # entries, at a fraction of that call's cost
    a[np.tri(p, k=-1, dtype=bool)] = gen.standard_normal(p * (p - 1) // 2)
    return a


def sample_wishart(rng: RngStream, dof: float, scale: np.ndarray) -> np.ndarray:
    scale = np.asarray(scale, dtype=float)
    p = scale.shape[0]
    if dof <= p - 1:
        raise ParameterDomainError(f"Wishart dof must exceed p-1={p - 1}")
    chol = np.linalg.cholesky(scale)
    la = chol @ _bartlett_factor(rng, dof, p)
    return la @ la.T


def sample_inv_wishart(rng: RngStream, dof: float, scale: np.ndarray) -> np.ndarray:
    """Inverse-Wishart(dof, scale) via Bartlett decomposition.

    Draws W ~ Wishart(dof, scale^{-1}) as (LA)(LA)' with L the Cholesky
    factor of scale^{-1}, then returns W^{-1} through triangular solves
    (no dense inverse of the draw itself).  L' is the inverse of
    chol(scale), found by forward substitution with the reciprocals of its
    diagonal: at p = 2, with chol(scale) = [[a, 0], [b, d]], r0 = 1/a and
    r1 = 1/d, it is [[r0, 0], [(-b r0) r1, r1]], bit for bit what
    OpenBLAS's triangular solve returns for an identity right-hand side
    (which also multiplies by the diagonal's reciprocals).
    """
    scale = np.asarray(scale, dtype=float)
    p = scale.shape[0]
    if dof <= p - 1:
        raise ParameterDomainError(f"Inv-Wishart dof must exceed p-1={p - 1}")
    if not np.allclose(scale, scale.T, atol=1e-8 * max(1.0, abs(scale).max())):
        raise ParameterDomainError("scale must be symmetric")
    # L L' = scale^{-1} without forming the inverse: L = chol(scale)^{-T}
    chol_scale = np.linalg.cholesky(scale)
    recip = 1.0 / np.diag(chol_scale)
    l_inv = np.diag(recip)
    for i in range(1, p):
        l_inv[i, :i] = -(chol_scale[i, :i] @ l_inv[:i, :i]) * recip[i]
    factor = l_inv.T @ _bartlett_factor(rng, dof, p)  # W = factor factor'
    # W^{-1} = factor^{-T} factor^{-1}
    finv = np.linalg.inv(factor)
    draw = finv.T @ finv
    return 0.5 * (draw + draw.T)


def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student-t; df = inf gives the normal quantile."""
    if not (0 < p < 1):
        raise ParameterDomainError(f"p must be in (0,1), got {p}")
    if df != math.inf and df <= 0:
        raise ParameterDomainError(f"df must be positive, got {df}")
    if math.isinf(df):
        return float(special.ndtri(p))
    return float(special.stdtrit(df, p))
