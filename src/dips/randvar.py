"""Seedable random sampling for every distribution the synthesizers need.

All samplers take an explicit :class:`RngStream`; identical (seed, stream)
pairs reproduce identical sequences.  Standard scalar distributions
delegate to numpy's Generator; the inverse-Wishart sampler is built here
via the Bartlett decomposition so near-singular draws are never inverted
directly.  The Laplace conditioned on an interval is drawn by inverse CDF,
and so are cells from a tabulated CDF, on sorted uniforms.
The t quantile of the combining rules is computed here, without scipy:
Hill's expansion about the normal quantile, refined below df 500 by
Halley steps on the t tail through the regularized incomplete beta
function.  It lies within 8e-15 relative of scipy's ``stdtrit`` over the
probabilities and df that :func:`t_quantile` documents.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

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
    "sample_cells",
    "invert_cdf",
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

    @property
    def generator(self) -> np.random.Generator:
        """The PCG64 generator of ``SeedSequence(entropy=seed,
        spawn_key=stream)``, whose state it equals.  The entropy array is
        assembled here as numpy assembles it: the seed's 32-bit words,
        zero-padded to the pool size when the path is not empty, then each
        path key's words.  numpy then takes the array as it is, which
        saves its per-key Python coercion."""
        if self._gen is None:
            words = _uint32_words(self.seed)
            if self.stream:
                # zero-padded to SeedSequence's default pool of 4 words
                words += [0] * (4 - len(words))
                for key in self.stream:
                    words += _uint32_words(key)
            seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
            self._gen = np.random.Generator(np.random.PCG64(seq))
        return self._gen

    def substream(self, *path: int) -> "RngStream":
        """A fresh independent stream derived from this one's identity."""
        return RngStream(self.seed, self.stream + tuple(path))


def _uint32_words(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant
    first; 0 is one word."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


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


def sample_cells(rng: RngStream, n: int, weights) -> np.ndarray:
    """n cell codes in [0, len(weights)), in shuffled order, whose counts
    are multinomial with probabilities ``weights / weights.sum()``."""
    weights = np.asarray(weights, dtype=float)
    gen = rng.generator
    cells = np.repeat(np.arange(len(weights)),
                      gen.multinomial(n, weights / weights.sum()))
    gen.shuffle(cells)
    return cells


def invert_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for a nondecreasing ``cdf``
    and a 1-D ``u``: the index of the first CDF value above each uniform.

    The search runs over the sorted uniforms, so that numpy starts each
    from the last result and its probes stay in cache, and the indices
    are scattered back into ``u``'s order (Devroye 1986, ch. 2)."""
    order = np.argsort(u)
    out = np.empty(len(u), dtype=np.intp)
    out[order] = cdf.searchsorted(u[order], side="right")
    return out


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


_NORMAL = NormalDist()
_LOG_SQRT_PI = 0.5 * math.log(math.pi)
# log Γ(a + 1/2) - log Γ(a) - (log a)/2 ~ sum over k = 2, 4, ..., 12 of
# (2^(1-k) - 2) B_k / (k (k - 1)) a^(1-k), B_k the Bernoulli numbers; from
# a = 20 on its first omitted term is below 2e-19
_GAMMA_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432,
                       691 / 180224)
# from this df on Hill's expansion alone lies within 6e-16 of the t
# quantile for 5e-4 <= p <= 1 - 5e-4; its error grows in the far tail
HILL_DF = 500.0


def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student-t; df = inf gives the normal quantile.

    The normal quantile is ``statistics.NormalDist().inv_cdf`` (Wichura's
    AS 241, up to 4 ulp off) with one Newton step on ``math.erfc``, which
    brings it within 1 ulp.  A finite df starts from Hill's expansion
    about it (1970, CACM Algorithm 396), alone from df = ``HILL_DF`` on.
    Below that, or in a far tail where the expansion does not apply,
    Halley steps in log t solve for P(T > t) = min(p, 1 - p), half the
    regularized incomplete beta I_x(df/2, 1/2) at x = df/(df + t^2): a
    continued fraction in the tail, or for t^2 <= min(df, 4.5) a power
    series for the mass between 0 and t, so that neither side is taken
    as a difference from 1.  Against scipy's ``stdtrit`` over 16
    probabilities from 5e-4 to 1 - 5e-4 and 280 df from 1 to 1e12 it
    lies within 8e-15 relative, and the normal quantile within 2 ulp of
    ``ndtri`` (``tests/test_randvar.py``).
    """
    if not (0 < p < 1):
        raise ParameterDomainError(f"p must be in (0,1), got {p}")
    if df != math.inf and df <= 0:
        raise ParameterDomainError(f"df must be positive, got {df}")
    if p == 0.5:
        return 0.0
    q = min(p, 1.0 - p)  # 1 - p is exact for p >= 1/2
    t = _normal_upper(q) if math.isinf(df) else _t_upper(q, df)
    return t if p > 0.5 else -t


def _t_upper(q: float, df: float) -> float:
    """t with P(T > t) = q for Student-t with finite df."""
    ratio = _hill_ratio(q, df) if df >= 1 else None
    if ratio is not None and df >= HILL_DF:
        return math.sqrt(df * ratio)
    a = 0.5 * df
    log_inv_beta = (_log_gamma_ratio(a) + 0.5 * math.log(a)
                    - _LOG_SQRT_PI)  # -log B(a, 1/2)
    if ratio is not None:
        lr = math.log(ratio)
    else:
        # the far tail: P(T > t) ~ (t^2/df)^-a / (df B(a, 1/2))
        lr = (log_inv_beta - math.log(q) - math.log(df)) / a
    # Halley converges cubically: after a step below 1e-5 the error in
    # log t is of order 1e-15
    for _ in range(50):
        step = _halley_step(lr, df, q, log_inv_beta)
        lr += 2 * step
        if abs(step) <= 1e-5:
            break
    # exp overflows a float beyond 709
    return math.sqrt(df) * math.exp(0.5 * lr) if lr < 1418 else math.inf


def _normal_upper(q: float) -> float:
    """z with P(Z > z) = q for a standard normal Z."""
    z = -_NORMAL.inv_cdf(q)
    density = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    return z + (0.5 * math.erfc(z / math.sqrt(2)) - q) / density


def _log_gamma_ratio(a: float) -> float:
    """log Γ(a + 1/2) - log Γ(a) - (log a)/2, without the cancellation of
    two log-gammas: below a = 20 by Γ(a + 1/2)/Γ(a) = (a/(a + 1/2)) times
    the same ratio at a + 1, then by its asymptotic series."""
    factor, b = 1.0, a
    while b < 20.0:
        factor *= b / (b + 0.5)
        b += 1.0
    u = 1.0 / (b * b)
    series = 0.0
    for c in reversed(_GAMMA_RATIO_SERIES):
        series = series * u + c
    return series / b + math.log(factor * math.sqrt(b / a))


def _hill_ratio(q: float, df: float) -> float | None:
    """t^2/df for P(T > t) = q by Hill's expansion about the normal
    quantile, as R's ``qt`` computes it; None in the far tail of a small
    df, where Hill switches to an expansion in the tail instead."""
    a = 1 / (df - 0.5)
    b = 48 * (df - 0.5) * (df - 0.5)
    c = ((20700 * a / b - 98) * a - 16) * a + 96.36
    d = ((94.5 / (b + c) - 3) / b + 1) * math.sqrt(a * math.pi / 2) * df
    if (2 * d * q) ** (2 / df) <= 0.05 + a:
        return None
    x = -_normal_upper(q)
    if df < 5:
        c += 0.3 * (df - 4.5) * (x + 0.6)
    c = (((0.05 * d * x - 5) * x - 7) * x - 2) * x + b + c
    y = x * x
    y = (((((0.4 * y + 6.3) * y + 36) * y + 94.5) / c - y - 3) / b + 1) * x
    return math.expm1(a * y * y)


def _halley_step(lr: float, df: float, q: float,
                 log_inv_beta: float) -> float:
    """The Halley step in log t towards P(T > t) = q, from
    lr = log(t^2/df).  With x = df/(df + t^2), y = 1 - x and a = df/2,
    k = x^a y^(1/2) / B(a, 1/2) is t times the density at t; it is kept
    as its log, which does not underflow in a far tail."""
    a = 0.5 * df
    # log x and log y from lr alone, so that t^2 never overflows
    e = math.exp(-abs(lr))
    log1pe = math.log1p(e)
    log_x, log_y = (-lr - log1pe, -log1pe) if lr > 0 else (-log1pe,
                                                            lr - log1pe)
    log_k = a * log_x + 0.5 * log_y + log_inv_beta
    y = math.exp(log_y)
    if lr <= 0 and df * e <= 4.5:
        # P(0 < T < t) = I_y(1/2, a) / 2 = k sum_n (a + 1/2)_n / (3/2)_n y^n
        term = total = 1.0
        n = 0
        while term > 1e-17 * total:
            term *= y * (a + 0.5 + n) / (1.5 + n)
            total += term
            n += 1
        value, target, sign = total, 0.5 - q, -1.0
    else:
        # P(T > t) = I_x(a, 1/2) / 2 = k/(2a) times a continued fraction,
        # evaluated by the modified Lentz method
        x = math.exp(log_x)
        c = 1.0
        d = h = 1.0 / (1.0 - (a + 0.5) * x / (a + 1.0))
        for m in range(1, 300):
            for num in (m * (0.5 - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                        -(a + m) * (a + 0.5 + m) * x
                        / ((a + 2 * m) * (a + 1 + 2 * m))):
                d = 1.0 / (1.0 + num * d)
                c = 1.0 + num / c
                h *= d * c
            if abs(d * c - 1.0) <= 2.3e-16:
                break
        value, target, sign = 0.5 * h / a, q, 1.0
    # the probability is k * value; Newton's step on its log minus
    # log(target) in log t, whose slope is -sign / value, and Halley's
    # correction for the curvature
    delta = sign * value * (log_k + math.log(value) - math.log(target))
    return delta / (1 + delta * (1 - (df + 1) * y + sign / value) / 2)
