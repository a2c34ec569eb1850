"""Parametric synthesis: the Multinomial-Dirichlet family (MD, BB-MR) and
the model-based engine that sanitizes Bayesian sufficient statistics, draws
parameters from the posterior given the sanitized statistics, and simulates
synthetic rows from the predictive.

Every release of m sets spends exactly the total budget on the ledger:
each set costs eps/m, split equally across its sanitized statistic groups;
entries within a group that come from disjoint data subsets share one
charge (parallel composition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol

import numpy as np

from .budget import PrivacyLedger
from .dataset import CategoricalColumn, ContinuousColumn, TabularDataset
from .mechanisms import SanitizedStatistic, SensitivitySpec, laplace_mechanism
from .randvar import (
    RngStream,
    sample_bernoulli,
    sample_beta,
    sample_cells,
    sample_dirichlet,
    sample_inv_gamma,
    sample_inv_wishart,
    sample_mvnormal,
    sample_normal,
)

__all__ = [
    "StatGroup",
    "ModipsModel",
    "SyntheticRelease",
    "md_synthesizer",
    "bbmr_synthesizer",
    "modips_release",
    "BernoulliModel",
    "NormalModel",
    "GaussianMixtureModel",
    "SequentialLogisticModel",
]

TINY_VARIANCE = 1e-12
BERNOULLI_PRIOR = 1 / 3
MIXTURE_PRIOR_ALPHA = 0.5


@dataclass
class StatGroup:
    """One group of sufficient statistics.

    ``delta_s`` may be a scalar or a per-entry array (entries computed from
    disjoint data subsets may have entry-specific sensitivities and share
    the group's full epsilon under parallel composition).  ``defined``
    masks entries that do not exist for this dataset (e.g. the mean of an
    empty cell); undefined entries are neither sanitized nor charged.

    ``delta_s=None`` declares a raw value that the posterior reads
    unsanitized: it gets no noise, no bounds and no budget, and the release
    flags it.
    """

    label: str
    value: np.ndarray
    delta_s: np.ndarray | float | None
    lower: np.ndarray | float | None = None
    upper: np.ndarray | float | None = None
    defined: np.ndarray | None = None


@dataclass
class SyntheticRelease:
    sets: list[TabularDataset]
    flags: list[str] = field(default_factory=list)
    sanitized_stats: list[list[SanitizedStatistic]] = field(default_factory=list)


class ModipsModel(Protocol):
    """A stateless model plugin.  `modips_release` calls
    ``sufficient_statistics`` once per release and ``posterior_draw`` once
    per release with every set's ``stats`` (by group label) and stream,
    in set order; it returns one parameter draw per set, each of which
    ``predictive_draw`` turns into a set.  The draws also get the public
    facts: the row count n and the declared ``columns``, from which a
    model reads its bounds and level counts.  ``stats`` holds the
    sanitized groups and, as they are, the groups declared with
    ``delta_s=None``.  Set j's parameters depend on ``stats_sets[j]``
    and the streams, never on another set's statistics, and its flags
    come in set order.  Where set j draws on ``rngs[j]`` alone (every
    plugin but the logistic one, whose MH serves all m sets from one
    stream), a call over m sets equals m one-set calls.  A predictive
    draw returns a set over exactly those columns.  The draws change
    neither the model nor the ``stats`` arrays."""

    def sufficient_statistics(self, data: TabularDataset) -> list[StatGroup]: ...

    def posterior_draw(self, rngs: list[RngStream],
                       stats_sets: list[dict[str, np.ndarray]], n: int,
                       flags: list[str]) -> list: ...

    def predictive_draw(self, rng: RngStream, params, columns: list,
                        n: int) -> TabularDataset: ...


# -- Multinomial-Dirichlet family -------------------------------------------

def _md_alpha(n: int, eps: float, context: str) -> float:
    """Prior pseudo-count n / (e^eps - 1), guarded against over/underflow.
    An eps too small for a finite count is refused by a message that
    begins with ``context``, the method and the eps it was given."""
    if eps < 1e-300:
        raise ValueError(f"{context} is too small, its pseudo-count "
                         "overflows a float")
    if eps > 700:
        # e^eps overflows; alpha ~ n e^-eps underflows to a harmless floor
        return max(n * math.exp(-min(eps, 745.0)), 1e-300)
    return max(n / math.expm1(eps), 1e-300)


def md_synthesizer(rng: RngStream, counts, eps: float, m: int = 1, *,
                   ledger: PrivacyLedger) -> list[np.ndarray]:
    """Multinomial-Dirichlet synthesizer over K categories.

    Per set: pi* ~ Dirichlet(alpha* + counts) with every alpha* equal to
    n / (e^(eps/m) - 1), then synthetic counts ~ Multinomial(n, pi*).
    Returns m arrays of n shuffled cell codes in [0, K).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n <= 0:
        raise ValueError("counts must sum to a positive total")
    if not (eps > 0) or m < 1:
        raise ValueError("need eps > 0 and m >= 1")
    alpha = _md_alpha(n, eps / m,
                      f"md: eps = {float(eps)!r} over m = {m} sets")
    sets = []
    for j in range(m):
        sub = rng.substream(j)
        pi = sample_dirichlet(sub, alpha + counts)
        sets.append(sample_cells(sub, n, pi))
        ledger.charge(f"md-set-{j}", Fraction(eps) / m)
    return sets


def bbmr_synthesizer(rng: RngStream, n1: int, n: int, eps: float,
                     ledger: PrivacyLedger) -> np.ndarray:
    """Beta-Binomial synthesizer with a fixed DP proportion: a single set
    drawn Binomial(n, p*) with p* = (n1 + a)/(n + 2a), a = 1/(e^(eps/n)-1).
    Returns the set's n shuffled 0/1 codes.
    """
    if not (0 <= n1 <= n):
        raise ValueError(f"need 0 <= n1 <= n, got n1={n1}, n={n}")
    if not (eps > 0):
        raise ValueError("eps must be positive")
    alpha = _md_alpha(1, eps / n,  # 1/(e^(eps/n) - 1)
                      f"bbmr: eps = {float(eps)!r} over n = {n} rows")
    p_star = (n1 + alpha) / (n + 2 * alpha)
    ones = int(rng.generator.binomial(n, p_star))
    data = np.zeros(n, dtype=np.int64)
    data[:ones] = 1
    rng.generator.shuffle(data)
    ledger.charge("bbmr", eps)
    return data


# -- MODIPS engine ----------------------------------------------------------

def modips_release(rng: RngStream, data: TabularDataset, model: ModipsModel,
                   eps: float, m: int = 1, *,
                   ledger: PrivacyLedger,
                   sanitize: bool = True,
                   postprocess: str = "BIT",
                   method: str = "modips") -> SyntheticRelease:
    """Release m synthetic sets.  The model's sufficient statistics are
    computed once.  Per set, in set order, eps/m is split equally across
    the sanitized groups and ``mechanisms.laplace_mechanism`` sanitizes
    each group with its share.  One posterior call then draws
    every set's parameters given its statistics, and per set a synthetic
    set of the source's n rows over its declared columns is drawn from
    the predictive.  Set j sanitizes on ``rng.substream(j).substream(i)``,
    draws its parameters on ``.substream(10_000)`` and its rows on
    ``.substream(20_000)``.  The draws take n and the columns as public
    facts from this call.  The ledger entry of each sanitized group, its
    ``SanitizedStatistic`` record and a refusal of its share of eps all
    name it ``<method>-set<j>-<group label>``.

    A group declared with ``delta_s=None`` reaches the posterior raw,
    uncharged, and noted in the release's flags as ``unsanitized:<label>``;
    the equal split and the sanitizer's substreams count only the other
    groups.  ``sanitize=False`` passes every group raw and charges
    nothing, yielding the non-private multiple-synthesis baseline.
    """
    if not (eps > 0) or m < 1:
        raise ValueError("need eps > 0 and m >= 1")
    n = data.n
    groups = model.sufficient_statistics(data)
    flags = [f"unsanitized:{g.label}" for g in groups if g.delta_s is None]
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in groups}
    noisy = [g for g in groups if g.delta_s is not None] if sanitize else []
    share = Fraction(eps) / (m * len(noisy)) if noisy else None
    subs = [rng.substream(j) for j in range(m)]
    stats_sets = []
    records_all = []
    for j, sub in enumerate(subs):
        stats = dict(raw)
        records = []
        for i, group in enumerate(noisy):
            label = f"{method}-set{j}-{group.label}"
            record = laplace_mechanism(
                sub.substream(i), group.value,
                SensitivitySpec(group.delta_s), float(share),
                label, lower=group.lower, upper=group.upper,
                defined=group.defined, postprocess=postprocess)
            records.append(record)
            stats[group.label] = record.sanitized
            ledger.charge(label, share)
        stats_sets.append(stats)
        records_all.append(records)
    params = model.posterior_draw([sub.substream(10_000) for sub in subs],
                                  stats_sets, n, flags)
    sets = [model.predictive_draw(sub.substream(20_000), p, data.columns, n)
            for sub, p in zip(subs, params, strict=True)]
    return SyntheticRelease(sets, flags, records_all)


# -- model plugins ----------------------------------------------------------

class BernoulliModel:
    """One binary column; sufficient statistic n1 with sensitivity 1,
    posterior Beta(a + n1, a + n - n1) with the neutral prior
    a = ``BERNOULLI_PRIOR``."""

    def sufficient_statistics(self, data):
        (col,) = data.columns
        return [StatGroup("n1", np.array([float(data.column(col.name).sum())]),
                          1.0, 0.0, float(data.n))]

    def posterior_draw(self, rngs, stats_sets, n, flags):
        draws = []
        for rng, stats in zip(rngs, stats_sets, strict=True):
            n1 = float(stats["n1"][0])
            draws.append(sample_beta(rng, BERNOULLI_PRIOR + n1,
                                     BERNOULLI_PRIOR + n - n1))
        return draws

    def predictive_draw(self, rng, p, columns, n):
        (col,) = columns
        return TabularDataset(columns,
                              {col.name: sample_bernoulli(rng, p, size=n)})


class NormalModel:
    """One continuous column on its declared [lo, hi]; statistics (mean,
    variance) with the usual normal-inverse-gamma posterior under the
    prior 1/sigma^2.

    ``mode`` selects individual sanitization (one Laplace draw per
    statistic, separate budget shares) or conjoint sanitization (one group
    whose sensitivity is the sum of the two)."""

    def __init__(self, mode: str = "individual"):
        if mode not in ("individual", "conjoint"):
            raise ValueError(f"unknown sanitization mode {mode!r}")
        self.mode = mode

    def sufficient_statistics(self, data):
        (col,) = data.columns
        x = data.column(col.name)
        n = len(x)
        if n < 2:
            raise ValueError(f"the normal model needs n >= 2 rows, got {n}")
        r = col.hi - col.lo
        # n r^2 bounds every statistic, sum and sensitivity below
        if math.isinf(r * r * n):
            raise ValueError(f"column {col.name!r} spans {r:g}, too wide: "
                             "its variance bound overflows a float")
        var_upper = r ** 2 / 4 * n / (n - 1)
        xbar = float(x.mean())
        s2 = float(x.var(ddof=1))
        if self.mode == "conjoint":
            return [StatGroup(
                "mean_var", np.array([xbar, s2]), (r + r ** 2) / n,
                np.array([col.lo, 0.0]), np.array([col.hi, var_upper]))]
        return [
            StatGroup("mean", np.array([xbar]), r / n, col.lo, col.hi),
            StatGroup("var", np.array([s2]), r ** 2 / n, 0.0, var_upper),
        ]

    def _unpack(self, stats):
        if self.mode == "conjoint":
            return float(stats["mean_var"][0]), float(stats["mean_var"][1])
        return float(stats["mean"][0]), float(stats["var"][0])

    def posterior_draw(self, rngs, stats_sets, n, flags):
        draws = []
        for rng, stats in zip(rngs, stats_sets, strict=True):
            xbar, s2 = self._unpack(stats)
            if s2 <= 0:
                flags.append("PosteriorDegenerate:var")
                s2 = TINY_VARIANCE
            sigma2 = float(sample_inv_gamma(rng, (n - 1) / 2,
                                            (n - 1) * s2 / 2))
            mu = float(sample_normal(rng, xbar, math.sqrt(sigma2 / n)))
            draws.append((mu, sigma2))
        return draws

    def predictive_draw(self, rng, params, columns, n):
        (col,) = columns
        mu, sigma2 = params
        draws = sample_normal(rng, mu, math.sqrt(sigma2), size=n)
        return TabularDataset(columns,
                              {col.name: np.clip(draws, col.lo, col.hi)})


def _sanitized_cov2(var1, var2, cov, flags) -> np.ndarray:
    """The 2x2 covariance from sanitized variances and covariance: a
    non-positive variance is floored (flagging the release) and the
    covariance is clamped to 0.999 of the bound the variances allow."""
    v1, v2, cv = float(var1[0]), float(var2[0]), float(cov[0])
    if v1 <= 0 or v2 <= 0:
        flags.append("PosteriorDegenerate:var")
        v1, v2 = max(v1, TINY_VARIANCE), max(v2, TINY_VARIANCE)
    bound = 0.999 * math.sqrt(v1 * v2)
    if abs(cv) > bound:
        cv = math.copysign(bound, cv)
    return np.array([[v1, cv], [cv, v2]])


def cell_means(cells: np.ndarray, z: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row count of each of k cells, the (k, d) column means of z
    over each cell's rows (0 for an empty cell), and each row of z less
    its cell's means."""
    counts = np.bincount(cells, minlength=k)
    sums = np.column_stack([np.bincount(cells, col, minlength=k)
                            for col in z.T])
    means = sums / np.maximum(counts, 1)[:, None]
    return counts, means, z - np.take(means, cells, axis=0)


def _split_columns(columns):
    """The categorical columns, and the two continuous ones (z1, z2)."""
    cats = [c for c in columns if isinstance(c, CategoricalColumn)]
    z1, z2 = (c for c in columns if isinstance(c, ContinuousColumn))
    return cats, z1, z2


class GaussianMixtureModel:
    """Mixture of bivariate normals over the cells of the cross-tabulation
    of the categorical columns; shared covariance across cells.  The two
    continuous columns are the measurements; ``cell_lower`` and
    ``cell_upper`` (K x 2, flat cell order) bound them within each cell.

    Statistics form six sanitized groups: cell counts, the two vectors of
    per-cell means, the two variances, and the covariance, all from
    ``bincount`` sums over the rows.  Per-cell mean sensitivities use the
    realized cell counts, which the posterior also reads raw (the
    unsanitized group ``raw_counts``) to scale each cell mean's
    covariance.  Per set the posterior draws the cell probabilities, then
    Sigma, factors Sigma once, and draws every occupied cell's mean
    mu_k ~ N(zbar*_k, Sigma / c_k) from one (k_occ, 2) standard-normal
    call; the empty cells are skipped in the statistics, and their
    locations are one uniform call over their declared bounds.  The cell
    probabilities take a Dirichlet prior of ``MIXTURE_PRIOR_ALPHA`` per
    cell."""

    def __init__(self, cell_lower: np.ndarray, cell_upper: np.ndarray):
        self.cell_lower = np.asarray(cell_lower, dtype=float)  # (K, 2)
        self.cell_upper = np.asarray(cell_upper, dtype=float)
        self.k = len(self.cell_lower)

    def sufficient_statistics(self, data):
        n, k = data.n, self.k
        if n < k + 2:  # Sigma's inverse-Wishart draw has n - k > 1 dof
            raise ValueError(f"the mixture model needs at least {k + 2} "
                             f"rows, 2 more than its {k} cells, got n = {n}")
        cats, z1, z2 = _split_columns(data.columns)
        shape = [len(c.levels) for c in cats]
        if math.prod(shape) != k:
            raise ValueError(f"the declared levels make {math.prod(shape)} "
                             f"cells, the cell bounds {k}")
        cells = np.ravel_multi_index([data.column(c.name) for c in cats],
                                     shape)
        z = np.column_stack([data.column(z1.name), data.column(z2.name)])
        counts, zbar, dev = cell_means(cells, z, k)
        counts = counts.astype(float)
        ranges = self.cell_upper - self.cell_lower  # (K, 2)
        occupied = counts > 0
        # pooled within-cell covariance, MLE scale (divided by n)
        s_mat = dev.T @ dev / n
        mean_delta = np.where(occupied[:, None], ranges / np.maximum(counts, 1)[:, None], 1.0)
        s_factor = (n - 1) / (n * (n - k))
        r1 = float(ranges[:, 0].max())
        r2 = float(ranges[:, 1].max())
        var_upper1 = r1 ** 2 / 4 * n / (n - 1)
        var_upper2 = r2 ** 2 / 4 * n / (n - 1)
        cov_bound = r1 * r2 / 4
        return [
            StatGroup("counts", counts, 1.0, 0.0, float(n)),
            StatGroup("zbar1", zbar[:, 0], mean_delta[:, 0],
                      self.cell_lower[:, 0], self.cell_upper[:, 0],
                      defined=occupied),
            StatGroup("zbar2", zbar[:, 1], mean_delta[:, 1],
                      self.cell_lower[:, 1], self.cell_upper[:, 1],
                      defined=occupied),
            StatGroup("var1", np.array([s_mat[0, 0]]), r1 ** 2 * s_factor,
                      0.0, var_upper1),
            StatGroup("var2", np.array([s_mat[1, 1]]), r2 ** 2 * s_factor,
                      0.0, var_upper2),
            StatGroup("cov", np.array([s_mat[0, 1]]), r1 * r2 * s_factor,
                      -cov_bound, cov_bound),
            StatGroup("raw_counts", counts, None),
        ]

    def posterior_draw(self, rngs, stats_sets, n, flags):
        k = self.k
        draws = []
        for rng, stats in zip(rngs, stats_sets, strict=True):
            pi = sample_dirichlet(rng, MIXTURE_PRIOR_ALPHA + stats["counts"])
            s_star = _sanitized_cov2(stats["var1"], stats["var2"],
                                     stats["cov"], flags)
            sigma = sample_inv_wishart(rng, n - k, n * s_star)
            # one factor F F' = Sigma serves every cell (the eigh factor
            # that numpy's multivariate normal uses)
            eigvals, eigvecs = np.linalg.eigh(sigma)
            factor = eigvecs * np.sqrt(np.abs(eigvals))
            raw_counts = stats["raw_counts"]
            occupied = raw_counts > 0
            gen = rng.generator
            zbar = np.column_stack([stats["zbar1"], stats["zbar2"]])
            mus = np.empty((k, 2))
            noise = gen.standard_normal((int(occupied.sum()), 2))
            mus[occupied] = zbar[occupied] + (
                noise / np.sqrt(raw_counts[occupied])[:, None]) @ factor.T
            # no data in a cell: prior predictive over its bounds
            mus[~occupied] = gen.uniform(self.cell_lower[~occupied],
                                         self.cell_upper[~occupied])
            draws.append((pi, mus, sigma))
        return draws

    def predictive_draw(self, rng, params, columns, n):
        pi, mus, sigma = params
        cats, z1, z2 = _split_columns(columns)
        cells = sample_cells(rng, n, pi)
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(2))
        z = mus[cells] + rng.generator.standard_normal((n, 2)) @ chol.T
        z = np.clip(z, self.cell_lower[cells], self.cell_upper[cells])
        multi = np.unravel_index(cells, [len(c.levels) for c in cats])
        data = {c.name: codes.astype(np.int64)
                for c, codes in zip(cats, multi)}
        data[z1.name] = np.clip(z[:, 0], z1.lo, z1.hi)
        data[z2.name] = np.clip(z[:, 1], z2.lo, z2.hi)
        return TabularDataset(columns, data)


PROPORTION_CLAMP = (1e-12, 0.99)
PRODUCT_FLOOR = 1e-300
# the logistic coefficients' prior: independent N(0, 10^2), the intercept
# scale of Gelman, Jakulin, Pittau and Su (2008)
COEF_PRIOR_SD = 10.0
# the degrees of freedom of the MH's multivariate t proposals, and the
# factor that widens their scale past the tempered posterior's normal
# approximation, whose spread is too narrow at weights far below 1
PROPOSAL_DF = 7
PROPOSAL_WIDEN = 1.5
# the MH's proposals before the spacing of its first kept draw, its
# proposals per kept draw, and the most draws it keeps: a release of more
# rows tiles them
MH_BURN_IN = 30
MH_PROPOSALS_PER_DRAW = 3
MH_MAX_DRAWS = 1000
# the float64 entries of one batched likelihood pass's buffer (128 KiB)
LIKELIHOOD_BUFFER = 2 ** 14


class SequentialLogisticModel:
    """Bivariate normal covariates (the two continuous columns, on their
    declared bounds) plus three sequentially generated categorical
    outcomes: binary w1 and w2 (logits) and three-level w3 (a
    baseline-category logit).

    Eight statistic groups are sanitized per release: the two covariate
    means, the three covariance entries, and the three likelihood products
    (each a product of n per-row probability factors clamped into
    (1e-12, 0.99), so bounded by 0.99^n with that same value as its
    sensitivity).  The sanitized products scale the log-likelihood used by
    the Metropolis-Hastings posterior sampler for the coefficients.  That
    likelihood reads the rows raw, as the unsanitized groups ``x3`` (the
    third regression's design), ``w1``, ``w2`` and ``w3``, and so do the
    tempering exponents (``log_raw``, the three raw log-products).

    Every coefficient has an independent N(0, ``COEF_PRIOR_SD``^2) prior,
    a public constant.  The clamp bounds the likelihood, so with this
    prior the tempered posterior is proper at every weight, also at the
    weights of 0.01-0.07 that half of a release's noisy products give.
    The sampler is an independence MH (Tierney 1994).  Each regression of
    each set proposes from a multivariate t with ``PROPOSAL_DF`` degrees
    of freedom, centred at the tempered posterior's mode: two Newton
    steps from its Firth estimate, fitted once per release on the rows
    and read raw as ``firth``.  Its scale is ``PROPOSAL_WIDEN``^2 (w I +
    prior precision)^-1, for I the Firth fit's information and w the
    set's weight.  At weights far below 1 the posterior is wider than
    that normal approximation (2.4-4 times its variance on seeded
    sets), hence the widening.  The normal prior and the bounded
    likelihood give the target lighter tails than the proposal, so the
    chain is uniformly ergodic (Mengersen and Tweedie 1996).  It makes a
    burn-in of ``MH_BURN_IN`` proposals and then
    ``MH_PROPOSALS_PER_DRAW`` per kept draw: 630 per regression for the
    n = 200 draws of a release, whose likelihoods come from one batched
    call.
    """

    def sufficient_statistics(self, data):
        n = data.n
        _, z1, z2 = _split_columns(data.columns)
        z = np.column_stack([data.column(z1.name), data.column(z2.name)])
        w1 = data.column("w1").astype(float)
        w2 = data.column("w2").astype(float)
        w3 = data.column("w3").astype(np.int64)
        zbar = z.mean(axis=0)
        dev = z - zbar
        s_mat = dev.T @ dev / n
        x3 = np.column_stack([np.ones(n), z, w1, w2])
        # the regressions' Firth fits, and the raw log-products at them
        from .inference import _checked_firth_fit
        fits = (_checked_firth_fit(x3[:, :3], w1, 1),
                _checked_firth_fit(x3[:, :4], w2, 1),
                _checked_firth_fit(x3, w3, 2))
        loglik = self._lockstep_loglik(x3, w1, w2, w3, [[1.0, 1.0, 1.0]])
        log_raw = loglik(np.concatenate([theta for theta, _ in fits]))
        r1 = z1.hi - z1.lo
        r2 = z2.hi - z2.lo
        prod_bound = n * math.log(PROPORTION_CLAMP[1])  # log(0.99^n)
        delta_prod = math.exp(prod_bound)
        groups = [
            StatGroup("zbar1", np.array([zbar[0]]), r1 / n, z1.lo, z1.hi),
            StatGroup("zbar2", np.array([zbar[1]]), r2 / n, z2.lo, z2.hi),
            StatGroup("s11", np.array([s_mat[0, 0]]), r1 ** 2 / n,
                      0.0, r1 ** 2 / 4),
            StatGroup("s22", np.array([s_mat[1, 1]]), r2 ** 2 / n,
                      0.0, r2 ** 2 / 4),
            StatGroup("s12", np.array([s_mat[0, 1]]), r1 * r2 / n,
                      -r1 * r2 / 4, r1 * r2 / 4),
        ]
        for idx, log_prod in enumerate(log_raw):
            groups.append(StatGroup(
                f"likprod{idx + 1}", np.array([math.exp(log_prod)]),
                delta_prod, PRODUCT_FLOOR, math.exp(prod_bound)))
        return groups + [
            StatGroup("x3", x3, None), StatGroup("w1", w1, None),
            StatGroup("w2", w2, None), StatGroup("w3", w3, None),
            StatGroup("log_raw", log_raw, None),
            # per regression its estimate, then its inverse information
            StatGroup("firth", np.concatenate(
                [np.r_[theta, cov.ravel()] for theta, cov in fits]), None),
        ]

    @staticmethod
    def _temper_weight(stats, idx):
        """log(sanitized product)/log(raw product), with log_raw < 0 since
        each row's factor is at most 0.99: a likelihood tempering exponent.
        A product equal to the raw one had no noise added and gets exactly
        1, also where the raw product lies below ``PRODUCT_FLOOR``."""
        log_raw = stats["log_raw"][idx]
        sanitized = float(stats[f"likprod{idx + 1}"][0])
        if sanitized == math.exp(log_raw):
            return 1.0
        return math.log(max(sanitized, PRODUCT_FLOOR)) / log_raw

    @staticmethod
    def _independence_mh(rng, logtarget, dims, n_draws, centres, factors):
        """Independence Metropolis-Hastings (Tierney 1994) over K targets
        at once.  The targets' coefficients lie end to end in one vector,
        and ``logtarget(coef) -> (rows, K)`` gives every target's log
        density, up to a constant, for each row of a (rows, sum(dims))
        block in that layout.  Returns one (n_draws, dims[k]) array per
        target.  The logistic posterior runs the three regressions of
        every set of a release as its targets.

        Target k proposes ``centres[k] + factors[k] @ z / sqrt(g)``, with
        z standard normal in dims[k] dimensions and g a chi-square over
        ``PROPOSAL_DF`` degrees of freedom divided by them: a multivariate
        t whose scale matrix is factors[k] factors[k]'.  The chain starts
        at its first proposal.  After a burn-in of ``MH_BURN_IN``
        proposals it keeps its state after every
        ``MH_PROPOSALS_PER_DRAW``-th, min(n_draws, ``MH_MAX_DRAWS``)
        states; past the cap they are tiled.

        Substreams 0, 1 and 2 of ``rng`` make one call each, a block with
        a row per proposal: the normals, every target's dims[k] end to
        end; the gamma variates of the chi-squares, one per target; the
        accept uniforms, one per target.  Target k reads its slice of
        each, so its draws depend on its log density, centre, factor,
        place in the layout and the stream, never on another target's.
        Each block of a shorter run is a prefix of a longer run's, and so
        are its draws.  The proposals' log weights, target over proposal
        density, come from one ``logtarget`` call; only the accept scan
        over them runs step by step."""
        needed = min(n_draws, MH_MAX_DRAWS)
        if needed <= 0:
            return [np.empty((0, d)) for d in dims]
        steps = MH_BURN_IN + MH_PROPOSALS_PER_DRAW * needed
        nu = PROPOSAL_DF
        proposals = rng.substream(0).generator.standard_normal(
            (steps, sum(dims)))
        g = rng.substream(1).generator.standard_gamma(nu / 2,
                                                      (steps, len(dims)))
        g *= 2 / nu
        log_u = rng.substream(2).generator.random((steps, len(dims)))
        np.log1p(np.negative(log_u, out=log_u), out=log_u)
        log_q = np.empty((steps, len(dims)))
        at = 0
        for k, (d, centre, factor) in enumerate(zip(dims, centres, factors)):
            # the normals become the proposals in place
            z = proposals[:, at:at + d]
            # the t density up to its constant, from ||L^-1 (x - centre)||^2
            log_q[:, k] = -0.5 * (nu + d) * np.log1p(
                np.einsum("ij,ij->i", z, z) / (g[:, k] * nu))
            np.matmul(z / np.sqrt(g[:, k])[:, None], factor.T, out=z)
            z += centre
            at += d
        # freed before the likelihood pass, where a release's memory peaks
        del g
        log_w = logtarget(proposals)
        log_w -= log_q
        # proposal i is accepted from a state of log weight c < threshold i
        thresholds = np.subtract(log_w, log_u, out=log_u)
        kept = np.empty((needed, len(dims)), dtype=np.intp)
        first = MH_BURN_IN + MH_PROPOSALS_PER_DRAW - 1
        for k in range(len(dims)):
            current, state, states = -math.inf, 0, []
            for i, weight, threshold in zip(range(steps),
                                            log_w[:, k].tolist(),
                                            thresholds[:, k].tolist()):
                if current < threshold:
                    current, state = weight, i
                states.append(state)
            kept[:, k] = states[first::MH_PROPOSALS_PER_DRAW]
        reps = -(-n_draws // needed)
        ends = np.cumsum(dims)
        return [np.tile(proposals[kept[:, k], end - d:end],
                        (reps, 1))[:n_draws]
                for k, (d, end) in enumerate(zip(dims, ends))]

    @staticmethod
    def _signed_design(x3, w1, w2, w3):
        """The design of every row's d: four (17, n) blocks, the w1 rows,
        the w2 rows, then the first and second d of the w3 rows, with
        d = coef @ block for one set's 17 coefficients (see
        ``_lockstep_loglik``)."""
        n = len(w1)
        y3 = np.asarray(w3, dtype=np.int64)
        # loading of each trinomial category's predictor on (beta3, beta4)
        load = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        others = np.array([[1, 2], [0, 2], [0, 1]])[y3]
        blocks = np.zeros((4, 17, n))
        blocks[0, :3] = ((1 - 2 * w1)[:, None] * x3[:, :3]).T
        blocks[1, 3:7] = ((1 - 2 * w2)[:, None] * x3[:, :4]).T
        for t in (0, 1):
            c = load[others[:, t]] - load[y3]
            blocks[2 + t, 7:12] = (c[:, :1] * x3).T
            blocks[2 + t, 12:] = (c[:, 1:] * x3).T
        return blocks

    @staticmethod
    def _lockstep_loglik(x3, w1, w2, w3, weights):
        """The three regressions' tempered log-likelihoods for m sets in
        one pass: with ``weights`` of shape (m, 3), ``loglik(coef) ->
        [ll1, ll2, ll34] * m`` for ``coef`` the m sets' (beta1, beta2,
        beta34) end to end, 17 entries per set, set j's k-th equal to
        ``weights[j, k]`` times the sum over the rows of each row's log
        probability of its observed category, clamped into
        [log(1e-12), log(0.99)].  The sets share the rows and differ in
        their coefficients and weights.  A (rows, 17m) block of
        coefficient vectors gives a (rows, 3m) block, row by row.  With
        one set and unit weights it gives the raw log-products of
        ``sufficient_statistics``.  Each call returns a new array.

        A row's log factor is -log1p(sum_j exp(d_j)), where d_j is the
        linear predictor of an unobserved category j minus that of the
        observed one (category 0's is 0): one d for each binary row, two
        for each trinomial row.  x1 and x2 are the first 3 and 4 columns
        of x3, so one signed design of 4n rows gives every d from the
        stacked coefficients.  A d above -log(1e-12) saturates the clamp
        however large it is, so capping d just above that keeps exp
        finite and leaves every clamped factor unchanged.

        The design is kept block-major (``_signed_design``).  For c
        coefficient vectors one stacked (cm, 17) @ (4, 17, n) product
        fills a contiguous (4, cm, n) buffer, so the w3 add, the log1p,
        the clamp and the sums over the rows each run on contiguous
        memory.  A block of vectors is taken c at a time, with c as large
        as keeps the buffer within ``LIKELIHOOD_BUFFER`` entries."""
        n = len(w1)
        blocks = SequentialLogisticModel._signed_design(x3, w1, w2, w3)
        # -log factor is clamped into [-log(0.99), -log(1e-12)]
        floor = -math.log(PROPORTION_CLAMP[1])
        ceiling = -math.log(PROPORTION_CLAMP[0])
        cap = ceiling + 1.0
        neg_weights = -np.asarray(weights, dtype=float)
        m = len(neg_weights)
        chunk = max(1, LIKELIHOOD_BUFFER // (4 * m * n))

        def loglik(coef):
            coef = np.asarray(coef, dtype=float)
            vectors = coef.reshape(-1, 17 * m)
            buffer = np.empty(4 * min(chunk, len(vectors)) * m * n)
            out = np.empty((len(vectors), m, 3))
            for lo in range(0, len(vectors), chunk):
                part = vectors[lo:lo + chunk]
                # per block and vector's set, the d of every row; after
                # exp the w3 rows' second d is added into their first
                diff = buffer[:4 * len(part) * m * n].reshape(4, -1, n)
                per_row = diff[:3]
                np.matmul(part.reshape(-1, 17), blocks, out=diff)
                np.minimum(diff, cap, out=diff)
                np.exp(diff, out=diff)
                np.add(diff[2], diff[3], out=diff[2])
                np.log1p(per_row, out=per_row)
                np.maximum(per_row, floor, out=per_row)
                np.minimum(per_row, ceiling, out=per_row)
                sums = np.add.reduce(per_row, axis=2)
                out[lo:lo + chunk] = neg_weights * sums.T.reshape(-1, m, 3)
            return out.reshape(coef.shape[:-1] + (3 * m,))
        return loglik

    @staticmethod
    def _lockstep_score(x3, w1, w2, w3, coef):
        """The gradient of the unit-weight clamped log-likelihood of
        ``_lockstep_loglik`` for each row of a (rows, 17) block of one
        set's coefficients: a row's clamped log factor adds nothing."""
        blocks = SequentialLogisticModel._signed_design(x3, w1, w2, w3)
        diff = np.exp(np.minimum(
            np.matmul(coef, blocks), 1.0 - math.log(PROPORTION_CLAMP[0])))
        # the sum of exp(d) over each row's unobserved categories
        total = np.stack([diff[0], diff[1], diff[2] + diff[3],
                          diff[2] + diff[3]])
        neg_log = np.log1p(total)
        inside = ((neg_log > -math.log(PROPORTION_CLAMP[1]))
                  & (neg_log < -math.log(PROPORTION_CLAMP[0])))
        share = np.where(inside, diff / (1.0 + total), 0.0)
        return -np.einsum("brn,bkn->rk", share, blocks)

    def posterior_draw(self, rngs, stats_sets, n, flags):
        """Per set, the covariate mean and covariance on its stream and
        its three tempering weights; then one independence MH over the
        three regressions of every set, with a likelihood that reads the
        rows all sets share.  The rows' three Firth fits, made once per
        release, give every target its proposal: for weight w, the
        information I of the fit and the prior precision P, the scale is
        ``PROPOSAL_WIDEN``^2 (w I + P)^-1 and the centre is two Newton
        steps with w I + P from the Firth estimate on w times the clamped
        log-likelihood plus the log prior.  The MH draws on
        ``rngs[0].substream(4)``, set j's regressions reading entries 17j
        to 17j + 16 of each proposal's normals and 3j to 3j + 2 of its
        gamma variates and uniforms.  So set j's coefficients depend on
        its own statistics, j, m and the release's streams: with the same
        m, another set's statistics do not move them."""
        covariates, weights = [], []
        for rng, stats in zip(rngs, stats_sets, strict=True):
            s_star = _sanitized_cov2(stats["s11"], stats["s22"],
                                     stats["s12"], flags)
            sigma = sample_inv_wishart(rng, n, n * s_star)
            mu = sample_mvnormal(rng, np.array([float(stats["zbar1"][0]),
                                                float(stats["zbar2"][0])]),
                                 sigma / n)
            covariates.append((mu, sigma))
            weights.append([self._temper_weight(stats, idx)
                            for idx in range(3)])
        labels = ("x3", "w1", "w2", "w3", "firth")
        shared = [stats_sets[0][label] for label in labels]
        if not all(np.array_equal(stats[label], value)
                   for stats in stats_sets[1:]
                   for label, value in zip(labels, shared)):
            raise ValueError("the sets of one release must share their "
                             "unsanitized rows")
        *rows, firth = shared
        dims = (3, 4, 10)
        spans = [slice(end - d, end) for d, end in zip(dims, np.cumsum(dims))]
        estimate, infos, offset = [], [], 0
        for d in dims:
            estimate.append(firth[offset:offset + d])
            cov = firth[offset + d:offset + d + d * d].reshape(d, d)
            infos.append(np.linalg.inv(cov))
            offset += d + d * d
        m = len(rngs)
        w = np.asarray(weights)
        # per regression, the (m, d, d) precisions of the m sets' targets
        precisions = [w[:, r, None, None] * info
                      + np.eye(len(info)) / COEF_PRIOR_SD ** 2
                      for r, info in enumerate(infos)]
        centres = np.tile(np.concatenate(estimate), (m, 1))
        for _ in range(2):
            score = self._lockstep_score(*rows, centres)
            for r, span in enumerate(spans):
                ascent = (w[:, r, None] * score[:, span]
                          - centres[:, span] / COEF_PRIOR_SD ** 2)
                centres[:, span] += np.linalg.solve(
                    precisions[r], ascent[:, :, None])[:, :, 0]
        factors = [np.linalg.cholesky(np.linalg.inv(p)) * PROPOSAL_WIDEN
                   for p in precisions]
        loglik = self._lockstep_loglik(*rows, weights)

        def logtarget(coef):
            values = loglik(coef)
            per_set = coef.reshape(len(coef), m, 17)
            for r, span in enumerate(spans):
                part = per_set[:, :, span]
                values[:, r::3] -= np.einsum("ijk,ijk->ij", part, part) / (
                    2 * COEF_PRIOR_SD ** 2)
            return values
        draws = self._independence_mh(
            rngs[0].substream(4), logtarget, dims * m, n,
            [centres[j, span] for j in range(m) for span in spans],
            [factors[r][j] for j in range(m) for r in range(3)])
        return [(mu, sigma, beta1, beta2, beta34[:, :5], beta34[:, 5:])
                for (mu, sigma), beta1, beta2, beta34
                in zip(covariates, draws[0::3], draws[1::3], draws[2::3])]

    def predictive_draw(self, rng, params, columns, n):
        mu, sigma, beta1, beta2, beta3, beta4 = params
        _, z1, z2 = _split_columns(columns)
        gen = rng.generator
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(2))
        z = mu + gen.standard_normal((n, 2)) @ chol.T
        z[:, 0] = np.clip(z[:, 0], z1.lo, z1.hi)
        z[:, 1] = np.clip(z[:, 1], z2.lo, z2.hi)
        x1 = np.column_stack([np.ones(n), z])
        p1 = np.exp(-np.logaddexp(0.0, -np.einsum("ij,ij->i", x1, beta1)))
        w1 = (gen.random(n) < p1).astype(np.int64)
        x2 = np.column_stack([x1, w1])
        p2 = np.exp(-np.logaddexp(0.0, -np.einsum("ij,ij->i", x2, beta2)))
        w2 = (gen.random(n) < p2).astype(np.int64)
        x3 = np.column_stack([x1, w1, w2])
        eta3 = np.einsum("ij,ij->i", x3, beta3)
        eta4 = np.einsum("ij,ij->i", x3, beta4)
        lse = np.logaddexp(0.0, np.logaddexp(eta3, eta4))
        u = gen.random(n)
        w3 = np.where(u < np.exp(-lse), 0,
                      np.where(u < np.exp(np.logaddexp(0.0, eta3) - lse),
                               1, 2)).astype(np.int64)
        return TabularDataset(columns, {"w1": w1, "w2": w2, "w3": w3,
                                        z1.name: z[:, 0], z2.name: z[:, 1]})
