"""Parametric synthesis: the Multinomial-Dirichlet family (MD, BB-MR) and
the model-based engine that sanitizes Bayesian sufficient statistics, draws
parameters from the posterior given the sanitized statistics, and simulates
synthetic rows from the predictive.

Every release of m sets spends exactly the total budget on the ledger:
each set costs eps/m, split across statistic groups by the allocation
weights; entries within a group that come from disjoint data subsets share
one charge (parallel composition).
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
    sample_dirichlet,
    sample_inv_gamma,
    sample_inv_wishart,
    sample_multinomial,
    sample_mvnormal,
    sample_normal,
)

__all__ = [
    "PosteriorDegenerate",
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


class PosteriorDegenerate(RuntimeError):
    """Sanitized statistics left a posterior improper; a fallback was used."""


@dataclass
class StatGroup:
    """One sanitizable group of sufficient statistics.

    ``delta_s`` may be a scalar or a per-entry array (entries computed from
    disjoint data subsets may have entry-specific sensitivities and share
    the group's full epsilon under parallel composition).  ``defined``
    masks entries that do not exist for this dataset (e.g. the mean of an
    empty cell); undefined entries are neither sanitized nor charged.
    """

    label: str
    value: np.ndarray
    delta_s: np.ndarray | float
    lower: np.ndarray | float
    upper: np.ndarray | float
    defined: np.ndarray | None = None


@dataclass
class SyntheticRelease:
    method: str
    sets: list[TabularDataset]
    eps_total: float
    per_set_eps: float
    seed: tuple
    flags: list[str] = field(default_factory=list)
    sanitized_stats: list[list[SanitizedStatistic]] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.sets)


class ModipsModel(Protocol):
    """A model plugin.  `modips_release` calls ``sufficient_statistics``
    once per release; the draws may read what it stored but change
    neither that nor the ``stats`` arrays they are given."""

    def sufficient_statistics(self, data: TabularDataset) -> list[StatGroup]: ...

    def posterior_draw(self, rng: RngStream, stats: dict[str, np.ndarray],
                       flags: list[str]): ...

    def predictive_draw(self, rng: RngStream, params,
                        n: int) -> TabularDataset: ...


# -- Multinomial-Dirichlet family -------------------------------------------

def _md_alpha(n: int, eps: float) -> float:
    """Prior pseudo-count n / (e^eps - 1), guarded against over/underflow."""
    if eps < 1e-300:
        raise ValueError("eps underflow in pseudo-count")
    if eps > 700:
        # e^eps overflows; alpha ~ n e^-eps underflows to a harmless floor
        return max(n * math.exp(-min(eps, 745.0)), 1e-300)
    return max(n / math.expm1(eps), 1e-300)


def _cells_to_dataset(counts: np.ndarray, k: int, rng: RngStream) -> TabularDataset:
    cells = np.repeat(np.arange(k), counts)
    rng.generator.shuffle(cells)
    col = CategoricalColumn("cell", tuple(range(k)))
    return TabularDataset([col], {"cell": cells.astype(np.int64)})


def md_synthesizer(rng: RngStream, counts, eps: float, m: int = 1,
                   ledger: PrivacyLedger | None = None) -> SyntheticRelease:
    """Multinomial-Dirichlet synthesizer over K categories.

    Per set: pi* ~ Dirichlet(alpha* + counts) with every alpha* equal to
    n / (e^(eps/m) - 1), then synthetic counts ~ Multinomial(n, pi*).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = int(counts.sum())
    if n <= 0:
        raise ValueError("counts must sum to a positive total")
    if not (eps > 0) or m < 1:
        raise ValueError("need eps > 0 and m >= 1")
    eps_set = eps / m
    alpha = _md_alpha(n, eps_set)
    k = len(counts)
    sets = []
    for j in range(m):
        sub = rng.substream(j)
        pi = sample_dirichlet(sub, alpha + counts)
        synth_counts = sample_multinomial(sub, n, pi)
        sets.append(_cells_to_dataset(synth_counts, k, sub))
        if ledger is not None:
            ledger.charge(f"md-set-{j}", Fraction(eps) / m)
    return SyntheticRelease("md", sets, eps, eps_set, (rng.seed, rng.stream))


def bbmr_synthesizer(rng: RngStream, n1: int, n: int, eps: float,
                     ledger: PrivacyLedger | None = None) -> SyntheticRelease:
    """Beta-Binomial synthesizer with a fixed DP proportion: a single set
    drawn Binomial(n, p*) with p* = (n1 + a)/(n + 2a), a = 1/(e^(eps/n)-1).
    """
    if not (0 <= n1 <= n):
        raise ValueError(f"need 0 <= n1 <= n, got n1={n1}, n={n}")
    if not (eps > 0):
        raise ValueError("eps must be positive")
    alpha = _md_alpha(1, eps / n)  # 1/(e^(eps/n) - 1)
    p_star = (n1 + alpha) / (n + 2 * alpha)
    ones = int(rng.generator.binomial(n, p_star))
    data = np.zeros(n, dtype=np.int64)
    data[:ones] = 1
    rng.generator.shuffle(data)
    col = CategoricalColumn("x", (0, 1))
    dataset = TabularDataset([col], {"x": data})
    if ledger is not None:
        ledger.charge("bbmr", eps)
    return SyntheticRelease("bbmr", [dataset], eps, eps,
                            (rng.seed, rng.stream))


# -- MODIPS engine ----------------------------------------------------------

def modips_release(rng: RngStream, data: TabularDataset, model: ModipsModel,
                   eps: float, m: int = 1,
                   allocation: list[float] | None = None,
                   ledger: PrivacyLedger | None = None,
                   sanitize: bool = True,
                   postprocess: str = "BIT",
                   method: str = "modips") -> SyntheticRelease:
    """Release m synthetic sets.  The model's sufficient statistics are
    computed once.  Per set, eps/m is split across the groups by
    ``allocation`` and ``mechanisms.laplace_mechanism`` sanitizes each
    group with its share; parameters are drawn from the posterior given
    the sanitized statistics, and a synthetic set of the source's n rows
    is drawn from the predictive.

    ``sanitize=False`` skips the noise step (and all ledger charges),
    yielding the non-private multiple-synthesis baseline.
    """
    if not (eps > 0) or m < 1:
        raise ValueError("need eps > 0 and m >= 1")
    n = data.n
    groups = model.sufficient_statistics(data)
    weights = allocation if allocation is not None else [1.0] * len(groups)
    if len(weights) != len(groups):
        raise ValueError("allocation must cover every statistic group")
    total_w = sum(Fraction(w) for w in weights)
    shares = [Fraction(eps) * Fraction(w) / (m * total_w) for w in weights]
    flags: list[str] = []
    sets = []
    records_all = []
    for j in range(m):
        sub = rng.substream(j)
        stats = {}
        records = []
        for i, (group, share_frac) in enumerate(zip(groups, shares)):
            if sanitize:
                record = laplace_mechanism(
                    sub.substream(i), group.value,
                    SensitivitySpec(group.delta_s), float(share_frac),
                    group.label, lower=group.lower, upper=group.upper,
                    defined=group.defined, postprocess=postprocess)
                records.append(record)
                sanitized = record.sanitized
                if ledger is not None:
                    ledger.charge(f"{method}-set{j}-{group.label}", share_frac)
            else:
                sanitized = np.atleast_1d(np.asarray(group.value, dtype=float))
            stats[group.label] = sanitized
        params = model.posterior_draw(sub.substream(10_000), stats, flags)
        sets.append(model.predictive_draw(sub.substream(20_000), params, n))
        records_all.append(records)
    return SyntheticRelease(method, sets, eps, eps / m,
                            (rng.seed, rng.stream), flags, records_all)


# -- model plugins ----------------------------------------------------------

class BernoulliModel:
    """Binary data; sufficient statistic n1 with sensitivity 1, posterior
    Beta(a + n1, b + n - n1) with the neutral prior a = b = 1/3."""

    def __init__(self, prior_a: float = 1 / 3, prior_b: float = 1 / 3):
        self.prior_a = prior_a
        self.prior_b = prior_b
        self._n = None

    def sufficient_statistics(self, data):
        x = data.column("x")
        self._n = len(x)
        return [StatGroup("n1", np.array([float(x.sum())]), 1.0,
                          0.0, float(self._n))]

    def posterior_draw(self, rng, stats, flags):
        n1 = float(stats["n1"][0])
        return sample_beta(rng, self.prior_a + n1,
                           self.prior_b + self._n - n1)

    def predictive_draw(self, rng, p, n):
        col = CategoricalColumn("x", (0, 1))
        return TabularDataset([col], {"x": sample_bernoulli(rng, p, size=n)})


class NormalModel:
    """Bounded continuous data on [c0, c1]; statistics (mean, variance) with
    the usual normal-inverse-gamma posterior under the prior 1/sigma^2.

    ``mode`` selects individual sanitization (one Laplace draw per
    statistic, separate budget shares) or conjoint sanitization (one group
    whose sensitivity is the sum of the two)."""

    def __init__(self, c0: float, c1: float, mode: str = "individual"):
        if not (c0 < c1):
            raise ValueError("need c0 < c1")
        if mode not in ("individual", "conjoint"):
            raise ValueError(f"unknown sanitization mode {mode!r}")
        self.c0 = c0
        self.c1 = c1
        self.mode = mode
        self._n = None

    def _var_upper(self, n: int) -> float:
        r = self.c1 - self.c0
        return r ** 2 / 4 * n / (n - 1)

    def sufficient_statistics(self, data):
        x = data.column("x")
        n = self._n = len(x)
        if n < 2:
            raise ValueError(f"the normal model needs n >= 2 rows, got {n}")
        r = self.c1 - self.c0
        xbar = float(x.mean())
        s2 = float(x.var(ddof=1))
        if self.mode == "conjoint":
            return [StatGroup(
                "mean_var", np.array([xbar, s2]), (r + r ** 2) / n,
                np.array([self.c0, 0.0]),
                np.array([self.c1, self._var_upper(n)]))]
        return [
            StatGroup("mean", np.array([xbar]), r / n, self.c0, self.c1),
            StatGroup("var", np.array([s2]), r ** 2 / n, 0.0,
                      self._var_upper(n)),
        ]

    def _unpack(self, stats):
        if self.mode == "conjoint":
            return float(stats["mean_var"][0]), float(stats["mean_var"][1])
        return float(stats["mean"][0]), float(stats["var"][0])

    def posterior_draw(self, rng, stats, flags):
        n = self._n
        xbar, s2 = self._unpack(stats)
        if s2 <= 0:
            flags.append("PosteriorDegenerate:var")
            s2 = TINY_VARIANCE
        sigma2 = float(sample_inv_gamma(rng, (n - 1) / 2, (n - 1) * s2 / 2))
        mu = float(sample_normal(rng, xbar, math.sqrt(sigma2 / n)))
        return mu, sigma2

    def predictive_draw(self, rng, params, n):
        mu, sigma2 = params
        draws = sample_normal(rng, mu, math.sqrt(sigma2), size=n)
        draws = np.clip(draws, self.c0, self.c1)
        col = ContinuousColumn("x", self.c0, self.c1)
        return TabularDataset([col], {"x": draws})


class GaussianMixtureModel:
    """Mixture of bivariate normals over the cells of a categorical
    cross-tabulation; shared covariance across cells.

    Statistics form six groups: cell counts, the two vectors of per-cell
    means, the two variances, and the covariance.  Per-cell mean
    sensitivities use the realized cell counts; empty cells are skipped and
    their location parameter falls back to a uniform draw over the cell's
    declared bounds."""

    def __init__(self, level_counts: tuple[int, ...],
                 cell_lower: np.ndarray, cell_upper: np.ndarray,
                 z_bounds: tuple[tuple[float, float], tuple[float, float]],
                 prior_alpha: float = 0.5):
        self.level_counts = tuple(level_counts)
        self.k = int(np.prod(level_counts))
        self.cell_lower = np.asarray(cell_lower, dtype=float)  # (K, 2)
        self.cell_upper = np.asarray(cell_upper, dtype=float)
        self.z_bounds = z_bounds
        self.prior_alpha = prior_alpha
        self._n = None
        self._cell_counts = None

    def _cells(self, data):
        codes = [data.column(f"w{i + 1}") for i in range(len(self.level_counts))]
        return np.ravel_multi_index(codes, self.level_counts)

    def sufficient_statistics(self, data):
        n = self._n = data.n
        k = self.k
        cells = self._cells(data)
        counts = np.bincount(cells, minlength=k).astype(float)
        self._cell_counts = counts
        z = np.column_stack([data.column("z1"), data.column("z2")])
        ranges = self.cell_upper - self.cell_lower  # (K, 2)
        zbar = np.zeros((k, 2))
        occupied = counts > 0
        for kk in np.flatnonzero(occupied):
            zbar[kk] = z[cells == kk].mean(axis=0)
        # pooled within-cell covariance, MLE scale (divided by n)
        scatter = np.zeros((2, 2))
        for kk in np.flatnonzero(counts > 0):
            dev = z[cells == kk] - zbar[kk]
            scatter += dev.T @ dev
        s_mat = scatter / n
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
        ]

    def posterior_draw(self, rng, stats, flags):
        n, k = self._n, self.k
        counts_star = stats["counts"]
        pi = sample_dirichlet(rng, self.prior_alpha + counts_star)
        v1 = float(stats["var1"][0])
        v2 = float(stats["var2"][0])
        cv = float(stats["cov"][0])
        if v1 <= 0 or v2 <= 0:
            flags.append("PosteriorDegenerate:var")
            v1, v2 = max(v1, TINY_VARIANCE), max(v2, TINY_VARIANCE)
        bound = 0.999 * math.sqrt(v1 * v2)
        if abs(cv) > bound:
            cv = math.copysign(bound, cv)
        s_star = np.array([[v1, cv], [cv, v2]])
        sigma = sample_inv_wishart(rng, n - k, n * s_star)
        mus = np.zeros((k, 2))
        occupied = self._cell_counts > 0
        for kk in range(k):
            if occupied[kk]:
                mus[kk] = sample_mvnormal(
                    rng, np.array([stats["zbar1"][kk], stats["zbar2"][kk]]),
                    sigma / self._cell_counts[kk])
            else:
                # no data in the cell: prior predictive over its bounds
                mus[kk] = rng.generator.uniform(self.cell_lower[kk],
                                                self.cell_upper[kk])
        return pi, mus, sigma

    def predictive_draw(self, rng, params, n):
        pi, mus, sigma = params
        counts = sample_multinomial(rng, n, pi)
        cells = np.repeat(np.arange(self.k), counts)
        rng.generator.shuffle(cells)
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(2))
        z = mus[cells] + rng.generator.standard_normal((n, 2)) @ chol.T
        z = np.clip(z, self.cell_lower[cells], self.cell_upper[cells])
        multi = np.unravel_index(cells, self.level_counts)
        cols = [CategoricalColumn(f"w{i + 1}", tuple(range(lc)))
                for i, lc in enumerate(self.level_counts)]
        cols += [ContinuousColumn("z1", *self.z_bounds[0]),
                 ContinuousColumn("z2", *self.z_bounds[1])]
        data = {f"w{i + 1}": codes.astype(np.int64)
                for i, codes in enumerate(multi)}
        data["z1"] = np.clip(z[:, 0], *self.z_bounds[0])
        data["z2"] = np.clip(z[:, 1], *self.z_bounds[1])
        return TabularDataset(cols, data)


PROPORTION_CLAMP = (1e-12, 0.99)
PRODUCT_FLOOR = 1e-300


class SequentialLogisticModel:
    """Bivariate normal covariates plus three sequentially generated
    categorical outcomes (two binary logits and one three-level
    baseline-category logit).

    Eight statistic groups are sanitized per release: the two covariate
    means, the three covariance entries, and the three likelihood products
    (each a product of n per-row probability factors clamped into
    (1e-12, 0.99), so bounded by 0.99^n with that same value as its
    sensitivity).  The sanitized products scale the log-likelihood used by
    the Metropolis-Hastings posterior sampler for the coefficients.
    """

    def __init__(self, z_bounds: tuple[tuple[float, float], tuple[float, float]],
                 mh_chains: int = 2, mh_iters: int = 6500,
                 mh_burnin: int = 1500, mh_thin: int = 10):
        self.z_bounds = z_bounds
        self.mh_chains = mh_chains
        self.mh_iters = mh_iters
        self.mh_burnin = mh_burnin
        self.mh_thin = mh_thin
        self._cache = None

    # likelihood plumbing ---------------------------------------------------

    @staticmethod
    def _log_factors_binary(design, response, beta):
        eta = design @ beta
        logp = response * eta - np.logaddexp(0.0, eta)
        return logp

    @staticmethod
    def _log_factors_trinomial(design, response, beta3, beta4):
        eta3 = design @ beta3
        eta4 = design @ beta4
        lse = np.logaddexp(0.0, np.logaddexp(eta3, eta4))
        logp = np.where(response == 0, -lse,
                        np.where(response == 1, eta3 - lse, eta4 - lse))
        return logp

    @classmethod
    def _clamped_loglik(cls, logp):
        lo, hi = PROPORTION_CLAMP
        return float(np.clip(logp, math.log(lo), math.log(hi)).sum())

    def sufficient_statistics(self, data):
        n = data.n
        z = np.column_stack([data.column("z1"), data.column("z2")])
        w1 = data.column("w1").astype(float)
        w2 = data.column("w2").astype(float)
        w3 = data.column("w3").astype(np.int64)
        zbar = z.mean(axis=0)
        dev = z - zbar
        s_mat = dev.T @ dev / n
        x1 = np.column_stack([np.ones(n), z])
        x2 = np.column_stack([np.ones(n), z, w1])
        x3 = np.column_stack([np.ones(n), z, w1, w2])
        # reference coefficients for evaluating the likelihood products
        from .inference import firth_logistic, fit_multinomial_logit
        b1 = np.array([e.estimate for e in firth_logistic(x1, w1)])
        b2 = np.array([e.estimate for e in firth_logistic(x2, w2)])
        blocks = fit_multinomial_logit(x3, w3)
        b3 = np.array([e.estimate for e in blocks[0]])
        b4 = np.array([e.estimate for e in blocks[1]])
        log_prod1 = self._clamped_loglik(self._log_factors_binary(x1, w1, b1))
        log_prod2 = self._clamped_loglik(self._log_factors_binary(x2, w2, b2))
        log_prod3 = self._clamped_loglik(
            self._log_factors_trinomial(x3, w3, b3, b4))
        self._cache = {
            "n": n, "x3": x3,
            "w1": w1, "w2": w2, "w3": w3,
            "log_raw": (log_prod1, log_prod2, log_prod3),
            "ref_beta": (b1, b2, b3, b4),
        }
        r1 = self.z_bounds[0][1] - self.z_bounds[0][0]
        r2 = self.z_bounds[1][1] - self.z_bounds[1][0]
        prod_bound = n * math.log(PROPORTION_CLAMP[1])  # log(0.99^n)
        delta_prod = math.exp(prod_bound)
        groups = [
            StatGroup("zbar1", np.array([zbar[0]]), r1 / n,
                      *self.z_bounds[0]),
            StatGroup("zbar2", np.array([zbar[1]]), r2 / n,
                      *self.z_bounds[1]),
            StatGroup("s11", np.array([s_mat[0, 0]]), r1 ** 2 / n,
                      0.0, r1 ** 2 / 4),
            StatGroup("s22", np.array([s_mat[1, 1]]), r2 ** 2 / n,
                      0.0, r2 ** 2 / 4),
            StatGroup("s12", np.array([s_mat[0, 1]]), r1 * r2 / n,
                      -r1 * r2 / 4, r1 * r2 / 4),
        ]
        for idx, log_prod in enumerate((log_prod1, log_prod2, log_prod3)):
            groups.append(StatGroup(
                f"likprod{idx + 1}", np.array([math.exp(log_prod)]),
                delta_prod, PRODUCT_FLOOR, math.exp(prod_bound)))
        return groups

    def _temper_weight(self, stats, idx):
        """log(sanitized product)/log(raw product): a likelihood tempering
        exponent that equals 1 when no noise was added."""
        log_raw = self._cache["log_raw"][idx]
        sanitized = float(stats[f"likprod{idx + 1}"][0])
        log_star = math.log(max(sanitized, PRODUCT_FLOOR))
        if log_raw >= 0:  # degenerate: empty product
            return 1.0
        return log_star / log_raw

    def _mh_sample(self, rng, loglik, dim, n_draws):
        """Adaptive random-walk Metropolis for one target: `_mh_lockstep`
        with K = 1 and a scalar ``loglik(beta)``."""
        return self._mh_lockstep([rng], lambda betas: [loglik(betas[0])],
                                 [dim], n_draws)[0]

    def _mh_lockstep(self, rngs, loglik, dims, n_draws):
        """Adaptive random-walk Metropolis over K targets advanced in
        lockstep: each step makes one ``loglik(betas) -> K values`` call
        with every target's proposal.  Returns one (n_draws, dims[k])
        array per target.

        Target k runs chain c on ``rngs[k].substream(c)``, with its own
        proposal scale, tuned during burn-in toward 0.2-0.5 acceptance and
        frozen afterwards.  Each step draws every target's proposal and
        then every target's accept uniform, so each generator sees the
        same normal, uniform sequence as a run of that target alone and
        returns the same draws.  Each chain keeps every `mh_thin`-th state
        after burn-in, at most `per_chain` of them, and chains are
        concatenated in order.  Only the iterations whose draws are
        returned are run: a chain stops at its last used draw and a chain
        with none is skipped.  The result equals the first `n_draws` rows
        of the full run (tiled when `n_draws` exceeds the draws of all
        chains)."""
        burnin, thin = self.mh_burnin, self.mh_thin
        per_chain = (self.mh_iters - burnin) // thin
        needed = min(n_draws, per_chain * self.mh_chains)
        targets = range(len(dims))
        draws = [[] for _ in targets]
        for chain in range(self.mh_chains):
            want = min(per_chain, needed - len(draws[0]))
            if want <= 0:
                break
            gens = [r.substream(chain).generator for r in rngs]
            betas = [np.zeros(d) for d in dims]
            current = list(loglik(betas))
            scales = [0.2] * len(dims)
            accepted = [0] * len(dims)
            window = 0
            for it in range(burnin + (want - 1) * thin + 1):
                proposals = [beta + gen.normal(0.0, scale, size=d)
                             for beta, gen, scale, d
                             in zip(betas, gens, scales, dims)]
                cands = loglik(proposals)
                for k in targets:
                    if (math.log(gens[k].random() + 1e-300)
                            < cands[k] - current[k]):
                        betas[k], current[k] = proposals[k], cands[k]
                        accepted[k] += 1
                window += 1
                if it < burnin and window == 100:
                    for k in targets:
                        rate = accepted[k] / window
                        if rate < 0.2:
                            scales[k] *= 0.7
                        elif rate > 0.5:
                            scales[k] *= 1.4
                        accepted[k] = 0
                    window = 0
                if it >= burnin and (it - burnin) % thin == 0:
                    # proposals are fresh arrays, so states need no copy
                    for k in targets:
                        draws[k].append(betas[k])
        out = []
        for kept, d in zip(draws, dims):
            if not kept:
                out.append(np.empty((0, d)))
                continue
            kept = np.array(kept)
            reps = int(np.ceil(n_draws / len(kept)))
            out.append(np.tile(kept, (reps, 1))[:n_draws])
        return out

    @staticmethod
    def _lockstep_loglik(x3, w1, w2, w3, weights):
        """The three regressions' tempered log-likelihoods in one pass:
        ``loglik([beta1, beta2, beta34]) -> [ll1, ll2, ll34]``, each equal
        to ``weights[k] * _clamped_loglik(_log_factors_*)`` up to rounding.

        A row's log factor is -log1p(sum_j exp(d_j)), where d_j is the
        linear predictor of an unobserved category j minus that of the
        observed one (category 0's is 0): one d for each binary row, two
        for each trinomial row.  x1 and x2 are the first 3 and 4 columns
        of x3, so one signed design of 4n rows gives every d from the
        stacked coefficients.  A d above -log(1e-12) saturates the clamp
        however large it is, so capping d just above that keeps exp
        finite and leaves every clamped factor unchanged."""
        n = len(w1)
        y3 = np.asarray(w3, dtype=np.int64)
        # loading of each trinomial category's predictor on (beta3, beta4)
        load = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        others = np.array([[1, 2], [0, 2], [0, 1]])[y3]
        design = np.zeros((4 * n, 17))
        design[:n, :3] = (1 - 2 * w1)[:, None] * x3[:, :3]
        design[n:2 * n, 3:7] = (1 - 2 * w2)[:, None] * x3[:, :4]
        for t in (0, 1):
            c = load[others[:, t]] - load[y3]
            rows = slice((2 + t) * n, (3 + t) * n)
            design[rows, 7:12] = c[:, :1] * x3
            design[rows, 12:] = c[:, 1:] * x3
        # -log factor is clamped into [-log(0.99), -log(1e-12)]
        floor = -math.log(PROPORTION_CLAMP[1])
        ceiling = -math.log(PROPORTION_CLAMP[0])
        cap = ceiling + 1.0
        neg_weights = -np.asarray(weights, dtype=float)
        # d of the w1 rows, the w2 rows, then the first and second d of the
        # w3 rows; after exp the second is added into the first
        diff = np.empty(4 * n)
        w3_first, w3_second = diff[2 * n:3 * n], diff[3 * n:]
        per_row = diff[:3 * n]

        def loglik(betas):
            np.matmul(design, np.concatenate(betas), out=diff)
            np.minimum(diff, cap, out=diff)
            np.exp(diff, out=diff)
            np.add(w3_first, w3_second, out=w3_first)
            neg_logp = np.log1p(per_row)
            np.maximum(neg_logp, floor, out=neg_logp)
            np.minimum(neg_logp, ceiling, out=neg_logp)
            return (neg_weights * neg_logp.reshape(3, n).sum(axis=1)).tolist()
        return loglik

    def posterior_draw(self, rng, stats, flags):
        cache = self._cache
        n = cache["n"]
        v1 = float(stats["s11"][0])
        v2 = float(stats["s22"][0])
        cv = float(stats["s12"][0])
        if v1 <= 0 or v2 <= 0:
            flags.append("PosteriorDegenerate:var")
            v1, v2 = max(v1, TINY_VARIANCE), max(v2, TINY_VARIANCE)
        bound = 0.999 * math.sqrt(v1 * v2)
        if abs(cv) > bound:
            cv = math.copysign(bound, cv)
        s_star = np.array([[v1, cv], [cv, v2]])
        sigma = sample_inv_wishart(rng, n, n * s_star)
        mu = sample_mvnormal(rng, np.array([float(stats["zbar1"][0]),
                                            float(stats["zbar2"][0])]),
                             sigma / n)
        weights = [self._temper_weight(stats, idx) for idx in range(3)]
        loglik = self._lockstep_loglik(cache["x3"], cache["w1"], cache["w2"],
                                       cache["w3"], weights)
        beta1, beta2, beta34 = self._mh_lockstep(
            [rng.substream(k) for k in (1, 2, 3)], loglik, (3, 4, 10), n)
        return mu, sigma, beta1, beta2, beta34[:, :5], beta34[:, 5:]

    def predictive_draw(self, rng, params, n):
        mu, sigma, beta1, beta2, beta3, beta4 = params
        gen = rng.generator
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(2))
        z = mu + gen.standard_normal((n, 2)) @ chol.T
        z[:, 0] = np.clip(z[:, 0], *self.z_bounds[0])
        z[:, 1] = np.clip(z[:, 1], *self.z_bounds[1])
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
        cols = [
            CategoricalColumn("w1", (0, 1)),
            CategoricalColumn("w2", (0, 1)),
            CategoricalColumn("w3", (0, 1, 2)),
            ContinuousColumn("z1", *self.z_bounds[0]),
            ContinuousColumn("z2", *self.z_bounds[1]),
        ]
        return TabularDataset(cols, {"w1": w1, "w2": w2, "w3": w3,
                                     "z1": z[:, 0], "z2": z[:, 1]})
