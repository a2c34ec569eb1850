"""Distribution checks for the two private sim3 releases.

np-dips and modips-mixture each release many sets from one fixed truth
dataset, and the released rows are compared with a reference that draws
the stated design with numpy alone.  Every set draws on its own
substream, so given the data the sets are independent and identically
distributed.  Rows within a set share its sanitized statistics, so only
one row per (set, cell) enters a test: the first row of the set (its
cell, for a chi-square test over the 24 cells) and the first row in each
cell (its z1 and z2, for a two-sample Kolmogorov-Smirnov test per cell).

The stated designs, and where each part comes from:

- np-dips (``harness._sim3_np_set``) spends eps/m per set, half on the
  w cross-tabulation and half on the per-cell z histograms.  The counts
  get Laplace noise of scale 1/(eps/2m) and BIT at 0; the set's cells are
  drawn from the sanitized proportions.  Each cell's grid is Scott's rule
  over the cell's declared bounds, from the standard deviation (ddof 1)
  of its original rows on each axis, with a ceil bin count; fewer than
  two rows or no spread give one bin.  The histogram gets the same
  Laplace noise and BIT at 0.  A row picks a bin in proportion to the
  sanitized counts and is uniform within it.  A cell with fewer than two
  original rows, or whose sanitized histogram has no mass, is uniform
  over its bounds.
- modips-mixture (``GaussianMixtureModel``) splits eps/m evenly over six
  groups: the counts (sensitivity 1, BIT into [0, n]), the two vectors of
  occupied cells' means (range over count, BIT into the cell bounds), the
  two pooled variances and the covariance.  The posterior draws
  pi ~ Dirichlet(0.5 + c*), Sigma ~ Inv-Wishart(n - K, n S*) and, for each
  cell with rows, mu_k ~ N(zbar*_k, Sigma / c_k) with the raw count c_k;
  an empty cell's mu_k is uniform over its bounds.  A row takes a cell
  from pi and z = mu_k + N(0, Sigma), clipped to the cell's bounds.
"""

import math

import numpy as np
from scipy import stats

from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import (
    SIM3_LEVELS,
    STUDIES,
    sim3_cell_bounds,
    simulate_truth_sim3,
)
from dips.randvar import RngStream

N = 1000
M = 5
EPS = math.exp(2)
RELEASES = 200  # 1,000 sets per method
REF_SETS = 8000
K = int(np.prod(SIM3_LEVELS))
# each check runs 49 tests (48 KS, one chi-square): a deterministic run
# with no fault fails one of them with probability about 0.5%
P_FLOOR = 1e-4


def _truth():
    data = simulate_truth_sim3(RngStream(17), N)
    cells = np.ravel_multi_index(
        [data.column("w1"), data.column("w2"), data.column("w3")],
        SIM3_LEVELS)
    z = np.column_stack([data.column("z1"), data.column("z2")])
    return data, cells, z


def _released_rows(method):
    """The first row's cell of each set, and per cell the (z1, z2) of the
    first row in that cell of each set that has one."""
    data, _, _ = _truth()
    release = STUDIES["sim3"].methods[method]
    first = []
    per_cell = [[] for _ in range(K)]
    for r in range(RELEASES):
        for s in release(RngStream(29).substream(r), data, EPS, M,
                         PrivacyLedger(PrivacyBudget(EPS)), "BIT"):
            cells = np.ravel_multi_index(
                [s.column("w1"), s.column("w2"), s.column("w3")],
                SIM3_LEVELS)
            z = np.column_stack([s.column("z1"), s.column("z2")])
            first.append(cells[0])
            present, index = np.unique(cells, return_index=True)
            for k, i in zip(present, index):
                per_cell[k].append(z[i])
    return np.array(first), [np.array(rows) for rows in per_cell]


def _scott_bins(rows, lo, hi):
    """Bins per axis of one cell's grid under the stated rule."""
    if len(rows) < 2:
        return np.ones(2, dtype=np.int64)
    sd = rows.std(axis=0, ddof=1)
    width = 3.5 * np.where(sd > 0, sd, 1.0) * len(rows) ** (-1 / 3)
    bins = np.maximum(1, np.ceil((hi - lo) / width)).astype(np.int64)
    return np.where(sd > 0, bins, 1)


def _np_dips_reference(gen):
    """The first row's cell of each of REF_SETS sets, and per cell one
    drawn (z1, z2) per set, under the stated np-dips design."""
    _, cells, z = _truth()
    lower, upper = sim3_cell_bounds()
    scale = 1 / (EPS / M / 2)
    counts = np.bincount(cells, minlength=K)
    noisy = np.maximum(counts + gen.laplace(0, scale, (REF_SETS, K)), 0)
    probs = noisy / noisy.sum(axis=1, keepdims=True)
    first = np.minimum(
        (gen.random((REF_SETS, 1)) > probs.cumsum(axis=1)).sum(axis=1),
        K - 1)
    per_cell = []
    for k in range(K):
        lo, hi = lower[k], upper[k]
        rows = np.clip(z[cells == k], lo, hi)
        bins = _scott_bins(rows, lo, hi)
        width = (hi - lo) / bins
        codes = np.minimum(((rows - lo) / width).astype(np.int64), bins - 1)
        hist = np.bincount(codes[:, 0] * bins[1] + codes[:, 1],
                           minlength=bins.prod())
        noisy = np.maximum(
            hist + gen.laplace(0, scale, (REF_SETS, bins.prod())), 0)
        mass = noisy.sum(axis=1, keepdims=True)
        uniform = (mass[:, 0] <= 0) | (len(rows) < 2)
        weights = np.where(uniform[:, None], 1.0, noisy)
        cdf = weights.cumsum(axis=1) / weights.sum(axis=1, keepdims=True)
        pick = (gen.random((REF_SETS, 1)) > cdf).sum(axis=1)
        pick = np.minimum(pick, bins.prod() - 1)
        code = np.column_stack([pick // bins[1], pick % bins[1]])
        per_cell.append(lo + (code + gen.random((REF_SETS, 2))) * width)
    return first, per_cell


def _inv_wishart_2x2(gen, dof, scale):
    """Inv-Wishart(dof, scale) for a stack of 2x2 scales: the inverse of
    W = L A A' L' with L L' = scale^-1 and A the Bartlett factor."""
    s = len(scale)
    a = np.zeros((s, 2, 2))
    a[:, 0, 0] = np.sqrt(gen.chisquare(dof, s))
    a[:, 1, 1] = np.sqrt(gen.chisquare(dof - 1, s))
    a[:, 1, 0] = gen.standard_normal(s)
    la = np.linalg.cholesky(np.linalg.inv(scale)) @ a
    return np.linalg.inv(la @ la.transpose(0, 2, 1))


def _mixture_reference(gen):
    """The same samples as ``_np_dips_reference`` under the stated
    modips-mixture design."""
    _, cells, z = _truth()
    lower, upper = sim3_cell_bounds()
    ranges = upper - lower
    counts = np.bincount(cells, minlength=K).astype(float)
    occupied = counts > 0
    zbar = np.zeros((K, 2))
    for k in np.flatnonzero(occupied):
        zbar[k] = z[cells == k].mean(axis=0)
    dev = z - zbar[cells]
    s_mat = dev.T @ dev / N
    e6 = EPS / M / 6
    r1, r2 = ranges.max(axis=0)
    s_factor = (N - 1) / (N * (N - K))

    def lap(value, delta, lo, hi):
        shape = (REF_SETS,) + np.shape(value)
        return np.clip(value + gen.laplace(0, 1, shape) * delta / e6,
                       lo, hi)

    c_star = lap(counts, 1.0, 0, N)
    zbar_star = np.stack([
        np.where(occupied,
                 lap(zbar[:, j], ranges[:, j] / np.maximum(counts, 1),
                     lower[:, j], upper[:, j]),
                 0.0) for j in (0, 1)], axis=-1)
    v1 = lap(s_mat[0, 0], r1 ** 2 * s_factor, 0, r1 ** 2 / 4 * N / (N - 1))
    v2 = lap(s_mat[1, 1], r2 ** 2 * s_factor, 0, r2 ** 2 / 4 * N / (N - 1))
    cv = lap(s_mat[0, 1], r1 * r2 * s_factor, -r1 * r2 / 4, r1 * r2 / 4)
    v1, v2 = np.maximum(v1, 1e-12), np.maximum(v2, 1e-12)
    bound = 0.999 * np.sqrt(v1 * v2)
    cv = np.clip(cv, -bound, bound)
    s_star = np.stack([np.stack([v1, cv], -1), np.stack([cv, v2], -1)], -2)
    pi = gen.gamma(0.5 + c_star)
    pi /= pi.sum(axis=1, keepdims=True)
    first = np.minimum(
        (gen.random((REF_SETS, 1)) > pi.cumsum(axis=1)).sum(axis=1), K - 1)
    sigma = _inv_wishart_2x2(gen, N - K, N * s_star)
    chol = np.linalg.cholesky(sigma)
    noise = gen.standard_normal((REF_SETS, K, 2))
    mus = zbar_star + np.einsum("sij,skj->ski", chol, noise) / np.sqrt(
        np.maximum(counts, 1))[:, None]
    mus = np.where(occupied[:, None], mus,
                   gen.uniform(lower, upper, (REF_SETS, K, 2)))
    rows = mus + np.einsum("sij,skj->ski", chol,
                           gen.standard_normal((REF_SETS, K, 2)))
    rows = np.clip(rows, lower, upper)
    return first, [rows[:, k] for k in range(K)]


def _failures(method, reference):
    first, per_cell = _released_rows(method)
    ref_first, ref_cells = reference(np.random.default_rng([31, len(method)]))
    tests = {"cells": stats.chi2_contingency(np.stack([
        np.bincount(first, minlength=K),
        np.bincount(ref_first, minlength=K)]))[1]}
    for k in range(K):
        for axis in (0, 1):
            tests[f"cell {k} z{axis + 1}"] = stats.ks_2samp(
                per_cell[k][:, axis], ref_cells[k][:, axis]).pvalue
    assert len(tests) == 49
    return {name: p for name, p in tests.items() if p < P_FLOOR}


def test_np_dips_matches_the_stated_design():
    assert _failures("np-dips", _np_dips_reference) == {}


def test_modips_mixture_matches_the_stated_design():
    assert _failures("modips-mixture", _mixture_reference) == {}
