import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, special, stats

import dips
from dips.randvar import (
    ParameterDomainError,
    RngStream,
    sample_beta,
    sample_dirichlet,
    sample_gamma,
    sample_inv_gamma,
    sample_inv_wishart,
    sample_laplace,
    sample_multinomial,
    sample_mvnormal,
    sample_normal,
    sample_truncated_laplace,
    sample_wishart,
    t_quantile,
)
from dips.randvar import _bartlett_factor

N_DRAWS = 100_000
ALPHA = 0.01


def rng(seed=7):
    return RngStream(seed)


def test_streams_are_reproducible():
    a = RngStream(3).substream(1, 2).generator.random(5)
    b = RngStream(3).substream(1, 2).generator.random(5)
    assert np.array_equal(a, b)


def test_substreams_differ():
    a = RngStream(3).substream(0).generator.random(5)
    b = RngStream(3).substream(1).generator.random(5)
    assert not np.array_equal(a, b)


def test_generator_state_equals_seed_sequence_of_seed_and_path():
    pick = np.random.default_rng(20261019)
    sizes = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5, 2 ** 128, 2 ** 200 + 3]

    def number():
        if pick.random() < 0.5:
            return int(pick.choice(sizes))
        return int(pick.integers(0, 2 ** 63)) >> int(pick.integers(0, 63))
    pairs = [(0, ()), (2 ** 128, ()), (0, (2 ** 32,)), (2 ** 130, (0, 7))]
    pairs += [(number(), tuple(number() for _ in range(pick.integers(6))))
              for _ in range(1200)]
    for seed, path in pairs:
        seq = np.random.SeedSequence(entropy=seed, spawn_key=path)
        assert (RngStream(seed, path).generator.bit_generator.state
                == np.random.PCG64(seq).state), (seed, path)


@pytest.mark.parametrize("seed, path", [(-1, ()), (3, (-1,)), (3, (2, -5))])
def test_generator_refuses_negative_seed_or_key(seed, path):
    with pytest.raises(ValueError):
        RngStream(seed, path).generator


def test_laplace_gof():
    draws = sample_laplace(rng(), 0.0, 2.0, size=N_DRAWS)
    _, p = stats.kstest(draws, stats.laplace(scale=2.0).cdf)
    assert p > ALPHA


@pytest.mark.parametrize("lo, hi", [(-5.0, -1.0),   # left of the location
                                    (1.0, 6.0),     # right of it
                                    (-1.0, 2.0)])   # around it
def test_truncated_laplace_gof(lo, hi):
    loc, scale = 0.5, 1.5
    draws = sample_truncated_laplace(rng(2), np.full(N_DRAWS, loc), scale,
                                     lo, hi)
    dist = stats.laplace(loc, scale)

    def conditional_cdf(x):
        return ((dist.cdf(np.clip(x, lo, hi)) - dist.cdf(lo))
                / (dist.cdf(hi) - dist.cdf(lo)))

    _, p = stats.kstest(draws, conditional_cdf)
    assert p > ALPHA


def test_truncated_laplace_far_window_is_truncated_exponential():
    # 1e20 scales right of the location the law is Exp(1) cut at the width
    draws = sample_truncated_laplace(rng(3), np.full(N_DRAWS, -1e20), 1.0,
                                     0.0, 3.0)
    _, p = stats.kstest(draws, stats.truncexpon(3.0).cdf)
    assert p > ALPHA


def test_truncated_laplace_per_entry_windows():
    lo = np.array([-3.0, 10.0, -1e9, 2.0])
    hi = np.array([-2.0, 11.0, 1e9, 2.0])
    scale = np.array([1.0, 1e-3, 5.0, 1.0])
    draws = sample_truncated_laplace(rng(4), np.zeros(4), scale, lo, hi)
    assert np.all((lo <= draws) & (draws <= hi))
    assert draws[3] == 2.0  # a one-point window returns that point
    with pytest.raises(ParameterDomainError):
        sample_truncated_laplace(rng(), 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ParameterDomainError):
        sample_truncated_laplace(rng(), 0.0, 0.0, -1.0, 1.0)


def test_beta_gof():
    draws = sample_beta(rng(1), 2.0, 5.0, size=N_DRAWS)
    _, p = stats.kstest(draws, stats.beta(2.0, 5.0).cdf)
    assert p > ALPHA


def test_gamma_rate_parameterization():
    draws = sample_gamma(rng(2), 3.0, rate=2.0, size=N_DRAWS)
    _, p = stats.kstest(draws, stats.gamma(3.0, scale=0.5).cdf)
    assert p > ALPHA


def test_inv_gamma_gof_and_mean():
    draws = sample_inv_gamma(rng(3), 3.0, 2.0, size=N_DRAWS)
    _, p = stats.kstest(draws, stats.invgamma(3.0, scale=2.0).cdf)
    assert p > ALPHA
    # closed-form mean b/(a-1) = 1
    assert draws.mean() == pytest.approx(1.0, abs=0.02)


def test_normal_gof():
    draws = sample_normal(rng(4), 1.0, 2.0, size=N_DRAWS)
    _, p = stats.kstest(draws, stats.norm(1.0, 2.0).cdf)
    assert p > ALPHA


def test_dirichlet_moments():
    alpha = np.array([1.0, 2.0, 3.0])
    draws = np.array([sample_dirichlet(rng(5).substream(i), alpha)
                      for i in range(5000)])
    np.testing.assert_allclose(draws.mean(axis=0), alpha / alpha.sum(),
                               atol=0.01)
    np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


def test_multinomial_chisquare():
    p = np.array([0.2, 0.3, 0.5])
    counts = sample_multinomial(rng(6), N_DRAWS, p)
    _, pval = stats.chisquare(counts, p * N_DRAWS)
    assert pval > ALPHA


def test_mvnormal_moments():
    mean = np.array([1.0, -1.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    draws = sample_mvnormal(rng(8), mean, cov, size=N_DRAWS)
    np.testing.assert_allclose(draws.mean(axis=0), mean, atol=0.03)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.05)


def test_mvnormal_rejects_asymmetric_cov():
    with pytest.raises(ParameterDomainError):
        sample_mvnormal(rng(), np.zeros(2),
                        np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_wishart_mean():
    scale = np.array([[2.0, 0.5], [0.5, 1.0]])
    dof = 7
    draws = np.mean([sample_wishart(rng(9).substream(i), dof, scale)
                     for i in range(20000)], axis=0)
    np.testing.assert_allclose(draws, dof * scale, rtol=0.03)


def test_inv_wishart_mean():
    # closed form: scale / (dof - p - 1)
    scale = np.array([[2.0, 0.5], [0.5, 1.0]])
    dof = 10
    draws = np.mean([sample_inv_wishart(rng(10).substream(i), dof, scale)
                     for i in range(20000)], axis=0)
    np.testing.assert_allclose(draws, scale / (dof - 2 - 1), rtol=0.05)


def test_inv_wishart_dof_domain():
    with pytest.raises(ParameterDomainError):
        sample_inv_wishart(rng(), 1.0, np.eye(2))


def _bartlett_factor_by_indices(rng, dof, p):
    """The Bartlett factor with its lower entries placed by index lists."""
    a = np.zeros((p, p))
    gen = rng.generator
    for i in range(p):
        a[i, i] = math.sqrt(gen.chisquare(dof - i))
    rows, cols = np.tril_indices(p, -1)
    a[rows, cols] = gen.standard_normal(len(rows))
    return a


@pytest.mark.parametrize("dof,p", [(1.5, 1), (2.0, 2), (2.3, 2), (7.5, 3),
                                   (4.0, 4), (30.0, 6)])
def test_bartlett_factor_fills_its_mask_in_index_order(dof, p):
    # the masked fill places the normals where np.tril_indices lists them,
    # so the factor and every later draw are bit-equal
    for seed in range(5):
        got, want = rng(seed).substream(p), rng(seed).substream(p)
        assert (_bartlett_factor(got, dof, p).tobytes()
                == _bartlett_factor_by_indices(want, dof, p).tobytes())
        assert got.generator.random() == want.generator.random()


def _inv_wishart_from(rng, dof, l_inv):
    """sample_inv_wishart given L', the inverse of chol(scale)."""
    finv = np.linalg.inv(l_inv.T @ _bartlett_factor(rng, dof, len(l_inv)))
    draw = finv.T @ finv
    return 0.5 * (draw + draw.T)


def test_inv_wishart_closed_form_equals_lapack_solve():
    # the forward substitution by reciprocals gives LAPACK's 2x2 inverse
    # bit for bit on this build (numpy 2.4.6, scipy 1.17.1 with OpenBLAS),
    # which the sim3 and sim4 digests pin; scales span 16 orders of
    # magnitude and every correlation.  One stacked solve_triangular call
    # makes every reference (a scipy call between numpy's is slow).
    gen = np.random.default_rng(12)
    count = 10_000
    a = gen.standard_normal((count, 2, 2))
    scales = ((a @ a.transpose(0, 2, 1) + 1e-3 * np.eye(2))
              * 10.0 ** gen.uniform(-8, 8, (count, 1, 1)))
    dofs = 2.0 + gen.exponential(20.0, count)
    l_invs = linalg.solve_triangular(
        np.linalg.cholesky(scales),
        np.broadcast_to(np.eye(2), (count, 2, 2)), lower=True)
    for i in range(count):
        got = sample_inv_wishart(rng(13).substream(i), dofs[i], scales[i])
        want = _inv_wishart_from(rng(13).substream(i), dofs[i], l_invs[i])
        assert got.tobytes() == want.tobytes(), (scales[i], dofs[i])
    # p = 3 runs the same substitution; it agrees to rounding
    a = gen.standard_normal((3, 3))
    scale = a @ a.T + np.eye(3)
    l_inv = linalg.solve_triangular(np.linalg.cholesky(scale), np.eye(3),
                                    lower=True)
    np.testing.assert_allclose(sample_inv_wishart(rng(14), 6.0, scale),
                               _inv_wishart_from(rng(14), 6.0, l_inv),
                               rtol=1e-10)


RUN_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
import dips, dips.cli, dips.harness
tmp = Path(sys.argv[1])
(tmp / "c.json").write_text(json.dumps(
    {"n": 60, "eps_grid": [1.0], "m": 2, "seed": 4}))
(tmp / "in.csv").write_text("x,y\\n" + "".join(
    f"{i % 7},{i % 3}\\n" for i in range(50)))
assert dips.cli.main(["bench", "--study", "sim1", "--config",
                      str(tmp / "c.json"), "--reps", "1",
                      "--out", str(tmp / "b")]) == 0
assert dips.cli.main(["synth", "--input", str(tmp / "in.csv"), "--method",
                      "pert-hist", "--eps", "1", "--m", "2",
                      "--out", str(tmp / "s")]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_dips_runs_without_loading_scipy(tmp_path):
    # a study pools its sets through the t quantile (every sim1 method at
    # m = 2, and bbmr's single set), and a release reads and writes CSV;
    # the child imports the same dips as this test run
    src = str(Path(dips.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", RUN_WITHOUT_SCIPY,
                          str(tmp_path)], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_wishart_draws_are_spd():
    draws = [sample_wishart(rng(11).substream(i), 5, np.eye(3))
             for i in range(50)]
    for d in draws:
        np.testing.assert_allclose(d, d.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(d) > 0)


def test_scale_domain_errors():
    with pytest.raises(ParameterDomainError):
        sample_laplace(rng(), 0.0, -1.0)
    # scalars take a plain comparison, arrays the numpy one: NaN and 0
    # fail on both
    for bad in (0, 0.0, float("nan"), np.float64("nan"), np.int64(0),
                np.array([1.0, np.nan]), np.array([2, 0])):
        with pytest.raises(ParameterDomainError):
            sample_laplace(rng(), 0.0, bad)
    with pytest.raises(ParameterDomainError):
        sample_beta(rng(), 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        sample_inv_gamma(rng(), -1.0, 1.0)


def test_t_quantile_frozen_values():
    assert t_quantile(0.975, 4) == pytest.approx(2.7764451051977987,
                                                 abs=1e-12)
    assert t_quantile(0.975, float("inf")) == pytest.approx(
        1.959963984540054, abs=1e-12)


T_QUANTILE_PS = [0.6, 0.75, 0.9, 0.95, 0.975, 0.99, 0.995, 0.9995]
# 241 log-spaced df from 1 to 1e12, and every integer df up to 40: the
# pooled df of m synthetic sets is (m - 1)(1 + mW/B)^2 >= m - 1
T_QUANTILE_DFS = sorted({*map(float, np.geomspace(1, 1e12, 241)),
                         *map(float, range(1, 41))})


@pytest.mark.parametrize("p", [*T_QUANTILE_PS,
                               *(1 - p for p in T_QUANTILE_PS)])
def test_t_quantile_matches_scipy(p):
    for df in T_QUANTILE_DFS:
        assert t_quantile(p, df) == pytest.approx(
            float(special.stdtrit(df, p)), rel=1e-13, abs=0), df
    normal = float(special.ndtri(p))
    assert abs(t_quantile(p, math.inf) - normal) <= 2 * math.ulp(normal)
