"""Law check for the Metropolis-Hastings sampler of sim4's logistic posterior.

``SequentialLogisticModel.posterior_draw`` runs one adaptive random-walk
Metropolis over the three regressions of every set of a release.  The
Markov kernel is fixed: every target starts at 0 with proposal scale 0.2,
adapts the scale every 100 burn-in steps (x0.7 below 20% acceptance, x1.4
above 50%), and keeps every ``mh_thin``-th state after burn-in.  How the
sampler consumes its random streams is not part of that kernel, so two
stream layouts of the same kernel draw from the same law.

The reference below is the sampler as it ran with one generator per
(set, regression) target: each step drew every target's proposal normals
on that target's generator, then every target's accept uniform.  It is
kept verbatim.  Each side runs many independent releases on disjoint
seeds, and per coordinate the last kept draw of the two sides is compared
by a two-sample Kolmogorov-Smirnov test and by its mean.  The likelihood
is the real batched one of a seeded n = 200 sim4 set with m = 2 sets; a
second case runs quadratic targets whose modes are known.
"""

import math

import numpy as np
from scipy import stats

from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import simulate_truth_sim4
from dips.param_synth import SequentialLogisticModel, modips_release
from dips.randvar import RngStream

SEEDS = 300
M = 2
SHORT = dict(mh_iters=400, mh_burnin=300, mh_thin=5)
# one chain of 20 kept draws: the last is 396 steps from the start
N_DRAWS = 20
DIMS = (3, 4, 10) * M
KS_P_MIN = 1e-3
MEAN_GAP_SE = 4.0


def reference_mh_lockstep(self, rngs, loglik, dims, n_draws):
    """The sampler with one generator per target, target k's chain c on
    ``rngs[k].substream(c)``: per step every target's proposal normals,
    then every target's accept uniform."""
    burnin, thin = self.mh_burnin, self.mh_thin
    per_chain = (self.mh_iters - burnin) // thin
    needed = min(n_draws, per_chain * self.mh_chains)
    ends = np.cumsum(dims)
    parts = [slice(end - d, end) for d, end in zip(dims, ends)]
    targets = range(len(dims))
    kept = []
    for chain in range(self.mh_chains):
        want = min(per_chain, needed - len(kept))
        if want <= 0:
            break
        gens = [r.substream(chain).generator for r in rngs]
        state = np.zeros(ends[-1])
        noise = np.empty(ends[-1])
        current = list(loglik(state))
        scales = [0.2] * len(dims)
        steps = np.repeat(scales, dims)
        accepted = [0] * len(dims)
        window = 0
        for it in range(burnin + (want - 1) * thin + 1):
            for gen, part in zip(gens, parts):
                gen.standard_normal(out=noise[part])
            # the product numpy's normal(0, scale) forms, bit for bit
            proposal = state + steps * noise
            cands = loglik(proposal)
            for k in targets:
                if (math.log(gens[k].random() + 1e-300)
                        < cands[k] - current[k]):
                    state[parts[k]] = proposal[parts[k]]
                    current[k] = cands[k]
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
                steps = np.repeat(scales, dims)
                window = 0
            if it >= burnin and (it - burnin) % thin == 0:
                kept.append(state.copy())
    if not kept:
        return [np.empty((0, d)) for d in dims]
    reps = int(np.ceil(n_draws / len(kept)))
    rows = np.tile(np.array(kept), (reps, 1))[:n_draws]
    return [np.ascontiguousarray(rows[:, part]) for part in parts]


def _release_stats():
    """The m sets' statistics of one seeded sim4 release at n = 200."""
    data = simulate_truth_sim4(RngStream(120), 200)
    model = SequentialLogisticModel(**SHORT)
    rel = modips_release(RngStream(121), data, model, math.exp(2), m=M,
                         ledger=PrivacyLedger(PrivacyBudget(math.exp(2))))
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data) if g.delta_s is None}
    return [{**raw, **{r.label: r.sanitized for r in records}}
            for records in rel.sanitized_stats]


def _streams(seed):
    return [RngStream(seed).substream(j, 10_000) for j in range(M)]


def _reference_last(model, loglik, seed):
    """The reference sampler's last kept draw, the sets' 17 coefficients
    end to end."""
    rngs = _streams(seed)
    draws = reference_mh_lockstep(
        model, [rng.substream(k) for rng in rngs for k in (1, 2, 3)],
        loglik, DIMS, N_DRAWS)
    return np.concatenate([d[-1] for d in draws])


def _posterior_last(model, stats_sets, seed):
    """``posterior_draw``'s last kept draw, laid out as the reference's."""
    params = model.posterior_draw(_streams(seed), stats_sets, N_DRAWS, [])
    return np.concatenate([beta[-1] for p in params for beta in
                           (p[2], p[3], np.hstack([p[4], p[5]]))])


def _assert_same_law(ref, new):
    assert ref.shape == new.shape == (SEEDS, sum(DIMS))
    gap_se = np.sqrt(ref.var(axis=0, ddof=1) / SEEDS
                     + new.var(axis=0, ddof=1) / SEEDS)
    for c in range(ref.shape[1]):
        p = stats.ks_2samp(ref[:, c], new[:, c]).pvalue
        assert p > KS_P_MIN, (c, p)
        gap = abs(ref[:, c].mean() - new[:, c].mean())
        assert gap <= MEAN_GAP_SE * gap_se[c], (c, gap, gap_se[c])


def test_logistic_mh_draws_follow_the_reference_law():
    stats_sets = _release_stats()
    model = SequentialLogisticModel(**SHORT)
    weights = [[model._temper_weight(stats, i) for i in range(3)]
               for stats in stats_sets]
    rows = [stats_sets[0][label] for label in ("x3", "w1", "w2", "w3")]
    loglik = model._lockstep_loglik(*rows, weights)
    ref = np.array([_reference_last(model, loglik, 1000 + s)
                    for s in range(SEEDS)])
    new = np.array([_posterior_last(model, stats_sets, 5000 + s)
                    for s in range(SEEDS)])
    _assert_same_law(ref, new)


# per set: the three regressions' modes, 3 + 4 + 10 coordinates
QUADRATIC_MODES = np.concatenate([
    np.array([1.0, -1.0, 0.5]), np.linspace(-1.0, 1.0, 4),
    np.linspace(2.0, -2.0, 10)] * M)


def _quadratic_loglik(*args):
    """Standard-normal targets centred on QUADRATIC_MODES, one
    log-density per (set, regression)."""
    starts = np.cumsum(DIMS) - DIMS

    def loglik(coef):
        return -0.5 * np.add.reduceat((coef - QUADRATIC_MODES) ** 2, starts)
    return loglik


def test_quadratic_mh_draws_follow_the_reference_law(monkeypatch):
    stats_sets = _release_stats()
    model = SequentialLogisticModel(**SHORT)
    loglik = _quadratic_loglik()
    ref = np.array([_reference_last(model, loglik, 1000 + s)
                    for s in range(SEEDS)])
    monkeypatch.setattr(SequentialLogisticModel, "_lockstep_loglik",
                        staticmethod(_quadratic_loglik))
    new = np.array([_posterior_last(model, stats_sets, 5000 + s)
                    for s in range(SEEDS)])
    _assert_same_law(ref, new)
    # both sides centre on the known modes with about unit spread
    for draws in (ref, new):
        se = draws.std(axis=0, ddof=1) / math.sqrt(SEEDS)
        assert np.all(np.abs(draws.mean(axis=0) - QUADRATIC_MODES)
                      <= MEAN_GAP_SE * se)
        np.testing.assert_allclose(draws.std(axis=0), 1.0, atol=0.3)
