"""Law check for the Metropolis-Hastings sampler of sim4's logistic posterior.

``SequentialLogisticModel.posterior_draw`` runs one adaptive random-walk
Metropolis over the three regressions of every set of a release.  A kernel
that keeps the tempered posterior invariant draws from it once its chain
has run long enough; kernels differ in how many steps that takes.  So
every kept draw, the first as much as the last, must follow the law that
a long run of any such kernel reaches.

The reference is the kernel that starts every target at 0 with proposal
scale 0.2, adapts the scale every 100 burn-in steps (x0.7 below 20%
acceptance, x1.4 above 50%), and keeps every ``mh_thin``-th state after
burn-in.  It is kept verbatim and run with a burn-in of 7,500 steps, five
times its default of 1,500, so its first kept draw is a draw from the
stationary law.  The lockstep keeps its targets independent, so the
reference runs many seeds' sets as the targets of one lockstep, one draw
per target, which costs one likelihood call per step for all of them.

The likelihood is the real batched one of a seeded n = 200 sim4 set with
m = 2 sets.  Per coordinate, ``posterior_draw``'s first and last kept
draws over many seeds are compared with the reference's by a two-sample
Kolmogorov-Smirnov test and by their means.  A second case runs
``_mh_lockstep`` on standard-normal targets, whose law is known, from
their modes with the identity as their information.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from dips.budget import PrivacyBudget, PrivacyLedger
from dips.harness import simulate_truth_sim4
from dips.param_synth import SequentialLogisticModel, modips_release
from dips.randvar import RngStream

SEEDS = 100
M = 2
DIMS = (3, 4, 10) * M
# posterior_draw keeps one draw per row of the release, n = 200 of them
N_DRAWS = 200
REFERENCE_BURNIN = 7500
# seeds per reference lockstep: 40 sets, so one call covers 40 x 800 rows
BATCH = 20
KS_P_MIN = 1e-3
MEAN_GAP_SE = 4.0


def reference_mh_lockstep(self, rng, loglik, dims, n_draws):
    """Adaptive random-walk Metropolis over K targets advanced in
    lockstep.  The targets' states lie end to end in one vector, and
    each step makes one ``loglik(proposal) -> K values`` call on every
    target's proposal in that layout.  Returns one (n_draws, dims[k])
    array per target.  The logistic posterior runs the three
    regressions of every set of a release as one such call.

    Chain c runs on ``rng.substream(c)``.  Each step makes one
    standard-normal call that fills every target's proposal normals
    end to end, then one call for the K accept uniforms, and target k
    reads its slice of each.  Both sizes are fixed, so target k's
    draws depend on its likelihood, its place in the layout and the
    stream, never on another target's values.  Each target has its
    own proposal scale, tuned during burn-in toward 0.2-0.5
    acceptance and frozen afterwards.  Each chain keeps every
    `mh_thin`-th state after burn-in, at most `per_chain` of them, and
    chains are concatenated in order.  Only the iterations whose draws
    are returned are run: a chain stops at its last used draw and a
    chain with none is skipped.  The result equals the first `n_draws`
    rows of the full run (tiled when `n_draws` exceeds the draws of
    all chains)."""
    burnin, thin = self.mh_burnin, self.mh_thin
    per_chain = (self.mh_iters - burnin) // thin
    needed = min(n_draws, per_chain * self.mh_chains)
    ends = np.cumsum(dims)
    parts = [slice(end - d, end) for d, end in zip(dims, ends)]
    k = len(dims)
    owner = np.repeat(np.arange(k), dims)  # the target of each entry
    kept = []
    for chain in range(self.mh_chains):
        want = min(per_chain, needed - len(kept))
        if want <= 0:
            break
        gen = rng.substream(chain).generator
        state = np.zeros(ends[-1])
        noise = np.empty(ends[-1])
        proposal = np.empty(ends[-1])
        current = np.array(loglik(state), dtype=float)
        scales = np.full(k, 0.2)
        steps = scales[owner]
        accepted = np.zeros(k)
        window = 0
        for it in range(burnin + (want - 1) * thin + 1):
            gen.standard_normal(out=noise)
            # the product numpy's normal(0, scale) forms, bit for bit
            np.multiply(steps, noise, out=noise)
            np.add(state, noise, out=proposal)
            cands = loglik(proposal)
            accept = np.log(gen.random(k) + 1e-300) < cands - current
            np.copyto(state, proposal, where=accept[owner])
            np.copyto(current, cands, where=accept)
            accepted += accept
            window += 1
            if it < burnin and window == 100:
                rate = accepted / window
                scales[rate < 0.2] *= 0.7
                scales[rate > 0.5] *= 1.4
                steps = scales[owner]
                accepted[:] = 0
                window = 0
            if it >= burnin and (it - burnin) % thin == 0:
                kept.append(state.copy())
    if not kept:
        return [np.empty((0, d)) for d in dims]
    reps = int(np.ceil(n_draws / len(kept)))
    rows = np.tile(np.array(kept), (reps, 1))[:n_draws]
    return [np.ascontiguousarray(rows[:, part]) for part in parts]


def _stats_sets(tempered):
    """The m sets' statistics of a seeded sim4 set at n = 200: raw, as
    the non-private ``ms`` release passes them, so every tempering weight
    is 1; or sanitized by a release at eps = e^2."""
    data = simulate_truth_sim4(RngStream(120), 200)
    model = SequentialLogisticModel()
    raw = {g.label: np.atleast_1d(np.asarray(g.value, dtype=float))
           for g in model.sufficient_statistics(data)}
    if not tempered:
        return [raw] * M
    rel = modips_release(RngStream(121), data, model, math.exp(2), m=M,
                         ledger=PrivacyLedger(PrivacyBudget(math.exp(2))))
    return [{**raw, **{r.label: r.sanitized for r in records}}
            for records in rel.sanitized_stats]


def _weights(stats_sets):
    return [[SequentialLogisticModel._temper_weight(stats, i)
             for i in range(3)] for stats in stats_sets]


def _streams(seed):
    return [RngStream(seed).substream(j, 10_000) for j in range(M)]


def _reference_draws(stats_sets, keep):
    """One reference draw per seed, the sets' 17 coefficients end to end:
    each lockstep runs BATCH seeds' sets as its targets.  The targets are
    independent, so the ones not kept are sampled at weight 1: their
    draws are dropped, and at weight 1 they stay near their mode instead
    of drifting to coefficients whose exp underflows, which slows every
    call."""
    settings = SimpleNamespace(mh_chains=1, mh_iters=REFERENCE_BURNIN + 1,
                               mh_burnin=REFERENCE_BURNIN, mh_thin=1)
    rows = [stats_sets[0][label] for label in ("x3", "w1", "w2", "w3")]
    weights = [[w if k else 1.0 for w, k in zip(ws, kept)]
               for ws, kept in zip(_weights(stats_sets), keep)]
    loglik = SequentialLogisticModel._lockstep_loglik(*rows, weights * BATCH)
    draws = []
    for batch in range(SEEDS // BATCH):
        targets = reference_mh_lockstep(settings, RngStream(1000 + batch),
                                        loglik, DIMS * BATCH, 1)
        state = np.concatenate([t[0] for t in targets])
        draws += list(state.reshape(BATCH, sum(DIMS)))
    return np.array(draws)


def _posterior_draws(stats_sets):
    """``posterior_draw``'s first and last kept draws per seed under the
    default settings, laid out as the reference's."""
    model = SequentialLogisticModel()
    first, last = [], []
    for s in range(SEEDS):
        params = model.posterior_draw(_streams(5000 + s), stats_sets,
                                      N_DRAWS, [])
        betas = [beta for p in params
                 for beta in (p[2], p[3], np.hstack([p[4], p[5]]))]
        first.append(np.concatenate([beta[0] for beta in betas]))
        last.append(np.concatenate([beta[-1] for beta in betas]))
    return np.array(first), np.array(last)


@pytest.fixture(scope="module", params=["unit", "tempered"])
def logistic_draws(request):
    """The reference's draws and ``posterior_draw``'s first and last, on
    the targets that have a stationary law to match.

    The clamp bounds every row's log factor below by log(1e-12), so under
    a flat prior the tempered likelihood never falls to 0 far from the
    mode.  At a weight near 1 or above, those tails lie thousands of nats
    below the mode and no chain reaches them; at a weight far below 1
    they lie only tens of nats below, and their volume wins.  In the
    eps = e^2 release the sanitized likelihood products are noise, and
    three of the six weights lie between 0.013 and 0.039.  There the
    reference keeps drifting: after 7,500 steps set 1's b3/b4 draws
    (w = 0.013) have SDs of 1e8, and set 1's b2 (w = 0.026) a
    last-coefficient SD six times that of the same kernel after 1,500
    steps.  So the tempered
    case compares the three targets with weight above 1/2, the unit case
    all six."""
    tempered = request.param == "tempered"
    stats_sets = _stats_sets(tempered)
    keep = [[w > 0.5 for w in ws] for ws in _weights(stats_sets)]
    coords = np.repeat(np.concatenate(keep), DIMS)
    assert coords.sum() == (17 if tempered else 34)
    ref = _reference_draws(stats_sets, keep)
    first, last = _posterior_draws(stats_sets)
    return ref[:, coords], first[:, coords], last[:, coords]


def _assert_same_law(ref, new):
    assert ref.shape == new.shape and ref.shape[0] == SEEDS
    gap_se = np.sqrt(ref.var(axis=0, ddof=1) / SEEDS
                     + new.var(axis=0, ddof=1) / SEEDS)
    for c in range(ref.shape[1]):
        p = stats.ks_2samp(ref[:, c], new[:, c]).pvalue
        assert p > KS_P_MIN, (c, p)
        gap = abs(ref[:, c].mean() - new[:, c].mean())
        assert gap <= MEAN_GAP_SE * gap_se[c], (c, gap, gap_se[c])


def test_logistic_mh_last_draws_follow_the_reference_law(logistic_draws):
    ref, _, last = logistic_draws
    _assert_same_law(ref, last)


def test_logistic_mh_first_draws_follow_the_reference_law(logistic_draws):
    ref, first, _ = logistic_draws
    _assert_same_law(ref, first)


# per set: the three regressions' modes, 3 + 4 + 10 coordinates
QUADRATIC_MODES = np.concatenate([
    np.array([1.0, -1.0, 0.5]), np.linspace(-1.0, 1.0, 4),
    np.linspace(2.0, -2.0, 10)] * M)


# seeds per quadratic lockstep, each seed's sets its own targets
QUADRATIC_BATCH = 5
_BATCH_MODES = np.tile(QUADRATIC_MODES, QUADRATIC_BATCH)
_BATCH_STARTS = np.cumsum(DIMS * QUADRATIC_BATCH) - DIMS * QUADRATIC_BATCH


def _quadratic_loglik(coef):
    """Standard-normal targets centred on QUADRATIC_MODES, one
    log-density per (set, regression), for QUADRATIC_BATCH seeds."""
    return -0.5 * np.add.reduceat((coef - _BATCH_MODES) ** 2, _BATCH_STARTS)


def _quadratic_draws(seed, n_draws, kept):
    """Per seed, draws ``kept`` of an ``n_draws`` run of ``_mh_lockstep``
    on the quadratic targets, each target started at its mode with the
    identity as its covariance: one (SEEDS, 34) array per kept index."""
    starts = np.split(QUADRATIC_MODES, np.cumsum(DIMS)[:-1])
    factors = [np.eye(d) * (2.38 / math.sqrt(d)) for d in DIMS]
    rows = [[] for _ in kept]
    for batch in range(SEEDS // QUADRATIC_BATCH):
        targets = SequentialLogisticModel._mh_lockstep(
            RngStream(seed + batch), _quadratic_loglik,
            DIMS * QUADRATIC_BATCH, n_draws, starts * QUADRATIC_BATCH,
            factors * QUADRATIC_BATCH)
        for t in np.split(np.arange(len(targets)), QUADRATIC_BATCH):
            for out, i in zip(rows, kept):
                out.append(np.concatenate([targets[k][i] for k in t]))
    return [np.array(out) for out in rows]


def _assert_known_law(draws):
    """Each coordinate is N(mode, 1): known modes, unit spread."""
    for c, mode in enumerate(QUADRATIC_MODES):
        p = stats.kstest(draws[:, c] - mode, "norm").pvalue
        assert p > KS_P_MIN, (c, p)
    se = draws.std(axis=0, ddof=1) / math.sqrt(SEEDS)
    assert np.all(np.abs(draws.mean(axis=0) - QUADRATIC_MODES)
                  <= MEAN_GAP_SE * se)
    np.testing.assert_allclose(draws.std(axis=0), 1.0, atol=0.3)


def test_quadratic_mh_draws_follow_the_known_law():
    for draws in _quadratic_draws(5000, N_DRAWS, (0, -1)):
        _assert_known_law(draws)


def test_quadratic_mh_draws_past_the_500th_follow_the_known_law():
    """A 1,000-draw run's 501st and last draws: one chain's continuation
    draws from the same law as its first draws."""
    for draws in _quadratic_draws(6000, 1000, (500, 999)):
        _assert_known_law(draws)
