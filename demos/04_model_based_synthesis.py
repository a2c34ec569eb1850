"""Model-based synthesis: sanitize sufficient statistics, then draw
parameters and data from the Bayesian model.

Each release spends eps/m per set, split equally across the model's
statistic groups.  Out-of-range sanitized statistics are legitimized either by
clipping to the bounds ("BIT") or by drawing the noise from the Laplace
law conditioned on the bounds ("truncate").
"""

import numpy as np

from dips import (
    BernoulliModel,
    ContinuousColumn,
    CategoricalColumn,
    NormalModel,
    PrivacyBudget,
    PrivacyLedger,
    RngStream,
    TabularDataset,
    modips_release,
)

rng = RngStream(42)

# Binary column, Beta posterior with the neutral 1/3 prior.
x = (rng.substream(0).generator.random(200) < 0.3).astype(np.int64)
data = TabularDataset([CategoricalColumn("x", (0, 1))], {"x": x})
ledger = PrivacyLedger(PrivacyBudget(1.0))
release = modips_release(rng.substream(1), data, BernoulliModel(), 1.0,
                         m=5, ledger=ledger)
props = [s.column("x").mean() for s in release.sets]
print(f"bernoulli: source proportion {x.mean():.3f}, per-set "
      f"{np.round(props, 3)}, spent {float(ledger.effective_spend_exact())}")

# Bounded continuous column, normal-inverse-gamma posterior; the model reads
# the bounds from the declared column.  The mean and variance statistics
# get separate, equal budget shares.
z = np.clip(rng.substream(2).generator.normal(0.5, 1.0, 200), -3.0, 4.0)
data = TabularDataset([ContinuousColumn("x", -3.0, 4.0)], {"x": z})
ledger = PrivacyLedger(PrivacyBudget(1.0))
release = modips_release(rng.substream(3), data, NormalModel(), 1.0, m=5,
                         ledger=ledger, postprocess="truncate")
means = [s.column("x").mean() for s in release.sets]
print(f"normal: source mean {z.mean():+.3f}, per-set {np.round(means, 3)}")
for stat in release.sanitized_stats[0]:
    print(f"  set 1 statistic {stat.label!r}: raw {stat.raw[0]:+.3f} -> "
          f"sanitized {stat.sanitized[0]:+.3f} via {stat.postprocess}")
