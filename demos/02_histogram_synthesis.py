"""Non-parametric synthesis from a sanitized histogram.

A histogram is an array of per-cell counts.  Two routes make it private
over a bounded variable: perturb the cell counts with Laplace noise (then
clip negatives to zero), or mix the cell proportions with the uniform
distribution over the cells using the minimal smoothing weight.  Rows are
then drawn from the cells in proportion to either result.
"""

import numpy as np

from dips import (
    ContinuousColumn,
    PrivacyBudget,
    PrivacyLedger,
    RngStream,
    TabularDataset,
    build_histogram,
    perturb_histogram,
    sample_from_histogram,
    scott_grid,
    smooth_histogram,
    smoothing_weight,
)

rng = RngStream(11)
n = 500
x = np.clip(rng.substream(0).generator.normal(1.0, 1.0, n), -3.0, 4.0)
data = TabularDataset([ContinuousColumn("x", -3.0, 4.0)], {"x": x})

# Scott's rule: ceil((hi - lo) / (3.5 * S * n^(-1/3))) equal bins from lo
shape = scott_grid(data)
(k,) = shape
counts = build_histogram(data, shape)
print(f"Scott's rule -> {k} bins of width {7.0 / k:.3f}")

ledger = PrivacyLedger(PrivacyBudget(2.0))
noisy = perturb_histogram(rng.substream(1), counts, 1.0, ledger=ledger)
synth = sample_from_histogram(rng.substream(2), data.columns, shape, noisy,
                              n)
print(f"perturbed-histogram synthetic mean {synth.column('x').mean():+.3f} "
      f"(source {x.mean():+.3f})")

probs = smooth_histogram(counts, 1.0, ledger=ledger)
lam = smoothing_weight(k, n, 1.0)
synth = sample_from_histogram(rng.substream(3), data.columns, shape, probs,
                              n)
print(f"smoothed-histogram lambda {lam:.3f}, synthetic mean "
      f"{synth.column('x').mean():+.3f} (pulled toward the uniform midpoint)")
print(f"budget spent: {float(ledger.effective_spend_exact())}")
