"""Non-parametric synthesis from a sanitized histogram.

A histogram is an array of per-cell counts.  Two routes make it private
over a bounded variable: perturb the cell counts with Laplace noise (then
clip negatives to zero), or mix the cell proportions with the uniform
distribution over the cells using the minimal smoothing weight.  Rows are
then drawn from the cells in proportion to either result.
"""

import numpy as np

from dips import (
    BinnedAxis,
    ContinuousColumn,
    GridSpec,
    PrivacyBudget,
    PrivacyLedger,
    RngStream,
    TabularDataset,
    bin_count_from_width,
    bin_width_scott,
    build_histogram,
    perturb_histogram,
    sample_from_histogram,
    smooth_histogram,
    smoothing_weight,
)

rng = RngStream(11)
n = 500
x = np.clip(rng.substream(0).generator.normal(1.0, 1.0, n), -3.0, 4.0)
data = TabularDataset([ContinuousColumn("x", -3.0, 4.0)], {"x": x})

width = bin_width_scott(float(np.std(x, ddof=1)), n)
k = bin_count_from_width(-3.0, 4.0, width)
grid = GridSpec((BinnedAxis(-3.0, 4.0, k),))
counts = build_histogram(data, grid)
print(f"Scott width {width:.3f} -> {k} bins")

ledger = PrivacyLedger(PrivacyBudget(2.0))
noisy = perturb_histogram(rng.substream(1), counts, 1.0, ledger=ledger)
synth = sample_from_histogram(rng.substream(2), grid, noisy, n)
print(f"perturbed-histogram synthetic mean {synth['axis0'].mean():+.3f} "
      f"(source {x.mean():+.3f})")

probs = smooth_histogram(counts, 1.0, ledger=ledger)
lam = smoothing_weight(k, n, 1.0)
synth = sample_from_histogram(rng.substream(3), grid, probs, n)
print(f"smoothed-histogram lambda {lam:.3f}, synthetic mean "
      f"{synth['axis0'].mean():+.3f} (pulled toward the uniform midpoint)")
print(f"budget spent: {float(ledger.effective_spend_exact())}")
