"""Privacy budgets, the ledger, and the Laplace sanitizer.

A ledger tracks a fixed epsilon.  Sequential charges add up; parallel
charges within a group (statistics computed on disjoint rows) cost only
the maximum.  Overspending raises BudgetExhausted.
"""

from fractions import Fraction

import numpy as np

from dips import (
    BudgetExhausted,
    PrivacyBudget,
    PrivacyLedger,
    RngStream,
    SensitivitySpec,
    laplace_mechanism,
)

rng = RngStream(7)
ledger = PrivacyLedger(PrivacyBudget(1.0))

# Sanitize a count (sensitivity 1) with half the budget; a count is never
# negative, so the release is clamped at 0 (boundary inflated truncation).
count = np.array([412.0])
stat = laplace_mechanism(rng.substream(0), count, SensitivitySpec(1.0),
                         0.5, label="count", lower=0.0)
ledger.charge("count", 0.5)
print(f"true count {count[0]:.0f}, sanitized {stat.sanitized[0]:.2f} "
      f"(Laplace scale {stat.scale:.1f})")

# A second release spends 0.3 on a bounded mean: 200 values in [0, 10],
# so one row moves the mean by at most 10 / 200.
mean = np.array([6.2])
stat = laplace_mechanism(rng.substream(1), mean, SensitivitySpec(10 / 200),
                         0.3, label="mean", lower=0.0, upper=10.0)
ledger.charge("mean", 0.3)
print(f"true mean {mean[0]:.2f}, sanitized {stat.sanitized[0]:.2f} "
      f"(Laplace scale {stat.scale:.3f})")

# Parallel composition: per-subgroup counts on disjoint rows share a group
# label, so three charges of 0.2 cost 0.2 in total.
for j in range(3):
    ledger.charge(f"subgroup-{j}", 0.2, mode="parallel", group="subgroups")
print(f"spent so far: {float(ledger.effective_spend_exact()):.4f} of "
      f"{ledger.total.epsilon}")

try:
    ledger.charge("one-too-many", 0.01)
except BudgetExhausted as err:
    print(f"refused: {err}")

# Split a budget by weights the way modips_release does: exact Fraction
# shares, which the ledger adds back to the total with no rounding.
weights = [1, 2, 2]
shares = [Fraction(1.0) * w / sum(weights) for w in weights]
split = PrivacyLedger(PrivacyBudget(1.0))
for j, share in enumerate(shares):
    split.charge(f"share-{j}", share)
print(f"shares {[str(s) for s in shares]}, spend == 1: {split.spend == 1}")
