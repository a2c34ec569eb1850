"""Dirichlet- and Beta-shrinkage synthesis of categorical data.

Both synthesizers buy privacy by inflating the prior: the smaller the
budget the larger the pseudo-count alpha, dragging every synthetic
proportion toward uniform.  The prints show that shrinkage directly.
"""

import math

import numpy as np

from dips import (
    PrivacyBudget,
    PrivacyLedger,
    RngStream,
    bbmr_synthesizer,
    md_synthesizer,
)

rng = RngStream(23)
counts = np.array([250, 125, 125])  # n = 500 over three categories
n = int(counts.sum())

for eps in (0.1, 1.0, 10.0):
    ledger = PrivacyLedger(PrivacyBudget(eps))
    sets = md_synthesizer(rng.substream(0, int(eps * 10)), counts, eps, m=5,
                          ledger=ledger)
    alpha = n / math.expm1(eps / len(sets))
    pooled = np.zeros(3)
    for cells in sets:  # each set is n cell codes
        pooled += np.bincount(cells, minlength=3)
    pooled /= pooled.sum()
    print(f"multinomial-Dirichlet eps={eps:5.1f}: alpha*={alpha:10.1f}, "
          f"pooled proportions {np.round(pooled, 3)}")

# The Beta-Binomial variant fixes one DP proportion p* and draws a single
# set from it, so releasing more sets would add nothing.
n1 = 150
for eps in (0.1, 10.0):
    x = bbmr_synthesizer(rng.substream(1, int(eps * 10)), n1, n, eps,
                         ledger=PrivacyLedger(PrivacyBudget(eps)))
    print(f"beta-binomial eps={eps:5.1f}: synthetic proportion "
          f"{x.mean():.3f} (source {n1 / n:.3f})")
