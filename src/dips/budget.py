"""Privacy-budget arithmetic: a ledger whose spend is the sum of its entries.

A ledger tracks every epsilon expenditure against a fixed total.  Its
spend is the exact sum of every entry's epsilon, whatever the entry's
composition mode.  Parallel composition is applied inside one mechanism
call, which gives every disjoint cell the full epsilon and charges the
ledger once: separate calls add up even on disjoint parts, since under
replace-one neighbours one replaced row can move between two parts.  An
entry's ``mode`` and ``group`` record which kind of charge it was; no
arithmetic reads them.

Charges are stored as exact rationals, so e.g. thirty charges of eps/30
sum back to eps with no floating-point drift; exhaustion checks use a
small relative tolerance on top of the exact arithmetic.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

__all__ = [
    "BudgetExhausted",
    "PrivacyBudget",
    "LedgerEntry",
    "PrivacyLedger",
]

#: relative tolerance used when checking budget exhaustion
EXHAUSTION_RTOL = 1e-12
# the factor a ledger's total is scaled by to give its limit, as a Fraction
_SLACK = 1 + Fraction(EXHAUSTION_RTOL).limit_denominator(10**15)

EpsLike = Union[float, int, Fraction]


class BudgetExhausted(RuntimeError):
    """Raised when a charge would push the effective spend over the total."""


def _as_fraction(eps: EpsLike) -> Fraction:
    frac = Fraction(eps)
    if frac <= 0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    return frac


@dataclass(frozen=True)
class PrivacyBudget:
    """A positive, finite privacy-loss allowance."""

    epsilon: float

    def __post_init__(self):
        # an exact comparison also refuses NaN, inf and an int too large
        # for a float, which the ledger's Fraction arithmetic cannot hold
        if not (0 < self.epsilon <= sys.float_info.max):
            raise ValueError(f"epsilon must be positive and finite, got "
                             f"{self.epsilon}")


@dataclass(frozen=True)
class LedgerEntry:
    label: str
    eps: Fraction
    mode: str  # "sequential" or "parallel"
    group: str | None = None


@dataclass
class PrivacyLedger:
    """Append-only record of privacy expenditures against a total budget.

    The spend is the exact sum of the entries' epsilon; a ``"parallel"``
    entry records one mechanism call that composed its disjoint cells in
    parallel, and costs its epsilon like any other.  The ledger keeps the
    spend as a running sum, so a charge costs O(1): under a lock,
    ``charge`` adds the candidate's epsilon, raises ``BudgetExhausted`` if
    the total cannot hold it, and only then appends it (check-then-append,
    so a harness may charge from several workers and a rejected charge
    leaves no trace).  ``effective_spend_exact`` recomputes the sum from
    the entries; it is the audit a caller runs once a release is done.
    """

    total: PrivacyBudget
    entries: list[LedgerEntry] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self):
        self._limit = Fraction(self.total.epsilon) * _SLACK
        self._spend = self.effective_spend_exact()

    # -- accounting ---------------------------------------------------------

    def effective_spend_exact(self) -> Fraction:
        """Exact spend recomputed from the entries: the sum of their eps."""
        return sum((entry.eps for entry in self.entries), Fraction(0))

    @property
    def spend(self) -> Fraction:
        """Exact spend, as kept up to date by ``charge``."""
        return self._spend

    @property
    def effective_spend(self) -> float:
        return float(self._spend)

    def charge(self, label: str, eps: EpsLike, mode: str = "sequential",
               group: str | None = None) -> "PrivacyLedger":
        """Append an expenditure, raising BudgetExhausted if it cannot fit."""
        eps_frac = _as_fraction(eps)
        if mode not in ("sequential", "parallel"):
            raise ValueError(f"unknown composition mode {mode!r}")
        if mode == "parallel" and group is None:
            raise ValueError("parallel charges need a group id")
        with self._lock:
            spend = self._spend + eps_frac
            if spend > self._limit:
                raise BudgetExhausted(
                    f"charge {label!r} of {float(eps_frac)} would raise effective "
                    f"spend to {float(spend)} > total {self.total.epsilon}"
                )
            self.entries.append(LedgerEntry(label, eps_frac, mode, group))
            self._spend = spend
        return self

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "total": self.total.epsilon,
            "entries": [
                {"label": e.label, "eps": float(e.eps), "mode": e.mode,
                 "group": e.group}
                for e in self.entries
            ],
            "effective_spend": self.effective_spend,
        })
