"""Privacy-budget arithmetic under sequential and parallel composition.

A ledger tracks every epsilon expenditure against a fixed total.  Charges
are stored internally as exact rationals so that e.g. thirty charges of
eps/30 sum back to eps with no floating-point drift; exhaustion checks use
a small relative tolerance on top of the exact arithmetic.
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

    Sequential entries accumulate; entries in the same parallel group count
    only through the group's maximum.  The ledger keeps that effective
    spend as a running exact sum, so a charge costs O(1): under a lock,
    ``charge`` prices the candidate entry against the running sum and the
    group maxima, raises ``BudgetExhausted`` if it cannot fit, and only
    then appends it (check-then-append, so a harness may charge from
    several workers and a rejected charge leaves no trace).
    ``effective_spend_exact`` recomputes the spend from the entries; it is
    the audit a caller runs once a release is done.
    """

    total: PrivacyBudget
    entries: list[LedgerEntry] = field(default_factory=list)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self):
        self._limit = Fraction(self.total.epsilon) * _SLACK
        self._spend = Fraction(0)
        self._group_max: dict[str, Fraction] = {}
        for entry in self.entries:
            self._count(entry, self._extra(entry))

    # -- accounting ---------------------------------------------------------

    def _extra(self, entry: LedgerEntry) -> Fraction:
        """How much counting ``entry`` raises the effective spend."""
        if entry.mode == "sequential":
            return entry.eps
        return max(entry.eps - self._group_max.get(entry.group, 0), 0)

    def _count(self, entry: LedgerEntry, extra: Fraction) -> None:
        """Fold an accepted entry into the running spend and group maxima."""
        self._spend += extra
        if extra and entry.mode == "parallel":
            self._group_max[entry.group] = entry.eps

    def effective_spend_exact(self) -> Fraction:
        """Exact effective spend recomputed from the entries: sequential
        sum plus per-group maxima."""
        seq = Fraction(0)
        groups: dict[str, Fraction] = {}
        for entry in self.entries:
            if entry.mode == "sequential":
                seq += entry.eps
            else:
                prev = groups.get(entry.group, Fraction(0))
                groups[entry.group] = max(prev, entry.eps)
        return seq + sum(groups.values(), Fraction(0))

    @property
    def spend(self) -> Fraction:
        """Exact effective spend, as kept up to date by ``charge``."""
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
        candidate = LedgerEntry(label, eps_frac, mode, group)
        with self._lock:
            extra = self._extra(candidate)
            spend = self._spend + extra
            if spend > self._limit:
                raise BudgetExhausted(
                    f"charge {label!r} of {float(eps_frac)} would raise effective "
                    f"spend to {float(spend)} > total {self.total.epsilon}"
                )
            self.entries.append(candidate)
            self._count(candidate, extra)
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
