import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dips.budget import (
    EXHAUSTION_RTOL,
    BudgetExhausted,
    LedgerEntry,
    PrivacyBudget,
    PrivacyLedger,
)


def test_budget_requires_positive_epsilon():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(-1.0)
    with pytest.raises(ValueError):
        PrivacyBudget(float("nan"))


@pytest.mark.parametrize("eps", [float("inf"), 10 ** 400],
                         ids=["inf", "huge-int"])
def test_budget_refuses_a_non_finite_epsilon(eps):
    # a ledger holds exact Fractions, which cannot represent inf, and an
    # int beyond the float range would overflow the first float(eps)
    with pytest.raises(ValueError, match="positive and finite"):
        PrivacyBudget(eps)
    assert PrivacyBudget(sys.float_info.max).epsilon == sys.float_info.max


def test_sequential_charges_accumulate():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    ledger.charge("a", 0.25)
    ledger.charge("b", 0.25)
    assert ledger.effective_spend == pytest.approx(0.5)


def test_parallel_group_counts_by_maximum():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    for i in range(10):
        ledger.charge(f"cell-{i}", 0.3, mode="parallel", group="cells")
    assert ledger.effective_spend == pytest.approx(0.3)


def test_mixed_composition():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    ledger.charge("seq", 0.4)
    ledger.charge("c1", 0.2, mode="parallel", group="g")
    ledger.charge("c2", 0.35, mode="parallel", group="g")
    assert ledger.effective_spend == pytest.approx(0.75)


def test_overcharge_rejected_and_rolled_back():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    ledger.charge("a", 0.9)
    with pytest.raises(BudgetExhausted):
        ledger.charge("b", 0.2)
    assert len(ledger.entries) == 1
    assert ledger.effective_spend == pytest.approx(0.9)


def test_exact_fraction_bookkeeping():
    eps = 0.3  # not exactly representable shares when divided by 3 in float
    ledger = PrivacyLedger(PrivacyBudget(eps))
    for i in range(30):
        ledger.charge(f"s{i}", Fraction(eps) / 30)
    assert ledger.effective_spend_exact() == Fraction(eps)


def test_parallel_charge_requires_group():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    with pytest.raises(ValueError):
        ledger.charge("x", 0.1, mode="parallel")


def test_unknown_mode_rejected():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    with pytest.raises(ValueError):
        ledger.charge("x", 0.1, mode="adaptive")


def test_concurrent_charges_are_atomic():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    errors = []

    def worker(i):
        try:
            ledger.charge(f"w{i}", Fraction(1, 100))
        except BudgetExhausted as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(100)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert ledger.effective_spend_exact() == Fraction(1)


def test_concurrent_mixed_charges_keep_running_spend_exact():
    """More threads than cores, switching often, mix sequential and
    parallel charges until the budget runs out: a lost update of the
    running spend or a group maximum would part it from the recomputed
    spend, and a check racing an append would overspend."""
    ledger = PrivacyLedger(PrivacyBudget(1.0))

    def worker(i):
        for k in range(40):
            try:
                if k % 3:
                    ledger.charge(f"w{i}-{k}", Fraction(1 + i, 400),
                                  mode="parallel", group=f"g{k % 5}")
                else:
                    ledger.charge(f"w{i}-{k}", Fraction(1, 100))
            except BudgetExhausted:
                pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert ledger.spend == ledger.effective_spend_exact() <= 1
    assert len(ledger.entries) < 8 * 40


def test_to_json_audit_record():
    import json

    ledger = PrivacyLedger(PrivacyBudget(2.0))
    ledger.charge("stat", 0.5)
    rec = json.loads(ledger.to_json())
    assert rec["total"] == 2.0
    assert rec["entries"][0]["label"] == "stat"
    assert rec["effective_spend"] == 0.5


@given(
    charges=st.lists(st.fractions(min_value=Fraction(1, 1000),
                                  max_value=Fraction(1, 10)),
                     min_size=1, max_size=20),
)
@settings(max_examples=100)
def test_ledger_spend_is_sum_of_sequential_charges(charges):
    ledger = PrivacyLedger(PrivacyBudget(1e9))
    for i, c in enumerate(charges):
        ledger.charge(f"c{i}", c)
    assert ledger.effective_spend_exact() == sum(charges, Fraction(0))


def _reference_spend(entries):
    """Sequential sum plus per-group maxima, from scratch."""
    groups = {}
    for e in entries:
        if e.mode == "parallel":
            groups[e.group] = max(groups.get(e.group, Fraction(0)), e.eps)
    return (sum((e.eps for e in entries if e.mode == "sequential"),
                Fraction(0)) + sum(groups.values(), Fraction(0)))


@given(
    charges=st.lists(
        st.tuples(st.sampled_from([None, "a", "b", "c"]),  # None: sequential
                  st.fractions(min_value=Fraction(1, 1000),
                               max_value=Fraction(1, 2))),
        min_size=1, max_size=30),
)
@settings(max_examples=200)
def test_running_spend_matches_recomputation(charges):
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    limit = Fraction(1) * (1 + Fraction(EXHAUSTION_RTOL).limit_denominator(
        10**15))
    for i, (group, eps) in enumerate(charges):
        mode = "sequential" if group is None else "parallel"
        before = (list(ledger.entries), ledger.spend)
        wanted = _reference_spend(
            ledger.entries + [LedgerEntry(f"c{i}", eps, mode, group)])
        try:
            ledger.charge(f"c{i}", eps, mode=mode, group=group)
        except BudgetExhausted:
            assert wanted > limit
            assert (ledger.entries, ledger.spend) == before
        else:
            assert wanted <= limit
            assert ledger.spend == wanted
        assert ledger.spend == ledger.effective_spend_exact()
    rebuilt = PrivacyLedger(PrivacyBudget(1.0), entries=list(ledger.entries))
    assert rebuilt.spend == ledger.effective_spend_exact()
    assert rebuilt.effective_spend == ledger.effective_spend


def test_ledger_built_from_entries_reports_and_extends_their_spend():
    ledger = PrivacyLedger(PrivacyBudget(1.0), entries=[
        LedgerEntry("s", Fraction(1, 4), "sequential"),
        LedgerEntry("g1", Fraction(1, 2), "parallel", "g"),
        LedgerEntry("g2", Fraction(1, 3), "parallel", "g"),
    ])
    assert ledger.spend == ledger.effective_spend_exact() == Fraction(3, 4)
    ledger.charge("g3", Fraction(1, 2), mode="parallel", group="g")
    assert ledger.spend == Fraction(3, 4)
    with pytest.raises(BudgetExhausted):
        ledger.charge("s2", Fraction(1, 2))
    assert len(ledger.entries) == 4
    ledger.charge("h", Fraction(1, 4), mode="parallel", group="h")
    assert ledger.spend == ledger.effective_spend_exact() == 1
