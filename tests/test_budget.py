import sys
import threading
from fractions import Fraction

import numpy as np
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
from dips.dataset import CategoricalColumn, TabularDataset
from dips.hist_synth import laplace_sanitizer_crosstab, perturb_histogram
from dips.randvar import RngStream


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


def test_parallel_group_charges_add_up():
    # one replaced row can move between two disjoint parts, so separate
    # calls on them compose sequentially: the fourth 0.3 cannot fit
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    refused = []
    for i in range(10):
        try:
            ledger.charge(f"cell-{i}", 0.3, mode="parallel", group="cells")
        except BudgetExhausted:
            refused.append(i)
    assert refused == list(range(3, 10))
    assert ledger.effective_spend == pytest.approx(0.9)


def test_mixed_composition():
    ledger = PrivacyLedger(PrivacyBudget(1.0))
    ledger.charge("seq", 0.4)
    ledger.charge("c1", 0.2, mode="parallel", group="g")
    ledger.charge("c2", 0.35, mode="parallel", group="g")
    assert ledger.effective_spend == pytest.approx(0.95)


@pytest.mark.parametrize("release", ["perturb_histogram",
                                     "laplace_sanitizer_crosstab"])
def test_a_repeated_default_label_release_is_charged_twice(release):
    # both calls charge the same parallel group; the second must not ride
    # on the first's charge
    counts = np.array([30.0, 50.0, 20.0])
    data = TabularDataset([CategoricalColumn("w", range(3))],
                          {"w": np.repeat(np.arange(3), [30, 50, 20])})
    ledger = PrivacyLedger(PrivacyBudget(1.0))

    def call(rng):
        if release == "perturb_histogram":
            return perturb_histogram(rng, counts, 1.0, ledger)
        return laplace_sanitizer_crosstab(rng, data, ["w"], 1.0, ledger)

    call(RngStream(0))
    with pytest.raises(BudgetExhausted):
        call(RngStream(1))
    assert len(ledger.entries) == 1 and ledger.spend == 1


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
    running spend would part it from the recomputed sum, and a check
    racing an append would overspend."""
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
    """The sum of every entry's eps, whatever its mode, from scratch."""
    total = Fraction(0)
    for e in entries:
        total += e.eps
    return total


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
    assert ledger.spend == ledger.effective_spend_exact() == Fraction(13, 12)
    with pytest.raises(BudgetExhausted):
        ledger.charge("g3", Fraction(1, 100), mode="parallel", group="g")
    assert len(ledger.entries) == 3
    ledger = PrivacyLedger(PrivacyBudget(1.0), entries=ledger.entries[:2])
    assert ledger.spend == Fraction(3, 4)
    with pytest.raises(BudgetExhausted):
        ledger.charge("s2", Fraction(1, 2))
    assert len(ledger.entries) == 2
    ledger.charge("h", Fraction(1, 4), mode="parallel", group="h")
    assert ledger.spend == ledger.effective_spend_exact() == 1
