"""The t quantile moves only the last bits of a study's rows.

One pinned configuration per study (the digests of
``tests/test_harness.py``) runs as the program runs it, and again with the
quantile that ``inference.combine`` reads replaced by scipy's.  Every
metric field must be equal, except ``ci_width``, which may differ by
1e-12 relative.  Together the four configurations pool a single set
(m = 1), sets with no spread (B = 0) and finite df.
"""

import math

import pytest
from scipy import special

import dips.harness
import dips.inference
from dips.harness import METRIC_COLUMNS, STUDIES, StudyConfig, run_study

CONFIGS = {
    "sim1": StudyConfig(
        "sim1", 40, eps_grid=[math.exp(-9), math.exp(-2), math.exp(2)], m=3,
        reps=3, methods=list(STUDIES["sim1"].methods), seed=11),
    "sim2": StudyConfig(
        "sim2", 100, eps_grid=[math.exp(-9), math.exp(-2), math.exp(2)],
        m=3, reps=3, methods=list(STUDIES["sim2"].methods), seed=11),
    "sim3": StudyConfig(
        "sim3", 300, eps_grid=[math.exp(-6), math.exp(2)], m=3, reps=2,
        methods=["np-dips", "modips-mixture"], seed=11),
    "sim4": StudyConfig(
        "sim4", 200, eps_grid=[math.exp(-2), math.exp(2)], m=3, reps=1,
        methods=["modips-logistic", "ms"], seed=11),
}


def scipy_t_quantile(p, df):
    if math.isinf(df):
        return float(special.ndtri(p))
    return float(special.stdtrit(df, p))


def _same(a, b):
    return a == b or (isinstance(a, float) and math.isnan(a)
                      and math.isnan(b))


@pytest.fixture(scope="module")
def pooled():
    """Each study's rows under the program's quantile, and the kinds of
    pooling their combine calls reached."""
    kinds = set()
    combine = dips.harness.combine

    def recording(estimates):
        c = combine(estimates)
        kinds.add("m = 1" if c.single_set else "B = 0"
                  if c.degenerate_between else "finite df")
        return c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dips.harness, "combine", recording)
        rows = {study: run_study(config) for study, config in CONFIGS.items()}
    return rows, kinds


def test_the_configurations_reach_every_pooling_path(pooled):
    assert pooled[1] == {"m = 1", "B = 0", "finite df"}


@pytest.mark.parametrize("study", list(CONFIGS))
def test_rows_match_those_under_scipys_quantile(study, pooled, monkeypatch):
    monkeypatch.setattr(dips.inference, "t_quantile", scipy_t_quantile)
    reference = run_study(CONFIGS[study])
    rows = pooled[0][study]
    assert len(rows) == len(reference)
    for row, ref in zip(rows, reference):
        for column in METRIC_COLUMNS:
            a, b = getattr(row, column), getattr(ref, column)
            if column == "ci_width" and not math.isnan(b):
                assert a == pytest.approx(b, rel=1e-12, abs=0), (row, ref)
            else:
                assert _same(a, b), (column, row, ref)
