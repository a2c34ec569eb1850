import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a live child process, as the benchmark
    refuses a run that does."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    if left:
        pytest.fail(f"the test left live child processes: {left}")


@pytest.fixture
def mh_settings(monkeypatch):
    """Set sim4's MH constants for one test, by keyword: ``burn_in``,
    ``proposals_per_draw`` and ``max_draws`` stand for ``MH_BURN_IN``,
    ``MH_PROPOSALS_PER_DRAW`` and ``MH_MAX_DRAWS``."""
    from dips import param_synth

    def settings(**values):
        for name, value in values.items():
            monkeypatch.setattr(param_synth, f"MH_{name.upper()}", value)
    return settings
