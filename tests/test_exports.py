"""Every exported name exists, and the benchmark's tracer finds every layer
boundary it wraps except the one known to be missing."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import dips

MODULES = sorted(f"dips.{info.name}"
                 for info in pkgutil.iter_modules(dips.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


def test_tracer_finds_every_boundary(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    for name in MODULES:
        importlib.import_module(name)
    from perfbench.tracing import Tracer

    tracer = Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.uninstall()
    # the tracer still looks for the Laplace draw where it lived before the
    # one-sanitizer refactor; moving that boundary is a benchmark change
    assert missing == ["dips.param_synth.sample_laplace"]
