"""Every script under demos/ runs to the end and prints something."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_present():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_budget_demo_spends_the_whole_budget_and_refuses_more(capsys):
    [path] = [p for p in DEMOS if p.stem == "01_budget_and_mechanisms"]
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    assert "spent so far: 1.0000 of 1.0" in out
    assert any(line.startswith("refused: charge 'one-too-many'")
               for line in out)
