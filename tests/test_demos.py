"""Smoke test: every demo script runs to completion; the billed demo prints its pinned ledger."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_billed_demo_prints_the_same_ledger(capsys):
    [demo] = [path for path in DEMOS if path.stem == "02_coordination_topologies"]
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "billed run: 3 orders for $0.0042 -> 706.9 orders per dollar",
        "first ledger rows:",
        "    step 0: worker:agent0 gpt-4o-mini 107/5 tokens = $0.000019",
        "    step 0: worker:agent1 qwen2.5-32b 107/3 tokens = $0.000047",
        "    step 1: worker:agent0 gpt-4o-mini 106/7 tokens = $0.000020",
    ]
