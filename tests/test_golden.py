"""Byte-identity of CLI output on pinned seeds.

Each case runs one CLI command and hashes its exit code, its stdout and
every file it writes (relative path and bytes, in path order). The
digests were recorded from a verified run; a change that moves any of
them changes behaviour and must say so.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from allocsim.cli import main

# joint actions for 2 agents on level_1, with a malformed reply, a
# transient failure and, once the script runs out, exhaustion
_ORCHESTRATOR_SCRIPT = [
    {"text": "goto(agent0, storage0)\ngoto(agent1, blender0)", "tokens_in": 900, "tokens_out": 40},
    {"text": "get(agent0, storage0, salmon)\nnoop(agent1)", "tokens_in": 950, "tokens_out": 38},
    {"malformed": True},
    {"text": "Plan: goto(agent0, blender0) and put(agent1, blender0)", "tokens_in": 1000, "tokens_out": 55},
    {"fail_transient": True},
    {"text": "put(agent0, blender0)\nactivate(agent1, blender0)", "tokens_in": 1010, "tokens_out": 41},
]
_PLANNER_SCRIPT = [
    {"text": "agent0: fetch salmon\nagent1: fetch meat", "tokens_in": 1200, "tokens_out": 60},
    {"text": "no plan today", "tokens_in": 1300, "tokens_out": 12},
    {"malformed": True},
    {"text": "agent1: deliver salmonMeatcake", "tokens_in": 1250, "tokens_out": 30},
]

KITCHEN_RUNS = {
    ("level_1", 2): "7255002dc53f45bba44054d13379fd16d53f2bd5ae36796f6c3bdb5164b8ec43",
    ("level_1", 6): "656e77f9f06a67f2f4ff80d946aabd37a43379e6b244d01ad2963fdb0181681a",
    ("level_2", 2): "3be4de0ad69180f12dc3dbba7b7e1badc881880892c3f201835e171833bf385e",
    ("level_2", 6): "777c336ce58d81cc8ecf8dca7d6592d2b86080ea537d80f54a4315c95a8b7325",
    ("level_3", 2): "20d66aa3ec44827df90277adafb8833b9135872d65a12a609da632bc69e49a2c",
    ("level_3", 6): "5cc7ff44b209303eaaf690852dba60e46d4eb3dac99b278052eda304585e3ce2",
}
MOCK_RUN = "e9856497bbeb386b4c99fd65c51f8a491a051465e7b4f424a762a64304cf264d"


def run_digest(argv, tmp_path, capsys) -> str:
    out = tmp_path / "out"
    code = main([*argv, "--output", str(out)])
    digest = hashlib.sha256(f"{code}\0{capsys.readouterr().out}\0".encode())
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(f"{path.relative_to(out).as_posix()}\0".encode())
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("level, agents", sorted(KITCHEN_RUNS))
def test_kitchen_run_all_modes(level, agents, tmp_path, capsys):
    argv = ["kitchen-run", "--seed", "1", "--level", level, "--agents", str(agents), "--mode", "all"]
    assert run_digest(argv, tmp_path, capsys) == KITCHEN_RUNS[level, agents]


def test_mock_orchestrator_and_planner(tmp_path, capsys):
    bindings = {}
    for role, model_id, script in (("orchestrator", "gpt-4o", _ORCHESTRATOR_SCRIPT),
                                   ("planner", "claude-3.7", _PLANNER_SCRIPT)):
        path = tmp_path / f"{role}.json"
        path.write_text(json.dumps(script), encoding="utf-8")
        bindings[role] = {"kind": "mock", "model_id": model_id, "script": str(path)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bindings": bindings}), encoding="utf-8")
    argv = ["kitchen-run", "--seed", "1", "--level", "level_1", "--agents", "2", "--mode", "all",
            "--budget", "20", "--config", str(config)]
    assert run_digest(argv, tmp_path, capsys) == MOCK_RUN
