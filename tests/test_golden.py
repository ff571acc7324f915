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
MOCK_WORKERS_RUN = "5c128ebe6e23393f6ce4d9344131c02917f53760847fdb021cd12d94dae759b2"
MOCK_SWEEP_RUN = "c0810159e5464aed54d88baac0fc5685e8e89ca58bdbfde1ef929c1f7590949b"


def _moves(agent: str, blender: str, pan: str | None) -> list[str]:
    """One dish from storage0 to servingtable0, waiting out each 3-step cook."""
    def cook(tool: str, item: str) -> list[str]:
        return [f"put({agent}, {tool})", f"activate({agent}, {tool})",
                f"noop({agent})", f"noop({agent})", f"get({agent}, {tool}, {item})"]

    moves = [f"goto({agent}, storage0)", f"get({agent}, storage0, salmon)", f"goto({agent}, {blender})"]
    if pan is None:
        moves += cook(blender, "salmonMeatcake")
    else:
        moves += cook(blender, "salmonPaste") + [f"goto({agent}, {pan})"] + cook(pan, "grilledSalmonPatty")
    return moves + [f"goto({agent}, servingtable0)", f"put({agent}, servingtable0)"]


def _replies(texts: list[str], base_in: int, base_out: int) -> list[dict]:
    return [{"text": text, "tokens_in": base_in + 37 * k, "tokens_out": base_out + (7 * k) % 31}
            for k, text in enumerate(texts)]


def _worker_script(i: int) -> list[dict]:
    """Level_2 replies for agent i in prose. Agent 0 serves a dish; agent 1
    tries to grill raw salmon; agent 2 leaves salmon on the table. Each
    also has a malformed reply and a transient failure, agent 1 an action
    naming another agent, and all run out before step 20."""
    me = f"agent{i}"
    if i == 0:
        moves = _moves(me, "blender0", "pan0")
    elif i == 1:
        moves = [f"goto({me}, storage0)", f"get({me}, storage0, salmon)", f"goto({me}, pan1)",
                 f"put({me}, pan1)", f"activate({me}, pan1)", f"goto(agent0, storage0)"]
    else:
        moves = [f"goto({me}, storage0)", f"get({me}, storage0, salmon)",
                 f"goto({me}, servingtable0)", f"put({me}, servingtable0)", f"noop({me})"]
    script = _replies([f"I will do {move}." for move in moves], 700 + 11 * i, 9 + i)
    script.insert(2, {"fail_transient": True})
    script.insert(6 if i == 0 else 5, {"malformed": True})  # agent 0: during the cook
    return script


def _joint_script() -> list[dict]:
    """Agent 0 serves a level_2 dish while agents 1 and 2 idle or collide."""
    joint = [f"{move}\nnoop(agent1)\ngoto(agent2, {'pan0' if k % 2 else 'storage0'})"
             for k, move in enumerate(_moves("agent0", "blender0", "pan0"))]
    return _replies(joint, 1500, 60)


def _plan_script(agents: int) -> list[dict]:
    tasks = ("fetch salmon", "blend salmon", "grill the paste", "deliver the dish")
    plans = ["\n".join(f"agent{i}: {tasks[(k + i) % len(tasks)]}" for i in range(agents)) for k in range(6)]
    plans.insert(2, "no plan this time")
    return _replies(plans, 2100, 80)


def _mock_spec(tmp_path, name: str, model_id: str, script: list[dict]) -> dict:
    """A mock binding whose script file is named relative to the working directory."""
    (tmp_path / name).write_text(json.dumps(script), encoding="utf-8")
    return {"kind": "mock", "model_id": model_id, "script": name}


def _write_config(tmp_path, conf: dict) -> str:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(conf), encoding="utf-8")
    return str(config)


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


def test_mock_workers_orchestrator_and_planner(tmp_path, capsys, monkeypatch):
    # one model per worker (dealt round-robin, so agent i gets model i), each
    # with its own price denominators, as are the orchestrator's and the planner's
    monkeypatch.chdir(tmp_path)
    models = ("gpt-4o-mini", "qwen2.5-32b", "llama-3.1-70b")
    config = _write_config(tmp_path, {"bindings": {
        "workers": [_mock_spec(tmp_path, f"w{i}.json", m, _worker_script(i)) for i, m in enumerate(models)],
        "orchestrator": _mock_spec(tmp_path, "o.json", "gpt-4o", _joint_script()),
        "planner": _mock_spec(tmp_path, "p.json", "claude-3.7", _plan_script(3)),
    }})
    argv = ["kitchen-run", "--seed", "1", "--level", "level_2", "--agents", "3", "--mode", "all",
            "--budget", "20", "--config", config]
    assert run_digest(argv, tmp_path, capsys) == MOCK_WORKERS_RUN


def test_capability_sweep_with_mock_planner(tmp_path, capsys, monkeypatch):
    # agent 0 is a billed mock worker that serves a level_1 dish, so both
    # arms have a non-zero cost and a completed order
    monkeypatch.chdir(tmp_path)
    worker = _mock_spec(tmp_path, "w0.json", "gpt-4o-mini",
                        _replies(_moves("agent0", "blender0", None), 650, 12))
    config = _write_config(tmp_path, {
        "workers": [worker, "scripted:0.5", "scripted:0.0"],
        "bindings": {"planner": _mock_spec(tmp_path, "p.json", "llama-3.1-70b", _plan_script(3))},
    })
    argv = ["capability-sweep", "--seed", "1", "--level", "level_1", "--budget", "40", "--config", config]
    assert run_digest(argv, tmp_path, capsys) == MOCK_SWEEP_RUN
