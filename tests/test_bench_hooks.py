"""What the benchmark reaches into the program for still exists.

``bench/tracer.py`` wraps program attributes by name for ``--trace 1``, and
the ``kitchen-model`` job builder in ``bench/workloads.py`` subclasses
``ScriptedPlanner``. A rename or a deletion in ``src/`` would break either
one without any other test failing. The ``assign-*`` checks read back the
``instances.json`` that ``assign-eval`` writes, so a writer that breaks
them fails here and not only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from allocsim import cli
from allocsim.cli import main
from allocsim.gateway import install_mock
from allocsim.kitchen import load_level
from allocsim.levels import get_level

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_unwind(tmp_path, monkeypatch):
    tracer = load_bench_module("tracer", monkeypatch)
    targets = tracer._targets()
    originals = []
    for owner, attr, layer, _ in targets:
        # the tracer wraps a class's own method, not an inherited one
        found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert found is not None, (layer, owner, attr)
        originals.append(found)
    # a mock orchestrator with no transient failure is sent each request body
    # once, the fourth too, though its script has run out by then
    transports = []

    def recording_mock(script):
        transports.append(install_mock(script))
        return transports[-1]

    monkeypatch.setattr(cli, "install_mock", recording_mock)
    script = tmp_path / "orchestrator.json"
    script.write_text(json.dumps([
        {"text": "goto(agent0, storage0)\ngoto(agent1, blender0)", "tokens_in": 900, "tokens_out": 40},
        {"malformed": True},
        {"text": "noop(agent0)\nnoop(agent1)", "tokens_in": 950, "tokens_out": 12},
    ]), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bindings": {"orchestrator": {
        "kind": "mock", "model_id": "gpt-4o", "script": str(script)}}}), encoding="utf-8")
    spans = tracer.Tracer()
    spans.install()
    try:
        spans.job = 0
        assert main(["kitchen-run", "--seed", "1", "--level", "level_1", "--agents", "2",
                     "--mode", "planner", "--budget", "3", "--output", str(tmp_path / "out")]) == 0
        spans.job = 1
        assert main(["kitchen-run", "--seed", "1", "--level", "level_1", "--agents", "2", "--mode", "orchestrator",
                     "--budget", "4", "--config", str(config), "--output", str(tmp_path / "model")]) == 0
    finally:
        spans.uninstall()
    assert [vars(o).get(a) if isinstance(o, type) else getattr(o, a) for o, a, _, _ in targets] == originals
    calls, _, _ = spans.totals()
    assert calls["policies.scripted"] > 0 and calls["kitchen.step"] == 3 + 4
    # run_episode's parse memo calls the wrapped module attribute on each miss
    assert calls["coordination.parse"] > 0
    # complete calls the request writer through the module attribute
    [transport] = transports
    assert calls["gateway.encode"] == len(transport.requests) == 4
    assert spans.bytes["gateway.encode"] == sum(map(len, transport.requests))


def test_kitchen_model_planner_job_builds_and_checks(tmp_path, monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    state = load_level(get_level("level_2"), 2, seed=0)
    planner = workloads._CapturingPlanner()  # calls ScriptedPlanner.plan with 5 positional arguments
    plan, response = planner.plan("prompt", state, state.agent_ids(), None, ())
    assert planner.texts == [response.text] == [plan.to_text()]

    monkeypatch.chdir(tmp_path)
    job = workloads.KitchenModel(seed=1)._job(tmp_path, "level_2", 2, 11, "planner", injected=False)
    out = tmp_path / "out"
    assert main([*job.argv, "--output", str(out)]) == 0
    record, stats = workloads.KitchenModel(seed=1).check(job, out)
    assert record["replan_failures"] == 0 and stats["fallbacks"] == 0


@pytest.mark.parametrize("name", ["assign-ties", "assign-wide"])
def test_assign_jobs_build_and_check(name, tmp_path, monkeypatch):
    workloads = load_bench_module("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name](seed=1)
    middle = workload.sizes[len(workload.sizes) // 2]  # the size of the median job
    jobs = [job for job in workload.build(tmp_path) if job.expect["n"] == middle]
    assert sorted(job.expect["allocator"] for job in jobs) == ["hungarian", "mock"]
    for job in jobs:
        out = tmp_path / job.expect["allocator"]
        assert main([*job.argv, "--output", str(out)]) == 0
        record, stats = workload.check(job, out)
        assert record["n"] == middle and stats["work"] == stats["graded"] == len(job.expect["matrices"])
