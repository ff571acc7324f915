"""End-to-end CLI tests: artifacts, replay, config handling, exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim import assignment as asg
from allocsim import coordination
from allocsim.assignment import brute_force_solve, generate_instance
from allocsim.cli import build_parser, main
from allocsim.coordination import parse_action
from allocsim.kitchen import EpisodeOver, LevelConfig, Noop, load_level, observation_hash
from allocsim.kitchen import step as kitchen_step
from allocsim.levels import get_level
from allocsim.seeding import derive_seed

from conftest import random_level, read_candidates, read_instances


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def canonical(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestAssignEval:
    def test_hungarian_self_oracle(self, tmp_path):
        out = tmp_path / "run"
        code = main(["assign-eval", "--seed", "3", "--instances", "15",
                     "--allocator", "hungarian", "--output", str(out)])
        assert code == 0
        score = read_json(out / "score.json")
        assert score["accuracy"] == 1.0
        assert score["validity_rate"] == 1.0

    def test_mock_allocator_with_invalid_candidates(self, tmp_path):
        mock_file = tmp_path / "mock.json"
        canned = [
            {"mapping": [0, 0], "claimed_cost": None, "raw_text": "dup"},
            'Final answer: {"mapping": [0, 1], "claimed_cost": 0}',
            {"mapping": None, "claimed_cost": None, "raw_text": "???"},
        ]
        mock_file.write_text(json.dumps(canned), encoding="utf-8")
        out = tmp_path / "run"
        code = main(["assign-eval", "--seed", "8", "--instances", "3",
                     "--n-min", "2", "--n-max", "2",
                     "--allocator", "mock", "--mock-file", str(mock_file),
                     "--output", str(out)])
        assert code == 0
        score = read_json(out / "score.json")
        assert score["validity_rate"] < 1.0
        rows = score["per_instance"]
        assert "DuplicateAgent" in rows[0]["violations"]

    def test_greedy_accuracy_matches_brute_force_check(self, tmp_path):
        out = tmp_path / "run"
        seed = 11
        code = main(["assign-eval", "--seed", str(seed), "--instances", "100",
                     "--allocator", "greedy", "--output", str(out)])
        assert code == 0
        instances = read_instances((out / "instances.json").read_text())
        candidates = read_candidates((out / "candidates.json").read_text())
        expected_hits = 0
        for matrix, candidate in zip(instances, candidates):
            optimal = brute_force_solve(matrix)
            if abs(matrix.cost_of([int(a) for a in candidate.mapping]) - optimal.total_cost) <= 1e-9:
                expected_hits += 1
        score = read_json(out / "score.json")
        assert score["accuracy"] == pytest.approx(expected_hits / 100)

    def test_instance_generation_is_seed_derived(self, tmp_path):
        out = tmp_path / "run"
        main(["assign-eval", "--seed", "21", "--instances", "2", "--n-min", "3",
              "--n-max", "3", "--allocator", "hungarian", "--output", str(out)])
        instances = read_instances((out / "instances.json").read_text())
        assert instances[0] == generate_instance(3, derive_seed(21, "instance", 0), 0, 99)

    def test_artifact_bytes_round_trip(self, tmp_path):
        out = tmp_path / "run"
        main(["assign-eval", "--seed", "4", "--instances", "5",
              "--allocator", "greedy", "--output", str(out)])
        for name in ("score.json",):
            raw = (out / name).read_text(encoding="utf-8")
            assert canonical(json.loads(raw)) == raw
        for name in ("instances.json", "candidates.json"):
            raw = (out / name).read_text(encoding="utf-8")
            assert json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n" == raw

    def test_one_solve_per_instance(self, tmp_path, monkeypatch):
        calls = []
        solve = asg.hungarian_solve

        def counted(matrix):
            calls.append(matrix)
            return solve(matrix)

        monkeypatch.setattr(asg, "hungarian_solve", counted)
        out = tmp_path / "run"
        code = main(["assign-eval", "--seed", "5", "--instances", "3",
                     "--allocator", "hungarian", "--output", str(out)])
        assert code == 0
        assert calls == read_instances((out / "instances.json").read_text())
        assert read_json(out / "score.json")["accuracy"] == 1.0

    def test_config_error_exit_code(self, tmp_path):
        code = main(["assign-eval", "--seed", "1", "--instances", "0",
                     "--allocator", "hungarian", "--output", str(tmp_path / "x")])
        assert code == 2


class TestKitchenRun:
    def test_single_mode_artifacts(self, tmp_path):
        out = tmp_path / "kr"
        code = main(["kitchen-run", "--seed", "5", "--level", "level_1",
                     "--agents", "2", "--mode", "individual", "--output", str(out)])
        assert code == 0
        for name in ("trace.jsonl", "report.json", "efficiency.json", "histogram.csv", "ledger.csv"):
            assert (out / name).exists()
        report = read_json(out / "report.json")
        assert report["completed_orders"] >= 1
        assert report["mode"] == "individual"

    def test_mode_sweep_emits_three_reports(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["kitchen-run", "--seed", "5", "--level", "level_1", "--agents", "2",
                     "--mode", "all", "--output", str(out)])
        assert code == 0
        reports = {}
        for mode in ("individual", "orchestrator", "planner"):
            reports[mode] = read_json(out / mode / "report.json")
        assert reports["planner"]["planner_invocations"] >= 1

    def test_zero_budget_runs_no_steps(self, tmp_path):
        out = tmp_path / "kr"
        assert main([*_KITCHEN_BASE, "--agents", "2", "--budget", "0", "--output", str(out)]) == 0
        for mode in ("individual", "orchestrator", "planner"):
            assert read_json(out / mode / "report.json")["steps"] == 0
            assert main(["replay", "--trace", str(out / mode / "trace.jsonl")]) == 0
        sweep = tmp_path / "cs"
        assert main([*_SWEEP_BASE, "--workers", "scripted", "--budget", "0", "--output", str(sweep)]) == 0
        assert read_json(sweep / "informed" / "report.json")["steps"] == 0

    def test_report_bytes_round_trip(self, tmp_path):
        out = tmp_path / "kr"
        main(["kitchen-run", "--seed", "5", "--level", "level_1",
              "--agents", "1", "--mode", "individual", "--output", str(out)])
        for name in ("report.json", "efficiency.json"):
            raw = (out / name).read_text(encoding="utf-8")
            assert canonical(json.loads(raw)) == raw
        trace_lines = (out / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        for line in trace_lines:
            assert json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == line

    def test_golden_trace_hash(self, tmp_path):
        # frozen after the first verified run; any simulator or policy
        # change that shifts behavior must be deliberate
        out = tmp_path / "kr"
        main(["kitchen-run", "--seed", "2024", "--level", "level_1",
              "--agents", "1", "--mode", "individual", "--output", str(out)])
        report = read_json(out / "report.json")
        repeat = tmp_path / "kr2"
        main(["kitchen-run", "--seed", "2024", "--level", "level_1",
              "--agents", "1", "--mode", "individual", "--output", str(repeat)])
        assert read_json(repeat / "report.json")["final_observation_hash"] == report["final_observation_hash"]
        assert report["completed_orders"] == 5

    def test_unknown_level_and_mode_are_config_errors(self, tmp_path):
        assert main(["kitchen-run", "--seed", "1", "--level", "level_99",
                     "--agents", "1", "--mode", "individual",
                     "--output", str(tmp_path / "x")]) == 2
        assert main(["kitchen-run", "--seed", "1", "--level", "level_1",
                     "--agents", "1", "--mode", "swarm",
                     "--output", str(tmp_path / "y")]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "seed": 5, "level": "level_1", "agents": 2, "mode": "individual",
            "output": str(tmp_path / "from_config"),
        }), encoding="utf-8")
        out = tmp_path / "override"
        code = main(["kitchen-run", "--config", str(config), "--output", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert not (tmp_path / "from_config").exists()
        report = read_json(out / "report.json")
        assert report["agent_count"] == 2  # taken from the config file

    def test_orchestrator_mode_ignores_worker_bindings(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bindings": {
            "workers": {"kind": "mock", "model_id": "m", "script": str(tmp_path / "absent.json")},
        }}), encoding="utf-8")
        assert main(["kitchen-run", "--seed", "5", "--level", "level_1", "--agents", "2",
                     "--mode", "orchestrator", "--config", str(config),
                     "--output", str(tmp_path / "kr")]) == 0


def _flip_first_result(record: dict) -> None:
    result = record["results"][min(record["results"])]
    result["ok"] = not result["ok"]


def _garble_first_action(record: dict) -> None:
    record["actions"]["agent0"] = "teleport(agent0"  # no parser reads it, so replay acts a noop


# one-field changes of a step record, by the field ``replay`` must name
_STEP_MUTATIONS = {
    "actions": _garble_first_action,
    "results": _flip_first_result,
    "events": lambda r: r["events"].append({"kind": "order_completed", "dish": "phantom", "step": r["step"]}),
    "observation_hash": lambda r: r.update(observation_hash="0" * 64),
}


def reference_replay(trace: Path) -> int:
    """``replay`` as its own step loop, kept as the oracle for well-formed traces.

    Each record's action texts are parsed (a missing, unparseable or
    misaddressed text is a noop), the joint action is stepped, and the
    outcome is compared field by field with the record.
    """
    lines = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines() if line.strip()]
    header = lines[0]
    state = load_level(LevelConfig.from_json_dict(header["level"]), int(header["agent_count"]), int(header["seed"]))
    roster = state.agent_ids()
    location_ids = sorted(state.locations)

    mismatches = 0
    for record in lines[1:]:
        step_index = state.step
        texts = record.get("actions", {})
        actions = {}
        for agent in roster:
            parsed = parse_action(texts.get(agent, ""), roster, location_ids)
            actions[agent] = parsed if parsed is not None and parsed.agent == agent else Noop(agent)
        try:
            outcome = kitchen_step(state, actions)
        except EpisodeOver:
            print(f"replay: step {record.get('step')} exceeds the episode length")
            return 1
        replayed = {
            "step": step_index,
            "actions": {agent: action.to_text() for agent, action in actions.items()},
            "results": {agent: {"ok": reason is None, "reason": None if reason is None else reason.value}
                        for agent, reason in outcome.per_agent_result.items()},
            "events": [e.to_json_dict() for e in outcome.events],
            "observation_hash": observation_hash(state),
        }
        diverged = next((key for key, value in replayed.items() if record.get(key) != value), None)
        if diverged is not None:
            mismatches += 1
            print(f"replay: mismatch at step {record.get('step')}: {diverged}")
    if mismatches:
        print(f"replay: FAILED with {mismatches} mismatching steps")
        return 1
    print(f"replay: OK, {len(lines) - 1} steps verified")
    return 0


def _random_trace(tmp: Path, level_seed: int, agents: int, mode: str) -> Path:
    """The trace of a full-length ``kitchen-run`` on ``random_level(level_seed)``."""
    level = tmp / "level.json"
    level.write_text(json.dumps(random_level(level_seed).to_json_dict()), encoding="utf-8")
    trace = tmp / "run" / "trace.jsonl"
    assert main(["kitchen-run", "--seed", str(level_seed), "--level", str(level), "--agents", str(agents),
                 "--mode", mode, "--output", str(trace.parent)]) == 0
    return trace


def _edit_trace(trace: Path, edit) -> None:
    """Rewrite ``trace`` after ``edit`` changed its list of step records in place."""
    header, *records = trace.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in records]
    edit(records)
    lines = [header, *(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)]
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _append_past_end(records: list, pick: int) -> None:
    last = records[-1] if records else {"actions": {}}
    for _ in range(1 + pick % 3):
        records.append({**json.loads(json.dumps(last)), "step": len(records)})


def _drop_agent(records: list, pick: int) -> None:
    actions = records[pick % len(records)]["actions"]
    if actions:
        del actions[sorted(actions)[pick % len(actions)]]


# trace edits for the differential test: (step records, pick) -> None
_TRACE_MUTATIONS = {
    **{field: (lambda records, pick, mutate=mutate: mutate(records[pick % len(records)]))
       for field, mutate in _STEP_MUTATIONS.items()},
    "drop-agent": _drop_agent,
    # a parseable action that always fails, so its results differ too
    "failing-action": lambda records, pick: records[pick % len(records)]["actions"].update(
        agent0="get(agent0, servingtable0, ghost)"),
    "unknown-agent": lambda records, pick: records[pick % len(records)]["actions"].update(
        {f"agent{6 + pick % 3}": "goto(agent0, storage0)"}),
    "step": lambda records, pick: records[pick % len(records)].update(step=pick % 100),
    "append-past-end": _append_past_end,
    "truncate": lambda records, pick: records.__delitem__(slice(pick % (len(records) + 1), None)),
}
_EMPTY_OK = {"append-past-end", "truncate"}


class TestReplay:
    def test_replay_matches(self, tmp_path):
        out = tmp_path / "kr"
        main(["kitchen-run", "--seed", "5", "--level", "level_2",
              "--agents", "2", "--mode", "planner", "--output", str(out)])
        assert main(["replay", "--trace", str(out / "trace.jsonl")]) == 0

    def test_replay_detects_tampering(self, tmp_path, capsys):
        trace = tmp_path / "kr" / "trace.jsonl"

        def replay_tampered(line, mutate):
            main(["kitchen-run", "--seed", "5", "--level", "level_1",
                  "--agents", "1", "--mode", "individual", "--output", str(trace.parent)])
            lines = trace.read_text(encoding="utf-8").splitlines()
            record = json.loads(lines[line])
            mutate(record)
            lines[line] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
            capsys.readouterr()
            assert main(["replay", "--trace", str(trace)]) == 1
            return capsys.readouterr().out

        failed_one = "replay: FAILED with 1 mismatching steps\n"
        out = replay_tampered(10, lambda r: r.update(observation_hash="0" * 64))
        assert out == "replay: mismatch at step 9: observation_hash\n" + failed_one
        # an action text no parser can read is a mismatch, not a crash
        out = replay_tampered(3, lambda r: r["actions"].update(agent0="teleport(agent0"))
        assert out.startswith("replay: mismatch at step 2: actions\n")
        # a flipped per-agent result, with everything else intact
        out = replay_tampered(3, lambda r: r["results"]["agent0"].update(ok=not r["results"]["agent0"]["ok"]))
        assert out == "replay: mismatch at step 2: results\n" + failed_one

    def test_replay_missing_file(self, tmp_path):
        assert main(["replay", "--trace", str(tmp_path / "nope.jsonl")]) == 2

    def _level_1_trace(self, tmp_path, agents):
        trace = tmp_path / "kr" / "trace.jsonl"
        assert main(["kitchen-run", "--seed", "5", "--level", "level_1", "--agents", str(agents),
                     "--mode", "individual", "--output", str(trace.parent)]) == 0
        return trace

    def test_records_past_the_episode_end(self, tmp_path, capsys):
        trace = self._level_1_trace(tmp_path, 1)

        def tamper_and_extend(records):
            assert len(records) == get_level("level_1").max_steps
            records[9]["observation_hash"] = "0" * 64
            _append_past_end(records, 1)

        _edit_trace(trace, tamper_and_extend)
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == 1
        # the mismatches come first, then the first record past the end; no FAILED summary
        assert capsys.readouterr().out == (
            "replay: mismatch at step 9: observation_hash\n"
            "replay: step 60 exceeds the episode length\n"
        )

    def test_header_only_trace(self, tmp_path, capsys):
        trace = self._level_1_trace(tmp_path, 2)
        _edit_trace(trace, list.clear)
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == "replay: OK, 0 steps verified\n"

    def test_missing_agent_action_is_a_noop(self, tmp_path, capsys):
        trace = self._level_1_trace(tmp_path, 2)

        def drop_agent1(records):
            assert records[0]["actions"]["agent1"] == "noop(agent1)"
            del records[0]["actions"]["agent1"]

        _edit_trace(trace, drop_agent1)
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == 1
        # agent1 noops as recorded, so only the action texts differ and later steps match
        assert capsys.readouterr().out == (
            "replay: mismatch at step 0: actions\n"
            "replay: FAILED with 1 mismatching steps\n"
        )

    def test_renumbered_records_are_mismatches(self, tmp_path, capsys):
        trace = self._level_1_trace(tmp_path, 1)

        def renumber(records):
            records[3]["step"] = records[7]["step"] = 41
            del records[12]["step"]

        _edit_trace(trace, renumber)
        capsys.readouterr()
        assert main(["replay", "--trace", str(trace)]) == 1
        assert capsys.readouterr().out == (
            "replay: mismatch at step 41: step\n"
            "replay: mismatch at step 41: step\n"
            "replay: mismatch at step None: step\n"
            "replay: FAILED with 3 mismatching steps\n"
        )

    @given(level_seed=st.integers(0, 10**6), agents=st.integers(1, 6),
           mode=st.sampled_from(["individual", "orchestrator", "planner"]),
           pick=st.integers(0, 10**6), field=st.sampled_from(sorted(_STEP_MUTATIONS)))
    @settings(max_examples=30, deadline=None)
    def test_random_level_trace_replays_and_names_a_mutated_field(self, level_seed, agents, mode, pick, field):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
            trace = _random_trace(Path(tmp), level_seed, agents, mode)
            assert main(["replay", "--trace", str(trace)]) == 0

            lines = trace.read_text(encoding="utf-8").splitlines()
            index = 1 + pick % (len(lines) - 1)
            record = json.loads(lines[index])
            _STEP_MUTATIONS[field](record)
            lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
            trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
            out.truncate(0)
            out.seek(0)
            assert main(["replay", "--trace", str(trace)]) == 1
        assert out.getvalue().splitlines()[0] == f"replay: mismatch at step {record['step']}: {field}"

    @given(level_seed=st.integers(0, 10**6), agents=st.integers(1, 6),
           mode=st.sampled_from(["individual", "orchestrator", "planner"]),
           edits=st.lists(st.tuples(st.sampled_from(sorted(_TRACE_MUTATIONS)), st.integers(0, 10**6)), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_replay_agrees_with_reference_replay(self, level_seed, agents, mode, edits):
        def mutate(records):
            for name, pick in edits:
                if records or name in _EMPTY_OK:
                    _TRACE_MUTATIONS[name](records, pick)

        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):
                trace = _random_trace(Path(tmp), level_seed, agents, mode)
            _edit_trace(trace, mutate)
            with contextlib.redirect_stdout(io.StringIO()) as expected:
                expected_code = reference_replay(trace)
            with contextlib.redirect_stdout(io.StringIO()) as actual:
                code = main(["replay", "--trace", str(trace)])
        assert (code, actual.getvalue()) == (expected_code, expected.getvalue())


class TestCapabilitySweep:
    def test_paired_runs_and_comparison(self, tmp_path):
        out = tmp_path / "cs"
        code = main(["capability-sweep", "--seed", "9", "--level", "level_1",
                     "--workers", "scripted:0.0,scripted:0.5", "--output", str(out)])
        assert code == 0
        comparison = read_json(out / "comparison.json")
        assert "success rate" in comparison["capability_hint"]
        onthefly = read_json(out / "onthefly" / "report.json")
        informed = read_json(out / "informed" / "report.json")
        assert not any("success rate" in p for p in onthefly["planner_prompts"])
        assert all("success rate" in p for p in informed["planner_prompts"])

    def test_paired_seeds_share_order_schedule(self, tmp_path):
        out = tmp_path / "cs"
        main(["capability-sweep", "--seed", "10", "--level", "level_3",
              "--workers", "scripted:0.0,scripted:0.3", "--output", str(out)])
        on_head = (out / "onthefly" / "trace.jsonl").read_text().splitlines()[0]
        in_head = (out / "informed" / "trace.jsonl").read_text().splitlines()[0]
        assert json.loads(on_head)["seed"] == json.loads(in_head)["seed"]
        on_events = [json.loads(l)["events"] for l in (out / "onthefly" / "trace.jsonl").read_text().splitlines()[1:]]
        in_events = [json.loads(l)["events"] for l in (out / "informed" / "trace.jsonl").read_text().splitlines()[1:]]
        on_introduced = [e for step in on_events for e in step if e["kind"] == "order_introduced"]
        in_introduced = [e for step in in_events for e in step if e["kind"] == "order_introduced"]
        assert on_introduced == in_introduced

    def test_roster_required(self, tmp_path):
        assert main(["capability-sweep", "--seed", "1", "--output", str(tmp_path / "x")]) == 2

    def test_each_arm_computes_its_efficiency_once(self, tmp_path, monkeypatch):
        reports = []

        def counted(*args):
            reports.append(efficiency(*args))
            return reports[-1]

        efficiency = coordination.efficiency
        monkeypatch.setattr(coordination, "efficiency", counted)
        out = tmp_path / "cs"
        assert main(["capability-sweep", "--seed", "1", "--level", "level_1", "--budget", "20",
                     "--workers", "scripted:0.0,scripted:0.5", "--output", str(out)]) == 0
        assert len(reports) == 2
        for arm, report in zip(("onthefly", "informed"), reports):
            assert read_json(out / arm / "efficiency.json") == report.to_json_dict()


def _tree(root: Path) -> dict[str, bytes]:
    return {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*") if path.is_file()}


def test_one_parser_serves_successive_calls(tmp_path, capsys):
    # every mapping is optimal at all-zero costs, so only --strict-mapping
    # marks the random allocator's non-canonical answers wrong
    assign = ["assign-eval", "--seed", "2", "--instances", "4", "--n-min", "3", "--n-max", "5",
              "--lo", "0", "--hi", "0", "--allocator", "random"]
    runs = [[*assign, "--strict-mapping"], assign,
            ["kitchen-run", "--seed", "1", "--level", "level_1", "--agents", "2", "--budget", "5"]]
    printed = []
    for i, argv in enumerate(runs):
        assert main([*argv, "--output", str(tmp_path / f"shared{i}")]) == 0
        printed.append(capsys.readouterr().out)
    for i, argv in enumerate(runs):
        args = build_parser().parse_args([*argv, "--output", str(tmp_path / f"fresh{i}")])
        assert args.func(args) == 0
        assert capsys.readouterr().out == printed[i]
        assert _tree(tmp_path / f"shared{i}") == _tree(tmp_path / f"fresh{i}")
    strict, lenient = (read_json(tmp_path / f"shared{i}" / "score.json")["accuracy"] for i in (0, 1))
    assert strict < lenient == 1.0


def _config_run(argv, conf):
    """Argv builder: ``argv`` plus a config file holding ``conf(tmp_path)``."""
    def build(tmp_path):
        path = tmp_path / "config.json"
        payload = conf(tmp_path) if callable(conf) else conf
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload), encoding="utf-8")
        return [*argv, "--config", str(path), "--output", str(tmp_path / "out")]
    return build


def _mock_binding(role, script_text=None, **spec):
    """Config with one mock binding for ``role``; no script file when ``script_text`` is None."""
    def conf(tmp_path):
        script = tmp_path / "script.json"
        if script_text is not None:
            script.write_text(script_text, encoding="utf-8")
        binding = {"kind": "mock", "model_id": "m", "script": str(script), **spec}
        return {"bindings": {role: {k: v for k, v in binding.items() if v is not None}}}
    return conf


def _file_setting(key, text):
    """Config whose ``key`` names a file holding ``text``."""
    def conf(tmp_path):
        path = tmp_path / f"{key}.json"
        path.write_text(text, encoding="utf-8")
        return {key: str(path)}
    return conf


def _replay_run(text):
    """Argv builder: ``replay`` of a trace file holding ``text``."""
    def build(tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(text, encoding="utf-8")
        return ["replay", "--trace", str(path)]
    return build


def _trace(*records, **header):
    """Trace text: a level_1 header for 2 agents updated by ``header`` (None drops a key), then ``records``."""
    fields = {"kind": "trace_header", "level": get_level("level_1").to_json_dict(), "agent_count": 2,
              "seed": 1, "mode": "individual", "budget": None, **header}
    lines = [{k: v for k, v in fields.items() if v is not None}, *records]
    return "".join(json.dumps(line) + "\n" for line in lines)


def _level_1_with_input_count(count):
    """level_1's JSON with its first recipe step taking ``count`` salmon."""
    payload = get_level("level_1").to_json_dict()
    payload["recipes"][0]["steps"][0]["inputs"] = {"salmon": count}
    return payload


_KITCHEN_BASE = ["kitchen-run", "--seed", "1", "--level", "level_1", "--mode", "all"]
_KITCHEN = [*_KITCHEN_BASE, "--agents", "2", "--budget", "3"]
_SWEEP_BASE = ["capability-sweep", "--seed", "1", "--level", "level_1"]
_SWEEP = [*_SWEEP_BASE, "--budget", "3"]
_ASSIGN = ["assign-eval", "--seed", "1", "--instances", "2"]
_ENTRY = '[{"text": "noop(agent0)", "tokens_in": 1, "tokens_out": 1}]'

BAD_INPUT = [
    pytest.param(_config_run([*_KITCHEN_BASE, "--agents", "9"], {}), id="agents-out-of-range"),
    pytest.param(_config_run([*_SWEEP, "--workers", "scripted:abc"], {}), id="flaky-rate-not-a-number"),
    pytest.param(_config_run([*_SWEEP, "--workers", "scripted:1.5"], {}), id="flaky-rate-above-one"),
    pytest.param(_config_run(_KITCHEN, {"bindings": {"workers": {"kind": "flaky", "failure_rate": "x"}}}),
                 id="flaky-kind-rate-not-a-number"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("workers", _ENTRY, model_id=None)), id="mock-without-model-id"),
    pytest.param(_config_run(_KITCHEN, {"bindings": {"planner": {"kind": "model"}}}), id="model-without-model-id"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("workers", _ENTRY, max_retries="two")),
                 id="max-retries-not-an-int"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("orchestrator", _ENTRY, max_retries=-1)),
                 id="max-retries-negative"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("workers")), id="missing-script"),
    # --mode all: the bad binding belongs to a later mode than individual
    pytest.param(_config_run(_KITCHEN, {"bindings": {"orchestrator": {"kind": "bogus"}}}),
                 id="all-modes-bad-orchestrator"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("planner")), id="all-modes-planner-script-missing"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("planner", "{not json")), id="script-not-json"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("workers", '[{"txt": "noop(agent0)"}]')),
                 id="script-entry-unknown-key"),
    pytest.param(_config_run(_KITCHEN, _mock_binding("workers", '"noop(agent0)"')), id="script-not-a-list"),
    pytest.param(_config_run(_KITCHEN, "[1, 2]"), id="config-not-an-object"),
    pytest.param(_config_run(_KITCHEN, "{"), id="config-not-json"),
    pytest.param(_config_run([*_KITCHEN_BASE, "--agents", "2"], {"budget": "ten"}), id="kitchen-budget-not-an-int"),
    pytest.param(_config_run([*_SWEEP_BASE, "--workers", "scripted"], {"budget": "ten"}),
                 id="sweep-budget-not-an-int"),
    pytest.param(_config_run([*_KITCHEN_BASE, "--agents", "2", "--budget", "-3"], {}), id="kitchen-budget-negative"),
    pytest.param(_config_run([*_SWEEP_BASE, "--workers", "scripted", "--budget", "-2"], {}),
                 id="sweep-budget-negative"),
    *[
        pytest.param(_config_run(_ASSIGN, {key: "x"}), id=f"assign-{key}-not-an-int")
        for key in ("n_min", "n_max", "lo", "hi")
    ],
    pytest.param(_config_run([*_ASSIGN, "--lo", "5", "--hi", "1"], {}), id="assign-lo-above-hi"),
    pytest.param(_config_run([*_ASSIGN, "--lo", "-1"], {}), id="assign-lo-negative"),
    pytest.param(_config_run([*_ASSIGN, "--hi", "10000000000000000000"], {}), id="assign-hi-beyond-int64"),
    pytest.param(_config_run(_ASSIGN, {"allocator": "bogus"}), id="config-allocator-unknown"),
    pytest.param(_config_run([*_ASSIGN, "--allocator", "mock", "--mock-file", "absent.json"], {}),
                 id="missing-mock-file"),
    *[
        pytest.param(_config_run([*_ASSIGN, "--allocator", "mock"], _file_setting("mock_file", text)), id=name)
        for name, text in [
            ("mock-file-an-object", '{"a": 1}'),
            ("mock-file-a-string", '"task 0 -> agent 0"'),
            ("mock-entry-a-number", '[5]'),
            ("mock-entry-mapping-a-number", '[{"mapping": 5}]'),
        ]
    ],
    pytest.param(_config_run([*_ASSIGN, "--allocator", "mock", "--n-min", "2", "--n-max", "2"],
                             _file_setting("mock_file", '[{"mapping": [0, 1], "claimed_cost": "x"}, "task 0 -> agent 0"]')),
                 id="mock-entry-cost-a-string"),
    pytest.param(_config_run(["kitchen-run", "--seed", "1", "--agents", "2"], _file_setting("level", '{"level_id": "x"}')),
                 id="level-file-malformed"),
    pytest.param(_config_run(["kitchen-run", "--seed", "1", "--agents", "2"], _file_setting("level", json.dumps(
        _level_1_with_input_count(0)))), id="level-file-input-count-zero"),
    *[
        pytest.param(_config_run(argv, {key: value}), id=f"config-{key}-wrong-type")
        for argv, key, value in [
            (["kitchen-run", "--seed", "1", "--agents", "2"], "mode", 5),
            (["kitchen-run", "--seed", "1", "--agents", "2"], "level", 5),
            (["kitchen-run", "--seed", "1", "--agents", "2"], "bindings", ["scripted"]),
            (_SWEEP, "workers", 5),
            ([*_ASSIGN, "--allocator", "mock"], "mock_file", 5),
        ]
    ],
    pytest.param(_config_run(["capability-sweep", "--seed", "1", "--workers", "scripted"],
                             _file_setting("level", '{"level_id": "x"}')),
                 id="sweep-level-file-malformed"),
    pytest.param(_replay_run("not json\n"), id="trace-line-not-json"),
    pytest.param(_replay_run("[1]\n"), id="trace-header-not-an-object"),
    pytest.param(_replay_run(_trace([1])), id="trace-step-not-an-object"),
    pytest.param(_replay_run(_trace({"step": 0, "actions": "goto"})), id="trace-step-actions-not-an-object"),
    pytest.param(_replay_run(_trace({"step": 0, "actions": {"agent0": 5}})), id="trace-step-action-not-a-string"),
    pytest.param(_replay_run(_trace(level=None)), id="trace-header-without-level"),
    pytest.param(_replay_run(_trace(agent_count=9)), id="trace-header-agent-count-out-of-range"),
]


@pytest.mark.parametrize("build_argv", BAD_INPUT)
def test_bad_input_is_a_config_error(build_argv, tmp_path, capsys):
    code = main(build_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("role", ["workers", "orchestrator", "planner"])
@pytest.mark.parametrize("spec", [
    pytest.param({"auth_env_var": "ALLOCSIM_TEST_KEY"}, id="no-endpoint"),
    pytest.param({"endpoint_url": "http://127.0.0.1:9/v1", "auth_env_var": "ALLOCSIM_TEST_UNSET"}, id="auth-unset"),
    pytest.param({"endpoint_url": "http://127.0.0.1:9/v1"}, id="no-auth-variable"),
])
def test_unusable_model_binding_fails_before_step_0(role, spec, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ALLOCSIM_TEST_KEY", "secret")
    monkeypatch.delenv("ALLOCSIM_TEST_UNSET", raising=False)
    mode = "individual" if role == "workers" else role
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"bindings": {role: {"kind": "model", "model_id": "m", **spec}}}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["kitchen-run", "--seed", "1", "--level", "level_1", "--agents", "2", "--budget", "3",
                 "--mode", mode, "--config", str(config), "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
