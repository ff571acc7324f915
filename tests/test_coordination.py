"""Topology, parsing, and episode-loop tests with scripted policies."""

from __future__ import annotations

import copy
import gc
import inspect
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim import coordination, kitchen
from allocsim.accounting import CostLedger, LedgerRow
from allocsim.coordination import (
    ControllerMode,
    Plan,
    PolicyQuery,
    PolicyResponse,
    format_event,
    parse_action,
    parse_joint_actions,
    parse_plan_text,
    planner_replan,
    run_episode,
)
from allocsim.gateway import (
    CompletionResult,
    GatewayError,
    HttpTransport,
    MockEntry,
    ModelBinding,
    install_mock,
)
from allocsim.kitchen import (
    EventKind,
    Get,
    Goto,
    KitchenEvent,
    LevelConfig,
    Noop,
    load_level,
    observation_hash,
)
from allocsim.levels import get_level
from allocsim.policies import (
    FlakyWorker,
    GatewayOrchestrator,
    GatewayPlanner,
    GatewayWorker,
    RecordedWorker,
    ScriptedOrchestrator,
    ScriptedPlanner,
    ScriptedWorker,
)

from conftest import scripted_individual_episode, scripted_planner_episode, stretched_level

ROSTER = ["agent0", "agent1"]
LOCATIONS = ["storage0", "servingtable0", "blender0", "blender1"]

# text in the shape of the action grammar: valid, misspelt and unknown ids mixed
ACTION_TEXT = st.from_regex(
    r"(?:[ a-z.:]{0,6}(?:goto|get|put|activate|noop|GOTO|Noop|fly) ?\("
    r"(?:agent[0-2]|AGENT1|)(?:, ?(?:storage0|Blender1|servingtable0|salmon|mars|)){0,3}\)\n?){1,4}",
    fullmatch=True,
)
PLAN_TEXT = st.from_regex(
    r"(?:(?:agent[0-2]|Agent1|agentX|) ?[:\-]? ?[a-z0-9 ();:-]{0,16}\n){1,4}", fullmatch=True
)


def assert_filed_under_own_agent(decisions):
    assert set(decisions) <= set(ROSTER)
    for agent, action in decisions.items():
        assert action is None or action.agent == agent


class TestParseAction:
    def test_plain_goto(self):
        assert parse_action("goto(agent0, blender0)", ROSTER, LOCATIONS) == Goto("agent0", "blender0")

    def test_prose_takes_last_match(self):
        action = parse_action(
            "I think agent1 should get(agent1, storage0, salmon)", ROSTER, LOCATIONS
        )
        assert action == Get("agent1", "storage0", "salmon")

    def test_unknown_verb_fails(self):
        assert parse_action("fly(agent0, moon)", ROSTER, LOCATIONS) is None

    def test_unknown_ids_fail(self):
        assert parse_action("goto(agent9, blender0)", ROSTER, LOCATIONS) is None
        assert parse_action("goto(agent0, nowhere)", ROSTER, LOCATIONS) is None

    def test_case_insensitive_grammar(self):
        assert parse_action("GOTO(Agent0, Blender0)", ROSTER, LOCATIONS) == Goto("agent0", "blender0")

    def test_noop_tolerates_optional_second_argument(self):
        assert parse_action("noop(agent0)", ROSTER, LOCATIONS) == Noop("agent0")
        assert parse_action("noop(agent0, blender0)", ROSTER, LOCATIONS) == Noop("agent0")

    def test_wrong_arity_fails(self):
        assert parse_action("get(agent0, storage0)", ROSTER, LOCATIONS) is None
        assert parse_action("goto(agent0)", ROSTER, LOCATIONS) is None

    def test_last_match_wins_even_if_invalid(self):
        text = "goto(agent0, blender0) but really goto(agent0, mars)"
        assert parse_action(text, ROSTER, LOCATIONS) is None

    @given(st.text(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_never_raises(self, text):
        parse_action(text, ROSTER, LOCATIONS)

    @given(ACTION_TEXT)
    @settings(max_examples=60, deadline=None)
    def test_grammar_shaped_text_never_raises(self, text):
        action = parse_action(text, ROSTER, LOCATIONS)
        assert action is None or action.agent in ROSTER

    @given(st.one_of(st.text(max_size=300), ACTION_TEXT))
    @settings(max_examples=60, deadline=None)
    def test_joint_parsing_never_raises(self, text):
        assert_filed_under_own_agent(parse_joint_actions(text, ROSTER, LOCATIONS))

    @given(st.one_of(st.text(max_size=300), PLAN_TEXT))
    @settings(max_examples=60, deadline=None)
    def test_plan_parsing_never_raises(self, text):
        directives = parse_plan_text(text, ROSTER)
        assert directives is None or set(directives) <= set(ROSTER)

    def test_joint_parsing_one_line_per_agent(self):
        text = "goto(agent0, storage0)\nnoop(agent1)\n"
        decisions = parse_joint_actions(text, ROSTER, LOCATIONS)
        assert decisions["agent0"] == Goto("agent0", "storage0")
        assert decisions["agent1"] == Noop("agent1")

    def test_joint_parsing_missing_agent(self):
        decisions = parse_joint_actions("goto(agent0, storage0)", ROSTER, LOCATIONS)
        assert "agent1" not in decisions

    def test_joint_parsing_last_statement_per_agent_wins(self):
        text = "goto(agent0, storage0)\nnoop(agent1)\ngoto(agent0, mars)\n"
        assert parse_joint_actions(text, ROSTER, LOCATIONS) == {"agent0": None, "agent1": Noop("agent1")}


class TestPlannerReplan:
    def test_step0_single_order_two_agents_both_directed(self, level_1):
        state = load_level(level_1, 2, seed=0)
        introduced = KitchenEvent(EventKind.ORDER_INTRODUCED, "salmonMeatcake", 0)
        outcome = planner_replan(
            observation="obs",
            events=(introduced,),
            prior=None,
            roster=state.agent_ids(),
            backend=ScriptedPlanner(),
            state=state,
        )
        plan = outcome.plan
        assert not outcome.failed
        for agent_id in ("agent0", "agent1"):
            directives = plan.directives[agent_id]
            assert directives and directives[0].dish == "salmonMeatcake"
        # run_episode hands the initial replan the step-0 introduction
        report = scripted_planner_episode(level_1, 2, seed=0, budget=0)
        assert f"- {format_event(introduced)}\n" in report.planner_prompts[0]

    def test_expired_order_absent_from_new_plan(self, level_1):
        # idle workers let the first order expire at step 9
        state = load_level(level_1, 1, seed=0)
        report = run_episode(
            ControllerMode.PLANNER,
            state,
            workers={"agent0": RecordedWorker([])},
            planner=ScriptedPlanner(),
            budget=10,
        )
        expired = [e for e in report.event_log if e.kind is EventKind.ORDER_EXPIRED]
        assert expired
        # the replan triggered by the expiry carries it and drops the dish
        final_plan_prompts = report.planner_prompts[-1]
        assert "order_expired" in final_plan_prompts
        # reconstruct the plan the backend would emit at that point
        assert report.planner_invocations == 2  # step 0 + expiry step

    def test_failed_backend_keeps_prior_plan(self, level_1):
        class BrokenPlanner:
            model_id = "broken"

            def plan(self, prompt, state, roster, prior, events):
                from allocsim.coordination import PolicyResponse

                return None, PolicyResponse(text="nonsense")

        state = load_level(level_1, 1, seed=0)
        prior = Plan(0, {"agent0": ("keep me",)})
        outcome = planner_replan(
            "obs", (), prior, ["agent0"], BrokenPlanner(), state
        )
        assert outcome.failed
        assert outcome.plan is prior

    def test_failed_backend_without_prior_idles(self, level_1):
        class BrokenPlanner:
            model_id = "broken"

            def plan(self, prompt, state, roster, prior, events):
                from allocsim.coordination import PolicyResponse

                return None, PolicyResponse(text="nonsense")

        state = load_level(level_1, 1, seed=0)
        outcome = planner_replan("obs", (), None, ["agent0"], BrokenPlanner(), state)
        assert outcome.failed
        assert outcome.plan.directives == {"agent0": ("idle",)}

    def test_capability_block_embedded_when_given(self, level_1):
        state = load_level(level_1, 1, seed=0)
        outcome = planner_replan(
            "obs", (), None, ["agent0"], ScriptedPlanner(), state,
            capability_block="Worker capabilities:\n- agent0 (m): success rate 0.50",
        )
        assert "success rate 0.50" in outcome.prompt


GOLDEN_LEVEL1_COMPLETED = 5  # frozen from the first verified scripted run


class TestRunEpisode:
    def test_scripted_individual_golden_count(self, level_1):
        report = scripted_individual_episode(level_1, 1, seed=2024)
        assert report.completed_orders == GOLDEN_LEVEL1_COMPLETED
        assert report.steps == 60

    def test_two_agents_at_least_one_agent_count(self, level_1):
        one = scripted_individual_episode(level_1, 1, seed=2024)
        two = scripted_individual_episode(level_1, 2, seed=2024)
        assert two.completed_orders >= one.completed_orders

    def test_deterministic_end_to_end(self, level_1):
        a = scripted_planner_episode(level_1, 2, seed=77)
        b = scripted_planner_episode(level_1, 2, seed=77)
        assert a.trace == b.trace
        assert a.event_log == b.event_log
        assert a.final_observation_hash == b.final_observation_hash

    def test_policy_call_counts_by_mode(self, level_1):
        state = load_level(level_1, 3, seed=1)
        individual = run_episode(
            ControllerMode.INDIVIDUAL,
            state.copy(),
            workers={a: ScriptedWorker() for a in state.agent_ids()},
            budget=20,
        )
        assert individual.policy_calls == {"worker": 60}
        central = run_episode(
            ControllerMode.ORCHESTRATOR, state.copy(), central=ScriptedOrchestrator(), budget=20
        )
        assert central.policy_calls == {"orchestrator": 20}

    @pytest.mark.parametrize("mode", [ControllerMode.INDIVIDUAL, ControllerMode.PLANNER])
    def test_histogram_and_capability_are_the_steps_summed(self, mode):
        # fallbacks, in-world failures and successes, folded at episode end,
        # equal the per-step sums read back from the trace, order included
        state = load_level(get_level("level_3"), 3, seed=2)
        texts = ["get(agent1, storage0, salmon)", "goto(agent1, storage0)", "activate(agent1, pot0)",
                 "put(agent1, pot0)", "no action here"] * 12
        workers = {"agent0": FlakyWorker(ScriptedWorker(), 0.3, seed=2),
                   "agent1": RecordedWorker(texts), "agent2": ScriptedWorker()}
        report = run_episode(mode, state, workers=workers, planner=ScriptedPlanner())
        fell_back = {(f.step, f.agent) for f in report.fallbacks}
        kinds, attempted, succeeded = {}, {}, {}
        for record in report.trace:
            for agent_id, text in record["actions"].items():
                kind = text.split("(")[0]
                kinds[kind] = kinds.get(kind, 0) + 1
                ok = record["results"][agent_id]["ok"] and (record["step"], agent_id) not in fell_back
                attempted[agent_id] = attempted.get(agent_id, 0) + 1
                succeeded[agent_id] = succeeded.get(agent_id, 0) + ok
        assert list(report.action_counts.items()) == list(kinds.items())
        cells = {agent: (cell.attempted, cell.succeeded) for (agent, _), cell in report.capability.cells.items()}
        assert cells == {a: (attempted[a], succeeded[a]) for a in state.agent_ids()}
        assert list(cells) == state.agent_ids()
        assert 0 < succeeded["agent1"] < attempted["agent1"] and fell_back

    def test_planner_trigger_contract(self, level_1):
        report = scripted_planner_episode(level_1, 2, seed=5)
        nonempty = sum(1 for record in report.trace if record["events"])
        assert report.planner_invocations == 1 + nonempty

    def test_one_action_per_agent_every_step(self, level_1):
        report = scripted_individual_episode(level_1, 2, seed=9)
        for record in report.trace:
            assert set(record["actions"]) == {"agent0", "agent1"}
        assert sum(report.action_counts.values()) == report.steps * 2

    def test_budget_respected(self, level_1):
        report = scripted_individual_episode(level_1, 1, seed=3, budget=7)
        assert report.steps == 7
        assert len(report.trace) == 7

    def test_binding_validation(self, level_1):
        state = load_level(level_1, 2, seed=0)
        with pytest.raises(ValueError):
            run_episode(ControllerMode.INDIVIDUAL, state, workers={"agent0": ScriptedWorker()})
        with pytest.raises(ValueError):
            run_episode(ControllerMode.ORCHESTRATOR, state)
        with pytest.raises(ValueError):
            run_episode(
                ControllerMode.PLANNER,
                state,
                workers={a: ScriptedWorker() for a in state.agent_ids()},
            )

    def test_malformed_responses_become_logged_noops(self, level_1):
        # every 4th transport response is structurally malformed
        script = []
        for i in range(12):
            if i % 4 == 3:
                script.append(MockEntry(malformed=True))
            else:
                script.append(MockEntry(text="noop(agent0)", tokens_in=50, tokens_out=5))
        transport = install_mock(script)
        worker = GatewayWorker(ModelBinding(model_id="gpt-4o-mini"), transport)
        state = load_level(level_1, 1, seed=0)
        report = run_episode(
            ControllerMode.INDIVIDUAL, state, workers={"agent0": worker}, budget=12
        )
        assert report.steps == 12
        assert len(report.fallbacks) == 3
        assert all("MalformedResponse" in f.reason for f in report.fallbacks)
        cell = report.capability.cell("agent0", "gpt-4o-mini")
        assert (cell.attempted, cell.succeeded) == (12, 9)
        # billed rows only for the 9 well-formed responses
        assert len(report.ledger.rows) == 9

    @pytest.mark.parametrize("counts", [{"tokens_in": -5}, {"tokens_out": -1}, {"tokens_in": True}])
    def test_bad_usage_from_a_worker_is_a_fallback(self, counts, level_1):
        script = [{"text": "noop(agent0)", "tokens_in": 50, "tokens_out": 5, **counts}]
        script += [{"text": "noop(agent0)", "tokens_in": 50 + i, "tokens_out": 5} for i in range(3)]
        worker = GatewayWorker(ModelBinding(model_id="gpt-4o-mini"), install_mock(script))
        report = run_episode(
            ControllerMode.INDIVIDUAL, load_level(level_1, 1, seed=0), workers={"agent0": worker}, budget=4
        )
        assert report.steps == 4
        assert [(f.step, f.reason.split(":")[0]) for f in report.fallbacks] == [(0, "MalformedResponse")]
        assert [(r.step, r.tokens_in) for r in report.ledger.rows] == [(1, 50), (2, 51), (3, 52)]

    @pytest.mark.parametrize("counts", [{"tokens_in": -5}, {"tokens_out": -1}, {"tokens_in": True}])
    def test_bad_usage_from_a_planner_keeps_the_prior_plan(self, counts, level_1):
        plan = "agent0: cook step 0 of salmonMeatcake (order 0) at blender0\nagent1: idle"
        script = [{"text": plan, "tokens_in": 300, "tokens_out": 20, **counts}]
        script += [{"text": plan, "tokens_in": 300, "tokens_out": 20}] * 60
        state = load_level(level_1, 2, seed=0)
        report = run_episode(
            ControllerMode.PLANNER, state, workers={a: ScriptedWorker() for a in state.agent_ids()},
            planner=GatewayPlanner(ModelBinding(model_id="gpt-4o"), install_mock(script)), budget=12,
        )
        assert report.steps == 12 and report.planner_invocations >= 2
        assert report.replan_failures == 1
        assert [r.role for r in report.ledger.rows] == ["planner"] * (report.planner_invocations - 1)
        assert report.ledger.rows[0].step > 0

    def test_retries_exhausted_becomes_noop_fallback(self, level_1):
        transport = install_mock([MockEntry(fail_transient=True)] * 3 +
                                 [MockEntry(text="noop(agent0)", tokens_in=1, tokens_out=1)])
        worker = GatewayWorker(ModelBinding(model_id="gpt-4o-mini", max_retries=2), transport)
        state = load_level(level_1, 1, seed=0)
        report = run_episode(
            ControllerMode.INDIVIDUAL, state, workers={"agent0": worker}, budget=2
        )
        assert len(report.fallbacks) == 1
        assert "RetriesExhausted" in report.fallbacks[0].reason

    def test_action_naming_other_agent_is_rejected(self, level_1):
        state = load_level(level_1, 2, seed=0)
        report = run_episode(
            ControllerMode.INDIVIDUAL,
            state,
            workers={
                "agent0": RecordedWorker(["goto(agent1, storage0)"]),
                "agent1": RecordedWorker([]),
            },
            budget=1,
        )
        assert report.fallbacks[0].reason == "action names another agent"
        assert report.trace[0]["actions"]["agent0"] == "noop(agent0)"

    @pytest.mark.parametrize("mode", list(ControllerMode))
    def test_capability_cells_name_the_acting_model(self, mode, level_1):
        # every role is bound, so a policy the mode does not use must not name a cell
        class Unused:
            model_id = "unused-model"

            def respond(self, query, state):
                raise AssertionError("a policy this mode does not use was called")

        state = load_level(level_1, 3, seed=4)
        roster = state.agent_ids()
        if mode is ControllerMode.ORCHESTRATOR:
            policies = {"workers": {a: Unused() for a in roster}, "central": ScriptedOrchestrator()}
        else:
            policies = {"workers": {a: ScriptedWorker() for a in roster}, "central": Unused()}
        report = run_episode(mode, state, planner=ScriptedPlanner(), budget=15, **policies)
        cells = report.capability.to_json_dict()
        assert list(cells) == [f"{a}/scripted" for a in roster]
        assert all(cell["attempted"] == 15 for cell in cells.values())

    def test_ledger_rows_match_mock_usage(self, level_1):
        script = [MockEntry(text="noop(agent0)", tokens_in=100 + i, tokens_out=10 + i) for i in range(5)]
        transport = install_mock(script)
        worker = GatewayWorker(ModelBinding(model_id="gpt-4o-mini"), transport)
        state = load_level(level_1, 1, seed=0)
        report = run_episode(
            ControllerMode.INDIVIDUAL, state, workers={"agent0": worker}, budget=5
        )
        rows = report.ledger.sorted_rows()
        assert [(r.tokens_in, r.tokens_out) for r in rows] == [
            (100 + i, 10 + i) for i in range(5)
        ]


def _salmon_routine(agent, blender):
    """Action texts that cook and serve one salmonMeatcake on level_1."""
    return [f"goto({agent}, storage0)", f"get({agent}, storage0, salmon)", f"goto({agent}, {blender})",
            f"put({agent}, {blender})", f"activate({agent}, {blender})", f"noop({agent})", f"noop({agent})",
            f"get({agent}, {blender}, salmonMeatcake)", f"goto({agent}, servingtable0)", f"put({agent}, servingtable0)"]


def _mock_texts(texts):
    return install_mock([MockEntry(text=t, tokens_in=10, tokens_out=2) for t in texts])


def _episode_policies(mode, roster, backing):
    """Every policy ``mode`` reads, scripted or behind mock transports that outlast a level_1 episode."""
    if backing == "scripted":
        workers = {a: ScriptedWorker() for a in roster}
        return {"workers": workers, "central": ScriptedOrchestrator(), "planner": ScriptedPlanner()}
    binding = ModelBinding(model_id="gpt-4o-mini")
    routines = {a: _salmon_routine(a, f"blender{i}") * 6 for i, a in enumerate(roster)}
    plan = "agent0: cook step 0 of salmonMeatcake (order 0) at blender0\nagent1: deliver salmonMeatcake (order 0) from blender0"
    return {
        "workers": {a: GatewayWorker(binding, _mock_texts(routines[a])) for a in roster},
        "central": GatewayOrchestrator(binding, _mock_texts("\n".join(lines) for lines in zip(*routines.values()))),
        "planner": GatewayPlanner(binding, _mock_texts([plan] * 61)),
    }


class TestInputState:
    @pytest.mark.parametrize("budget", [None, 25])
    @pytest.mark.parametrize("backing", ["scripted", "mock"])
    @pytest.mark.parametrize("mode", list(ControllerMode), ids=lambda m: m.value)
    def test_run_episode_leaves_its_input_alone(self, mode, backing, budget, level_1):
        state = load_level(level_1, 2, seed=3)
        before = copy.deepcopy(state)
        report = run_episode(mode, state, budget=budget, **_episode_policies(mode, state.agent_ids(), backing))

        assert report.steps == (budget or level_1.max_steps)
        assert report.final_observation_hash != observation_hash(before)
        assert state == before

    @pytest.mark.parametrize("budget", [0, 1, 60])
    @pytest.mark.parametrize("mode", list(ControllerMode), ids=lambda m: m.value)
    def test_one_copy_per_episode(self, mode, budget, level_1, monkeypatch):
        copies = []
        copy_state = kitchen.KitchenState.copy

        def counting_copy(state):
            copies.append(state.step)
            return copy_state(state)

        monkeypatch.setattr(kitchen.KitchenState, "copy", counting_copy)
        state = load_level(level_1, 2, seed=3)
        report = run_episode(mode, state, budget=budget, **_episode_policies(mode, state.agent_ids(), "scripted"))
        assert report.steps == budget
        assert copies == [0]


class _ObservationCheck:
    """Wraps a policy or planner; checks it is shown the live state's text."""

    def __init__(self, inner, render):
        self.inner, self.render, self.model_id = inner, render, inner.model_id

    def respond(self, query, state):
        assert query.observation == self.render(state)
        return self.inner.respond(query, state)

    def plan(self, prompt, state, roster, prior, events):
        assert prompt.startswith(self.render(state) + "\n")
        return self.inner.plan(prompt, state, roster, prior, events)


class TestRenderOnce:
    @pytest.mark.parametrize("budget", [0, 1, 25])
    @pytest.mark.parametrize("mode", list(ControllerMode))
    def test_each_state_is_rendered_once(self, mode, budget, monkeypatch):
        render, kitchen_step = kitchen.render_observation, coordination.kitchen_step
        renders, stepped = [], []

        def counting_render(state):
            renders.append(state.step)
            return render(state)

        def recording_step(state, joint):
            outcome = kitchen_step(state, joint)
            stepped.append(state.copy())  # the state changes again on the next step
            return outcome

        monkeypatch.setattr(coordination, "render_observation", counting_render)
        monkeypatch.setattr(kitchen, "render_observation", counting_render)
        monkeypatch.setattr(coordination, "kitchen_step", recording_step)
        state = load_level(get_level("level_3"), 3, seed=5)
        if mode is ControllerMode.ORCHESTRATOR:
            policies = {"central": _ObservationCheck(ScriptedOrchestrator(), render)}
        else:
            policies = {"workers": {a: _ObservationCheck(ScriptedWorker(), render) for a in state.agent_ids()}}
        if mode is ControllerMode.PLANNER:
            policies["planner"] = _ObservationCheck(ScriptedPlanner(), render)
        report = run_episode(mode, state, budget=budget, **policies)

        assert report.steps == budget
        assert len(renders) == budget + 1
        assert renders == list(range(budget + 1))  # every state, once each
        assert [s.step for s in stepped] == list(range(1, budget + 1))
        assert [record["observation_hash"] for record in report.trace] == [observation_hash(s) for s in stepped]
        assert report.final_observation_hash == observation_hash(stepped[-1] if stepped else state)
        if mode is ControllerMode.PLANNER and budget == 25:
            assert report.planner_invocations > 1  # replans after a step, on that step's text


class _TextLog:
    """Wraps a policy; logs every response text it gives."""

    def __init__(self, inner, texts):
        self.inner, self.texts, self.model_id = inner, texts, inner.model_id

    def respond(self, query, state):
        response = self.inner.respond(query, state)
        self.texts.append(response.text)
        return response


class TestParseOnce:
    """Within an episode, each distinct response text is parsed once."""

    def counted(self, monkeypatch, name):
        parsed = []
        parser = getattr(coordination, name)

        def counting(text, roster, locations):
            parsed.append(text)
            return parser(text, roster, locations)

        monkeypatch.setattr(coordination, name, counting)
        return parsed

    @pytest.mark.parametrize("mode", [ControllerMode.INDIVIDUAL, ControllerMode.PLANNER])
    def test_worker_texts(self, mode, monkeypatch):
        parsed = self.counted(monkeypatch, "parse_action")
        state = load_level(get_level("level_3"), 3, seed=5)
        texts = []
        inner = {"agent0": ScriptedWorker(), "agent1": FlakyWorker(ScriptedWorker(), 0.3, seed=2),
                 "agent2": RecordedWorker(["goto(agent0, storage0)"] * 30)}
        workers = {a: _TextLog(policy, texts) for a, policy in inner.items()}
        planner = {"planner": ScriptedPlanner()} if mode is ControllerMode.PLANNER else {}
        report = run_episode(mode, state, workers=workers, budget=60, **planner)

        assert len(texts) == 180 and len(parsed) == len(set(parsed)) == len(set(texts)) < 60
        # agent2 answers agent0's action text, which is parsed once but refused on every call
        misaddressed = [f.step for f in report.fallbacks if f.reason == "action names another agent"]
        assert misaddressed == list(range(30))

    def test_joint_texts(self, monkeypatch):
        parsed = self.counted(monkeypatch, "parse_joint_actions")
        state = load_level(get_level("level_3"), 3, seed=5)
        texts = []
        run_episode(ControllerMode.ORCHESTRATOR, state, central=_TextLog(ScriptedOrchestrator(), texts), budget=60)

        assert len(texts) == 60 and len(parsed) == len(set(parsed)) == len(set(texts)) < 60


# each record a model call builds, with its constructor's fields and defaults
_NO_DEFAULT = inspect.Parameter.empty
CALL_RECORDS = {
    PolicyQuery: {"observation": _NO_DEFAULT, "agent_id": _NO_DEFAULT, "directives": None},
    PolicyResponse: {"text": _NO_DEFAULT, "tokens_in": None, "tokens_out": None},
    CompletionResult: dict.fromkeys(["text", "tokens_in", "tokens_out", "latency", "attempt"], _NO_DEFAULT),
    LedgerRow: {
        **dict.fromkeys(["model_id", "role", "tokens_in", "tokens_out", "usd_numerator",
                         "usd_denominator", "step"], _NO_DEFAULT),
        "unpriced": False,
    },
}


class TestCallRecords:
    def test_fields_and_defaults(self):
        for record, fields in CALL_RECORDS.items():
            params = inspect.signature(record).parameters
            assert {name: p.default for name, p in params.items()} == fields, record

    @pytest.mark.parametrize("record", [
        PolicyQuery("obs", "agent0", ("idle",)),
        PolicyResponse("noop(agent0)", 10, 2),
        CompletionResult("noop(agent0)", 10, 2, 0.25, 1),
        CostLedger().record_call("gpt-4o", "planner", 10, 2, 0),
    ], ids=lambda record: type(record).__name__)
    def test_fields_cannot_be_assigned(self, record):
        names = [*CALL_RECORDS[type(record)], *(["usd"] if isinstance(record, LedgerRow) else [])]
        for name in names:
            value = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, value)
            assert getattr(record, name) == value


class TestRetainedTrace:
    def test_report_keeps_under_250_bytes_per_agent_step(self):
        # per-step memory must stay flat over a long episode: the retained
        # report costs a fixed, small amount per agent-step
        level = LevelConfig.from_json_dict(stretched_level("level_3", 960))
        scripted_individual_episode(level, 6, seed=1, budget=20)  # one-off allocations
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = scripted_individual_episode(level, 6, seed=1)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.steps == 960
        assert retained / (report.steps * report.agent_count) < 250


class TestScriptedPolicies:
    def test_flaky_worker_is_deterministic(self, level_1):
        state = load_level(level_1, 1, seed=0)

        def run():
            worker = FlakyWorker(ScriptedWorker(), 0.5, seed=42)
            return run_episode(
                ControllerMode.INDIVIDUAL, state.copy(), workers={"agent0": worker}, budget=20
            )

        assert run().trace == run().trace

    def test_flaky_rate_bounds(self):
        with pytest.raises(ValueError):
            FlakyWorker(ScriptedWorker(), 1.5, seed=0)

    def test_recorded_worker_noop_after_exhaustion(self, level_1):
        state = load_level(level_1, 1, seed=0)
        worker = RecordedWorker(["goto(agent0, storage0)"])
        report = run_episode(
            ControllerMode.INDIVIDUAL, state, workers={"agent0": worker}, budget=3
        )
        texts = [record["actions"]["agent0"] for record in report.trace]
        assert texts == ["goto(agent0, storage0)", "noop(agent0)", "noop(agent0)"]

    def test_parse_plan_text(self):
        text = "Here is the plan:\nagent0: fetch salmon\nagent1: deliver the dish\n"
        directives = parse_plan_text(text, ["agent0", "agent1"])
        assert directives is not None
        assert directives == {"agent0": ("fetch salmon",), "agent1": ("deliver the dish",)}

    def test_parse_plan_text_requires_agent_lines(self):
        assert parse_plan_text("no directives at all", ["agent0"]) is None

    def test_plan_text_renders_all_agents(self, level_1):
        state = load_level(level_1, 2, seed=0)
        plan, _ = ScriptedPlanner().plan("p", state, state.agent_ids(), None, ())
        text = plan.to_text()
        assert "agent0:" in text and "agent1:" in text


class _StatusTransport:
    """An endpoint that answers every request with a client error."""

    def send(self, binding, body):
        raise GatewayError("status 404: no such model")


def _failing_transport(failure, monkeypatch):
    """A transport on which every completion raises ``failure``."""
    if failure == "ScriptExhausted":
        return install_mock([])
    if failure == "RetriesExhausted":
        return install_mock([MockEntry(fail_transient=True)] * 100)
    if failure == "MalformedResponse":
        return install_mock([MockEntry(malformed=True)] * 100)
    if failure == "AuthMissing":
        monkeypatch.delenv("ALLOCSIM_TEST_UNSET", raising=False)
        return HttpTransport()
    return _StatusTransport()


FAILURES = ["ScriptExhausted", "RetriesExhausted", "MalformedResponse", "AuthMissing", "GatewayError"]


class TestGatewayFailureBoundary:
    """No gateway failure aborts an episode, whichever role's call it hits."""

    BUDGET = 12  # the first order expires at step 9, so the planner replans twice

    def _run(self, role, failure, monkeypatch, level):
        binding = ModelBinding(
            model_id="m", endpoint_url="http://127.0.0.1:9/v1",
            auth_env_var="ALLOCSIM_TEST_UNSET", max_retries=0,
        )
        transport = _failing_transport(failure, monkeypatch)
        state = load_level(level, 2, seed=0)
        roster = state.agent_ids()
        if role == "worker":
            workers = {a: GatewayWorker(binding, transport) for a in roster}
            return run_episode(ControllerMode.INDIVIDUAL, state, workers=workers, budget=self.BUDGET)
        if role == "orchestrator":
            return run_episode(ControllerMode.ORCHESTRATOR, state,
                               central=GatewayOrchestrator(binding, transport), budget=self.BUDGET)
        return run_episode(ControllerMode.PLANNER, state, workers={a: ScriptedWorker() for a in roster},
                           planner=GatewayPlanner(binding, transport), budget=self.BUDGET)

    @pytest.mark.parametrize("role", ["worker", "orchestrator", "planner"])
    @pytest.mark.parametrize("failure", FAILURES)
    def test_failure_is_logged_not_raised(self, role, failure, monkeypatch, level_1):
        report = self._run(role, failure, monkeypatch, level_1)
        assert report.steps == self.BUDGET
        attempted = sum(cell.attempted for cell in report.capability.cells.values())
        assert attempted == self.BUDGET * 2
        assert report.ledger.rows == []
        if role == "planner":
            assert report.planner_invocations >= 2
            assert report.replan_failures == report.planner_invocations
            assert report.fallbacks == []
        else:
            assert len(report.fallbacks) == self.BUDGET * 2
            assert all(f.reason.startswith(f"{failure}: ") for f in report.fallbacks)
