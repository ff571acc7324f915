"""The plan format: what ``Plan.to_text`` writes, ``parse_plan_text`` reads back.

A model planner's reply goes through the same parser as the scripted
planner's text, so a mock planner that replays a scripted episode's plan
texts must drive scripted workers through the very same episode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.coordination import (
    ControllerMode,
    Plan,
    WorkUnit,
    directives_text,
    parse_plan_text,
    run_episode,
)
from allocsim.gateway import MockEntry, ModelBinding, install_mock
from allocsim.kitchen import LevelConfig, load_level
from allocsim.levels import get_level
from allocsim.policies import GatewayPlanner, ScriptedPlanner, ScriptedWorker

from conftest import random_level, stretched_level

PROSE = "Looking at the kitchen state, the most urgent order comes first."

UNITS = st.builds(
    WorkUnit,
    order_ordinal=st.integers(0, 10**4),
    dish=st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}", fullmatch=True),
    step_index=st.one_of(st.none(), st.integers(0, 12)),
    tool_id=st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
)
# free text as a model might write it: no item separator, no outer whitespace
FREE_TEXT = st.from_regex(r"[a-z0-9()]([a-z0-9 ():.-]{0,24}[a-z0-9().])?", fullmatch=True).filter(
    lambda text: not text.startswith(("cook step ", "deliver "))
)


class _RecordingPlanner(ScriptedPlanner):
    """Scripted planner that keeps every plan it issued."""

    def __init__(self) -> None:
        self.plans: list[Plan] = []

    def plan(self, prompt, state, roster, prior, events):
        plan, response = super().plan(prompt, state, roster, prior, events)
        self.plans.append(plan)
        return plan, response


def planner_episode(level: LevelConfig, agents: int, seed: int, planner):
    state = load_level(level, agents, seed)
    workers = {a: ScriptedWorker() for a in state.agent_ids()}
    return run_episode(ControllerMode.PLANNER, state, workers=workers, planner=planner)


class TestParsePlanText:
    def test_unit_forms_read_back_as_units(self):
        text = (
            "agent0: cook step 1 of salmonRiceBowl (order 12) at pan1; "
            "deliver salmonRiceBowl (order 12) from pan1\n"
            "agent1: idle"
        )
        assert parse_plan_text(text, ["agent0", "agent1"]) == {
            "agent0": (WorkUnit(12, "salmonRiceBowl", 1, "pan1"), WorkUnit(12, "salmonRiceBowl", None, "pan1")),
            "agent1": ("idle",),
        }

    def test_near_miss_unit_text_stays_text(self):
        roster = ["agent0", "agent1"]
        near_misses = (
            "cook step 01 of dish0 (order 1) at tk0_0",  # not how an int is written
            "deliver dish0 (order 1) from tk0_0 now",
            "Cook step 0 of dish0 (order 1) at tk0_0",
            "deliver dish0 (order -1) from tk0_0",
            "cook step 0 of dish 0 (order 1) at tk0_0",
        )
        for item in near_misses:
            assert parse_plan_text(f"agent1: {item}; idle", roster)["agent1"] == (item, "idle")

    def test_agent_lines_add_up_and_prose_is_skipped(self):
        text = f"{PROSE}\nAgent0 - deliver d (order 3) from t\nagent7: ignored\nagent0: wait"
        assert parse_plan_text(text, ["agent0"]) == {"agent0": (WorkUnit(3, "d", None, "t"), "wait")}

    @given(st.dictionaries(st.sampled_from(["agent0", "agent1", "agent2"]),
                           st.lists(st.one_of(UNITS, FREE_TEXT), min_size=1, max_size=4), min_size=1))
    @settings(max_examples=80, deadline=None)
    def test_any_plan_reads_back(self, items):
        plan = Plan(0, {agent: tuple(ds) for agent, ds in items.items()})
        roster = ["agent0", "agent1", "agent2"]
        parsed = parse_plan_text(plan.to_text(), roster)
        assert parsed == {a: plan.directives.get(a, ("idle",)) for a in roster}
        for agent, ds in items.items():
            assert directives_text(parsed[agent]) == directives_text(ds)

    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_every_scripted_plan_reads_back(self, level_seed, agents):
        planner = _RecordingPlanner()
        report = planner_episode(random_level(level_seed), agents, level_seed, planner)
        assert len(planner.plans) == report.planner_invocations
        for plan in planner.plans:
            roster = sorted(plan.directives)
            assert parse_plan_text(plan.to_text(), roster) == plan.directives


def assert_mock_planner_replays(level: LevelConfig, agents: int, seed: int) -> None:
    """A mock planner fed the scripted plan texts, each after a prose line,
    reproduces the scripted planner's episode step for step."""
    scripted = _RecordingPlanner()
    expected = planner_episode(level, agents, seed, scripted)
    transport = install_mock(
        MockEntry(text=f"{PROSE}\n{plan.to_text()}", tokens_in=1500, tokens_out=80)
        for plan in scripted.plans
    )
    replayed = planner_episode(level, agents, seed, GatewayPlanner(ModelBinding("claude-3.7"), transport))
    assert replayed.trace == expected.trace
    assert replayed.planner_prompts == expected.planner_prompts
    assert replayed.replan_failures == 0
    assert len(transport.requests) == len(scripted.plans)


class TestModelPlannerDrivesScriptedWorkers:
    @pytest.mark.parametrize("agents", [1, 2, 4, 6])
    @pytest.mark.parametrize("level_id", ["level_1", "level_2", "level_3"])
    def test_stock_levels(self, level_id, agents):
        assert_mock_planner_replays(get_level(level_id), agents, seed=7)

    def test_random_levels(self):
        for level_seed in range(24):
            assert_mock_planner_replays(random_level(500 + level_seed), 1 + level_seed % 6, level_seed)

    def test_long_horizon(self):
        level = LevelConfig.from_json_dict(stretched_level("level_3", 480))
        assert_mock_planner_replays(level, 3, seed=1)

    def test_units_a_kitchen_lacks_are_skipped(self, level_1):
        # the first order is salmonMeatcake (order 0), one blender step
        bogus = ("cook step 4 of salmonMeatcake (order 0) at blender0; "
                 "deliver salmonMeatcake (order 0) from nowhere; "
                 "cook step 0 of tunaSashimi (order 0) at blender0; "
                 "deliver salmonMeatcake (order 99) from blender0")
        transport = install_mock([MockEntry(text=f"agent0: {bogus}", tokens_in=1, tokens_out=1)])
        report = planner_episode(level_1, 1, 0, GatewayPlanner(ModelBinding("claude-3.7"), transport))
        assert report.steps == level_1.max_steps
        assert {record["actions"]["agent0"] for record in report.trace} == {"noop(agent0)"}
