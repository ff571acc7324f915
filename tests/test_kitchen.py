"""Simulator tests: action semantics, rendering, and state invariants."""

from __future__ import annotations

import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.kitchen import (
    Activate,
    DishOrder,
    EpisodeOver,
    FailReason,
    Get,
    Goto,
    KitchenEvent,
    EventKind,
    LevelConfig,
    MalformedLevel,
    Noop,
    Processing,
    Put,
    UnknownAgent,
    UnknownLocation,
    item_census,
    legal_actions,
    load_level,
    observation_hash,
    order_accounting_ok,
    render_observation,
    step,
)
from allocsim.levels import BUILTIN_LEVELS, get_level

from conftest import random_level, scripted_individual_episode


def noop_joint(state):
    return {a: Noop(a) for a in state.agent_ids()}


def run_actions(state, *joint_steps):
    """Apply a sequence of partial joint actions (missing agents noop)."""
    events = []
    results = []
    for partial in joint_steps:
        joint = noop_joint(state)
        joint.update(partial)
        outcome = step(state, joint)
        state = outcome.next_state
        events.extend(outcome.events)
        results.append(outcome.per_agent_result)
    return state, events, results


class TestLoadLevel:
    def test_agents_start_at_serving_table_empty_handed(self, level_1):
        state = load_level(level_1, 2, seed=11)
        for agent_id in ("agent0", "agent1"):
            assert state.agents[agent_id].at == "servingtable0"
            assert state.agents[agent_id].holding is None
        assert state.step == 0
        assert len(state.orders) == 1
        assert state.orders[0].dish == "salmonMeatcake"

    def test_same_seed_same_state(self, level_1):
        a = load_level(level_1, 2, seed=5)
        b = load_level(level_1, 2, seed=5)
        assert render_observation(a) == render_observation(b)
        assert a.dish_schedule == b.dish_schedule

    @pytest.mark.parametrize("count", [0, 7, -1])
    def test_agent_count_bounds(self, level_1, count):
        with pytest.raises(ValueError):
            load_level(level_1, count, seed=0)

    def test_initial_introduction_logged(self, level_1):
        report = scripted_individual_episode(level_1, 1, seed=3, budget=0)
        assert report.event_log == (
            KitchenEvent(EventKind.ORDER_INTRODUCED, "salmonMeatcake", 0),
        )
        assert load_level(level_1, 1, seed=3).next_spawn_index == 1

    def test_malformed_configs_rejected(self):
        base = get_level("level_1").to_json_dict()
        no_table = dict(base, locations=[l for l in base["locations"] if l["kind"] != "servingtable"])
        with pytest.raises(MalformedLevel):
            LevelConfig.from_json_dict(no_table)
        bad_pool = dict(base, order_schedule=dict(base["order_schedule"], dish_pool=["nothing"]))
        with pytest.raises(MalformedLevel):
            LevelConfig.from_json_dict(bad_pool)


class TestStepSemantics:
    def test_goto_relocates(self, level_1):
        state = load_level(level_1, 1, seed=0)
        nxt, _, results = run_actions(state, {"agent0": Goto("agent0", "storage0")})
        assert nxt.agents["agent0"].at == "storage0"
        assert results[0]["agent0"].ok

    def test_get_missing_item_fails_without_side_effects(self, level_1):
        state = load_level(level_1, 1, seed=0)
        nxt, _, results = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0")},
            {"agent0": Get("agent0", "storage0", "caviar")},
        )
        assert results[1]["agent0"].reason is FailReason.ITEM_ABSENT
        assert nxt.agents["agent0"].holding is None
        assert nxt.locations["storage0"].contents["salmon"] == 8

    def test_get_requires_presence(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(state, {"agent0": Get("agent0", "storage0", "salmon")})
        assert results[0]["agent0"].reason is FailReason.NOT_AT_LOCATION

    def test_get_with_full_hands_fails(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0")},
            {"agent0": Get("agent0", "storage0", "salmon")},
            {"agent0": Get("agent0", "storage0", "salmon")},
        )
        assert results[1]["agent0"].ok
        assert results[2]["agent0"].reason is FailReason.HANDS_FULL

    def test_put_with_empty_hands_fails(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(state, {"agent0": Put("agent0", "servingtable0")})
        assert results[0]["agent0"].reason is FailReason.NOTHING_HELD

    def test_activate_needs_matching_contents(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(
            state,
            {"agent0": Goto("agent0", "blender0")},
            {"agent0": Activate("agent0", "blender0")},
        )
        assert results[1]["agent0"].reason is FailReason.NO_MATCHING_RECIPE

    def test_activate_non_tool_fails(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(state, {"agent0": Activate("agent0", "servingtable0")})
        assert results[0]["agent0"].reason is FailReason.NOT_A_TOOL

    def test_cooking_pipeline_and_serving(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state, events, results = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0")},      # 0
            {"agent0": Get("agent0", "storage0", "salmon")},  # 1
            {"agent0": Goto("agent0", "blender0")},      # 2
            {"agent0": Put("agent0", "blender0")},       # 3
            {"agent0": Activate("agent0", "blender0")},  # 4
            {"agent0": Noop("agent0")},                  # 5
            {"agent0": Noop("agent0")},                  # 6
        )
        assert all(r["agent0"].ok for r in results)
        blender = state.locations["blender0"]
        assert blender.processing is None
        assert blender.contents == Counter({"salmonMeatcake": 1})
        state, events, results = run_actions(
            state,
            {"agent0": Get("agent0", "blender0", "salmonMeatcake")},  # 7
            {"agent0": Goto("agent0", "servingtable0")},              # 8
            {"agent0": Put("agent0", "servingtable0")},               # 9
        )
        assert all(r["agent0"].ok for r in results)
        completed = [e for e in events if e.kind is EventKind.ORDER_COMPLETED]
        assert completed == [KitchenEvent(EventKind.ORDER_COMPLETED, "salmonMeatcake", 9)]
        assert state.completed_dishes == ["salmonMeatcake"]
        # the served dish left the world
        assert state.locations["servingtable0"].contents == Counter()

    def test_tool_locked_while_processing(self, level_1):
        state = load_level(level_1, 2, seed=0)
        state, _, _ = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0"), "agent1": Goto("agent1", "blender0")},
            {"agent0": Get("agent0", "storage0", "salmon")},
            {"agent0": Goto("agent0", "blender0")},
            {"agent0": Put("agent0", "blender0")},
        )
        outcome = step(state, {"agent0": Activate("agent0", "blender0"),
                               "agent1": Get("agent1", "blender0", "salmon")})
        # ascending order: agent0 activates first, agent1's get hits a busy tool
        assert outcome.per_agent_result["agent0"].ok
        assert outcome.per_agent_result["agent1"].reason is FailReason.CONTENTION

    def test_contention_on_last_item(self):
        payload = get_level("level_1").to_json_dict()
        payload["locations"][0]["stock"] = {"salmon": 1}
        level = LevelConfig.from_json_dict(payload)
        state = load_level(level, 2, seed=0)
        state, _, _ = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0"), "agent1": Goto("agent1", "storage0")},
        )
        outcome = step(state, {"agent0": Get("agent0", "storage0", "salmon"),
                               "agent1": Get("agent1", "storage0", "salmon")})
        assert outcome.per_agent_result["agent0"].ok
        assert outcome.per_agent_result["agent1"] .reason is FailReason.CONTENTION

    def test_expiry_fires_when_unserved(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state, events, _ = run_actions(state, *[{}] * 10)
        expired = [e for e in events if e.kind is EventKind.ORDER_EXPIRED]
        assert expired == [KitchenEvent(EventKind.ORDER_EXPIRED, "salmonMeatcake", 9)]
        assert state.expired_count == 1

    def test_orders_spawn_on_interval_and_are_visible_beforehand(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state, events, _ = run_actions(state, *[{}] * 12)
        # the order issued at step 12 spawned during step 11's call; the
        # first order was live from load
        introduced = [e for e in events if e.kind is EventKind.ORDER_INTRODUCED]
        assert [e.step for e in introduced] == [11]
        assert state.orders[-1].issued_at == 12
        assert state.next_spawn_index == 2

    def test_max_steps_refuses_further_steps(self, level_1):
        state = load_level(level_1, 1, seed=0)
        for _ in range(60):
            state = step(state, noop_joint(state)).next_state
        assert state.step == 60
        with pytest.raises(EpisodeOver):
            step(state, noop_joint(state))

    def test_unknown_ids_are_structural_errors(self, level_1):
        state = load_level(level_1, 1, seed=0)
        with pytest.raises(UnknownAgent):
            step(state, {"agent0": Noop("agent0"), "ghost": Noop("ghost")})
        with pytest.raises(ValueError):
            step(state, {})
        with pytest.raises(UnknownLocation):
            step(state, {"agent0": Goto("agent0", "atlantis")})

    def test_input_state_not_mutated(self, level_1):
        state = load_level(level_1, 1, seed=0)
        before = render_observation(state)
        step(state, {"agent0": Goto("agent0", "storage0")})
        assert render_observation(state) == before


class TestHandWrittenTrace:
    def test_two_agents_complete_salmon_meatcake_within_lifetime(self, level_1):
        # hand-written 10-step trace: agent0 does everything, agent1 idles
        state = load_level(level_1, 2, seed=1)
        script = [
            Goto("agent0", "storage0"),
            Get("agent0", "storage0", "salmon"),
            Goto("agent0", "blender0"),
            Put("agent0", "blender0"),
            Activate("agent0", "blender0"),
            Noop("agent0"),
            Noop("agent0"),
            Get("agent0", "blender0", "salmonMeatcake"),
            Goto("agent0", "servingtable0"),
            Put("agent0", "servingtable0"),
        ]
        state, events, results = run_actions(state, *[{"agent0": a} for a in script])
        assert all(r["agent0"].ok for r in results)
        assert KitchenEvent(EventKind.ORDER_COMPLETED, "salmonMeatcake", 9) in events
        assert state.completed_count == 1
        assert state.expired_count == 0


class TestRenderObservation:
    def test_fresh_level_1_lines(self, level_1):
        state = load_level(level_1, 2, seed=0)
        text = render_observation(state)
        assert "at(agent0, servingtable0)" in text
        assert "hold(agent0, None)" in text
        assert "at(agent1, servingtable0)" in text
        assert "inside(blender0, None)" in text
        assert "Current Game Level: level_1" in text
        assert "Maximum Game Steps: 60" in text
        for section in ("Game Configuration", "Agent State", "Kitchen State", "Accomplished Tasks"):
            assert section in text

    def test_purity(self, level_1):
        state = load_level(level_1, 2, seed=0)
        assert render_observation(state) == render_observation(state)
        assert observation_hash(state) == observation_hash(state)

    def test_multiset_contents_format(self, level_1):
        state = load_level(level_1, 1, seed=0)
        assert "inside(storage0, salmon*8)" in render_observation(state)

    def test_accomplished_tasks_listed(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state.completed_dishes.append("salmonMeatcake")
        lines = render_observation(state).splitlines()
        idx = lines.index("Accomplished Tasks")
        assert lines[idx + 1] == "salmonMeatcake"


class TestLegalActions:
    def test_put_listed_when_holding_at_tool(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state, _, _ = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0")},
            {"agent0": Get("agent0", "storage0", "salmon")},
            {"agent0": Goto("agent0", "blender0")},
        )
        assert Put("agent0", "blender0") in legal_actions(state, "agent0")

    def test_empty_hands_at_empty_location_offers_goto_noop_only(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state, _, _ = run_actions(state, {"agent0": Goto("agent0", "storage0")})
        state.locations["storage0"].contents.clear()  # shelf picked bare
        kinds = {type(a) for a in legal_actions(state, "agent0")}
        assert kinds == {Goto, Noop}

    def test_unknown_agent_rejected(self, level_1):
        state = load_level(level_1, 1, seed=0)
        with pytest.raises(UnknownAgent):
            legal_actions(state, "agent9")

    def _all_syntactic_actions(self, state, agent_id):
        items = set()
        for spec in state.config.locations:
            items.update(spec.stock)
        for recipe in state.config.recipes:
            for rstep in recipe.steps:
                items.update(rstep.inputs)
                items.add(rstep.output)
        actions = [Noop(agent_id)]
        for loc in sorted(state.locations):
            actions.append(Goto(agent_id, loc))
            actions.append(Put(agent_id, loc))
            actions.append(Activate(agent_id, loc))
            for item in sorted(items):
                actions.append(Get(agent_id, loc, item))
        return actions

    def test_listed_actions_succeed_and_unlisted_fail(self):
        # random walks through random levels, checking both directions
        for seed in range(12):
            level = random_level(seed)
            rng = random.Random(seed)
            state = load_level(level, 1 + seed % 3, rng.randrange(2**32))
            for _ in range(12):
                agent_id = rng.choice(state.agent_ids())
                legal = legal_actions(state, agent_id)
                for action in self._all_syntactic_actions(state, agent_id):
                    joint = noop_joint(state)
                    joint[agent_id] = action
                    result = step(state, joint).per_agent_result[agent_id]
                    if action in legal:
                        assert result.ok, (seed, action)
                    elif not isinstance(action, Noop):
                        assert not result.ok, (seed, action)
                # walk one random legal step for every agent
                joint = {}
                for a in state.agent_ids():
                    choices = legal_actions(state, a)
                    joint[a] = choices[rng.randrange(len(choices))]
                state = step(state, joint).next_state
                if state.step >= state.config.max_steps:
                    break


def expected_census(before, outcome) -> Counter:
    """The census after a step: cooks finishing this step swap their contents
    for their output, and served dishes leave the world."""
    consumed: Counter = Counter()
    produced: Counter = Counter()
    for loc in before.locations.values():
        if loc.processing is not None and loc.processing.remaining_steps == 1:
            consumed.update(loc.contents)
            produced[loc.processing.output_item] += 1
    served = Counter(e.dish for e in outcome.events if e.kind is EventKind.ORDER_COMPLETED)
    return item_census(before) + produced - consumed - served


class TestInvariants:
    def _scripted_walk(self, level, agents, seed, steps=None):
        """Drive the env with the scripted oracle, yielding transitions."""
        from allocsim.policies import scripted_individual_action

        state = load_level(level, agents, seed)
        limit = steps if steps is not None else level.max_steps
        for _ in range(min(limit, level.max_steps)):
            joint = {a: scripted_individual_action(state, a) for a in state.agent_ids()}
            outcome = step(state, joint)
            yield state, outcome
            state = outcome.next_state

    def test_item_conservation_exact(self):
        for seed in range(10):
            level = random_level(seed)
            for before, outcome in self._scripted_walk(level, 1 + seed % 3, seed * 17):
                assert item_census(outcome.next_state) == expected_census(before, outcome), (seed, before.step)

    def test_order_accounting_every_step(self):
        for seed in range(10):
            level = random_level(100 + seed)
            for _, outcome in self._scripted_walk(level, 1 + seed % 3, seed):
                assert order_accounting_ok(outcome.next_state)

    def test_lifetime_strictly_decreases(self, level_1):
        state = load_level(level_1, 1, seed=0)
        for _ in range(level_1.max_steps):
            before = {(o.ordinal): o.lifetime for o in state.orders if o.issued_at <= state.step}
            outcome = step(state, noop_joint(state))
            state = outcome.next_state
            after = {(o.ordinal): o.lifetime for o in state.orders}
            for ordinal, lifetime in before.items():
                if ordinal in after:
                    assert after[ordinal] == lifetime - 1

    def test_determinism_byte_identical(self):
        for seed in range(6):
            level = random_level(200 + seed)
            runs = []
            for _ in range(2):
                log = []
                for _, outcome in self._scripted_walk(level, 1 + seed % 3, seed):
                    log.append(
                        (
                            tuple(e.to_json_dict().items() for e in outcome.events),
                            observation_hash(outcome.next_state),
                        )
                    )
                runs.append(log)
            assert runs[0] == runs[1]


class TestSerialization:
    def test_level_config_round_trip(self, level_1):
        payload = level_1.to_json_dict()
        again = LevelConfig.from_json_dict(payload)
        assert again == level_1
        assert again.to_json_dict() == payload


def scribble(state) -> None:
    """Change every mutable part of ``state`` in place."""
    for agent in state.agents.values():
        agent.at, agent.holding = "nowhere", "junk"
    for loc in state.locations.values():
        loc.contents["junk"] += 1
        if loc.processing is not None:
            loc.processing.remaining_steps += 5
        else:
            loc.processing = Processing(9, "junk")
    for order in state.orders:
        order.lifetime += 7
    state.orders.append(DishOrder("junk", 1, 0, 99))
    state.completed_dishes.append("junk")
    state.next_spawn_index += 1


def _any_action(data, state, agent_id):
    """A legal action, or any well-formed one (often illegal) on a known location."""
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(legal_actions(state, agent_id)))
    location = data.draw(st.sampled_from(sorted(state.locations)))
    items = sorted({item for loc in state.locations.values() for item in loc.contents} | {"junk"})
    kind = data.draw(st.sampled_from([Goto, Get, Put, Activate, Noop]))
    if kind is Noop:
        return Noop(agent_id)
    if kind is Get:
        return Get(agent_id, location, data.draw(st.sampled_from(items)))
    return kind(agent_id, location)


class TestStepProperties:
    """``step`` on random levels, rosters and joint actions, legal and illegal."""

    @given(
        level=st.one_of(st.sampled_from(sorted(BUILTIN_LEVELS)).map(get_level),
                        st.integers(0, 400).map(random_level)),
        agents=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        steps=st.integers(1, 25),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_step_leaves_its_input_alone(self, level, agents, seed, steps, data):
        state = load_level(level, agents, seed)
        for _ in range(min(steps, level.max_steps)):
            shared = state.copy()
            assert shared == copy.deepcopy(state)
            assert shared.config is state.config and shared.dish_schedule is state.dish_schedule

            joint = {a: _any_action(data, state, a) for a in state.agent_ids()}
            before = copy.deepcopy(state)
            outcome = step(state, joint)
            assert state == before
            nxt = outcome.next_state
            assert nxt.config is state.config
            assert item_census(nxt) == expected_census(state, outcome)
            assert order_accounting_ok(nxt)

            fresh = step(state, joint).next_state
            assert fresh == nxt
            seen = observation_hash(state)
            scribble(nxt)
            scribble(shared)
            assert observation_hash(state) == seen
            assert state == before
            state = fresh
