"""Simulator tests: action semantics, rendering, and state invariants."""

from __future__ import annotations

import copy
import dataclasses
import random
import types
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim import kitchen
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
    load_level,
    observation_hash,
    render_observation,
    step,
)
from allocsim.levels import BUILTIN_LEVELS, get_level

from conftest import (
    any_action,
    draw_from,
    item_census,
    legal_actions,
    order_accounting_ok,
    random_level,
    scripted_action,
    scripted_individual_episode,
)


def noop_joint(state):
    return {a: Noop(a) for a in state.agent_ids()}


def run_actions(state, *joint_steps):
    """Apply a sequence of partial joint actions (missing agents noop) to ``state`` in place."""
    events = []
    results = []
    for partial in joint_steps:
        joint = noop_joint(state)
        joint.update(partial)
        outcome = step(state, joint)
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
        # a count below 1 would let an empty tool cook a dish from nothing
        for count in (0, -1, 1.5, True, "1"):
            bad_count = copy.deepcopy(base)
            bad_count["recipes"][0]["steps"][0]["inputs"] = {"salmon": count}
            with pytest.raises(MalformedLevel, match="count"):
                LevelConfig.from_json_dict(bad_count)

    @pytest.mark.parametrize("value", [0, -3, 6.9, 2.0, True, "8", None])
    @pytest.mark.parametrize("field", ["max_steps", "spawn_interval", "lifetime", "cook_steps", "stock"])
    def test_counts_must_be_ints_of_at_least_one(self, field, value):
        # read as they are: 6.9 steps is not 6, and true is not 1
        payload = copy.deepcopy(get_level("level_1").to_json_dict())
        owner = {
            "max_steps": payload,
            "spawn_interval": payload["order_schedule"],
            "lifetime": payload["order_schedule"],
            "cook_steps": payload["recipes"][0]["steps"][0],
            "stock": payload["locations"][0]["stock"],
        }[field]
        owner["salmon" if field == "stock" else field] = value
        with pytest.raises(MalformedLevel, match=f"{field}.*int"):
            LevelConfig.from_json_dict(payload)


class TestStepSemantics:
    def test_goto_relocates(self, level_1):
        state = load_level(level_1, 1, seed=0)
        nxt, _, results = run_actions(state, {"agent0": Goto("agent0", "storage0")})
        assert nxt.agents["agent0"].at == "storage0"
        assert results[0]["agent0"] is None

    def test_get_missing_item_fails_without_side_effects(self, level_1):
        state = load_level(level_1, 1, seed=0)
        nxt, _, results = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0")},
            {"agent0": Get("agent0", "storage0", "caviar")},
        )
        assert results[1]["agent0"] is FailReason.ITEM_ABSENT
        assert nxt.agents["agent0"].holding is None
        assert nxt.locations["storage0"].contents["salmon"] == 8

    def test_get_requires_presence(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(state, {"agent0": Get("agent0", "storage0", "salmon")})
        assert results[0]["agent0"] is FailReason.NOT_AT_LOCATION

    def test_get_with_full_hands_fails(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(
            state,
            {"agent0": Goto("agent0", "storage0")},
            {"agent0": Get("agent0", "storage0", "salmon")},
            {"agent0": Get("agent0", "storage0", "salmon")},
        )
        assert results[1]["agent0"] is None
        assert results[2]["agent0"] is FailReason.HANDS_FULL

    def test_put_with_empty_hands_fails(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(state, {"agent0": Put("agent0", "servingtable0")})
        assert results[0]["agent0"] is FailReason.NOTHING_HELD

    def test_activate_needs_matching_contents(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(
            state,
            {"agent0": Goto("agent0", "blender0")},
            {"agent0": Activate("agent0", "blender0")},
        )
        assert results[1]["agent0"] is FailReason.NO_MATCHING_RECIPE

    def test_activate_non_tool_fails(self, level_1):
        state = load_level(level_1, 1, seed=0)
        _, _, results = run_actions(state, {"agent0": Activate("agent0", "servingtable0")})
        assert results[0]["agent0"] is FailReason.NOT_A_TOOL

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
        assert all(r["agent0"] is None for r in results)
        blender = state.locations["blender0"]
        assert blender.processing is None
        assert blender.contents == Counter({"salmonMeatcake": 1})
        state, events, results = run_actions(
            state,
            {"agent0": Get("agent0", "blender0", "salmonMeatcake")},  # 7
            {"agent0": Goto("agent0", "servingtable0")},              # 8
            {"agent0": Put("agent0", "servingtable0")},               # 9
        )
        assert all(r["agent0"] is None for r in results)
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
        assert outcome.per_agent_result["agent0"] is None
        assert outcome.per_agent_result["agent1"] is FailReason.CONTENTION

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
        assert outcome.per_agent_result["agent0"] is None
        assert outcome.per_agent_result["agent1"] is FailReason.CONTENTION

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
            step(state, noop_joint(state))
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

    def test_step_applies_in_place(self, level_1):
        state = load_level(level_1, 1, seed=0)
        prior = state.copy()
        before = render_observation(state)
        outcome = step(state, {"agent0": Goto("agent0", "storage0")})
        assert outcome.per_agent_result["agent0"] is None
        assert (state.step, state.agents["agent0"].at) == (1, "storage0")
        assert render_observation(prior) == before


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
        assert all(r["agent0"] is None for r in results)
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
                    result = step(state.copy(), joint).per_agent_result[agent_id]
                    if action in legal:
                        assert result is None, (seed, action)
                    elif not isinstance(action, Noop):
                        assert result is not None, (seed, action)
                # walk one random legal step for every agent
                joint = {}
                for a in state.agent_ids():
                    choices = legal_actions(state, a)
                    joint[a] = choices[rng.randrange(len(choices))]
                step(state, joint)
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
        """Drive the env with the scripted oracle, yielding (prior state, stepped state, outcome)."""
        state = load_level(level, agents, seed)
        limit = steps if steps is not None else level.max_steps
        for _ in range(min(limit, level.max_steps)):
            joint = {a: scripted_action(state, a) for a in state.agent_ids()}
            before = state.copy()
            outcome = step(state, joint)
            yield before, state, outcome

    def test_item_conservation_exact(self):
        for seed in range(10):
            level = random_level(seed)
            for before, after, outcome in self._scripted_walk(level, 1 + seed % 3, seed * 17):
                assert item_census(after) == expected_census(before, outcome), (seed, before.step)

    def test_order_accounting_every_step(self):
        for seed in range(10):
            level = random_level(100 + seed)
            for _, after, _ in self._scripted_walk(level, 1 + seed % 3, seed):
                assert order_accounting_ok(after)

    def test_lifetime_strictly_decreases(self, level_1):
        state = load_level(level_1, 1, seed=0)
        for _ in range(level_1.max_steps):
            before = {(o.ordinal): o.lifetime for o in state.orders if o.issued_at <= state.step}
            step(state, noop_joint(state))
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
                for _, after, outcome in self._scripted_walk(level, 1 + seed % 3, seed):
                    log.append(
                        (
                            tuple(e.to_json_dict().items() for e in outcome.events),
                            observation_hash(after),
                        )
                    )
                runs.append(log)
            assert runs[0] == runs[1]


# --- the level's derived lookups against the linear scans they replaced -------


def scan_recipe_for(config, dish):
    for recipe in config.recipes:
        if recipe.dish == dish:
            return recipe
    raise KeyError(dish)


def scan_match_recipe_step(config, tool_kind, contents):
    for recipe in config.recipes:
        for step_ in recipe.steps:
            if step_.tool_kind == tool_kind and Counter(dict(step_.inputs)) == contents:
                return step_
    return None


def scan_tools_of_kind(state, tool_kind):
    return sorted(loc.id for loc in state.locations.values()
                  if loc.kind is kitchen.LocationKind.TOOL and loc.tool_kind == tool_kind)


def scan_storages(state):
    return sorted(loc.id for loc in state.locations.values() if loc.kind is kitchen.LocationKind.STORAGE)


def scan_serving_table(config):
    for loc in config.locations:
        if loc.kind is kitchen.LocationKind.SERVING_TABLE:
            return loc.id
    raise MalformedLevel("no serving table")


def duplicate_recipe_level() -> LevelConfig:
    """Two recipes for dish ``a``, and blender steps of ``a`` and ``b`` with equal inputs."""
    blend = {"tool_kind": "blender", "inputs": {"salmon": 1}, "cook_steps": 2}
    return LevelConfig.from_json_dict({
        "level_id": "duplicates",
        "max_steps": 20,
        "locations": [
            {"id": "storage1", "kind": "storage", "stock": {"salmon": 4, "rice": 4}},
            {"id": "storage0", "kind": "storage", "stock": {"rice": 2}},
            {"id": "servingtable0", "kind": "servingtable"},
            {"id": "blender1", "kind": "tool", "tool_kind": "blender"},
            {"id": "pot0", "kind": "tool", "tool_kind": "pot"},
            {"id": "blender0", "kind": "tool", "tool_kind": "blender"},
        ],
        "recipes": [
            {"dish": "a", "steps": [{**blend, "output": "a"}]},
            {"dish": "a", "steps": [{"tool_kind": "pot", "inputs": {"rice": 1}, "output": "a", "cook_steps": 3}]},
            {"dish": "b", "steps": [{**blend, "output": "b"}]},
        ],
        "order_schedule": {"spawn_interval": 5, "lifetime": 9, "dish_pool": ["a", "b"]},
    })


def _contents_to_try(config):
    """Every step's inputs, each with one unit more and one less, and empty contents."""
    tried = [Counter()]
    for recipe in config.recipes:
        for step_ in recipe.steps:
            inputs = Counter(dict(step_.inputs))
            tried.append(inputs)
            for item in inputs:
                tried.append(inputs + Counter({item: 1}))
                tried.append(inputs - Counter({item: 1}))
            tried.append(inputs + Counter({"junk": 1}))
    return tried


@st.composite
def recipe_levels(draw):
    """A random level whose step inputs are redrawn with counts 1-3, some behind a ``MappingProxyType``."""
    level = random_level(draw(st.integers(0, 10**6)))

    def redrawn(step_):
        inputs = {item: draw(st.integers(1, 3)) for item in step_.inputs}
        proxied = draw(st.booleans())
        return dataclasses.replace(step_, inputs=types.MappingProxyType(inputs) if proxied else inputs)

    recipes = tuple(dataclasses.replace(r, steps=tuple(map(redrawn, r.steps))) for r in level.recipes)
    return dataclasses.replace(level, recipes=recipes)


@st.composite
def tool_contents(draw, level):
    """Contents near one recipe step's inputs: empty, exact, a subset, a superset,
    with a foreign item, or with one count off by one."""
    steps = [s for r in level.recipes for s in r.steps]
    inputs = Counter(dict(draw(st.sampled_from(steps)).inputs))
    known = sorted({item for loc in level.locations for item in loc.stock} | level.produced_items)
    shape = draw(st.sampled_from(["empty", "exact", "subset", "superset", "foreign", "off by one"]))
    if shape == "empty":
        return Counter()
    if shape == "subset":
        kept = draw(st.lists(st.sampled_from(sorted(inputs)), unique=True, max_size=len(inputs) - 1))
        return Counter({item: inputs[item] for item in kept})
    if shape == "superset":
        return inputs + Counter(draw(st.lists(st.sampled_from(known), min_size=1, max_size=3)))
    if shape == "foreign":
        return inputs + Counter(junk=draw(st.integers(1, 2)))
    if shape == "off by one":
        item = draw(st.sampled_from(sorted(inputs)))
        inputs[item] += draw(st.sampled_from([-1, 1]))
        return +inputs  # a count that fell to zero leaves the tool
    return inputs


class TestLevelLookups:
    def assert_lookups_match_scans(self, config):
        state = load_level(config, 2, seed=0)
        for dish in {r.dish for r in config.recipes}:
            assert config.recipe_for(dish) is scan_recipe_for(config, dish)
        with pytest.raises(KeyError):
            config.recipe_for("no such dish")
        kinds = {loc.tool_kind for loc in config.locations if loc.tool_kind} | {"", "no such kind"}
        for kind in kinds:
            if kind in config.tools_by_kind:
                assert list(config.tools_by_kind[kind]) == scan_tools_of_kind(state, kind)
            else:
                assert scan_tools_of_kind(state, kind) == []
            for contents in _contents_to_try(config):
                expected = scan_match_recipe_step(config, kind, contents)
                assert kitchen._match_recipe_step(config, kind, contents) is expected
        assert list(config.storage_ids) == scan_storages(state)
        assert config.serving_table_id == scan_serving_table(config)
        assert config.produced_items == {s.output for r in config.recipes for s in r.steps}

    @pytest.mark.parametrize("name", sorted(BUILTIN_LEVELS))
    def test_builtin_levels(self, name):
        self.assert_lookups_match_scans(get_level(name))

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_random_levels(self, seed):
        self.assert_lookups_match_scans(random_level(seed))

    @given(level=recipe_levels(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_match_recipe_step_equals_the_counter_scan(self, level, data):
        # contents are drawn as a tool can hold them: no item with a zero count
        for kind in sorted(level.tools_by_kind) + ["no such kind"]:
            contents = data.draw(tool_contents(level))
            assert kitchen._match_recipe_step(level, kind, contents) is scan_match_recipe_step(level, kind, contents)

    def test_first_recipe_and_first_step_win(self):
        config = duplicate_recipe_level()
        self.assert_lookups_match_scans(config)
        assert config.recipe_for("a") is config.recipes[0]
        assert config.tools_by_kind["blender"] == ("blender0", "blender1")
        assert config.storage_ids == ("storage0", "storage1")
        # the steps of a and b both take one salmon on a blender: a's is first
        matched = kitchen._match_recipe_step(config, "blender", Counter(salmon=1))
        assert matched is config.recipes[0].steps[0] and matched.output == "a"


class TestSerialization:
    def test_level_config_round_trip(self, level_1):
        payload = level_1.to_json_dict()
        again = LevelConfig.from_json_dict(payload)
        assert again == level_1
        assert again.to_json_dict() == payload


class TestCopy:
    def test_copy_shares_only_the_immutable_level(self):
        state = load_level(get_level("level_3"), 3, seed=1)
        state.orders.append(DishOrder(state.dish_schedule[1], 5, 0, 1))
        state.completed_dishes.append(state.dish_schedule[0])
        for loc in state.locations.values():
            if loc.tool_kind is not None:
                loc.processing = Processing(2, "salmonPaste")
        dup = state.copy()

        assert dup == state
        assert dup.config is state.config and dup.dish_schedule is state.dish_schedule
        for name in ("agents", "locations", "orders", "completed_dishes"):
            assert getattr(dup, name) is not getattr(state, name), name
        for agent_id, agent in state.agents.items():
            assert dup.agents[agent_id] is not agent
        processing = 0
        for loc_id, loc in state.locations.items():
            twin = dup.locations[loc_id]
            assert twin is not loc and twin.contents is not loc.contents
            assert type(twin.contents) is Counter and twin.contents == loc.contents
            if loc.processing is not None:
                assert twin.processing is not loc.processing
                processing += 1
        assert processing > 0
        assert len(dup.orders) == 2
        assert all(a is not b for a, b in zip(dup.orders, state.orders))


def reference_step(state, joint):
    """The copy-then-apply step that ``kitchen.step`` replaced, kept as its oracle.

    ``state`` is left untouched: the actions are applied one by one to a
    deep copy, and an action failing on the copy that succeeds on ``state``
    lost a race to an earlier agent. Returns the next state, the events
    and the per-agent results.
    """
    if state.step >= state.config.max_steps:
        raise EpisodeOver(f"episode already ran its {state.config.max_steps} steps")
    kitchen._validate_joint(state, joint)

    t = state.step
    nxt = copy.deepcopy(state)
    events = []
    results = {}

    for agent_id in sorted(joint):
        action = joint[agent_id]
        reason = kitchen._check_action(nxt, action)
        if reason is None:
            events.extend(kitchen._apply_action(nxt, action))
        elif kitchen._check_action(state, action) is None:
            reason = FailReason.CONTENTION
        results[agent_id] = reason

    for loc_id in sorted(nxt.locations):
        loc = nxt.locations[loc_id]
        if loc.processing is not None:
            loc.processing.remaining_steps -= 1
            if loc.processing.remaining_steps == 0:
                loc.contents = Counter({loc.processing.output_item: 1})
                loc.processing = None

    still_live = []
    for order in nxt.orders:
        if order.issued_at <= t:
            order.lifetime -= 1
            if order.lifetime == 0:
                nxt.expired_count += 1
                events.append(KitchenEvent(EventKind.ORDER_EXPIRED, order.dish, t))
                continue
        still_live.append(order)
    nxt.orders = still_live

    upcoming = t + 1
    schedule = nxt.config.order_schedule
    if (
        upcoming < nxt.config.max_steps
        and upcoming % schedule.spawn_interval == 0
        and nxt.next_spawn_index < len(nxt.dish_schedule)
    ):
        dish = nxt.dish_schedule[nxt.next_spawn_index]
        nxt.orders.append(DishOrder(dish, schedule.lifetime, upcoming, nxt.next_spawn_index))
        nxt.next_spawn_index += 1
        events.append(KitchenEvent(EventKind.ORDER_INTRODUCED, dish, t))

    nxt.step = upcoming
    return nxt, tuple(events), results


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


def scarce(state) -> None:
    """Leave one unit of each stocked item, so agents getting the same item contend for the last one."""
    for loc in state.locations.values():
        if loc.kind is kitchen.LocationKind.STORAGE:
            loc.contents = Counter(dict.fromkeys(loc.contents, 1))


# the earlier agent's action, then the later agent's, on a tool holding a recipe step's exact inputs;
# each earlier action makes the later one fail, though it was fine before the step
_TOOL_RACES = ((Put, Activate), (Activate, Put), (Get, Activate))


def _contended_joint(choose, state, locations):
    """Every agent acts on one of ``locations``: those elsewhere go there, those there get its last item, put or activate.

    With two locations, one joint can hold a location that several agents
    act on and one that a single agent acts on. When one of ``locations``
    is a tool that a recipe step uses and there are two agents or more,
    the joint may also stage a race there, changing ``state`` first: the
    tool is left idle holding that step's exact inputs, and two agents
    stand there to take one of ``_TOOL_RACES``, the putting one with an
    item in hand and the getting one with none, while every other agent
    leaves the tool alone.
    """
    joint = {}
    for agent_id in state.agent_ids():
        location = choose(locations)
        item = max(state.locations[location].contents, default="junk")  # the last item, in sorted order
        kind = choose([Goto, Get, Put, Activate]) if state.agents[agent_id].at == location else Goto
        joint[agent_id] = Get(agent_id, location, item) if kind is Get else kind(agent_id, location)

    roster = state.agent_ids()
    steps = {loc: [s for r in state.config.recipes for s in r.steps if s.tool_kind == state.locations[loc].tool_kind]
             for loc in locations}
    tools = [loc for loc in locations if steps[loc]]
    if len(roster) < 2 or not tools or not choose([False, True]):
        return joint
    tool = state.locations[choose(tools)]
    tool.contents = Counter(dict(choose(steps[tool.id]).inputs))
    tool.processing = None
    for agent_id, action in joint.items():
        if action.location == tool.id and not isinstance(action, Goto):
            joint[agent_id] = Noop(agent_id)  # the race is the racers' alone
    first = choose(range(len(roster) - 1))
    racers = (roster[first], roster[choose(range(first + 1, len(roster)))])
    for agent_id, kind in zip(racers, choose(_TOOL_RACES)):
        agent = state.agents[agent_id]
        agent.at = tool.id
        if kind is Get:
            agent.holding = None
            joint[agent_id] = Get(agent_id, tool.id, max(tool.contents))
        else:
            if kind is Put:
                agent.holding = agent.holding or choose(sorted(tool.contents))
            joint[agent_id] = kind(agent_id, tool.id)
    return joint


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
    def test_step_changes_only_the_state_it_is_given(self, level, agents, seed, steps, data):
        state = load_level(level, agents, seed)
        for _ in range(min(steps, level.max_steps)):
            shared = state.copy()
            assert shared == copy.deepcopy(state)
            assert shared.config is state.config and shared.dish_schedule is state.dish_schedule

            joint = {a: any_action(draw_from(data), state, a) for a in state.agent_ids()}
            before = copy.deepcopy(state)
            twin = state.copy()
            outcome = step(state, joint)
            assert twin == before and shared == before
            assert state.config is shared.config
            assert item_census(state) == expected_census(before, outcome)
            assert order_accounting_ok(state)
            # recipe matching compares a tool's contents with plain inputs, so no tool holds a zero count
            assert all(n >= 1 for loc in state.locations.values() if loc.tool_kind for n in loc.contents.values())

            assert step(twin, joint) == outcome
            assert twin == state
            seen, after = observation_hash(state), copy.deepcopy(state)
            scribble(twin)
            scribble(shared)
            assert observation_hash(state) == seen
            assert state == after

    @given(
        level=st.integers(0, 400).map(random_level),
        agents=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        contended=st.sampled_from([0, 1, 2]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_matches_the_reference_step(self, level, agents, seed, contended, data):
        # contended: how many locations every agent's action is aimed at (0: any action)
        state = load_level(level, agents, seed)
        if contended:
            scarce(state)
            locations = data.draw(st.lists(st.sampled_from(sorted(state.locations)),
                                           min_size=contended, max_size=contended, unique=True))
        for _ in range(level.max_steps):
            if contended:
                joint = _contended_joint(draw_from(data), state, locations)
            else:
                joint = {a: any_action(draw_from(data), state, a) for a in state.agent_ids()}
            expected_state, expected_events, expected_results = reference_step(state, joint)
            outcome = step(state, joint)
            assert state == expected_state
            assert outcome.events == expected_events
            assert outcome.per_agent_result == expected_results

    @given(
        level=st.integers(0, 400).map(random_level),
        agents=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        contended=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_check_per_action_unless_a_location_is_shared(self, level, agents, seed, contended, data):
        # an action is checked twice only when an earlier agent gets from,
        # puts on or activates its location; otherwise exactly once
        state = load_level(level, agents, seed)
        if contended:
            scarce(state)
            locations = data.draw(st.lists(st.sampled_from(sorted(state.locations)),
                                           min_size=2, max_size=2, unique=True))
        for _ in range(level.max_steps):
            if contended:
                joint = _contended_joint(draw_from(data), state, locations)
            else:
                joint = {a: any_action(draw_from(data), state, a) for a in state.agent_ids()}
            shared, acted_on = 0, set()
            for agent_id in sorted(joint):
                action = joint[agent_id]
                if isinstance(action, (Get, Put, Activate)):
                    shared += action.location in acted_on
                    acted_on.add(action.location)
            with mock.patch.object(kitchen, "_check_action", wraps=kitchen._check_action) as check:
                step(state, joint)
            assert check.call_count == len(joint) + shared

    def test_contended_joints_meet_contention(self):
        # the contention-heavy strategy above does reach the race for a last
        # item, and the staged races for a tool that a put or a get spoils
        # for an activate, or an activate makes busy for a put
        lost = Counter()
        for seed in range(20):
            rng = random.Random(seed)
            level = random_level(seed)
            state = load_level(level, 6, seed)
            scarce(state)
            location = rng.choice(sorted(state.locations))
            for _ in range(level.max_steps):
                joint = _contended_joint(rng.choice, state, [location])
                outcome = step(state, joint)
                lost.update(type(joint[a]) for a, r in outcome.per_agent_result.items()
                            if r is FailReason.CONTENTION)
        assert lost[Get] > 0 and lost[Put] > 0 and lost[Activate] > 0, lost
