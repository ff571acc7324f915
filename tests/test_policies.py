"""Unit tests for the scripted oracle's building blocks and the read-only policy contract."""

from __future__ import annotations

import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocsim.coordination import ControllerMode, PolicyQuery, WorkUnit, run_episode
from allocsim.gateway import MockEntry, ModelBinding, install_mock
from allocsim.kitchen import Activate, Get, Goto, Noop, Put, load_level, observation_hash, step
from allocsim.levels import BUILTIN_LEVELS, get_level
from allocsim.policies import (
    FlakyWorker,
    GatewayOrchestrator,
    GatewayPlanner,
    GatewayWorker,
    RecordedWorker,
    ScriptedOrchestrator,
    ScriptedPlanner,
    ScriptedWorker,
    advance_unit,
    order_units,
    scripted_individual_action,
    sticky_tool,
)
from allocsim.seeding import derive_seed

import scripted_reference as reference
from conftest import any_action, random_level


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_path_sensitivity(self):
        seen = {derive_seed(7), derive_seed(7, "a"), derive_seed(7, "a", 1),
                derive_seed(7, "a", 2), derive_seed(8, "a", 1)}
        assert len(seen) == 5

    def test_64_bit_range(self):
        for i in range(50):
            assert 0 <= derive_seed(0, i) < 2**64


class TestWorkUnits:
    def test_sticky_tool_alternates_by_ordinal(self, level_1):
        state = load_level(level_1, 1, seed=0)
        assert sticky_tool(state, "blender", 0) == "blender0"
        assert sticky_tool(state, "blender", 1) == "blender1"
        assert sticky_tool(state, "blender", 2) == "blender0"

    def test_units_cover_steps_plus_delivery(self):
        state = load_level(get_level("level_3"), 1, seed=0)
        # force a known dish for the check
        order = state.orders[0]
        order.dish = "salmonRiceBowl"
        units = order_units(state, order)
        assert [u.step_index for u in units] == [0, 1, None]
        assert units[-1].tool_id == units[-2].tool_id  # delivery from the final tool

    def test_cook_unit_walks_through_the_recipe(self, level_1):
        state = load_level(level_1, 1, seed=0)
        unit = order_units(state, state.orders[0])[0]
        expected = [
            Goto("agent0", "storage0"),
            Get("agent0", "storage0", "salmon"),
            Goto("agent0", "blender0"),
            Put("agent0", "blender0"),
            Activate("agent0", "blender0"),
        ]
        for want in expected:
            action = advance_unit(state, "agent0", unit)
            assert action == want
            outcome = step(state, {"agent0": action})
            assert outcome.per_agent_result["agent0"] is None
        # while cooking there is nothing for the cook unit to do
        assert advance_unit(state, "agent0", unit) is None

    def test_deliver_unit_waits_then_serves(self, level_1):
        state = load_level(level_1, 1, seed=0)
        cook, deliver = order_units(state, state.orders[0])
        while (action := advance_unit(state, "agent0", cook)) is not None:
            step(state, {"agent0": action})
        # cooking: deliver pre-positions nothing (already at the tool? no: at blender0)
        while state.locations["blender0"].processing is not None:
            action = advance_unit(state, "agent0", deliver) or Noop("agent0")
            step(state, {"agent0": action})
        assert advance_unit(state, "agent0", deliver) == Get("agent0", "blender0", "salmonMeatcake")
        step(state, {"agent0": Get("agent0", "blender0", "salmonMeatcake")})
        assert advance_unit(state, "agent0", deliver) == Goto("agent0", "servingtable0")
        step(state, {"agent0": Goto("agent0", "servingtable0")})
        assert advance_unit(state, "agent0", deliver) == Put("agent0", "servingtable0")

    def test_janitor_clears_foreign_tool_contents(self, level_1):
        state = load_level(level_1, 1, seed=0)
        state.locations["blender0"].contents = Counter({"salmon": 2})  # overfilled
        unit = order_units(state, state.orders[0])[0]
        state.agents["agent0"].at = "blender0"
        action = advance_unit(state, "agent0", unit)
        assert action == Get("agent0", "blender0", "salmon")

    def test_oracle_actions_always_legal_on_shipped_levels(self):
        for level_id in ("level_1", "level_2", "level_3"):
            for agents in (1, 2, 3):
                state = load_level(get_level(level_id), agents, seed=99)
                for _ in range(state.config.max_steps):
                    joint = {
                        a: scripted_individual_action(state, a) for a in state.agent_ids()
                    }
                    at = state.step
                    outcome = step(state, joint)
                    for agent_id, result in outcome.per_agent_result.items():
                        assert result is None, (level_id, agents, at, joint[agent_id])

    def test_oracle_never_crashes_on_random_levels(self):
        # random levels may stall the oracle but must never make it illegal-act
        for seed in range(8):
            level = random_level(3000 + seed)
            state = load_level(level, 1 + seed % 3, seed)
            for _ in range(level.max_steps):
                joint = {a: scripted_individual_action(state, a) for a in state.agent_ids()}
                step(state, joint)


class TestPlannerPartition:
    def test_units_dealt_round_robin_by_agent_id(self):
        state = load_level(get_level("level_2"), 2, seed=0)
        plan, _ = ScriptedPlanner().plan("p", state, state.agent_ids(), None, ())
        # one live order, 2 cook steps + delivery = 3 units over 2 agents
        a0 = plan.directives["agent0"]
        a1 = plan.directives["agent1"]
        assert [d.step_index for d in a0] == [0, None]  # None: the delivery leg
        assert [d.step_index for d in a1] == [1]

    def test_idle_directive_when_no_work(self, level_1):
        state = load_level(level_1, 3, seed=0)
        state.orders.clear()
        plan, _ = ScriptedPlanner().plan("p", state, state.agent_ids(), None, ())
        assert all(plan.directives[a] == ("idle",) for a in state.agent_ids())

    def test_followers_skip_dead_orders(self, level_1):
        state = load_level(level_1, 1, seed=0)
        plan, _ = ScriptedPlanner().plan("p", state, state.agent_ids(), None, ())
        state.orders.clear()  # the order is gone before the worker acts
        worker = ScriptedWorker()
        from allocsim.coordination import PolicyQuery

        query = PolicyQuery(
            observation="obs", agent_id="agent0", directives=plan.directives["agent0"]
        )
        response = worker.respond(query, state)
        assert response.text == "noop(agent0)"


class _Recorder:
    """Delegates to ``inner`` and keeps a copy of every state it is shown, by step number.

    The episode state is live and changes after each step, so a copy is
    what stays as it was shown.
    """

    def __init__(self, inner, seen):
        self.inner = inner
        self.seen = seen
        self.model_id = inner.model_id

    def respond(self, query, state):
        shown = self.seen.setdefault(state.step, state.copy())
        assert shown == state, state.step  # every policy of a step is shown one state
        return self.inner.respond(query, state)


def episode_states(mode, level, agents, seed):
    """Every state a scripted episode under ``mode`` shows its policies, once each."""
    seen = {}
    state = load_level(level, agents, seed)
    run_episode(
        mode,
        state,
        workers={a: _Recorder(ScriptedWorker(), seen) for a in state.agent_ids()},
        central=_Recorder(ScriptedOrchestrator(), seen),
        planner=ScriptedPlanner(),
    )
    return list(seen.values())


def _mock():
    entry = MockEntry(text="agent0: idle\nnoop(agent0)", tokens_in=1, tokens_out=1)
    return install_mock([entry])


class TestReadOnlyContract:
    """Policies read the live episode state; none of them may change it."""

    BINDING = ModelBinding(model_id="m")

    def policy_calls(self, state):
        """(policy, query) for every stock policy, workers with and without directives."""
        plan, _ = ScriptedPlanner().plan("p", state, state.agent_ids(), None, ())
        calls = []
        for agent_id in state.agent_ids():
            bare = PolicyQuery(observation="obs", agent_id=agent_id)
            directed = PolicyQuery("obs", agent_id, plan.directives[agent_id])
            calls += [
                (ScriptedWorker(), bare),
                (ScriptedWorker(), directed),
                (FlakyWorker(ScriptedWorker(), 0.5, seed=1), directed),
                (RecordedWorker([f"goto({agent_id}, storage0)"]), bare),
                (GatewayWorker(self.BINDING, _mock()), directed),
            ]
        central = PolicyQuery(observation="obs", agent_id="__central__")
        return calls + [(ScriptedOrchestrator(), central), (GatewayOrchestrator(self.BINDING, _mock()), central)]

    @pytest.mark.parametrize("mode", list(ControllerMode), ids=lambda m: m.value)
    def test_policies_leave_the_state_unchanged(self, mode):
        states = episode_states(mode, get_level("level_3"), 3, seed=5)
        assert len(states) == 60
        assert len({observation_hash(s) for s in states}) == 60  # each step shows a state of its own
        for state in states:
            before = copy.deepcopy(state)
            for policy, query in self.policy_calls(state):
                policy.respond(query, state)
                assert state == before, (type(policy).__name__, query.agent_id, state.step)
            for planner in (ScriptedPlanner(), GatewayPlanner(self.BINDING, _mock())):
                planner.plan("prompt", state, state.agent_ids(), None, ())
                assert state == before, (type(planner).__name__, state.step)


# --- the oracle against the reference it replaced ------------------------------


def stray_units(rng, state):
    """Work units a plan can hold that do not fit the kitchen as it is now.

    Half are stale: any ordinal the level has issued (or the next one),
    any dish, any step index up to one past the recipe, and any location or
    none. The other half are units of a live order on any location.
    """
    dishes = sorted({recipe.dish for recipe in state.config.recipes})
    tools = sorted(state.locations) + ["nowhere"]
    units = []
    for _ in range(rng.randint(0, 3)):
        if state.orders and rng.random() < 0.5:
            order = rng.choice(state.orders)
            ordinal, dish = order.ordinal, order.dish
            steps = range(len(state.config.recipe_for(dish).steps))
        else:
            ordinal, dish = rng.randrange(state.next_spawn_index + 1), rng.choice(dishes)
            steps = range(len(state.config.recipe_for(dish).steps) + 1)
        units.append(WorkUnit(ordinal, dish, rng.choice([None, *steps]), rng.choice(tools)))
    return units


def planned_directives(rng, state):
    """Each agent's directives: ``ScriptedPlanner.plan``'s, with stray units mixed in."""
    plan, _ = ScriptedPlanner().plan("p", state, state.agent_ids(), None, ())
    directives = {}
    for agent_id, planned in plan.directives.items():
        mixed = list(planned)
        for unit in stray_units(rng, state):
            mixed.insert(rng.randint(0, len(mixed)), unit)
        directives[agent_id] = tuple(mixed)
    return directives


def oracle_walk(level, agents, seed, noise):
    """Yield each state of a walk, with every agent's directives, before the walk steps it.

    Each agent-step takes an ``any_action`` with probability ``noise`` and
    the reference oracle's action otherwise, self-assigned or under the
    directives, one or the other for the whole step: ``noise=1`` is a
    random walk and ``noise=0`` a scripted one.
    """
    rng = random.Random(seed)
    state = load_level(level, agents, seed)
    for _ in range(level.max_steps):
        directives = planned_directives(rng, state)
        yield state, directives
        directed = rng.random() < 0.5
        joint = {}
        for agent_id in state.agent_ids():
            if rng.random() < noise:
                joint[agent_id] = any_action(rng.choice, state, agent_id)
            elif directed:
                joint[agent_id] = reference.directed_action(state, agent_id, directives[agent_id])
            else:
                joint[agent_id] = reference.individual_action(state, agent_id)
        step(state, joint)


def assert_oracle_matches_reference(state, directives):
    worker = ScriptedWorker()
    for agent_id in state.agent_ids():
        alone = worker.respond(PolicyQuery("obs", agent_id), state).text
        assert alone == reference.individual_action(state, agent_id).to_text(), (state.step, agent_id)
        directed = worker.respond(PolicyQuery("obs", agent_id, directives[agent_id]), state).text
        expected = reference.directed_action(state, agent_id, directives[agent_id]).to_text()
        assert directed == expected, (state.step, agent_id, directives[agent_id])
        assert scripted_individual_action(state, agent_id).to_text() == alone


LEVELS = st.one_of(st.sampled_from(sorted(BUILTIN_LEVELS)).map(get_level), st.integers(0, 400).map(random_level))


class TestOracleMatchesReference:
    """The scripted oracle decides as the reference copy in ``scripted_reference.py`` does."""

    @given(level=LEVELS, agents=st.integers(1, 6), seed=st.integers(0, 2**16),
           noise=st.sampled_from([0.0, 0.2, 1.0]))
    @settings(max_examples=80, deadline=None)
    def test_every_agent_decides_as_the_reference(self, level, agents, seed, noise):
        for state, directives in oracle_walk(level, agents, seed, noise):
            assert_oracle_matches_reference(state, directives)

    def test_walks_reach_the_hard_states(self):
        # the walks above meet junk in tools, full hands, busy tools and
        # several live orders of one dish
        seen = Counter()
        for seed in range(12):
            level = get_level("level_3") if seed % 3 == 0 else random_level(seed)
            for noise in (0.0, 0.2, 1.0):
                for state, _ in oracle_walk(level, 1 + seed % 6, seed, noise):
                    # items no recipe step of a tool's kind takes or makes
                    own = {kind: {item for s in steps for item in (*s.inputs, s.output)}
                           for kind, steps in state.config.recipe_steps_by_tool.items()}
                    for loc in state.locations.values():
                        if loc.tool_kind is not None:
                            seen["junk in a tool"] += any(i not in own.get(loc.tool_kind, ()) for i in loc.contents)
                            seen["busy tool"] += loc.busy
                    seen["full hands"] += any(a.holding is not None for a in state.agents.values())
                    dishes = Counter(order.dish for order in state.orders)
                    seen["one dish twice"] += any(n > 1 for n in dishes.values())
        assert set(seen) == {"junk in a tool", "busy tool", "full hands", "one dish twice"}
        assert all(seen.values()), seen
