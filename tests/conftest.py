"""Shared test helpers: randomized level generation, episode running,
kitchen bookkeeping checks and reading CLI artifacts back."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import strategies as st

from allocsim.assignment import Candidate, CostMatrix
from allocsim.coordination import ControllerMode, Directive, PolicyQuery, parse_action, run_episode
from allocsim.kitchen import (
    Activate,
    Get,
    Goto,
    KitchenAction,
    KitchenState,
    LevelConfig,
    LocationKind,
    Noop,
    Put,
    UnknownAgent,
    _match_recipe_step,
    load_level,
)
from allocsim.policies import ScriptedPlanner, ScriptedWorker


def read_instances(text: str) -> list[CostMatrix]:
    """The matrices of an ``instances.json`` text."""
    return [CostMatrix.from_rows(entry["values"]) for entry in json.loads(text)]


def read_candidates(text: str) -> list[Candidate]:
    """The candidates of a ``candidates.json`` text."""
    return [Candidate.from_json_dict(entry) for entry in json.loads(text)]


def random_level(seed: int) -> LevelConfig:
    """Small structurally valid level with generous stock.

    Cook times are kept >= 2 so a tool finishing a cook is always
    distinguishable (busy before, free after), which the conservation
    checks rely on.
    """
    rng = random.Random(seed)
    ingredients = [f"ing{i}" for i in range(rng.randint(1, 3))]
    tool_kinds = [f"tk{i}" for i in range(rng.randint(1, 2))]

    locations = [
        {"id": "storage0", "kind": "storage", "stock": {ing: 12 for ing in ingredients}},
        {"id": "servingtable0", "kind": "servingtable"},
    ]
    for kind in tool_kinds:
        for instance in range(rng.randint(1, 2)):
            locations.append(
                {"id": f"{kind}_{instance}", "kind": "tool", "tool_kind": kind}
            )

    recipes = []
    for d in range(rng.randint(1, 2)):
        dish = f"dish{d}"
        steps = []
        available = list(ingredients)
        n_steps = rng.randint(1, 2)
        for s in range(n_steps):
            inputs: dict[str, int] = {}
            for item in rng.sample(available, rng.randint(1, min(2, len(available)))):
                inputs[item] = 1
            output = dish if s == n_steps - 1 else f"{dish}_mid{s}"
            steps.append(
                {
                    "tool_kind": rng.choice(tool_kinds),
                    "inputs": inputs,
                    "output": output,
                    "cook_steps": rng.randint(2, 4),
                }
            )
            available = [output] + ingredients
        recipes.append({"dish": dish, "steps": steps})

    payload = {
        "level_id": f"random_{seed}",
        "max_steps": rng.randint(20, 60),
        "locations": locations,
        "recipes": recipes,
        "order_schedule": {
            "spawn_interval": rng.randint(4, 15),
            "lifetime": rng.randint(6, 20),
            "dish_pool": [r["dish"] for r in recipes],
        },
    }
    return LevelConfig.from_json_dict(payload)


def stretched_level(name: str, horizon: int) -> dict:
    """JSON payload of a built-in level run to ``horizon`` steps, with one
    unit of every stocked ingredient per scheduled order."""
    from allocsim.levels import get_level

    payload = get_level(name).to_json_dict()
    payload["level_id"] = f"{name}_t{horizon}"
    payload["max_steps"] = horizon
    orders = len(range(0, horizon, payload["order_schedule"]["spawn_interval"]))
    for loc in payload["locations"]:
        if "stock" in loc:
            loc["stock"] = {item: orders for item in loc["stock"]}
    return payload


def legal_actions(state: KitchenState, agent_id: str) -> list[KitchenAction]:
    """Every action that would succeed for this agent right now, plus noop."""
    if agent_id not in state.agents:
        raise UnknownAgent(agent_id)
    agent = state.agents[agent_id]
    actions: list[KitchenAction] = []
    for loc_id in sorted(state.locations):
        actions.append(Goto(agent_id, loc_id))
    here = state.locations[agent.at]
    if agent.holding is None and not here.busy:
        for item in sorted(here.contents):
            if here.contents[item] > 0:
                actions.append(Get(agent_id, here.id, item))
    if agent.holding is not None and not here.busy:
        actions.append(Put(agent_id, here.id))
    if (
        here.kind is LocationKind.TOOL
        and not here.busy
        and _match_recipe_step(state.config, here.tool_kind or "", here.contents) is not None
    ):
        actions.append(Activate(agent_id, here.id))
    actions.append(Noop(agent_id))
    return actions


def draw_from(data):
    """A ``choose(options)`` that draws one of ``options`` from hypothesis ``data``."""
    return lambda options: data.draw(st.sampled_from(options))


def any_action(choose, state: KitchenState, agent_id: str) -> KitchenAction:
    """A legal action, or any well-formed one (often illegal) on a known location.

    ``choose(options)`` picks one of a sequence: ``random.Random.choice``,
    or :func:`draw_from` inside a hypothesis test.
    """
    if choose([True, False]):
        return choose(legal_actions(state, agent_id))
    location = choose(sorted(state.locations))
    items = sorted({item for loc in state.locations.values() for item in loc.contents} | {"junk"})
    kind = choose([Goto, Get, Put, Activate, Noop])
    if kind is Noop:
        return Noop(agent_id)
    if kind is Get:
        return Get(agent_id, location, choose(items))
    return kind(agent_id, location)


def item_census(state: KitchenState) -> Counter:
    """Multiset of every item at a location or in an agent's hands."""
    census: Counter = Counter()
    for loc in state.locations.values():
        census.update(loc.contents)
    for agent in state.agents.values():
        if agent.holding is not None:
            census[agent.holding] += 1
    return census


def order_accounting_ok(state: KitchenState) -> bool:
    """introduced == completed + expired + live, at any point in time."""
    return state.next_spawn_index == (
        len(state.completed_dishes) + state.expired_count + len(state.orders)
    )


def scripted_action(
    state: KitchenState, agent_id: str, directives: tuple[Directive, ...] | None = None
) -> KitchenAction | None:
    """The action a fresh ``ScriptedWorker`` answers for the agent: self-assigned, or under ``directives``."""
    text = ScriptedWorker().respond(PolicyQuery("", agent_id, directives), state).text
    return parse_action(text, state.agent_ids(), list(state.locations))


def scripted_individual_episode(level: LevelConfig, agents: int, seed: int, budget: int | None = None):
    state = load_level(level, agents, seed)
    return run_episode(
        ControllerMode.INDIVIDUAL,
        state,
        workers={a: ScriptedWorker() for a in state.agent_ids()},
        budget=budget,
    )


def scripted_planner_episode(level: LevelConfig, agents: int, seed: int, budget: int | None = None):
    state = load_level(level, agents, seed)
    return run_episode(
        ControllerMode.PLANNER,
        state,
        workers={a: ScriptedWorker() for a in state.agent_ids()},
        planner=ScriptedPlanner(),
        budget=budget,
    )


@pytest.fixture
def level_1():
    from allocsim.levels import get_level

    return get_level("level_1")
