"""The scripted oracle as it was before its one-pass rewrite, kept as the test oracle.

This is the self-assigning decision (``individual_action``), the unit
advance with its helpers, and the directive filter (``units_from_directives``)
of ``allocsim.policies``, with every tool pipeline rebuilt where it is
needed and the tool contents compared through ``Counter`` arithmetic.
``tests/test_policies.py`` holds the program's oracle equal to it.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from allocsim.coordination import Directive, WorkUnit
from allocsim.kitchen import (
    Activate,
    DishOrder,
    Get,
    Goto,
    KitchenAction,
    KitchenState,
    Noop,
    Put,
    order_urgency,
)


def sticky_tool(state: KitchenState, tool_kind: str, ordinal: int) -> str:
    tools = state.config.tools_by_kind[tool_kind]
    return tools[ordinal % len(tools)]


def pipeline_tools(state: KitchenState, dish: str, ordinal: int) -> list[str]:
    return [sticky_tool(state, step.tool_kind, ordinal) for step in state.config.recipe_for(dish).steps]


def order_units(state: KitchenState, order: DishOrder) -> list[WorkUnit]:
    tools = pipeline_tools(state, order.dish, order.ordinal)
    units = [WorkUnit(order.ordinal, order.dish, s, tool) for s, tool in enumerate(tools)]
    units.append(WorkUnit(order.ordinal, order.dish, None, tools[-1]))
    return units


def recovery_claimant(state: KitchenState, dish: str) -> int | None:
    ordinals = [o.ordinal for o in state.orders if o.dish == dish]
    return min(ordinals) if ordinals else None


def downstream_done(state: KitchenState, agent_id: str, unit: WorkUnit) -> bool:
    recipe = state.config.recipe_for(unit.dish)
    tools = pipeline_tools(state, unit.dish, unit.order_ordinal)
    me = state.agents[agent_id]
    for s in range(unit.step_index, len(recipe.steps)):
        output = recipe.steps[s].output
        tool = state.locations[tools[s]]
        if tool.contents.get(output, 0) > 0:
            return True
        if tool.processing is not None and tool.processing.output_item == output:
            return True
        if s + 1 < len(recipe.steps):
            if state.locations[tools[s + 1]].contents.get(output, 0) > 0:
                return True
        if me.holding == output:
            return True
        if output != unit.dish and any(a.holding == output for a in state.agents.values()):
            return True
    return False


def cook_input_sources(state: KitchenState, unit: WorkUnit, item: str) -> list[str]:
    recipe = state.config.recipe_for(unit.dish)
    sources: list[str] = []
    if unit.step_index > 0 and recipe.steps[unit.step_index - 1].output == item:
        sources.append(pipeline_tools(state, unit.dish, unit.order_ordinal)[unit.step_index - 1])
    if item in state.config.produced_items:
        if recovery_claimant(state, unit.dish) == unit.order_ordinal:
            sources.extend(state.config.storage_ids)
            sources.append(state.config.serving_table_id)
    else:
        sources.extend(state.config.storage_ids)
    return list(dict.fromkeys(sources))


def stash_action(state: KitchenState, agent_id: str) -> KitchenAction:
    storages = state.config.storage_ids
    if not storages:
        return Noop(agent_id)
    agent = state.agents[agent_id]
    if agent.at in storages:
        return Put(agent_id, agent.at)
    return Goto(agent_id, storages[0])


def goto_or(state: KitchenState, agent_id: str, loc_id: str, action: KitchenAction) -> KitchenAction:
    if state.agents[agent_id].at != loc_id:
        return Goto(agent_id, loc_id)
    return action


def advance_cook_unit(state: KitchenState, agent_id: str, unit: WorkUnit) -> KitchenAction | None:
    recipe = state.config.recipe_for(unit.dish)
    step = recipe.steps[unit.step_index]
    if downstream_done(state, agent_id, unit):
        return None
    tool = state.locations[unit.tool_id]
    if tool.busy:
        return None
    agent = state.agents[agent_id]
    need = Counter(dict(step.inputs))
    have = tool.contents
    if have == need:
        return goto_or(state, agent_id, unit.tool_id, Activate(agent_id, unit.tool_id))
    extraneous = have - need
    if extraneous and agent.holding is None:
        junk = sorted(extraneous)[0]
        return goto_or(state, agent_id, unit.tool_id, Get(agent_id, unit.tool_id, junk))
    missing = need - have
    if agent.holding is not None:
        if missing.get(agent.holding, 0) > 0:
            return goto_or(state, agent_id, unit.tool_id, Put(agent_id, unit.tool_id))
        return stash_action(state, agent_id)
    for item in sorted(missing):
        for source_id in cook_input_sources(state, unit, item):
            if source_id == unit.tool_id:
                continue
            source = state.locations[source_id]
            if not source.busy and source.contents.get(item, 0) > 0:
                return goto_or(state, agent_id, source_id, Get(agent_id, source_id, item))
    return None


def advance_deliver_unit(state: KitchenState, agent_id: str, unit: WorkUnit) -> KitchenAction | None:
    agent = state.agents[agent_id]
    table = state.config.serving_table_id
    if agent.holding == unit.dish:
        return goto_or(state, agent_id, table, Put(agent_id, table))
    if agent.holding is not None:
        return None
    sources = [unit.tool_id]
    if recovery_claimant(state, unit.dish) == unit.order_ordinal:
        sources.extend(state.config.storage_ids)
        sources.append(table)
    for source_id in sources:
        source = state.locations[source_id]
        if not source.busy and source.contents.get(unit.dish, 0) > 0:
            return goto_or(state, agent_id, source_id, Get(agent_id, source_id, unit.dish))
    tool = state.locations[unit.tool_id]
    if tool.processing is not None and tool.processing.output_item == unit.dish:
        if agent.at != unit.tool_id:
            return Goto(agent_id, unit.tool_id)
    return None


def advance_unit(state: KitchenState, agent_id: str, unit: WorkUnit) -> KitchenAction | None:
    if unit.step_index is None:
        return advance_deliver_unit(state, agent_id, unit)
    return advance_cook_unit(state, agent_id, unit)


def act_on_units(state: KitchenState, agent_id: str, units: Sequence[WorkUnit]) -> KitchenAction:
    for unit in units:
        action = advance_unit(state, agent_id, unit)
        if action is not None:
            return action
    if state.agents[agent_id].holding is not None:
        return stash_action(state, agent_id)
    return Noop(agent_id)


def individual_action(state: KitchenState, agent_id: str) -> KitchenAction:
    roster = state.agent_ids()
    index = roster.index(agent_id)
    owned = [
        order
        for order in sorted(state.orders, key=order_urgency)
        if order.ordinal % len(roster) == index
    ]
    units = [unit for order in owned for unit in order_units(state, order)]
    return act_on_units(state, agent_id, units)


def units_from_directives(state: KitchenState, directives: Sequence[Directive]) -> list[WorkUnit]:
    live = {order.ordinal: order.dish for order in state.orders}
    return [
        d
        for d in directives
        if isinstance(d, WorkUnit)
        and live.get(d.order_ordinal) == d.dish
        and d.tool_id in state.locations
        and (d.step_index is None or d.step_index < len(state.config.recipe_for(d.dish).steps))
    ]


def directed_action(state: KitchenState, agent_id: str, directives: Sequence[Directive]) -> KitchenAction:
    return act_on_units(state, agent_id, units_from_directives(state, directives))
