"""Policies: the deterministic scripted oracle and model-backed adapters.

The scripted oracle is the offline stand-in for model workers. It breaks
every live order into *work units* -- one cook unit per recipe step plus
a delivery unit -- assigns tool instances stickily by order ordinal (so
concurrent orders do not fight over a tool), and ferries ingredients,
activates tools, and serves dishes with whatever unit is most urgent.
Orders are ranked earliest-deadline-first throughout.

In Individual and Orchestrator modes the oracle self-assigns whole orders
round-robin by spawn ordinal; in Planner mode the scripted planner
partitions work units round-robin across agents, and scripted workers
follow the work units among their directives, whichever planner wrote
them. Decisions are pure functions of the state, which they only read,
so scripted episodes replay bit-for-bit.

An order's work units and tool pipeline depend only on the level and the
order, so each scripted policy instance builds them once per order, the
first time it sees it, in a table for the level it was last shown; a
state of another level replaces the table.
"""

from __future__ import annotations

import random
from typing import Sequence

from .coordination import (
    Directive,
    Plan,
    Policy,
    PolicyQuery,
    PolicyResponse,
    WorkUnit,
    directives_text,
    parse_plan_text,
)
from .gateway import ModelBinding, Transport, complete
from .kitchen import (
    Activate,
    DishOrder,
    Get,
    Goto,
    KitchenAction,
    KitchenEvent,
    KitchenState,
    LevelConfig,
    Noop,
    Put,
    Recipe,
    order_urgency,
)
from .prompts import (
    ORCHESTRATOR_SYSTEM,
    PLANNER_SYSTEM,
    WORKER_SYSTEM,
    orchestrator_prompt,
    worker_prompt,
)

SCRIPTED_MODEL_ID = "scripted"


def sticky_tool(state: KitchenState, tool_kind: str, ordinal: int) -> str:
    """Tool instance for an order: stable across steps and replans."""
    tools = state.config.tools_by_kind[tool_kind]
    return tools[ordinal % len(tools)]


class _OrderTable:
    """One level's orders, each with its work units and tool pipeline, built the first time it is seen.

    Both depend only on the level and the order's (ordinal, dish), so a
    policy keeps one table and replaces it when it is shown a state of
    another level. The table holds that level's config, which compares by
    identity, so an entry never serves a level it was not built for.
    """

    __slots__ = ("config", "_orders")

    def __init__(self, config: LevelConfig):
        self.config = config
        self._orders: dict[tuple[int, str], tuple[list[WorkUnit], list[str]]] = {}

    def _entry(self, state: KitchenState, ordinal: int, dish: str) -> tuple[list[WorkUnit], list[str]]:
        entry = self._orders.get((ordinal, dish))
        if entry is None:
            tools = [sticky_tool(state, step.tool_kind, ordinal) for step in state.config.recipe_for(dish).steps]
            units = [WorkUnit(ordinal, dish, s, tool) for s, tool in enumerate(tools)]
            units.append(WorkUnit(ordinal, dish, None, tools[-1]))
            entry = self._orders[ordinal, dish] = (units, tools)
        return entry

    def units(self, state: KitchenState, order: DishOrder) -> list[WorkUnit]:
        """A cook unit per recipe step of the order, then its delivery unit; callers only read the shared list."""
        return self._entry(state, order.ordinal, order.dish)[0]

    def tools(self, state: KitchenState, unit: WorkUnit) -> list[str]:
        """The tool of each recipe step of the unit's order."""
        return self._entry(state, unit.order_ordinal, unit.dish)[1]


def _recovery_claimant(state: KitchenState, dish: str) -> int | None:
    """The one live order of a dish allowed to scavenge strays of it.

    Concurrent orders of the same dish cannot tell loose items apart, so
    pickups outside an order's own tool pipeline are reserved for the
    lowest-ordinal live order; every agent computes the same answer from
    the same snapshot, which keeps scavenging race-free.
    """
    ordinals = [o.ordinal for o in state.orders if o.dish == dish]
    return min(ordinals) if ordinals else None


def _downstream_done(
    state: KitchenState, agent_id: str, unit: WorkUnit, recipe: Recipe, tools: Sequence[str]
) -> bool:
    """Has this cook step's output (or a later step's) been produced already?

    ``tools`` is the order's tool pipeline. Evidence is scoped to it plus
    carried items, so a concurrent order of the same dish does not get
    credited with this order's work. Items in other agents' hands count
    for intermediates (a plan may hand ferrying to someone else) but not
    for the finished dish, which is the delivery leg's business.
    """
    assert unit.step_index is not None
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
                return True  # staged at the next tool
        if me.holding == output:
            return True
        if output != unit.dish and any(
            a.holding == output for a in state.agents.values()
        ):
            return True
    return False


def _cook_input_sources(
    state: KitchenState, unit: WorkUnit, item: str, recipe: Recipe, tools: Sequence[str]
) -> list[str]:
    """Where a cook step may fetch an input from, in priority order.

    The prior step's own tool (from the order's pipeline ``tools``) first;
    then storages (plus the serving table for strays) -- but
    recipe-produced items may only be scavenged from shared locations by
    the dish's recovery claimant.
    """
    assert unit.step_index is not None
    sources: list[str] = []
    if unit.step_index > 0 and recipe.steps[unit.step_index - 1].output == item:
        sources.append(tools[unit.step_index - 1])
    if item in state.config.produced_items:
        if _recovery_claimant(state, unit.dish) == unit.order_ordinal:
            sources.extend(state.config.storage_ids)
            sources.append(state.config.serving_table_id)
    else:
        sources.extend(state.config.storage_ids)
    return list(dict.fromkeys(sources))


def _stash_action(state: KitchenState, agent_id: str) -> KitchenAction:
    """Free the hands: drop the held item at the first storage."""
    storages = state.config.storage_ids
    if not storages:
        return Noop(agent_id)
    agent = state.agents[agent_id]
    if agent.at in storages:
        return Put(agent_id, agent.at)
    return Goto(agent_id, storages[0])


def _goto_or(state: KitchenState, agent_id: str, loc_id: str, action: KitchenAction) -> KitchenAction:
    if state.agents[agent_id].at != loc_id:
        return Goto(agent_id, loc_id)
    return action


def _advance_cook_unit(
    state: KitchenState, agent_id: str, unit: WorkUnit, tools: Sequence[str]
) -> KitchenAction | None:
    """Next action toward cooking one recipe step, or None if nothing to do.

    The tool's contents are read against the step's inputs item by item.
    Both hold only counts >= 1 (a recipe input is validated so, and a tool
    drops an item whose count reaches 0), so equal items and counts are an
    exact match. ``tools`` is the order's tool pipeline.
    """
    assert unit.step_index is not None
    recipe = state.config.recipe_for(unit.dish)
    if _downstream_done(state, agent_id, unit, recipe, tools):
        return None
    tool = state.locations[unit.tool_id]
    if tool.busy:
        return None  # cooking (ours or someone else's); wait
    need = recipe.steps[unit.step_index].inputs
    have = tool.contents
    if len(have) == len(need) and all(have[item] == count for item, count in need.items()):
        return _goto_or(state, agent_id, unit.tool_id, Activate(agent_id, unit.tool_id))
    holding = state.agents[agent_id].holding
    if holding is not None:
        if need.get(holding, 0) > have[holding]:
            return _goto_or(state, agent_id, unit.tool_id, Put(agent_id, unit.tool_id))
        return _stash_action(state, agent_id)
    surplus = [item for item, count in have.items() if count > need.get(item, 0)]
    if surplus:
        # clear foreign or surplus items so the tool can ever match
        return _goto_or(state, agent_id, unit.tool_id, Get(agent_id, unit.tool_id, min(surplus)))
    for item in sorted(item for item, count in need.items() if count > have[item]):
        for source_id in _cook_input_sources(state, unit, item, recipe, tools):
            if source_id == unit.tool_id:
                continue
            source = state.locations[source_id]
            if not source.busy and source.contents.get(item, 0) > 0:
                return _goto_or(state, agent_id, source_id, Get(agent_id, source_id, item))
    return None  # inputs not yet produced; wait


def _advance_deliver_unit(
    state: KitchenState, agent_id: str, unit: WorkUnit
) -> KitchenAction | None:
    """Next action toward serving the finished dish.

    The delivery leg only takes the dish from its own final tool (or, for
    the recovery claimant, from storages and the serving table); finished
    dishes in other pipelines belong to their own delivery legs.
    """
    agent = state.agents[agent_id]
    table = state.config.serving_table_id
    if agent.holding == unit.dish:
        return _goto_or(state, agent_id, table, Put(agent_id, table))
    if agent.holding is not None:
        return None  # hands full with something else; other units decide
    sources = [unit.tool_id]
    if _recovery_claimant(state, unit.dish) == unit.order_ordinal:
        sources.extend(state.config.storage_ids)
        sources.append(table)
    for source_id in sources:
        source = state.locations[source_id]
        if not source.busy and source.contents.get(unit.dish, 0) > 0:
            return _goto_or(state, agent_id, source_id, Get(agent_id, source_id, unit.dish))
    # dish still being produced: stage at the tool it will come out of
    tool = state.locations[unit.tool_id]
    if tool.processing is not None and tool.processing.output_item == unit.dish:
        if agent.at != unit.tool_id:
            return Goto(agent_id, unit.tool_id)
    return None


def _act_on_units(
    state: KitchenState, agent_id: str, units: Sequence[WorkUnit], table: _OrderTable
) -> KitchenAction:
    for unit in units:
        if unit.step_index is None:
            action = _advance_deliver_unit(state, agent_id, unit)
        else:
            action = _advance_cook_unit(state, agent_id, unit, table.tools(state, unit))
        if action is not None:
            return action
    if state.agents[agent_id].holding is not None:
        return _stash_action(state, agent_id)
    return Noop(agent_id)


def _self_assigned_units(state: KitchenState, table: _OrderTable) -> dict[str, list[WorkUnit]]:
    """Every agent's units, in roster order: the live orders most urgent first, each dealt whole by ordinal."""
    roster = state.agent_ids()
    units: dict[str, list[WorkUnit]] = {agent_id: [] for agent_id in roster}
    for order in sorted(state.orders, key=order_urgency):
        units[roster[order.ordinal % len(roster)]] += table.units(state, order)
    return units


def _units_from_directives(
    state: KitchenState, directives: Sequence[Directive]
) -> list[WorkUnit]:
    """The directives' work units on live orders, in plan order.

    Free text is skipped, and so is a unit whose order completed or
    expired since the plan, or which names a step or location the kitchen
    does not have (a model can write any such unit).
    """
    live = {order.ordinal: order.dish for order in state.orders}
    return [
        d
        for d in directives
        if isinstance(d, WorkUnit)
        and live.get(d.order_ordinal) == d.dish
        and d.tool_id in state.locations
        and (d.step_index is None or d.step_index < len(state.config.recipe_for(d.dish).steps))
    ]


class _Scripted:
    """A scripted policy: it keeps the :class:`_OrderTable` of the last level it was shown."""

    model_id = SCRIPTED_MODEL_ID
    # a class default, so a subclass whose __init__ skips this class's still works
    _orders: _OrderTable | None = None

    def _table(self, state: KitchenState) -> _OrderTable:
        table = self._orders
        if table is None or table.config is not state.config:
            table = self._orders = _OrderTable(state.config)
        return table


class ScriptedWorker(_Scripted):
    """Deterministic worker: follows its directives, or self-assigns."""

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        table = self._table(state)
        if query.directives is not None:
            units = _units_from_directives(state, query.directives)
        else:
            units = _self_assigned_units(state, table)[query.agent_id]
        action = _act_on_units(state, query.agent_id, units, table)
        return PolicyResponse(text=action.to_text())


class RecordedWorker:
    """Answers step ``i`` with ``texts[i]``, and with a noop once the texts run out."""

    model_id = SCRIPTED_MODEL_ID

    def __init__(self, texts: Sequence[str]):
        self.texts = texts

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        if state.step < len(self.texts):
            return PolicyResponse(text=self.texts[state.step])
        return PolicyResponse(text=f"noop({query.agent_id})")


class ScriptedOrchestrator(_Scripted):
    """Central variant: emits one self-assigned action line per agent."""

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        table = self._table(state)
        lines = [
            _act_on_units(state, agent_id, units, table).to_text()
            for agent_id, units in _self_assigned_units(state, table).items()
        ]
        return PolicyResponse(text="\n".join(lines))


class ScriptedPlanner(_Scripted):
    """Greedy plan: EDF orders expanded to units, dealt round-robin."""

    def plan(
        self,
        prompt: str,
        state: KitchenState,
        roster: Sequence[str],
        prior: Plan | None,
        events: Sequence[KitchenEvent],
    ) -> tuple[Plan | None, PolicyResponse]:
        agents = sorted(roster)
        table = self._table(state)
        units = [
            unit
            for order in sorted(state.orders, key=order_urgency)
            for unit in table.units(state, order)
        ]
        dealt = {agent_id: tuple(units[i::len(agents)]) or ("idle",) for i, agent_id in enumerate(agents)}
        plan = Plan(created_at=state.step, directives=dealt)
        return plan, PolicyResponse(text=plan.to_text())


class FlakyWorker:
    """Wraps a policy and garbles its output at a seeded rate.

    Garbled responses carry no action grammar at all, so they register as
    parse failures downstream -- a stand-in for workers of varying
    reliability.
    """

    def __init__(self, inner: Policy, failure_rate: float, seed: int):
        if not 0.0 <= failure_rate <= 1.0:
            raise ValueError("failure_rate must lie in [0, 1]")
        self.inner = inner
        self.failure_rate = failure_rate
        self.model_id = inner.model_id
        self._rng = random.Random(seed)

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        response = self.inner.respond(query, state)
        if self._rng.random() < self.failure_rate:
            return PolicyResponse(text="(garbled output with no recognizable directive)")
        return response


# --- model-backed adapters -----------------------------------------------------


class _GatewayPolicy:
    """Shared state of the model-backed adapters.

    Each subclass defines its ``respond`` or ``plan`` in its own class body,
    because ``bench/tracer.py`` patches those methods class by class.
    """

    def __init__(self, binding: ModelBinding, transport: Transport | None = None):
        self.binding = binding
        self.transport = transport
        self.model_id = binding.model_id

    def _ask(self, system: str, user: str) -> PolicyResponse:
        messages = [
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        ]
        result = complete(self.binding, messages, self.transport)
        return PolicyResponse(result.text, result.tokens_in, result.tokens_out)


class GatewayWorker(_GatewayPolicy):
    """Worker policy backed by a chat-completion endpoint."""

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        directive_text = None
        if query.directives:
            directive_text = directives_text(query.directives)
        return self._ask(
            WORKER_SYSTEM, worker_prompt(query.observation, directive_text, query.agent_id)
        )


class GatewayOrchestrator(_GatewayPolicy):
    """Central policy backed by a chat-completion endpoint."""

    def respond(self, query: PolicyQuery, state: KitchenState) -> PolicyResponse:
        return self._ask(
            ORCHESTRATOR_SYSTEM, orchestrator_prompt(query.observation, state.agent_ids())
        )


class GatewayPlanner(_GatewayPolicy):
    """Planner backed by a chat-completion endpoint.

    Its reply is read by :func:`~allocsim.coordination.parse_plan_text`, so
    the work units it writes direct scripted workers. Unparseable plans
    return ``None`` so the episode keeps its prior plan.
    """

    def plan(
        self,
        prompt: str,
        state: KitchenState,
        roster: Sequence[str],
        prior: Plan | None,
        events: Sequence[KitchenEvent],
    ) -> tuple[Plan | None, PolicyResponse]:
        response = self._ask(PLANNER_SYSTEM, prompt)
        directives = parse_plan_text(response.text, roster)
        if directives is None:
            return None, response
        return Plan(created_at=state.step, directives=directives), response
